"""Command-line front end.  Every command is a thin adapter: read files, call
the library, render certificates; no analysis logic lives here."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .basis import BlockSpec
from .core import DEFAULT_ABS, Tolerance
from .errors import InternalError, InvalidInput, MechIndepError
from .graphs import (
    blocks_from_components,
    block_structure_audit,
    build_graph,
    components,
    to_dot,
)
from .io import (
    _jsonable,
    certificate_lines,
    emit_report,
    read_matrix_csv,
    read_region_json,
    read_tensor_json,
    render,
    write_matrix_csv,
)
from .synth import OverlapTemplate, gen_overlap_jacobian
from .topology import premise_report, slices_connected
from . import criteria as cr

# criterion code -> (checker, the tensor option it needs).  Each checker takes
# the Jacobian, the blocks, the tolerance, the tensors read from --hessian and
# --third and the request's gaps (basis.request_gap), and looks its function
# up in the criteria module when called, so a function replaced there (as a
# profiler does) is the one that runs.
CRITERIA = {
    "d": (lambda M, b, tol, t, g: cr.check_type_d(M, b, tol), None),
    "m": (lambda M, b, tol, t, g: cr.check_type_m(M, b, tol), None),
    "s": (lambda M, b, tol, t, g: cr.check_type_s(M, b, tol, g), None),
    "o": (lambda M, b, tol, t, g: cr.check_type_o(M, b, tol), None),
    "s-pairwise": (lambda M, b, tol, t, g: cr.check_type_s_pairwise(M, b, tol, g), None),
    "h2": (lambda M, b, tol, t, g: cr.check_type_h(t["hessian"], b, 2, tol), "hessian"),
    "h3": (lambda M, b, tol, t, g: cr.check_type_h(t["third"], b, 3, tol), "third"),
    "contrast": (lambda M, b, tol, t, g: cr.contrast_certificate(M, b, tol), None),
    "hierarchy": (lambda M, b, tol, t, g: cr.hierarchy_audit(M, b, t["hessian"], tol, g), None),
}


@dataclass
class AnalysisRequest:
    """One command and its options; the command-line parser's destinations
    are these field names."""

    command: str
    input_path: str | None = None
    blocks: tuple | None = None
    criteria: tuple = ("d", "m", "s")
    fmt: str = "text"
    tol: Tolerance | None = None
    hessian_path: str | None = None
    third_path: str | None = None
    batch: bool = False
    pairwise: bool = False
    slices: int | None = None
    k: int | None = None
    slot_dim: int = 3
    slot_out: int = 20
    overlap: float = 0.0
    seed: int = 0
    draws: int = 200
    out: str | None = None


def _blockspec(request: AnalysisRequest) -> BlockSpec:
    if not request.blocks:
        raise InvalidInput("this command needs --blocks (comma list of sizes)")
    return BlockSpec(tuple(request.blocks))


def _analyze_one(path: str, request: AnalysisRequest, gaps: dict) -> list:
    M = read_matrix_csv(path)
    blocks = _blockspec(request)
    tensors = {
        "hessian": read_tensor_json(request.hessian_path) if request.hessian_path else None,
        "third": read_tensor_json(request.third_path) if request.third_path else None,
    }
    certs = []
    for code in request.criteria:
        if code not in CRITERIA:
            raise InvalidInput(f"unknown criterion {code!r}; choose from {', '.join(CRITERIA)}")
        check, needs = CRITERIA[code]
        if needs and tensors[needs] is None:
            raise InvalidInput(f"criterion {code} needs --{needs}")
        certs.append(check(M, blocks, request.tol, tensors, gaps))
    return certs


def _tol_header(tol: Tolerance | None) -> dict:
    tol = tol or Tolerance.default()
    return {"tolRel": tol.rel, "tolAbs": tol.abs}


def _run_analyze(request: AnalysisRequest):
    header = {
        "command": "analyze",
        "input": request.input_path,
        "blocks": ",".join(str(b) for b in (request.blocks or ())),
        "criteria": ",".join(request.criteria),
    }
    header.update(_tol_header(request.tol))
    gaps: dict = {}
    if not request.batch:
        certs = _analyze_one(request.input_path, request, gaps)
        body = emit_report(certs, request.fmt, header)
        return (0 if all(c.holds for c in certs) else 1), body
    directory = Path(request.input_path)
    if not directory.is_dir():
        raise InvalidInput(f"--batch needs a directory, got {request.input_path}")
    files = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
    if not files:
        raise InvalidInput(f"no .csv files in {directory}")
    sections = [(str(p.name), _analyze_one(str(p), request, gaps)) for p in files]
    all_hold = all(c.holds for _, certs in sections for c in certs)
    payload = {
        "files": [
            {"input": name, "certificates": [c.to_dict() for c in certs]}
            for name, certs in sections
        ]
    }

    def lines():
        for name, certs in sections:
            yield f"## file: {name}"
            yield from certificate_lines(certs)

    return (0 if all_hold else 1), render(request.fmt, header, payload, lines)


def _run_decompose(request: AnalysisRequest):
    M = read_matrix_csv(request.input_path)
    graph = build_graph(M, "D", request.tol)
    if request.fmt == "dot":
        return 0, to_dot(graph).encode()
    comps = components(graph)
    inferred = blocks_from_components(comps)
    header = {"command": "decompose", "input": request.input_path}
    header.update(_tol_header(request.tol))
    payload = {"components": comps, "blocks": inferred.sizes if inferred else None}

    def lines():
        for i, comp in enumerate(comps, start=1):
            yield f"component {i}: {{{', '.join(str(v) for v in comp)}}}"
        yield "blocks: " + (",".join(map(str, inferred.sizes)) if inferred else "not contiguous")

    return 0, render(request.fmt, header, payload, lines)


def _run_gap(request: AnalysisRequest):
    M = read_matrix_csv(request.input_path)
    blocks = _blockspec(request)
    gaps: dict = {}
    certs = [cr.check_type_s(M, blocks, request.tol, gaps)]
    if request.pairwise:
        certs.append(cr.check_type_s_pairwise(M, blocks, request.tol, gaps))
    header = {
        "command": "gap",
        "input": request.input_path,
        "blocks": ",".join(str(b) for b in blocks.sizes),
    }
    header.update(_tol_header(request.tol))
    code = 0 if all(c.holds for c in certs) else 1

    def lines():
        s_cert = certs[0]
        yield f"rhoPlus={s_cert.witness['rhoPlus']}"
        yield f"rhoMinus={s_cert.witness['rhoMinus']}"
        yield f"independent={'true' if s_cert.holds else 'false'}"
        if request.pairwise:
            for i, row in enumerate(certs[1].witness["table"], start=1):
                yield f"pairwise {i}: {' '.join('T' if x else 'F' for x in row)}"

    return code, emit_report(certs, request.fmt, header, lines)


def _run_topology(request: AnalysisRequest):
    region = read_region_json(request.input_path)
    cert = premise_report(region)
    header = {"command": "topology", "input": request.input_path}
    payload = {"certificates": [cert.to_dict()]}
    if request.slices is not None:
        rep = slices_connected(region, request.slices)
        payload["slices"] = {
            "k": rep.k,
            "allConnected": rep.all_connected,
            "slices": [
                {
                    "fixed": v.spec.fixed_1based(),
                    "connected": v.connected,
                    "cells": v.cell_count,
                }
                for v in rep.verdicts
            ],
        }

    def lines():
        yield from certificate_lines([cert])
        if request.slices is None:
            return
        yield f"slice k={rep.k} allConnected={'true' if rep.all_connected else 'false'}"
        for v in rep.verdicts:
            fixed = ",".join(f"{a}={c}" for a, c in sorted(v.spec.fixed_1based().items()))
            yield (
                f"  slice [{fixed}]: {'connected' if v.connected else 'DISCONNECTED'}"
                f" ({v.cell_count} cells)"
            )

    return (0 if cert.holds else 1), render(request.fmt, header, payload, lines)


def _run_synth(request: AnalysisRequest):
    if request.k is None or request.out is None:
        raise InvalidInput("synth needs --k and --out")
    template = OverlapTemplate(
        K=request.k,
        slot_dim=request.slot_dim,
        slot_out=request.slot_out,
        overlap_ratio=request.overlap,
        seed=request.seed,
    )
    M, blocks, sidecar = gen_overlap_jacobian(template)
    csv_path = request.out + ".csv"
    json_path = request.out + ".json"
    write_matrix_csv(csv_path, M)
    with open(json_path, "w") as fh:
        json.dump(_jsonable(sidecar), fh, indent=2)
        fh.write("\n")
    header = {
        "command": "synth",
        "seed": request.seed,
        "K": request.k,
        "slotDim": request.slot_dim,
        "slotOut": request.slot_out,
        "overlap": request.overlap,
    }
    rows, cols = M.shape
    payload = {"wrote": [csv_path, json_path], "rows": rows, "cols": cols}
    return 0, render(
        request.fmt, header, payload,
        lambda: [f"wrote {csv_path} ({rows}x{cols})", f"wrote {json_path}"],
    )


def _run_audit(request: AnalysisRequest):
    if request.k is None:
        raise InvalidInput("audit needs --k (claimed block count)")
    M = read_matrix_csv(request.input_path)
    cert = block_structure_audit(
        M, request.k, request.tol, draws=request.draws, seed=request.seed
    )
    header = {
        "command": "audit",
        "input": request.input_path,
        "K": request.k,
        "draws": request.draws,
        "seed": request.seed,
    }
    header.update(_tol_header(request.tol))
    return (0 if cert.holds else 1), emit_report([cert], request.fmt, header)


def run(request: AnalysisRequest):
    """Dispatch a request; returns (exit code, report bytes)."""
    handlers = {
        "analyze": _run_analyze,
        "decompose": _run_decompose,
        "gap": _run_gap,
        "topology": _run_topology,
        "synth": _run_synth,
        "audit": _run_audit,
    }
    if request.command not in handlers:
        raise InvalidInput(f"unknown command {request.command!r}")
    if request.fmt == "dot" and request.command != "decompose":
        raise InvalidInput("dot output is only available for decompose")
    if request.fmt not in ("json", "text", "dot"):
        raise InvalidInput(f"unknown format {request.fmt!r}")
    return handlers[request.command](request)


def _parse_blocks(text: str) -> tuple:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"blocks must be a comma list of integers: {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"block sizes must be positive: {text!r}")
    return sizes


def _parse_tol(text: str) -> Tolerance:
    try:
        return Tolerance(rel=float(text), abs=DEFAULT_ABS)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}")


def _parse_criteria(text: str) -> tuple:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechindep",
        description="Decide and certify mechanistic independence criteria on Jacobians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input_path", metavar="input", help="input file")
        p.add_argument("--tol", type=_parse_tol, default=None,
                       help="relative tolerance (overrides MECHINDEP_TOL)")
        p.add_argument("--format", dest="fmt", default="text",
                       choices=["json", "text", "dot"])

    p = sub.add_parser("analyze", help="run criteria checkers on a Jacobian CSV")
    common(p)
    p.add_argument("--criteria", type=_parse_criteria, default="d,m,s",
                   help="comma list from: " + ",".join(CRITERIA))
    p.add_argument("--blocks", type=_parse_blocks, default=None)
    p.add_argument("--hessian", dest="hessian_path", metavar="HESSIAN", default=None,
                   help="Hessian tensor JSON for h2")
    p.add_argument("--third", dest="third_path", metavar="THIRD", default=None,
                   help="order-3 tensor JSON for h3")
    p.add_argument("--batch", action="store_true",
                   help="treat input as a directory of CSV files")

    p = sub.add_parser("decompose", help="connected components of the disjointness graph")
    common(p)

    p = sub.add_parser("gap", help="sparsity gap rho+/rho- for a block split")
    common(p)
    p.add_argument("--blocks", type=_parse_blocks, required=True)
    p.add_argument("--pairwise", action="store_true")

    p = sub.add_parser("topology", help="grid-region premise report")
    common(p)
    p.add_argument("--slices", type=int, default=None,
                   help="also report every k-slice for this k")

    p = sub.add_parser("synth", help="generate a planted overlap instance")
    common(p, needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--slot-dim", type=int, default=3)
    p.add_argument("--slot-out", type=int, default=20)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("audit", help="maximal block structure audit")
    common(p)
    p.add_argument("--k", type=int, required=True, help="claimed block count")
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, body = run(AnalysisRequest(**vars(args)))
    except InternalError:
        raise
    except (MechIndepError, OSError) as exc:
        print(f"mechindep: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(body)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
