"""Command-line front end.  Every command is a thin adapter: read files, call
the library, render certificates; no analysis logic lives here.  The parsed
argparse namespace is the request: its attributes are the subcommand's
options, and its handler is the one the subparser sets as a default."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .basis import BlockSpec, one_request
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
    certificate_lines,
    emit_report,
    read_matrix_csv,
    read_region_json,
    read_tensor_json,
    render,
    to_json,
    write_matrix_csv,
)
from .synth import OverlapTemplate, gen_overlap_jacobian
from .topology import premise_report, slices_connected
from . import criteria as cr

# criterion code -> (checker, the tensor option it needs).  Each checker takes
# the Jacobian, the blocks, the tolerance and the tensors read from --hessian
# and --third, and looks its function up in the criteria module when called,
# so a function replaced there (as a profiler does) is the one that runs.
CRITERIA = {
    "d": (lambda M, b, tol, t: cr.check_type_d(M, b, tol), None),
    "m": (lambda M, b, tol, t: cr.check_type_m(M, b, tol), None),
    "s": (lambda M, b, tol, t: cr.check_type_s(M, b, tol), None),
    "o": (lambda M, b, tol, t: cr.check_type_o(M, b, tol), None),
    "s-pairwise": (lambda M, b, tol, t: cr.check_type_s_pairwise(M, b, tol), None),
    "h2": (lambda M, b, tol, t: cr.check_type_h(t["hessian"], b, 2, tol), "hessian"),
    "h3": (lambda M, b, tol, t: cr.check_type_h(t["third"], b, 3, tol), "third"),
    "contrast": (lambda M, b, tol, t: cr.contrast_certificate(M, b, tol), None),
    "hierarchy": (lambda M, b, tol, t: cr.hierarchy_audit(M, b, t["hessian"], tol), None),
}


def _blockspec(args: argparse.Namespace) -> BlockSpec:
    if not args.blocks:
        raise InvalidInput("this command needs --blocks (comma list of sizes)")
    return BlockSpec(args.blocks)


def _analyze_one(path: str, args: argparse.Namespace, tensors: dict) -> list:
    """The certificates of one CSV.  tensors holds the request's --hessian
    and --third tensors, read into it at its first CSV (after that CSV and
    the blocks, so errors come in that order) and reused for the rest."""
    M = read_matrix_csv(path)
    blocks = _blockspec(args)
    if not tensors:
        tensors["hessian"] = read_tensor_json(args.hessian_path) if args.hessian_path else None
        tensors["third"] = read_tensor_json(args.third_path) if args.third_path else None
    certs = []
    for code in args.criteria:
        if code not in CRITERIA:
            raise InvalidInput(f"unknown criterion {code!r}; choose from {', '.join(CRITERIA)}")
        check, needs = CRITERIA[code]
        if needs and tensors[needs] is None:
            raise InvalidInput(f"criterion {code} needs --{needs}")
        certs.append(check(M, blocks, args.tol, tensors))
    return certs


def _tol_header(tol: Tolerance | None) -> dict:
    tol = tol or Tolerance.default()
    return {"tolRel": tol.rel, "tolAbs": tol.abs}


def _run_analyze(args: argparse.Namespace):
    header = {
        "command": "analyze",
        "input": args.input_path,
        "blocks": ",".join(str(b) for b in (args.blocks or ())),
        "criteria": ",".join(args.criteria),
    }
    header.update(_tol_header(args.tol))
    if not args.batch:
        certs = _analyze_one(args.input_path, args, {})
        body = emit_report(certs, args.fmt, header)
        return (0 if all(c.holds for c in certs) else 1), body
    directory = Path(args.input_path)
    if not directory.is_dir():
        raise InvalidInput(f"--batch needs a directory, got {args.input_path}")
    files = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
    if not files:
        raise InvalidInput(f"no .csv files in {directory}")
    tensors = {}
    sections = [(str(p.name), _analyze_one(str(p), args, tensors)) for p in files]
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

    return (0 if all_hold else 1), render(args.fmt, header, payload, lines)


def _run_decompose(args: argparse.Namespace):
    M = read_matrix_csv(args.input_path)
    graph = build_graph(M, "D", args.tol)
    if args.fmt == "dot":
        return 0, to_dot(graph).encode()
    comps = components(graph)
    inferred = blocks_from_components(comps)
    header = {"command": "decompose", "input": args.input_path}
    header.update(_tol_header(args.tol))
    payload = {"components": comps, "blocks": inferred.sizes if inferred else None}

    def lines():
        for i, comp in enumerate(comps, start=1):
            yield f"component {i}: {{{', '.join(str(v) for v in comp)}}}"
        yield "blocks: " + (",".join(map(str, inferred.sizes)) if inferred else "not contiguous")

    return 0, render(args.fmt, header, payload, lines)


def _run_gap(args: argparse.Namespace):
    M = read_matrix_csv(args.input_path)
    blocks = _blockspec(args)
    certs = [cr.check_type_s(M, blocks, args.tol)]
    if args.pairwise:
        certs.append(cr.check_type_s_pairwise(M, blocks, args.tol))
    header = {
        "command": "gap",
        "input": args.input_path,
        "blocks": ",".join(str(b) for b in blocks.sizes),
    }
    header.update(_tol_header(args.tol))
    code = 0 if all(c.holds for c in certs) else 1

    def lines():
        s_cert = certs[0]
        yield f"rhoPlus={s_cert.witness['rhoPlus']}"
        yield f"rhoMinus={s_cert.witness['rhoMinus']}"
        yield f"independent={'true' if s_cert.holds else 'false'}"
        if args.pairwise:
            for i, row in enumerate(certs[1].witness["table"], start=1):
                yield f"pairwise {i}: {' '.join('T' if x else 'F' for x in row)}"

    return code, emit_report(certs, args.fmt, header, lines)


def _run_topology(args: argparse.Namespace):
    region = read_region_json(args.input_path)
    cert = premise_report(region)
    header = {"command": "topology", "input": args.input_path}
    payload = {"certificates": [cert.to_dict()]}
    if args.slices is not None:
        rep = slices_connected(region, args.slices)
        columns = rep._columns()
        payload["slices"] = {
            "k": rep.k,
            "allConnected": rep.all_connected,
            "slices": [
                {"fixed": fixed, "connected": c, "cells": n} for fixed, c, n in zip(*columns)
            ],
        }

    def lines():
        yield from certificate_lines([cert])
        if args.slices is None:
            return
        yield f"slice k={rep.k} allConnected={'true' if rep.all_connected else 'false'}"
        for fixed, c, n in zip(*columns):
            fixed = ",".join(f"{a}={x}" for a, x in fixed.items())
            yield f"  slice [{fixed}]: {'connected' if c else 'DISCONNECTED'} ({n} cells)"

    return (0 if cert.holds else 1), render(args.fmt, header, payload, lines)


def _run_synth(args: argparse.Namespace):
    template = OverlapTemplate(
        K=args.k,
        slot_dim=args.slot_dim,
        slot_out=args.slot_out,
        overlap_ratio=args.overlap,
        seed=args.seed,
    )
    M, blocks, sidecar = gen_overlap_jacobian(template)
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    write_matrix_csv(csv_path, M)
    Path(json_path).write_bytes(to_json(sidecar))
    header = {
        "command": "synth",
        "seed": args.seed,
        "K": args.k,
        "slotDim": args.slot_dim,
        "slotOut": args.slot_out,
        "overlap": args.overlap,
    }
    rows, cols = M.shape
    payload = {"wrote": [csv_path, json_path], "rows": rows, "cols": cols}
    return 0, render(
        args.fmt, header, payload,
        lambda: [f"wrote {csv_path} ({rows}x{cols})", f"wrote {json_path}"],
    )


def _run_audit(args: argparse.Namespace):
    M = read_matrix_csv(args.input_path)
    cert = block_structure_audit(
        M, args.k, args.tol, draws=args.draws, seed=args.seed
    )
    header = {
        "command": "audit",
        "input": args.input_path,
        "K": args.k,
        "draws": args.draws,
        "seed": args.seed,
    }
    header.update(_tol_header(args.tol))
    return (0 if cert.holds else 1), emit_report([cert], args.fmt, header)


def run(args: argparse.Namespace):
    """Run one parsed command line as one request (basis.one_request);
    returns (exit code, report bytes)."""
    if args.fmt == "dot" and args.command != "decompose":
        raise InvalidInput("dot output is only available for decompose")
    with one_request():
        return args.handler(args)


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
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    if not codes:
        raise argparse.ArgumentTypeError(f"criteria must name at least one criterion: {text!r}")
    return codes


@functools.cache  # one parser per process; --help reads COLUMNS when printed
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechindep",
        description="Decide and certify mechanistic independence criteria on Jacobians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, needs_input=True):
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument("input_path", metavar="input", help="input file")
        p.add_argument("--tol", type=_parse_tol, default=None,
                       help="relative tolerance (overrides MECHINDEP_TOL)")
        p.add_argument("--format", dest="fmt", default="text",
                       choices=["json", "text", "dot"])

    p = sub.add_parser("analyze", help="run criteria checkers on a Jacobian CSV")
    common(p, _run_analyze)
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
    common(p, _run_decompose)

    p = sub.add_parser("gap", help="sparsity gap rho+/rho- for a block split")
    common(p, _run_gap)
    p.add_argument("--blocks", type=_parse_blocks, required=True)
    p.add_argument("--pairwise", action="store_true")

    p = sub.add_parser("topology", help="grid-region premise report")
    common(p, _run_topology)
    p.add_argument("--slices", type=int, default=None,
                   help="also report every k-slice for this k")

    p = sub.add_parser("synth", help="generate a planted overlap instance")
    common(p, _run_synth, needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--slot-dim", type=int, default=3)
    p.add_argument("--slot-out", type=int, default=20)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("audit", help="maximal block structure audit")
    common(p, _run_audit)
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
        code, body = run(args)
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
