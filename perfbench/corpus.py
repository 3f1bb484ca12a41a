"""Seeded inputs and CLI requests for the three workloads.

Every instance is a pure function of the workload seed.  The seed draws the
matrix and tensor entries and the position of the planted cuts in grid
regions; the sparsity pattern of each instance, and so the combinatorial work
the library does on it and every verdict it reaches, is fixed by the ladder
below.  That keeps op costs and verdicts equal across seeds while the report
bytes (values, digests) differ.

Inputs are written under ``perfbench/_work/<workload>`` at fixed relative
paths, because report headers embed the input path and the frozen digests
cover the header.

The latency percentiles pool whole passes, so each request contributes the
same number of samples and sits at a fixed share of the sorted samples.  Each
pass is laid out so that each reported percentile falls in the middle of a
band of requests that cost the same, not on the edge between two requests of
different cost:

- the median falls among the samples of requests of about the same cost;
- the tail percentile (p75 on sparsity, p90 on audit, p95 on screen) falls
  inside the samples of requests of about the same cost: one analyze between
  a gap and an analyze of similar cost on sparsity, four draws of one audit
  rung on audit, three draws of one topology case on screen.

A percentile on the edge of a band reads a low or high order statistic of a
few samples, which moves a lot between runs.  A percentile in the middle of a
band reads the band's median.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

# Called through the modules, not imported by name, so that the traced run's
# wrappers see the set-up calls too.
from mechindep import io as mio
from mechindep import synth
from mechindep.topology import GridRegion

WORK = Path("perfbench") / "_work"

# ((K, slot_dim, slot_out, overlap), commands): K in {2, 3} by overlap in
# {0, .25, .5}, 7x4 up to 9x6 and 15x3; gap and analyze each take about
# 0.1-0.7 s.  Basis enumeration does the work.  Sorted by cost, the 11
# requests put the 9x4 gap at the median, between two requests of about its
# cost, and the 8x6 analyze at p75, between the 8x6 gap and the 9x6 gap.
SPARSITY_LADDER = [
    ((2, 2, 4, 0.0), ("gap", "analyze")),   # 8x4
    ((2, 2, 3, 0.25), ("gap", "analyze")),  # 7x4
    ((2, 2, 3, 0.5), ("gap", "analyze")),   # 9x4
    ((3, 2, 3, 0.0), ("gap", "analyze")),   # 9x6
    ((3, 2, 2, 0.25), ("gap", "analyze")),  # 8x6
    ((3, 1, 3, 0.5), ("gap",)),             # 15x3
]

# ((K, slot_dim, slot_out, overlap), decompose too): planted instances with
# 8-16 rows for the graphs partition search, which calls no basis code.
# Overlap 0 is reducible (the search stops at the first split), overlap > 0
# is irreducible (it exhausts every 2-split).  Sorted by cost, the 17
# requests put the median among the 16x8, 15x6, 11x4 and 11x3 audits (about
# 0.13-0.15 s each) and p90 among the four 14x2 audits (about 0.7 s each).
AUDIT_LADDER = [
    ((2, 2, 4, 0.0), True),    # 8x4
    ((2, 2, 3, 0.5), False),   # 9x4
    ((3, 1, 3, 0.0), False),   # 9x3
    ((4, 2, 4, 0.0), True),    # 16x8
    ((3, 1, 3, 0.25), False),  # 11x3
    ((3, 2, 5, 0.0), False),   # 15x6
    ((4, 1, 2, 0.25), True),   # 11x4
    ((2, 2, 5, 0.25), False),  # 12x4
    ((2, 1, 6, 0.25), False),  # 14x2
    ((5, 1, 3, 0.0), True),    # 15x5
    ((2, 1, 6, 0.25), False),  # 14x2 again, another draw
    ((2, 1, 6, 0.25), False),  # 14x2 a third time
    ((2, 1, 6, 0.25), False),  # and a fourth
]

# Wide matrices for the cheap checkers: up to 275x40 with K up to 8.
SCREEN_WIDE = [
    (4, 3, 20, 0.0),   # 80x12
    (4, 3, 20, 0.2),   # 95x12
    (6, 4, 25, 0.0),   # 150x24
    (6, 4, 25, 0.2),   # 180x24
    (8, 5, 30, 0.0),   # 240x40
    (8, 5, 30, 0.15),  # 275x40
]

# (rows, block sizes, planted cross-block entry) for the order-2 tensors.
SCREEN_HESSIANS = [
    (12, (2, 2), False),
    (20, (3, 3), True),
    (30, (2, 2, 2), False),
    (16, (1, 3), True),
    (24, (4, 4), False),
    (40, (2, 3, 3), True),
]

# Small same-shape instances analyzed together by the --batch requests.
SCREEN_BATCH = [(2, 2, 3, 0.0), (2, 2, 3, 0.25), (2, 2, 4, 0.0), (2, 2, 4, 0.5)]
SCREEN_BATCH_CRITERIA = ["d,m,o", "d,m,o,contrast", "contrast"]

# synth requests: (K, slot_dim, slot_out, overlap).
SCREEN_SYNTH = [
    (3, 2, 5, 0.25),
    (4, 3, 10, 0.0),
    (2, 2, 4, 0.5),
    (5, 2, 8, 0.2),
    (6, 3, 12, 0.0),
    (3, 4, 6, 0.25),
    (8, 5, 30, 0.15),
]


@dataclass(frozen=True)
class Op:
    """One CLI request: a stable id (digest key) and its argv."""

    id: str
    argv: tuple


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _synth(rng, K, d, out, ov):
    template = synth.OverlapTemplate(K=K, slot_dim=d, slot_out=out, overlap_ratio=ov, seed=_draw(rng))
    M, blocks, _ = synth.gen_overlap_jacobian(template)
    return M, ",".join(str(s) for s in blocks.sizes)


def _rung_name(K, d, out, ov) -> str:
    return f"k{K}d{d}o{out}v{int(round(ov * 100)):02d}"


def _unique(name: str, seen: dict) -> str:
    """`name`, then `name-b`, `name-c`, ... for each repeat of a rung."""
    k = seen.get(name, 0)
    seen[name] = k + 1
    return name if k == 0 else f"{name}-{chr(ord('a') + k)}"


def _fresh(workload: str) -> Path:
    root = WORK / workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def sparsity(seed: int) -> list[Op]:
    root = _fresh("sparsity")
    rng = np.random.default_rng(seed)
    ops, seen = [], {}
    for rung, commands in SPARSITY_LADDER:
        M, blocks = _synth(rng, *rung)
        name = _unique(_rung_name(*rung), seen)
        path = str(root / f"{name}.csv")
        mio.write_matrix_csv(path, M)
        if "gap" in commands:
            ops.append(Op(f"gap-{name}", ("gap", "--pairwise", "--blocks", blocks, "--format", "json", path)))
        if "analyze" in commands:
            ops.append(Op(f"analyze-{name}", (
                "analyze", "--criteria", "d,m,s,hierarchy", "--blocks", blocks, "--format", "json", path,
            )))
    return ops


def audit(seed: int) -> list[Op]:
    root = _fresh("audit")
    rng = np.random.default_rng(seed)
    ops, seen = [], {}
    for rung, decompose in AUDIT_LADDER:
        M, _ = _synth(rng, *rung)
        name = _unique(_rung_name(*rung), seen)
        path = str(root / f"{name}.csv")
        mio.write_matrix_csv(path, M)
        ops.append(Op(f"audit-{name}", ("audit", "--k", str(rung[0]), "--format", "json", path)))
        if decompose:
            ops.append(Op(f"decompose-{name}", ("decompose", "--format", "json", path)))
    return ops


def _hessian(rng, rows, sizes, planted):
    """Symmetric (rows, n, n) tensor, nonzero only inside blocks unless a
    cross-block entry is planted."""
    n = sum(sizes)
    T = np.zeros((rows, n, n))
    start = 0
    for s in sizes:
        block = rng.uniform(0.5, 2.0, (rows, s, s)) * rng.choice([-1.0, 1.0], (rows, s, s))
        T[:, start : start + s, start : start + s] = (block + block.transpose(0, 2, 1)) / 2
        start += s
    if planted:
        x = int(rng.integers(rows))
        a = int(rng.integers(sizes[0]))
        b = sizes[0] + int(rng.integers(sizes[1]))
        T[x, a, b] = T[x, b, a] = 1.0
    return T


def _box(dims):
    return set(product(*(range(d) for d in dims)))


def _voided_box(rng, dims, voids):
    """A box minus `voids` interior cells with all-odd coordinates; such holes
    never disconnect the region or any of its slices."""
    candidates = sorted(
        c for c in _box(dims) if all(x % 2 == 1 and 0 < x < d - 1 for x, d in zip(c, dims))
    )
    picked = rng.choice(len(candidates), size=voids, replace=False)
    return _box(dims) - {candidates[i] for i in picked}


def _slotted_box(rng, dims):
    """A box cut by a wall at a seeded position on axis 0, bridged only in the
    last layer of the final axis: connected, but every (K-1)-slice that fixes
    the final axis below the bridge falls apart."""
    x0 = int(rng.integers(2, dims[0] - 2))
    last = len(dims) - 1
    return {c for c in _box(dims) if not (c[0] == x0 and c[last] < dims[last] - 1)}


def _split_box(rng, dims):
    """Two boxes separated by an empty wall at a seeded position on axis 0."""
    x0 = int(rng.integers(2, dims[0] - 2))
    return {c for c in _box(dims) if c[0] != x0}


def screen(seed: int) -> list[Op]:
    root = _fresh("screen")
    rng = np.random.default_rng(seed)
    ops = []
    for rung in SCREEN_WIDE:
        M, blocks = _synth(rng, *rung)
        name = _rung_name(*rung)
        path = str(root / f"{name}.csv")
        mio.write_matrix_csv(path, M)
        ops.append(Op(f"analyze-{name}", (
            "analyze", "--criteria", "d,m,o,contrast", "--blocks", blocks, "--format", "json", path,
        )))
        ops.append(Op(f"decompose-{name}", ("decompose", "--format", "json", path)))
    for i, (rows, sizes, planted) in enumerate(SCREEN_HESSIANS):
        n = sum(sizes)
        jac = str(root / f"h{i}.csv")
        hess = str(root / f"h{i}.json")
        mio.write_matrix_csv(jac, rng.uniform(-1.0, 1.0, (rows, n)))
        mio.write_tensor_json(hess, _hessian(rng, rows, sizes, planted))
        blocks = ",".join(str(s) for s in sizes)
        ops.append(Op(f"h2-{i}", (
            "analyze", "--criteria", "h2", "--hessian", hess, "--blocks", blocks, "--format", "json", jac,
        )))
    batch = root / "batch"
    batch.mkdir()
    for rung in SCREEN_BATCH:
        M, _ = _synth(rng, *rung)
        mio.write_matrix_csv(str(batch / f"{_rung_name(*rung)}.csv"), M)
    for i, criteria in enumerate(SCREEN_BATCH_CRITERIA):
        ops.append(Op(f"batch-{i}", (
            "analyze", "--batch", "--criteria", criteria, "--blocks", "2,2", "--format", "json", str(batch),
        )))
    (root / "synth").mkdir()
    for K, d, out, ov in SCREEN_SYNTH:
        name = _rung_name(K, d, out, ov)
        ops.append(Op(f"synth-{name}", (
            "synth", "--k", str(K), "--slot-dim", str(d), "--slot-out", str(out),
            "--overlap", str(ov), "--seed", str(_draw(rng)), "--format", "json",
            "--out", str(root / "synth" / name),
        )))
    cube, tesseract = (15, 15, 15), (10, 10, 10, 11)
    regions = [
        # (name, dims, cells, --slices order)
        ("voided3", cube, _voided_box(rng, cube, 40), 1),            # PASS
        ("slotted3", cube, _slotted_box(rng, cube), 2),              # slices broken
        ("split3", cube, _split_box(rng, cube), 2),                  # disconnected
        # the three slowest requests, holding p95: three draws of one 4-D case
        ("voided4", tesseract, _voided_box(rng, tesseract, 60), 2),  # PASS
        ("voided4-b", tesseract, _voided_box(rng, tesseract, 60), 2),
        ("voided4-c", tesseract, _voided_box(rng, tesseract, 60), 2),
    ]
    for name, dims, cells, k in regions:
        path = str(root / f"{name}.json")
        mio.write_region_json(path, GridRegion(dims, frozenset(cells)))
        ops.append(Op(f"topology-{name}", ("topology", "--slices", str(k), "--format", "json", path)))
    return ops


WORKLOADS = {"sparsity": sparsity, "audit": audit, "screen": screen}


def build(workload: str, seed: int) -> list[Op]:
    """Write the workload's inputs and return its requests in pass order."""
    return WORKLOADS[workload](seed)


def warmup(ops: list[Op]) -> list[Op]:
    """The first request of each command, run once during set-up so that lazy
    imports and first-call costs are paid before timing starts."""
    seen = {}
    for op in ops:
        seen.setdefault(op.argv[0], op)
    return list(seen.values())
