"""Ground-truth instance generators: overlapping-slot Jacobian templates,
random block mixings with a planted block permutation, and finite-difference
Jacobians and Hessians of caller-supplied evaluation functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BlockSpec
from .core import as_int
from .errors import EvalError, GenerationError, InvalidInput

MAX_CONDITION = 1e6
MAX_REDRAWS = 100
FD_JACOBIAN_STEP = 1e-5
FD_HESSIAN_STEP = 1e-4


@dataclass(frozen=True)
class OverlapTemplate:
    """Chain of K slots with per-slot outputs and pairwise overlap outputs."""

    K: int
    slot_dim: int = 3
    slot_out: int = 20
    overlap_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("K", 2), ("slot_dim", 1), ("slot_out", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        if not 0.0 <= self.overlap_ratio < 1.0:
            raise InvalidInput(f"overlap ratio must be in [0, 1), got {self.overlap_ratio}")

    def pair_rows(self) -> int:
        """Rows in each pairwise group; overlap 0.5 gives slot_out rows so the
        shared group matches a slot's own output size."""
        r = self.overlap_ratio
        exact = r / (1.0 - r) * self.slot_out
        n = int(np.floor(exact + 0.5))
        if n > self.slot_out:
            raise InvalidInput(
                f"overlap {r} needs {n} pairwise rows, more than slotOut {self.slot_out}"
            )
        return n

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "slotDim": self.slot_dim,
            "slotOut": self.slot_out,
            "overlapRatio": self.overlap_ratio,
            "seed": self.seed,
        }


def _fill(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries uniform in [0.5, 2] with independent random signs."""
    mag = rng.uniform(0.5, 2.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def gen_overlap_jacobian(template: OverlapTemplate):
    """Build the planted Jacobian, its block structure, and a ground-truth
    sidecar.  Row order follows the output concatenation: the slot-1 group,
    then the (1,2) pairwise group, the slot-2 group, the (2,3) group, and so
    on; pairwise groups are empty at overlap 0."""
    rng = np.random.default_rng(template.seed)
    K, d, out = template.K, template.slot_dim, template.slot_out
    pair = template.pair_rows()
    total_rows = K * out + (K - 1) * pair
    M = np.zeros((total_rows, K * d))
    row_groups = []
    row = 0
    for i in range(K):
        M[row : row + out, i * d : (i + 1) * d] = _fill(rng, (out, d))
        row_groups.append({"name": f"g{i + 1}", "rows": [row + 1, row + out]})
        row += out
        if i < K - 1 and pair > 0:
            M[row : row + pair, i * d : (i + 2) * d] = _fill(rng, (pair, 2 * d))
            row_groups.append(
                {"name": f"g{i + 1}-{i + 2}", "rows": [row + 1, row + pair]}
            )
            row += pair
    blocks = BlockSpec(tuple([d] * K))
    adjacency = [[i, i + 1] for i in range(1, K)] if pair > 0 else []
    sidecar = {
        "template": template.to_dict(),
        "blocks": list(blocks.sizes),
        "rowGroups": row_groups,
        "expectedVerdicts": {
            "typeD": template.overlap_ratio == 0.0 or pair == 0,
            "adjacency": adjacency,
        },
    }
    return M, blocks, sidecar


@dataclass(frozen=True)
class MixingDraw:
    """An accepted invertible mixing draw with its planted block permutation
    (sigma maps source block to target block, 1-based; identity unless the
    kind permutes blocks)."""

    matrix: np.ndarray = field(repr=False)
    kind: str
    seed: int
    sigma: tuple
    condition: float


def _size_class_permutation(blocks: BlockSpec, rng: np.random.Generator) -> list:
    """Permute block indices only within groups of equal size, so the
    permuted matrix still maps block to block."""
    by_size: dict = {}
    for i, s in enumerate(blocks.sizes):
        by_size.setdefault(s, []).append(i)
    sigma = [0] * blocks.K
    for size, members in by_size.items():
        shuffled = list(members)
        rng.shuffle(shuffled)
        for src, tgt in zip(members, shuffled):
            sigma[src] = tgt
    return sigma


def random_mixing(blocks, kind: str, seed: int = 0) -> MixingDraw:
    """Draw an invertible mixing matrix of the requested kind.

    blockDiagonal keeps every block in place; blockPermuted composes a
    within-size-class block permutation with block-diagonal mixing; full is
    unstructured.  Draws with condition number above 1e6 are redrawn.
    """
    blocks = BlockSpec.coerce(blocks)
    if kind not in ("blockDiagonal", "full", "blockPermuted"):
        raise InvalidInput(f"unknown mixing kind {kind!r}")
    seed = as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    n = blocks.total
    ranges = blocks.ranges()
    for _ in range(MAX_REDRAWS):
        sigma = list(range(blocks.K))
        if kind == "full":
            R = _fill(rng, (n, n))
        else:
            if kind == "blockPermuted":
                sigma = _size_class_permutation(blocks, rng)
            R = np.zeros((n, n))
            for i in range(blocks.K):
                rows = ranges[i]
                cols = ranges[sigma[i]]
                R[np.ix_(rows, cols)] = _fill(rng, (len(rows), len(cols)))
        cond = float(np.linalg.cond(R))
        if np.isfinite(cond) and cond <= MAX_CONDITION:
            return MixingDraw(
                matrix=R,
                kind=kind,
                seed=seed,
                sigma=tuple(s + 1 for s in sigma),
                condition=cond,
            )
    raise GenerationError(
        f"no draw with condition <= {MAX_CONDITION:g} in {MAX_REDRAWS} attempts"
    )


def _fd_point(point, step: float) -> np.ndarray:
    """A finite difference's point as a nonempty float vector; its step must be positive."""
    if step <= 0:
        raise InvalidInput("step must be positive")
    x = np.asarray(point, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInput(f"point must be a nonempty vector, got shape {x.shape}")
    return x


def _evaluator(f):
    """f with each output checked to be a finite vector as long as the first (EvalError)."""
    first = None

    def evaluate(point: np.ndarray) -> np.ndarray:
        nonlocal first
        y = np.atleast_1d(np.asarray(f(point), dtype=float))
        if y.ndim != 1:
            raise EvalError(f"evaluation returned array of shape {y.shape}, need a vector")
        if not np.all(np.isfinite(y)):
            raise EvalError(f"non-finite evaluation at {point.tolist()}")
        first = y.size if first is None else first
        if y.size != first:
            raise EvalError(f"evaluation at {point.tolist()} has {y.size} outputs, not {first}")
        return y

    return evaluate


def fd_jacobian(f, point, step: float = FD_JACOBIAN_STEP) -> np.ndarray:
    """Central-difference Jacobian; truncation error O(step^2)."""
    x = _fd_point(point, step)
    f = _evaluator(f)
    d = x.size
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        cols.append((f(x + e) - f(x - e)) / (2 * step))
    return np.column_stack(cols)


def fd_hessian(f, point, step: float = FD_HESSIAN_STEP) -> np.ndarray:
    """Second-order central-difference Hessian tensor with axes
    (output, deriv, deriv), symmetrized in the two derivative indices."""
    x = _fd_point(point, step)
    f = _evaluator(f)
    d = x.size
    base = f(x)
    d_x = base.size
    H = np.zeros((d_x, d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        # diagonal second difference reuses the base point
        H[:, i, i] = (f(x + 2 * ei) - 2 * base + f(x - 2 * ei)) / (4 * step * step)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            mixed = f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            H[:, i, j] = H[:, j, i] = mixed / (4 * step * step)
    return (H + H.transpose(0, 2, 1)) / 2.0
