"""Scalar-level primitives: tolerance model, supports, rank, face splitting.

Everything downstream reduces "is this entry zero" to one rule: an entry e of
an object with magnitude scale s is zero iff |e| <= max(abs_tol, rel_tol * s).
The scale is the largest absolute entry of the object the entry belongs to, so
integer test matrices are classified exactly and well-scaled float inputs are
classified scale-invariantly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError

DEFAULT_REL = 1e-9
DEFAULT_ABS = 1e-12

ENV_TOL = "MECHINDEP_TOL"


@dataclass(frozen=True)
class Tolerance:
    rel: float = DEFAULT_REL
    abs: float = DEFAULT_ABS

    def __post_init__(self):
        if not (self.rel >= 0 and self.abs >= 0):
            raise InvalidInput("tolerances must be nonnegative")

    @classmethod
    def default(cls) -> "Tolerance":
        """Default tolerance; MECHINDEP_TOL overrides the relative part."""
        env = os.environ.get(ENV_TOL)
        if env is None:
            return cls()
        try:
            rel = float(env)
        except ValueError as exc:
            raise InvalidInput(f"{ENV_TOL} must be a float, got {env!r}") from exc
        return cls(rel=rel)

    def threshold(self, scale: float) -> float:
        return max(self.abs, self.rel * float(scale))

    def matrix_threshold(self, M: np.ndarray) -> float:
        return self.threshold(np.max(np.abs(M)) if M.size else 0.0)

    def stack_thresholds(self, S: np.ndarray) -> np.ndarray:
        """matrix_threshold of every slice of a (B, r, n) stack, as the same floats."""
        return np.maximum(self.abs, self.rel * np.abs(S).max(axis=(1, 2)))


@dataclass(frozen=True)
class SupportMask:
    """A sorted set of 1-based row indices inside a fixed universe [d]."""

    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.universe < 0:
            raise InvalidInput("universe must be nonnegative")
        mem = tuple(sorted(set(int(i) for i in self.members)))
        if mem and (mem[0] < 1 or mem[-1] > self.universe):
            raise InvalidInput(f"mask members {mem} out of universe [{self.universe}]")
        object.__setattr__(self, "members", mem)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def as_set(self) -> set[int]:
        return set(self.members)

    def subset_of(self, other: "SupportMask") -> bool:
        return set(self.members) <= set(other.members)

    def intersects(self, other: "SupportMask") -> bool:
        return bool(set(self.members) & set(other.members))


def as_matrix(obj) -> np.ndarray:
    """Validate and convert to a float64 2-D array with at least one row and column."""
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"not a numeric matrix: {exc}") from exc
    if M.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={M.ndim}")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise InvalidInput(f"matrix must be nonempty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix contains non-finite entries")
    return M


def as_vector(obj) -> np.ndarray:
    v = np.asarray(obj, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInput(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("vector contains non-finite entries")
    return v


def support(v, tol: Tolerance | None = None) -> SupportMask:
    """Indices of the entries classified nonzero, against the vector's own scale."""
    tol = tol or Tolerance.default()
    v = as_vector(v)
    thr = tol.threshold(np.max(np.abs(v)))
    members = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(v) > thr))
    return SupportMask(universe=v.size, members=members)


def column_supports(M: np.ndarray, tol: Tolerance | None = None) -> list[SupportMask]:
    """Per-column supports classified against the whole matrix's scale, so that
    columns of very different magnitude are judged consistently."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    thr = tol.matrix_threshold(M)
    out = []
    for j in range(M.shape[1]):
        members = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(M[:, j]) > thr))
        out.append(SupportMask(universe=M.shape[0], members=members))
    return out


def rank(M, tol: Tolerance | None = None, thr: float | None = None) -> int:
    """Numerical rank by complete-pivoting Gaussian elimination.

    The pivot threshold is frozen from the original matrix's scale, so later
    fill-in cannot promote noise into pivots.  Callers working on submatrices
    of a larger object may pass the parent's threshold explicitly.
    """
    tol = tol or Tolerance.default()
    A = as_matrix(M).copy()
    if thr is None:
        thr = tol.matrix_threshold(A)
    m, n = A.shape
    r = 0
    while r < m and r < n:
        sub = np.abs(A[r:, r:])
        flat = int(np.argmax(sub))
        pi, pj = divmod(flat, n - r)
        if sub[pi, pj] <= thr:
            break
        pi += r
        pj += r
        if pi != r:
            A[[r, pi], :] = A[[pi, r], :]
        if pj != r:
            A[:, [r, pj]] = A[:, [pj, r]]
        below = A[r + 1 :, r] / A[r, r]
        A[r + 1 :, :] -= np.outer(below, A[r, :])
        r += 1
    return r


def rank_many(stack, thr) -> np.ndarray:
    """Ranks of every slice of a (B, r, n) stack, each equal to rank(stack[b], thr=thr[b]).

    thr is a frozen threshold, scalar or one per slice.  Every slice runs the
    same complete-pivoting elimination as rank: the row-major first maximum of
    the trailing block is the pivot, and the update is the same division and
    the same elementwise products, so each rank is bit-identical to rank's.
    Only the trailing block is updated, the one part later steps read.  A
    slice retires once its pivot is at or below its threshold.
    """
    A = np.array(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInput(f"rank_many expects a (B, r, n) stack, got ndim={A.ndim}")
    B, m, n = A.shape
    thr = np.asarray(thr, dtype=float)
    ranks = np.full(B, min(m, n), dtype=np.intp)
    live = np.arange(B)
    for r in range(min(m, n) if B else 0):
        sub = np.abs(A[:, r:, r:]).reshape(live.size, -1)
        flat = sub.argmax(axis=1)
        idx = np.arange(live.size)
        done = sub[idx, flat] <= thr
        if done.any():
            ranks[live[done]] = r
            keep = ~done
            live, A, flat = live[keep], A[keep], flat[keep]
            thr = thr[keep] if thr.ndim else thr
            if not live.size:
                break
            idx = np.arange(live.size)
        pi, pj = np.divmod(flat, n - r)
        pi += r
        pj += r
        row = A[idx, pi, :]
        A[idx, pi, :] = A[:, r, :]
        A[:, r, :] = row
        col = A[idx, :, pj]
        A[idx, :, pj] = A[:, :, r]
        A[:, :, r] = col
        below = A[:, r + 1 :, r] / A[:, r, r, None]
        A[:, r + 1 :, r + 1 :] -= below[:, :, None] * A[:, None, r, r + 1 :]
    return ranks


def null_space(M, tol: Tolerance | None = None, thr: float | None = None) -> np.ndarray:
    """Basis (columns) of the null space, by Gauss-Jordan elimination.

    A zero-row matrix is allowed and yields the identity.  thr overrides the
    pivot threshold when the caller classifies against a larger parent matrix.
    """
    tol = tol or Tolerance.default()
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InvalidInput("null_space expects a 2-D array")
    rows, cols = A.shape
    if rows == 0:
        return np.eye(cols)
    A = A.copy()
    if thr is None:
        thr = tol.matrix_threshold(A)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pi = int(np.argmax(np.abs(A[r:, c]))) + r
        if np.abs(A[pi, c]) <= thr:
            continue
        if pi != r:
            A[[r, pi], :] = A[[pi, r], :]
        A[r, :] /= A[r, c]
        others = [i for i in range(rows) if i != r]
        A[others, :] -= np.outer(A[others, c], A[r, :])
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1
    free_cols = [c for c in range(cols) if c not in piv_cols]
    basis = np.zeros((cols, len(free_cols)))
    for k, fc in enumerate(free_cols):
        basis[fc, k] = 1.0
        for pr, pc in zip(piv_rows, piv_cols):
            basis[pc, k] = -A[pr, fc]
    return basis


def face_split(A, B) -> np.ndarray:
    """Row-wise Kronecker product: row r of the result is kron(A[r], B[r]).

    Column (u-1)*cols(B)+v equals the entrywise product of A's column u with
    B's column v, which is what the disjointness checks consume.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise ShapeError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    return np.einsum("ru,rv->ruv", A, B).reshape(A.shape[0], -1)


def l0_norm(M, tol: Tolerance | None = None) -> int:
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    thr = tol.matrix_threshold(M)
    return int(np.count_nonzero(np.abs(M) > thr))


def pitchfork(A: SupportMask, B: SupportMask) -> bool:
    """True iff neither support contains the other (non-strict containment)."""
    if A.universe != B.universe:
        raise InvalidInput(f"universe mismatch: {A.universe} vs {B.universe}")
    a, b = A.as_set(), B.as_set()
    return not (a <= b) and not (b <= a)
