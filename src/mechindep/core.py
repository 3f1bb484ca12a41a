"""Primitives: tolerance model, supports, the batched rank and null-space
eliminations, face splitting.

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
        # at rel >= 1 or an infinite abs every entry would count as zero
        if not (0 <= self.rel < 1 and 0 <= self.abs < np.inf):
            raise InvalidInput("tolerances must be nonnegative, rel below 1 and abs finite")

    @classmethod
    def default(cls) -> "Tolerance":
        """Default tolerance; MECHINDEP_TOL overrides the relative part."""
        env = os.environ.get(ENV_TOL)
        if env is None:
            return cls()
        try:
            return cls(rel=float(env))
        except ValueError as exc:
            raise InvalidInput(f"{ENV_TOL} must be a float, got {env!r}") from exc
        except InvalidInput as exc:
            raise InvalidInput(f"{ENV_TOL}={env}: {exc}") from exc

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


def as_int(value, name: str, low: int) -> int:
    """value as an int; InvalidInput unless it is a Python or numpy integer
    (not a bool) of at least low.  A float is never truncated, as BlockSpec
    sizes are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidInput(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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


def as_tensor(obj, n: int, d_s: int | None = None) -> np.ndarray:
    """Validate and convert an order-n derivative tensor (d_x, d_s, ..., d_s),
    d_s by default the first derivative axis's length, to float64 with at
    least one output row and finite entries, as as_matrix does a matrix."""
    try:
        T = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"not a numeric tensor: {exc}") from exc
    if T.ndim != n + 1:
        raise ShapeError(f"order-{n} derivative tensor must have {n + 1} axes, got {T.ndim}")
    d_s = T.shape[1] if d_s is None else d_s
    if any(dim != d_s for dim in T.shape[1:]):
        raise ShapeError(f"derivative axes must all have length {d_s}, got shape {T.shape}")
    if T.size == 0:
        raise InvalidInput(f"derivative tensor must be nonempty, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise InvalidInput("tensor contains non-finite entries")
    return T


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
    of a larger object may pass the parent's threshold explicitly.  The
    one-slice case of rank_many.
    """
    tol = tol or Tolerance.default()
    A = as_matrix(M)
    if thr is None:
        thr = tol.matrix_threshold(A)
    return int(rank_many(A[None], thr)[0])


def rank_many(stack, thr) -> np.ndarray:
    """Ranks of every slice of a (B, r, n) stack, each equal to rank(stack[b], thr=thr[b]).

    thr is a frozen threshold, scalar or one per slice.  Every slice runs the
    same complete-pivoting elimination: the pivot is the row-major first
    maximum of the trailing block, rows below it subtract the pivot row times
    their entry divided by the pivot, as elementwise products, and only the
    trailing block is updated, the one part later steps read.  A slice
    retires once its pivot is at or below its threshold.
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
    The one-slice case of null_space_many.
    """
    tol = tol or Tolerance.default()
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InvalidInput("null_space expects a 2-D array")
    if thr is None:
        thr = tol.matrix_threshold(A)
    return null_space_many(A[None], thr)[0]


def null_space_many(stack, thr) -> list[np.ndarray]:
    """Null-space bases of every slice of a (B, r, n) stack, each equal to
    null_space(stack[b], thr=thr[b]).

    thr is a frozen threshold, scalar or one per slice.  Every slice runs the
    same Gauss-Jordan elimination column by column: the pivot is the first
    maximum of |A[r_b:, c]| (rows above the slice's own r_b are masked out),
    the pivot row is divided by a copy of the pivot value, and every other
    row gets the same elementwise product and subtraction (no matrix
    product), so each basis is bit-identical to the one-slice result.  The
    pivot row, and every row of a slice whose pivot is at or below its
    threshold or that has run out of rows, is left untouched for that column.
    Each basis is a C-ordered (n, free columns) array of its own, with a 1 in
    each free column's own row and the negated reduced entries in the pivot
    columns' rows.
    """
    A = np.array(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInput(f"null_space_many expects a (B, r, n) stack, got ndim={A.ndim}")
    B, rows, cols = A.shape
    if rows == 0:
        return [np.eye(cols) for _ in range(B)]
    thr = np.asarray(thr, dtype=float)
    r = np.zeros(B, dtype=np.intp)
    piv_row = np.full((B, cols), -1, dtype=np.intp)
    row_ids = np.arange(rows)
    for c in range(cols):
        if c >= rows and (r == rows).all():
            break
        mag = np.abs(A[:, :, c])
        mag[row_ids < r[:, None]] = -np.inf
        pi = mag.argmax(axis=1)
        b = np.flatnonzero(~(mag.max(axis=1) <= thr))
        if not b.size:
            continue
        rb, pb, i = r[b], pi[b], np.arange(b.size)
        S = A if b.size == B else A[b]
        prow = S[i, pb]
        S[i, pb] = S[i, rb]
        prow = prow / prow[:, c, None]
        S[i, rb] = prow
        others = (row_ids != rb[:, None])[:, :, None]
        np.subtract(S, S[:, :, c, None] * prow[:, None, :], out=S, where=others)
        if S is not A:
            A[b] = S
        piv_row[b, c] = rb
        r[b] += 1
    # X[b, :, j] is the basis vector of free column j; pivot columns' are unused
    X = np.zeros((B, cols, cols))
    sb, sc = np.nonzero(piv_row >= 0)
    X[sb, sc] = -A[sb, piv_row[sb, sc]]
    free = piv_row < 0
    fb, fc = np.nonzero(free)
    X[fb, fc, fc] = 1.0
    return [np.compress(free[b], X[b], axis=1) for b in range(B)]


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
