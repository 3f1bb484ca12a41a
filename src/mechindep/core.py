"""Primitives: tolerance model, supports, the batched rank and null-space
eliminations, face splitting.

Everything downstream reduces "is this entry zero" to one rule: an entry e of
an object with magnitude scale s is zero iff |e| <= max(abs_tol, rel_tol * s).
The scale is the largest absolute entry of the object the entry belongs to, so
integer test matrices are classified exactly and well-scaled float inputs are
classified scale-invariantly.  Closure follows it: row j of M is in the span
of rows R iff, in every column of M N (N a null basis of M[R]) over its
largest |entry|, row j's entry is zero at scale 1, as in a printed support.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError

DEFAULT_REL = 1e-9
DEFAULT_ABS = 1e-12

ENV_TOL = "MECHINDEP_TOL"

# finite entries near the float limit can still overflow in arithmetic: InvalidInput
OVERFLOW = "arithmetic on the matrix overflowed the float range; rescale it"


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
    (not a bool) of at least low, a bound unnamed when -inf.  A float is never
    truncated, as BlockSpec sizes are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        bound = "" if low == -math.inf else f" >= {low}"
        raise InvalidInput(f"{name} must be an integer{bound}, got {value!r}")
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
    above = np.abs(M) > tol.matrix_threshold(M)
    rows = np.arange(1, M.shape[0] + 1)
    return [SupportMask(universe=M.shape[0], members=tuple(rows[col].tolist())) for col in above.T]


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


# The gather tables of rank_many, by trailing-block shape (M, N): row p*N+q
# is the flat index map that exchanges row p into row 0 and column q into
# column 0.  A table holds (M N)^2 entries, so only blocks of at most
# TABLE_CAP entries get one: 20 x 8, the capped searches' largest block.
TABLE_CAP = 160
_tables: dict[tuple[int, int], np.ndarray] = {}


def _table(M: int, N: int) -> np.ndarray:
    table = _tables.get((M, N))
    if table is None:
        rows, cols = (np.tile(np.arange(size), (size, 1)) for size in (M, N))
        for ex in rows, cols:
            ex[:, 0] = np.arange(len(ex))
            np.fill_diagonal(ex, 0)
        table = (rows[:, None, :, None] * N + cols[None, :, None, :]).reshape(M * N, M * N)
        _tables[M, N] = table
    return table


def _exchanged(T: np.ndarray, flat: np.ndarray, pos: np.ndarray, M: int, N: int) -> np.ndarray:
    """The (L, M, N) blocks of the flat blocks T (L, M N), pos = range(L),
    each with the row and column of its entry flat[i] exchanged into row 0
    and column 0: one gather through the table, or above TABLE_CAP the
    row and column exchanged in place, in T."""
    if M * N <= TABLE_CAP:
        return T.ravel()[_table(M, N)[flat] + (pos * (M * N))[:, None]].reshape(-1, M, N)
    S = T.reshape(-1, M, N)
    p, q = np.divmod(flat, N)
    row = S[pos, p]
    S[pos, p] = S[:, 0]
    S[:, 0] = row
    col = S[pos, :, q]
    S[pos, :, q] = S[:, :, 0]
    S[:, :, 0] = col
    return S


def rank_many(stack, thr) -> np.ndarray:
    """Ranks of every slice of a (B, r, n) stack, each equal to rank(stack[b], thr=thr[b]).

    thr is a frozen threshold, scalar or one per slice.  Every slice runs the
    same complete-pivoting elimination on its live trailing block, held
    flat.  A step takes the row-major first maximum of |block| as the pivot
    and retires the slices whose pivot is at or below their threshold.  It
    gathers the rest once with the pivot's row exchanged into row 0 and its
    column into column 0, through a cached table per block shape of at most
    TABLE_CAP entries (in place, row and column, above it).  The next block
    is the rest of the rows minus the pivot row times their entry divided
    by the pivot, as elementwise products.

    Every multiplier is at most 1 in magnitude, so a step at most doubles
    the largest |entry|.  A stack whose largest |entry| is below the float
    maximum / 2^min(r, n), at thresholds >= 0 (so that no zero pivot goes
    on), cannot overflow and runs unguarded.  Any other runs with overflow
    ignored: a block holds a non-finite entry exactly when its pivot is
    non-finite (argmax picks it), so a stack in which some slice meets a
    non-finite pivot overflowed, InvalidInput, whether or not that slice
    retires later.  Zero rows appended to a slice therefore change neither
    its rank nor its error: they never win a pivot, and once its own rows
    run out the slice retires on them.
    """
    A = np.array(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInput(f"rank_many expects a (B, r, n) stack, got ndim={A.ndim}")
    B, m, n = A.shape
    thr = np.asarray(thr, dtype=float)
    bound = math.ldexp(sys.float_info.max, -min(m, n))
    guarded = A.size and not (np.abs(A).max() < bound and thr.min() >= 0)
    ranks = np.full(B, min(m, n), dtype=np.intp)
    live = pos = np.arange(B)
    T = A.reshape(B, m * n)
    bad = False  # guarded: some slice met a non-finite pivot
    with np.errstate(over="ignore", invalid="ignore") if guarded else contextlib.nullcontext():
        for r in range(min(m, n) if B else 0):
            mag = np.abs(T)
            flat = mag.argmax(axis=1)
            pivot = mag[pos, flat]
            if guarded:
                bad = bad or not np.isfinite(pivot).all()
            done = pivot <= thr
            if done.any():
                ranks[live[done]] = r
                keep = ~done
                live, T, flat = live[keep], T[keep], flat[keep]
                thr = thr[keep] if thr.ndim else thr
                if not live.size:
                    break
                pos = np.arange(live.size)
            S = _exchanged(T, flat, pos, m - r, n - r)
            below = S[:, 1:, 0] / S[:, 0, 0, None]
            T = (S[:, 1:, 1:] - below[:, :, None] * S[:, None, 0, 1:]).reshape(live.size, -1)
    if bad:
        raise InvalidInput(OVERFLOW)
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


@np.errstate(over="ignore", invalid="ignore")
def null_space_many(stack, thr, width: int | None = None, with_free: bool = False):
    """Null-space bases of every slice of a (B, r, n) stack, each equal to
    null_space(stack[b], thr=thr[b]).  With a width w >= 1, only the bases
    of width w, in slice order, as one (K, n, w) array whose slices are
    bit-identical to their list entries; slices of other widths are dropped.
    With with_free, the list comes with the (B, n) mask of each slice's free
    columns, the rows that hold its basis's identity, and the width array
    with the (B,) mask of the slices it kept.

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
    columns' rows.  No step makes a non-finite entry finite again, so an
    overflow shows in the reduced stack: InvalidInput.
    """
    A = np.array(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInput(f"null_space_many expects a (B, r, n) stack, got ndim={A.ndim}")
    B, rows, cols = A.shape
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
    if not np.isfinite(A).all():
        raise InvalidInput(OVERFLOW)
    # X[b, :, j] is the basis vector of free column j; pivot columns' are unused
    X = np.zeros((B, cols, cols))
    sb, sc = np.nonzero(piv_row >= 0)
    X[sb, sc] = -A[sb, piv_row[sb, sc]]
    free = piv_row < 0
    fb, fc = np.nonzero(free)
    X[fb, fc, fc] = 1.0
    if width is None:
        bases = [np.compress(free[b], X[b], axis=1) for b in range(B)]
        return (bases, free) if with_free else bases
    kept = free.sum(axis=1) == width
    bases = np.take_along_axis(X[kept], np.nonzero(free[kept])[1].reshape(-1, 1, width), axis=2)
    return (bases, kept) if with_free else bases


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
