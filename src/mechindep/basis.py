"""Sparse-subspace machinery: achievable supports, minimal-support vectors,
sparsest bases under block constraints, and the sparsity gap rho+ / rho-.

All searches run over the ground set of minimal-support vectors.  That is
lossless for unconstrained and block-respecting bases (every vector of the
column space decomposes over minimal-support vectors whose supports sit inside
its own, so a cheapest basis can always be exchanged into the ground set), and
for forced-mixing bases the same argument applies to the companions while the
mixing vector itself ranges over the enumerated mixing-minimal supports.

Achievable supports are the complements of the flats of the row matroid, and
the minimal ones those of its hyperplanes (Oxley, Matroid Theory, ch. 2), so
one pass over the flats, hyperplanes first, yields both the ground set and
the mixing strata (_flats).  The pass runs over a stack of matrices of one
shape, so a gap's blocks of one width share each elimination, and their
greedy bases share each rank call (_block_bases); a single matrix is a
stack of one.  The searches hold vectors and strata as stacked arrays
(_Vectors, _Strata); SubspaceVector is built only for the vectors a caller
gets back.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import accumulate, combinations, islice
from typing import NamedTuple

import numpy as np

from .core import (
    OVERFLOW, SupportMask, Tolerance, as_int, as_matrix, null_space_many, rank, rank_many
)
from .errors import InvalidInput, InternalError, RankError, SizeError

MAX_ROWS = 20
MAX_COLS = 8

# Row subsets per batched elimination, and forced-mixing strata per solve.
# It bounds the search's largest array, a chunk's products M N, to
# CHUNK * MAX_ROWS * MAX_COLS entries, 0.16 MB, whatever C(m, k) is.  A
# stacked pass over P blocks of width s eliminates P * CHUNK subsets at a
# time, and its products M N and stacked copies of M hold P * CHUNK * m * s
# entries, within the same bound, as the blocks' widths sum to at most
# MAX_COLS.  The audit's random mixings come in chunks whose products M R
# keep within the same CHUNK * MAX_ROWS * MAX_COLS entries.
CHUNK = 128

# The searches of the request one_request has opened, by key (_once); None
# outside one.
_searches: ContextVar[dict | None] = ContextVar("searches", default=None)


@contextmanager
def one_request():
    """Open a request: within it, the gaps of one matrix, blocks and
    tolerance are searched once (sparsity_gap), and so is each block's basis
    (_block_bases), whichever checker asks.  The memo is dropped on exit."""
    token = _searches.set({})
    try:
        yield
    finally:
        _searches.reset(token)


@dataclass(frozen=True)
class BlockSpec:
    """Contiguous column blocks: block i owns columns sizes[0]+..+sizes[i-1]+1 .. +sizes[i]."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        """sizes is any iterable of Python or numpy integers >= 1 (not bools);
        anything else is InvalidInput, never truncated or converted."""
        try:
            sizes = tuple(self.sizes)
        except TypeError:
            sizes = ()
        if not sizes or not all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 1
            for s in sizes
        ):
            raise InvalidInput(f"block sizes must be positive integers, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))

    @classmethod
    def coerce(cls, blocks) -> "BlockSpec":
        """blocks itself if it is a BlockSpec, else the BlockSpec of its sizes."""
        return blocks if isinstance(blocks, cls) else cls(blocks)

    @classmethod
    def covering(cls, blocks, cols: int) -> "BlockSpec":
        """coerce(blocks), InvalidInput unless its sizes sum to cols."""
        blocks = cls.coerce(blocks)
        if blocks.total != cols:
            raise InvalidInput(f"block sizes {blocks.sizes} do not cover {cols} columns")
        return blocks

    @property
    def K(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def ranges(self) -> list[list[int]]:
        """0-based column indices per block."""
        out = []
        start = 0
        for s in self.sizes:
            out.append(list(range(start, start + s)))
            start += s
        return out

    def block_of(self, col0: int) -> int:
        """0-based block index owning 0-based column col0."""
        start = 0
        for b, s in enumerate(self.sizes):
            if start <= col0 < start + s:
                return b
            start += s
        raise InvalidInput(f"column {col0} outside the {self.total} block columns")


@dataclass(frozen=True)
class SubspaceVector:
    """A column-space vector with its coefficients and support.

    Normalized so the largest-magnitude entry equals 1 (first such index on
    ties), which makes the coefficient vector unique for a full-column-rank
    matrix.
    """

    value: tuple[float, ...]
    coeff: tuple[float, ...]
    mask: SupportMask

    @property
    def support_size(self) -> int:
        return len(self.mask)

    def value_array(self) -> np.ndarray:
        return np.array(self.value)

    def coeff_array(self) -> np.ndarray:
        return np.array(self.coeff)

    def touched_blocks(self, blocks: BlockSpec, tol: Tolerance) -> tuple[int, ...]:
        """1-based indices of the blocks the coefficients touch."""
        touched = _touches(self.coeff_array()[None], blocks, tol)[0]
        return tuple((np.flatnonzero(touched) + 1).tolist())

    def is_mixing(self, blocks: BlockSpec, tol: Tolerance) -> bool:
        return len(self.touched_blocks(blocks, tol)) > 1


@dataclass
class BasisSearchResult:
    mode: str
    cost: int
    vectors: list[SubspaceVector]
    mixing_flags: list[bool] = field(default_factory=list)


@dataclass
class GapResult:
    rho_plus: int
    rho_minus: int
    independent: bool
    respecting: BasisSearchResult
    mixing: BasisSearchResult


class _Vectors(NamedTuple):
    """Column-space vectors as stacked arrays, row i of each for vector i:
    values (G, m), coefficients (G, n) and support bitmasks (G,)."""

    values: np.ndarray
    coeffs: np.ndarray
    bits: np.ndarray

    def take(self, idx) -> "_Vectors":
        return _Vectors(*(a[idx] for a in self))

    @staticmethod
    def concat(parts) -> "_Vectors":
        return _Vectors(*map(np.concatenate, zip(*parts)))

    def vectors(self) -> list[SubspaceVector]:
        m = self.values.shape[1]
        rows = zip(self.values.tolist(), self.coeffs.tolist(), self.bits.tolist())
        return [SubspaceVector(tuple(v), tuple(c), SupportMask(m, _members(b))) for v, c, b in rows]


def _touches(A: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> np.ndarray:
    """(S, K) mask of the blocks each row of A (S, n) touches: those with an
    entry in the row's _printed support, so the mask does not change when A
    is scaled."""
    above = _printed(A, 1, tol)
    return np.logical_or.reduceat(above, [cols[0] for cols in blocks.ranges()], axis=1)


def _check_search_size(M: np.ndarray):
    m, n = M.shape
    if m > MAX_ROWS or n > MAX_COLS:
        raise SizeError(
            f"exhaustive search capped at {MAX_ROWS} rows x {MAX_COLS} cols, got {m}x{n}"
        )


def _require_full_column_rank(M: np.ndarray, tol: Tolerance):
    if rank(M, tol) < M.shape[1]:
        raise RankError(f"matrix of shape {M.shape} must have full column rank")


class _Checked(NamedTuple):
    """A search input _search_input has checked: M as a float matrix, its
    blocks, and whether each block has full column rank."""

    M: np.ndarray
    blocks: BlockSpec
    full: np.ndarray


def _search_input(M, blocks, tol: Tolerance) -> _Checked:
    """M and blocks (None: one block) checked once for every search: blocks
    must cover M's columns, M must be within the cap (SizeError) and of full
    column rank (RankError).  One rank_many call ranks M and its blocks,
    each at its own threshold and padded with zero columns, which never win
    a pivot."""
    M = as_matrix(M)
    blocks = BlockSpec.covering((M.shape[1],) if blocks is None else blocks, M.shape[1])
    _check_search_size(M)
    stack = np.zeros((1 + blocks.K, *M.shape))
    stack[0] = M
    for b, cols in enumerate(blocks.ranges()):
        stack[1 + b, :, : len(cols)] = M[:, cols]
    ranks = rank_many(stack, tol.stack_thresholds(stack))
    if ranks[0] < M.shape[1]:
        raise RankError(f"matrix of shape {M.shape} must have full column rank")
    return _Checked(M, blocks, ranks[1:] == blocks.sizes)


def _printed(V: np.ndarray, axis: int, tol: Tolerance) -> np.ndarray:
    """Printed supports of the vectors along axis of V: the entries above the
    threshold of 1 over their vector's largest |entry|.  A zero vector has
    none; a non-finite one, an overflowed product, is InvalidInput."""
    top = (A := np.abs(V)).max(axis=axis, keepdims=True)
    if not np.isfinite(top).all():
        raise InvalidInput(OVERFLOW)
    with np.errstate(invalid="ignore"):
        return A / top > tol.threshold(1.0)


def _image(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The vectors M c of the rows c of C (F, n), as rows (F, m), from one
    stacked matmul."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(M[None], C[:, :, None])[:, :, 0]


def _normalize(V: np.ndarray, C: np.ndarray, thr, tol: Tolerance) -> tuple[np.ndarray, _Vectors]:
    """The vectors V (F, m) with their coefficients C (F, n): the mask of
    those whose largest |entry| is above thr (their matrix's zero threshold,
    one float or one per vector), and those with their c, over their first
    entry of largest magnitude, supports _printed."""
    bits = _printed(V, 1, tol) @ (1 << np.arange(V.shape[1]))
    piv = np.abs(V).argmax(axis=1)
    alive = ~(np.abs(V[np.arange(len(V)), piv]) <= thr)
    scale = V[alive, piv[alive]][:, None]
    return alive, _Vectors(V[alive] / scale, C[alive] / scale, bits[alive])


def _members(bits: int) -> tuple[int, ...]:
    """The sorted 1-based row indices of a bitmask: row i sets bit i - 1."""
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


# the number of set bits of each byte, and each byte with its 8 bits reversed
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64)


def _sizes(bits: np.ndarray, m: int) -> np.ndarray:
    """The number of rows in each bitmask over m rows, a byte at a time
    from a 256-entry table."""
    size = np.zeros(len(bits), dtype=np.int64)
    for i in range(-(-m // 8)):
        size += _POPCOUNT[bits >> 8 * i & 0xFF]
    return size


def _order(bits: np.ndarray, m: int, *major: np.ndarray) -> np.ndarray:
    """The order of distinct bitmasks over m rows by (size, sorted members),
    after any major keys, the last the most significant: of two sets of one
    size, the one holding the first row where they differ comes first: the
    larger mask read with its m bits reversed.

    The reversal comes a byte at a time from a 256-entry table: the reversed
    bytes, in reverse order, reverse all 8 w bits of w bytes, and a shift
    drops the 8 w - m bits past row m."""
    width = -(-m // 8)
    reversed_ = np.zeros(len(bits), dtype=np.uint64)
    for i in range(width):
        reversed_ |= _REVERSED[bits >> 8 * i & 0xFF] << np.uint64(8 * (width - 1 - i))
    reversed_ >>= np.uint64(8 * width - m)
    return np.lexsort((-reversed_.astype(np.int64), _sizes(bits, m), *major))


def _counter(masks: np.ndarray, m: int):
    """A function counting the distinct bitmasks masks over m rows inside
    each of at most CHUNK row sets: by pairs when len(masks)^2 <= m 2^m,
    else from a sum over subsets (one pass per row over all 2^m row sets)."""
    if masks.size**2 > m << m:
        table = np.zeros(1 << m, dtype=np.int32)
        table[masks] = 1
        for i in range(m):
            halves = table.reshape(-1, 2, 1 << i)
            halves[:, 1] += halves[:, 0]
        return table.__getitem__
    return lambda sets: ((sets[:, None] & masks) == masks).sum(axis=1)


def _inclusion_minimal(masks: np.ndarray, m: int) -> np.ndarray:
    """Mask of the distinct bitmasks with no other of them as a subset."""
    count = _counter(masks, m)
    parts = np.split(masks, range(CHUNK, len(masks), CHUNK))
    return np.concatenate([count(part) == 1 for part in parts])


def _subset_chunks(m: int, k: int):
    """The k-subsets of range(m) in combinations order, as (C, k) index
    arrays of at most CHUNK subsets."""
    subsets = combinations(range(m), k)
    while chunk := list(islice(subsets, CHUNK)):
        yield np.array(chunk, dtype=np.intp).reshape(len(chunk), k)


def achievable(M, T, tol: Tolerance | None = None) -> bool:
    """Can some nonzero column-space vector have its support inside T?

    True iff deleting the rows outside T drops the rank below the column count.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    _require_full_column_rank(M, tol)
    if isinstance(T, SupportMask):
        if T.universe != M.shape[0]:
            raise InvalidInput("mask universe does not match the row count")
        members = T.as_set()
    else:
        members = {as_int(i, "support index", -math.inf) for i in T}
        if members and (min(members) < 1 or max(members) > M.shape[0]):
            raise InvalidInput(f"support indices {sorted(members)} out of range")
    keep = [r for r in range(M.shape[0]) if (r + 1) not in members]
    if not keep:
        return True
    thr = tol.matrix_threshold(M)
    return rank(M[keep, :], tol, thr=thr) < M.shape[1]


class _Strata(NamedTuple):
    """Mixing strata as arrays, entry s of each for stratum s: the T
    bitmasks (S,), the null bases (S, n, w), zero past each basis's width,
    and those widths (S,)."""

    T: np.ndarray
    N: np.ndarray
    widths: np.ndarray


def _flats(M: np.ndarray, tol: Tolerance, blocks: BlockSpec | None = None):
    """The ground set of each slice of a (P, m, n) stack and, with blocks
    (P = 1), the mixing strata, from one pass over the flats of the row
    matroids, hyperplanes first.

    Level k eliminates the k-row subsets R chunk by chunk in combinations
    order, one null_space_many call each for R of every slice, at that
    slice's own threshold: R is independent iff its null basis N has n - k
    columns, and then attains T, the complement of its closure: by core's
    closure rule, the union of the _printed supports of M N's columns.  Each
    distinct (slice, T), one np.unique over the keys slice << m | T, keeps
    its first subset's N.  At level n-1 that N is one vector, whose support
    is T; those of the inclusion-minimal supports, sorted by (size, rows),
    are the slice's ground set, as _Vectors.  With blocks the pass goes on
    down to level 0: T is a mixing stratum iff the rows of its coefficient
    null space touch more than one block (_touches of their largest
    entries): it then cannot be covered by the finitely many block
    subspaces without lying inside one.  A row subset R inside the flat of
    a stratum accepted at a higher level, one that misses its T, is never
    eliminated: T(R) holds T(R') iff R lies in the closure of R', so R is
    dependent or attains a T holding that stratum, which the final
    inclusion-minimal filter would drop.  _counter counts the strata inside
    R's complement before each chunk's null_space_many call.  Returns the
    list of ground sets and the strata sorted by (size, rows) as _Strata,
    None without blocks.  An overflow in any slice raises InvalidInput for
    the whole stack."""
    P, m, n = M.shape
    thr = tol.stack_thresholds(M)
    bit, full = 1 << np.arange(m), (1 << m) - 1
    met: set[int] = set()  # the keys slice << m | T met so far
    found = [(bit[:0], _Vectors(np.zeros((0, m)), np.zeros((0, n)), bit[:0]))]
    levels = []  # the strata each level accepted, as (T, N)
    holding, counted = None, 0
    for k in range(n - 1, -1, -1) if blocks else [n - 1]:
        if len(levels) != counted:  # a level that accepted none keeps the count
            holding, counted = _counter(np.concatenate([T for T, _ in levels]), m), len(levels)
        parts = []
        for R in _subset_chunks(m, k):
            if holding is not None:
                R = R[holding(full & ~bit[R].sum(axis=1)) == 0]
                if not len(R):
                    continue
            stack, thrs = M[:, R].reshape(P * len(R), k, n), np.repeat(thr, len(R))
            N, kept = null_space_many(stack, thrs, n - k, with_free=True)
            of = np.flatnonzero(kept) // len(R)
            with np.errstate(over="ignore", invalid="ignore"):
                V = np.matmul(M[of] if P > 1 else M, N)  # a stack of one broadcasts
            T = _printed(V, 1, tol).any(axis=2) @ bit
            key, first = np.unique(of << m | T, return_index=True)
            fresh = key & full != 0
            if met:
                fresh &= ~np.fromiter(map(met.__contains__, key.tolist()), bool, len(key))
            if not fresh.any():
                continue
            met.update(key[fresh].tolist())
            first = np.sort(first[fresh])
            of, T, N = of[first], T[first], N[first]
            if k == n - 1:
                alive, vectors = _normalize(V[first, :, 0], N[:, :, 0], thr[of], tol)
                found.append((of[alive], vectors))
            if blocks is not None:
                mixing = _touches(np.abs(N).max(axis=2), blocks, tol).sum(axis=1) > 1
                parts.append((T[mixing], N[mixing]))
        if parts:
            levels.append(tuple(map(np.concatenate, zip(*parts))))
    of, vectors = np.concatenate([s for s, _ in found]), _Vectors.concat([v for _, v in found])
    found = None
    order = _order(vectors.bits, m, of)
    slices = np.split(order, np.searchsorted(of[order], range(1, P)))  # each slice's vectors, in order
    grounds = [vectors.take(k[_inclusion_minimal(vectors.bits[k], m)]) for k in slices]
    if blocks is None:
        return grounds, None
    T = np.concatenate([T for T, _ in levels] or [bit[:0]])
    keep = np.flatnonzero(_inclusion_minimal(T, m))
    keep = keep[_order(T[keep], m)]
    starts = np.cumsum([0, *(len(part) for part, _ in levels)])
    level = np.searchsorted(starts, keep, side="right") - 1  # the level of each kept stratum
    index = keep - starts[level]
    widths = np.array([N.shape[2] for _, N in levels], dtype=np.intp)[level]
    N = np.zeros((len(keep), n, widths.max(initial=0)))
    for i in set(level.tolist()):
        at, part = level == i, levels[i][1]
        N[at, :, : part.shape[2]] = part[index[at]]
    return grounds, _Strata(T[keep], N, widths)


def minimal_supports(M, tol: Tolerance | None = None) -> list[SubspaceVector]:
    """All inclusion-minimal achievable supports with their normalized
    vectors, sorted by (size, rows): the hyperplane complements of the row
    matroid, from the first level of _flats, one null space and one vector
    per distinct hyperplane."""
    tol = tol or Tolerance.default()
    return _flats(_search_input(M, None, tol).M[None], tol)[0][0].vectors()


def _independent(values: list[np.ndarray], n: list[int], tol: Tolerance) -> list[list[int]]:
    """Indices of the first n[i] independent rows of each values[i] (G_i, m),
    in order: row r is picked iff the rank of [picks..., row r] as columns,
    at that matrix's own threshold, grows.  Each round makes one rank_many
    call, which tests a run of the next rows r_0..r_w-1 of every unfinished
    i, w the picks it still misses: slice j of the run holds [picks..., r_0,
    ..., r_j] and zero columns up to the widest n, which never win a pivot.
    While the ranks grow, slice j is the test of r_j with r_0..r_j-1 picked;
    the first row that does not grow is skipped and i's next run starts
    after it.  InternalError, for the first i in order, if values[i]'s rows
    span less than rank n[i]."""
    picked: list[list[int]] = [[] for _ in values]
    start = [0] * len(values)
    while live := [i for i, (p, v) in enumerate(zip(picked, values)) if len(p) < n[i] and start[i] < len(v)]:
        runs = [values[i][start[i] : start[i] + n[i] - len(picked[i])] for i in live]
        ends = list(accumulate(map(len, runs)))
        trial = np.zeros((ends[-1], runs[0].shape[1], max(n)))
        for i, run, end in zip(live, runs, ends):
            p, slices = len(picked[i]), trial[end - len(run) : end]
            slices[:, :, :p] = values[i][picked[i]].T
            prefix = np.tri(len(run), dtype=bool)[:, None, :]  # slice j holds r_0..r_j
            slices[:, :, p : p + len(run)] = np.where(prefix, run.T[None], 0.0)
        ranks = rank_many(trial, tol.stack_thresholds(trial))
        for i, run, end in zip(live, runs, ends):
            grew = ranks[end - len(run) : end] == len(picked[i]) + 1 + np.arange(len(run))
            stop = int(np.argmin(grew)) if not grew.all() else len(run)
            picked[i] += range(start[i], start[i] + stop)
            start[i] += stop + 1
    for p, want in zip(picked, n):
        if len(p) < want:
            raise InternalError(f"the ground set spans rank {len(p)}, not {want}")
    return picked


def _representatives(M: np.ndarray, blocks: BlockSpec, N: np.ndarray, tol: Tolerance):
    """A mixing vector from each stratum's null space N[s] (S, n, w), zero
    columns past its width: the normalized first column that touches more
    than one block and does not vanish, else the normalized sum of the first
    pure columns of the first two blocks met, each divided by its largest
    |entry|.  Returns them as _Vectors and per stratum 0, or 1 (no mixing
    combination) or 2 (the representative vanished)."""
    S, n, w = N.shape
    touched = _touches(N.transpose(0, 2, 1).reshape(S * w, n), blocks, tol)
    count = touched.sum(axis=1).reshape(S, w)
    mixing, thr = np.nonzero(count > 1), tol.matrix_threshold(M)
    X = N[mixing[0], :, mixing[1]]
    alive, found = _normalize(_image(M, X), X, thr, tol)
    has, first = np.unique(mixing[0][alive], return_index=True)
    rest = np.flatnonzero(np.bincount(has, minlength=S) == 0)
    block, pure = touched.argmax(axis=1).reshape(S, w)[rest], count[rest] == 1
    p0 = pure.argmax(axis=1)
    other = pure & (block != block[np.arange(rest.size), p0][:, None])
    pair = other.any(axis=1)
    X0, X1 = N[rest[pair], :, p0[pair]], N[rest[pair], :, other[pair].argmax(axis=1)]
    c = X0 / np.abs(X0).max(axis=1)[:, None] + X1 / np.abs(X1).max(axis=1)[:, None]
    combined, summed = _normalize(_image(M, c), c, thr, tol)
    reps = _Vectors(np.zeros((S, M.shape[0])), np.zeros((S, n)), np.zeros(S, dtype=np.int64))
    for out, a, b in zip(reps, found, summed):
        out[has], out[rest[pair][combined]] = a[first], b
    failed = np.zeros(S, dtype=int)
    failed[rest[~pair]], failed[rest[pair][~combined]] = 1, 2
    return reps, failed


def _drops(basis: np.ndarray, coeffs: np.ndarray, tol: Tolerance) -> np.ndarray:
    """drop[s]: the last position j of the basis (n, n) whose swap for
    coeffs[s] keeps rank n, -1 if none: as M has full column rank, the last
    j _printed for x, basis.T x = coeffs[s].  One solve, each basis row over
    its largest |entry|, as rows of M far apart in scale spread theirs.
    Singular: InternalError."""
    try:
        X = np.linalg.solve((basis / np.abs(basis).max(axis=1)[:, None]).T, coeffs.T)
    except np.linalg.LinAlgError as exc:
        raise InternalError(f"the optimum's coefficients are singular: {exc}") from exc
    above = _printed(X, 0, tol)
    return np.where(above.any(axis=0), len(X) - 1 - above[::-1].argmax(axis=0), -1)


def sparsest_basis(
    M,
    blocks: BlockSpec,
    mode: str = "unconstrained",
    tol: Tolerance | None = None,
) -> BasisSearchResult:
    """Minimum-total-support basis of the column space.

    Modes: 'unconstrained' (any basis), 'blockRespecting' (every vector's
    coefficients confined to one block; any all-pure basis counts regardless of
    order), 'forceMixing' (at least one vector must straddle blocks).

    The greedy over minimal-support vectors sorted by (support size, rows) is
    optimal by a matroid exchange argument; the supports are distinct, so no
    tie is left to break.  For forceMixing, each mixing-minimal support
    stratum is forced in turn and the completion is greedy; per-stratum
    attainment of the joint optimum is assumed (see the note attached to
    certificates reporting rho-).  The greedy completion of a forced vector f
    is one exchange on the greedy optimum B*: f, then B* without the last of
    its vectors whose swap for f keeps rank n (the last of f's fundamental
    circuit).  The greedy keeps every vector of B* before that one, skips it,
    keeps the rest, and rejects every other candidate, which lies in the span
    of the B* vectors before it.  The search runs on the stacked arrays of
    _flats: the greedy reads value rows (_independent), each chunk of CHUNK
    strata, sliced from the strata's null-basis stack, gets its
    representatives in one step (_representatives) and the positions they
    drop from one solve against B*'s coefficients (_drops), a stratum costs
    the size of its T, and SubspaceVector is built only for the n vectors
    returned.  blockRespecting searches the blocks before the first one short
    of full column rank together (_block_bases), and then raises that
    block's RankError.  M may also be a _Checked input, as sparsity_gap
    passes one to both searches.
    """
    tol = tol or Tolerance.default()
    M, blocks, full = M if isinstance(M, _Checked) else _search_input(M, blocks, tol)
    m, n = M.shape
    if mode == "unconstrained":
        (picked,) = _block_bases([M], tol)
    elif mode == "blockRespecting":
        ranges = blocks.ranges()
        short = np.flatnonzero(~full)  # the blocks short of full column rank
        searched = ranges[: short[0]] if short.size else ranges
        optima = _block_bases([M[:, cols] for cols in searched], tol)
        if short.size:
            raise RankError(f"matrix of shape {(m, len(ranges[short[0]]))} must have full column rank")
        parts = []
        for cols, optimum in zip(ranges, optima):
            coeffs = np.zeros((len(cols), n))
            coeffs[:, cols] = optimum.coeffs
            parts.append(optimum._replace(coeffs=coeffs))
        picked = _Vectors.concat(parts)
    elif mode == "forceMixing":
        if blocks.K < 2:
            raise InvalidInput("forceMixing needs at least two blocks")
        (ground,), strata = _flats(M[None], tol, blocks)
        if not len(strata.T):
            raise InternalError("no mixing stratum found despite K >= 2")
        optimum = ground.take(_independent([ground.values], [n], tol)[0])
        sizes, cost_T = _sizes(optimum.bits, m), _sizes(strata.T, m)
        best = None  # (cost, representative, dropped position of B*)
        for first in range(0, len(strata.T), CHUNK):
            chunk = slice(first, first + CHUNK)
            T, N = strata.T[chunk], strata.N[chunk, :, : strata.widths[chunk].max()]
            reps, failed = _representatives(M, blocks, N, tol)
            failed[(failed == 0) & (reps.bits != T)] = 3
            if failed.any():
                s = np.flatnonzero(failed)[0]
                raise InternalError((
                    "mixing stratum without a mixing combination",
                    "mixing representative vanished numerically",
                    f"stratum support {_members(int(T[s]))} not attained by representative "
                    f"{_members(int(reps.bits[s]))}",
                )[failed[s] - 1])
            drop = _drops(optimum.coeffs, reps.coeffs, tol)
            swaps = np.flatnonzero(drop >= 0)
            if swaps.size:
                cost = cost_T[chunk] + sizes.sum() - sizes[drop]
                s = swaps[np.argmin(cost[swaps])]
                if best is None or cost[s] < best[0]:  # the first cheapest stratum wins
                    best = (cost[s], reps.take([s]), drop[s])
        if best is None:
            raise InternalError("forced-mixing completion failed on every stratum")
        picked = _Vectors.concat([best[1], optimum.take(np.delete(np.arange(n), best[2]))])
    else:
        raise InvalidInput(f"unknown mode {mode!r}")
    vectors = picked.vectors()
    return BasisSearchResult(
        mode=mode,
        cost=sum(v.support_size for v in vectors),
        vectors=vectors,
        mixing_flags=(_touches(picked.coeffs, blocks, tol).sum(axis=1) > 1).tolist(),
    )


def _once(key, search):
    """search(), run once per key within a request (one_request), afresh
    outside one."""
    store = _searches.get()
    if store is None:
        return search()
    if key not in store:
        store[key] = search()
    return store[key]


def _found(key):
    """What _once has stored under key in this request; None outside one or
    before that search has run.  It never starts a search."""
    return (_searches.get() or {}).get(key)


def _block_bases(Ms: list[np.ndarray], tol: Tolerance) -> list[_Vectors]:
    """The greedy basis over the ground set of each block's columns Ms[i],
    each searched once per request (_once), keyed by the block's shape and
    bytes and the resolved tolerance: the gaps of one request that hold a
    block share its search, and equal blocks of one call share one.  The
    blocks the request has not searched (_found) are searched together, in
    order: one _flats pass per block width over the stack of the blocks of
    that width, then one greedy (_independent) for them all.  A search that
    raises stores nothing; its error is that of the first block in order
    that fails, but an overflow in any block's pass raises InvalidInput at
    once."""
    keys = [(B.shape, B.tobytes(), tol) for B in Ms]
    optima = {key: _found(key) for key in keys}
    todo = {key: B for key, B in zip(keys, Ms) if optima[key] is None}
    grounds = {}
    for width in dict.fromkeys(B.shape[1] for B in todo.values()):
        group = [key for key, B in todo.items() if B.shape[1] == width]
        grounds.update(zip(group, _flats(np.stack([todo[key] for key in group]), tol)[0]))
    picks = _independent([grounds[key].values for key in todo], [B.shape[1] for B in todo.values()], tol)
    for key, p in zip(todo, picks):
        optima[key] = _once(key, lambda: grounds[key].take(p))
    return [optima[key] for key in keys]


def _gap_key(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """sparsity_gap's key within a request: M's shape and bytes, the block
    sizes and the resolved tolerance."""
    return M.shape, M.tobytes(), blocks.sizes, tol


def sparsity_gap(M, blocks: BlockSpec, tol: Tolerance | None = None) -> GapResult:
    """rho+ (cheapest block-respecting basis) vs rho- (cheapest basis forced to
    mix); the factors are Type S independent iff rho+ < rho-.  M is checked
    once (_search_input) for both searches, and a request (one_request)
    searches each gap (_gap_key) and each block (_block_bases) once."""
    tol = tol or Tolerance.default()
    blocks = BlockSpec.coerce(blocks)
    if blocks.K < 2:
        raise InvalidInput("the sparsity gap needs at least two blocks")
    M = as_matrix(M)

    def search():
        checked = _search_input(M, blocks, tol)
        respecting = sparsest_basis(checked, blocks, "blockRespecting", tol)
        mixing = sparsest_basis(checked, blocks, "forceMixing", tol)
        return GapResult(
            rho_plus=respecting.cost,
            rho_minus=mixing.cost,
            independent=respecting.cost < mixing.cost,
            respecting=respecting,
            mixing=mixing,
        )

    return _once(_gap_key(M, blocks, tol), search)


def pairwise_sparsity_gap(M, blocks: BlockSpec, tol: Tolerance | None = None) -> list[list[bool]]:
    """K x K table: entry (i, j) is the Type S verdict for the two-block
    submatrix of blocks i and j; the diagonal is vacuously True.

    If the request has found the whole gap independent (_found), so is
    every pair, and no pair's forced-mixing search runs: a mixing basis P
    of the pair's columns plus the other blocks' block-respecting optima is
    a mixing basis of M, as the block subspaces form a direct sum, so
    rho- <= rho-(pair) + w(others), while rho+ = rho+(pair) + w(others).
    The table never starts the whole gap's search.  A pair it decides runs
    only its input check (_search_input), the one step of its search that
    can raise: its blocks are the whole gap's (same bytes and thresholds;
    zero padding never wins a pivot), of full column rank and searched.
    With K = 2 the one pair's gap is the whole gap, read from the request."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec.covering(blocks, M.shape[1])
    if blocks.K < 2:
        raise InvalidInput("pairwise gaps need at least two blocks")
    ranges, K = blocks.ranges(), blocks.K
    whole = _found(_gap_key(M, blocks, tol))
    decided = K > 2 and whole is not None and whole.independent
    table = [[True] * K for _ in range(K)]
    for i, j in combinations(range(K), 2):
        pair = BlockSpec((blocks.sizes[i], blocks.sizes[j]))
        sub = M[:, ranges[i] + ranges[j]]
        if decided:
            _search_input(sub, pair, tol)
        else:
            table[i][j] = table[j][i] = sparsity_gap(sub, pair, tol).independent
    return table
