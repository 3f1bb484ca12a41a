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
the mixing strata (_flats).  The searches hold vectors as stacked arrays
(_Vectors); SubspaceVector is built only for the vectors a caller gets back.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from .core import (
    OVERFLOW, SupportMask, Tolerance, as_int, as_matrix, null_space_many, rank, rank_many
)
from .errors import InvalidInput, InternalError, RankError, SizeError

MAX_ROWS = 20
MAX_COLS = 8

# Row subsets per batched elimination, and forced-mixing strata per solve.
# It bounds the search's largest array, a chunk's products M N, to 0.16 MB
# whatever C(m, k) is.  The audit's random mixings come in chunks whose
# products M R keep within the same CHUNK * MAX_ROWS * MAX_COLS entries.
CHUNK = 128

# The searches of the request one_request has opened, by key (_once); None
# outside one.
_searches: ContextVar[dict | None] = ContextVar("searches", default=None)


@contextmanager
def one_request():
    """Open a request: within it, the gaps of one matrix, blocks and
    tolerance are searched once (sparsity_gap), and so is each block's basis
    (_block_basis), whichever checker asks.  The memo is dropped on exit."""
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


def _normalize(M: np.ndarray, C: np.ndarray, tol: Tolerance, V=None) -> tuple[np.ndarray, _Vectors]:
    """The vectors M c of the rows c of C (F, n), the stacked matmul's rows or
    V's: the mask of those above M's zero threshold, and those with their c,
    over their first entry of largest magnitude, supports _printed."""
    if V is None:
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.matmul(M[None], C[:, :, None])[:, :, 0]
    bits = _printed(V, 1, tol) @ (1 << np.arange(M.shape[0]))
    piv = np.abs(V).argmax(axis=1)
    alive = ~(np.abs(V[np.arange(len(V)), piv]) <= tol.matrix_threshold(M))
    scale = V[alive, piv[alive]][:, None]
    return alive, _Vectors(V[alive] / scale, C[alive] / scale, bits[alive])


def _members(bits: int) -> tuple[int, ...]:
    """The sorted 1-based row indices of a bitmask: row i sets bit i - 1."""
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


# the number of set bits of each byte, and each byte with its 8 bits reversed
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint64)
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64)


def _order(bits: np.ndarray, m: int) -> np.ndarray:
    """The order of distinct bitmasks over m rows by (size, sorted members):
    of two sets of one size, the one holding the first row where they
    differ comes first: the larger mask read with its m bits reversed.

    Size and reversal come a byte at a time from 256-entry tables: the
    reversed bytes, in reverse order, reverse all 8 w bits of w bytes, and a
    shift drops the 8 w - m bits past row m."""
    width = -(-m // 8)
    size, reversed_ = np.zeros((2, len(bits)), dtype=np.uint64)
    for i in range(width):
        byte = (bits >> 8 * i & 0xFF).astype(np.intp)
        size += _POPCOUNT[byte]
        reversed_ |= _REVERSED[byte] << np.uint64(8 * (width - 1 - i))
    reversed_ >>= np.uint64(8 * width - m)
    return np.lexsort((-reversed_.astype(np.int64), size))


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


def _flats(M: np.ndarray, tol: Tolerance, blocks: BlockSpec | None = None):
    """The ground set and, with blocks, the mixing strata, from one pass
    over the flats of M's row matroid, hyperplanes first.

    Level k eliminates the k-row subsets R chunk by chunk in combinations
    order, one null_space_many call each: R is independent iff its null basis
    N has n - k columns, and then attains T, the complement of its closure: by
    core's closure rule, the union of the _printed supports of M N's columns.
    Each distinct T keeps its first subset's N.  At level n-1 the first vector
    of each support, filtered to the inclusion-minimal supports and sorted by
    (size, rows), is the ground set, as _Vectors.  With blocks the pass goes
    on down to level 0: T is a mixing stratum iff the rows of its coefficient
    null space touch more than one block (_touches of their largest entries):
    it then cannot be covered by the finitely many block subspaces without
    lying inside one.  A row subset R inside the flat of a stratum accepted
    at a higher level, one that misses its T, is never eliminated: T(R)
    holds T(R') iff R lies in the closure of R', so R is dependent or
    attains a T holding that stratum, which the final inclusion-minimal
    filter would drop.  _counter counts the strata inside R's complement
    before each chunk's null_space_many call.  The strata are
    returned as [(T bitmask, null basis)] sorted by (size, rows), None without
    blocks."""
    m, n = M.shape
    thr = tol.matrix_threshold(M)
    bit, full = 1 << np.arange(m), (1 << m) - 1
    met = np.zeros(1 << m, dtype=bool)
    found = [_Vectors(np.zeros((0, m)), np.zeros((0, n)), bit[:0])]
    strata: dict[int, np.ndarray] = {}
    counted = -1
    for k in range(n - 1, -1, -1) if blocks else [n - 1]:
        if len(strata) != counted:  # a level that accepted none keeps the count
            holding, counted = _counter(np.fromiter(strata, dtype=np.int64), m), len(strata)
        for R in _subset_chunks(m, k):
            R = R[holding(full & ~bit[R].sum(axis=1)) == 0]
            if not len(R):
                continue
            N = null_space_many(M[R], thr, n - k)
            with np.errstate(over="ignore", invalid="ignore"):
                V = np.matmul(M[None], N)
            open_ = _printed(V, 1, tol).any(axis=2)
            T, first = np.unique(open_ @ bit, return_index=True)
            fresh = (T != 0) & ~met[T]
            if not fresh.any():
                continue
            met[T[fresh]] = True
            first = np.sort(first[fresh])
            T, N = open_[first] @ bit, N[first]
            if k == n - 1:
                found.append(_normalize(M, N[:, :, 0], tol, V[first, :, 0])[1])
            if blocks is not None:
                mixing = _touches(np.abs(N).max(axis=2), blocks, tol).sum(axis=1) > 1
                strata.update(zip(T[mixing].tolist(), N[mixing]))
    vectors, found = _Vectors.concat(found), None
    first = np.unique(vectors.bits, return_index=True)[1]
    keep = first[_inclusion_minimal(vectors.bits[first], m)]
    ground = vectors.take(keep[_order(vectors.bits[keep], m)])
    if blocks is None:
        return ground, None
    T = np.fromiter(strata, dtype=np.int64, count=len(strata))
    T = T[_inclusion_minimal(T, m)]
    return ground, [(t, strata[t]) for t in T[_order(T, m)].tolist()]


def minimal_supports(M, tol: Tolerance | None = None) -> list[SubspaceVector]:
    """All inclusion-minimal achievable supports with their normalized
    vectors, sorted by (size, rows): the hyperplane complements of the row
    matroid, from the first level of _flats, one null space and one vector
    per distinct hyperplane."""
    tol = tol or Tolerance.default()
    return _flats(_search_input(M, None, tol).M, tol)[0].vectors()


def _independent(values: np.ndarray, n: int, tol: Tolerance) -> list[int]:
    """Indices of the first n independent rows of values (G, m), in order:
    row i is picked iff the rank of [picks..., row i] as columns, at that
    matrix's own threshold, grows.  One rank_many call tests a run of the
    next rows r_0..r_w-1, w the picks still missing: slice j holds [picks...,
    r_0, ..., r_j] and zero columns, which never win a pivot.  While the
    ranks grow, slice j is the test of r_j with r_0..r_j-1 picked; the
    first row that does not grow is skipped and the next run starts after
    it.  InternalError if the rows span less than rank n."""
    picked: list[int] = []
    start = 0
    while len(picked) < n and start < len(values):
        p, run = len(picked), values[start : start + n - len(picked)]
        trial = np.zeros((len(run), values.shape[1], n))
        trial[:, :, :p] = values[picked].T
        prefix = np.tri(len(run), dtype=bool)[:, None, :]  # slice j holds r_0..r_j
        trial[:, :, p : p + len(run)] = np.where(prefix, run.T[None], 0.0)
        grew = rank_many(trial, tol.stack_thresholds(trial)) == p + 1 + np.arange(len(run))
        stop = int(np.argmin(grew)) if not grew.all() else len(run)
        picked += range(start, start + stop)
        start += stop + 1
    if len(picked) < n:
        raise InternalError(f"the ground set spans rank {len(picked)}, not {n}")
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
    mixing = np.nonzero(count > 1)
    alive, found = _normalize(M, N[mixing[0], :, mixing[1]], tol)
    has, first = np.unique(mixing[0][alive], return_index=True)
    rest = np.flatnonzero(np.bincount(has, minlength=S) == 0)
    block, pure = touched.argmax(axis=1).reshape(S, w)[rest], count[rest] == 1
    p0 = pure.argmax(axis=1)
    other = pure & (block != block[np.arange(rest.size), p0][:, None])
    pair = other.any(axis=1)
    X0, X1 = N[rest[pair], :, p0[pair]], N[rest[pair], :, other[pair].argmax(axis=1)]
    c = X0 / np.abs(X0).max(axis=1)[:, None] + X1 / np.abs(X1).max(axis=1)[:, None]
    combined, summed = _normalize(M, c, tol)
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
    strata gets its representatives in one step (_representatives) and the
    positions they drop from one solve against B*'s coefficients (_drops), a
    stratum costs the size of its T, and SubspaceVector is built only for the n
    vectors returned.  M may also be a _Checked input, as sparsity_gap passes
    one to both searches.
    """
    tol = tol or Tolerance.default()
    M, blocks, full = M if isinstance(M, _Checked) else _search_input(M, blocks, tol)
    m, n = M.shape
    if mode == "unconstrained":
        ground = _flats(M, tol)[0]
        picked = ground.take(_independent(ground.values, n, tol))
    elif mode == "blockRespecting":
        parts = []
        for cols, ok in zip(blocks.ranges(), full):
            if not ok:
                raise RankError(f"matrix of shape {(m, len(cols))} must have full column rank")
            ground = _block_basis(M[:, cols], tol)
            coeffs = np.zeros((len(cols), n))
            coeffs[:, cols] = ground.coeffs
            parts.append(ground._replace(coeffs=coeffs))
        picked = _Vectors.concat(parts)
    elif mode == "forceMixing":
        if blocks.K < 2:
            raise InvalidInput("forceMixing needs at least two blocks")
        ground, strata = _flats(M, tol, blocks)
        if not strata:
            raise InternalError("no mixing stratum found despite K >= 2")
        optimum = ground.take(_independent(ground.values, n, tol))
        sizes = np.array([b.bit_count() for b in optimum.bits.tolist()])
        best = None  # (cost, representative, dropped position of B*)
        for first in range(0, len(strata), CHUNK):
            chunk = strata[first : first + CHUNK]
            T = np.array([t for t, _ in chunk])
            N = np.zeros((len(chunk), n, max(null.shape[1] for _, null in chunk)))
            for s, (_, null) in enumerate(chunk):
                N[s, :, : null.shape[1]] = null
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
                cost = np.array([t.bit_count() for t in T.tolist()]) + sizes.sum() - sizes[drop]
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


def _block_basis(M: np.ndarray, tol: Tolerance) -> _Vectors:
    """The greedy basis over the ground set of one block's columns M,
    searched once per request (_once), keyed by M's shape and bytes and the
    resolved tolerance: the gaps of one request that hold a block share its
    search."""

    def search():
        ground = _flats(M, tol)[0]
        return ground.take(_independent(ground.values, M.shape[1], tol))

    return _once((M.shape, M.tobytes(), tol), search)


def _gap_key(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """sparsity_gap's key within a request: M's shape and bytes, the block
    sizes and the resolved tolerance."""
    return M.shape, M.tobytes(), blocks.sizes, tol


def _respecting(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """All a gap runs before its forced-mixing search: M checked
    (_search_input) and its cheapest block-respecting basis."""
    checked = _search_input(M, blocks, tol)
    return checked, sparsest_basis(checked, blocks, "blockRespecting", tol)


def sparsity_gap(M, blocks: BlockSpec, tol: Tolerance | None = None) -> GapResult:
    """rho+ (cheapest block-respecting basis) vs rho- (cheapest basis forced to
    mix); the factors are Type S independent iff rho+ < rho-.  M and each
    block are checked for full column rank once, for both searches.  Within
    a request (one_request) each gap is searched once (_gap_key)."""
    tol = tol or Tolerance.default()
    blocks = BlockSpec.coerce(blocks)
    if blocks.K < 2:
        raise InvalidInput("the sparsity gap needs at least two blocks")
    M = as_matrix(M)

    def search():
        checked, respecting = _respecting(M, blocks, tol)
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
    The table never starts the whole gap's search.  A pair it decides still
    runs what its gap runs before mixing (_respecting), memoized per block,
    so it raises the input errors its search would."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec.covering(blocks, M.shape[1])
    if blocks.K < 2:
        raise InvalidInput("pairwise gaps need at least two blocks")
    ranges, K = blocks.ranges(), blocks.K
    whole = _found(_gap_key(M, blocks, tol))
    decided = whole is not None and whole.independent
    table = [[True] * K for _ in range(K)]
    for i, j in combinations(range(K), 2):
        pair = BlockSpec((blocks.sizes[i], blocks.sizes[j]))
        sub = M[:, ranges[i] + ranges[j]]
        if decided:
            _respecting(sub, pair, tol)
        else:
            table[i][j] = table[j][i] = sparsity_gap(sub, pair, tol).independent
    return table
