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
the mixing strata (_flats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .core import SupportMask, Tolerance, as_matrix, null_space_many, rank, rank_many
from .errors import InvalidInput, InternalError, RankError, SizeError

MAX_ROWS = 20
MAX_COLS = 8

# Row subsets per batched elimination, and forced-mixing strata per batch of
# exchange tests.  It bounds the largest stack, the closure test's CHUNK * m
# slices of at most MAX_COLS x MAX_COLS, to 1.3 MB whatever C(m, k) is.  The
# row partition in graphs caps its stacks with it.
CHUNK = 128


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
        return tuple(b + 1 for b in _touched(self.coeff_array(), blocks, tol))

    def is_mixing(self, blocks: BlockSpec, tol: Tolerance) -> bool:
        return len(self.touched_blocks(blocks, tol)) > 1


@dataclass
class BasisSearchResult:
    mode: str
    cost: int
    vectors: list[SubspaceVector]
    mixing_flags: list[bool] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@dataclass
class GapResult:
    rho_plus: int
    rho_minus: int
    independent: bool
    respecting: BasisSearchResult
    mixing: BasisSearchResult


def _touched(c: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> list[int]:
    """0-based indices of the blocks a coefficient vector touches: those with
    an entry above the threshold of the vector's own largest entry."""
    c = np.abs(c)
    above = (c > tol.threshold(c.max())).tolist()
    return [b for b, cols in enumerate(blocks.ranges()) if any(above[j] for j in cols)]


def _check_search_size(M: np.ndarray):
    m, n = M.shape
    if m > MAX_ROWS or n > MAX_COLS:
        raise SizeError(
            f"exhaustive search capped at {MAX_ROWS} rows x {MAX_COLS} cols, got {m}x{n}"
        )


def _require_full_column_rank(M: np.ndarray, tol: Tolerance):
    if rank(M, tol) < M.shape[1]:
        raise RankError(f"matrix of shape {M.shape} must have full column rank")


def _normalized_vector(M: np.ndarray, c: np.ndarray, tol: Tolerance) -> SubspaceVector | None:
    v = M @ c
    top = np.abs(v).max()
    if top <= tol.matrix_threshold(M):
        return None
    piv = int(np.flatnonzero(np.abs(v) == top)[0])
    scale = v[piv]
    v = v / scale
    c = c / scale
    members = np.flatnonzero(np.abs(v) > tol.threshold(1.0))
    return SubspaceVector(
        value=tuple(float(x) for x in v),
        coeff=tuple(float(x) for x in c),
        mask=SupportMask(M.shape[0], tuple(int(i) + 1 for i in members)),
    )


def _bits(members) -> int:
    """Bitmask of 1-based row indices: row i sets bit i - 1."""
    return sum(1 << (i - 1) for i in members)


def _members(bits: int) -> tuple[int, ...]:
    """The sorted 1-based row indices of a bitmask."""
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


def _below(masks, m: int) -> np.ndarray:
    """below[x] says whether one of the bitmasks over m rows lies inside the
    row set x: a sum over subsets, one pass per row over all 2^m row sets."""
    below = np.zeros(1 << m, dtype=bool)
    below[np.fromiter(masks, dtype=np.int64)] = True
    for i in range(m):
        halves = below.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    return below


def _inclusion_minimal(masks, m: int) -> list[int]:
    """The distinct bitmasks over m rows that have no other of the masks as a
    proper subset: a mask t has one iff t minus one of its rows has one of
    the masks inside it."""
    masks = np.fromiter(masks, dtype=np.int64)
    below = _below(masks, m)
    proper = np.zeros(masks.size, dtype=bool)
    for i in range(m):
        proper |= ((masks >> i) & 1 == 1) & below[masks ^ (1 << i)]
    return masks[~proper].tolist()


def _subset_chunks(m: int, k: int):
    """The k-subsets of range(m) in combinations order, as (C, k) index
    arrays of at most CHUNK subsets."""
    subsets = combinations(range(m), k)
    while chunk := list(islice(subsets, CHUNK)):
        yield np.array(chunk, dtype=np.intp).reshape(len(chunk), k)


def _closed_rows(M: np.ndarray, R: np.ndarray, thr: float) -> np.ndarray:
    """(C, m) mask: row j of M is in the span of the k independent rows R[c],
    i.e. stacking it under them keeps the rank at k.  Rows of R[c] are: a
    copy of one never wins a pivot tie against it and ends exactly zero."""
    (C, k), (m, n) = R.shape, M.shape
    closed = np.zeros((C, m), dtype=bool)
    closed[np.arange(C)[:, None], R] = True
    stack = np.empty((C, m - k, k + 1, n))
    stack[:, :, :k] = M[R][:, None]
    stack[:, :, k] = M[np.nonzero(~closed)[1].reshape(C, m - k)]
    closed[~closed] = rank_many(stack.reshape(-1, k + 1, n), thr) == k
    return closed


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
        members = set(int(i) for i in T)
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

    Level k ranks the k-row subsets R chunk by chunk in combinations order;
    an independent R's null space attains T, the complement of its closure.
    A flat's rank fixes its level, and each distinct T gets one null space,
    its first subset's.  At level cols-1 each hyperplane complement gets one
    normalized vector, keyed by the vector's support; the inclusion-minimal
    ones, sorted by (size, rows), are the ground set.  With blocks the pass
    goes on down to level 0: T is a mixing stratum iff the rows of its
    coefficient null space touch more than one block (_touched of their
    largest entries): it then cannot be covered by the finitely many block
    subspaces without lying inside one.  A lower level has larger
    complements, so a T holding an accepted stratum is skipped before its
    null space; the final inclusion-minimal filter would drop it.
    Returns (ground, strata), strata as [(members_1based, null_basis)]
    sorted by (size, rows), None without blocks."""
    m, n = M.shape
    thr = tol.matrix_threshold(M)
    bit = 1 << np.arange(m)
    met: set[int] = set()
    vectors: dict[int, SubspaceVector] = {}
    strata: dict[int, np.ndarray] = {}
    below, counted = None, 0
    for k in range(n - 1, -1, -1) if blocks else [n - 1]:
        if len(strata) > counted:
            below, counted = _below(strata, m), len(strata)
        for R in _subset_chunks(m, k):
            R = R[rank_many(M[R], thr) == k]
            open_bits = (~_closed_rows(M, R, thr) * bit).sum(axis=1).tolist()
            fresh = []
            for i, T in enumerate(open_bits):
                if T and T not in met and (below is None or not below[T]):
                    met.add(T)
                    fresh.append(i)
            for i, N in zip(fresh, null_space_many(M[R[fresh]], thr)):
                if N.shape[1] != n - k:
                    continue
                if k == n - 1:
                    vec = _normalized_vector(M, N[:, 0], tol)
                    if vec is not None:
                        vectors.setdefault(_bits(vec.mask.members), vec)
                if blocks is not None and len(_touched(np.abs(N).max(axis=1), blocks, tol)) > 1:
                    strata[open_bits[i]] = N
    ground = [vectors[t] for t in _inclusion_minimal(vectors, m)]
    ground.sort(key=lambda v: (v.support_size, v.mask.members))
    if blocks is None:
        return ground, None
    minimal = _inclusion_minimal(strata, m)
    minimal.sort(key=lambda t: (t.bit_count(), _members(t)))
    return ground, [(_members(t), strata[t]) for t in minimal]


def minimal_supports(M, tol: Tolerance | None = None) -> list[SubspaceVector]:
    """All inclusion-minimal achievable supports with their normalized
    vectors, sorted by (size, rows): the hyperplane complements of the row
    matroid, from the first level of _flats, one null space and one vector
    per distinct hyperplane."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    _check_search_size(M)
    _require_full_column_rank(M, tol)
    return _flats(M, tol)[0]


def _greedy(candidates: list[SubspaceVector], n: int, tol: Tolerance) -> list[SubspaceVector]:
    """The first n independent vectors of the candidates, taken in order: a
    candidate is picked iff the rank of [picks..., candidate], at that
    matrix's own threshold, grows.  InternalError if the candidates span
    less than rank n."""
    picked: list[SubspaceVector] = []
    for cand in candidates:
        trial = np.column_stack([v.value for v in picked] + [cand.value])[None]
        if rank_many(trial, tol.stack_thresholds(trial))[0] > len(picked):
            picked.append(cand)
            if len(picked) == n:
                return picked
    raise InternalError(f"the ground set spans rank {len(picked)}, not {n}")


def _stratum_representative(
    M: np.ndarray, blocks: BlockSpec, N: np.ndarray, tol: Tolerance
) -> SubspaceVector:
    """A mixing vector from the stratum's coefficient space."""
    cols = [N[:, j] for j in range(N.shape[1])]
    for c in cols:
        if len(_touched(c, blocks, tol)) > 1:
            vec = _normalized_vector(M, c, tol)
            if vec is not None:
                return vec
    # every basis vector is pure; two of them live in different blocks
    groups = {}
    for c in cols:
        t = _touched(c, blocks, tol)
        if len(t) == 1:
            groups.setdefault(t[0], c)
    picks = list(groups.values())
    if len(picks) < 2:
        raise InternalError("mixing stratum without a mixing combination")
    c = picks[0] / np.abs(picks[0]).max() + picks[1] / np.abs(picks[1]).max()
    vec = _normalized_vector(M, c, tol)
    if vec is None:
        raise InternalError("mixing representative vanished numerically")
    return vec


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
    circuit).  The greedy keeps every vector of B* before that one, skips
    it, keeps the rest, and rejects every other candidate, which lies in
    the span of the B* vectors before it.  forceMixing takes its ground set
    and strata from one _flats pass, computes B* once, and tests the swaps
    of the strata CHUNK at a time, one rank_many call per position of B*
    from the last, keeping only the cheapest completion so far.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec.covering((M.shape[1],) if blocks is None else blocks, M.shape[1])
    _check_search_size(M)
    _require_full_column_rank(M, tol)
    n = M.shape[1]

    if mode == "unconstrained":
        picked = _greedy(minimal_supports(M, tol), n, tol)
    elif mode == "blockRespecting":
        picked = []
        for cols in blocks.ranges():
            for v in _greedy(minimal_supports(M[:, cols], tol), len(cols), tol):
                coeff = np.zeros(n)
                coeff[cols] = v.coeff_array()
                picked.append(SubspaceVector(value=v.value, coeff=tuple(coeff), mask=v.mask))
    elif mode == "forceMixing":
        if blocks.K < 2:
            raise InvalidInput("forceMixing needs at least two blocks")
        ground, strata = _flats(M, tol, blocks)
        if not strata:
            raise InternalError("no mixing stratum found despite K >= 2")
        optimum = _greedy(ground, n, tol)
        values = np.array([v.value for v in optimum]).T
        best: tuple[int, list[SubspaceVector]] | None = None
        for first in range(0, len(strata), CHUNK):
            reps = []
            for members, N in strata[first : first + CHUNK]:
                rep = _stratum_representative(M, blocks, N, tol)
                if set(rep.mask.members) != set(members):
                    raise InternalError(
                        f"stratum support {members} not attained by representative "
                        f"{rep.mask.members}"
                    )
                reps.append(rep)
            dropped = np.full(len(reps), -1)
            for j in range(n - 1, -1, -1):
                open_ = np.flatnonzero(dropped < 0)
                if not open_.size:
                    break
                # each open representative, then B* without its j-th vector
                trial = np.empty((open_.size, M.shape[0], n))
                trial[:, :, 0] = [reps[i].value for i in open_]
                trial[:, :, 1:] = np.delete(values, j, axis=1)
                dropped[open_[rank_many(trial, tol.stack_thresholds(trial)) == n]] = j
            for rep, j in zip(reps, dropped.tolist()):
                if j < 0:  # no swap keeps rank n: the completion fails
                    continue
                picked = [rep] + optimum[:j] + optimum[j + 1 :]
                cost = sum(v.support_size for v in picked)
                if best is None or cost < best[0]:  # the first cheapest stratum wins
                    best = (cost, picked)
        if best is None:
            raise InternalError("forced-mixing completion failed on every stratum")
        picked = best[1]
    else:
        raise InvalidInput(f"unknown mode {mode!r}")
    return BasisSearchResult(
        mode=mode,
        cost=sum(v.support_size for v in picked),
        vectors=picked,
        mixing_flags=[v.is_mixing(blocks, tol) for v in picked],
    )


def sparsity_gap(M, blocks: BlockSpec, tol: Tolerance | None = None) -> GapResult:
    """rho+ (cheapest block-respecting basis) vs rho- (cheapest basis forced to
    mix); the factors are Type S independent iff rho+ < rho-."""
    tol = tol or Tolerance.default()
    blocks = BlockSpec.coerce(blocks)
    if blocks.K < 2:
        raise InvalidInput("the sparsity gap needs at least two blocks")
    respecting = sparsest_basis(M, blocks, "blockRespecting", tol)
    mixing = sparsest_basis(M, blocks, "forceMixing", tol)
    return GapResult(
        rho_plus=respecting.cost,
        rho_minus=mixing.cost,
        independent=respecting.cost < mixing.cost,
        respecting=respecting,
        mixing=mixing,
    )


def request_gap(M: np.ndarray, blocks: BlockSpec, tol: Tolerance, gaps: dict | None) -> GapResult:
    """sparsity_gap of a validated float matrix, searched once per request:
    gaps is a dict one request owns (None searches afresh), keyed by the
    matrix's shape and bytes, the block sizes and the resolved tolerance."""
    gaps = {} if gaps is None else gaps
    key = (M.shape, M.tobytes(), blocks.sizes, tol)
    if key not in gaps:
        gaps[key] = sparsity_gap(M, blocks, tol)
    return gaps[key]


def pairwise_sparsity_gap(
    M, blocks: BlockSpec, tol: Tolerance | None = None, gaps: dict | None = None
) -> list[list[bool]]:
    """K x K table: entry (i, j) is the Type S verdict for the two-block
    submatrix of blocks i and j; the diagonal is vacuously True."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec.covering(blocks, M.shape[1])
    if blocks.K < 2:
        raise InvalidInput("pairwise gaps need at least two blocks")
    ranges, K = blocks.ranges(), blocks.K
    table = [[True] * K for _ in range(K)]
    for i, j in combinations(range(K), 2):
        pair = BlockSpec((blocks.sizes[i], blocks.sizes[j]))
        sub = M[:, ranges[i] + ranges[j]]
        table[i][j] = table[j][i] = request_gap(sub, pair, tol, gaps).independent
    return table
