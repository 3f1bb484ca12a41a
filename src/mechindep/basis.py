"""Sparse-subspace machinery: achievable supports, minimal-support vectors,
sparsest bases under block constraints, and the sparsity gap rho+ / rho-.

All searches run over the ground set of minimal-support vectors.  That is
lossless for unconstrained and block-respecting bases (every vector of the
column space decomposes over minimal-support vectors whose supports sit inside
its own, so a cheapest basis can always be exchanged into the ground set), and
for forced-mixing bases the same argument applies to the companions while the
mixing vector itself ranges over the enumerated mixing-minimal supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import SupportMask, Tolerance, as_matrix, null_space, rank
from .errors import InvalidInput, InternalError, RankError, SizeError

MAX_ROWS = 20
MAX_COLS = 8


@dataclass(frozen=True)
class BlockSpec:
    """Contiguous column blocks: block i owns columns sizes[0]+..+sizes[i-1]+1 .. +sizes[i]."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidInput(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def coerce(cls, blocks) -> "BlockSpec":
        """blocks itself if it is a BlockSpec, else the BlockSpec of its sizes."""
        return blocks if isinstance(blocks, cls) else cls(tuple(blocks))

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
        c = np.abs(self.coeff_array())
        thr = tol.threshold(c.max())
        touched = []
        for b, cols in enumerate(blocks.ranges()):
            if any(c[j] > thr for j in cols):
                touched.append(b + 1)
        return tuple(touched)

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


def _mask1(universe: int, members0) -> SupportMask:
    return SupportMask(universe, tuple(sorted(int(i) + 1 for i in members0)))


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
        mask=_mask1(M.shape[0], members),
    )


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


def minimal_supports(M, tol: Tolerance | None = None) -> list[SubspaceVector]:
    """All inclusion-minimal achievable supports with their normalized vectors.

    Enumeration: the complement of a minimal achievable support is a closed row
    set of rank cols-1, so every minimal support arises as supp(M c) with c the
    null vector of some independent (cols-1)-row subset.  Candidates are then
    filtered to the inclusion-minimal ones.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    _check_search_size(M)
    _require_full_column_rank(M, tol)
    m, n = M.shape
    thr = tol.matrix_threshold(M)

    by_mask: dict[tuple[int, ...], SubspaceVector] = {}
    for R in combinations(range(m), n - 1):
        sub = M[list(R), :]
        if R and rank(sub, tol, thr=thr) < n - 1:
            continue
        N = null_space(sub, tol, thr=thr) if R else np.eye(n)
        if N.shape[1] != 1:
            continue
        vec = _normalized_vector(M, N[:, 0], tol)
        if vec is None:
            continue
        by_mask.setdefault(vec.mask.members, vec)

    masks = list(by_mask)
    minimal = [
        t for t in masks if not any(set(s) < set(t) for s in masks if s != t)
    ]
    minimal.sort(key=lambda t: (len(t), t))
    return [by_mask[t] for t in minimal]


def _sort_key(vec: SubspaceVector, blocks: BlockSpec | None, tol: Tolerance):
    purity = 0
    if blocks is not None:
        purity = 0 if not vec.is_mixing(blocks, tol) else 1
    return (vec.support_size, vec.mask.members, purity)


def _greedy_complete(
    candidates: list[SubspaceVector],
    n: int,
    tol: Tolerance,
    forced: list[SubspaceVector] | None = None,
) -> list[SubspaceVector] | None:
    picked = list(forced or [])
    if picked:
        V = np.column_stack([v.value_array() for v in picked])
        if rank(V, tol) < len(picked):
            return None
    for cand in candidates:
        if len(picked) == n:
            break
        trial = [v.value_array() for v in picked] + [cand.value_array()]
        if rank(np.column_stack(trial), tol) == len(picked) + 1:
            picked.append(cand)
    return picked if len(picked) == n else None


def _mixing_strata(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """Inclusion-minimal supports achievable by mixing vectors.

    Closed row sets are enumerated as closures of independent row subsets of
    size < cols; a complement T is a mixing stratum iff the coefficient null
    space is not confined to a single block (it then cannot be covered by the
    finitely many block subspaces without lying inside one).
    Returns [(members_1based, null_basis)] sorted by (size, mask).
    """
    m, n = M.shape
    thr = tol.matrix_threshold(M)
    ranges = blocks.ranges()
    seen: dict[tuple[int, ...], np.ndarray] = {}
    for k in range(n):
        for R in combinations(range(m), k):
            sub = M[list(R), :]
            if R and rank(sub, tol, thr=thr) < k:
                continue
            N = null_space(sub, tol, thr=thr) if R else np.eye(n)
            if N.shape[1] != n - k:
                continue
            if R:
                # closure of R: rows already in the span of M_R (stacking them
                # does not raise the rank)
                closure = [
                    j
                    for j in range(m)
                    if rank(np.vstack([sub, M[j : j + 1, :]]), tol, thr=thr) == k
                ]
            else:
                closure = [j for j in range(m) if np.abs(M[j]).max() <= thr]
            T = tuple(sorted(set(range(m)) - set(closure)))
            if not T or T in seen:
                continue
            thr_c = tol.threshold(np.abs(N).max())
            confined = False
            for cols in ranges:
                outside = [j for j in range(n) if j not in cols]
                if not outside or np.abs(N[outside, :]).max() <= thr_c:
                    confined = True
                    break
            if confined:
                continue
            seen[T] = N
    masks = list(seen)
    minimal = [t for t in masks if not any(set(s) < set(t) for s in masks if s != t)]
    minimal.sort(key=lambda t: (len(t), t))
    return [(tuple(i + 1 for i in t), seen[t]) for t in minimal]


def _stratum_representative(
    M: np.ndarray, blocks: BlockSpec, N: np.ndarray, tol: Tolerance
) -> SubspaceVector:
    """A mixing vector from the stratum's coefficient space."""
    cols = [N[:, j] for j in range(N.shape[1])]

    def touched(c):
        thr_c = tol.threshold(np.abs(c).max())
        return [
            b for b, r in enumerate(blocks.ranges()) if any(np.abs(c[j]) > thr_c for j in r)
        ]

    for c in cols:
        if len(touched(c)) > 1:
            vec = _normalized_vector(M, c, tol)
            if vec is not None:
                return vec
    # every basis vector is pure; two of them live in different blocks
    groups = {}
    for c in cols:
        t = touched(c)
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

    The greedy over minimal-support vectors sorted by (support size, mask,
    pure-before-mixing) is optimal by a matroid exchange argument.  For
    forceMixing, each mixing-minimal support stratum is forced in turn and the
    completion is greedy; per-stratum attainment of the joint optimum is
    assumed (see the note attached to certificates reporting rho-).
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec((M.shape[1],)) if blocks is None else BlockSpec.coerce(blocks)
    if blocks.total != M.shape[1]:
        raise InvalidInput(
            f"block sizes {blocks.sizes} do not cover {M.shape[1]} columns"
        )
    _check_search_size(M)
    _require_full_column_rank(M, tol)
    n = M.shape[1]

    if mode == "unconstrained":
        ground = minimal_supports(M, tol)
        ground.sort(key=lambda v: _sort_key(v, blocks, tol))
        picked = _greedy_complete(ground, n, tol)
        assert picked is not None, "ground set always spans a full-column-rank space"
        return BasisSearchResult(
            mode=mode,
            cost=sum(v.support_size for v in picked),
            vectors=picked,
            mixing_flags=[v.is_mixing(blocks, tol) for v in picked],
        )

    if mode == "blockRespecting":
        vectors: list[SubspaceVector] = []
        for cols in blocks.ranges():
            sub = M[:, cols]
            ground = minimal_supports(sub, tol)
            ground.sort(key=lambda v: (v.support_size, v.mask.members))
            picked = _greedy_complete(ground, len(cols), tol)
            assert picked is not None, "block submatrix keeps full column rank"
            for v in picked:
                coeff = np.zeros(n)
                coeff[cols] = v.coeff_array()
                vectors.append(
                    SubspaceVector(value=v.value, coeff=tuple(coeff), mask=v.mask)
                )
        return BasisSearchResult(
            mode=mode,
            cost=sum(v.support_size for v in vectors),
            vectors=vectors,
            mixing_flags=[False] * len(vectors),
        )

    if mode == "forceMixing":
        if blocks.K < 2:
            raise InvalidInput("forceMixing needs at least two blocks")
        ground = minimal_supports(M, tol)
        ground.sort(key=lambda v: _sort_key(v, blocks, tol))
        best: tuple[int, int, list[SubspaceVector]] | None = None
        strata = _mixing_strata(M, blocks, tol)
        if not strata:
            raise InternalError("no mixing stratum found despite K >= 2")
        for idx, (members, N) in enumerate(strata):
            rep = _stratum_representative(M, blocks, N, tol)
            if set(rep.mask.members) != set(members):
                raise InternalError(
                    f"stratum support {members} not attained by representative "
                    f"{rep.mask.members}"
                )
            picked = _greedy_complete(ground, n, tol, forced=[rep])
            if picked is None:
                continue
            cost = sum(v.support_size for v in picked)
            if best is None or (cost, idx) < (best[0], best[1]):
                best = (cost, idx, picked)
        if best is None:
            raise InternalError("forced-mixing completion failed on every stratum")
        picked = best[2]
        return BasisSearchResult(
            mode=mode,
            cost=best[0],
            vectors=picked,
            mixing_flags=[v.is_mixing(blocks, tol) for v in picked],
        )

    raise InvalidInput(f"unknown mode {mode!r}")


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


def pairwise_sparsity_gap(
    M, blocks: BlockSpec, tol: Tolerance | None = None
) -> list[list[bool]]:
    """K x K table: entry (i, j) is the Type S verdict for the two-block
    submatrix of blocks i and j; the diagonal is vacuously True."""
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    blocks = BlockSpec.coerce(blocks)
    if blocks.K < 2:
        raise InvalidInput("pairwise gaps need at least two blocks")
    if blocks.total != M.shape[1]:
        raise InvalidInput("block sizes do not cover the columns")
    ranges = blocks.ranges()
    K = blocks.K
    table = [[True] * K for _ in range(K)]
    for i in range(K):
        for j in range(i + 1, K):
            sub = M[:, ranges[i] + ranges[j]]
            pair_blocks = BlockSpec((blocks.sizes[i], blocks.sizes[j]))
            verdict = sparsity_gap(sub, pair_blocks, tol).independent
            table[i][j] = verdict
            table[j][i] = verdict
    return table
