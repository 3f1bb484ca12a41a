"""Checkers for the mechanistic independence criteria (Types D, M, S, H_n, O),
irreducibility of single blocks, separability, basis-change side conditions,
the compositional contrast, and the criterion hierarchy audit.

Every checker returns a Certificate whose witness is enough to re-verify the
verdict by hand, and whose digest ties it to the exact input values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import (
    BlockSpec, _block_bases, _printed, _search_input, pairwise_sparsity_gap, sparsity_gap
)
from .certificates import Certificate, inputs_digest
from .core import Tolerance, as_int, as_matrix, as_tensor, column_supports, l0_norm, rank
from .errors import (
    DegenerateColumn,
    InternalError,
    InvalidInput,
    RankError,
    ShapeError,
    SizeError,
)
from .graphs import _groups, adjacency, finest_rank_additive_partition

RHO_MINUS_NOTE = (
    "rhoMinus from stratified search: every mixing-minimal support stratum is "
    "forced and completed greedily; per-stratum attainment of the joint optimum "
    "is assumed (cross-checked against brute force on desk instances)"
)

CONTRAST_NOTE = (
    "formula follows the compositional contrast of Brady et al. (2023); it is "
    "one surrogate among several and can be driven down by rescaling rows"
)

H_SPLIT_NOTE = (
    "irreducible iff the block's coordinate graph, with an edge wherever a cross "
    "slice is nonzero, is connected; reducible verdicts are sound, irreducible "
    "verdicts are relative to coordinate splits"
)

SINGLE_BLOCK_NOTE = "single block: no cross-block pairs, holds vacuously"

ONE_DIMENSIONAL_NOTE = "one-dimensional blocks are always irreducible"


def _prepare(J, blocks, tol):
    tol = tol or Tolerance.default()
    M = as_matrix(J)
    return M, BlockSpec.covering(blocks, M.shape[1]), tol


def _block_columns(blocks: BlockSpec, block_index) -> tuple[int, list[int]]:
    """The 1-based block index as an int, and the 0-based columns of its block."""
    block_index = as_int(block_index, "block index", -math.inf)
    if not 1 <= block_index <= blocks.K:
        raise InvalidInput(f"block index {block_index} outside 1..{blocks.K}")
    return block_index, blocks.ranges()[block_index - 1]


def _check_order(n) -> int:
    """The derivative order n as an int, 2 or 3."""
    n = as_int(n, "order", -math.inf)
    if n not in (2, 3):
        raise InvalidInput(f"order must be 2 or 3, got {n}")
    return n


def _block_max(A: np.ndarray, rows: BlockSpec, cols: BlockSpec) -> np.ndarray:
    """The largest entry of the 2-D array A in each (row block, column block)
    pair, as a (rows.K, cols.K) array: one maximum.reduceat along each axis."""
    A = np.maximum.reduceat(A, np.cumsum((0, *rows.sizes[:-1])), axis=0)
    return np.maximum.reduceat(A, np.cumsum((0, *cols.sizes[:-1])), axis=1)


def _holds(criterion: str, witness: dict, note: str, digest: str) -> Certificate:
    """A certificate that holds without a search."""
    return Certificate(
        criterion=criterion, holds=True, witness=witness, notes=(note,), inputs_digest=digest
    )


def _cross_hits(blocks: BlockSpec, mask: np.ndarray) -> list:
    """The column pairs (a, b) in different blocks, a < b, where the (n, n)
    boolean mask holds, ordered by block of a, block of b, a, b: a stable
    sort by blocks of the pairs in row-major order."""
    block = np.repeat(np.arange(blocks.K), blocks.sizes)
    a, b = np.nonzero(mask & (block[:, None] < block))
    owner = block.tolist()
    return sorted(zip(a.tolist(), b.tolist()), key=lambda p: (owner[p[0]], owner[p[1]]))


def _first_split(cols):
    """Column 2-partitions (A, B) with cols[0] in A, by size of A, then in
    combinations order."""
    for size in range(1, len(cols)):
        for rest in combinations(cols[1:], size - 1):
            part_a = [cols[0], *rest]
            yield part_a, [c for c in cols if c not in set(part_a)]


def _component_split(cols, adjacent: np.ndarray) -> list | None:
    """The first column 2-partition of a block with no edge across it, in
    _first_split's order, as 1-based [A, rest]; None when there is none.

    adjacent is the block's induced graph, a symmetric boolean matrix over
    cols from graphs.adjacency.  A split (A, rest) with cols[0] in A has no
    cross edge iff A is a union of components; the smallest such A is the
    component of cols[0], and the only one of its size.  So the first split
    found by size is that component against the rest, and there is none iff
    the block is connected: O(len(cols)^2) instead of 2^(len(cols)-1) - 1
    splits."""
    first = _groups(len(adjacent), np.argwhere(np.triu(adjacent, 1)))[0]
    if len(first) == len(cols):
        return None
    part_a = [cols[v - 1] for v in first]
    return [[c + 1 for c in part_a], [c + 1 for c in cols if c not in set(part_a)]]


def _supports_payload(supports) -> list[list[int]]:
    return [list(s.members) for s in supports]


def check_type_d(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type D: cross-block column supports are pairwise disjoint.  The pairs
    that share a row come from one boolean product (graphs.adjacency's D
    rule), in _cross_hits order."""
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    supports = column_supports(M, tol)
    witness = {"columnSupports": _supports_payload(supports)}
    if blocks.K == 1:
        return _holds("D", witness, SINGLE_BLOCK_NOTE, digest)
    shared = adjacency(M, "D", tol.matrix_threshold(M))
    violations = [
        {"pair": [a + 1, b + 1], "sharedRows": sorted(supports[a].as_set() & supports[b].as_set())}
        for a, b in _cross_hits(blocks, shared)
    ]
    witness["violations"] = violations
    return Certificate(criterion="D", holds=not violations, witness=witness, inputs_digest=digest)


def _row_route_type_m(M: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> bool:
    """Dual Type M route via row supports: for column k, the columns whose
    supports contain supp(col k) are exactly the rows' support intersection
    over supp(col k); Type M holds iff that set never leaves k's own block.
    One reduce over the rows: column c owns k iff every row in supp(k) is in
    supp(c).  check_type_m has refused zero columns before it runs."""
    S = np.abs(M) > tol.matrix_threshold(M)
    owns = (S[:, :, None] | ~S[:, None, :]).all(axis=0)  # owns[c, k]
    block = np.repeat(np.arange(blocks.K), blocks.sizes)
    return not (owns & (block[:, None] != block)).any()


def check_type_m(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type M: every cross-block column pair is mutually non-included.

    Decided twice: by the M rule of graphs.adjacency (a pitchfork test) on
    every cross-block pair and by the row-support intersection route; the
    two verdicts are asserted equal.
    """
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    supports = column_supports(M, tol)
    empty = [j + 1 for j, s in enumerate(supports) if len(s) == 0]
    if empty:
        raise DegenerateColumn(
            f"zero columns {empty}: empty support is contained in everything"
        )
    nested = adjacency(M, "M", tol.matrix_threshold(M))
    violations = []
    for a, b in _cross_hits(blocks, nested):
        sa, sb = supports[a].as_set(), supports[b].as_set()
        direction = "left-in-right" if sa <= sb else "right-in-left"
        if sa == sb:
            direction = "equal"
        violations.append(
            {
                "pair": [a + 1, b + 1],
                "direction": direction,
                "supports": [sorted(sa), sorted(sb)],
            }
        )
    holds = not violations
    row_route = _row_route_type_m(M, blocks, tol)
    if row_route != holds:
        raise InternalError(
            f"pitchfork route says {holds}, row-intersection route says {row_route}"
        )
    witness: dict = {"columnSupports": _supports_payload(supports)}
    if violations:
        witness["firstViolation"] = violations[0]
        witness["violations"] = violations
    return Certificate(
        criterion="M",
        holds=holds,
        witness=witness,
        notes=("row-support intersection route concurs",),
        inputs_digest=digest,
    )


def _basis_payload(result) -> dict:
    return {
        "cost": result.cost,
        "vectors": [
            {
                "support": list(v.mask.members),
                "value": [round(float(x), 12) + 0.0 for x in v.value],
                "coeff": [round(float(x), 12) + 0.0 for x in v.coeff],
                "mixing": bool(flag),
            }
            for v, flag in zip(result.vectors, result.mixing_flags)
        ],
    }


def check_type_s(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type S: the sparsity gap rho+ < rho- (block mixing strictly costs)."""
    M, blocks, tol = _prepare(J, blocks, tol)
    gap = sparsity_gap(M, blocks, tol)
    return Certificate(
        criterion="S",
        holds=gap.independent,
        witness={
            "rhoPlus": gap.rho_plus,
            "rhoMinus": gap.rho_minus,
            "respectingBasis": _basis_payload(gap.respecting),
            "mixingBasis": _basis_payload(gap.mixing),
        },
        notes=(RHO_MINUS_NOTE,),
        inputs_digest=inputs_digest(M, blocks),
    )


def check_type_s_pairwise(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type S restricted to every pair of blocks; the table diagonal is vacuous."""
    M, blocks, tol = _prepare(J, blocks, tol)
    table = pairwise_sparsity_gap(M, blocks, tol)
    holds = all(table[i][j] for i in range(blocks.K) for j in range(blocks.K))
    return Certificate(
        criterion="S-pairwise",
        holds=holds,
        witness={"table": [[bool(x) for x in row] for row in table]},
        notes=(RHO_MINUS_NOTE,),
        inputs_digest=inputs_digest(M, blocks),
    )


def check_type_o(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type O: cross-block columns are orthogonal (zero inner products).

    Pair (a, b) violates it iff |dot| exceeds the threshold of |a| |b|, dot
    and norms computed per pair.  The norms are computed once per column,
    and one Gram matrix screens the pairs first: its entries differ from the
    per-pair dots by rounding alone, by at most 2 m eps |a| |b| plus m
    subnormals for m rows.  So a pair whose Gram entry is at most half its
    threshold less m (4 eps |a| |b| + one subnormal) cannot violate; the
    rest are decided per pair, in _cross_hits order."""
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    if blocks.K == 1:
        return _holds("O", {}, SINGLE_BLOCK_NOTE, digest)
    norm = np.array([np.linalg.norm(M[:, c]) for c in range(M.shape[1])])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.outer(norm, norm)
        slack = len(M) * (4 * np.finfo(float).eps * scale + np.finfo(float).smallest_subnormal)
        # einsum's own loop: a BLAS product allocates 0.66 MB on its first call
        gram = np.abs(np.einsum("ij,ik->jk", M, M))
        near = ~(gram <= np.maximum(tol.abs, tol.rel * scale) / 2 - slack)
    violations = []
    for a, b in _cross_hits(blocks, near):
        dot = float(M[:, a] @ M[:, b])
        scale = float(norm[a] * norm[b])
        if abs(dot) > tol.threshold(scale):
            violations.append({"pair": [a + 1, b + 1], "innerProduct": dot})
    return Certificate(
        criterion="O",
        holds=not violations,
        witness={"violations": violations},
        inputs_digest=digest,
    )


def check_type_h(tensor, blocks, n: int = 2, tol: Tolerance | None = None) -> Certificate:
    """Type H_n: all order-n cross-block derivative slices vanish (n in {2, 3}).

    A cross slice fixes the first two derivative indices in two different
    blocks and lets any remaining index range over everything.  |T| is
    reduced once to each coordinate pair's largest slice entry (the max
    graphs.adjacency takes for H) and then to each ordered block pair's
    (_block_max); only the pairs above the threshold are searched, for the
    first largest entry of their sub-tensor in C order, the witness."""
    tol = tol or Tolerance.default()
    n = _check_order(n)
    blocks = BlockSpec.coerce(blocks)
    T = as_tensor(tensor, n, blocks.total)
    digest = inputs_digest(T, blocks, n)
    criterion = f"H{n}"
    if blocks.K == 1:
        return _holds(criterion, {}, "single block: no cross-block slices, holds vacuously", digest)
    A = np.abs(T)
    thr = tol.threshold(A.max())
    pair_max = _block_max(A.max(axis=(0, *range(3, n + 1))), blocks, blocks)
    cut = np.cumsum((0, *blocks.sizes))
    violations = []
    for i, j in np.argwhere((pair_max > thr) & ~np.eye(blocks.K, dtype=bool)).tolist():
        sub = A[:, cut[i] : cut[i + 1], cut[j] : cut[j + 1]]
        index = np.add(np.unravel_index(np.argmax(sub), sub.shape), (0, cut[i], cut[j], 0)[: n + 1])
        violations.append(
            {
                "blockPair": [i + 1, j + 1],
                "index": (index + 1).tolist(),
                "value": float(T[tuple(index)]),
            }
        )
    return Certificate(
        criterion=criterion,
        holds=not violations,
        witness={"violations": violations},
        inputs_digest=digest,
    )


def check_type_h_irreducible(
    tensor, blocks, block_index: int, n: int = 2, tol: Tolerance | None = None
) -> Certificate:
    """H_n irreducibility of one block: the within-block derivative is nonzero
    and no coordinate 2-partition of the block zeroes all cross slices.

    Coordinates of the block are adjacent by the H rule of graphs.adjacency.
    A zeroing split exists iff the graph induced on the block is
    disconnected; the witness is the component of the block's first
    coordinate against the rest."""
    tol = tol or Tolerance.default()
    n = _check_order(n)
    blocks = BlockSpec.coerce(blocks)
    block_index, cols = _block_columns(blocks, block_index)
    T = as_tensor(tensor, n, blocks.total)
    digest = inputs_digest(T, blocks, n, block_index)
    criterion = f"H{n}-irreducible"
    thr = tol.threshold(np.abs(T).max())
    within = adjacency(T, f"H{n}", thr)[np.ix_(cols, cols)]
    if not within.any():
        return Certificate(
            criterion=criterion,
            holds=False,
            witness={"reason": "zeroWithinBlockDerivative", "block": block_index},
            notes=(H_SPLIT_NOTE,),
            inputs_digest=digest,
        )
    witness: dict = {"block": block_index}
    split = _component_split(cols, within)
    if split:
        witness["split"] = split
    return Certificate(
        criterion=criterion,
        holds=split is None,
        witness=witness,
        notes=(H_SPLIT_NOTE,),
        inputs_digest=digest,
    )


def check_separability(
    tensors, blocks, n: int = 2, tol: Tolerance | None = None
) -> Certificate:
    """Order-n separability at a point: each block's within-block order-n image
    must intersect the span of the other blocks' within-block images together
    with all lower-order derivative images only at zero, decided by rank
    additivity; a zero within-block image fails with a degenerate-block note.
    The K block images are gathered once; block k's competitors are the
    others' images and the lower-order images, column-stacked in that order."""
    tol = tol or Tolerance.default()
    n = _check_order(n)
    blocks = BlockSpec.coerce(blocks)
    if len(tensors) != n:
        raise InvalidInput(f"need derivative tensors of orders 1..{n}, got {len(tensors)}")
    d_s = blocks.total
    J = as_matrix(tensors[0])
    if J.shape[1] != d_s:
        raise ShapeError(f"first-order tensor has {J.shape[1]} columns, blocks need {d_s}")
    highers = [as_tensor(tensors[k - 1], k, d_s) for k in range(2, n + 1)]
    d_x = J.shape[0]
    for T in highers:
        if T.shape[0] != d_x:
            raise ShapeError("output dimension differs across derivative orders")
    cut = np.cumsum((0, *blocks.sizes))
    images = [highers[-1][:, a:b, a:b].reshape(d_x, -1) for a, b in zip(cut, cut[1:])]
    lower_cols = [J] + [T.reshape(d_x, -1) for T in highers[:-1]]

    details, notes, holds = [], [], True
    for k, img in enumerate(images):
        comp = np.column_stack(images[:k] + images[k + 1 :] + lower_cols)
        r_img, r_comp = rank(img, tol), rank(comp, tol)
        r_joint = rank(np.column_stack([img, comp]), tol)
        if r_img == 0:
            notes.append(f"degenerate block {k + 1}: zero within-block order-{n} image")
        holds = holds and r_img > 0 and r_img + r_comp == r_joint
        details.append(
            {
                "block": k + 1,
                "imageRank": r_img,
                "competitorRank": r_comp,
                "jointRank": r_joint,
                "degenerate": r_img == 0,
            }
        )
    return Certificate(
        criterion="separability",
        holds=holds,
        witness={"blocks": details},
        notes=tuple(notes),
        inputs_digest=inputs_digest(*(np.asarray(t, dtype=float) for t in tensors), blocks, n),
    )


def check_type_d_irreducible(
    J, blocks, block_index: int, tol: Tolerance | None = None
) -> Certificate:
    """D-irreducibility of one block: its column submatrix admits no
    rank-additive row 2-partition (no invertible within-block reparametrization
    can split its rows into independent mechanisms), i.e. the finest such
    partition has one group.  Otherwise every union of its c > 1 groups that
    omits the first is one side of a 2-partition, 2^(c-1) - 1 in all, and the
    witness reports the first group against the rest."""
    M, blocks, tol = _prepare(J, blocks, tol)
    block_index, cols = _block_columns(blocks, block_index)
    sub = M[:, cols]
    digest = inputs_digest(M, blocks, block_index)
    if np.abs(sub).max() <= tol.matrix_threshold(M):
        raise DegenerateColumn(f"block {block_index} is entirely zero")
    if len(cols) == 1:
        note = "one-dimensional block with nonzero column is always irreducible"
        return _holds("D-irreducible", {"block": block_index}, note, digest)
    groups = finest_rank_additive_partition(sub, tol).groups
    if len(groups) > 1:
        return Certificate(
            criterion="D-irreducible",
            holds=False,
            witness={
                "block": block_index,
                "rowSplit": [list(groups[0]), sorted(r for g in groups[1:] for r in g)],
                "splitCount": 2 ** (len(groups) - 1) - 1,
            },
            inputs_digest=digest,
        )
    return Certificate(
        criterion="D-irreducible",
        holds=True,
        witness={"block": block_index},
        inputs_digest=digest,
    )


def check_type_m_irreducible(
    J, blocks, block_index: int, tol: Tolerance | None = None
) -> Certificate:
    """M-irreducibility of one block: no 2-partition of its columns has every
    cross pair mutually non-included.

    Columns of the block are adjacent by the M rule of graphs.adjacency: one
    support contains the other.  A split exists iff this graph, induced on
    the block alone, is disconnected; the witness is the component of the
    block's first column against the rest.  Zero columns outside the block
    play no part."""
    M, blocks, tol = _prepare(J, blocks, tol)
    block_index, cols = _block_columns(blocks, block_index)
    digest = inputs_digest(M, blocks, block_index)
    supports = column_supports(M, tol)
    empty = [c + 1 for c in cols if len(supports[c]) == 0]
    if empty:
        raise DegenerateColumn(f"zero columns {empty} in block {block_index}")
    if len(cols) == 1:
        return _holds("M-irreducible", {"block": block_index}, ONE_DIMENSIONAL_NOTE, digest)
    nested = adjacency(M, "M", tol.matrix_threshold(M))[np.ix_(cols, cols)]
    witness: dict = {"block": block_index}
    split = _component_split(cols, nested)
    if split:
        witness["split"] = split
    return Certificate(
        criterion="M-irreducible",
        holds=split is None,
        witness=witness,
        inputs_digest=digest,
    )


def check_type_s_irreducible(
    J, blocks, block_index: int, tol: Tolerance | None = None
) -> Certificate:
    """S-irreducibility of one block: no 2-partition of its columns makes the
    block's submatrix Type S independent, rho+ < rho-.

    Reordering the block's columns only permutes coefficients, so the greedy
    optimum B* over the block's ground set (_block_bases) is a cheapest
    basis under every split: w(B*) <= rho+.  When a B* vector's _printed
    coefficients touch both sides of a split, B* also mixes, rho- <= w(B*),
    and the split is not independent.  Only the other splits run a sparsity
    gap, in _first_split's order.  The block is checked first
    (_search_input), as the first split's gap would check it."""
    M, blocks, tol = _prepare(J, blocks, tol)
    block_index, cols = _block_columns(blocks, block_index)
    digest = inputs_digest(M, blocks, block_index)
    if len(cols) == 1:
        return _holds("S-irreducible", {"block": block_index}, ONE_DIMENSIONAL_NOTE, digest)
    block = _search_input(M[:, cols], None, tol).M
    touched = _printed(_block_bases([block], tol)[0].coeffs, 1, tol)  # B*'s coefficient supports
    for part_a, part_b in _first_split(cols):
        side = np.isin(cols, part_a)
        if (touched[:, side].any(axis=1) & touched[:, ~side].any(axis=1)).any():
            continue
        arranged = M[:, part_a + part_b]
        gap = sparsity_gap(arranged, BlockSpec((len(part_a), len(part_b))), tol)
        if gap.independent:
            return Certificate(
                criterion="S-irreducible",
                holds=False,
                witness={
                    "block": block_index,
                    "split": [[c + 1 for c in part_a], [c + 1 for c in part_b]],
                    "rhoPlus": gap.rho_plus,
                    "rhoMinus": gap.rho_minus,
                },
                notes=(RHO_MINUS_NOTE,),
                inputs_digest=digest,
            )
    return Certificate(
        criterion="S-irreducible",
        holds=True,
        witness={"block": block_index},
        notes=(RHO_MINUS_NOTE,),
        inputs_digest=digest,
    )


def check_support_union(Jg, Jghat, B, tol: Tolerance | None = None) -> Certificate:
    """After a basis change Jghat = Jg B, each target column's support must be
    the union of the source supports selected by B's column support.  Every
    matrix's supports are its entries above its own matrix_threshold, as
    column_supports classifies them, and all the expected unions are one
    boolean product: the source supports times B's selected entries."""
    tol = tol or Tolerance.default()
    Jg = as_matrix(Jg)
    Jghat = as_matrix(Jghat)
    B = as_matrix(B)
    if B.shape[0] != B.shape[1]:
        raise InvalidInput(f"B must be square, got {B.shape}")
    if Jg.shape[1] != B.shape[0] or Jghat.shape != (Jg.shape[0], B.shape[1]):
        raise ShapeError(
            f"shapes do not compose: Jg {Jg.shape}, B {B.shape}, Jghat {Jghat.shape}"
        )
    if rank(B, tol) < B.shape[0]:
        raise RankError("B must be invertible")
    product = Jg @ B
    scale = max(np.abs(product).max(), np.abs(Jghat).max())
    if np.abs(product - Jghat).max() > tol.threshold(scale):
        raise InvalidInput("Jghat does not equal Jg x B within tolerance")
    digest = inputs_digest(Jg, Jghat, B)
    source, selected, actual = (np.abs(X) > tol.matrix_threshold(X) for X in (Jg, B, Jghat))
    expected = source @ selected
    rows = np.arange(1, Jg.shape[0] + 1)
    mismatches = [
        {
            "column": k + 1,
            "expectedUnion": rows[expected[:, k]].tolist(),
            "actual": rows[actual[:, k]].tolist(),
        }
        for k in np.flatnonzero((expected != actual).any(axis=0)).tolist()
    ]
    return Certificate(
        criterion="supportUnion",
        holds=not mismatches,
        witness={"mismatches": mismatches},
        inputs_digest=digest,
    )


def check_l0_nonincrease(Jg, Jghat, tol: Tolerance | None = None) -> Certificate:
    """The basis change must not densify the Jacobian: |Jghat|_0 <= |Jg|_0."""
    tol = tol or Tolerance.default()
    Jg = as_matrix(Jg)
    Jghat = as_matrix(Jghat)
    if Jg.shape != Jghat.shape:
        raise ShapeError(f"shape mismatch: {Jg.shape} vs {Jghat.shape}")
    a = l0_norm(Jg, tol)
    b = l0_norm(Jghat, tol)
    return Certificate(
        criterion="l0NonIncrease",
        holds=b <= a,
        witness={"source": a, "target": b},
        inputs_digest=inputs_digest(Jg, Jghat),
    )


@dataclass(frozen=True)
class Assignment:
    """A surjection from source blocks onto target blocks (1-based)."""

    sigma: dict

    @classmethod
    def from_certificate(cls, cert: Certificate) -> "Assignment | None":
        if not cert.holds or "sigma" not in cert.witness:
            return None
        return cls(sigma={int(k): int(v) for k, v in cert.witness["sigma"].items()})


def extract_assignment(
    B, src_blocks, tgt_blocks, tol: Tolerance | None = None
) -> Certificate:
    """Read the block permutation off an invertible basis-change matrix.

    Succeeds when every source block-row of B loads exactly one target
    block-column and the induced map covers all target blocks.  The loaded
    blocks are read off one table: the largest |B| entry of every (source,
    target) block pair, from _block_max, against B's threshold.
    """
    tol = tol or Tolerance.default()
    B = as_matrix(B)
    if B.shape[0] != B.shape[1]:
        raise InvalidInput(f"B must be square, got {B.shape}")
    src_blocks = BlockSpec.coerce(src_blocks)
    tgt_blocks = BlockSpec.coerce(tgt_blocks)
    if src_blocks.total != B.shape[0] or tgt_blocks.total != B.shape[1]:
        raise InvalidInput(
            f"blocks {src_blocks.sizes}/{tgt_blocks.sizes} do not cover B {B.shape}"
        )
    if rank(B, tol) < B.shape[0]:
        raise RankError("B must be invertible")
    digest = inputs_digest(B, src_blocks, tgt_blocks)
    loaded = _block_max(np.abs(B), src_blocks, tgt_blocks) > tol.matrix_threshold(B)
    targets = [(np.flatnonzero(row) + 1).tolist() for row in loaded]
    sigma = {str(i + 1): t[0] for i, t in enumerate(targets) if len(t) == 1}
    violations = [
        {"blockRow": i + 1, "nonzeroTargetBlocks": t} for i, t in enumerate(targets) if len(t) != 1
    ]
    missing = sorted(set(range(1, tgt_blocks.K + 1)) - set(sigma.values()))
    holds = not violations and not missing
    witness: dict = {"sigma": sigma} if holds else {"violations": violations}
    if missing:
        witness["missingTargets"] = missing
    return Certificate(criterion="assignment", holds=holds, witness=witness, inputs_digest=digest)


def compositional_contrast(J, blocks) -> float:
    """Sum over rows of the products of cross-block row-segment norms; zero
    exactly when no row loads two different blocks."""
    M = as_matrix(J)
    blocks = BlockSpec.covering(blocks, M.shape[1])
    norms = [np.linalg.norm(M[:, cols], axis=1) for cols in blocks.ranges()]
    total = 0.0
    for i in range(blocks.K):
        for j in range(i + 1, blocks.K):
            total += float(np.sum(norms[i] * norms[j]))
    return total


def contrast_certificate(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Certificate wrapper: holds iff the contrast is zero at tolerance."""
    M, blocks, tol = _prepare(J, blocks, tol)
    value = compositional_contrast(M, blocks)
    scale = float(np.abs(M).max()) ** 2 * M.shape[0]
    return Certificate(
        criterion="contrast",
        holds=value <= tol.threshold(scale),
        witness={"value": value},
        notes=(CONTRAST_NOTE,),
        inputs_digest=inputs_digest(M, blocks),
    )


def hierarchy_audit(J, blocks, hessian=None, tol: Tolerance | None = None) -> Certificate:
    """Check the implication arrows among the criteria on one instance:
    D=>M, D=>S, D=>H2 (when a Hessian is supplied), and S=>M evaluated in the
    sparsest block-respecting basis.  Violations are reported in the witness,
    never raised: a violation would indicate a broken checker, not bad input.
    """
    M, blocks, tol = _prepare(J, blocks, tol)
    verdicts: dict = {}
    skipped: list[str] = []

    verdicts["D"] = check_type_d(M, blocks, tol).holds

    try:
        verdicts["M"] = check_type_m(M, blocks, tol).holds
    except DegenerateColumn as exc:
        verdicts["M"] = None
        skipped.append(f"M: {exc}")

    gap = None
    if blocks.K >= 2:
        try:
            gap = sparsity_gap(M, blocks, tol)
            verdicts["S"] = gap.independent
        except (SizeError, RankError) as exc:
            verdicts["S"] = None
            skipped.append(f"S: {exc}")
    else:
        verdicts["S"] = None
        skipped.append("S: needs at least two blocks")

    if hessian is not None:
        verdicts["H2"] = check_type_h(hessian, blocks, 2, tol).holds
    else:
        verdicts["H2"] = None
        skipped.append("H2: no Hessian supplied")

    violations = []
    if verdicts["D"]:
        if verdicts["M"] is False:
            violations.append("D=>M")
        if verdicts["S"] is False:
            violations.append("D=>S")
        if verdicts["H2"] is False:
            violations.append("D=>H2")

    verdicts["MInSparsestBasis"] = None
    if gap is not None and verdicts["S"]:
        rebuilt = np.column_stack([v.value_array() for v in gap.respecting.vectors])
        m_in_basis = check_type_m(rebuilt, blocks, tol).holds
        verdicts["MInSparsestBasis"] = m_in_basis
        if not m_in_basis:
            violations.append("S=>M(sparsestBasis)")

    notes = []
    if skipped:
        notes.append("skipped: " + "; ".join(skipped))
    if gap is not None:
        notes.append(RHO_MINUS_NOTE)
    return Certificate(
        criterion="hierarchy",
        holds=not violations,
        witness={"verdicts": verdicts, "violations": violations},
        notes=tuple(notes),
        inputs_digest=inputs_digest(M, blocks),
    )
