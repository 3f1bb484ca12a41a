"""Checkers for the mechanistic independence criteria (Types D, M, S, H_n, O),
irreducibility of single blocks, separability, basis-change side conditions,
the compositional contrast, and the criterion hierarchy audit.

Every checker returns a Certificate whose witness is enough to re-verify the
verdict by hand, and whose digest ties it to the exact input values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import BlockSpec, pairwise_sparsity_gap, request_gap, sparsity_gap
from .certificates import Certificate, inputs_digest
from .core import SupportMask, Tolerance, as_matrix, as_tensor, column_supports, l0_norm, rank
from .errors import (
    DegenerateColumn,
    InternalError,
    InvalidInput,
    RankError,
    ShapeError,
    SizeError,
)
from .graphs import adjacency, adjacency_graph, components, finest_rank_additive_partition

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


def _block_columns(blocks: BlockSpec, block_index: int) -> list[int]:
    """The 0-based columns of the 1-based block block_index."""
    if not 1 <= block_index <= blocks.K:
        raise InvalidInput(f"block index {block_index} outside 1..{blocks.K}")
    return blocks.ranges()[block_index - 1]


def _check_order(n: int):
    if n not in (2, 3):
        raise InvalidInput(f"order must be 2 or 3, got {n}")


def _holds(criterion: str, witness: dict, note: str, digest: str) -> Certificate:
    """A certificate that holds without a search."""
    return Certificate(
        criterion=criterion, holds=True, witness=witness, notes=(note,), inputs_digest=digest
    )


def _cross_pairs(blocks: BlockSpec):
    ranges = blocks.ranges()
    for i in range(blocks.K):
        for j in range(i + 1, blocks.K):
            for a in ranges[i]:
                for b in ranges[j]:
                    yield i, j, a, b


def _first_split(cols):
    """Column 2-partitions (A, B) with cols[0] in A, by size of A, then in
    combinations order."""
    for size in range(1, len(cols)):
        for rest in combinations(cols[1:], size - 1):
            part_a = [cols[0], *rest]
            yield part_a, [c for c in cols if c not in set(part_a)]


def _component_split(cols, adjacent: np.ndarray, kind: str) -> list | None:
    """The first column 2-partition of a block with no edge across it, in
    _first_split's order, as 1-based [A, rest]; None when there is none.

    adjacent is the block's induced graph, a symmetric boolean matrix over
    cols from graphs.adjacency.  A split (A, rest) with cols[0] in A has no
    cross edge iff A is a union of components; the smallest such A is the
    component of cols[0], and the only one of its size.  So the first split
    found by size is that component against the rest, and there is none iff
    the block is connected: O(len(cols)^2) instead of 2^(len(cols)-1) - 1
    splits."""
    first = components(adjacency_graph(kind, adjacent))[0]
    if len(first) == len(cols):
        return None
    part_a = [cols[v - 1] for v in first]
    return [[c + 1 for c in part_a], [c + 1 for c in cols if c not in set(part_a)]]


def _supports_payload(supports: list[SupportMask]) -> list[list[int]]:
    return [list(s.members) for s in supports]


def check_type_d(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type D: cross-block column supports are pairwise disjoint."""
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    supports = column_supports(M, tol)
    witness = {"columnSupports": _supports_payload(supports)}
    if blocks.K == 1:
        return _holds("D", witness, SINGLE_BLOCK_NOTE, digest)
    violations = []
    for _, _, a, b in _cross_pairs(blocks):
        shared = sorted(supports[a].as_set() & supports[b].as_set())
        if shared:
            violations.append({"pair": [a + 1, b + 1], "sharedRows": shared})
    witness["violations"] = violations
    return Certificate(criterion="D", holds=not violations, witness=witness, inputs_digest=digest)


def _row_route_type_m(M: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> bool:
    """Dual Type M route via row supports: for column k, the columns whose
    supports contain supp(col k) are exactly the rows' support intersection
    over supp(col k); Type M holds iff that set never leaves k's own block."""
    thr = tol.matrix_threshold(M)
    m, n = M.shape
    row_sets = [set(np.flatnonzero(np.abs(M[r, :]) > thr)) for r in range(m)]
    ranges = blocks.ranges()
    for k in range(n):
        rows_k = np.flatnonzero(np.abs(M[:, k]) > thr)
        if rows_k.size == 0:
            raise DegenerateColumn(f"column {k + 1} has empty support")
        owners = set(range(n))
        for r in rows_k:
            owners &= row_sets[r]
        own_block = set(ranges[blocks.block_of(k)])
        if not owners <= own_block:
            return False
    return True


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
    for _, _, a, b in _cross_pairs(blocks):
        if nested[a, b]:
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


def check_type_s(
    J, blocks, tol: Tolerance | None = None, gaps: dict | None = None
) -> Certificate:
    """Type S: the sparsity gap rho+ < rho- (block mixing strictly costs);
    gaps as in basis.request_gap."""
    M, blocks, tol = _prepare(J, blocks, tol)
    gap = request_gap(M, blocks, tol, gaps)
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


def check_type_s_pairwise(
    J, blocks, tol: Tolerance | None = None, gaps: dict | None = None
) -> Certificate:
    """Type S restricted to every pair of blocks; the table diagonal is vacuous."""
    M, blocks, tol = _prepare(J, blocks, tol)
    table = pairwise_sparsity_gap(M, blocks, tol, gaps)
    holds = all(table[i][j] for i in range(blocks.K) for j in range(blocks.K))
    return Certificate(
        criterion="S-pairwise",
        holds=holds,
        witness={"table": [[bool(x) for x in row] for row in table]},
        notes=(RHO_MINUS_NOTE,),
        inputs_digest=inputs_digest(M, blocks),
    )


def check_type_o(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type O: cross-block columns are orthogonal (zero inner products)."""
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    if blocks.K == 1:
        return _holds("O", {}, SINGLE_BLOCK_NOTE, digest)
    violations = []
    for _, _, a, b in _cross_pairs(blocks):
        dot = float(M[:, a] @ M[:, b])
        scale = float(np.linalg.norm(M[:, a]) * np.linalg.norm(M[:, b]))
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
    blocks and lets any remaining index range over everything.
    """
    tol = tol or Tolerance.default()
    _check_order(n)
    blocks = BlockSpec.coerce(blocks)
    T = as_tensor(tensor, n, blocks.total)
    digest = inputs_digest(T, blocks, n)
    criterion = f"H{n}"
    if blocks.K == 1:
        return _holds(criterion, {}, "single block: no cross-block slices, holds vacuously", digest)
    thr = tol.threshold(np.abs(T).max())
    ranges = blocks.ranges()
    violations = []
    for i in range(blocks.K):
        for j in range(blocks.K):
            if i == j:
                continue
            sub = T[np.ix_(range(T.shape[0]), ranges[i], ranges[j])]
            flat = np.abs(sub).reshape(sub.shape[0], len(ranges[i]), len(ranges[j]), -1)
            if flat.max() > thr:
                idx = np.unravel_index(int(np.argmax(flat)), flat.shape)
                x, ai, bj, rest = idx
                full_index = [int(x) + 1, ranges[i][ai] + 1, ranges[j][bj] + 1]
                if n == 3:
                    full_index.append(int(rest) + 1)
                violations.append(
                    {
                        "blockPair": [i + 1, j + 1],
                        "index": full_index,
                        "value": float(T[tuple(k - 1 for k in full_index)]),
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
    _check_order(n)
    blocks = BlockSpec.coerce(blocks)
    cols = _block_columns(blocks, block_index)
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
    split = _component_split(cols, within, f"H{n}")
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
    additivity; a zero within-block image fails with a degenerate-block note."""
    tol = tol or Tolerance.default()
    _check_order(n)
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
    top = highers[-1]
    ranges = blocks.ranges()

    def block_image(cols) -> np.ndarray:
        sub = top[np.ix_(range(d_x), cols, cols)]
        return sub.reshape(d_x, -1)

    lower_cols = [J] + [T.reshape(d_x, -1) for T in highers[:-1]]

    details = []
    notes = []
    holds = True
    for k, cols in enumerate(ranges):
        img = block_image(cols)
        comp_parts = [block_image(other) for o, other in enumerate(ranges) if o != k]
        comp_parts += lower_cols
        comp = np.column_stack(comp_parts)
        r_img = rank(img, tol)
        r_comp = rank(comp, tol)
        r_joint = rank(np.column_stack([img, comp]), tol)
        degenerate = r_img == 0
        ok = (not degenerate) and (r_img + r_comp == r_joint)
        if degenerate:
            notes.append(f"degenerate block {k + 1}: zero within-block order-{n} image")
        details.append(
            {
                "block": k + 1,
                "imageRank": int(r_img),
                "competitorRank": int(r_comp),
                "jointRank": int(r_joint),
                "degenerate": bool(degenerate),
            }
        )
        if not ok:
            holds = False
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
    cols = _block_columns(blocks, block_index)
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
    cols = _block_columns(blocks, block_index)
    digest = inputs_digest(M, blocks, block_index)
    supports = column_supports(M, tol)
    empty = [c + 1 for c in cols if len(supports[c]) == 0]
    if empty:
        raise DegenerateColumn(f"zero columns {empty} in block {block_index}")
    if len(cols) == 1:
        return _holds("M-irreducible", {"block": block_index}, ONE_DIMENSIONAL_NOTE, digest)
    nested = adjacency(M, "M", tol.matrix_threshold(M))[np.ix_(cols, cols)]
    witness: dict = {"block": block_index}
    split = _component_split(cols, nested, "M")
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
    block's submatrix Type S independent."""
    M, blocks, tol = _prepare(J, blocks, tol)
    cols = _block_columns(blocks, block_index)
    digest = inputs_digest(M, blocks, block_index)
    if len(cols) == 1:
        return _holds("S-irreducible", {"block": block_index}, ONE_DIMENSIONAL_NOTE, digest)
    for part_a, part_b in _first_split(cols):
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
    the union of the source supports selected by B's column support."""
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
    src_supports = column_supports(Jg, tol)
    tgt_supports = column_supports(Jghat, tol)
    thr_b = tol.matrix_threshold(B)
    mismatches = []
    for k in range(B.shape[1]):
        selected = np.flatnonzero(np.abs(B[:, k]) > thr_b)
        expected: set[int] = set()
        for i in selected:
            expected |= src_supports[i].as_set()
        actual = tgt_supports[k].as_set()
        if expected != actual:
            mismatches.append(
                {
                    "column": k + 1,
                    "expectedUnion": sorted(expected),
                    "actual": sorted(actual),
                }
            )
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
    block-column and the induced map covers all target blocks.
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
    thr = tol.matrix_threshold(B)
    sigma = {}
    violations = []
    for i, rows in enumerate(src_blocks.ranges()):
        loaded = []
        for j, cols in enumerate(tgt_blocks.ranges()):
            if np.abs(B[np.ix_(rows, cols)]).max() > thr:
                loaded.append(j + 1)
        if len(loaded) == 1:
            sigma[i + 1] = loaded[0]
        else:
            violations.append({"blockRow": i + 1, "nonzeroTargetBlocks": loaded})
    missing = sorted(set(range(1, tgt_blocks.K + 1)) - set(sigma.values()))
    if violations or missing:
        witness: dict = {"violations": violations}
        if missing:
            witness["missingTargets"] = missing
        return Certificate(
            criterion="assignment",
            holds=False,
            witness=witness,
            inputs_digest=digest,
        )
    return Certificate(
        criterion="assignment",
        holds=True,
        witness={"sigma": {str(k): v for k, v in sorted(sigma.items())}},
        inputs_digest=digest,
    )


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


def hierarchy_audit(
    J, blocks, hessian=None, tol: Tolerance | None = None, gaps: dict | None = None
) -> Certificate:
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
            gap = request_gap(M, blocks, tol, gaps)
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
