"""Factor graphs over Jacobian columns, their components, rank-additive row
partitions, and the four-way block-structure audit.

The block-structure audit cross-checks independent characterizations of the
maximal number of diagonal blocks obtainable from a matrix by invertible column
operations: the finest rank-additive row partition, an explicitly constructed
block-diagonalizing basis, the component count of the disjointness graph in
that basis, and a randomized sweep that can only under-count.  Disagreement is
a bug by construction and raises InternalError.  The partition is the row
matroid's components, joined from the fundamental circuits that one
Gauss-Jordan elimination of the matrix's transpose yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CHUNK, MAX_COLS, MAX_ROWS, BlockSpec, _printed
from .certificates import Certificate, inputs_digest
from .core import Tolerance, as_int, as_matrix, as_tensor, null_space_many, rank, rank_many
from .errors import DegenerateColumn, GenerationError, InternalError, InvalidInput, RankError
from .topology import _roots


@dataclass(frozen=True)
class FactorGraph:
    """Undirected graph on 1-based column (or coordinate) indices."""

    kind: str  # "D" | "M" | "H2", or "H3" for a block's order-3 graph
    n: int
    edges: frozenset  # of (i, j) pairs with i < j


@dataclass(frozen=True)
class RowPartition:
    """Disjoint 1-based row groups covering the rows, sorted by smallest member."""

    groups: tuple[tuple[int, ...], ...]


def adjacency(X: np.ndarray, kind: str, thr: float) -> np.ndarray:
    """The edge rule of a graph kind, as a boolean adjacency matrix with its
    diagonal: for kind "D" two columns of the matrix X are adjacent iff their
    supports, the entries above thr, share a row; for "M" iff one support
    contains the other (not a pitchfork).  For "H2" or "H3", X is a
    derivative tensor (d_x, n, n, ...) and coordinates a and b are adjacent
    iff the slice X[:, a, b, ...] or X[:, b, a, ...] has an entry above thr,
    the trailing indices ranging over every coordinate.

    The products are boolean (or of ands), which numpy computes without
    BLAS; a float product of a few hundred rows starts BLAS threads, which
    made a 275x40 D graph take 8 ms instead of 0.06 ms on a 2-core Xeon."""
    if kind not in ("D", "M"):
        W = np.abs(X).max(axis=(0, *range(3, X.ndim)), initial=0.0)
        return np.maximum(W, W.T) > thr
    S = np.abs(X) > thr
    if kind == "D":
        return S.T @ S
    inside = ~(S.T @ ~S)  # a's support lies inside b's iff no row is in a's and not in b's
    return inside | inside.T


def adjacency_graph(kind: str, adjacent: np.ndarray) -> FactorGraph:
    """The graph of a symmetric boolean adjacency matrix, on 1-based vertices."""
    a, b = np.nonzero(np.triu(adjacent, 1))
    edges = frozenset(zip((a + 1).tolist(), (b + 1).tolist()))
    return FactorGraph(kind=kind, n=len(adjacent), edges=edges)


def build_graph(obj, kind: str = "D", tol: Tolerance | None = None) -> FactorGraph:
    """Disjointness graph (kind "D"), non-pitchfork graph (kind "M") or
    cross-Hessian graph (kind "H2") on the latent coordinates, by the edge
    rules of adjacency."""
    tol = tol or Tolerance.default()
    if kind in ("D", "M"):
        M = as_matrix(obj)
        thr = tol.matrix_threshold(M)
        if kind == "M":
            empty = np.flatnonzero(~(np.abs(M) > thr).any(axis=0)) + 1
            if empty.size:
                raise DegenerateColumn(f"zero columns {empty.tolist()} break pitchfork semantics")
        return adjacency_graph(kind, adjacency(M, kind, thr))
    if kind == "H2":
        T = as_tensor(obj, 2)
        thr = tol.threshold(np.abs(T).max())
        return adjacency_graph(kind, adjacency(T, kind, thr))
    raise InvalidInput(f"unknown graph kind {kind!r}")


def _groups(n: int, pairs) -> list[tuple[int, ...]]:
    """The groups of vertices 0..n-1 that the 0-based index pairs join, as
    sorted 1-based tuples ordered by smallest member: all pairs are hooked
    in one union-find (topology._roots), whose root of a vertex is the
    smallest vertex of its group."""
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(_roots(n, [(pairs[:, 0], pairs[:, 1])]).tolist(), start=1):
        groups.setdefault(root, []).append(v)
    return [tuple(g) for g in groups.values()]


def components(g: FactorGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest
    vertex: the groups (_groups) the edges join."""
    return _groups(g.n, [(a - 1, b - 1) for a, b in g.edges])


def to_dot(g: FactorGraph, name: str = "factors") -> str:
    """DOT text with one subgraph cluster per connected component."""
    lines = [f"graph {name} {{"]
    lines.append(f'  label="{g.kind} graph";')
    for ci, comp in enumerate(components(g)):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci + 1}";')
        for v in comp:
            lines.append(f'    v{v} [label="{v}"];')
        for a, b in sorted(g.edges):
            if a in comp:
                lines.append(f"    v{a} -- v{b};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def finest_rank_additive_partition(M, tol: Tolerance | None = None) -> RowPartition:
    """The unique finest rank-additive row partition (zero rows in group one).

    Its groups are the connected components of the row matroid of M, which
    the fundamental circuits of one row basis connect (Krogdahl 1977; Oxley,
    Matroid Theory, ch. 4).  One Gauss-Jordan elimination of the nonzero
    rows' transpose, at M's threshold (null_space_many), takes its pivot
    columns as the greedy basis of those rows, in row order.  The null basis
    column of each spanned row e holds 1 in e's own row and e's coordinates
    over the basis in the pivot rows, so e's fundamental circuit is e and
    the column's _printed support, the rule reports use for supports.  The
    circuits are grouped at the end (_groups).  Zero rows are loops: each
    joins the first nonzero row (row one when every row is zero), so they
    land in group one.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    thr = tol.matrix_threshold(M)
    zero = np.abs(M).max(axis=1) <= thr
    nz, loops = np.flatnonzero(~zero), np.flatnonzero(zero)
    pairs = np.column_stack([np.full_like(loops, nz[0] if nz.size else 0), loops])
    if nz.size:
        (N,), free = null_space_many(M[nz].T[None], thr, with_free=True)
        rows, cols = np.nonzero(_printed(N, 0, tol))
        pairs = np.vstack([pairs, np.column_stack([nz[rows], nz[free[0]][cols]])])
    return RowPartition(tuple(_groups(M.shape[0], pairs)))


def component_counts(stack, thr) -> np.ndarray:
    """Component counts of the disjointness graphs of every slice of a
    (B, m, n) stack, each equal to len(components(build_graph(stack[b], "D")))
    when thr[b] is that slice's matrix threshold (scalar or one per slice).

    Two columns are adjacent iff their supports share a row.  Adjacency plus
    the identity, squared ceil(log2 n) times as a boolean matrix, is
    reachability; a column is its component's representative iff it is the
    first column it reaches.  The products are float: on stacks of small
    slices numpy's float matmul is about ten times as fast as its boolean
    one.
    """
    S = (np.abs(stack) > np.asarray(thr, dtype=float)[..., None, None]).astype(float)
    n = S.shape[2]
    reach = (S.transpose(0, 2, 1) @ S > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        walk = reach.astype(float)
        reach = walk @ walk > 0
    return np.count_nonzero(reach.argmax(axis=2) == np.arange(n), axis=1)


def _sampled_counts(M: np.ndarray, F: int, tol: Tolerance, draws: int, seed: int) -> np.ndarray:
    """Route d of the audit: the D-graph component counts of M R for the
    first `draws` invertible R of the seeded standard-normal stream, in order.

    Each chunk of draws comes from one standard_normal call, the same stream
    as one (n, n) draw after another.  A chunk holds as many draws as keep
    its products M R within the searches' bound of CHUNK * MAX_ROWS *
    MAX_COLS entries (0.16 MB), and never fewer than CHUNK; it is ranked by
    one rank_many call and counted by one component_counts call.  A singular
    draw is skipped, as a redraw; 101 singular draws in a row, counted across
    chunks, raise GenerationError.  Errors come in stream order: a non-finite M R
    (a finite M too large to mix, InvalidInput), a count above F
    (InternalError), then a failed redraw.
    """
    n = M.shape[1]
    chunk = max(CHUNK, CHUNK * MAX_ROWS * MAX_COLS // M.size)
    rng = np.random.default_rng(seed)
    found = [np.zeros(0, dtype=np.intp)]
    done = singular = 0  # singular: draws since the last invertible one
    while done < draws:
        Rs = rng.standard_normal((min(chunk, draws - done), n, n))
        ok = rank_many(Rs, tol.stack_thresholds(Rs)) == n
        at = np.arange(len(Rs))
        run = at - np.maximum.accumulate(np.where(ok, at, -1 - singular))
        failed = np.flatnonzero(run > 100)
        kept = np.flatnonzero(ok[: failed[0] if failed.size else len(Rs)])
        with np.errstate(over="ignore"):  # reported below as InvalidInput
            Cs = M @ Rs[kept]
        counts = component_counts(Cs, tol.stack_thresholds(Cs))
        finite = np.isfinite(Cs).all(axis=(1, 2))
        bad = np.flatnonzero(~finite | (counts > F))
        if bad.size:
            d = bad[0]
            if not finite[d]:
                raise InvalidInput(
                    "random mixing M R overflowed to non-finite entries; "
                    "the matrix is too large in scale to mix, rescale it"
                )
            raise InternalError(
                f"sampled mixing produced {counts[d]} components, exceeding the maximum {F}"
            )
        if failed.size:
            raise GenerationError("could not draw an invertible mixing")
        found.append(counts)
        done += kept.size
        singular = int(run[-1])
    return np.concatenate(found)


def _stacked_rows(M: np.ndarray, take: np.ndarray) -> np.ndarray:
    """The stack whose slice k holds the rows of M that take[k] selects, in
    order, over zero rows, which never win a pivot (rank_many, null_space_many)."""
    order = np.argsort(~take, axis=1, kind="stable")[:, : take.sum(axis=1).max()]
    return np.where(np.take_along_axis(take, order, axis=1)[:, :, None], M[order], 0.0)


def block_structure_audit(
    M,
    K: int,
    tol: Tolerance | None = None,
    draws: int = 200,
    seed: int = 0,
) -> Certificate:
    """Decide whether K is the maximal number of independent mechanisms in M.

    Route a: the finest rank-additive row partition has F groups.
    Route b: a basis assembled from the groups' complementary null spaces, all
        found by one null_space_many call (_stacked_rows), makes M
        block-diagonal with F verified diagonal blocks under a row sort.
        One rank_many call ranks every group's rows, at M's threshold, and
        the basis, at its own, so an elimination of the basis that
        overflows raises InvalidInput before the groups' dimensions are
        checked.
    Route c: the disjointness graph of M in that basis has F components.
    Route d (sampling): over seeded invertible mixings, the component count
        never exceeds F (it can under-count; the witness basis attains F).
        It is one batched pass over chunks of draws (_sampled_counts);
        route c counts with build_graph and components, independently of it.
    The certificate holds iff F == K.  Any disagreement among the routes
    raises InternalError.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    K, draws, seed = as_int(K, "K", 1), as_int(draws, "draws", 0), as_int(seed, "seed", 0)
    n = M.shape[1]
    if rank(M, tol) < n:
        raise RankError("block-structure audit needs full column rank")

    groups = finest_rank_additive_partition(M, tol).groups
    F = len(groups)

    # route b: group k's basis columns solve M_row c = 0 for the rows outside k
    thr = tol.matrix_threshold(M)
    owner = np.empty(M.shape[0], dtype=np.intp)  # each row's 0-based group
    owner[np.concatenate(groups) - 1] = np.repeat(np.arange(F), [len(g) for g in groups])
    mine = owner == np.arange(F)[:, None]
    bases = null_space_many(_stacked_rows(M, ~mine), thr)
    dims = np.array([N.shape[1] for N in bases])
    B = np.column_stack(bases)
    # one call ranks each group's rows at M's threshold and B at its own; a
    # B that is not square is not invertible, and ranks as zeros
    square = B if B.shape[1] == n else np.zeros((n, n))
    take = np.zeros((F + 1, M.shape[0] + n), dtype=bool)
    take[:F, : M.shape[0]] = mine
    take[F, M.shape[0] :] = True
    thrs = np.append(np.full(F, thr), tol.matrix_threshold(square))
    expected = rank_many(_stacked_rows(np.vstack([M, square]), take), thrs)
    bad = np.flatnonzero(dims != expected[:F])
    if bad.size:
        k = bad[0]
        raise InternalError(f"group {k + 1}: null dimension {dims[k]} != group rank {expected[k]}")
    if expected[F] < n:
        raise InternalError("constructed basis is not invertible")
    C = M @ B
    # each group's largest entry in its own columns and the other groups' rows
    outside = owner[:, None] != np.repeat(np.arange(F), dims)
    starts = np.cumsum(dims) - dims
    leak = np.maximum.reduceat(np.where(outside, np.abs(C), 0.0).max(axis=0), starts)
    bad = np.flatnonzero(leak > tol.matrix_threshold(C))
    if bad.size:
        raise InternalError(f"witness basis fails block-diagonality at group {bad[0] + 1}")

    # route c: component count of the disjointness graph in the witness basis
    graph_comps = components(build_graph(C, "D", tol))
    if len(graph_comps) != F:
        raise InternalError(
            f"graph route found {len(graph_comps)} components, partition route {F}"
        )

    # route d: randomized invertible mixings can only under-count
    sampled_max = _sampled_counts(M, F, tol, draws, seed).max(initial=0)

    row_order = [r for g in groups for r in g]
    return Certificate(
        criterion="blockStructure",
        holds=(F == K),
        witness={
            "claimedK": K,
            "maxComponents": F,
            "partition": [list(g) for g in groups],
            "rowOrder": row_order,
            "basis": [[round(float(x), 12) + 0.0 for x in row] for row in B],
            "sampledMax": int(sampled_max),
            "draws": draws,
            "seed": seed,
        },
        notes=(
            "partition, witness-basis, and graph routes agreed on the maximum; "
            "the randomized sweep can only under-count and did not exceed it",
        ),
        inputs_digest=inputs_digest(M, K),
    )


def blocks_from_components(comps: list[tuple[int, ...]]) -> BlockSpec | None:
    """When components are contiguous column ranges in order, the induced BlockSpec."""
    expected = 1
    sizes = []
    for comp in comps:
        if comp[0] != expected or list(comp) != list(range(comp[0], comp[0] + len(comp))):
            return None
        sizes.append(len(comp))
        expected += len(comp)
    return BlockSpec(tuple(sizes))
