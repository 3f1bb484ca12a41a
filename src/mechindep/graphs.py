"""Factor graphs over Jacobian columns, their components, rank-additive row
partitions, and the four-way block-structure audit.

The block-structure audit cross-checks independent characterizations of the
maximal number of diagonal blocks obtainable from a matrix by invertible column
operations: the finest rank-additive row partition, an explicitly constructed
block-diagonalizing basis, the component count of the disjointness graph in
that basis, and a randomized sweep that can only under-count.  Disagreement is
a bug by construction and raises InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CHUNK, BlockSpec
from .certificates import Certificate, inputs_digest
from .core import (
    Tolerance,
    as_matrix,
    column_supports,
    null_space,
    pitchfork,
    rank,
    rank_many,
)
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


def build_graph(obj, kind: str = "D", tol: Tolerance | None = None) -> FactorGraph:
    """Disjointness graph (kind "D": edge iff column supports intersect),
    non-pitchfork graph (kind "M": edge iff one support contains the other),
    or cross-Hessian graph (kind "H2": edge iff the (a,b) Hessian slice is
    nonzero) on the latent coordinates."""
    tol = tol or Tolerance.default()
    if kind in ("D", "M"):
        M = as_matrix(obj)
        supports = column_supports(M, tol)
        n = M.shape[1]
        if kind == "M" and any(len(s) == 0 for s in supports):
            empty = [j + 1 for j, s in enumerate(supports) if len(s) == 0]
            raise DegenerateColumn(f"zero columns {empty} break pitchfork semantics")
        edges = set()
        for a in range(n):
            for b in range(a + 1, n):
                if kind == "D":
                    if supports[a].intersects(supports[b]):
                        edges.add((a + 1, b + 1))
                else:
                    if not pitchfork(supports[a], supports[b]):
                        edges.add((a + 1, b + 1))
        return FactorGraph(kind=kind, n=n, edges=frozenset(edges))
    if kind == "H2":
        T = np.asarray(obj, dtype=float)
        if T.ndim != 3 or T.shape[1] != T.shape[2]:
            raise InvalidInput(f"H2 graph needs a (d_x, d_s, d_s) tensor, got {T.shape}")
        if not np.all(np.isfinite(T)):
            raise InvalidInput("tensor contains non-finite entries")
        n = T.shape[1]
        thr = tol.threshold(np.abs(T).max() if T.size else 0.0)
        edges = set()
        for a in range(n):
            for b in range(a + 1, n):
                if max(np.abs(T[:, a, b]).max(), np.abs(T[:, b, a]).max()) > thr:
                    edges.add((a + 1, b + 1))
        return FactorGraph(kind=kind, n=n, edges=frozenset(edges))
    raise InvalidInput(f"unknown graph kind {kind!r}")


def components(g: FactorGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest vertex.

    All edges are hooked in one union-find (topology._roots), whose root of a
    vertex is the smallest vertex of its component."""
    edges = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2) - 1
    comps: dict[int, list[int]] = {}
    for v, root in enumerate(_roots(g.n, [(edges[:, 0], edges[:, 1])]).tolist(), start=1):
        comps.setdefault(root, []).append(v)
    return [tuple(c) for c in comps.values()]


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


def _nonzero_rows(M: np.ndarray, thr: float) -> list[int]:
    return [r for r in range(M.shape[0]) if np.abs(M[r]).max() > thr]


def _partition_with_zeros(parts0: list[list[int]], zero_rows: list[int]) -> RowPartition:
    groups = sorted((sorted(p) for p in parts0), key=lambda p: p[0])
    if zero_rows:
        groups[0] = sorted(groups[0] + zero_rows)
        groups = sorted(groups, key=lambda p: p[0])
    return RowPartition(tuple(tuple(r + 1 for r in p) for p in groups))


def finest_rank_additive_partition(M, tol: Tolerance | None = None) -> RowPartition:
    """The unique finest rank-additive row partition (zero rows in group one).

    Its groups are the connected components of the row matroid of M, and the
    fundamental circuits of one row basis connect them (Krogdahl 1977; Oxley,
    Matroid Theory, ch. 4).  A greedy pass over the nonzero rows grows the
    basis B; each row e that B already spans joins every b in B whose exchange
    B - b + e is again a basis.  For rank r that takes at most m eliminations
    plus (m - r) * r exchange tests, batched over the spanned rows that met
    the same basis, at most max(CHUNK, r) slices per call.  The joined pairs
    are hooked at the end in one union-find (topology._roots).  Zero rows are
    loops and join group one.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    thr = tol.matrix_threshold(M)
    nz = _nonzero_rows(M, thr)
    zero_rows = [r for r in range(M.shape[0]) if r not in set(nz)]
    if not nz:
        return RowPartition((tuple(r + 1 for r in zero_rows),))
    circuits: list[tuple[int, int]] = []  # (basis row, spanned row) pairs to join
    basis: list[int] = []
    spanned: dict[int, list[int]] = {}  # basis size when each spanned row came
    for e in nz:
        if rank(M[basis + [e], :], tol, thr=thr) > len(basis):
            basis.append(e)
        else:
            # e's circuit lies in the basis so far, so later basis rows cannot join it
            spanned.setdefault(len(basis), []).append(e)
    for r, rows in spanned.items():
        step = max(1, CHUNK // r)
        for i in range(0, len(rows), step):
            es = rows[i : i + step]
            # slice (e, j) is the basis with e in place of its j-th row
            exchanged = np.broadcast_to(M[basis[:r]], (len(es), r, r, M.shape[1])).copy()
            exchanged[:, np.arange(r), np.arange(r)] = M[es][:, None, :]
            ranks = rank_many(exchanged.reshape(-1, r, M.shape[1]), thr).reshape(len(es), r)
            for ei, j in zip(*np.nonzero(ranks == r)):
                circuits.append((basis[j], es[ei]))
    pairs = np.array(circuits, dtype=np.intp).reshape(-1, 2)
    roots = _roots(M.shape[0], [(pairs[:, 0], pairs[:, 1])]).tolist()
    groups: dict[int, list[int]] = {}
    for r in nz:
        groups.setdefault(roots[r], []).append(r)
    return _partition_with_zeros(list(groups.values()), zero_rows)


def component_counts(stack, thr) -> np.ndarray:
    """Component counts of the disjointness graphs of every slice of a
    (B, m, n) stack, each equal to len(components(build_graph(stack[b], "D")))
    when thr[b] is that slice's matrix threshold (scalar or one per slice).

    Two columns are adjacent iff their supports share a row.  Adjacency plus
    the identity, squared ceil(log2 n) times as a boolean matrix, is
    reachability; a column is its component's representative iff it is the
    first column it reaches.
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

    Draws come CHUNK at a time from one standard_normal call, the same stream
    as one (n, n) draw after another.  Each chunk is ranked by one rank_many
    call and counted by one component_counts call.  A singular draw is
    skipped, as a redraw; 101 singular draws in a row, counted across chunks,
    raise GenerationError.  Errors come in stream order: a non-finite M R
    (a finite M too large to mix, InvalidInput), a count above F
    (InternalError), then a failed redraw.
    """
    n = M.shape[1]
    rng = np.random.default_rng(seed)
    found = [np.zeros(0, dtype=np.intp)]
    done = singular = 0  # singular: draws since the last invertible one
    while done < draws:
        Rs = rng.standard_normal((min(CHUNK, draws - done), n, n))
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


def block_structure_audit(
    M,
    K: int,
    tol: Tolerance | None = None,
    draws: int = 200,
    seed: int = 0,
) -> Certificate:
    """Decide whether K is the maximal number of independent mechanisms in M.

    Route a: the finest rank-additive row partition has F groups.
    Route b: a basis assembled from the groups' complementary null spaces makes
        M block-diagonal with F verified diagonal blocks under a row sort.
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
    if K < 1:
        raise InvalidInput("K must be >= 1")
    if draws < 0:
        raise InvalidInput("draws must be >= 0")
    n = M.shape[1]
    if rank(M, tol) < n:
        raise RankError("block-structure audit needs full column rank")

    partition = finest_rank_additive_partition(M, tol)
    groups0 = [[r - 1 for r in g] for g in partition.groups]
    F = len(groups0)

    # route b: basis columns for group k solve M_row c = 0 for rows outside k
    thr = tol.matrix_threshold(M)
    blocks_cols: list[np.ndarray] = []
    col_counts = []
    for k, g in enumerate(groups0):
        outside = [r for r in range(M.shape[0]) if r not in set(g)]
        N = null_space(M[outside, :], tol, thr=thr) if outside else np.eye(n)
        expected_dim = rank(M[g, :], tol, thr=thr)
        if N.shape[1] != expected_dim:
            raise InternalError(
                f"group {k + 1}: null dimension {N.shape[1]} != group rank {expected_dim}"
            )
        blocks_cols.append(N)
        col_counts.append(N.shape[1])
    B = np.column_stack(blocks_cols) if blocks_cols else np.eye(n)
    if B.shape[1] != n or rank(B, tol) < n:
        raise InternalError("constructed basis is not invertible")
    C = M @ B
    thr_c = tol.matrix_threshold(C)
    col_start = np.cumsum([0] + col_counts)
    for k, g in enumerate(groups0):
        outside = [r for r in range(M.shape[0]) if r not in set(g)]
        cols = range(col_start[k], col_start[k + 1])
        if outside and np.abs(C[np.ix_(outside, list(cols))]).max() > thr_c:
            raise InternalError(f"witness basis fails block-diagonality at group {k + 1}")

    # route c: component count of the disjointness graph in the witness basis
    graph_comps = components(build_graph(C, "D", tol))
    if len(graph_comps) != F:
        raise InternalError(
            f"graph route found {len(graph_comps)} components, partition route {F}"
        )

    # route d: randomized invertible mixings can only under-count
    sampled_max = _sampled_counts(M, F, tol, draws, seed).max(initial=0)

    row_order = [r for g in partition.groups for r in g]
    return Certificate(
        criterion="blockStructure",
        holds=(F == K),
        witness={
            "claimedK": K,
            "maxComponents": F,
            "partition": [list(g) for g in partition.groups],
            "rowOrder": row_order,
            "basis": [[round(float(x), 12) + 0.0 for x in row] for row in B],
            "sampledMax": int(sampled_max),
            "draws": int(draws),
            "seed": int(seed),
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
