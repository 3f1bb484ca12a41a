"""Property tests: the batched rank kernel, the batched Gauss-Jordan
null-space kernel, the single-start greedy, the forced-mixing completion by
one exchange on the greedy optimum, the row partition's batched greedy basis
and its zero rows, the adjacency-matrix edge rules of build_graph and
check_type_m, and the audit's two batched route-b calls against verbatim
copies of the scalar code they replaced; the batched D-graph component
counter against build_graph and components; the
row-matroid partition and the row-subset searches (minimal supports, rho+ and
rho-) against the exact oracles; and their invariance under row permutation
and power-of-two row scaling.  The grid connectivity kernel against the
flood-fill oracle, slice by slice; graph components against the BFS oracle;
the M- and H_n-irreducibility checks against verbatim copies of the split
searches they replaced; and the one-update digest of a cell array against the
recursive digest of its nested list.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mechindep import graphs
from mechindep.basis import (
    CHUNK,
    BlockSpec,
    SubspaceVector,
    _bits,
    _check_search_size,
    _closed_rows,
    _flats,
    _greedy,
    _members,
    _normalized_vector,
    _require_full_column_rank,
    _stratum_representative,
    _subset_chunks,
    minimal_supports,
    sparsest_basis,
    sparsity_gap,
)
from mechindep.certificates import Certificate, _IntRows, _update, inputs_digest
from mechindep.core import (
    SupportMask,
    Tolerance,
    as_matrix,
    as_tensor,
    column_supports,
    null_space,
    null_space_many,
    rank,
    rank_many,
)
from mechindep.criteria import (
    H_SPLIT_NOTE,
    _cross_pairs,
    _first_split,
    _prepare,
    _row_route_type_m,
    _supports_payload,
    check_type_d_irreducible,
    check_type_h_irreducible,
    check_type_m,
    check_type_m_irreducible,
)
from mechindep.errors import (
    DegenerateColumn,
    InternalError,
    InvalidInput,
    MechIndepError,
    RankError,
)
from mechindep.graphs import (
    FactorGraph,
    RowPartition,
    _sampled_counts,
    block_structure_audit,
    build_graph,
    component_counts,
    components,
    finest_rank_additive_partition,
)
from mechindep.topology import GridRegion, _roots, premise_report, rectangle

from oracles import (
    exact_rank,
    oracle_2partitions,
    oracle_components,
    oracle_finest_partition,
    oracle_minimal_supports,
    oracle_mixing_cost,
    oracle_pitchfork,
    oracle_respecting_cost,
)
from regions import assert_matches_oracle

PINNED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# mostly zeros, so that rows split into several groups
_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -2])


def _int_matrices(max_rows, max_cols, min_cols=1):
    """Sparse integer matrices; half of them are masked to a random block
    pattern (row and column labels must agree), which plants several groups."""
    shapes = st.tuples(st.integers(1, max_rows), st.integers(min_cols, max_cols))

    def draw(shape):
        m, n = shape
        dense = arrays(np.int64, shape, elements=_ENTRY, fill=st.nothing())
        labels = st.tuples(
            arrays(np.int64, (m, 1), elements=st.integers(0, 2)),
            arrays(np.int64, (1, n), elements=st.integers(0, 2)),
        )
        masked = st.tuples(dense, labels).map(lambda t: t[0] * (t[1][0] == t[1][1]))
        return st.one_of(dense, masked)

    return shapes.flatmap(draw)


def _nonzero_groups(M, groups):
    """The groups restricted to nonzero rows, as a set of 0-based frozensets."""
    out = {frozenset(r - 1 for r in g if np.any(M[r - 1])) for g in groups}
    return out - {frozenset()}


@PINNED
@given(_int_matrices(10, 5))
def test_finest_partition_equals_oracle(M):
    groups = finest_rank_additive_partition(M.astype(float)).groups
    assert sorted(r for g in groups for r in g) == list(range(1, M.shape[0] + 1))
    zero_rows = {r + 1 for r in range(M.shape[0]) if not np.any(M[r])}
    assert zero_rows <= set(groups[0])
    assert _nonzero_groups(M, groups) == set(oracle_finest_partition(M.tolist()))


@PINNED
@given(_int_matrices(7, 4, min_cols=2))
def test_split_count_equals_oracle(M):
    if not np.any(M):
        return
    cert = check_type_d_irreducible(M.astype(float), (M.shape[1],), 1)
    splits = oracle_2partitions(M.tolist())
    if cert.holds:
        assert splits == []
        return
    assert cert.witness["splitCount"] == len(splits)
    first = tuple(
        frozenset(r - 1 for r in part if np.any(M[r - 1])) for part in cert.witness["rowSplit"]
    )
    assert first == splits[0]


@PINNED
@given(
    _int_matrices(10, 5).flatmap(
        lambda M: st.tuples(st.just(M), st.permutations(range(M.shape[0])))
    )
)
def test_partition_follows_row_permutation(case):
    M, perm = case
    P = M[list(perm)]
    before = _nonzero_groups(M, finest_rank_additive_partition(M.astype(float)).groups)
    after = _nonzero_groups(P, finest_rank_additive_partition(P.astype(float)).groups)
    assert {frozenset(perm[i] for i in g) for g in after} == before


@PINNED
@given(
    _int_matrices(10, 5).flatmap(
        lambda M: st.tuples(
            st.just(M),
            st.lists(st.integers(-4, 4), min_size=M.shape[0], max_size=M.shape[0]),
        )
    )
)
def test_partition_ignores_power_of_two_row_scaling(case):
    M, exponents = case
    scaled = M.astype(float) * np.ldexp(1.0, exponents)[:, None]
    assert finest_rank_additive_partition(scaled) == finest_rank_additive_partition(
        M.astype(float)
    )


@st.composite
def _stacks(draw):
    """(B, r, n) stacks of sparse integers, where equal pivot magnitudes
    exercise the first-maximum rule, with duplicated rows, all-zero slices and
    a scalar or per-slice threshold.  A threshold above the entries' scale
    makes the rank depend on the size of each later pivot, so a kernel that
    picks other pivots gives other ranks."""
    B, r, n = draw(st.integers(1, 20)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    S = draw(arrays(np.int64, (B, r, n), elements=_ENTRY, fill=st.nothing())).astype(float)
    for b in draw(st.lists(st.integers(0, B - 1), max_size=3)):
        S[b] = 0.0
    if r > 1:
        for b in draw(st.lists(st.integers(0, B - 1), max_size=3)):
            S[b, draw(st.integers(1, r - 1))] = S[b, 0]
    levels = st.sampled_from([Tolerance().threshold(2.0), 0.5, 1.0, 1.5, 2.5])
    scalar = draw(st.booleans())
    thr = draw(levels) if scalar else np.array(draw(st.lists(levels, min_size=B, max_size=B)))
    return S, thr


# The scalar complete-pivoting elimination that rank_many replaced, verbatim:
# the reference every rank must match.
def scalar_rank(M, tol: Tolerance | None = None, thr: float | None = None) -> int:
    """Numerical rank by complete-pivoting Gaussian elimination.

    The pivot threshold is frozen from the original matrix's scale, so later
    fill-in cannot promote noise into pivots.  Callers working on submatrices
    of a larger object may pass the parent's threshold explicitly.
    """
    tol = tol or Tolerance.default()
    A = as_matrix(M).copy()
    if thr is None:
        thr = tol.matrix_threshold(A)
    m, n = A.shape
    r = 0
    while r < m and r < n:
        sub = np.abs(A[r:, r:])
        flat = int(np.argmax(sub))
        pi, pj = divmod(flat, n - r)
        if sub[pi, pj] <= thr:
            break
        pi += r
        pj += r
        if pi != r:
            A[[r, pi], :] = A[[pi, r], :]
        if pj != r:
            A[:, [r, pj]] = A[:, [pj, r]]
        below = A[r + 1 :, r] / A[r, r]
        A[r + 1 :, :] -= np.outer(below, A[r, :])
        r += 1
    return r


@PINNED
@given(_stacks())
def test_rank_many_and_rank_equal_scalar_rank(case):
    S, thr = case
    per_slice = np.broadcast_to(thr, (S.shape[0],))
    expected = [scalar_rank(S[b], thr=per_slice[b]) for b in range(S.shape[0])]
    assert rank_many(S, thr).tolist() == expected
    assert [rank(S[b], thr=per_slice[b]) for b in range(S.shape[0])] == expected
    assert rank(S[0]) == scalar_rank(S[0])


# The zero-row handling that the partition's one grouping (graphs._groups)
# replaced, verbatim.
def _nonzero_rows(M: np.ndarray, thr: float) -> list[int]:
    return [r for r in range(M.shape[0]) if np.abs(M[r]).max() > thr]


def _partition_with_zeros(parts0: list[list[int]], zero_rows: list[int]) -> RowPartition:
    groups = sorted((sorted(p) for p in parts0), key=lambda p: p[0])
    if zero_rows:
        groups[0] = sorted(groups[0] + zero_rows)
        groups = sorted(groups, key=lambda p: p[0])
    return RowPartition(tuple(tuple(r + 1 for r in p) for p in groups))


# The row partition whose greedy basis made one scalar rank call per row,
# verbatim but for those calls, bound to scalar_rank: the reference every
# partition must match.
def reference_partition(M, tol: Tolerance | None = None) -> RowPartition:
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
        if scalar_rank(M[basis + [e], :], tol, thr=thr) > len(basis):
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


@st.composite
def _partition_cases(draw):
    """Sparse integer or Gaussian matrices up to 14x6 with up to four rows
    copied over others, half of them with every row scaled by 10^e, e in
    -9..2; a tolerance of rel 1e-9, 1e-6 or 0.3; and a greedy chunk of 1, 2,
    3 or CHUNK rows, so that steps end inside and at the ends of chunks."""
    if draw(st.booleans()):
        M = draw(_int_matrices(14, 6)).astype(float)
    else:
        shape = (draw(st.integers(1, 14)), draw(st.integers(1, 6)))
        M = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    m = M.shape[0]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        M[draw(st.integers(0, m - 1))] = M[i]
    if draw(st.booleans()):
        M = M * 10.0 ** draw(arrays(np.int64, (m, 1), elements=st.integers(-9, 2)))
    tol = Tolerance(rel=draw(st.sampled_from([1e-9, 1e-6, 0.3])))
    return M, tol, draw(st.sampled_from([1, 2, 3, CHUNK]))


@settings(PINNED, max_examples=300)
@given(_partition_cases())
def test_partition_and_rank_equal_scalar_greedy(case):
    M, tol, chunk = case
    with mock.patch.object(graphs, "CHUNK", chunk):
        assert finest_rank_additive_partition(M, tol) == reference_partition(M, tol)
    assert rank(M, tol) == scalar_rank(M, tol)


def test_partition_greedy_spans_whole_chunks():
    """300 rows: 200 multiples of one unit row fill a whole chunk that adds
    no rank before the next basis row; then 50 multiples of a second unit
    row, 49 rows on the last two columns, and a row that links the first two
    groups."""
    rng = np.random.default_rng(3)
    M = np.zeros((300, 4))
    M[:200, 0] = rng.integers(1, 5, 200)
    M[200:250, 1] = rng.integers(1, 5, 50)
    M[250:299, 2:] = rng.integers(-2, 3, (49, 2))
    M[299, :2] = 1.0
    partition = finest_rank_additive_partition(M)
    assert len(partition.groups) == 2
    assert partition == reference_partition(M)


# The scalar Gauss-Jordan elimination that null_space_many replaced, verbatim:
# the reference every slice must match byte for byte.
def scalar_null_space(M, tol: Tolerance | None = None, thr: float | None = None) -> np.ndarray:
    """Basis (columns) of the null space, by Gauss-Jordan elimination.

    A zero-row matrix is allowed and yields the identity.  thr overrides the
    pivot threshold when the caller classifies against a larger parent matrix.
    """
    tol = tol or Tolerance.default()
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InvalidInput("null_space expects a 2-D array")
    rows, cols = A.shape
    if rows == 0:
        return np.eye(cols)
    A = A.copy()
    if thr is None:
        thr = tol.matrix_threshold(A)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pi = int(np.argmax(np.abs(A[r:, c]))) + r
        if np.abs(A[pi, c]) <= thr:
            continue
        if pi != r:
            A[[r, pi], :] = A[[pi, r], :]
        A[r, :] /= A[r, c]
        others = [i for i in range(rows) if i != r]
        A[others, :] -= np.outer(A[others, c], A[r, :])
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1
    free_cols = [c for c in range(cols) if c not in piv_cols]
    basis = np.zeros((cols, len(free_cols)))
    for k, fc in enumerate(free_cols):
        basis[fc, k] = 1.0
        for pr, pc in zip(piv_rows, piv_cols):
            basis[pc, k] = -A[pr, fc]
    return basis


@st.composite
def _null_stacks(draw):
    """The rank kernel's stacks (equal pivot magnitudes, duplicated rows,
    all-zero slices, thresholds above the entries' scale), with all-zero rows
    added.  Half of them get their columns scaled by Gaussian factors, which
    keeps the zero and duplicated rows and the ranks while every division and
    product rounds."""
    S, thr = draw(_stacks())
    B, r, n = S.shape
    for b in draw(st.lists(st.integers(0, B - 1), max_size=3)):
        S[b, draw(st.integers(0, r - 1))] = 0.0
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        S = S * rng.standard_normal((B, 1, n))
    return S, thr


def _same_bytes(N, expected):
    return N.shape == expected.shape and N.flags.c_contiguous and N.tobytes() == expected.tobytes()


@PINNED
@given(_null_stacks())
def test_null_space_many_equals_scalar_gauss_jordan(case):
    S, thr = case
    per_slice = np.broadcast_to(thr, (S.shape[0],))
    expected = [scalar_null_space(S[b], thr=per_slice[b]) for b in range(S.shape[0])]
    got = null_space_many(S, thr)
    assert len(got) == len(expected)
    assert all(_same_bytes(N, E) for N, E in zip(got, expected))
    assert all(_same_bytes(null_space(S[b], thr=per_slice[b]), E) for b, E in enumerate(expected))
    assert _same_bytes(null_space(S[0]), scalar_null_space(S[0]))


# The per-start greedy that the lockstep multi-start greedy replaced, and
# that _greedy and the forced-mixing exchange replace in turn, verbatim: the
# reference every completion must match pick for pick.
def scalar_greedy_complete(
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


@st.composite
def _greedy_cases(draw):
    """A ground set from minimal_supports of a sparse integer or a Gaussian
    matrix of full column rank up to 9x6, in a drawn order, of which a drawn
    prefix is kept, so that some candidates span less than the full rank."""
    if draw(st.booleans()):
        M = draw(_int_matrices(9, 6)).astype(float)
    else:
        m = draw(st.integers(1, 9))
        n = draw(st.integers(1, min(m, 6)))
        M = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    assume(rank(M) == M.shape[1])
    ground = minimal_supports(M)
    ground = [ground[i] for i in draw(st.permutations(range(len(ground))))]
    return ground[: draw(st.integers(1, len(ground)))], M.shape[1]


@PINNED
@given(_greedy_cases())
def test_greedy_equals_scalar_greedy(case):
    candidates, n = case
    tol = Tolerance()
    expected = scalar_greedy_complete(candidates, n, tol)
    if expected is None:
        with pytest.raises(InternalError, match="the ground set spans rank"):
            _greedy(candidates, n, tol)
    else:
        assert _greedy(candidates, n, tol) == expected


# The forced-mixing search as it was before the exchange, verbatim but for
# completing each stratum alone through scalar_greedy_complete: every
# stratum's representative forced and completed greedily over the ground set,
# the first cheapest completion winning.
def reference_force_mixing(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    ground, strata = _flats(M, tol, blocks)
    if not strata:
        raise InternalError("no mixing stratum found despite K >= 2")
    best: tuple[int, list[SubspaceVector]] | None = None
    for members, N in strata:
        rep = _stratum_representative(M, blocks, N, tol)
        if set(rep.mask.members) != set(members):
            raise InternalError(
                f"stratum support {members} not attained by representative "
                f"{rep.mask.members}"
            )
        picked = scalar_greedy_complete(ground, M.shape[1], tol, forced=[rep])
        if picked is None:
            continue
        cost = sum(v.support_size for v in picked)
        if best is None or cost < best[0]:  # the first cheapest stratum wins
            best = (cost, picked)
    if best is None:
        raise InternalError("forced-mixing completion failed on every stratum")
    return best[1]


@st.composite
def _two_block_cases(draw):
    """Full-column-rank sparse integer (half of them on a planted block
    pattern) or Gaussian matrices up to 9x5, split into two blocks."""
    if draw(st.booleans()):
        M = draw(_int_matrices(9, 5, min_cols=2)).astype(float)
    else:
        m = draw(st.integers(2, 9))
        n = draw(st.integers(2, min(m, 5)))
        M = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    n = M.shape[1]
    assume(rank(M) == n)
    cut = draw(st.integers(1, n - 1))
    return M, BlockSpec((cut, n - cut))


@settings(PINNED, max_examples=120)
@given(_two_block_cases())
def test_force_mixing_equals_forced_greedy_completions(case):
    M, blocks = case
    tol = Tolerance()
    expected = _vector_bytes(reference_force_mixing(M, blocks, tol))
    result = sparsest_basis(M, blocks, "forceMixing", tol)
    assert _vector_bytes(result.vectors) == expected
    assert result.cost == sum(v.support_size for v in result.vectors)


@st.composite
def _graph_stacks(draw):
    """(B, m, n) stacks of sparse integers with all-zero columns and all-zero
    slices, a slice whose columns form a path in shuffled order (the longest
    walk the squarings must cover), and a tolerance whose per-slice
    thresholds can exceed an entry of magnitude 1 in one slice and not in
    another."""
    B, m, n = draw(st.integers(1, 20)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    S = draw(arrays(np.int64, (B, m, n), elements=_ENTRY, fill=st.nothing())).astype(float)
    if draw(st.booleans()):
        b, order = draw(st.integers(0, B - 1)), draw(st.permutations(range(n)))
        S[b] = 0.0
        for i in range(min(m, n - 1)):
            S[b, i, [order[i], order[i + 1]]] = 1.0
    for b in draw(st.lists(st.integers(0, B - 1), max_size=3)):
        S[b, :, draw(st.integers(0, n - 1))] = 0.0
    for b in draw(st.lists(st.integers(0, B - 1), max_size=2)):
        S[b] = 0.0
    tol = Tolerance(rel=draw(st.sampled_from([1e-9, 0.4, 0.6, 0.9])))
    return S, tol


@PINNED
@given(_graph_stacks())
def test_component_counts_equal_graph_components(case):
    S, tol = case
    expected = [len(components(build_graph(C, "D", tol))) for C in S]
    assert component_counts(S, tol.stack_thresholds(S)).tolist() == expected


@st.composite
def _grid_regions(draw):
    """Random occupancy masks: K = 1..4 axes of length 1..6, each cell kept
    with a probability of 0.1..0.9; at least one cell."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    density = draw(st.floats(0.1, 0.9))
    mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(dims) < density
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return GridRegion(dims, frozenset(map(tuple, np.argwhere(mask).tolist())))


@PINNED
@given(_grid_regions())
def test_grid_connectivity_equals_flood_fill_oracle(r):
    assert_matches_oracle(r)


@st.composite
def _edge_graphs(draw):
    """Graphs on 1-20 vertices with up to 2n random edges, often none, and
    half of them with a path through every vertex in shuffled order, which
    min-root hooking joins over several rounds."""
    n = draw(st.integers(1, 20))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = {tuple(sorted(p)) for p in draw(st.lists(pair, max_size=2 * n))}
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        edges |= {tuple(sorted(p)) for p in zip(order, order[1:])}
    return FactorGraph(kind="D", n=n, edges=frozenset(edges))


@PINNED
@given(_edge_graphs())
def test_components_equal_oracle(g):
    expected = oracle_components(g.n, [(a - 1, b - 1) for a, b in g.edges])
    assert components(g) == [tuple(sorted(v + 1 for v in c)) for c in expected]


# The split searches that check_type_m_irreducible and
# check_type_h_irreducible replaced with one components computation on the
# block's induced graph, verbatim: the references their certificates must match.
def reference_m_irreducible(
    J, blocks, block_index: int, tol: Tolerance | None = None
) -> Certificate:
    """M-irreducibility of one block: no 2-partition of its columns has every
    cross pair mutually non-included."""
    M, blocks, tol = _prepare(J, blocks, tol)
    if not 1 <= block_index <= blocks.K:
        raise InvalidInput(f"block index {block_index} outside 1..{blocks.K}")
    cols = blocks.ranges()[block_index - 1]
    digest = inputs_digest(M, blocks, block_index)
    supports = column_supports(M, tol)
    empty = [c + 1 for c in cols if len(supports[c]) == 0]
    if empty:
        raise DegenerateColumn(f"zero columns {empty} in block {block_index}")
    if len(cols) == 1:
        return Certificate(
            criterion="M-irreducible",
            holds=True,
            witness={"block": block_index},
            notes=("one-dimensional blocks are always irreducible",),
            inputs_digest=digest,
        )
    for part_a, part_b in _first_split(cols):
        if all(oracle_pitchfork(supports[a], supports[b]) for a in part_a for b in part_b):
            return Certificate(
                criterion="M-irreducible",
                holds=False,
                witness={
                    "block": block_index,
                    "split": [[c + 1 for c in part_a], [c + 1 for c in part_b]],
                },
                inputs_digest=digest,
            )
    return Certificate(
        criterion="M-irreducible",
        holds=True,
        witness={"block": block_index},
        inputs_digest=digest,
    )


def reference_h_irreducible(
    tensor, blocks, block_index: int, n: int = 2, tol: Tolerance | None = None
) -> Certificate:
    """H_n irreducibility of one block: the within-block derivative is nonzero
    and no coordinate 2-partition of the block zeroes all cross slices."""
    tol = tol or Tolerance.default()
    if n not in (2, 3):
        raise InvalidInput(f"order must be 2 or 3, got {n}")
    blocks = BlockSpec.coerce(blocks)
    if not 1 <= block_index <= blocks.K:
        raise InvalidInput(f"block index {block_index} outside 1..{blocks.K}")
    T = as_tensor(tensor, n, blocks.total)
    digest = inputs_digest(T, blocks, n, block_index)
    criterion = f"H{n}-irreducible"
    cols = blocks.ranges()[block_index - 1]
    thr = tol.threshold(np.abs(T).max())
    within = T[np.ix_(range(T.shape[0]), cols, cols)]
    if np.abs(within).max() <= thr:
        return Certificate(
            criterion=criterion,
            holds=False,
            witness={"reason": "zeroWithinBlockDerivative", "block": block_index},
            notes=(H_SPLIT_NOTE,),
            inputs_digest=digest,
        )
    for part_a, part_b in _first_split(cols):
        cross_ab = T[np.ix_(range(T.shape[0]), part_a, part_b)]
        cross_ba = T[np.ix_(range(T.shape[0]), part_b, part_a)]
        if max(np.abs(cross_ab).max(), np.abs(cross_ba).max()) <= thr:
            return Certificate(
                criterion=criterion,
                holds=False,
                witness={
                    "block": block_index,
                    "split": [[c + 1 for c in part_a], [c + 1 for c in part_b]],
                },
                notes=(H_SPLIT_NOTE,),
                inputs_digest=digest,
            )
    return Certificate(
        criterion=criterion,
        holds=True,
        witness={"block": block_index},
        notes=(H_SPLIT_NOTE,),
        inputs_digest=digest,
    )


def _outcome(check, *args):
    """A certificate's dict, or the error the checker raised."""
    try:
        return check(*args).to_dict()
    except MechIndepError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _irreducibility_cases(draw, order):
    """A block of 1-7 columns (order 1, a Jacobian) or coordinates (order 2
    or 3, a derivative tensor) among up to two other blocks of 1-3, and its
    1-based index.  Entries are sparse integers or masked Gaussians at a
    drawn density.  Some cases link two of the block's columns only through
    a column of another block, a path the block's induced graph must not
    use, and some Jacobians get a zero column outside the block."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=2))
    at = draw(st.integers(0, len(sizes)))
    sizes.insert(at, draw(st.integers(1, 7)))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 8)) if order == 1 else draw(st.integers(1, 3)),) + (n,) * order
    # per entry; an order-3 slice T[:, a, b, :] has n entries, so it is thinned n-fold
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6])) / n ** (order - 2)
    if draw(st.booleans()):
        values = rng.choice([1.0, -1.0, 2.0, -2.0], size=shape)
    else:
        values = rng.standard_normal(shape)
    X = values * (rng.random(shape) < density)
    block = list(range(sum(sizes[:at]), sum(sizes[: at + 1])))
    if draw(st.integers(0, 3)):  # mostly: no zero column or zero within-block slice
        for c in block:
            if order > 1:
                X[(0, c, c) + (0,) * (order - 2)] = 1.0
            elif not X[:, c].any():
                X[rng.integers(shape[0]), c] = 1.0
    outside = [c for c in range(n) if c not in block]
    if outside and len(block) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(block))[:2]
        o = draw(st.sampled_from(outside))
        if order == 1:
            X[:, o] = np.abs(X[:, a]) + np.abs(X[:, b])  # contains both supports
        else:
            X[(slice(None), a, o) + (0,) * (order - 2)] = 1.0
            X[(slice(None), o, b) + (0,) * (order - 2)] = 1.0
    if order == 1 and outside and draw(st.booleans()):
        X[:, draw(st.sampled_from(outside))] = 0.0
    return X, tuple(sizes), at + 1


@settings(PINNED, max_examples=300)
@given(_irreducibility_cases(order=1))
def test_m_irreducible_equals_split_search(case):
    M, blocks, index = case
    assert _outcome(check_type_m_irreducible, M, blocks, index) == _outcome(
        reference_m_irreducible, M, blocks, index
    )


@settings(PINNED, max_examples=300)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(st.just(n), _irreducibility_cases(n))))
def test_h_irreducible_equals_split_search(case):
    n, (T, blocks, index) = case
    assert _outcome(check_type_h_irreducible, T, blocks, index, n) == _outcome(
        reference_h_irreducible, T, blocks, index, n
    )


# The pairwise-loop build_graph and check_type_m that the adjacency matrices
# of graphs.adjacency replaced, verbatim: the references their graphs and
# certificates must match.
def reference_build_graph(obj, kind: str = "D", tol: Tolerance | None = None) -> FactorGraph:
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
                    if supports[a].as_set() & supports[b].as_set():
                        edges.add((a + 1, b + 1))
                else:
                    if not oracle_pitchfork(supports[a], supports[b]):
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


def reference_check_type_m(J, blocks, tol: Tolerance | None = None) -> Certificate:
    """Type M: every cross-block column pair is mutually non-included.

    Decided twice: by pairwise pitchfork tests and by the row-support
    intersection route; the two verdicts are asserted equal.
    """
    M, blocks, tol = _prepare(J, blocks, tol)
    digest = inputs_digest(M, blocks)
    supports = column_supports(M, tol)
    empty = [j + 1 for j, s in enumerate(supports) if len(s) == 0]
    if empty:
        raise DegenerateColumn(
            f"zero columns {empty}: empty support is contained in everything"
        )
    violations = []
    for _, _, a, b in _cross_pairs(blocks):
        if not oracle_pitchfork(supports[a], supports[b]):
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


def _graph_outcome(build, X, kind, tol):
    """A graph, or the error its builder raised."""
    try:
        return build(X, kind, tol)
    except MechIndepError as exc:
        return type(exc).__name__, str(exc)


@settings(PINNED, max_examples=300)
@given(
    _irreducibility_cases(order=1),
    _irreducibility_cases(order=2),
    st.sampled_from([1e-9, 0.4, 0.6]),
)
def test_edge_rules_equal_pairwise_loops(jacobian, hessian, rel):
    (M, blocks, _), (T, _, _) = jacobian, hessian
    tol = Tolerance(rel=rel)
    for kind, X in (("D", M), ("M", M), ("H2", T)):
        got = _graph_outcome(build_graph, X, kind, tol)
        assert got == _graph_outcome(reference_build_graph, X, kind, tol)
    expected = _outcome(reference_check_type_m, M, blocks, tol)
    assert _outcome(check_type_m, M, blocks, tol) == expected


# The audit with route b as the loop of one null_space and one rank call per
# row group that the two batched calls replaced, verbatim: the reference its
# certificates and errors must match.
def reference_block_structure_audit(
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
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
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


@st.composite
def _audit_cases(draw):
    """Sparse integer matrices, or block diagonals of one to three small
    integer blocks, with zero rows inserted, the rows shuffled, full column
    rank, and the rows scaled by powers of two; a claimed K; and rel 1e-9 or
    0.3.  A single block or a one-column matrix has one group (F = 1).  At
    rel 0.3 the groups' null dimensions and ranks can disagree, and the
    error names the first group that does."""
    if draw(st.booleans()):
        M = draw(_int_matrices(12, 5))
    else:
        blocks = []
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.integers(1, 2))
            shape = (draw(st.integers(c, c + 2)), c)
            blocks.append(draw(arrays(np.int64, shape, elements=st.sampled_from([0, 1, -1, 2, 3]))))
        M = np.zeros(np.sum([b.shape for b in blocks], axis=0), dtype=np.int64)
        r = c = 0
        for b in blocks:
            M[r : r + b.shape[0], c : c + b.shape[1]] = b
            r, c = r + b.shape[0], c + b.shape[1]
    M = np.vstack([M, np.zeros((draw(st.integers(0, 2)), M.shape[1]), dtype=np.int64)])
    M = M[list(draw(st.permutations(range(M.shape[0]))))]
    assume(exact_rank(M.tolist()) == M.shape[1])  # else both raise RankError before route b
    # power-of-two row scales keep the arithmetic exact but set the groups' scales apart
    exponents = draw(st.lists(st.integers(-3, 3), min_size=len(M), max_size=len(M)))
    M = M * np.ldexp(1.0, exponents)[:, None]
    return M, draw(st.integers(1, 3)), draw(st.sampled_from([1e-9, 0.3]))


# Groups of different scales: route b at each slice's own threshold
# (Tolerance.stack_thresholds) in place of M's, in either batched call, fails here.
_GROUP_SCALES = np.array(
    [[2.0, 0.0, -1.0, 0.0], [0.0, 0.5, 1.5, 1.0], [2.0, 0.0, 4.0, -2.0],
     [-0.25, -0.25, 0.0, 0.75], [0.0, 0.5, -0.5, 0.0], [0.0, 2.0, 0.0, -2.0]]
)


def _audit_outcome(audit, M, K, rel):
    """The certificate as a dict, or the error the audit raised."""
    try:
        return audit(M, K, Tolerance(rel=rel), draws=2).to_dict()
    except MechIndepError as exc:
        return type(exc).__name__, str(exc)


@settings(PINNED, max_examples=300)
@given(_audit_cases())
@example((np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]]), 1, 1e-9))  # F = 1 with a zero row
@example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [1.0, 0.0]]), 2, 1e-9))
@example((np.array([[2.0], [0.0], [-1.0]]), 1, 0.3))
@example((_GROUP_SCALES, 1, 0.3))
def test_audit_route_b_equals_per_group_loop(case):
    M, K, rel = case
    assert _audit_outcome(block_structure_audit, M, K, rel) == _audit_outcome(
        reference_block_structure_audit, M, K, rel
    )


def _gap_cases(max_rows=7, max_cols=4):
    """Sparse integer matrices with 2 to 4 columns and a split of the
    columns into two or three blocks; the tests assume full column rank."""

    def with_blocks(M):
        n = M.shape[1]
        cuts = st.lists(st.integers(1, n - 1), min_size=1, max_size=2, unique=True)
        return st.tuples(
            st.just(M),
            cuts.map(lambda c: tuple(np.diff([0, *sorted(c), n]).tolist())),
        )

    return _int_matrices(max_rows, max_cols, min_cols=2).flatmap(with_blocks)


SEARCH = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _full_rank(M):
    assume(exact_rank(M.tolist()) == M.shape[1])


@SEARCH
@given(_int_matrices(7, 4))
def test_minimal_supports_equal_oracle(M):
    _full_rank(M)
    got = {frozenset(i - 1 for i in v.mask.members) for v in minimal_supports(M.astype(float))}
    assert got == oracle_minimal_supports(M.tolist())


@SEARCH
@given(_gap_cases())
def test_sparsity_gap_equals_oracle(case):
    M, blocks = case
    _full_rank(M)
    gap = sparsity_gap(M.astype(float), blocks)
    assert gap.rho_plus == oracle_respecting_cost(M.tolist(), blocks)
    assert gap.rho_minus == oracle_mixing_cost(M.tolist(), blocks)


def _gap_summary(M, blocks):
    gap = sparsity_gap(M, blocks)
    return gap.rho_plus, gap.rho_minus, gap.independent


@SEARCH
@given(
    _gap_cases().flatmap(
        lambda case: st.tuples(
            st.just(case),
            st.permutations(range(case[0].shape[0])),
            st.lists(st.integers(-4, 4), min_size=case[0].shape[0], max_size=case[0].shape[0]),
        )
    )
)
def test_sparsity_gap_ignores_row_permutation_and_scaling(case):
    (M, blocks), perm, exponents = case
    _full_rank(M)
    before = _gap_summary(M.astype(float), blocks)
    assert _gap_summary(M[list(perm)].astype(float), blocks) == before
    scaled = M.astype(float) * np.ldexp(1.0, exponents)[:, None]
    assert _gap_summary(scaled, blocks) == before


# The two row-subset loops that the one pass over the flats (basis._flats)
# replaced, verbatim with the closure test and the inclusion-minimal filter
# they used: the references its ground set and strata must match byte for
# byte.
def reference_closed_rows(M: np.ndarray, subs: np.ndarray, thr: float) -> np.ndarray:
    """(C, m) mask: row j of M is in the span of the k rows subs[c], i.e.
    stacking it under them keeps the rank at k."""
    C, k, n = subs.shape
    m = M.shape[0]
    stack = np.empty((C, m, k + 1, n))
    stack[:, :, :k] = subs[:, None]
    stack[:, :, k] = M
    return (rank_many(stack.reshape(C * m, k + 1, n), thr) == k).reshape(C, m)


@st.composite
def _closure_cases(draw):
    """Sparse integer matrices up to 9x6 with duplicated rows, so that pivots
    tie, a level k < cols, and a threshold that may exceed the entries'
    scale."""
    M = draw(_int_matrices(9, 6)).astype(float)
    m, n = M.shape
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        M[draw(st.integers(0, m - 1))] = M[i]
    k = draw(st.integers(0, min(m, n) - 1))
    return M, k, draw(st.sampled_from([Tolerance().threshold(2.0), 0.5, 1.0, 1.5, 2.5]))


@PINNED
@given(_closure_cases())
def test_closed_rows_equal_reference(case):
    M, k, thr = case
    for R in _subset_chunks(M.shape[0], k):
        R = R[rank_many(M[R], thr) == k]
        assert np.array_equal(_closed_rows(M, R, thr), reference_closed_rows(M, M[R], thr))


def reference_inclusion_minimal(masks, m: int) -> list[int]:
    """The distinct bitmasks over m rows that have no other of the masks as a
    proper subset.

    below[x] says whether one of the masks lies inside x: a sum over subsets,
    one pass per row over all 2^m row sets.  A mask t has a proper subset
    among the masks iff t minus one of its rows has one inside it.
    """
    masks = np.fromiter(masks, dtype=np.int64)
    below = np.zeros(1 << m, dtype=bool)
    below[masks] = True
    for i in range(m):
        halves = below.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    proper = np.zeros(masks.size, dtype=bool)
    for i in range(m):
        proper |= ((masks >> i) & 1 == 1) & below[masks ^ (1 << i)]
    return masks[~proper].tolist()


def reference_minimal_supports(M, tol: Tolerance | None = None) -> list[SubspaceVector]:
    """All inclusion-minimal achievable supports with their normalized vectors.

    Enumeration: the complement of a minimal achievable support is a closed row
    set of rank cols-1, so every minimal support arises as supp(M c) with c the
    null vector of some independent (cols-1)-row subset.  Each chunk of row
    subsets is ranked by one rank_many call, and the null vectors of its
    independent subsets come from one null_space_many call.  Candidates are
    then filtered to the inclusion-minimal ones.
    """
    tol = tol or Tolerance.default()
    M = as_matrix(M)
    _check_search_size(M)
    _require_full_column_rank(M, tol)
    m, n = M.shape
    thr = tol.matrix_threshold(M)

    by_mask: dict[int, SubspaceVector] = {}
    for R in _subset_chunks(m, n - 1):
        for N in null_space_many(M[R[rank_many(M[R], thr) == n - 1]], thr):
            if N.shape[1] != 1:
                continue
            vec = _normalized_vector(M, N[:, 0], tol)
            if vec is None:
                continue
            by_mask.setdefault(_bits(vec.mask.members), vec)

    minimal = [by_mask[t] for t in reference_inclusion_minimal(by_mask, m)]
    minimal.sort(key=lambda v: (v.support_size, v.mask.members))
    return minimal


def reference_mixing_strata(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """Inclusion-minimal supports achievable by mixing vectors.

    Closed row sets are enumerated as closures of independent row subsets of
    size < cols; a complement T is a mixing stratum iff the coefficient null
    space is not confined to a single block (it then cannot be covered by the
    finitely many block subspaces without lying inside one).  Each chunk's
    subsets with an open complement not yet seen get their null spaces from
    one null_space_many call; the chunk is then walked in subset order.
    Returns [(members_1based, null_basis)] sorted by (size, mask).
    """
    m, n = M.shape
    thr = tol.matrix_threshold(M)
    outsides = [[j for j in range(n) if j not in cols] for cols in blocks.ranges()]
    bit = 1 << np.arange(m)
    seen: dict[int, np.ndarray] = {}
    for k in range(n):
        for R in _subset_chunks(m, k):
            R = R[rank_many(M[R], thr) == k]
            # complement of the closure of each subset; its first subset wins
            open_bits = (~reference_closed_rows(M, M[R], thr) * bit).sum(axis=1).tolist()
            fresh = [i for i, T in enumerate(open_bits) if T and T not in seen]
            for i, N in zip(fresh, null_space_many(M[R[fresh]], thr)):
                T = open_bits[i]
                if T in seen or N.shape[1] != n - k:
                    continue
                thr_c = tol.threshold(np.abs(N).max())
                if any(
                    not outside or np.abs(N[outside, :]).max() <= thr_c
                    for outside in outsides
                ):
                    continue
                seen[T] = N
    minimal = reference_inclusion_minimal(seen, m)
    minimal.sort(key=lambda t: (t.bit_count(), _members(t)))
    return [(_members(t), seen[t]) for t in minimal]


@st.composite
def _flat_cases(draw):
    """Full-column-rank matrices up to 9x6 with two or three blocks:
    Gaussian, Gaussian with about half the entries zeroed, sparse integer
    (half of them on a planted block pattern), and Gaussian with rows scaled
    by powers of ten.

    The scaled rows stay within 10^4 of each other, so every row is at least
    10^3 above the zero threshold rel * max|M|.  Nearer that threshold the
    rank test behind a closure and the support test of a normalized vector
    can disagree: several subsets of one hyperplane then give vectors of
    different supports, and the reference keeps each support's first vector
    while the one pass keeps the hyperplane's first.
    """
    kind = draw(st.sampled_from(["gaussian", "half-sparse", "integer", "row-scaled"]))
    if kind == "integer":
        M = draw(_int_matrices(9, 6, min_cols=2)).astype(float)
    else:
        m = draw(st.integers(2, 9))
        n = draw(st.integers(2, min(m, 6)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        M = rng.standard_normal((m, n))
        if kind == "half-sparse":
            M *= rng.random((m, n)) < 0.5
        elif kind == "row-scaled":
            M *= 10.0 ** rng.integers(-2, 3, (m, 1))
    n = M.shape[1]
    assume(rank(M) == n)
    cuts = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2, unique=True))
    return M, BlockSpec(tuple(np.diff([0, *sorted(cuts), n]).tolist()))


def _vector_bytes(vectors):
    return [(np.array(v.value).tobytes(), np.array(v.coeff).tobytes(), v.mask) for v in vectors]


@settings(PINNED, max_examples=200)
@given(_flat_cases())
def test_flats_equal_the_two_subset_loops(case):
    M, blocks = case
    tol = Tolerance()
    expected = _vector_bytes(reference_minimal_supports(M, tol))
    assert _vector_bytes(minimal_supports(M, tol)) == expected
    ground, strata = _flats(M, tol, blocks)
    assert _vector_bytes(ground) == expected
    reference = reference_mixing_strata(M, blocks, tol)
    assert [t for t, _ in strata] == [t for t, _ in reference]
    assert all(_same_bytes(N, E) for (_, N), (_, E) in zip(strata, reference))


_INT64_ENDS = [0, 1, -1, 2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1]


@st.composite
def _int64_rows(draw):
    """(N, K) int64 arrays, N = 0..300 and K = 1..5, with entries over the
    whole int64 range and some at its ends, in C or Fortran order."""
    n, k = draw(st.integers(0, 300)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.integers(-(2**63), 2**63 - 1, size=(n, k), dtype=np.int64, endpoint=True)
    ends = rng.random((n, k)) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    arr[ends] = rng.choice(np.array(_INT64_ENDS, dtype=np.int64), size=int(ends.sum()))
    return np.asfortranarray(arr) if draw(st.booleans()) else arr


@PINNED
@given(_int64_rows())
def test_int_rows_digest_equals_nested_list_digest(arr):
    """The one-update record encoding of a cell array hashes the bytes the
    recursive encoder writes for arr.tolist()."""
    packed, nested = hashlib.sha256(), hashlib.sha256()
    _update(packed, _IntRows(arr))
    _update(nested, arr.tolist())
    assert packed.hexdigest() == nested.hexdigest()
    assert inputs_digest([7], _IntRows(arr)) == inputs_digest([7], arr.tolist())


def test_premise_digest_of_a_full_box_is_pinned():
    """The digest the recursive encoder gave the full 40 x 40 x 40 box."""
    cert = premise_report(rectangle((40, 40, 40)))
    assert cert.inputs_digest == "d3c52ded8333d6c13b56461d56c22c92098cb25bd472a76a13d4600049b123b8"
