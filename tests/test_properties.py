"""Property tests: the batched rank kernel against the scalar one; the
batched Gauss-Jordan null-space kernel and the lockstep greedy completion
against verbatim copies of the scalar code they replaced; the
batched D-graph component counter against build_graph and components; the
row-matroid partition and the row-subset searches (minimal supports, rho+ and
rho-) against the exact oracles; and their invariance under row permutation
and power-of-two row scaling.  The grid connectivity kernel against the
flood-fill oracle, slice by slice; graph components against the BFS oracle;
and the M- and H_n-irreducibility checks against verbatim copies of the split
searches they replaced.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mechindep.basis import (
    BlockSpec,
    SubspaceVector,
    _greedy_many,
    minimal_supports,
    sparsity_gap,
)
from mechindep.certificates import Certificate, inputs_digest
from mechindep.core import (
    Tolerance,
    column_supports,
    null_space,
    null_space_many,
    pitchfork,
    rank,
    rank_many,
)
from mechindep.criteria import (
    H_SPLIT_NOTE,
    _as_tensor,
    _first_split,
    _prepare,
    check_type_d_irreducible,
    check_type_h_irreducible,
    check_type_m_irreducible,
)
from mechindep.errors import DegenerateColumn, InvalidInput, MechIndepError
from mechindep.graphs import (
    FactorGraph,
    build_graph,
    component_counts,
    components,
    finest_rank_additive_partition,
)
from mechindep.topology import GridRegion

from oracles import (
    exact_rank,
    oracle_2partitions,
    oracle_components,
    oracle_finest_partition,
    oracle_minimal_supports,
    oracle_mixing_cost,
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


@PINNED
@given(_stacks())
def test_rank_many_equals_rank(case):
    S, thr = case
    per_slice = np.broadcast_to(thr, (S.shape[0],))
    expected = [rank(S[b], thr=per_slice[b]) for b in range(S.shape[0])]
    assert rank_many(S, thr).tolist() == expected


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


# The per-start greedy that _greedy_many replaced, verbatim: the reference
# every start must match pick for pick.
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
    matrix of full column rank up to 9x6, in a drawn order, and 1-40 starts
    of up to n ground vectors each, drawn with replacement, so that some
    starts are dependent and the starts differ in length."""
    if draw(st.booleans()):
        M = draw(_int_matrices(9, 6)).astype(float)
    else:
        m = draw(st.integers(1, 9))
        n = draw(st.integers(1, min(m, 6)))
        M = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, n))
    assume(rank(M) == M.shape[1])
    ground = minimal_supports(M)
    ground = [ground[i] for i in draw(st.permutations(range(len(ground))))]
    n = M.shape[1]
    pick = st.lists(st.integers(0, len(ground) - 1), max_size=n)
    starts = [[ground[i] for i in s] for s in draw(st.lists(pick, min_size=1, max_size=40))]
    return ground, n, starts


@PINNED
@given(_greedy_cases())
def test_greedy_many_equals_scalar_greedy(case):
    ground, n, starts = case
    tol = Tolerance()
    expected = [scalar_greedy_complete(ground, n, tol, forced=s) for s in starts]
    assert _greedy_many(starts, ground, n, tol) == expected


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
        if all(pitchfork(supports[a], supports[b]) for a in part_a for b in part_b):
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
    T = _as_tensor(tensor, n, blocks.total)
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
