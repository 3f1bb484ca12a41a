"""Property tests: the batched rank kernel against the scalar one; the
batched Gauss-Jordan null-space kernel and the lockstep greedy completion
against verbatim copies of the scalar code they replaced; the
batched D-graph component counter against build_graph and components; the
row-matroid partition and the row-subset searches (minimal supports, rho+ and
rho-) against the exact oracles; and their invariance under row permutation
and power-of-two row scaling.  The grid connectivity kernel against the
flood-fill oracle, slice by slice.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mechindep.basis import SubspaceVector, _greedy_many, minimal_supports, sparsity_gap
from mechindep.core import Tolerance, null_space, null_space_many, rank, rank_many
from mechindep.criteria import check_type_d_irreducible
from mechindep.errors import InvalidInput
from mechindep.graphs import (
    build_graph,
    component_counts,
    components,
    finest_rank_additive_partition,
)
from mechindep.topology import GridRegion

from oracles import (
    exact_rank,
    oracle_2partitions,
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
