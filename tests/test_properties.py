"""Property tests: the batched rank kernel against the scalar one; the
batched D-graph component counter against build_graph and components; the
row-matroid partition and the row-subset searches (minimal supports, rho+ and
rho-) against the exact oracles; and their invariance under row permutation
and power-of-two row scaling.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mechindep.basis import minimal_supports, sparsity_gap
from mechindep.core import Tolerance, rank, rank_many
from mechindep.criteria import check_type_d_irreducible
from mechindep.graphs import (
    build_graph,
    component_counts,
    components,
    finest_rank_additive_partition,
)

from oracles import (
    exact_rank,
    oracle_2partitions,
    oracle_finest_partition,
    oracle_minimal_supports,
    oracle_mixing_cost,
    oracle_respecting_cost,
)

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
