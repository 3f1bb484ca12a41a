"""Property tests: the batched rank kernel (and its ranks and overflow
errors against the whole-stack kernel it replaced, and under zero rows
appended to a slice), the batched Gauss-Jordan null-space kernel and its
stacked form, the greedy on value rows, the forced-mixing completion by one
exchange on the greedy optimum and its swap by one solve against the
per-position rank test, the array pass over the flats (stacked
normalization, both branches of the inclusion-minimal filter) against the
per-vector pass it replaced, the row partition from one elimination's
fundamental circuits against the greedy basis with exchange tests (and both
against the exact oracle at coarse tolerances), the adjacency-matrix edge rules of
build_graph and check_type_m, and the audit's two batched route-b calls
against verbatim copies of the scalar code they replaced; the batched
D-graph component counter against build_graph and components; the
row-matroid partition and the row-subset searches (minimal supports, rho+ and
rho-) against the exact oracles; and their invariance under row permutation
and power-of-two row scaling.  The grid connectivity kernel against the
flood-fill oracle, slice by slice; graph components against the BFS oracle;
the M-, H_n- and S-irreducibility checks against verbatim copies of the
split searches they replaced; the one-update digest of a cell array against the
recursive digest of its nested list; and the JSON reports and text witness
lines of the compact C encoder and the numpy re-indent against the recursive
conversion and indent=2 encoder they replaced; Type D's boolean product and
Type O's Gram screen against the loops over every cross-block pair, the
support order from byte tables against the loop over rows, and the region
and tensor files written in encoded parts against json.dump; Type H_n and
the block assignment from one block-maximum table, the support unions from
one boolean product and separability's block images gathered once against
the loops over block pairs, columns and blocks they replaced; and the
whole-file matrix CSV reader and writer, tensor reader and region cell
array against the cell-by-cell conversions they replaced; and the pass over
the flats that skips every row subset inside an accepted stratum's flat
against the pass that eliminated those subsets and then dropped their T;
and the union-find among a start's roots, and the slice report held as
arrays with the premise and CLI topology reports read from it, against the
whole-array pointer jumps and the per-slice objects they replaced; and the
region file read from its bytes into one int64 array, on json.dump's layout
and on edits of it, against the json reader and cell array it replaced.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import argparse
import csv
import hashlib
import json
import math
import re
from collections import Counter
from itertools import chain, combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mechindep import basis, cli, core, graphs, topology
from mechindep.basis import (
    CHUNK,
    BlockSpec,
    SubspaceVector,
    _check_search_size,
    _counter,
    _drops,
    _flats,
    _inclusion_minimal,
    _independent,
    _members,
    _normalize,
    _order,
    _printed,
    _representatives,
    _require_full_column_rank,
    _subset_chunks,
    _touches,
    _Vectors,
    minimal_supports,
    sparsest_basis,
    sparsity_gap,
)
from mechindep.certificates import Certificate, _IntRows, _update, inputs_digest
from mechindep.core import (
    OVERFLOW,
    SupportMask,
    Tolerance,
    as_int,
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
    SINGLE_BLOCK_NOTE,
    ONE_DIMENSIONAL_NOTE,
    RHO_MINUS_NOTE,
    _block_columns,
    _check_order,
    _cross_hits,
    _first_split,
    _holds,
    _prepare,
    _row_route_type_m,
    _supports_payload,
    check_separability,
    check_support_union,
    check_type_d,
    check_type_d_irreducible,
    check_type_h,
    check_type_h_irreducible,
    check_type_m,
    check_type_m_irreducible,
    check_type_o,
    check_type_s_irreducible,
    extract_assignment,
)
from mechindep.errors import (
    DegenerateColumn,
    InternalError,
    InvalidInput,
    MechIndepError,
    RankError,
    ShapeError,
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
from mechindep.io import (
    _PART,
    _read_json,
    _region_cells,
    certificate_lines,
    read_matrix_csv,
    read_region_json,
    read_tensor_json,
    render,
    to_json,
    write_matrix_csv,
    write_region_json,
    write_tensor_json,
)
from mechindep.synth import OverlapTemplate, gen_overlap_jacobian
from mechindep.topology import (
    DISCRETIZATION_NOTE,
    LOCAL_INJECTIVITY_NOTE,
    GridRegion,
    SliceReport,
    SliceSpec,
    SliceVerdict,
    _NOT_ROWS,
    _is_cell,
    _roots,
    is_connected,
    premise_report,
    rectangle,
    slices_connected,
)

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


# The rank_many that carried the whole stack, with six fancy-index exchanges
# per step and every call under errstate and a final finiteness check,
# verbatim but for the check on retiring slices, which raises for a slice
# that retires after its elimination overflowed (it once passed unflagged):
# ranks and overflow errors of the trailing-block kernel must match.
@np.errstate(over="ignore", invalid="ignore")
def reference_rank_many(stack, thr) -> np.ndarray:
    A = np.array(stack, dtype=float)
    if A.ndim != 3:
        raise InvalidInput(f"rank_many expects a (B, r, n) stack, got ndim={A.ndim}")
    B, m, n = A.shape
    thr = np.asarray(thr, dtype=float)
    ranks = np.full(B, min(m, n), dtype=np.intp)
    live = np.arange(B)
    for r in range(min(m, n) if B else 0):
        sub = np.abs(A[:, r:, r:]).reshape(live.size, -1)
        flat = sub.argmax(axis=1)
        idx = np.arange(live.size)
        done = sub[idx, flat] <= thr
        if done.any():
            if not np.isfinite(A[done]).all():
                raise InvalidInput(OVERFLOW)
            ranks[live[done]] = r
            keep = ~done
            live, A, flat = live[keep], A[keep], flat[keep]
            thr = thr[keep] if thr.ndim else thr
            if not live.size:
                break
            idx = np.arange(live.size)
        pi, pj = np.divmod(flat, n - r)
        pi += r
        pj += r
        row = A[idx, pi, :]
        A[idx, pi, :] = A[:, r, :]
        A[:, r, :] = row
        col = A[idx, :, pj]
        A[idx, :, pj] = A[:, :, r]
        A[:, :, r] = col
        below = A[:, r + 1 :, r] / A[:, r, r, None]
        A[:, r + 1 :, r + 1 :] -= below[:, :, None] * A[:, None, r, r + 1 :]
    if not np.isfinite(A).all():
        raise InvalidInput(OVERFLOW)
    return ranks


@st.composite
def _kernel_stacks(draw):
    """(B, r, n) stacks of small integers with ties; B, r or n may be 0, a
    tenth are 17..20 x 10..12, whose first blocks are over the gather
    table's cap.  Rows may be scaled by 10^-300..10^308 (some entries then
    overflow to inf already) and entries set to NaN or inf.  The threshold
    is scalar or per slice and coarse (a negative one leaves a zero pivot),
    or the stack's own."""
    if draw(st.integers(0, 9)):
        B, r, n = draw(st.integers(0, 6)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    else:
        B, r, n = draw(st.integers(1, 3)), draw(st.integers(17, 20)), draw(st.integers(10, 12))
    S = draw(arrays(np.int64, (B, r, n), elements=_ENTRY, fill=st.nothing())).astype(float)
    if S.size and not draw(st.integers(0, 2)):
        scales = st.sampled_from([0, 0, 0, -300, 100, 300, 305, 306, 307, 308])
        with np.errstate(over="ignore"):
            S *= 10.0 ** draw(arrays(np.int64, (B, r, 1), elements=scales))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if S.size else 0):
        S.flat[draw(st.integers(0, S.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    levels = st.sampled_from([Tolerance().threshold(2.0), 0.5, 1.0, 1.5, 2.5, -1.0])
    kind = draw(st.sampled_from(["scalar", "per slice", "own"]))
    if kind == "own" and S.size:
        with np.errstate(over="ignore", invalid="ignore"):
            return S, Tolerance().stack_thresholds(S)
    if kind == "per slice":
        return S, np.array(draw(st.lists(levels, min_size=B, max_size=B)))
    return S, draw(levels)


def _rank_outcome(kernel, S, thr):
    try:
        return kernel(S, thr).tolist()
    except InvalidInput as exc:
        return str(exc)


@settings(PINNED, max_examples=400)
@given(_kernel_stacks())
@example((np.zeros((1, 3, 2)), -1.0))  # a zero pivot that does not retire: 0 / 0
def test_rank_many_equals_the_whole_stack_kernel(case):
    """Equal ranks, and InvalidInput on the same stacks.  The suite makes a
    RuntimeWarning an error, so the unguarded path must not overflow."""
    S, thr = case
    assert _rank_outcome(rank_many, S, thr) == _rank_outcome(reference_rank_many, S, thr)


def test_rank_over_the_table_cap_equals_scalar_rank():
    """Blocks over TABLE_CAP entries are exchanged in place and get no
    gather table (a 400 x 60 block's would hold 24,000^2 entries); the
    capped 20 x 8 gets one for its first block."""
    rng = np.random.default_rng(0)
    planted = gen_overlap_jacobian(OverlapTemplate(K=4, slot_dim=2, slot_out=5))[0]
    wide = rng.standard_normal((60, 400))
    for M in (wide.T, wide, planted, rng.standard_normal((20, 8))):
        assert rank(M) == scalar_rank(M)
    assert max(M * N for M, N in core._tables) <= core.TABLE_CAP
    assert (20, 8) in core._tables


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
    -9..2, and whether they were; and a tolerance of rel 1e-9, 1e-6 or 0.3."""
    if draw(st.booleans()):
        M = draw(_int_matrices(14, 6)).astype(float)
    else:
        shape = (draw(st.integers(1, 14)), draw(st.integers(1, 6)))
        M = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    m = M.shape[0]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        M[draw(st.integers(0, m - 1))] = M[i]
    scaled = draw(st.booleans())
    if scaled:
        M = M * 10.0 ** draw(arrays(np.int64, (m, 1), elements=st.integers(-9, 2)))
    tol = Tolerance(rel=draw(st.sampled_from([1e-9, 1e-6, 0.3])))
    return M, tol, scaled


def _three_sizes() -> np.ndarray:
    """Integer rows over 4 columns whose spanned rows come at greedy basis
    sizes 1 (two rows), 2 (65 rows), 3 (two rows) and 4 (three rows)."""
    rng = np.random.default_rng(5)
    rows = [[1, 0, 0, 0], [2, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0]]
    rows += np.hstack([rng.integers(1, 4, (65, 2)), np.zeros((65, 2), dtype=int)]).tolist()
    rows += [[0, 0, 1, 0], [1, 0, 1, 0], [0, 2, -1, 0]]
    rows += [[0, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1], [2, 0, 0, 1]]
    return np.array(rows, dtype=float)


@settings(PINNED, max_examples=300)
@given(_partition_cases())
@example((_three_sizes(), Tolerance(), False))
def test_partition_and_rank_equal_scalar_greedy(case):
    """The partition equals the greedy reference at fine tolerances on
    unscaled rows, where both are exact.  At rel 0.3, or on rows far apart
    in scale, the reference's rank tests can drop a pivot that the
    elimination keeps (six zero rows over [0, 1] and [1, 2] at rel 0.3: it
    joins the last two rows, which the exact oracle keeps apart), and
    test_partition_sweep_against_the_exact_oracle judges both routes there."""
    M, tol, scaled = case
    if tol.rel <= 1e-6 and not scaled:
        assert finest_rank_additive_partition(M, tol) == reference_partition(M, tol)
    assert rank(M, tol) == scalar_rank(M, tol)


def _oracle_groups(groups, M: np.ndarray) -> list:
    """groups as sorted 0-based lists of the rows with an exact nonzero
    entry, in oracle_finest_partition's terms."""
    nonzero = {r + 1 for r in np.flatnonzero(np.abs(M).max(axis=1) > 0).tolist()}
    kept = (sorted(r - 1 for r in g if r in nonzero) for g in groups)
    return sorted(g for g in kept if g)


def test_partition_sweep_against_the_exact_oracle():
    """2,343 sparse integer draws of 1-9 x 1-5 (entries -3..3, density 0.5,
    55 per shape, all-zero draws skipped).  At the default tolerance the
    partition is the exact oracle's on every draw; at rel 0.1 and 0.3, where
    both routes can err, it matches the oracle at least as often as the
    greedy reference."""
    rng = np.random.default_rng(0)
    draws = []
    for m in range(1, 10):
        for n in range(1, 6):
            for _ in range(55):
                M = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < 0.5)
                if M.any():
                    draws.append(M)
    assert len(draws) == 2343
    oracle = [sorted(sorted(g) for g in oracle_finest_partition(M.tolist())) for M in draws]
    for rel in (1e-9, 0.1, 0.3):
        tol = Tolerance(rel=rel)
        hits = Counter()
        for M, want in zip(draws, oracle):
            for name, route in (("partition", finest_rank_additive_partition),
                                ("reference", reference_partition)):
                hits[name] += _oracle_groups(route(M, tol).groups, M) == want
        if rel == 1e-9:
            assert hits["partition"] == len(draws)
        assert hits["partition"] >= hits["reference"], (rel, hits)


def _spans_whole_chunks() -> np.ndarray:
    """The 300-row input of test_partition_greedy_spans_whole_chunks."""
    rng = np.random.default_rng(3)
    M = np.zeros((300, 4))
    M[:200, 0] = rng.integers(1, 5, 200)
    M[200:250, 1] = rng.integers(1, 5, 50)
    M[250:299, 2:] = rng.integers(-2, 3, (49, 2))
    M[299, :2] = 1.0
    return M


def test_partition_is_one_elimination(monkeypatch):
    """The partition makes one null_space_many call and no rank_many call,
    and gets the greedy reference's groups: on kron(I_F, block) over a zero
    row for F = 1..5 (the three rows of block are one circuit),
    _three_sizes, the planted 16x8 and _spans_whole_chunks."""
    calls = Counter()

    def counted(name):
        fn = getattr(graphs, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("null_space_many", "rank_many"):
        monkeypatch.setattr(graphs, name, counted(name))
    block = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]])
    inputs = [np.vstack([np.kron(np.eye(F), block), np.zeros((1, 2 * F))]) for F in range(1, 6)]
    planted, _, _ = gen_overlap_jacobian(OverlapTemplate(K=4, slot_dim=2, slot_out=4))
    inputs += [_three_sizes(), planted, _spans_whole_chunks()]
    counts = []
    for M in inputs:
        calls.clear()
        partition = finest_rank_additive_partition(M)
        assert calls == {"null_space_many": 1}, M.shape
        assert partition == reference_partition(M), M.shape
        counts.append(len(partition.groups))
    assert counts == [1, 2, 3, 4, 5, 1, 4, 2]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_partition_overflow_is_invalid_input():
    """A finite matrix near the float maximum whose elimination overflows is
    InvalidInput, exit 2, from the partition, the audit and
    D-irreducibility."""
    M = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
    for check in (
        lambda: finest_rank_additive_partition(M),
        lambda: block_structure_audit(M, 2),
        lambda: check_type_d_irreducible(M, (2,), 1),
    ):
        with pytest.raises(InvalidInput, match="overflowed"):
            check()


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


@PINNED
@given(_null_stacks())
def test_null_space_free_mask_marks_the_identity_rows(case):
    """With with_free, the bases are the same bytes, and each slice's mask
    marks as many rows as its basis has columns, rows that hold the identity."""
    S, thr = case
    bases, free = null_space_many(S, thr, with_free=True)
    assert all(_same_bytes(N, E) for N, E in zip(bases, null_space_many(S, thr)))
    for N, f in zip(bases, free):
        assert f.sum() == N.shape[1] and (N[f] == np.eye(N.shape[1])).all()


@PINNED
@given(_null_stacks(), st.booleans())
def test_stacked_null_spaces_equal_the_per_slice_bases(case, zero_rows):
    """For every width w >= 1, the stacked form keeps exactly the slices
    whose basis has w columns, in order, each bit-identical to its list
    entry, and drops the others; a zero-row stack's bases are all of width
    n."""
    S, thr = case
    if zero_rows:
        S = S[:, :0]
    expected = null_space_many(S, thr)
    for w in range(1, S.shape[2] + 1):
        N = null_space_many(S, thr, w)
        kept = [E for E in expected if E.shape[1] == w]
        assert N.shape == (len(kept), S.shape[2], w)
        assert all(_same_bytes(X, E) for X, E in zip(N, kept))


# The per-start greedy that the lockstep multi-start greedy replaced, and
# that the greedy on value rows (_independent) and the forced-mixing
# exchange replace in turn, verbatim: the reference every completion must
# match pick for pick.
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
    """The greedy on value rows picks what the per-vector greedy it replaced
    (reference_greedy) and the scalar greedy pick."""
    candidates, n = case
    tol = Tolerance()
    values = np.array([v.value for v in candidates])
    expected = scalar_greedy_complete(candidates, n, tol)
    if expected is None:
        for greedy in (lambda: _independent(values, n, tol), lambda: reference_greedy(candidates, n, tol)):
            with pytest.raises(InternalError, match="the ground set spans rank"):
                greedy()
    else:
        assert [candidates[i] for i in _independent(values, n, tol)] == expected
        assert reference_greedy(candidates, n, tol) == expected


def test_greedy_runs_past_rows_that_do_not_grow():
    """A pick after CHUNK + 1 rows that do not grow the rank, each ending
    a run."""
    values = np.zeros((CHUNK + 3, 4))
    values[:, 0] = 1.0
    values[CHUNK + 2, 1] = 1.0
    assert _independent(values, 2, Tolerance()) == [0, CHUNK + 2]
    with pytest.raises(InternalError, match="the ground set spans rank 2, not 3"):
        _independent(values, 3, Tolerance())


# The forced-mixing search as it was before the exchange, verbatim but for
# completing each stratum alone through scalar_greedy_complete: every
# stratum's representative forced and completed greedily over the ground set,
# the first cheapest completion winning.  Its ground set, strata and
# representatives come from the per-vector pass the array path replaced
# (reference_vector_flats, reference_stratum_representative).
def reference_force_mixing(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    ground, strata = reference_vector_flats(M, tol, blocks)
    if not strata:
        raise InternalError("no mixing stratum found despite K >= 2")
    best: tuple[int, list[SubspaceVector]] | None = None
    for members, N in strata:
        rep = reference_stratum_representative(M, blocks, N, tol)
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
    pattern), Gaussian, or Gaussian matrices with rows scaled by 10^-4..10^4
    up to 9x5, split into two blocks.  Scaled rows near the zero threshold
    make the reference's closure rank test and a vector's support test
    disagree, so that its "stratum support ... not attained" fires."""
    kind = draw(st.sampled_from(["integer", "gaussian", "row-scaled"]))
    if kind == "integer":
        M = draw(_int_matrices(9, 5, min_cols=2)).astype(float)
    else:
        m = draw(st.integers(2, 9))
        n = draw(st.integers(2, min(m, 5)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        M = rng.standard_normal((m, n))
        if kind == "row-scaled":
            M *= 10.0 ** rng.integers(-4, 5, (m, 1))
    n = M.shape[1]
    assume(rank(M) == n)
    cut = draw(st.integers(1, n - 1))
    return M, BlockSpec((cut, n - cut))


# rows scaled by 10^-5..10^4: the reference raises "stratum support (1, 3, 5)
# not attained by representative (1, 3, 4, 5)"
_NOT_ATTAINED = np.array([
    [-257.01076898467346, -1098.1986938209586],
    [-3.735956685207676e-05, -5.4258830643446734e-05],
    [7.244473133352144e-05, 4.538858794596457e-05],
    [-2.8022833935576658e-05, -6.65342685628642e-05],
    [-538.756638943387, 13251.559273452229],
    [3490.261125780868, 6389.455936428303],
])


def _assert_attains_its_stratum(M: np.ndarray, blocks: BlockSpec, tol: Tolerance):
    """The forced-mixing search returns a basis whose first vector mixes
    and prints, as its support, the T of one of the strata of _flats."""
    result = sparsest_basis(M, blocks, "forceMixing", tol)
    strata = [_members(t) for t, _ in _flats(M, tol, blocks)[1]]
    assert result.mixing_flags[0]
    assert result.vectors[0].mask.members in strata
    assert result.cost == sum(v.support_size for v in result.vectors)


# rows scaled by 10^-4..10^4: B*'s coefficient rows run from 1e-4 to 1e4, and
# a solve against them unscaled kept the representative, equal to B*'s first
# vector, beside that vector
_SPREAD_COEFFS = np.array([
    [-2.3717228869412656e-05, -0.00010772428095680589, -7.330749666832632e-05],
    [-155.4971993819339, -178.8080662794429, 37.74428120435387],
    [-14036.571937208864, -4155.711028423005, -4981.353545249098],
])


@settings(PINNED, max_examples=160)
@given(_two_block_cases())
@example((_SPREAD_COEFFS, BlockSpec((2, 1))))
def test_force_mixing_equals_forced_greedy_completions(case):
    """Vector bytes, or the InternalError message, of the per-vector
    reference.  The search finds B* before any representative, so there a
    ground set short of rank n raises first.  Where the reference's closure
    test finds a T that its representative does not attain, T is now the
    support the representative prints, and the search returns a basis."""
    M, blocks = case
    tol = Tolerance()
    try:
        expected = _vector_bytes(reference_force_mixing(M, blocks, tol))
    except InternalError as exc:
        message = str(exc)
        ground, strata = reference_vector_flats(M, tol, blocks)
        if strata:
            try:
                reference_greedy(ground, M.shape[1], tol)
            except InternalError as short:
                message = str(short)
        if "not attained" in message:
            _assert_attains_its_stratum(M, blocks, tol)
            return
        with pytest.raises(InternalError) as got:
            sparsest_basis(M, blocks, "forceMixing", tol)
        assert str(got.value) == message
        return
    result = sparsest_basis(M, blocks, "forceMixing", tol)
    assert _vector_bytes(result.vectors) == expected
    assert result.cost == sum(v.support_size for v in result.vectors)


def test_not_attained_example_returns_its_stratum():
    """The pinned example raises in the reference and returns a basis now,
    its mixing vector printing its stratum's T."""
    message = "stratum support (1, 3, 5) not attained by representative (1, 3, 4, 5)"
    with pytest.raises(InternalError, match=re.escape(message)):
        reference_force_mixing(_NOT_ATTAINED, BlockSpec((1, 1)), Tolerance())
    _assert_attains_its_stratum(_NOT_ATTAINED, BlockSpec((1, 1)), Tolerance())


def test_singular_optimum_coefficients_are_internal_error(monkeypatch):
    """A B* whose coefficient matrix is singular (its first vector n times)
    raises InternalError, not numpy's LinAlgError."""
    monkeypatch.setattr(basis, "_independent", lambda values, n, tol: [0] * n)
    M = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InternalError, match="singular"):
        sparsest_basis(M, BlockSpec((1, 1)), "forceMixing")


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


# The loop that ran a sparsity gap on every column split, which
# check_type_s_irreducible replaced by gaps on only the splits its greedy
# optimum does not mix, verbatim: the reference its certificates must match.
def reference_s_irreducible(
    J, blocks, block_index: int, tol: Tolerance | None = None
) -> Certificate:
    """S-irreducibility of one block: no 2-partition of its columns makes the
    block's submatrix Type S independent."""
    M, blocks, tol = _prepare(J, blocks, tol)
    block_index, cols = _block_columns(blocks, block_index)
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


@st.composite
def _s_irreducibility_cases(draw):
    """A block of 2-5 columns among up to two other blocks of 1-2, over as
    many to 9 rows, and its 1-based index.  Entries are sparse integers or
    masked Gaussians at a drawn density; half the draws keep the block's
    entries only where a row label and a column label agree, which plants
    independent splits."""
    sizes = draw(st.lists(st.integers(1, 2), max_size=2))
    at = draw(st.integers(0, len(sizes)))
    width = draw(st.integers(2, 5))
    sizes.insert(at, width)
    block = slice(sum(sizes[:at]), sum(sizes[: at + 1]))
    shape = (draw(st.integers(width, 9)), sum(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        M = rng.integers(-2, 3, shape).astype(float)
    else:
        M = rng.standard_normal(shape)
    M *= rng.random(shape) < draw(st.sampled_from([0.6, 0.8, 1.0]))
    if draw(st.booleans()):
        rows, cols = rng.integers(0, 2, (shape[0], 1)), rng.integers(0, 2, (1, width))
        M[:, block] *= rows == cols
    return M, tuple(sizes), at + 1


@settings(PINNED, max_examples=400)
@given(_s_irreducibility_cases())
def test_s_irreducible_equals_the_gap_on_every_split(case):
    M, blocks, index = case
    assert _outcome(check_type_s_irreducible, M, blocks, index) == _outcome(
        reference_s_irreducible, M, blocks, index
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


# criteria's loop over the cross-block column pairs, which _cross_hits
# replaced, verbatim: the pair order the references below report in.
def _cross_pairs(blocks: BlockSpec):
    ranges = blocks.ranges()
    for i in range(blocks.K):
        for j in range(i + 1, blocks.K):
            for a in ranges[i]:
                for b in ranges[j]:
                    yield i, j, a, b


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


# The row route of check_type_m as per-row Python sets, which one
# implication-reduce replaced, verbatim: the reference its verdicts must
# match on the matrices check_type_m lets through, those without a zero column.
def reference_row_route_type_m(M: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> bool:
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


@settings(PINNED, max_examples=300)
@given(_irreducibility_cases(order=1), st.sampled_from([1e-9, 0.4, 0.6]))
def test_row_route_equals_the_per_row_set_loop(jacobian, rel):
    """Zero columns, which check_type_m refuses before either route runs,
    get one entry of the matrix's largest magnitude, which leaves every
    other support as it was."""
    M, sizes, _ = jacobian
    blocks, tol = BlockSpec(sizes), Tolerance(rel=rel)
    zero = ~(np.abs(M) > tol.matrix_threshold(M)).any(axis=0)
    M[0, zero] = np.abs(M).max() or 1.0
    assert _row_route_type_m(M, blocks, tol) == reference_row_route_type_m(M, blocks, tol)


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
    # all of M scaled: its coefficients scale as 2^-45, far below the absolute
    # tolerance
    assert _gap_summary(np.ldexp(M.astype(float), 45), blocks) == before


# The two row-subset loops that the one pass over the flats (basis._flats)
# replaced, verbatim with the closure test and the inclusion-minimal filter
# they used: the references its ground set and strata must match byte for
# byte.  The closure test ranks every row of M under each subset; the
# per-vector pass below called a variant that ranked only the rows outside
# it, which gave the same masks.
def reference_closed_rows(M: np.ndarray, subs: np.ndarray, thr: float) -> np.ndarray:
    """(C, m) mask: row j of M is in the span of the k rows subs[c], i.e.
    stacking it under them keeps the rank at k."""
    C, k, n = subs.shape
    m = M.shape[0]
    stack = np.empty((C, m, k + 1, n))
    stack[:, :, :k] = subs[:, None]
    stack[:, :, k] = M
    return (rank_many(stack.reshape(C * m, k + 1, n), thr) == k).reshape(C, m)


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
            vec = reference_normalized_vector(M, N[:, 0], tol)
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
def _flat_cases(draw, kinds=("gaussian", "half-sparse", "integer", "row-scaled")):
    """Full-column-rank matrices up to 9x6 with two or three blocks, of the
    kinds drawn: Gaussian, Gaussian with about half the entries zeroed,
    sparse integer (half of them on a planted block pattern), and Gaussian
    with rows scaled by powers of ten.

    The scaled rows stay within 10^4 of each other, so every row is at least
    10^3 above the zero threshold rel * max|M|.  Nearer that threshold the
    rank test behind a closure and the support test of a normalized vector
    can disagree: several subsets of one hyperplane then give vectors of
    different supports, and the reference keeps each support's first vector
    while the one pass keeps the hyperplane's first.
    """
    kind = draw(st.sampled_from(kinds))
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
    """The array pass against the two subset loops before it and against
    the per-vector pass it replaced (reference_vector_flats)."""
    M, blocks = case
    tol = Tolerance()
    expected = _vector_bytes(reference_minimal_supports(M, tol))
    assert _vector_bytes(minimal_supports(M, tol)) == expected
    ground, strata = _flats(M, tol, blocks)
    assert _vector_bytes(ground.vectors()) == expected
    assert _flats(M, tol)[0].bits.tolist() == ground.bits.tolist()
    strata = [(_members(t), N) for t, N in strata]
    for reference in (reference_mixing_strata(M, blocks, tol), reference_vector_flats(M, tol, blocks)[1]):
        assert [t for t, _ in strata] == [t for t, _ in reference]
        assert all(_same_bytes(N, E) for (_, N), (_, E) in zip(strata, reference))
    assert _vector_bytes(reference_vector_flats(M, tol, blocks)[0]) == expected


# The pass over the flats before it skipped the row subsets inside an
# accepted stratum's flat, verbatim: it eliminated them and then dropped each
# T holding an accepted stratum.  Its ground set and strata are the
# reference the skip must match byte for byte.
def reference_flats(M: np.ndarray, tol: Tolerance, blocks: BlockSpec | None = None):
    """The ground set and, with blocks, the mixing strata, from one pass
    over the flats of M's row matroid, hyperplanes first.

    Level k eliminates the k-row subsets R chunk by chunk in combinations
    order, one null_space_many call each: R is independent iff its null basis
    N has n - k columns, and then attains T, the complement of its closure: by
    core's closure rule, the union of the _printed supports of M N's columns.
    Each distinct T keeps its first subset's N.  At level n-1 the first vector
    of each support, filtered to the inclusion-minimal supports and sorted by
    (size, rows), is the ground set, as _Vectors.  With blocks the pass goes
    on down to level 0: T is a mixing stratum iff the rows of its coefficient
    null space touch more than one block (_touches of their largest entries):
    it then cannot be covered by the finitely many block subspaces without
    lying inside one.  A T holding an accepted stratum from a higher level is
    skipped: the final inclusion-minimal filter would drop it.  The strata are
    returned as [(T bitmask, null basis)] sorted by (size, rows), None without
    blocks."""
    m, n = M.shape
    thr = tol.matrix_threshold(M)
    bit = 1 << np.arange(m)
    met = np.zeros(1 << m, dtype=bool)
    found = [_Vectors(np.zeros((0, m)), np.zeros((0, n)), bit[:0])]
    strata: dict[int, np.ndarray] = {}
    for k in range(n - 1, -1, -1) if blocks else [n - 1]:
        holding = _counter(np.fromiter(strata, dtype=np.int64, count=len(strata)), m)
        for R in _subset_chunks(m, k):
            N = null_space_many(M[R], thr, n - k)
            with np.errstate(over="ignore", invalid="ignore"):
                V = np.matmul(M[None], N)
            open_ = _printed(V, 1, tol).any(axis=2)
            T, first = np.unique(open_ @ bit, return_index=True)
            fresh = (T != 0) & ~met[T]
            fresh[fresh] = holding(T[fresh]) == 0
            if not fresh.any():
                continue
            met[T[fresh]] = True
            first = np.sort(first[fresh])
            T, N = open_[first] @ bit, N[first]
            if k == n - 1:
                found.append(_normalize(M, N[:, :, 0], tol, V[first, :, 0])[1])
            if blocks is not None:
                mixing = _touches(np.abs(N).max(axis=2), blocks, tol).sum(axis=1) > 1
                strata.update(zip(T[mixing].tolist(), N[mixing]))
    vectors, found = _Vectors.concat(found), None
    first = np.unique(vectors.bits, return_index=True)[1]
    keep = first[_inclusion_minimal(vectors.bits[first], m)]
    ground = vectors.take(keep[_order(vectors.bits[keep], m)])
    if blocks is None:
        return ground, None
    T = np.fromiter(strata, dtype=np.int64, count=len(strata))
    T = T[_inclusion_minimal(T, m)]
    return ground, [(t, strata[t]) for t in T[_order(T, m)].tolist()]



@st.composite
def _skip_cases(draw):
    """A matrix of 3-10 x 2-6 with Gaussian, small-integer or half-sparse
    Gaussian entries, or Gaussian or half-sparse entries with the rows
    scaled by 10^-4..10^4, split into two blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 10))
    n = draw(st.integers(2, min(m, 6)))
    kind = draw(st.sampled_from(["gaussian", "integer", "half-sparse", "row-scaled"]))
    if kind == "integer":
        M = rng.integers(-3, 4, (m, n)).astype(float)
    else:
        M = rng.standard_normal((m, n))
        if kind == "half-sparse" or (kind == "row-scaled" and draw(st.booleans())):
            M *= rng.random((m, n)) < 0.5
        if kind == "row-scaled":
            M *= 10.0 ** rng.integers(-4, 5, (m, 1))
    cut = draw(st.integers(1, n - 1))
    return M, BlockSpec((cut, n - cut))


def _flats_outcome(flats, M, blocks):
    """The ground set's value, coefficient and bitmask bytes and each
    stratum's T and null-basis bytes, or the error flats raised."""
    try:
        ground, strata = flats(M, Tolerance(), blocks)
    except MechIndepError as exc:
        return type(exc).__name__, str(exc)
    return (
        [(a.dtype.str, a.shape, a.tobytes()) for a in ground],
        None if strata is None else [(t, N.shape, N.tobytes()) for t, N in strata],
    )


# rows scaled by 10^-4..10^4: skipping also the subsets inside a hyperplane
# met earlier at the same level changes a support that the ground set prints
_MET_AT_ONE_LEVEL = np.array([
    [0.0, 0.0, 0.0, 1520.1399340650614, 0.0],
    [-0.0, -16084.961312970081, 11307.308977734889, -15118.647703040853, 646.8835531808076],
    [0.0, 1.1524715040364534e-05, -0.0, 0.00010501464167132482, 0.0],
    [0.0, 0.0, -0.0, -0.0, -0.009182522481154892],
    [0.0, -0.0, 0.08967211574688484, 0.14956372901101822, 0.0],
    [0.0, -0.0, 0.0, -3.4912766912100123e-05, -3.6966439722312095e-05],
    [3.6109155410877243, -6.515362545712663, 0.0, 0.0, 0.0],
    [-0.06413996360621614, -0.11739614209129878, 0.05395310783200902, 0.0, -0.0],
    [-1748.4733810692603, 952.0321433062685, 1658.5999395708702, -334.990779042494, -606.6976199063434],
    [0.0, 0.005935421558093032, -0.0, -0.0, -0.0058051260771728895],
])


@settings(PINNED, max_examples=200)
@given(_skip_cases())
@example((_MET_AT_ONE_LEVEL, BlockSpec((2, 3))))
def test_skipping_subsets_inside_accepted_flats_keeps_every_byte(case):
    """The pass that never eliminates a row subset inside an accepted
    stratum's flat returns the ground set and strata of the pass that
    eliminated it and dropped its T (reference_flats), with blocks and
    without."""
    M, blocks = case
    for b in (blocks, None):
        assert _flats_outcome(_flats, M, b) == _flats_outcome(reference_flats, M, b)


def test_no_subset_inside_an_accepted_flat_is_eliminated(monkeypatch):
    """During a seeded planted gap, every row subset that the forced-mixing
    pass eliminates at level k meets the T of each stratum accepted at a
    level above k (a stratum with a null basis of width w is accepted at
    level n - w), and some subsets are skipped."""
    M, blocks, _ = gen_overlap_jacobian(OverlapTemplate(K=3, slot_dim=2, slot_out=2, overlap_ratio=0.25, seed=3))
    m, n = M.shape
    row = {r.tobytes(): i for i, r in enumerate(M)}
    assert len(row) == m
    eliminated = []  # (level, row bitmask)
    eliminate = basis.null_space_many

    def recorded(stack, thr, width=None):
        if stack.shape[2] == n:
            eliminated.extend((len(S), sum(1 << row[r.tobytes()] for r in S)) for S in stack)
        return eliminate(stack, thr, width)

    monkeypatch.setattr(basis, "null_space_many", recorded)
    sparsity_gap(M, blocks)
    monkeypatch.undo()
    strata = [(t, n - N.shape[1]) for t, N in _flats(M, Tolerance(), blocks)[1]]
    assert strata and all(R & t for k, R in eliminated for t, level in strata if level > k)
    assert 0 < len(eliminated) < sum(math.comb(m, k) for k in range(n))


# The exchange tests that _drops replaced, verbatim: one rank_many call per
# position of B*, on the value rows of B* and of the representatives.
def reference_drops(optimum, reps, m: int, n: int, tol: Tolerance) -> np.ndarray:
    # drop[s]: the last position of B* whose swap for reps[s] keeps
    # rank n, -1 if none; one rank_many call per position
    drop = np.full(len(reps.values), -1)
    for j in range(n - 1, -1, -1):
        open_ = np.flatnonzero(drop < 0)
        if not open_.size:
            break
        trial = np.empty((open_.size, m, n))
        trial[:, :, 0] = reps.values[open_]
        trial[:, :, 1:] = np.delete(optimum.values.T, j, axis=1)
        drop[open_[rank_many(trial, tol.stack_thresholds(trial)) == n]] = j
    return drop


@settings(PINNED, max_examples=200)
@given(_flat_cases(["gaussian", "half-sparse", "integer"]))
def test_drops_equal_the_rank_test_per_position(case):
    """One solve against B*'s coefficients drops, for every stratum's
    representative, the position the rank test per position drops."""
    M, blocks = case
    tol = Tolerance()
    m, n = M.shape
    ground, strata = _flats(M, tol, blocks)
    optimum = ground.take(_independent(ground.values, n, tol))
    N = np.zeros((len(strata), n, max(null.shape[1] for _, null in strata)))
    for s, (_, null) in enumerate(strata):
        N[s, :, : null.shape[1]] = null
    reps, failed = _representatives(M, blocks, N, tol)
    assert not failed.any()
    expected = reference_drops(optimum, reps, m, n, tol)
    assert _drops(optimum.coeffs, reps.coeffs, tol).tolist() == expected.tolist()
    # the coefficients of M times 2^45: the drops do not depend on M's scale
    assert _drops(optimum.coeffs, np.ldexp(reps.coeffs, -45), tol).tolist() == expected.tolist()
    assert _drops(np.ldexp(optimum.coeffs, 45), reps.coeffs, tol).tolist() == expected.tolist()


# The per-vector basis code that the array path replaced, verbatim but for
# the names of the helpers it calls: the references the ground set, the
# strata, the greedy and the forced-mixing representatives must match.
def _bits(members) -> int:
    """Bitmask of 1-based row indices: row i sets bit i - 1."""
    return sum(1 << (i - 1) for i in members)


def reference_touched(c: np.ndarray, blocks: BlockSpec, tol: Tolerance) -> list[int]:
    """0-based indices of the blocks a coefficient vector touches: those with
    an entry above the threshold of the vector's own largest entry."""
    c = np.abs(c)
    above = (c > tol.threshold(c.max())).tolist()
    return [b for b, cols in enumerate(blocks.ranges()) if any(above[j] for j in cols)]


def reference_normalized_vector(M: np.ndarray, c: np.ndarray, tol: Tolerance) -> SubspaceVector | None:
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


def reference_below(masks, m: int) -> np.ndarray:
    """below[x] says whether one of the bitmasks over m rows lies inside the
    row set x: a sum over subsets, one pass per row over all 2^m row sets."""
    below = np.zeros(1 << m, dtype=bool)
    below[np.fromiter(masks, dtype=np.int64)] = True
    for i in range(m):
        halves = below.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    return below


def reference_vector_flats(M: np.ndarray, tol: Tolerance, blocks: BlockSpec | None = None):
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
            below, counted = reference_below(strata, m), len(strata)
        for R in _subset_chunks(m, k):
            R = R[rank_many(M[R], thr) == k]
            open_bits = (~reference_closed_rows(M, M[R], thr) * bit).sum(axis=1).tolist()
            fresh = []
            for i, T in enumerate(open_bits):
                if T and T not in met and (below is None or not below[T]):
                    met.add(T)
                    fresh.append(i)
            for i, N in zip(fresh, null_space_many(M[R[fresh]], thr)):
                if N.shape[1] != n - k:
                    continue
                if k == n - 1:
                    vec = reference_normalized_vector(M, N[:, 0], tol)
                    if vec is not None:
                        vectors.setdefault(_bits(vec.mask.members), vec)
                if blocks is not None and len(reference_touched(np.abs(N).max(axis=1), blocks, tol)) > 1:
                    strata[open_bits[i]] = N
    ground = [vectors[t] for t in reference_inclusion_minimal(vectors, m)]
    ground.sort(key=lambda v: (v.support_size, v.mask.members))
    if blocks is None:
        return ground, None
    minimal = reference_inclusion_minimal(strata, m)
    minimal.sort(key=lambda t: (t.bit_count(), _members(t)))
    return ground, [(_members(t), strata[t]) for t in minimal]


def reference_greedy(candidates: list[SubspaceVector], n: int, tol: Tolerance) -> list[SubspaceVector]:
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


def reference_stratum_representative(
    M: np.ndarray, blocks: BlockSpec, N: np.ndarray, tol: Tolerance
) -> SubspaceVector:
    """A mixing vector from the stratum's coefficient space."""
    cols = [N[:, j] for j in range(N.shape[1])]
    for c in cols:
        if len(reference_touched(c, blocks, tol)) > 1:
            vec = reference_normalized_vector(M, c, tol)
            if vec is not None:
                return vec
    # every basis vector is pure; two of them live in different blocks
    groups = {}
    for c in cols:
        t = reference_touched(c, blocks, tol)
        if len(t) == 1:
            groups.setdefault(t[0], c)
    picks = list(groups.values())
    if len(picks) < 2:
        raise InternalError("mixing stratum without a mixing combination")
    c = picks[0] / np.abs(picks[0]).max() + picks[1] / np.abs(picks[1]).max()
    vec = reference_normalized_vector(M, c, tol)
    if vec is None:
        raise InternalError("mixing representative vanished numerically")
    return vec


@st.composite
def _coefficient_rows(draw):
    """A matrix of 1-20 x 1-8 (Gaussian, half-sparse, or with rows scaled by
    10^-4..10^4) and 0-300 coefficient rows, some of them exactly in its
    null space, read as C-ordered rows or as strided columns of a Fortran
    array (the layout of a null-space column)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, F = draw(st.integers(1, 20)), draw(st.integers(1, 8)), draw(st.integers(0, 300))
    M = rng.standard_normal((m, n))
    kind = draw(st.sampled_from(["gaussian", "half-sparse", "row-scaled"]))
    if kind == "half-sparse":
        M *= rng.random((m, n)) < 0.5
    elif kind == "row-scaled":
        M *= 10.0 ** rng.integers(-4, 5, (m, 1))
    C = rng.standard_normal((F, n)) * 10.0 ** rng.integers(-4, 5, (F, 1))
    C[rng.random(F) < 0.1] = 0.0
    return M, np.asfortranarray(C) if draw(st.booleans()) else C


@PINNED
@given(_coefficient_rows())
def test_normalize_equals_per_vector_products(case):
    """The stacked matmul gives each row the bits of M @ c, and _normalize
    the vector, coefficients and support of reference_normalized_vector,
    or drops the row where it returns None.  Killed mutant: C @ M.T in
    place of the stacked product (it differs in the last bits)."""
    M, C = case
    tol = Tolerance()
    stacked = np.matmul(M[None], C[:, :, None])[:, :, 0]
    assert all(stacked[i].tobytes() == (M @ C[i]).tobytes() for i in range(len(C)))
    expected = [reference_normalized_vector(M, c, tol) for c in C]
    alive, found = _normalize(M, C, tol)
    assert alive.tolist() == [v is not None for v in expected]
    assert _vector_bytes(found.vectors()) == _vector_bytes([v for v in expected if v is not None])


@PINNED
@given(_int_matrices(9, 6), st.integers(0, 3), st.sampled_from([Tolerance(), Tolerance(rel=0.3)]))
def test_zero_columns_never_change_a_rank(M, extra, tol):
    """Zero columns appended to a slice leave its rank at its own threshold
    unchanged: the greedy's prefix runs and the block rank checks rely on
    it.  Integer entries tie, so pivot order matters."""
    M = M.astype(float)
    padded = np.concatenate([M, np.zeros((M.shape[0], extra))], axis=1)[None]
    assert rank_many(padded, tol.stack_thresholds(padded))[0] == rank(M, tol)


@st.composite
def _zero_row_cases(draw):
    """A sparse integer slice up to 9x6 (entries tie), or a dense one of
    entries +-2^1022 and +-2^1023, near the float maximum (a guarded stack),
    where many eliminations overflow; 1 to 3 zero rows to append; and a
    threshold of 0, the slice's own, 1.5 or above every entry."""
    if draw(st.booleans()):
        M = draw(_int_matrices(9, 6)).astype(float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (draw(st.integers(1, 9)), draw(st.integers(1, 6)))
        M = np.ldexp(rng.choice([1.0, -1.0, 2.0, -2.0], shape), 1022)
    levels = {"zero": 0.0, "own": Tolerance().matrix_threshold(M), "coarse": 1.5,
              "above": 1.5 * np.abs(M).max() + 1.0}
    return M, draw(st.integers(1, 3)), levels[draw(st.sampled_from(sorted(levels)))]


@settings(PINNED, max_examples=300)
@given(_zero_row_cases())
@example((np.array([[1.7e308, -1.7e308, 0.0], [1.7e308, 1.7e308, 0.0]]), 1, 0.0))
def test_zero_rows_never_change_a_rank(case):
    """Zero rows appended to a slice leave its rank and its overflow error
    unchanged: the packed exchange tests of the row partition and route b's
    group ranks rely on it.  They never win a pivot, so the slice runs the
    same steps until its own rows run out, and then retires on them.  The
    example is a slice wider than tall whose second pivot, 1.7e308 +
    1.7e308, overflows: padded, it retires on its zero row after that, and
    must raise all the same."""
    M, extra, thr = case
    padded = np.concatenate([M, np.zeros((extra, M.shape[1]))])
    assert _rank_outcome(rank_many, padded[None], thr) == _rank_outcome(rank_many, M[None], thr)


@st.composite
def _mask_sets(draw):
    """Distinct bitmasks over m = 1..12 rows, 0 to min(2^m, 200) of them:
    the small families take the pairwise test, the large ones the sum over
    subsets."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = draw(st.integers(0, min(1 << m, 200)))
    return rng.choice(1 << m, size=F, replace=False).astype(np.int64), m


@PINNED
@given(_mask_sets())
@example((np.array([3, 1, 6, 7], dtype=np.int64), 3))
@example((np.arange(1, 16, dtype=np.int64), 4))
def test_inclusion_minimal_branches_equal_reference(case):
    masks, m = case
    minimal = masks[_inclusion_minimal(masks, m)].tolist()
    assert sorted(minimal) == sorted(reference_inclusion_minimal(masks, m))


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


# io.render's conversion before the compact encode and the re-indent,
# verbatim: with json.dumps(..., indent=2), the reference every report must
# match byte for byte.
def reference_jsonable(obj):
    # exact types only: np.float64 subclasses float, np.bool_ converts below
    if type(obj) in (str, int, float, bool, type(None)):
        return obj
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(x) for x in obj]
    return obj


def _zero_d_as_scalars(obj):
    """obj with each 0-d array replaced by its scalar.  The reference cannot
    convert a 0-d array (it iterates the scalar that tolist() returns), and
    to_json writes the scalar."""
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return obj.item()
    if isinstance(obj, dict):
        return {k: _zero_d_as_scalars(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_zero_d_as_scalars(x) for x in obj]
    return obj


_JSON_CHARS = '"\\[]{},: \u00e9\n'
_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_ARRAY_DTYPES = st.sampled_from([np.float64, np.float32, np.int64, np.bool_])
_SHAPES = st.sampled_from([(), (0, 0), (0, 2), (2, 0), (1, 1), (2, 3)])
_JSON_LEAVES = (
    st.text(_JSON_CHARS, max_size=8)
    | _FLOATS
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([2**64, -(2**64) - 1, 0])
    | st.booleans()
    | st.none()
    | _FLOATS.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.tuples(_ARRAY_DTYPES, _SHAPES).flatmap(lambda ds: arrays(*ds))
)
_JSON_KEYS = st.text(_JSON_CHARS, max_size=6) | st.integers(-(2**70), 2**70)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_KEYS, inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(PINNED, max_examples=500)
@given(_JSON_DOCS)
@example({"a": [[], {}, [[{}], ()]], "": {"b": {}}})
@example(['\\"', '\\\\"', 'x\\\\\\"[,]{"', '\\', '",["'])
@example({'\\"': {"]": ["\\\\", np.zeros((2, 0)), np.float64(-0.0)]}, 7: np.array(True)})
def test_to_json_and_witness_line_equal_indent_2_reference(doc):
    """to_json writes json.dumps(x, indent=2) of the converted document and a
    newline; a witness line is json.dumps of the converted witness."""
    ref = reference_jsonable(_zero_d_as_scalars(doc))
    assert to_json(doc) == (json.dumps(ref, indent=2) + "\n").encode()
    witness = doc if isinstance(doc, dict) else {"w": doc}
    lines = certificate_lines([Certificate("D", True, witness)])
    if witness:
        ref = reference_jsonable(_zero_d_as_scalars(witness))
        assert lines[1] == f"  witness: {json.dumps(ref)}"
    else:
        assert lines == ["D: PASS"]


# check_type_d and check_type_o as they looped over every cross-block pair,
# verbatim but for their names: the reference for one boolean product (D)
# and the Gram screen with per-pair decisions (O).
def reference_check_type_d(J, blocks, tol: Tolerance | None = None) -> Certificate:
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


def reference_check_type_o(J, blocks, tol: Tolerance | None = None) -> Certificate:
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


_CROSS_TOLS = [Tolerance(), Tolerance(rel=0.3), Tolerance(rel=1e-15, abs=0.0), Tolerance(0.0, 0.0)]


@st.composite
def _cross_cases(draw):
    """(M, blocks, tol): 1-30 rows, 2-12 columns cut into 1-5 blocks.  Sparse
    integers (shared rows and exact zeros); Gaussians; orthonormal columns
    plus multiples of the first at about the relative threshold (inner
    products at the screen's edge); each with rows scaled by 2^+-60, or
    entries near the float limit or subnormal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 30)), draw(st.integers(2, 12))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    blocks = BlockSpec(tuple(np.diff([0, *cuts, n]).tolist()))
    tol = draw(st.sampled_from(_CROSS_TOLS))
    kind = draw(st.sampled_from(["integer", "gaussian", "orthogonal"]))
    if kind == "integer":
        M = rng.choice([0, 0, 0, 1, -1, 2], size=(m, n)).astype(float)
    elif kind == "gaussian":
        M = rng.standard_normal((m, n))
    else:
        m = max(m, n)
        Q = np.linalg.qr(rng.standard_normal((m, n)))[0]
        near = rng.choice([0.0, 1e-16, 0.5, 1.0, 1.0 + 1e-7, 2.0], size=n) * max(tol.rel, 1e-12)
        M = Q + np.outer(Q[:, 0], near)
    scaling = draw(st.sampled_from(["none", "rows", "huge", "tiny"]))
    if scaling == "rows":
        M = np.ldexp(M, rng.integers(-60, 61, size=(m, 1)))
    elif scaling == "huge":
        M = M * 1e154 * rng.choice([1.0, 1e100], size=(1, n))
    elif scaling == "tiny":
        M = M * 1e-160 * rng.choice([1.0, 1e-150], size=(1, n))
    return M, blocks, tol


# a pair whose Gram entry rounds to 0 and whose per-pair dot to 1 with
# numpy 2.4.6 and OpenBLAS 0.3.31: only the screen's slack keeps it
_ROUNDED_APART = np.array(
    [[1.0, 2.0**52], [1.0, 3.0], [1.0, -1.0], [1.0, 2.0**52], [1.0, -1.0], [1.0, -(2.0**53)]]
)


@settings(PINNED, max_examples=400)
@given(_cross_cases())
@example((_ROUNDED_APART, BlockSpec((1, 1)), Tolerance(0.0, 0.0)))
def test_type_d_and_o_equal_the_pairwise_loops(case):
    """The same report bytes, inner products and non-finite ones included,
    and the same pairs in the same order as the loops over _cross_pairs."""
    M, blocks, tol = case
    everywhere = np.ones((blocks.total, blocks.total), dtype=bool)
    assert _cross_hits(blocks, everywhere) == [(a, b) for _, _, a, b in _cross_pairs(blocks)]
    for check, reference in ((check_type_d, reference_check_type_d), (check_type_o, reference_check_type_o)):
        with np.errstate(over="ignore", invalid="ignore"):
            want = to_json(reference(M, blocks, tol).to_dict())
            assert to_json(check(M, blocks, tol).to_dict()) == want


# basis._order as it looped over the m rows, verbatim but for its name and
# docstring.
def reference_order(bits: np.ndarray, m: int) -> np.ndarray:
    size, reversed_ = np.zeros((2, len(bits)), dtype=np.int64)
    for i in range(m):
        size += bits >> i & 1
        reversed_ |= (bits >> i & 1) << (m - 1 - i)
    return np.lexsort((-reversed_, size))


@st.composite
def _bitmask_sets(draw):
    """Distinct bitmasks over m = 0..62 rows, in random order: uniform ones,
    and sparse ones so that sizes tie and the reversed order decides."""
    m = draw(st.integers(0, 62))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 80))
    if m == 0:
        return np.zeros(min(count, 1), dtype=np.int64), m
    bits = rng.integers(0, 1 << m, size=count, dtype=np.int64)
    sparse = rng.random((count, m)) < draw(st.sampled_from([0.05, 0.2, 0.5]))
    bits[::2] = (sparse[::2] * (1 << np.arange(m, dtype=np.int64))).sum(axis=1)
    bits = np.unique(bits)
    return bits[rng.permutation(len(bits))], m


@PINNED
@given(_bitmask_sets())
@example((np.array([(1 << 62) - 1, 1 << 61, 1, 0], dtype=np.int64), 62))
def test_order_equals_the_row_loop(case):
    bits, m = case
    assert _order(bits, m).tolist() == reference_order(bits, m).tolist()


# io's region and tensor writers as they called json.dump, verbatim but for
# their names: the reference for the chunked C-encoder writers.
def reference_write_tensor_json(path, T) -> None:
    T = np.asarray(T, dtype=float)
    payload = {"dims": list(T.shape), "entries": [float(x) for x in T.ravel()]}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def reference_write_region_json(path, region: GridRegion) -> None:
    payload = {"dims": list(region.dims), "occupied": region.occupied_1based()}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


@PINNED
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_region_and_tensor_files_equal_json_dump(tmp_path_factory, dims, density, seed):
    """Random regions (empty ones too) and tensors of the same dims (NaN,
    infinities, -0.0 and subnormals among the entries) are written byte for
    byte as json.dump writes them."""
    rng = np.random.default_rng(seed)
    region = GridRegion(dims, map(tuple, np.argwhere(rng.random(dims) < density).tolist()))
    T = rng.standard_normal(dims) * 10.0 ** rng.integers(-320, 300, size=dims)
    T.flat[rng.integers(0, T.size, size=3)] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=3)
    out = tmp_path_factory.mktemp("files")
    for write, reference, obj in (
        (write_region_json, reference_write_region_json, region),
        (write_tensor_json, reference_write_tensor_json, T),
    ):
        write(out / "new.json", obj)
        reference(out / "ref.json", obj)
        assert (out / "new.json").read_bytes() == (out / "ref.json").read_bytes()


def test_files_past_one_encoded_part_equal_json_dump(tmp_path):
    """A region and a tensor that span several encoded parts, and a last part
    of one item, are written as json.dump writes them."""
    region = rectangle((1, 2 * _PART + 1))
    T = np.random.default_rng(5).standard_normal((2 * _PART + 1, 1))
    for write, reference, obj in (
        (write_region_json, reference_write_region_json, region),
        (write_tensor_json, reference_write_tensor_json, T),
    ):
        write(tmp_path / "new.json", obj)
        reference(tmp_path / "ref.json", obj)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


# check_type_h, check_separability, check_support_union and
# extract_assignment as they looped over block pairs, blocks or columns,
# verbatim but for their names: the references for the block-maximum table
# (_block_max) behind H_n and the assignment, the one boolean product of the
# support unions, and the block images gathered once.
def reference_check_type_h(tensor, blocks, n: int = 2, tol: Tolerance | None = None) -> Certificate:
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


def reference_check_separability(
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


def reference_check_support_union(Jg, Jghat, B, tol: Tolerance | None = None) -> Certificate:
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


def reference_extract_assignment(
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


def _report(check, *args):
    """A certificate's report bytes, or the error the checker raised."""
    out = _outcome(check, *args)
    return to_json(out) if isinstance(out, dict) else out


# With rel 0.5 and a largest entry of 2, or with abs 1 and rel 0, the
# threshold is exactly 1: entries of 1 sit on it and _ABOVE_ONE just above.
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
_LEVELS = [0.0, 0.0, 1.0, -1.0, _ABOVE_ONE, 2.0, -2.0]
_BLOCK_TOLS = [Tolerance(), Tolerance(rel=0.5), Tolerance(rel=0.0, abs=1.0)]


def _splits(draw, n: int) -> tuple[int, ...]:
    """Block sizes of a random split of n columns into 1-5 blocks."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    return tuple(np.diff([0, *cuts, n]).tolist())


@st.composite
def _cross_tensor_cases(draw):
    """(T, blocks, n, tol): an order-2 or 3 derivative tensor of 1-3 outputs,
    not symmetric, over K = 1..5 blocks of uneven sizes 1-3.  Entries are
    _LEVELS at a drawn density, all zero at density 0; equal entries tie, so
    the C order of the first largest one decides the witness."""
    n = draw(st.sampled_from([2, 3]))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)),) + (sum(sizes),) * n
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    T = rng.choice(_LEVELS, size=shape) * (rng.random(shape) < density)
    return T, sizes, n, draw(st.sampled_from(_BLOCK_TOLS))


@settings(PINNED, max_examples=300)
@given(_cross_tensor_cases())
def test_type_h_equals_the_block_pair_loop(case):
    T, blocks, n, tol = case
    assert _report(check_type_h, T, blocks, n, tol) == _report(
        reference_check_type_h, T, blocks, n, tol
    )


@st.composite
def _assignment_cases(draw):
    """(B, source blocks, target blocks, tol): B carries 1-4 source blocks of
    sizes 1-3 onto a permutation of them, each by an upper-triangular block
    with 2 on its diagonal, plus _LEVELS entries anywhere at a drawn density (B may turn
    singular); the target split is that permutation of the sizes or another
    split of the columns."""
    src = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    order = draw(st.permutations(range(len(src))))
    tgt = [src[o] for o in order]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(src)
    row, col = np.cumsum([0, *src]), np.cumsum([0, *tgt])
    B = np.zeros((n, n))
    for j, o in enumerate(order):
        s = src[o]
        B[row[o] : row[o] + s, col[j] : col[j] + s] = 2 * np.eye(s) + np.triu(rng.choice(_LEVELS, (s, s)), 1)
    density = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    B += rng.choice(_LEVELS, (n, n)) * (rng.random((n, n)) < density)
    if draw(st.booleans()):
        tgt = _splits(draw, n)
    return B, tuple(src), tuple(tgt), draw(st.sampled_from(_BLOCK_TOLS))


@settings(PINNED, max_examples=300)
@given(_assignment_cases())
def test_assignment_equals_the_block_pair_loop(case):
    B, src, tgt, tol = case
    assert _report(extract_assignment, B, src, tgt, tol) == _report(
        reference_extract_assignment, B, src, tgt, tol
    )


_PAIR = np.array([[2.0, 1.0], [2.0, -1.0]])


@st.composite
def _union_cases(draw):
    """(Jg, Jghat, B, tol) with Jghat = Jg B exactly: Jg sparse integers of
    1-6 rows and 1-6 columns, zero columns among them at times.  B is a
    column permutation of two unit-triangular integer factors (invertible),
    integers in -2..2, or 2x2 blocks [[2, 1], [2, -1]] with rows and columns
    permuted: at rel 0.5 their second columns select no source column,
    though B has full rank.  At times one column of B is zero (singular)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    Jg = rng.choice([0.0, 0.0, 1.0, -1.0, 2.0], (m, n))
    Jg[:, rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    kind = draw(st.sampled_from(["triangular", "integer", "pairs"]))
    if kind == "triangular":
        upper, lower = (np.eye(n) + np.triu(rng.choice([0.0, 0.0, 1.0, -1.0, 2.0], (n, n)), 1) for _ in "ul")
        B = (upper @ lower.T)[:, rng.permutation(n)]
    elif kind == "integer":
        B = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0], (n, n))
    else:
        B = np.kron(np.eye(n // 2 + 1), _PAIR)[:n, :n]
        B = B[rng.permutation(n)][:, rng.permutation(n)]
    if not draw(st.integers(0, 5)):
        B[:, rng.integers(n)] = 0.0
    return Jg, Jg @ B, B, draw(st.sampled_from([Tolerance(), Tolerance(rel=0.5)]))


@settings(PINNED, max_examples=300)
@given(_union_cases())
@example((np.array([[1.0, -1.0]]), np.array([[0.0, 2.0]]), _PAIR, Tolerance(rel=0.5)))
def test_support_union_equals_the_column_loop(case):
    """In the example B has full rank, yet its second column has no entry
    above B's threshold, 1: that column's expected union is empty and its
    support is not."""
    Jg, Jghat, B, tol = case
    assert _report(check_support_union, Jg, Jghat, B, tol) == _report(
        reference_check_support_union, Jg, Jghat, B, tol
    )


@st.composite
def _separability_cases(draw):
    """(tensors, blocks, n, tol): derivative tensors of orders 1..n (n = 2
    or 3) of 1-4 outputs over K = 1..4 blocks of sizes 1-3, sparse integers,
    the highest order not symmetric; at times the first order is zero (a
    critical point) or one block's within-block image is (a degenerate
    block).  Planted cases give output x to block x mod K alone: the highest
    order is zero off its block's within-block slices, and the lower orders
    zero at times, so that separability can hold."""
    n = draw(st.sampled_from([2, 3]))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_x, d_s = draw(st.integers(1, 4)), sum(sizes)
    density = draw(st.sampled_from([0.3, 0.6])) / d_s ** (n - 2)
    shapes = [(d_x,) + (d_s,) * k for k in range(1, n + 1)]
    tensors = [rng.choice([1.0, -1.0, 2.0], s) * (rng.random(s) < density) for s in shapes]
    if draw(st.booleans()):
        block = np.repeat(np.arange(len(sizes)), sizes)
        owner = np.arange(d_x) % len(sizes)
        planted = (owner[:, None, None] == block[:, None]) & (block[:, None] == block)
        tensors[-1] *= planted.reshape(planted.shape + (1,) * (n - 2))
        for lower in tensors[:-1]:
            lower *= draw(st.sampled_from([0.0, 1.0]))
    if draw(st.booleans()):
        tensors[0][:] = 0.0
    if not draw(st.integers(0, 3)):
        k = draw(st.integers(0, len(sizes) - 1))
        a, b = sum(sizes[:k]), sum(sizes[: k + 1])
        tensors[-1][:, a:b, a:b] = 0.0
    return tensors, sizes, n, draw(st.sampled_from([Tolerance(), Tolerance(rel=0.3)]))


@settings(PINNED, max_examples=200)
@given(_separability_cases())
def test_separability_equals_the_per_block_images(case):
    tensors, blocks, n, tol = case
    assert _report(check_separability, tensors, blocks, n, tol) == _report(
        reference_check_separability, tensors, blocks, n, tol
    )


# io's matrix CSV reader and writer, its tensor reader and topology's cell
# array as they converted cell by cell, verbatim but for their names: the
# references for the whole-file conversions.
def reference_read_matrix_csv(path) -> np.ndarray:
    """Plain CSV of numbers; parse failures point at the line and column."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader, end = csv.reader(fh), 0
        for record in reader:
            # a record starts on the line after the previous record's last
            lineno, end = end + 1, reader.line_num
            if not record or all(not cell.strip() for cell in record):
                continue
            parsed = []
            for colno, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise InvalidInput(
                        f"{path}: line {lineno}, column {colno}: not a number: {cell!r}"
                    )
                if not math.isfinite(value):
                    raise InvalidInput(
                        f"{path}: line {lineno}, column {colno}: non-finite value"
                    )
                parsed.append(value)
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InvalidInput(
                    f"{path}: line {lineno}: expected {width} columns, got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise InvalidInput(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def reference_write_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M:
            writer.writerow([repr(float(x)) for x in row])


def reference_read_tensor_json(path) -> np.ndarray:
    """Tensor format: {"dims": [...], "entries": [row-major flat list]}.

    dims must be a nonempty list of positive integers and entries a flat list
    of JSON numbers; a scalar, bool, string, null or nested value in either
    is InvalidInput naming the dims or the first bad entry."""
    data = _read_json(path, "tensor", "entries")
    dims = data["dims"]
    entries = data["entries"]
    if (
        not isinstance(dims, list)
        or not dims
        or any(type(d) is not int or d < 1 for d in dims)
    ):
        raise InvalidInput(f"{path}: dims must be positive integers, got {dims!r}")
    if not isinstance(entries, list):
        raise InvalidInput(
            f"{path}: entries must be a flat list of numbers, got {type(entries).__name__}"
        )
    for i, e in enumerate(entries):
        if type(e) not in (int, float):
            raise InvalidInput(f"{path}: entry {i} is not a number: {e!r}")
    expected = math.prod(dims)
    if len(entries) != expected:
        raise InvalidInput(
            f"{path}: dims {dims} need {expected} entries, got {len(entries)}"
        )
    try:
        T = np.array(entries, dtype=float).reshape(dims)
    except OverflowError:
        raise InvalidInput(f"{path}: non-finite tensor entries")
    if not np.all(np.isfinite(T)):
        raise InvalidInput(f"{path}: non-finite tensor entries")
    return T


def reference_cell_array(rows: list, K: int) -> np.ndarray:
    """Cells given as K integers each, as an (N, K) int64 array in input order.

    A float, string, bool or null coordinate, a wrong arity, or an integer
    beyond int64 is InvalidInput, naming the first such cell."""
    if not rows:
        return np.zeros((0, K), dtype=np.int64)
    arr = None
    try:
        kinds = set(map(type, chain.from_iterable(rows)))
        if all(t is int or issubclass(t, np.integer) for t in kinds):
            arr = np.array(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        pass
    if arr is None or arr.shape != (len(rows), K):
        bad = next((r for r in rows if not _is_cell(r, K)), rows[0])
        raise InvalidInput(f"cell {bad!r} must be {K} integer coordinates")
    return arr


def _converted(convert, *args):
    """An array's dtype, shape and bytes, or the error convert raised."""
    try:
        A = convert(*args)
    except (MechIndepError, csv.Error, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return A.dtype.str, A.shape, A.tobytes()


# cells float() and numpy both parse to a finite value, and cells that one
# of the checks rejects: non-finite, unparsable, or quoted around a comma
_GOOD_CELLS = [
    " 1 ", "1_0", "+1", "-2.5", "1e5", "1E-3", "1e-400", "-0", ".5", "5.",
    "١٢", "１", "٣e٢", "\xa07\t", '"1.5"', '" 2 "',
]
_BAD_CELLS = [
    "1e400", "-1e400", "nan", "-inf", "Infinity", '"1,5"', "0x10", "1__0",
    "_1", "x", "", " ", "1d5", "1j",
]


@st.composite
def _csv_texts(draw):
    """CSV text of 0-6 lines: rows of one width (1-4 cells), at times a
    ragged row or a blank or whitespace-only one; LF, CRLF or CR line ends,
    with or without a last one.  Half the files hold only finite numbers
    (in Python's and numpy's spellings, quoted at times); the rest draw
    bad cells and short strings of any characters too."""
    width = draw(st.integers(1, 4))
    pools = [st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(_GOOD_CELLS)]
    if draw(st.booleans()):
        pools += [st.sampled_from(_BAD_CELLS), st.text(st.characters(exclude_categories=("Cs",)), max_size=3)]
    cell = st.one_of(pools)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", " , ", ",,", "\t"])))
        else:
            w = draw(st.integers(1, 5)) if kind == 1 else width
            lines.append(",".join(draw(st.lists(cell, min_size=w, max_size=w))))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(PINNED, max_examples=400)
@given(_csv_texts())
@example("1,2\r\n\r\n \"3\" ,1_0\r\n")
@example("1,2\nx,4\n5\n")
@example("1,2\n3\nx,4\n")
@example("1,2\n3,nan\n5\n")
@example("1,2\n  ,  \n١,+1e-3\n")
@example(" , \n\n")
@example('1,2\n"3\n",4\nx,5\n')
def test_matrix_csv_reader_equals_the_cell_loop(tmp_path_factory, text):
    """The same matrix bytes, or the same error: the bad cell before a
    ragged row and the ragged row before a bad cell each raise first."""
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(text.encode())
    assert _converted(read_matrix_csv, path) == _converted(reference_read_matrix_csv, path)


@PINNED
@given(arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=st.floats()))
@example(np.array([[-0.0, 5e-324, 1e308, -1e308], [np.inf, -np.inf, np.nan, 2.2250738585072014e-308]]))
def test_matrix_csv_writer_equals_csv_writer(tmp_path_factory, M):
    out = tmp_path_factory.mktemp("csv")
    write_matrix_csv(out / "new.csv", M)
    reference_write_matrix_csv(out / "ref.csv", M)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


_ODD_ENTRIES = [True, False, None, "1", [1.0], {"a": 1}, 10**400, -(10**400), 2**63]


@PINNED
@given(
    st.lists(
        st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.sampled_from(_ODD_ENTRIES)),
        max_size=8,
    ),
    st.booleans(),
    st.sampled_from([None, [], [0], [2.0], [True, 1], "4"]),
)
def test_tensor_reader_equals_the_entry_loop(tmp_path_factory, entries, fit, odd_dims):
    """Entries of every JSON type, under dims that fit them or not: the same
    tensor, or the same message naming the first bad entry or the dims."""
    dims = [len(entries), 1] if fit else odd_dims or [len(entries) + 1]
    path = tmp_path_factory.mktemp("tensor") / "t.json"
    path.write_text(json.dumps({"dims": dims, "entries": entries}))
    assert _converted(read_tensor_json, path) == _converted(reference_read_tensor_json, path)


_ODD_COORDS = [True, 1.0, "1", None, [1], 0, 4, 2**63, -(2**63) - 1, np.int32(2), np.uint64(2**64 - 1)]


@st.composite
def _occupied_lists(draw):
    """(dims, occupied): 1-3 axes of length 3 and 0-5 cells, most of them
    K coordinates in the grid; at times a coordinate of another type, out
    of the grid or beyond int64, a cell of another arity, or a row that is
    a tuple, range, array, set, dict, bytes, string or number."""
    K = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(1, 3), st.integers(1, 3), st.sampled_from(_ODD_COORDS))
    row = st.one_of(
        st.lists(coord, min_size=K, max_size=K),
        st.lists(st.integers(1, 3), min_size=K, max_size=K),
        st.lists(st.integers(1, 3), min_size=K, max_size=K).map(tuple),
        st.lists(coord, max_size=4),
        st.sampled_from([range(1, K + 1), np.arange(1, K + 1), set(range(1, K + 1))]),
        st.sampled_from([dict.fromkeys(range(1, K + 1), 0), bytes(range(1, K + 1)), "1" * K, 5]),
    )
    return [3] * K, draw(st.lists(row, max_size=5))


@settings(PINNED, max_examples=300)
@given(_occupied_lists())
@example(([3, 3], [[1, 2], {1: 0, 2: 0}]))
@example(([3, 3], [[1, 2], [2**63, 1]]))
def test_region_cells_equal_the_nested_list_array(case):
    """from_occupied on the one fromiter and on np.array over nested lists:
    the same cells and keys, or the same message naming the same cell."""
    dims, occupied = case

    def outcome():
        try:
            r = GridRegion.from_occupied(dims, occupied)
        except InvalidInput as exc:
            return str(exc)
        return r.coords.tolist(), r.key.tolist()

    new = outcome()
    with mock.patch.object(topology, "_cell_array", reference_cell_array):
        assert new == outcome()


# io's region reader and topology's cell array as they read every region
# file through json, verbatim but for their names: the references for the
# files in json.dump's layout read straight into one int64 array.
def reference_read_json(path, kind: str, second: str) -> dict:
    """The JSON object of a tensor or region file (kind), InvalidInput unless
    it parses and has the keys 'dims' and second."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict) or "dims" not in data or second not in data:
        raise InvalidInput(f"{path}: {kind} JSON needs 'dims' and '{second}'")
    return data


def reference_fromiter_cell_array(rows: list, K: int) -> np.ndarray:
    """Cells given as K integers each, as an (N, K) int64 array in input order.

    A float, string, bool or null coordinate, a wrong arity, or an integer
    beyond int64 is InvalidInput, naming the first such cell."""
    arr = None
    try:
        kinds = set(map(type, chain.from_iterable(rows)))
        kinds |= {t for t in set(map(type, rows)) if issubclass(t, _NOT_ROWS)}
        if all(t is int or issubclass(t, np.integer) for t in kinds) and {*map(len, rows)} <= {K}:
            arr = np.fromiter(chain.from_iterable(rows), np.int64, count=len(rows) * K)
    except (TypeError, ValueError, OverflowError):
        pass
    if arr is None:
        bad = next((r for r in rows if not _is_cell(r, K)), rows[0])
        raise InvalidInput(f"cell {bad!r} must be {K} integer coordinates")
    return arr.reshape(len(rows), K)


def reference_read_region_json(path) -> GridRegion:
    """Region format: {"dims": [...], "occupied": [[1-based coords], ...]}."""
    data = reference_read_json(path, "region", "occupied")
    return GridRegion.from_occupied(data["dims"], data["occupied"])


def _nth(text: str, pattern: str, n: int, new, after: str = '"occupied"') -> str:
    """text with the n-th match (mod their count) of pattern after the first
    after replaced by new, or by what new makes of the match; text itself
    when nothing matches."""
    at = max(text.find(after), 0)
    found = list(re.finditer(pattern, text[at:]))
    if not found:
        return text
    m = found[n % len(found)]
    return text[: at + m.start()] + (new if isinstance(new, str) else new(m)) + text[at + m.end() :]


# edits of a region file's text: tokens for a coordinate, for a cell, for
# dims, for the whole text and for its end
_ODD_COORDS_TEXT = ["01", "00", "007", "-1", "-0", "1.0", "1e2", "1E2", "true", "null", '"1"', "[]", "[1]", "0"]
_ODD_CELLS_TEXT = ["[]", "[1]", "[[1, 2]]", "[[1], [2]]", "1", "[1, 2, 3, 4, 5]", "{}", "[1,2]", "[ 1, 2]"]
_ODD_DIMS_TEXT = ["[]", "3", "[0]", "[2.0]", "[true]", '["2"]', "[-1]", f"[{2**63}]", "[[2]]", "null", "[2,3]", "[ 2, 3 ]"]
_TEXT_EDITS = [
    lambda t: "\ufeff" + t,  # a BOM
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.rstrip("\n"),
    lambda t: t + "\n",
    lambda t: t + " ",
    lambda t: t + "x",
    lambda t: t.rstrip("\n") + "]",
    lambda t: " " + t,
    lambda t: t.replace("{", '{"x": 1, ', 1),  # an extra key first
    lambda t: t[: t.rindex("}")] + ', "x": [[1]]' + t[t.rindex("}") :],  # and last
    lambda t: t.replace("{", '{"dims": [1], ', 1),  # a duplicate key, overridden
    lambda t: t[: t.rindex("}")] + ', "dims": [99]' + t[t.rindex("}") :],  # and overriding
    lambda t: t[: t.rindex("}")] + ', "occupied": [[1]]' + t[t.rindex("}") :],
    lambda t: t.replace('"occupied"', '"occupy"'),
    lambda t: re.sub(r'("occupied":\s*)\[.*\]', r"\1[]", t, flags=re.S),  # no cells
]
# a separator of the listing, and what replaces it
_ODD_SEPARATORS = [
    (r"\[\[", "[ ["), (r"\[\[", "{["), (r"\]\]", "] ]"), (r"\]\]", "]}"),
    (", ", ","), (", ", ",  "), (", ", " ,"), (", ", ",,"), (", ", "; "),
    (r"\], \[", "],["), (r"\], \[", "] ,["), (r"\], \[", "}, {"), (r"\], \[", "], [ "),
    # a digit moved across the separator after or before it
    (r"\d\D", lambda m: m[0][::-1]), (r"\D\d", lambda m: m[0][::-1]),
]
_LAYOUTS = {
    "written": None,
    "dump": {},
    "compact": {"separators": (",", ":")},
    "indent": {"indent": 2},
}


@st.composite
def _region_edits(draw):
    """(dims, cells, layout, edits): a region of 1-4 axes, most of length at
    most 12, some long enough for 18- and 19-digit coordinates or a grid
    beyond int64; its 1-based cells in draw order (with repeats), to be
    written by write_region_json, by json.dumps in its default layout,
    compact, indented or with the keys swapped; then 0-3 edits of the text:
    an odd token for a coordinate (a leading zero, a sign, a fraction, an
    exponent, a bool, null, a string, a list, 19-25 digits), for a cell (no,
    fewer, more or nested coordinates, other spacing) or for dims, another
    separator in the listing or a digit moved across one, or an edit of the
    whole text (a BOM, CRLF, no or another end, trailing garbage, an extra,
    duplicate or missing key, no cells)."""
    K = draw(st.integers(1, 4))
    long = st.sampled_from([10**17, 10**18, 2**40, 2**62, 2**63 - 1])
    dims = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 12), long), min_size=K, max_size=K))
    cells = draw(st.lists(st.tuples(*(st.integers(1, d) for d in dims)).map(list), min_size=1, max_size=8))
    layout = draw(st.sampled_from([*_LAYOUTS, "written", "dump", "swapped"]))
    n = st.integers(0, 40)
    edit = st.one_of(
        st.tuples(n, st.one_of(st.sampled_from(_ODD_COORDS_TEXT), st.integers(10**18, 10**25 - 1).map(str))).map(
            lambda a: lambda t: _nth(t, r"\d+", a[0], a[1])
        ),
        st.tuples(n, st.sampled_from(_ODD_CELLS_TEXT)).map(lambda a: lambda t: _nth(t, r"\[[^\[\]]*\]", a[0], a[1])),
        st.sampled_from(_ODD_DIMS_TEXT).map(lambda new: lambda t: _nth(t, r"\[[^\]]*\]", 0, new, '"dims"')),
        st.tuples(n, st.sampled_from(_ODD_SEPARATORS)).map(lambda a: lambda t: _nth(t, a[1][0], a[0], a[1][1])),
        st.sampled_from(_TEXT_EDITS),
    )
    return dims, cells, layout, draw(st.lists(edit, max_size=3))


def _region_outcome(read, path):
    """A region's dims, cells and key, or the error read raised."""
    try:
        r = read(path)
    except MechIndepError as exc:
        return type(exc).__name__, str(exc)
    return r.dims, r.coords.tolist(), r.key.dtype.str, r.key.tolist()


@settings(PINNED, max_examples=500)
@given(_region_edits())
@example(([3, 3], [[1, 2], [3, 3], [1, 2]], "written", []))
@example(([10**18, 2], [[10**18, 1]], "written", []))
@example(([10**17, 2], [[10**17, 2], [1, 1]], "dump", []))
@example(([2**63 - 1, 2**40, 3], [[2**62, 1, 1], [1, 2**40, 3]], "written", []))
@example(([10**17, 10**17, 3], [[10**17, 1, 3], [1, 10**17, 1]], "written", []))
@example(([12, 12], [[1, 12]], "dump", [lambda t: _nth(t, r"\d+", 0, "01")]))
@example(([12, 12], [[1, 12]], "dump", [lambda t: _nth(t, r"\d+", 1, "1" * 19)]))
@example(([12, 12], [[1, 12]], "dump", [lambda t: _nth(t, r"\d+", 1, "9" * 18)]))
@example(([12, 12], [[1, 12]], "dump", [lambda t: "\ufeff" + t]))
# a digit moved across a row separator or the listing's first "[", and a
# separator of its length
@example(([12], [[5]], "written", [lambda t: t.replace("[[5]]", "[5[]]")]))
@example(([12, 12], [[1, 2], [3, 4]], "dump", [lambda t: t.replace("], [3", "], 3[")]))
@example(([12, 12], [[1, 2], [3, 4]], "dump", [lambda t: t.replace("1, 2", "1; 2")]))
@example(([12, 12], [[1, 2], [3, 4]], "dump", [lambda t: t.replace("], [", "]  [")]))
def test_region_reader_equals_the_json_reader(tmp_path_factory, case):
    """The file read straight into one array when it is in json.dump's
    layout, and through json otherwise: the same region (dims, cells, key
    and key dtype) as json's reader and cell array, or the same error."""
    dims, cells, layout, edits = case
    path = tmp_path_factory.mktemp("region") / "r.json"
    if layout == "written":
        write_region_json(path, GridRegion.from_occupied(dims, cells))
        text = path.read_text()
    elif layout == "swapped":
        text = json.dumps({"occupied": cells, "dims": dims}) + "\n"
    else:
        text = json.dumps({"dims": dims, "occupied": cells}, **_LAYOUTS[layout]) + "\n"
    for edit in edits:
        text = edit(text)
    path.write_bytes(text.encode())
    # the layout json.dump writes takes the one-array path unless a
    # coordinate has 19 digits
    if layout in ("written", "dump") and not edits:
        listing = text[text.index('"occupied"') :]
        assert (_region_cells(text.encode()) is None) == bool(re.search(r"\d{19}", listing))
    new = _region_outcome(read_region_json, path)
    with mock.patch.object(topology, "_cell_array", reference_fromiter_cell_array):
        assert new == _region_outcome(reference_read_region_json, path)


# topology's union-find, slice report, premise report and CLI topology
# report as they were built from whole-array pointer jumps and per-slice
# objects, verbatim but for their names: the references for the jumps among
# the start's roots and the report held as arrays.
def reference_roots(n: int, edges, parent: np.ndarray | None = None) -> np.ndarray:
    """Components of the graph on vertices 0..n-1 with the given edges, a
    list of (lo, hi) integer index arrays: each vertex's root, the smallest
    vertex of its component.  A vertex is a root iff it is its own root.
    parent, if given, is _roots of a graph on the same vertices with a subset
    of the edges: the components of the union start from it, and it is not
    modified.

    Min-root hooking with pointer jumping (Shiloach & Vishkin 1982): hook every
    root onto the smallest root an edge joins it to, then jump pointers until
    each vertex points at its root; repeat until no edge joins two roots."""
    lo = np.concatenate([e[0] for e in edges])
    hi = np.concatenate([e[1] for e in edges])
    parent = np.arange(n, dtype=np.int32) if parent is None else parent.copy()
    while True:
        a, b = parent[lo], parent[hi]
        cross = a != b
        if not cross.any():
            return parent
        # A parent is never larger than its cell, in a given start too, so
        # hooking makes no cycle; each round hooks at least one root onto a
        # smaller index, so the number of roots falls every round and the
        # loop ends.  Edges inside one component stay inside it, so only
        # crossing edges are kept.
        lo, hi, a, b = lo[cross], hi[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def reference_slices_connected(region: GridRegion, k: int) -> SliceReport:
    """Connectivity verdict for every nonempty k-slice of the region.

    A k-slice picks k axes to stay free and one coordinate for each of the
    other axes; its cells inherit orthogonal adjacency in the free axes.
    Slices come in order of their free axes, then of their fixed coordinates.
    Each order's report is computed once per region.
    """
    if not len(region.coords):
        raise InvalidInput("empty region")
    K = region.K
    k = as_int(k, "slice order k", -math.inf)
    if not 1 <= k < K:
        raise InvalidInput(f"slice order {k} outside 1..{K - 1}")
    if k in region._reports:
        return region._reports[k]
    coords = region.coords
    cells = np.arange(len(coords))
    verdicts = []
    for free in combinations(range(K), k):
        fixed_axes = [a for a in range(K) if a not in free]
        # edges along the free axes never leave a slice, so each slice's
        # component count is the number of roots among its cells
        roots = region._roots_along(free) == cells
        # the key of the cells' fixed coordinates alone orders the slices by
        # those coordinates, as the key orders the cells
        fixed = coords[:, fixed_axes] @ region._strides[fixed_axes]
        _, first, group, sizes = np.unique(
            fixed, return_index=True, return_inverse=True, return_counts=True
        )
        comps = np.bincount(group[roots], minlength=len(first))
        keys = coords[first][:, fixed_axes]
        for key, c, size in zip(keys.tolist(), comps.tolist(), sizes.tolist()):
            verdicts.append(
                SliceVerdict(
                    spec=SliceSpec(fixed=tuple(zip(fixed_axes, key)), free_axes=free),
                    connected=c == 1,
                    cell_count=size,
                )
            )
    all_ok = all(v.connected for v in verdicts)
    region._reports[k] = SliceReport(k=k, all_connected=all_ok, verdicts=tuple(verdicts))
    return region._reports[k]


def reference_premise_report(region: GridRegion) -> Certificate:
    """Bundle the two grid-checkable premises of the local-to-global
    disentanglement result: the region is connected and every (K-1)-slice is
    connected.  The injectivity premise cannot be read off a grid."""
    if not len(region.coords):
        raise InvalidInput("empty region")
    digest = inputs_digest(list(region.dims), _IntRows(region.coords))
    connected = is_connected(region)
    witness: dict = {"isConnected": connected, "dims": list(region.dims)}
    notes = [LOCAL_INJECTIVITY_NOTE, DISCRETIZATION_NOTE]
    if region.K >= 2:
        rep = reference_slices_connected(region, region.K - 1)
        witness["sliceOrder"] = rep.k
        witness["slicesAllConnected"] = rep.all_connected
        witness["sliceCount"] = len(rep.verdicts)
        witness["failingSlices"] = [
            {"fixed": v.spec.fixed_1based(), "cells": v.cell_count}
            for v in rep.failing()
        ]
        holds = connected and rep.all_connected
    else:
        witness["slicesAllConnected"] = None
        notes.append("single-axis region: slice premise is vacuous")
        holds = connected
    return Certificate(
        criterion="premises",
        holds=holds,
        witness=witness,
        notes=tuple(notes),
        inputs_digest=digest,
    )


def reference_run_topology(args: argparse.Namespace):
    region = read_region_json(args.input_path)
    cert = reference_premise_report(region)
    header = {"command": "topology", "input": args.input_path}
    payload = {"certificates": [cert.to_dict()]}
    if args.slices is not None:
        rep = reference_slices_connected(region, args.slices)
        payload["slices"] = {
            "k": rep.k,
            "allConnected": rep.all_connected,
            "slices": [
                {
                    "fixed": v.spec.fixed_1based(),
                    "connected": v.connected,
                    "cells": v.cell_count,
                }
                for v in rep.verdicts
            ],
        }

    def lines():
        yield from certificate_lines([cert])
        if args.slices is None:
            return
        yield f"slice k={rep.k} allConnected={'true' if rep.all_connected else 'false'}"
        for v in rep.verdicts:
            fixed = ",".join(f"{a}={c}" for a, c in sorted(v.spec.fixed_1based().items()))
            yield (
                f"  slice [{fixed}]: {'connected' if v.connected else 'DISCONNECTED'}"
                f" ({v.cell_count} cells)"
            )

    return (0 if cert.holds else 1), render(args.fmt, header, payload, lines)


@st.composite
def _edge_lists(draw):
    """(n, start edges, edges): 1-60 vertices and 0-80 edges, some of them
    loops or repeats, in int32 or intp arrays; a prefix of them, possibly
    none, labels the start and the rest come in 1-3 (lo, hi) groups."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    arr = np.array(pairs, dtype=draw(st.sampled_from([np.int32, np.intp]))).reshape(-1, 2)
    cut = draw(st.integers(0, len(arr)))
    cuts = sorted(draw(st.lists(st.integers(cut, len(arr)), max_size=2)))
    groups = [(g[:, 0], g[:, 1]) for g in np.split(arr[cut:], [c - cut for c in cuts])]
    return n, (arr[:cut, 0], arr[:cut, 1]), groups


@settings(PINNED, max_examples=400)
@given(_edge_lists())
@example((4, (np.array([0]), np.array([1])), [(np.array([1]), np.array([2]))]))
@example((5, (np.array([4, 3]), np.array([3, 2])), [(np.array([2, 1]), np.array([1, 0]))]))
def test_roots_equal_the_whole_array_jumps(case):
    """_roots with no start, and from a start that is the reference
    labelling of some of the edges, gives the reference's label array
    (values and dtype) and leaves the start unwritten; both are the
    labelling of all the edges."""
    n, (lo, hi), groups = case
    want = reference_roots(n, groups)
    got = _roots(n, groups)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    start = reference_roots(n, [(lo, hi)])
    start.flags.writeable = False
    before = start.copy()
    got = _roots(n, groups, start)
    want = reference_roots(n, groups, start)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(start, before)
    assert np.array_equal(got, reference_roots(n, [(lo, hi), *groups]))


@st.composite
def _slice_regions(draw):
    """(dims, cells): 2-4 axes, each cell of a window of up to 4 cells per
    axis occupied with a drawn probability; a third of the grids have a
    volume beyond int64, with the window at a random offset."""
    K = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 2)) == 0:
        dims = [2**62] + [int(d) for d in rng.choice([3, 2**31, 2**40, 2**62], size=K - 1)]
    else:
        dims = [int(d) for d in rng.integers(1, 5, size=K)]
    window = np.minimum(dims, rng.integers(1, 5, size=K))
    offset = np.array([rng.integers(0, d - w + 1) for d, w in zip(dims, window.tolist())])
    share = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    inside = np.argwhere(rng.random(window) < share)
    cells = (inside + offset if len(inside) else offset[None, :]).tolist()
    return dims, cells


@settings(PINNED, max_examples=150)
@given(_slice_regions())
@example(([2**40, 2**40, 3], [[0, 0, 0], [0, 0, 1], [2**40 - 1, 2**40 - 1, 2]]))
@example(([4, 3, 2, 2], [[1, 0, 0, 0], [1, 2, 0, 0], [0, 1, 1, 1], [3, 1, 1, 1]]))
def test_slice_reports_equal_the_per_slice_objects(tmp_path_factory, case):
    """Every order's report held as arrays has the reference's verdicts
    tuple, all_connected and failing(), and equals it and a second build;
    the topology report of every order, in JSON and text, has the
    reference's bytes and exit code."""
    dims, cells = case
    for k in range(1, len(dims)):
        got, again = (slices_connected(GridRegion(dims, cells), k) for _ in range(2))
        with mock.patch.object(topology, "_roots", reference_roots):
            want = reference_slices_connected(GridRegion(dims, cells), k)
        assert type(got.verdicts) is tuple and got.verdicts == want.verdicts
        assert got.all_connected is want.all_connected
        assert got.failing() == want.failing()
        assert got == again == want and hash(got) == hash(want)
    path = tmp_path_factory.mktemp("slices") / "region.json"
    write_region_json(path, GridRegion(dims, cells))
    for k in range(1, len(dims)):
        for fmt in ("json", "text"):
            args = cli._build_parser().parse_args(
                ["topology", "--slices", str(k), "--format", fmt, str(path)]
            )
            got = cli.run(args)
            with mock.patch.object(topology, "_roots", reference_roots):
                assert got == reference_run_topology(args)
