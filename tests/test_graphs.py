"""Factor graphs, rank-additive partitions, and the block-structure audit."""

import sys
from collections import Counter

import numpy as np
import pytest

from mechindep import graphs
from mechindep.basis import BlockSpec
from mechindep.criteria import check_type_d_irreducible
from mechindep.core import Tolerance, rank
from mechindep.errors import DegenerateColumn, GenerationError, InternalError, InvalidInput
from mechindep.graphs import (
    _sampled_counts,
    block_structure_audit,
    blocks_from_components,
    build_graph,
    components,
    finest_rank_additive_partition,
    to_dot,
)
from mechindep.synth import OverlapTemplate, gen_overlap_jacobian

from golden import GOLDEN, MAT_DISJOINT
from oracles import oracle_components, oracle_finest_partition


def _planted(rng, sizes, rows_per, lo=-3, hi=4):
    """Block-diagonal integer matrix with dense nonzero blocks."""
    total = sum(sizes)
    M = np.zeros((rows_per * len(sizes), total))
    row = 0
    col = 0
    for s in sizes:
        while True:
            B = rng.integers(lo, hi, size=(rows_per, s)).astype(float)
            if np.linalg.matrix_rank(B) == s and np.all(np.abs(B).sum(axis=1) > 0):
                break
        M[row : row + rows_per, col : col + s] = B
        row += rows_per
        col += s
    return M


def test_d_graph_components_match_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        comps = components(build_graph(M, "D"))
        assert [set(c) for c in comps] == [set(c) for c in gold["d_components"]], name


def test_d_graph_matches_adjacency_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        M = rng.integers(-2, 3, size=(5, 4)).astype(float)
        if np.abs(M).max() == 0:
            continue
        g = build_graph(M, "D")
        sups = [set(np.flatnonzero(np.abs(M[:, j]) > 0)) for j in range(4)]
        edges = {
            (a + 1, b + 1)
            for a in range(4)
            for b in range(a + 1, 4)
            if sups[a] & sups[b]
        }
        assert set(g.edges) == edges
        assert [set(c) for c in components(g)] == [
            set(x + 1 for x in c) for c in oracle_components(4, edges={(a - 1, b - 1) for a, b in edges})
        ]


def test_m_graph_and_degenerate_column():
    A = np.array(GOLDEN["A"]["matrix"], dtype=float)
    g = build_graph(A, "M")
    assert g.edges == frozenset()          # both columns pitchfork
    assert len(components(g)) == 2
    with pytest.raises(DegenerateColumn):
        build_graph(np.array([[1.0, 0.0], [2.0, 0.0]]), "M")


def test_h2_graph_components():
    T = np.zeros((2, 3, 3))
    T[0, 0, 0] = 1.0
    T[1, 1, 2] = 2.0
    T[1, 2, 1] = 2.0
    g = build_graph(T, "H2")
    assert g.edges == frozenset({(2, 3)})
    assert [set(c) for c in components(g)] == [{1}, {2, 3}]


def test_two_partitions_of_diagonal():
    cert = check_type_d_irreducible(np.diag([1.0, 2.0, 3.0]), (3,), 1)
    assert not cert.holds
    # three singleton groups: {1}|{2,3}, {1,2}|{3}, {1,3}|{2}
    assert cert.witness["splitCount"] == 3
    assert cert.witness["rowSplit"] == [[1], [2, 3]]


def test_golden_a_admits_no_partition():
    A = np.array(GOLDEN["A"]["matrix"], dtype=float)
    fin = finest_rank_additive_partition(A)
    assert len(fin.groups) == GOLDEN["A"]["finest_parts"] == 1
    assert check_type_d_irreducible(A, (2,), 1).holds


def test_finest_partition_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        M = rng.integers(-2, 3, size=(m, n)).astype(float)
        if np.abs(M).max() == 0:
            continue
        got = finest_rank_additive_partition(M)
        want = oracle_finest_partition([[int(x) for x in row] for row in M])
        got_nz = sorted(
            sorted(r for r in g if np.abs(M[r - 1]).max() > 0) for g in got.groups
        )
        got_nz = [g for g in got_nz if g]
        want1 = sorted(sorted(r + 1 for r in g) for g in want)
        assert got_nz == want1, M


def test_zero_rows_join_first_group():
    M = np.array(MAT_DISJOINT, dtype=float)
    M2 = np.vstack([M, np.zeros((1, 2))])
    fin = finest_rank_additive_partition(M2)
    assert [list(g) for g in fin.groups] == [[1, 2, 5], [3, 4]]


def test_partition_guards():
    # no row cap: the partition costs at most m + (m - r) * r eliminations
    fin = finest_rank_additive_partition(np.eye(17))
    assert fin.groups == tuple((r,) for r in range(1, 18))
    M, _, _ = gen_overlap_jacobian(
        OverlapTemplate(K=4, slot_dim=3, slot_out=15, overlap_ratio=0.0, seed=0)
    )
    assert M.shape == (60, 12)
    cert = block_structure_audit(M, 4)
    assert cert.holds and cert.witness["maxComponents"] == 4


def test_audit_single_block_golden():
    A = np.array(GOLDEN["A"]["matrix"], dtype=float)
    cert = block_structure_audit(A, 1)
    assert cert.holds
    assert cert.witness["maxComponents"] == 1
    assert cert.witness["sampledMax"] <= 1
    assert cert.criterion == "blockStructure"


def test_audit_planted_blocks():
    rng = np.random.default_rng(17)
    M = _planted(rng, (2, 2), 4)
    good = block_structure_audit(M, 2)
    assert good.holds and good.witness["maxComponents"] == 2
    bad = block_structure_audit(M, 1)
    assert not bad.holds and bad.witness["maxComponents"] == 2
    # sampling route never exceeded the constructive maximum
    assert good.witness["sampledMax"] <= 2


def test_audit_routes_agree_on_random_matrices():
    rng = np.random.default_rng(29)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 9))
        M = rng.integers(-3, 4, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(M) < n:
            continue
        cert = block_structure_audit(M, 1, draws=40, seed=done)
        want = len(oracle_finest_partition([[int(x) for x in row] for row in M]))
        assert cert.witness["maxComponents"] == want
        done += 1


def test_audit_seed_determinism():
    rng = np.random.default_rng(31)
    M = _planted(rng, (2, 1), 3)
    a = block_structure_audit(M, 2, seed=5)
    b = block_structure_audit(M, 2, seed=5)
    assert a.to_dict() == b.to_dict()


def test_audit_rejects_negative_draws():
    M = np.eye(2)
    with pytest.raises(InvalidInput, match="draws"):
        block_structure_audit(M, 2, draws=-5)
    cert = block_structure_audit(M, 2, draws=0)
    assert cert.holds and cert.witness["sampledMax"] == 0 and cert.witness["draws"] == 0


def test_audit_rejects_negative_seed():
    with pytest.raises(InvalidInput, match="seed"):
        block_structure_audit(np.eye(2), 2, seed=-1)


def test_route_b_is_one_batched_call_each(monkeypatch):
    """Route b finds every group's null space in one null_space_many call,
    and ranks every group's rows and the witness basis in one rank_many
    call, whatever F is; core.rank runs only for the full-rank check."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code is block_structure_audit.__code__:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("null_space_many", "rank_many", "rank"):
        monkeypatch.setattr(graphs, name, counting(name, getattr(graphs, name)))
    block = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]])  # one circuit: one group
    for F in range(1, 6):
        M = np.vstack([np.kron(np.eye(F), block), np.zeros((1, 2 * F))])
        calls.clear()
        cert = block_structure_audit(M, F, draws=3)
        assert cert.holds and cert.witness["maxComponents"] == F
        assert calls == {"null_space_many": 1, "rank_many": 1, "rank": 1}, F


def _ranked_shapes(monkeypatch) -> list:
    """The shape of every stack graphs ranks from here on, appended as it goes."""
    shapes, ranks = [], graphs.rank_many

    def counted(stack, thr):
        shapes.append(np.shape(stack))
        return ranks(stack, thr)

    monkeypatch.setattr(graphs, "rank_many", counted)
    return shapes


def test_route_d_chunks_hold_the_searches_bound(monkeypatch):
    """Each chunk of draws holds as many as keep its products M R within
    CHUNK * MAX_ROWS * MAX_COLS entries, and never fewer than CHUNK: 200
    draws take one rank_many call on the 8x4 and two (160 + 40) on the
    16x8; a 40x8 keeps chunks of CHUNK."""
    shapes = _ranked_shapes(monkeypatch)
    for (K, d, o), want in (((2, 2, 4), [200]), ((4, 2, 4), [160, 40]), ((4, 2, 10), [128, 72])):
        M, _, _ = gen_overlap_jacobian(OverlapTemplate(K=K, slot_dim=d, slot_out=o))
        shapes.clear()
        _sampled_counts(M, K, Tolerance(), 200, 0)
        assert [s[0] for s in shapes] == want, M.shape


def _reference_route_d(M, F, tol, draws, seed):
    """Route d as the loop of one scalar rank and one graph per draw that the
    batched pass replaced, verbatim apart from recording every count, a failed
    redraw raising GenerationError, and an overflowing M R getting its own
    message."""
    n = M.shape[1]
    counts = []

    # route d: randomized invertible mixings can only under-count
    rng = np.random.default_rng(seed)
    sampled_max = 0
    for _ in range(draws):
        R = rng.standard_normal((n, n))
        attempts = 0
        while rank(R, tol) < n:
            R = rng.standard_normal((n, n))
            attempts += 1
            if attempts > 100:
                raise GenerationError("could not draw an invertible mixing")
        if not np.isfinite(M @ R).all():
            raise InvalidInput(
                "random mixing M R overflowed to non-finite entries; "
                "the matrix is too large in scale to mix, rescale it"
            )
        count = len(components(build_graph(M @ R, "D", tol)))
        counts.append(count)
        if count > F:
            raise InternalError(
                f"sampled mixing produced {count} components, exceeding the maximum {F}"
            )
        sampled_max = max(sampled_max, count)
    return counts


def _outcome(route, M, F, tol, draws, seed):
    try:
        return list(route(M, F, tol, draws, seed))
    except (GenerationError, InternalError, InvalidInput) as exc:
        return type(exc).__name__, str(exc)


def _route_d_cases():
    """(M, F, tol, draws, seed): planted instances at their maximum F, the
    8x4 with 700 draws, more than its one chunk of 640; np.eye(3) under
    tolerances at which many draws are singular (hundreds of redraws in 200
    draws at rel 0.3 and 0.6); at rel 0.8 and 0.9 a run of 101 singular
    draws comes after some invertible ones, and at rel 0.99 before any.  F
    below the counts makes the count error race the redraw error: at rel 0.9
    with seed 5 the count error comes first in the chunk of the failed
    redraw, and with seed 9 only draws after the failed redraw, in its
    chunk, exceed F = 2.  Last, M R overflows."""
    cases = []
    for seed, (K, d, o, ov) in enumerate([(2, 2, 4, 0.0), (3, 1, 3, 0.25), (4, 2, 4, 0.0),
                                          (2, 1, 6, 0.25), (5, 1, 3, 0.0)]):
        M, _, _ = gen_overlap_jacobian(
            OverlapTemplate(K=K, slot_dim=d, slot_out=o, overlap_ratio=ov, seed=seed)
        )
        F = len(finest_rank_additive_partition(M).groups)
        cases.append((M, F, Tolerance(), 700 if seed == 0 else 200, seed))
    for rel, seed in ((0.2, 0), (0.3, 0), (0.6, 0), (0.6, 4), (0.8, 0), (0.9, 2), (0.9, 5),
                      (0.9, 9), (0.99, 0)):
        for F in (3, 2, 0):
            cases.append((np.eye(3), F, Tolerance(rel=rel), 200, seed))
    cases.append((1e308 * np.eye(2), 2, Tolerance(), 200, 0))
    return cases


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_route_d_equals_reference_loop(monkeypatch):
    """Also with CHUNK 1, 2 and 3, whose chunks on np.eye(3) hold 17, 35 and
    53 draws, so that runs of singular draws cross chunk boundaries."""
    outcomes = []
    for M, F, tol, draws, seed in _route_d_cases():
        want = _outcome(_reference_route_d, M, F, tol, draws, seed)
        for chunk in (graphs.CHUNK, 1, 2, 3):
            with monkeypatch.context() as patched:
                patched.setattr(graphs, "CHUNK", chunk)
                assert _outcome(_sampled_counts, M, F, tol, draws, seed) == want, chunk
        outcomes.append(want)
    # every exit of the loop is exercised
    errors = {o[1].split()[0] for o in outcomes if isinstance(o, tuple)}
    assert errors == {"sampled", "could", "random"}
    assert sum(isinstance(o, list) for o in outcomes) >= 9
    # the audit reports the maximum of the counts
    for rel, want in ((0.2, 2), (0.3, 3), (0.6, 3)):
        cert = block_structure_audit(np.eye(3), 3, Tolerance(rel=rel))
        assert cert.witness["sampledMax"] == want
    with pytest.raises(GenerationError, match="could not draw an invertible mixing"):
        block_structure_audit(np.eye(3), 3, Tolerance(rel=0.99))
    with pytest.raises(InvalidInput, match="random mixing M R overflowed"):
        block_structure_audit(1e308 * np.eye(2), 2)


def test_to_dot_grammar():
    M = np.array(MAT_DISJOINT, dtype=float)
    g = build_graph(M, "D")
    dot = to_dot(g)
    assert dot.startswith("graph factors {")
    assert dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")
    assert dot.count("subgraph cluster_") == len(components(g)) == 2
    A = np.array(GOLDEN["A"]["matrix"], dtype=float)
    dot_a = to_dot(build_graph(A, "D"))
    assert "v1 -- v2;" in dot_a
    assert dot_a.count("subgraph cluster_") == 1


def test_blocks_from_components():
    assert blocks_from_components([(1, 2), (3,)]).sizes == (2, 1)
    assert blocks_from_components([(1, 3), (2,)]) is None
    assert blocks_from_components([(2, 3), (1,)]) is None
