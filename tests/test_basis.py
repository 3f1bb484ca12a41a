"""Sparsest-basis search: achievability, minimal supports, the three search
modes, and the sparsity gap, cross-checked against exact rational oracles;
byte pins at the size cap; inputs whose arithmetic overflows."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from mechindep import basis, core
from mechindep.basis import (
    BlockSpec,
    achievable,
    minimal_supports,
    pairwise_sparsity_gap,
    sparsest_basis,
    sparsity_gap,
)
from mechindep.core import Tolerance, l0_norm, null_space, rank
from mechindep.criteria import check_type_d
from mechindep.errors import InternalError, InvalidInput, RankError, SizeError
from mechindep.graphs import block_structure_audit
from mechindep.synth import OverlapTemplate, gen_overlap_jacobian

from golden import GOLDEN, MAT_DISJOINT, MAT_TRIANGLE
from oracles import (
    oracle_achievable,
    oracle_minimal_supports,
    oracle_mixing_cost,
    oracle_respecting_cost,
    oracle_sparsest_cost,
)


def _int_rows(M):
    return [[int(x) for x in row] for row in np.asarray(M)]


def _random_full_rank(rng, m, n, lo=-3, hi=4):
    while True:
        M = rng.integers(lo, hi, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(M) == n:
            return M


def test_blockspec_validation():
    b = BlockSpec((2, 3))
    assert b.K == 2 and b.total == 5
    assert b.ranges() == [[0, 1], [2, 3, 4]]
    assert b.block_of(0) == 0 and b.block_of(4) == 1
    with pytest.raises(InvalidInput):
        BlockSpec((0, 2))
    with pytest.raises(InvalidInput):
        BlockSpec(())


@pytest.mark.parametrize(
    "sizes", [(1.5, 1.5), (2.0, 2), (True, 1), ("1", 1), "a", (None,), None, 2, [np.bool_(True)]]
)
def test_blockspec_rejects_non_integer_sizes(sizes):
    with pytest.raises(InvalidInput, match="positive integers"):
        BlockSpec(sizes)
    with pytest.raises(InvalidInput, match="positive integers"):
        BlockSpec.coerce(sizes)


def test_blockspec_accepts_python_and_numpy_integers():
    for sizes in ((1, 1), [1, 1], np.array([1, 1]), (np.int32(1), np.uint8(1)), iter([1, 1])):
        spec = BlockSpec.coerce(sizes)
        assert spec.sizes == (1, 1) and all(type(s) is int for s in spec.sizes)


def test_fractional_blocks_do_not_pass_type_d():
    with pytest.raises(InvalidInput):
        check_type_d(np.eye(2), (1.5, 1.5))


def test_achievable_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n, 7))
        M = _random_full_rank(rng, m, n)
        for _ in range(6):
            size = int(rng.integers(1, m + 1))
            T = set(int(x) + 1 for x in rng.choice(m, size=size, replace=False))
            assert achievable(M, T) == oracle_achievable(_int_rows(M), set(t - 1 for t in T))


def test_triangle_singleton_not_achievable():
    M = np.array(MAT_TRIANGLE, dtype=float)
    assert not achievable(M, {1})
    assert achievable(M, {1, 2})


def test_achievable_support_indices_are_integers():
    M = np.array(MAT_TRIANGLE, dtype=float)
    assert achievable(M, [np.int64(1), np.int32(2)]) == achievable(M, {1, 2})
    for T in ([1.5, 2], ["1", 2], [True, 2], [None]):
        with pytest.raises(InvalidInput, match="support index must be an integer"):
            achievable(M, T)
    for T in ([0, 1], [np.int64(4)]):
        with pytest.raises(InvalidInput, match=r"support indices \[.*\] out of range"):
            achievable(M, T)


def test_minimal_supports_match_golden():
    for name in ("A", "B", "C"):
        gold = GOLDEN[name]
        M = np.array(gold["matrix"], dtype=float)
        got = sorted(v.mask.members for v in minimal_supports(M))
        assert got == sorted(tuple(s) for s in gold["minimal_supports"]), name


def test_minimal_supports_match_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n, 7))
        M = _random_full_rank(rng, m, n)
        got = sorted(v.mask.members for v in minimal_supports(M))
        want = sorted(tuple(sorted(i + 1 for i in T)) for T in oracle_minimal_supports(_int_rows(M)))
        assert got == want


def test_minimal_support_vectors_solve_the_matrix():
    M = np.array(GOLDEN["D"]["matrix"], dtype=float)
    for v in minimal_supports(M):
        recon = M @ v.coeff_array()
        assert np.abs(recon - v.value_array()).max() < 1e-9
        nz = {int(i) + 1 for i in np.flatnonzero(np.abs(v.value_array()) > 1e-9)}
        assert nz == v.mask.as_set()


def test_respecting_cost_matches_golden_rho_plus():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        blocks = BlockSpec(tuple(gold["blocks"]))
        res = sparsest_basis(M, blocks, mode="blockRespecting")
        assert res.cost == gold["rho_plus"], name
        free = sparsest_basis(M, None, mode="unconstrained")
        assert free.cost <= res.cost, name


def test_force_mixing_matches_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        blocks = BlockSpec(tuple(gold["blocks"]))
        res = sparsest_basis(M, blocks, mode="forceMixing")
        assert res.cost == gold["rho_minus"], name
        assert any(res.mixing_flags)


def test_gap_matches_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        gap = sparsity_gap(M, BlockSpec(tuple(gold["blocks"])))
        assert gap.rho_plus == gold["rho_plus"], name
        assert gap.rho_minus == gold["rho_minus"], name
        assert gap.independent == gold["s_independent"], name


def test_first_block_of_two_block_golden_costs_eight():
    gold = GOLDEN["D"]
    M = np.array(gold["matrix"], dtype=float)
    sub = M[:, :2]
    res = sparsest_basis(sub, None, mode="unconstrained")
    assert res.cost == 8


def test_unconstrained_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        M = _random_full_rank(rng, 6, 3)
        res = sparsest_basis(M, None, mode="unconstrained")
        assert res.cost == oracle_sparsest_cost(_int_rows(M))


def test_respecting_matches_per_block_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        M = _random_full_rank(rng, 6, 3)
        for sizes in ((1, 2), (2, 1), (1, 1, 1)):
            blocks = BlockSpec(sizes)
            res = sparsest_basis(M, blocks, mode="blockRespecting")
            assert res.cost == oracle_respecting_cost(_int_rows(M), list(sizes))


def test_force_mixing_matches_exact_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(20):
        M = _random_full_rank(rng, 5, 3)
        for sizes in ((1, 2), (1, 1, 1)):
            want = oracle_mixing_cost(_int_rows(M), list(sizes))
            res = sparsest_basis(M, BlockSpec(sizes), mode="forceMixing")
            assert res.cost == want, (M, sizes)
            checked += 1
    assert checked == 40


def test_basis_values_span_and_respect_blocks():
    M = np.array(GOLDEN["D"]["matrix"], dtype=float)
    blocks = BlockSpec((2, 2))
    tol = Tolerance()
    res = sparsest_basis(M, blocks, mode="blockRespecting")
    V = np.column_stack([v.value_array() for v in res.vectors])
    assert V.shape == (8, 4)
    assert np.linalg.matrix_rank(V) == 4
    assert l0_norm(V) == res.cost
    for v in res.vectors:
        assert len(v.touched_blocks(blocks, tol)) == 1
        assert not v.is_mixing(blocks, tol)


def test_pairwise_gap_matches_golden():
    gold = GOLDEN["B"]
    M = np.array(gold["matrix"], dtype=float)
    table = pairwise_sparsity_gap(M, BlockSpec((1, 1, 1)))
    assert all(table[i][j] for i in range(3) for j in range(3))
    assert gold["pairwise_all_true"]


def test_a_pair_the_full_gap_decides_still_checks_its_input(monkeypatch):
    """A pair that an independent full gap decides still runs its gap's
    input check, so it raises what searching it raises: here the request
    is made to hold an independent full gap for a matrix whose blocks 1
    and 2 are parallel columns."""
    M = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(RankError) as searched:
        pairwise_sparsity_gap(M, BlockSpec((1, 1, 1)))
    monkeypatch.setattr(basis, "_found", lambda key: SimpleNamespace(independent=True))
    with pytest.raises(RankError) as decided:
        pairwise_sparsity_gap(M, BlockSpec((1, 1, 1)))
    assert str(decided.value) == str(searched.value) == "matrix of shape (3, 2) must have full column rank"


def test_disjoint_matrix_has_wide_gap():
    M = np.array(MAT_DISJOINT, dtype=float)
    gap = sparsity_gap(M, BlockSpec((1, 1)))
    assert gap.rho_plus == 4
    assert gap.rho_minus == 6
    assert gap.independent


def test_search_size_and_rank_guards():
    with pytest.raises(SizeError):
        minimal_supports(np.ones((21, 2)))
    with pytest.raises(RankError):
        sparsest_basis(np.array([[1.0, 2.0], [2.0, 4.0]]), None, mode="unconstrained")
    with pytest.raises(InvalidInput):
        sparsest_basis(np.eye(3), BlockSpec((3,)), mode="forceMixing")
    with pytest.raises(InvalidInput):
        sparsest_basis(np.eye(3), None, mode="nonsense")


def test_ground_set_short_of_full_rank_is_internal_error():
    """The matrix has rank 2, but row 1 alone is zero at the matrix
    threshold 1e-9, so the pass over the flats finds one hyperplane and a
    one-vector ground set.  Each block column alone is classified at its
    own scale and gives one vector of support {2}."""
    M = [[-1e-9, -1e-9], [-1.0, 1.0]]
    for blocks, mode in [(None, "unconstrained"), ((1, 1), "unconstrained"), ((1, 1), "forceMixing")]:
        with pytest.raises(InternalError, match="the ground set spans rank 1, not 2"):
            sparsest_basis(M, blocks, mode)
    assert sparsest_basis(M, (1, 1), "blockRespecting").cost == 2


def test_search_is_deterministic():
    M = np.array(GOLDEN["C"]["matrix"], dtype=float)
    blocks = BlockSpec((1, 1, 1))
    a = sparsest_basis(M, blocks, mode="forceMixing")
    b = sparsest_basis(M, blocks, mode="forceMixing")
    assert a.cost == b.cost
    assert [v.mask.members for v in a.vectors] == [v.mask.members for v in b.vectors]
    assert all(
        np.array_equal(x.value_array(), y.value_array())
        for x, y in zip(a.vectors, b.vectors)
    )


def _vectors_payload(vectors):
    return [
        (tuple(float.hex(x) for x in v.value), tuple(float.hex(x) for x in v.coeff), v.mask.members)
        for v in vectors
    ]


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# name: (instance, (rho+, rho-), gap payload sha256, minimal supports sha256)
_CAP_PINS = {
    "planted 20x8": (
        lambda: gen_overlap_jacobian(OverlapTemplate(K=4, slot_dim=2, slot_out=5))[:2],
        (32, 36),
        "808de63879813fa339c420e5785780545593eab0d2c547444649d6f0b959a910",
        "c56700848dd75f55001b1c32da3a0160bb6a7bd1e8d3a8b84d57a589b2f7c4c4",
    ),
    "dense 16x8": (
        lambda: (np.random.default_rng(0).standard_normal((16, 8)), BlockSpec((4, 4))),
        (104, 72),
        "9fa6351e2aece41aee55ea47929e71cd4573ba2ef9cd741a1924aedf666abf09",
        "7582f5b3410f848370c7ac460c18ee2687e0157feabe930953b6b96122a02020",
    ),
}


@pytest.mark.parametrize("name", list(_CAP_PINS))
def test_gap_and_supports_bytes_pinned_at_the_cap(name):
    """The exact floats of both bases, their flags and costs, and of every
    minimal-support vector, as the per-vector search gave them, on inputs
    with hundreds of batched chunks (the README's planted 20x8 and the dense
    16x8 drawn by default_rng(0))."""
    instance, rhos, gap_sha, supports_sha = _CAP_PINS[name]
    M, blocks = instance()
    gap = sparsity_gap(M, blocks)
    assert (gap.rho_plus, gap.rho_minus) == rhos
    assert _sha((
        gap.rho_plus, gap.rho_minus, gap.independent,
        _vectors_payload(gap.respecting.vectors), gap.respecting.mixing_flags, gap.respecting.cost,
        _vectors_payload(gap.mixing.vectors), gap.mixing.mixing_flags, gap.mixing.cost,
    )) == gap_sha
    assert _sha(_vectors_payload(minimal_supports(M))) == supports_sha


# entries near the float limit: finite, but elimination overflows
_HUGE = np.array([
    [0.0, -1.7e308, 1.7e308, 1.7e308],
    [1.7e308, 0.0, 0.0, 8.5e307],
    [-8.5e307, 8.5e307, 0.0, 1.7e308],
    [1.7e308, 8.5e307, -8.5e307, 1.7e308],
    [8.5e307, 0.0, 0.0, 1.7e308],
])


# eliminates within range, but M c overflows for the null vector (1, 1)
_HUGE_PRODUCT = np.array([[1e308, 1e308], [5e307, -5e307]])


def test_overflowing_arithmetic_is_invalid_input():
    """Both elimination kernels and every search on the huge matrix say it
    overflowed, and so does a search whose only overflow is a vector M c;
    the same matrices scaled by 2^-1000 run."""
    with pytest.raises(InvalidInput, match="overflowed"):
        minimal_supports(_HUGE_PRODUCT)
    assert len(minimal_supports(np.ldexp(_HUGE_PRODUCT, -1000))) == 2
    searches = [
        rank,
        null_space,
        lambda M: sparsity_gap(M, (2, 2)),
        lambda M: minimal_supports(M),
        lambda M: sparsest_basis(M, (2, 2), "forceMixing"),
        lambda M: block_structure_audit(M, K=2, draws=5),
    ]
    for search in searches:
        with pytest.raises(InvalidInput, match="overflowed"):
            search(_HUGE)
        search(np.ldexp(_HUGE, -1000))


def test_overflow_in_the_closure_product_is_invalid_input(monkeypatch):
    """The pass over the flats finds the overflow of M c in its product of M
    with the subsets' null bases, before any vector is normalized."""
    monkeypatch.setattr(basis, "_normalize", lambda *args: pytest.fail("normalized"))
    with pytest.raises(InvalidInput, match="overflowed"):
        basis._flats(_HUGE_PRODUCT[None], Tolerance())


def test_gap_checks_the_matrix_once_and_each_block_once(monkeypatch):
    """Over a whole gap, M is ranked once and each block once, alone and
    padded with zero columns.  The columns are scaled to a largest entry of
    3, so no normalized vector of the search equals one of them."""
    M = 3.0 * np.array(GOLDEN["C"]["matrix"], dtype=float)
    checks = [M] + [np.pad(M[:, [b]], ((0, 0), (0, 2))) for b in range(3)]
    seen = [0] * len(checks)
    ranks = core.rank_many

    def counted(stack, thr):
        for S in np.asarray(stack):
            for i, X in enumerate(checks):
                seen[i] += S.shape == X.shape and np.array_equal(S, X)
        return ranks(stack, thr)

    for module in (core, basis):
        monkeypatch.setattr(module, "rank_many", counted)
    sparsity_gap(M, (1, 1, 1))
    assert seen == [1, 1, 1, 1]


def test_gaps_are_shared_within_a_request_only(monkeypatch):
    """Outside a request every sparsity_gap call searches; within one the
    same gap is searched once and each call gets its result."""
    searches = []
    flats = basis._flats

    def counted(M, tol, blocks=None):
        searches.append(blocks is not None)
        return flats(M, tol, blocks)

    monkeypatch.setattr(basis, "_flats", counted)
    M = np.array(GOLDEN["C"]["matrix"], dtype=float)
    outside = [sparsity_gap(M, (1, 1, 1)), sparsity_gap(M, (1, 1, 1))]
    assert searches.count(True) == 2
    with basis.one_request():
        inside = [sparsity_gap(M, (1, 1, 1)), sparsity_gap(M.tolist(), BlockSpec((1, 1, 1)))]
    assert inside[0] is inside[1]
    assert searches.count(True) == 3
    assert basis._searches.get() is None
    assert {(g.rho_plus, g.rho_minus) for g in outside + inside} == {
        (outside[0].rho_plus, outside[0].rho_minus)
    }


def test_mixing_flags_do_not_change_when_the_matrix_is_scaled():
    """Mixing is judged by the printed-support rule, which is scale-free: at
    M times 2^45 the coefficients fall below the absolute tolerance, and the
    flags, touched blocks and is_mixing still read those of M."""
    M = np.array([(1, 2, 0), (0, 1, 3), (2, 0, 1), (1, 1, 1), (0, 2, 1)], dtype=float)
    blocks, tol = BlockSpec((2, 1)), Tolerance()
    for exp in (-20, 0, 45):
        result = sparsest_basis(np.ldexp(M, exp), blocks, "forceMixing")
        assert result.cost == 8
        assert result.mixing_flags == [True, False, True]
        assert [v.touched_blocks(blocks, tol) for v in result.vectors] == [(1, 2), (1,), (1, 2)]
        assert [v.is_mixing(blocks, tol) for v in result.vectors] == [True, False, True]
