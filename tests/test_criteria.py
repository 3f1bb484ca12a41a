"""Criterion checkers: the four matrix criteria, derivative-tensor criteria,
per-block irreducibility, separability, basis-change side conditions, the
assignment extractor, the compositional contrast, and the hierarchy audit."""

import numpy as np
import pytest

from mechindep import criteria
from mechindep.basis import BlockSpec, pairwise_sparsity_gap, sparsest_basis
from mechindep.certificates import Certificate
from mechindep.core import Tolerance, l0_norm
from mechindep.criteria import (
    Assignment,
    _row_route_type_m,
    check_l0_nonincrease,
    check_separability,
    check_support_union,
    check_type_d,
    check_type_d_irreducible,
    check_type_h,
    check_type_h_irreducible,
    check_type_m,
    check_type_m_irreducible,
    check_type_o,
    check_type_s,
    check_type_s_irreducible,
    check_type_s_pairwise,
    compositional_contrast,
    contrast_certificate,
    extract_assignment,
    hierarchy_audit,
)
from mechindep.errors import (
    DegenerateColumn,
    InvalidInput,
    RankError,
    ShapeError,
)
from mechindep.graphs import build_graph
from mechindep.synth import random_mixing

from golden import GOLDEN, MAT_DISJOINT
from oracles import oracle_pitchfork, oracle_separability, oracle_type_m_row_route


def _gold_matrix(name):
    gold = GOLDEN[name]
    return np.array(gold["matrix"], dtype=float), tuple(gold["blocks"]), gold


def test_type_d_matches_golden():
    for name in GOLDEN:
        M, blocks, gold = _gold_matrix(name)
        cert = check_type_d(M, blocks)
        assert cert.holds == gold["type_d"], name
        assert cert.criterion == "D"
        if not cert.holds:
            v = cert.witness["violations"][0]
            a, b = v["pair"]
            assert set(v["sharedRows"]) == (
                set(gold["col_supports"][a - 1]) & set(gold["col_supports"][b - 1])
            )


def test_type_d_single_block_vacuous():
    cert = check_type_d(np.array([[1.0, 1.0]]), (2,))
    assert cert.holds
    assert any("vacuous" in n for n in cert.notes)


def test_type_d_holds_on_disjoint():
    cert = check_type_d(np.array(MAT_DISJOINT, dtype=float), (1, 1))
    assert cert.holds and cert.witness["violations"] == []


def test_type_m_matches_golden():
    for name in GOLDEN:
        M, blocks, gold = _gold_matrix(name)
        cert = check_type_m(M, blocks)
        assert cert.holds == gold["type_m"], name
        assert any("row-support intersection" in n for n in cert.notes)


def test_type_m_violation_witness():
    # column 2's support contains column 1's
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    cert = check_type_m(M, (1, 1))
    assert not cert.holds
    first = cert.witness["firstViolation"]
    assert first["pair"] == [1, 2]
    assert first["direction"] == "left-in-right"
    eq = check_type_m(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 1))
    assert not eq.holds
    assert eq.witness["firstViolation"]["direction"] == "equal"


def test_type_m_zero_column_raises():
    with pytest.raises(DegenerateColumn):
        check_type_m(np.array([[1.0, 0.0], [1.0, 0.0]]), (1, 1))


def test_type_m_dual_route_identical_on_random():
    rng = np.random.default_rng(13)
    done = 0
    while done < 120:
        m, n = 6, 3
        M = (rng.random((m, n)) < 0.5) * rng.integers(1, 5, size=(m, n))
        M = M.astype(float) * rng.choice([-1.0, 1.0], size=(m, n))
        if any(np.abs(M[:, j]).max() == 0 for j in range(n)):
            continue
        blocks = BlockSpec((1, 1, 1))
        direct = check_type_m(M, blocks).holds  # raises InternalError on any split
        assert direct == _row_route_type_m(M, blocks, Tolerance.default())
        sups = [set(np.flatnonzero(np.abs(M[:, j]) > 0)) for j in range(n)]
        assert direct == all(
            oracle_pitchfork(sups[a], sups[b]) for a in range(n) for b in range(a + 1, n)
        )
        assert oracle_type_m_row_route(sups) == direct
        done += 1


def test_type_s_matches_golden():
    for name in GOLDEN:
        M, blocks, gold = _gold_matrix(name)
        cert = check_type_s(M, blocks)
        assert cert.holds == gold["s_independent"], name
        assert cert.witness["rhoPlus"] == gold["rho_plus"], name
        assert cert.witness["rhoMinus"] == gold["rho_minus"], name
        assert any("rhoMinus" in n for n in cert.notes)
        mixing = cert.witness["mixingBasis"]
        assert any(v["mixing"] for v in mixing["vectors"])


def test_type_s_pairwise_golden():
    M, blocks, gold = _gold_matrix("B")
    cert = check_type_s_pairwise(M, blocks)
    assert cert.holds
    table = cert.witness["table"]
    assert table == [[True] * 3 for _ in range(3)]


def test_type_o_matches_golden():
    for name in GOLDEN:
        M, blocks, gold = _gold_matrix(name)
        assert check_type_o(M, blocks).holds == gold["type_o"], name


def test_type_o_threshold_uses_column_norms():
    # inner product 1e-6 against norms ~1e3 each: relative size 1e-12, zero
    M = np.array([[1e3, 1e-9], [0.0, 1e3]])
    assert check_type_o(M, (1, 1)).holds


def test_block_irreducibility_matches_golden():
    M, blocks, gold = _gold_matrix("D")
    for idx in (1, 2):
        assert check_type_d_irreducible(M, blocks, idx).holds == gold["block_d_irreducible"][idx - 1]
        assert check_type_m_irreducible(M, blocks, idx).holds == gold["block_m_irreducible"][idx - 1]
        assert check_type_s_irreducible(M, blocks, idx).holds == gold["block_s_irreducible"][idx - 1]


def test_m_irreducible_failure_has_split_witness():
    M, blocks, _ = _gold_matrix("D")
    cert = check_type_m_irreducible(M, blocks, 1)
    assert not cert.holds
    left, right = cert.witness["split"]
    assert sorted(left + right) == [1, 2]


def test_d_irreducible_splits_block_diagonal_block():
    # one block whose own columns split into two independent row groups
    M = np.array(
        [
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 3.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cert = check_type_d_irreducible(M, (2, 1), 1)
    assert not cert.holds
    assert "rowSplit" in cert.witness
    assert check_type_d_irreducible(M, (2, 1), 2).holds


def test_irreducibility_one_dim_and_degenerate():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert check_type_d_irreducible(M, (1, 1), 1).holds
    assert check_type_m_irreducible(M, (1, 1), 2).holds
    assert check_type_s_irreducible(M, (1, 1), 1).holds
    with pytest.raises(InvalidInput):
        check_type_d_irreducible(M, (1, 1), 3)
    Z = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateColumn):
        check_type_d_irreducible(Z, (1, 1), 1)


def test_type_h2_verdicts():
    H_diag = np.zeros((2, 2, 2))
    H_diag[0, 0, 0] = 1.0
    H_diag[1, 1, 1] = 3.0
    assert check_type_h(H_diag, (1, 1), 2).holds
    H_prod = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    cert = check_type_h(H_prod, (1, 1), 2)
    assert not cert.holds
    v = cert.witness["violations"][0]
    assert v["blockPair"] == [1, 2]
    assert v["index"] == [1, 1, 2]
    assert v["value"] == 1.0


def test_type_h3_symmetric_cross():
    T = np.zeros((1, 2, 2, 2))
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        T[(0,) + idx] = 2.0       # third derivative of s1^2 * s2
    cert = check_type_h(T, (1, 1), 3)
    assert not cert.holds
    assert cert.witness["violations"][0]["index"] == [1, 1, 2, 1]
    Z = np.zeros((1, 2, 2, 2))
    Z[0, 0, 0, 0] = 4.0
    assert check_type_h(Z, (1, 1), 3).holds


def test_type_h_shape_and_order_guards():
    with pytest.raises(InvalidInput):
        check_type_h(np.zeros((1, 2, 2)), (1, 1), 4)
    with pytest.raises(ShapeError):
        check_type_h(np.zeros((1, 2, 3)), (1, 1), 2)
    with pytest.raises(ShapeError):
        check_type_h(np.zeros((1, 2, 2)), (1, 1), 3)
    assert check_type_h(np.zeros((2, 3, 3)), (3,), 2).holds  # single block vacuous


def test_derivative_order_is_an_integer():
    H = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    T = np.zeros((1, 2, 2, 2))
    for n, X in ((np.int64(2), H), (np.int32(3), T)):
        assert check_type_h(X, (1, 1), n).to_dict() == check_type_h(X, (1, 1), int(n)).to_dict()
        assert check_type_h_irreducible(X, (1, 1), 1, n).criterion == f"H{n}-irreducible"
    sep = check_separability([np.eye(2), SQ_H], (1, 1), np.int64(2))
    assert sep.to_dict() == check_separability([np.eye(2), SQ_H], (1, 1), 2).to_dict()
    checks = (
        lambda n: check_type_h(H, (1, 1), n),
        lambda n: check_type_h_irreducible(H, (1, 1), 1, n),
        lambda n: check_separability([np.eye(2), SQ_H], (1, 1), n),
    )
    for check in checks:
        for n in (2.0, True, "2", None):
            with pytest.raises(InvalidInput, match="order must be an integer"):
                check(n)
        with pytest.raises(InvalidInput, match="order must be 2 or 3, got 4"):
            check(np.int64(4))


@pytest.mark.parametrize(
    "check",
    [
        lambda i: check_type_d_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 1), i),
        lambda i: check_type_m_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 1), i),
        lambda i: check_type_s_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 1), i),
        lambda i: check_type_h_irreducible(np.eye(2)[None], (1, 1), i),
    ],
    ids=["D", "M", "S", "H2"],
)
def test_block_index_is_an_integer(check):
    cert = check(np.int64(2))
    assert cert.to_dict() == check(2).to_dict()
    assert type(cert.witness["block"]) is int
    for index in (True, 1.0, "1", None):
        with pytest.raises(InvalidInput, match="block index must be an integer"):
            check(index)
    for index in (0, np.int64(3)):
        with pytest.raises(InvalidInput, match=f"block index {index} outside 1..2"):
            check(index)


@pytest.mark.parametrize(
    "check",
    [
        lambda T: check_type_h(T, (1, 1), 2),
        lambda T: check_type_h_irreducible(T, (1, 1), 1),
        lambda T: check_separability([np.eye(2), T], (1, 1)),
        lambda T: build_graph(T, "H2"),
    ],
    ids=["type_h", "type_h_irreducible", "separability", "build_graph"],
)
def test_tensor_without_output_rows_is_invalid_input(check):
    with pytest.raises(InvalidInput, match="derivative tensor must be nonempty"):
        check(np.zeros((0, 2, 2)))
    with pytest.raises(ShapeError):
        check(np.zeros((1, 2, 3)))


@pytest.mark.parametrize(
    "check",
    [
        lambda M, b: check_type_d(M, b),
        lambda M, b: compositional_contrast(M, b),
        lambda M, b: sparsest_basis(M, b),
        lambda M, b: pairwise_sparsity_gap(M, b),
    ],
    ids=["prepare", "contrast", "sparsest_basis", "pairwise_gap"],
)
def test_blocks_must_cover_the_columns(check):
    with pytest.raises(InvalidInput, match=r"block sizes \(1, 1\) do not cover 3 columns"):
        check(np.eye(3), (1, 1))


def test_h2_irreducible():
    # block 1 spans cols 1-2; its within-block Hessian is diagonal: splittable
    H = np.zeros((2, 3, 3))
    H[0, 0, 0] = 1.0
    H[1, 1, 1] = 1.0
    H[0, 2, 2] = 5.0
    cert = check_type_h_irreducible(H, (2, 1), 1, 2)
    assert not cert.holds
    assert cert.witness["split"] == [[1], [2]]
    # coupled within-block Hessian: no coordinate split zeroes the cross slice
    Hc = H.copy()
    Hc[0, 0, 1] = Hc[0, 1, 0] = 2.0
    assert check_type_h_irreducible(Hc, (2, 1), 1, 2).holds
    # zero within-block derivative fails outright
    Hz = np.zeros((2, 3, 3))
    Hz[0, 2, 2] = 1.0
    bad = check_type_h_irreducible(Hz, (2, 1), 1, 2)
    assert not bad.holds
    assert bad.witness["reason"] == "zeroWithinBlockDerivative"
    assert any("coordinate" in n for n in bad.notes)


SQ_H = np.zeros((2, 2, 2))
SQ_H[0, 0, 0] = 2.0
SQ_H[1, 1, 1] = 2.0


def test_separability_of_coordinate_squares():
    # d_x = d_s = 2, outputs (s1^2, s2^2): competitor span eats the images at
    # generic points, but at the origin the first-order columns vanish
    J_generic = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert not check_separability([J_generic, SQ_H], (1, 1), 2).holds
    J_zero = np.zeros((2, 2))
    assert check_separability([J_zero, SQ_H], (1, 1), 2).holds


def test_separability_with_extra_outputs():
    # outputs (s1^2, s1, s2^2, s2): enough room at generic points
    J = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    H = np.zeros((4, 2, 2))
    H[0, 0, 0] = 2.0
    H[2, 1, 1] = 2.0
    cert = check_separability([J, H], (1, 1), 2)
    assert cert.holds
    for entry in cert.witness["blocks"]:
        assert entry["imageRank"] + entry["competitorRank"] == entry["jointRank"]


def test_separability_fails_for_shared_output():
    # outputs (s1^2 + s2^2, s1, s2): both squares land in the same output
    J = np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    H = np.zeros((3, 2, 2))
    H[0, 0, 0] = 2.0
    H[0, 1, 1] = 2.0
    assert not check_separability([J, H], (1, 1), 2).holds


def test_separability_degenerate_block_fails_with_note():
    J = np.array([[2.0, 0.0], [0.0, 2.0]])
    cert = check_separability([J, np.zeros((2, 2, 2))], (1, 1), 2)
    assert not cert.holds
    assert any("degenerate block" in n for n in cert.notes)
    assert all(e["degenerate"] for e in cert.witness["blocks"])


def test_separability_matches_exact_oracle():
    rng = np.random.default_rng(37)
    for _ in range(15):
        d_x, d_s = 4, 2
        J = rng.integers(-2, 3, size=(d_x, d_s)).astype(float)
        H = rng.integers(-2, 3, size=(d_x, d_s, d_s)).astype(float)
        H = H + H.transpose(0, 2, 1)
        cert = check_separability([J, H], (1, 1), 2)
        want, details = oracle_separability(
            [J.tolist(), H.tolist()], [1, 1], 2
        )
        assert cert.holds == want
        got = [
            (e["imageRank"], e["competitorRank"], e["jointRank"])
            for e in cert.witness["blocks"]
        ]
        assert got == [tuple(d) for d in details]


def test_support_union_failure_from_shear():
    Jg = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [-1.0, 1.0]])
    cert = check_support_union(Jg, Jg @ B, B)
    assert not cert.holds
    assert cert.witness["mismatches"][0] == {
        "column": 1,
        "expectedUnion": [1, 2],
        "actual": [2],
    }


def test_support_union_holds_for_generic_mixing():
    Jg = np.array(MAT_DISJOINT, dtype=float)
    B = np.array([[2.0, 3.0], [1.0, -1.0]])
    cert = check_support_union(Jg, Jg @ B, B)
    assert cert.holds
    with pytest.raises(InvalidInput):
        check_support_union(Jg, Jg @ B + 1.0, B)
    with pytest.raises(RankError):
        check_support_union(Jg, Jg @ np.ones((2, 2)), np.ones((2, 2)))


def test_l0_nonincrease():
    Jg = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [-1.0, 1.0]])
    cert = check_l0_nonincrease(Jg, Jg @ B)
    assert cert.holds
    assert cert.witness == {"source": 3, "target": 3}
    dense = check_l0_nonincrease(np.eye(2), np.ones((2, 2)))
    assert not dense.holds
    with pytest.raises(ShapeError):
        check_l0_nonincrease(np.eye(2), np.eye(3))


def test_extract_assignment_swap():
    cert = extract_assignment(np.array([[0.0, 2.0], [3.0, 0.0]]), (1, 1), (1, 1))
    assert cert.holds
    assert cert.witness["sigma"] == {"1": 2, "2": 1}
    assignment = Assignment.from_certificate(cert)
    assert assignment.sigma == {1: 2, 2: 1}


def test_extract_assignment_failure_modes():
    cert = extract_assignment(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 1), (1, 1))
    assert not cert.holds
    assert cert.witness["violations"][0]["blockRow"] == 1
    assert cert.witness["missingTargets"] == [1]
    assert Assignment.from_certificate(cert) is None
    with pytest.raises(RankError):
        extract_assignment(np.ones((2, 2)), (1, 1), (1, 1))
    with pytest.raises(InvalidInput):
        extract_assignment(np.eye(3), (1, 1), (1, 1, 1))


def test_extract_assignment_recovers_planted_permutation():
    for seed in range(8):
        draw = random_mixing((2, 2, 1), "blockPermuted", seed=seed)
        cert = extract_assignment(draw.matrix, (2, 2, 1), (2, 2, 1))
        assert cert.holds
        sigma = Assignment.from_certificate(cert).sigma
        assert tuple(sigma[i] for i in sorted(sigma)) == draw.sigma


def test_full_mixing_generically_fails_assignment():
    failures = 0
    for seed in range(6):
        draw = random_mixing((2, 2), "full", seed=seed)
        if not extract_assignment(draw.matrix, (2, 2), (2, 2)).holds:
            failures += 1
    assert failures == 6


def test_compositional_contrast_values():
    assert compositional_contrast(np.array([[1.0, 1.0]]), (1, 1)) == 1.0
    assert compositional_contrast(np.array([[2.0, 3.0]]), (1, 1)) == 6.0
    assert compositional_contrast(np.array(MAT_DISJOINT, dtype=float), (1, 1)) == 0.0


def test_contrast_zero_iff_type_d():
    for name in GOLDEN:
        M, blocks, gold = _gold_matrix(name)
        cert = contrast_certificate(M, blocks)
        assert cert.holds == gold["type_d"], name
        assert (cert.witness["value"] == 0.0) == gold["type_d"], name
    assert any("Brady" in n for n in contrast_certificate(np.eye(2), (1, 1)).notes)


def test_hierarchy_audit_no_violations_on_goldens():
    for name in GOLDEN:
        M, blocks, _ = _gold_matrix(name)
        cert = hierarchy_audit(M, blocks)
        assert cert.holds, name
        assert cert.witness["violations"] == []
        verdicts = cert.witness["verdicts"]
        assert set(verdicts) == {"D", "M", "S", "H2", "MInSparsestBasis"}


def test_hierarchy_audit_with_hessian():
    M = np.array(MAT_DISJOINT, dtype=float)
    H_good = np.zeros((4, 2, 2))
    H_good[0, 0, 0] = 1.0
    cert = hierarchy_audit(M, (1, 1), hessian=H_good)
    assert cert.holds
    assert cert.witness["verdicts"]["D"] is True
    assert cert.witness["verdicts"]["H2"] is True
    # an inconsistent Hessian breaks the D=>H2 arrow and must be REPORTED
    H_bad = np.zeros((4, 2, 2))
    H_bad[0, 0, 1] = H_bad[0, 1, 0] = 1.0
    broken = hierarchy_audit(M, (1, 1), hessian=H_bad)
    assert not broken.holds
    assert "D=>H2" in broken.witness["violations"]


def test_hierarchy_audit_skips_are_noted():
    M = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    cert = hierarchy_audit(M, (2,))
    assert cert.holds
    assert cert.witness["verdicts"]["S"] is None
    assert any("skipped" in n for n in cert.notes)


def test_certificate_shape_and_digest():
    M, blocks, _ = _gold_matrix("A")
    cert = check_type_d(M, blocks)
    d = cert.to_dict()
    assert list(d.keys()) == ["criterion", "holds", "witness", "notes", "inputsDigest"]
    assert isinstance(cert, Certificate)
    again = check_type_d(M, blocks)
    assert again.inputs_digest == cert.inputs_digest
    other = check_type_d(M + 1.0, blocks)
    assert other.inputs_digest != cert.inputs_digest
    # the digest covers the blocks too
    assert check_type_d(np.array(GOLDEN["D"]["matrix"], float), (2, 2)).inputs_digest != \
        check_type_d(np.array(GOLDEN["D"]["matrix"], float), (1, 3)).inputs_digest


def test_s_irreducible_gaps_only_the_splits_its_optimum_leaves_pure(monkeypatch):
    """A split under which a vector of the block's greedy optimum mixes is
    not Type S independent, and runs no sparsity gap: a dense 8x4 block
    runs none of its 7 splits; a block-diagonal one runs only the split
    between its diagonal blocks, which is independent."""
    gapped = []
    gap = criteria.sparsity_gap

    def counted(M, blocks, tol=None):
        gapped.append(blocks.sizes)
        return gap(M, blocks, tol)

    monkeypatch.setattr(criteria, "sparsity_gap", counted)
    rng = np.random.default_rng(0)
    assert check_type_s_irreducible(rng.standard_normal((8, 4)), (4,), 1).holds
    assert gapped == []
    M = np.zeros((8, 4))
    M[:4, :2], M[4:, 2:] = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    cert = check_type_s_irreducible(M, (4,), 1)
    assert not cert.holds and cert.witness["split"] == [[1, 2], [3, 4]]
    assert gapped == [(2, 2)]
