"""Instance generators: overlap templates, random mixings, finite differences."""

import numpy as np
import pytest

from mechindep.basis import BlockSpec
from mechindep.criteria import check_type_d, check_type_m
from mechindep.errors import EvalError, InvalidInput
from mechindep.graphs import build_graph, components
from mechindep.synth import (
    OverlapTemplate,
    fd_hessian,
    fd_jacobian,
    gen_overlap_jacobian,
    random_mixing,
)


def test_template_validation():
    with pytest.raises(InvalidInput):
        OverlapTemplate(K=1)
    with pytest.raises(InvalidInput):
        OverlapTemplate(K=2, slot_dim=0)
    with pytest.raises(InvalidInput):
        OverlapTemplate(K=2, overlap_ratio=1.0)
    with pytest.raises(InvalidInput):
        OverlapTemplate(K=2, overlap_ratio=-0.1)


def test_negative_seed_is_invalid_input():
    with pytest.raises(InvalidInput, match="seed"):
        OverlapTemplate(K=2, seed=-1)
    with pytest.raises(InvalidInput, match="seed"):
        random_mixing((2, 2), "full", seed=-1)


def test_pair_row_allocation():
    assert OverlapTemplate(K=2, slot_out=20, overlap_ratio=0.0).pair_rows() == 0
    assert OverlapTemplate(K=2, slot_out=20, overlap_ratio=0.5).pair_rows() == 20
    assert OverlapTemplate(K=2, slot_out=20, overlap_ratio=0.05).pair_rows() == 1
    assert OverlapTemplate(K=2, slot_out=20, overlap_ratio=0.2).pair_rows() == 5
    # rounding is half-up: r/(1-r) * 4 lands exactly on 2.5 for this ratio
    r = 2.5 / 6.5
    assert OverlapTemplate(K=2, slot_out=4, overlap_ratio=r).pair_rows() == 3
    with pytest.raises(InvalidInput):
        OverlapTemplate(K=2, slot_out=4, overlap_ratio=0.9).pair_rows()


def test_generation_is_deterministic():
    t = OverlapTemplate(K=3, slot_dim=2, slot_out=4, overlap_ratio=0.2, seed=9)
    M1, b1, s1 = gen_overlap_jacobian(t)
    M2, b2, s2 = gen_overlap_jacobian(t)
    assert np.array_equal(M1, M2)
    assert b1.sizes == b2.sizes
    assert s1 == s2
    M3, _, _ = gen_overlap_jacobian(
        OverlapTemplate(K=3, slot_dim=2, slot_out=4, overlap_ratio=0.2, seed=10)
    )
    assert not np.array_equal(M1, M3)


def test_generated_shape_and_entry_range():
    t = OverlapTemplate(K=2, slot_dim=3, slot_out=5, overlap_ratio=0.5, seed=1)
    M, blocks, sidecar = gen_overlap_jacobian(t)
    assert M.shape == (2 * 5 + 5, 6)
    assert blocks.sizes == (3, 3)
    nz = np.abs(M[np.abs(M) > 0])
    assert nz.min() >= 0.5 and nz.max() <= 2.0
    covered = set()
    for g in sidecar["rowGroups"]:
        lo, hi = g["rows"]
        covered |= set(range(lo, hi + 1))
    assert covered == set(range(1, M.shape[0] + 1))


def test_expected_verdicts_match_checkers():
    for overlap, seed in [(0.0, 0), (0.2, 1), (0.5, 2)]:
        t = OverlapTemplate(K=2, slot_dim=2, slot_out=4, overlap_ratio=overlap, seed=seed)
        M, blocks, sidecar = gen_overlap_jacobian(t)
        assert check_type_d(M, blocks).holds == sidecar["expectedVerdicts"]["typeD"]
        if overlap > 0:
            assert check_type_m(M, blocks).holds


def test_planted_chain_adjacency():
    t = OverlapTemplate(K=4, slot_dim=2, slot_out=3, overlap_ratio=0.25, seed=4)
    M, blocks, sidecar = gen_overlap_jacobian(t)
    assert sidecar["expectedVerdicts"]["adjacency"] == [[1, 2], [2, 3], [3, 4]]
    g = build_graph(M, "D")
    block_of = {c + 1: blocks.block_of(c) + 1 for c in range(blocks.total)}
    cross = sorted(
        {
            tuple(sorted((block_of[a], block_of[b])))
            for a, b in g.edges
            if block_of[a] != block_of[b]
        }
    )
    assert cross == [(1, 2), (2, 3), (3, 4)]


def test_overlap_zero_components_recover_blocks():
    t = OverlapTemplate(K=3, slot_dim=2, slot_out=4, overlap_ratio=0.0, seed=8)
    M, blocks, _ = gen_overlap_jacobian(t)
    comps = components(build_graph(M, "D"))
    assert [len(c) for c in comps] == [2, 2, 2]
    assert [c[0] for c in comps] == [1, 3, 5]


def test_random_mixing_kinds():
    blocks = BlockSpec((2, 2))
    diag = random_mixing(blocks, "blockDiagonal", seed=1)
    assert diag.sigma == (1, 2)
    assert np.abs(diag.matrix[:2, 2:]).max() == 0
    assert np.abs(diag.matrix[2:, :2]).max() == 0

    perm = random_mixing(blocks, "blockPermuted", seed=2)
    assert sorted(perm.sigma) == [1, 2]

    full = random_mixing(blocks, "full", seed=3)
    assert np.abs(full.matrix).min() > 0  # dense by construction

    for draw in (diag, perm, full):
        assert draw.condition <= 1e6
        assert np.linalg.matrix_rank(draw.matrix) == 4

    with pytest.raises(InvalidInput):
        random_mixing(blocks, "wedge", seed=0)


def test_random_mixing_determinism_and_size_classes():
    a = random_mixing((2, 1, 2), "blockPermuted", seed=7)
    b = random_mixing((2, 1, 2), "blockPermuted", seed=7)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.sigma == b.sigma
    # the singleton block can only map to itself; size-2 blocks may swap
    assert a.sigma[1] == 2
    swapped = {random_mixing((2, 1, 2), "blockPermuted", seed=s).sigma for s in range(10)}
    assert (2, 2, 3) not in swapped       # never maps a 2-block onto the 1-block
    assert any(s != (1, 2, 3) for s in swapped)


def test_fd_jacobian_examples():
    J = fd_jacobian(lambda s: np.array([s[0] ** 2, s[1]]), np.array([1.0, 2.0]))
    assert np.abs(J - np.array([[2.0, 0.0], [0.0, 1.0]])).max() < 1e-8

    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    J2 = fd_jacobian(lambda s: M @ s, np.array([0.3, -0.7]))
    assert np.abs(J2 - M).max() < 1e-9

    J3 = fd_jacobian(lambda s: np.array([s[0] * s[1]]), np.array([2.0, 3.0]))
    assert np.abs(J3 - np.array([[3.0, 2.0]])).max() < 1e-9


def test_fd_jacobian_error_quarters_when_step_halves():
    f = lambda s: np.array([np.exp(s[0]) * np.sin(s[1])])
    x = np.array([0.5, 0.8])
    true = np.array([[np.exp(0.5) * np.sin(0.8), np.exp(0.5) * np.cos(0.8)]])
    e1 = np.abs(fd_jacobian(f, x, 1e-3) - true).max()
    e2 = np.abs(fd_jacobian(f, x, 5e-4) - true).max()
    assert e2 <= 0.3 * e1


def test_fd_hessian_examples():
    H = fd_hessian(lambda s: np.array([np.sin(s[0]) + s[1] ** 3]), np.array([0.4, 1.1]))
    assert abs(H[0, 0, 1]) < 1e-4
    assert abs(H[0, 1, 0]) < 1e-4
    assert abs(H[0, 0, 0] + np.sin(0.4)) < 1e-6
    assert abs(H[0, 1, 1] - 6.0 * 1.1) < 1e-6

    Hp = fd_hessian(lambda s: np.array([s[0] * s[1]]), np.array([2.0, 3.0]))
    assert abs(Hp[0, 0, 1] - 1.0) < 1e-6

    Q = np.array([[2.0, 1.0], [1.0, 4.0]])
    Hq = fd_hessian(lambda s: np.array([0.5 * s @ Q @ s]), np.array([0.2, 0.9]))
    assert np.abs(Hq[0] - Q).max() < 1e-6
    assert np.array_equal(Hq[0], Hq[0].T)


def test_fd_guards():
    with pytest.raises(InvalidInput):
        fd_jacobian(lambda s: s, np.array([1.0]), step=0.0)
    with pytest.raises(EvalError):
        fd_jacobian(lambda s: np.array([np.nan]), np.array([1.0]))
    with pytest.raises(EvalError):
        fd_hessian(lambda s: np.array([[1.0, 2.0]]), np.array([1.0]))
