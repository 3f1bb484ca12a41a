"""Tolerance model, supports, rank, null spaces, face splitting, and the
package's public names."""

import types

import numpy as np
import pytest

import mechindep
from mechindep.core import (
    DEFAULT_ABS,
    DEFAULT_REL,
    SupportMask,
    Tolerance,
    as_matrix,
    column_supports,
    face_split,
    l0_norm,
    null_space,
    rank,
    support,
)
from mechindep.errors import InvalidInput
from mechindep.graphs import adjacency

from golden import GOLDEN, MAT_DISJOINT
from oracles import exact_rank


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.rel == DEFAULT_REL
    assert tol.abs == DEFAULT_ABS
    assert tol.threshold(10.0) == max(DEFAULT_ABS, DEFAULT_REL * 10.0)
    assert tol.threshold(0.0) == DEFAULT_ABS


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("MECHINDEP_TOL", "1e-3")
    assert Tolerance.default().rel == 1e-3
    monkeypatch.setenv("MECHINDEP_TOL", "garbage")
    with pytest.raises(InvalidInput):
        Tolerance.default()
    monkeypatch.delenv("MECHINDEP_TOL")
    assert Tolerance.default().rel == DEFAULT_REL


def test_tolerance_rejects_negative():
    with pytest.raises(InvalidInput):
        Tolerance(rel=-1.0)


def test_tolerance_rejects_every_entry_zero(monkeypatch):
    # rel >= 1 or an infinite abs would classify every entry as zero
    for rel, abs_ in ((1.0, DEFAULT_ABS), (2.5, DEFAULT_ABS), (np.inf, DEFAULT_ABS),
                      (DEFAULT_REL, np.inf)):
        with pytest.raises(InvalidInput, match="rel below 1 and abs finite"):
            Tolerance(rel=rel, abs=abs_)
    assert Tolerance(rel=0.99, abs=1e300).rel == 0.99
    for value in ("1", "inf"):
        monkeypatch.setenv("MECHINDEP_TOL", value)
        with pytest.raises(InvalidInput, match=f"MECHINDEP_TOL={value}: tolerances must"):
            Tolerance.default()


def test_support_masks_are_one_based_and_sorted():
    s = support(np.array([0.0, 3.0, 0.0, -2.0]))
    assert list(s) == [2, 4]
    assert s.universe == 4
    m = SupportMask(universe=5, members=(4, 1, 4))
    assert m.members == (1, 4)
    with pytest.raises(InvalidInput):
        SupportMask(universe=3, members=(4,))


def test_support_uses_relative_scale():
    # 1e-6 is nonzero next to 1.0 at rel 1e-9 but zero at rel 1e-3
    v = np.array([1.0, 1e-6])
    assert list(support(v)) == [1, 2]
    assert list(support(v, Tolerance(rel=1e-3))) == [1]


def test_column_supports_match_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        sups = column_supports(M)
        assert [s.members for s in sups] == [tuple(c) for c in gold["col_supports"]], name


def test_rank_matches_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        assert rank(M) == gold["rank"], name


def test_rank_matches_exact_oracle_on_random_integer_matrices():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 6))
        M = rng.integers(-3, 4, size=(m, n)).astype(float)
        expected = exact_rank([[int(x) for x in row] for row in M])
        assert rank(M) == expected


def test_rank_scale_invariance():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert rank(M) == 1
    assert rank(M * 1e8) == 1
    assert rank(M * 1e-8) == 1


def test_null_space_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 6))
        M = rng.integers(-3, 4, size=(m, n)).astype(float)
        N = null_space(M)
        r = rank(M)
        assert N.shape == (n, n - r)
        if N.size:
            assert np.abs(M @ N).max() < 1e-8
            assert rank(N) == n - r


def test_null_space_of_zero_matrix_is_identity():
    N = null_space(np.zeros((3, 4)))
    assert N.shape == (4, 4)
    assert rank(N) == 4


def test_l0_matches_golden():
    for name, gold in GOLDEN.items():
        M = np.array(gold["matrix"], dtype=float)
        assert l0_norm(M) == gold["l0"], name


def test_pitchfork_truth_table():
    """The M rule of graphs.adjacency joins two columns iff one support
    contains the other, that is iff the pair is no pitchfork."""
    ab, bc, a, abc, d = (1, 2), (2, 3), (1,), (1, 2, 3), (4,)
    for left, right, pitchfork in [
        (ab, bc, True),    # overlap, neither contains
        (a, ab, False),    # left inside right
        (abc, ab, False),  # right inside left
        (ab, ab, False),   # equal
        (a, d, True),      # disjoint is fine
    ]:
        M = np.zeros((4, 2))
        M[np.subtract(left, 1), 0] = 1.0
        M[np.subtract(right, 1), 1] = 1.0
        assert adjacency(M, "M", 0.5)[0, 1] == (not pitchfork), (left, right)


def test_face_split_is_rowwise_kron():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0, 6.0], [7.0, 8.0]])
    F = face_split(A, B)
    assert F.shape == (2, 4)
    assert np.array_equal(F[0], np.kron(A[0], B[0]))
    assert np.array_equal(F[1], np.kron(A[1], B[1]))


def test_face_split_detects_disjoint_supports():
    # cross-column entrywise products vanish exactly when supports are disjoint
    disjoint = np.array(MAT_DISJOINT, dtype=float)
    F = face_split(disjoint[:, :1], disjoint[:, 1:])
    assert np.abs(F).max() == 0.0
    A = np.array(GOLDEN["A"]["matrix"], dtype=float)
    F2 = face_split(A[:, :1], A[:, 1:])
    assert np.abs(F2).max() > 0.0


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidInput):
        as_matrix([1.0, 2.0])
    with pytest.raises(InvalidInput):
        as_matrix([[np.nan, 1.0]])
    with pytest.raises(InvalidInput):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(InvalidInput):
        as_matrix([["a", "b"]])


def test_all_is_sorted_and_lists_every_public_name():
    public = {
        name
        for name, value in vars(mechindep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert mechindep.__all__ == sorted(public)
