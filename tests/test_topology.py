"""Grid-region connectivity, k-slice reports, and the premise certificate."""

import json
import re
from itertools import permutations, product

import numpy as np
import pytest

from mechindep.errors import InvalidInput
from mechindep.certificates import inputs_digest
from mechindep.io import emit_report, read_region_json
from mechindep.topology import (
    GridRegion,
    is_connected,
    premise_report,
    rectangle,
    slices_connected,
)

from regions import (
    assert_matches_oracle,
    bracket_mask,
    checkerboard_mask,
    hollow_cube_mask,
    offset_squares_mask,
    serpentine_mask,
    slab_with_corners_mask,
)

BIG = 2**63  # one past the int64 range


def test_region_validation(tmp_path):
    """Each invalid region is refused with the message of its first fault,
    the same from the constructor, from_occupied and a region file."""
    constructed = [
        ((0, 2), frozenset(), "axis lengths must be positive integers, got [0, 2]"),
        ((2, 2), frozenset({(2, 0)}), "cell [2, 0] outside grid [2, 2]"),
        ((2, 2), frozenset({(0,)}), "cell (0,) must be 2 integer coordinates"),
        ((2, 2), frozenset({(0.5, 1)}), "cell (0.5, 1) must be 2 integer coordinates"),
        ((2, 2), [(0, 0), (0, 0), (-1, 0)], "cell [-1, 0] outside grid [2, 2]"),
    ]
    for dims, cells, message in constructed:
        with pytest.raises(InvalidInput, match=re.escape(message)):
            GridRegion(dims, cells)
    with pytest.raises(InvalidInput, match="empty region"):
        is_connected(GridRegion((2, 2), frozenset()))
    # file values are never truncated or coerced: non-integers, strings, bools,
    # nulls, scalar dims and integers beyond int64 are all invalid input
    cell = "cell {} must be 2 integer coordinates".format
    lengths = "axis lengths must be positive integers, got {}".format
    bad = [
        ([2, 2], [[1.7, 1]], cell("[1.7, 1]")),
        ([2, 2], [[1.0, 1]], cell("[1.0, 1]")),
        ([2.9, 3], [[1, 1]], lengths("[2.9, 3]")),
        ([2, 2], [["1", 1]], cell("['1', 1]")),
        (["2", 2], [[1, 1]], lengths("['2', 2]")),
        ([2, 2], [[True, 1]], cell("[True, 1]")),
        ([2, 2], [[True, True]], cell("[True, True]")),
        ([True, 2], [[1, 1]], lengths("[True, 2]")),
        ([2, 2], [[None, 1]], cell("[None, 1]")),
        ([None, 2], [[1, 1]], lengths("[None, 2]")),
        (3, [[1]], "dims must be a list of axis lengths, got 3"),
        ("3", [[1]], "dims must be a list of axis lengths, got '3'"),
        ([2, 2], [[BIG, 1]], cell(f"[{BIG}, 1]")),
        ([2, 2], [[-BIG - 1, 1]], cell(f"[{-BIG - 1}, 1]")),
        ([BIG, 2], [[1, 1]], lengths(f"[{BIG}, 2]")),
        ([2, 2], [[1, 2, 1]], cell("[1, 2, 1]")),
        ([2, 2], [[1, 2], [1]], cell("[1]")),
        ([2, 2], [[[1], [2]]], cell("[[1], [2]]")),
        ([2, 2], [1, 2], cell("1")),
        ([2, 2], 5, "occupied must be a list of cells, got 5"),
        ([2, 2], None, "occupied must be a list of cells, got None"),
        ([2, 2], [[0, 1]], "cell [0, 1] outside grid [2, 2]"),
        ([2, 2], [[3, 1]], "cell [3, 1] outside grid [2, 2]"),
        ([], [], "region needs at least one axis"),
        ([2, 2], [[1, 1], [1, 1], [2, 3]], "cell [2, 3] outside grid [2, 2]"),
    ]
    for dims, occupied, message in bad:
        with pytest.raises(InvalidInput, match=re.escape(message)):
            GridRegion.from_occupied(dims, occupied)
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"dims": dims, "occupied": occupied}))
        with pytest.raises(InvalidInput, match=re.escape(message)):
            read_region_json(path)
    # the largest int64 axis length is fine, and nothing of its volume is built
    r = GridRegion.from_occupied([BIG - 1, 2], [[BIG - 1, 2], [BIG - 1, 1]])
    assert r.cells == frozenset({(BIG - 2, 1), (BIG - 2, 0)})
    assert is_connected(r)


def test_from_occupied_is_one_based():
    r = GridRegion.from_occupied([2, 2], [[1, 1], [2, 2]])
    assert r.cells == frozenset({(0, 0), (1, 1)})
    assert r.occupied_1based() == [[1, 1], [2, 2]]


def test_repeated_unsorted_cells_read_as_their_set(tmp_path):
    """A region file that lists cells out of order and more than once gives
    the region, digest and report of the set of its cells."""
    ref = hollow_cube_mask()
    occupied = ref.occupied_1based()
    occupied = occupied[::-1] + occupied[::3]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"dims": list(ref.dims), "occupied": occupied}))
    r = read_region_json(path)
    assert r == ref and hash(r) == hash(ref)
    assert r.cells == ref.cells
    assert r.coords.dtype == np.int64
    assert r.coords.tolist() == [list(c) for c in sorted(ref.cells)]
    assert r.occupied_1based() == ref.occupied_1based()
    cert = premise_report(r)
    assert cert.inputs_digest == inputs_digest([3, 3, 3], sorted(map(list, ref.cells)))
    for fmt in ("json", "text"):
        assert emit_report([cert], fmt) == emit_report([premise_report(ref)], fmt)


def test_full_grid_and_diagonal_pair():
    assert is_connected(rectangle((3, 3)))
    assert not is_connected(GridRegion((2, 2), frozenset({(0, 0), (1, 1)})))


def test_rectangle_all_slices_connected_every_k():
    r = rectangle((3, 4, 2))
    assert is_connected(r)
    for k in (1, 2):
        assert slices_connected(r, k).all_connected


def test_bracket_connected_but_slice_broken():
    r = bracket_mask()
    assert is_connected(r)
    rep = slices_connected(r, 1)
    assert not rep.all_connected
    # exactly the interior columns x=2..5 lose connectivity
    broken = {v.spec.fixed_1based()[1] for v in rep.failing()}
    assert broken == {2, 3, 4, 5}


def test_offset_squares_disconnected_but_slices_fine():
    r = offset_squares_mask()
    assert not is_connected(r)
    assert slices_connected(r, 1).all_connected


def test_hollow_cube_slice_pattern():
    r = hollow_cube_mask()
    assert is_connected(r)
    assert not slices_connected(r, 1).all_connected
    assert slices_connected(r, 2).all_connected


def test_slab_with_corners_slice_pattern():
    r = slab_with_corners_mask()
    assert is_connected(r)
    assert slices_connected(r, 1).all_connected
    assert not slices_connected(r, 2).all_connected


def test_two_rectangles_sharing_x_columns():
    # disconnected region whose 1-slices along x are all connected
    cells = [(x, y) for x in range(4) for y in (0, 1)]
    cells += [(x, y) for x in range(4) for y in (3, 4)]
    r = GridRegion((4, 5), frozenset(cells))
    assert not is_connected(r)
    rep = slices_connected(r, 1)
    x_slices = [v for v in rep.verdicts if v.spec.free_axes == (0,)]
    assert x_slices and all(v.connected for v in x_slices)


def test_slice_range_guard():
    r = rectangle((2, 2))
    with pytest.raises(InvalidInput):
        slices_connected(r, 0)
    with pytest.raises(InvalidInput):
        slices_connected(r, 2)


def test_verdicts_invariant_under_axis_permutation_and_mirror():
    r = slab_with_corners_mask()
    base = (
        is_connected(r),
        slices_connected(r, 1).all_connected,
        slices_connected(r, 2).all_connected,
    )
    for perm in permutations(range(3)):
        dims = tuple(r.dims[p] for p in perm)
        cells = frozenset(tuple(c[p] for p in perm) for c in r.cells)
        rp = GridRegion(dims, cells)
        got = (
            is_connected(rp),
            slices_connected(rp, 1).all_connected,
            slices_connected(rp, 2).all_connected,
        )
        assert got == base, perm
    mirrored = GridRegion(
        r.dims, frozenset((r.dims[0] - 1 - c[0], c[1], c[2]) for c in r.cells)
    )
    assert (
        is_connected(mirrored),
        slices_connected(mirrored, 1).all_connected,
        slices_connected(mirrored, 2).all_connected,
    ) == base


def test_premise_report_verdict_combinations():
    convex = premise_report(rectangle((3, 3)))
    assert convex.holds
    assert convex.witness["isConnected"] and convex.witness["slicesAllConnected"]

    a = premise_report(bracket_mask())
    assert not a.holds
    assert a.witness["isConnected"] and not a.witness["slicesAllConnected"]
    assert a.witness["failingSlices"]

    b = premise_report(offset_squares_mask())
    assert not b.holds
    assert not b.witness["isConnected"] and b.witness["slicesAllConnected"]

    assert any("injectivity" in n for n in a.notes)
    assert a.criterion == "premises"


def test_premise_report_single_axis():
    r = GridRegion((4,), frozenset({(0,), (1,)}))
    cert = premise_report(r)
    assert cert.holds
    assert cert.witness["slicesAllConnected"] is None
    gap = GridRegion((4,), frozenset({(0,), (2,)}))
    assert not premise_report(gap).holds


def test_flood_fill_matches_oracle_on_random_masks():
    rng = np.random.default_rng(19)
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=int(rng.integers(2, 4))))
        all_cells = list(product(*[range(d) for d in dims]))
        keep = [c for c in all_cells if rng.random() < 0.6]
        if not keep:
            continue
        assert_matches_oracle(GridRegion(dims, frozenset(keep)))


def test_serpentine_path_is_connected():
    r = serpentine_mask()
    assert len(r.cells) == 8 * 15 + 7
    assert is_connected(r)
    assert_matches_oracle(r)
    # rows along x are whole or single cells; every column along y has gaps
    rep = slices_connected(r, 1)
    assert {v.spec.fixed for v in rep.failing()} == {((0, x),) for x in range(15)}
    cut = GridRegion(r.dims, r.cells - {(7, 8)})
    assert not is_connected(cut)
    assert_matches_oracle(cut)


def test_checkerboard_cells_are_separate_components():
    r = checkerboard_mask()
    assert not is_connected(r)
    for k in (1, 2):
        rep = slices_connected(r, k)
        assert all(v.connected == (v.cell_count == 1) for v in rep.verdicts)
    assert_matches_oracle(r)


def test_single_cell_region():
    for dims in ((1,), (3,), (3, 3), (2, 3, 4)):
        r = GridRegion(dims, frozenset({tuple(d - 1 for d in dims)}))
        assert is_connected(r)
        assert premise_report(r).holds
        for k in range(1, r.K):
            rep = slices_connected(r, k)
            assert rep.all_connected
            assert [v.cell_count for v in rep.verdicts] == [1] * len(rep.verdicts)


def test_huge_grid_runs_on_occupied_cells_only():
    dims = (2**40, 2**40, 3)
    r = GridRegion.from_occupied(dims, [[1, 1, 1], [1, 1, 2], [2**40, 2**40, 3]])
    assert not is_connected(r)
    rep = slices_connected(r, 1)
    assert [(v.spec.fixed, v.spec.free_axes, v.cell_count) for v in rep.verdicts] == [
        (((1, 0), (2, 0)), (0,), 1),
        (((1, 0), (2, 1)), (0,), 1),
        (((1, 2**40 - 1), (2, 2)), (0,), 1),
        (((0, 0), (2, 0)), (1,), 1),
        (((0, 0), (2, 1)), (1,), 1),
        (((0, 2**40 - 1), (2, 2)), (1,), 1),
        (((0, 0), (1, 0)), (2,), 2),
        (((0, 2**40 - 1), (1, 2**40 - 1)), (2,), 1),
    ]
    assert rep.all_connected
    assert_matches_oracle(r)
    cert = premise_report(r)
    assert not cert.holds and cert.witness["slicesAllConnected"]
