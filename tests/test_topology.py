"""Grid-region connectivity, k-slice reports, and the premise certificate;
the cell-key kernels against verbatim copies of the sort-based kernels they
replaced."""

import json
import math
import operator
import re
from functools import cached_property
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mechindep import topology
from mechindep.errors import InvalidInput
from mechindep.certificates import inputs_digest
from mechindep.io import emit_report, read_region_json
from mechindep.topology import (
    GridRegion,
    SliceReport,
    SliceSpec,
    SliceVerdict,
    _roots,
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
        ((2, 2), 5, "cells must be a list of cells, got 5"),
        ((2, 2), None, "cells must be a list of cells, got None"),
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


def test_set_mapping_and_bytes_rows_are_named():
    """A set, mapping or bytes row gives numpy no coordinates, so it is the
    cell the message names, not the good cell before it; a bytearray or
    memoryview row is refused as a bytes row is, not read as the cell of its
    byte values."""
    buffers = [(b, repr(b)) for b in (bytearray(b"\x01\x02"), memoryview(b"\x01\x02"))]
    for row, shown in [({1: 0, 2: 0}, "{1: 0, 2: 0}"), (b"\x01\x02", "b'\\x01\\x02'"), ({1, 2}, "{1, 2}")] + buffers:
        with pytest.raises(InvalidInput, match=re.escape(f"cell {shown} must be 2 integer coordinates")):
            GridRegion.from_occupied([3, 3], [[1, 2], row])


def test_from_occupied_is_one_based():
    r = GridRegion.from_occupied([2, 2], [[1, 1], [2, 2]])
    assert r.cells == frozenset({(0, 0), (1, 1)})
    assert r.occupied_1based() == [[1, 1], [2, 2]]


def _built(build, dims, cells):
    """A region's dims, cells and key, or the message of its error."""
    try:
        r = build(dims, cells)
    except InvalidInput as exc:
        return str(exc)
    return r.dims, r.coords.tolist(), r.key.dtype.str, r.key.tolist()


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_integer_array_cells_equal_their_rows(dtype):
    """An integer array of cells gives the region or the error of its
    .tolist() rows, from the constructor and from from_occupied, and is left
    as it was: repeated, unsorted, negative (wrapped in an unsigned array),
    outside the grid, no cells of any width, another width, 1-D, and a
    uint64 coordinate beyond int64."""
    cases = [
        [[3, 1], [1, 2], [0, 0], [3, 1], [2, 2]],
        [[1, 1], [-1, 2]],
        [[1, 1], [4, 1]],
        np.zeros((0, 2)),
        np.zeros((0, 3)),
        np.zeros((0, 1)),
        [[1, 2, 1], [1, 1, 1]],
        [[1], [2]],
        [1, 2],
        [],
    ]
    arrays = [np.array(case).astype(dtype) for case in cases]
    if dtype is np.uint64:
        arrays.append(np.array([[1, 1], [2, 2**63], [2**64 - 1, 1]], dtype=np.uint64))
    for arr in arrays:
        before = arr.copy()
        for build in (GridRegion, GridRegion.from_occupied):
            assert _built(build, [4, 3], arr) == _built(build, [4, 3], arr.tolist()), (arr, build)
        assert np.array_equal(arr, before) and arr.dtype == before.dtype
    if dtype is np.uint64:
        big = f"cell [2, {2**63}] must be 2 integer coordinates"
        assert _built(GridRegion.from_occupied, [4, 3], arrays[-1]) == big


@pytest.mark.parametrize(
    "arr, shown",
    [
        (np.array([[1.0, 2.0]]), "[1.0, 2.0]"),
        (np.array([[1, 2]], dtype=np.float32), "[1.0, 2.0]"),
        (np.array([[True, False]]), "[True, False]"),
    ],
)
def test_float_and_bool_arrays_are_refused(arr, shown):
    """Float and bool arrays are refused as their rows are, naming the row."""
    message = f"cell {shown} must be 2 integer coordinates"
    for build in (GridRegion, GridRegion.from_occupied):
        assert _built(build, [3, 3], arr) == _built(build, [3, 3], arr.tolist()) == message


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


def test_each_order_is_computed_once_per_region(monkeypatch):
    """slices_connected keeps each order's report on its region: asked twice,
    it is computed once; an equal region computes its own."""
    made = []
    report = SliceReport

    def counted(**fields):
        made.append(fields["k"])
        return report(**fields)

    monkeypatch.setattr(topology, "SliceReport", counted)
    r = hollow_cube_mask()
    first = slices_connected(r, 2)
    assert slices_connected(r, 2) is first
    assert made == [2]
    assert premise_report(r).witness["sliceCount"] == len(first.verdicts)
    assert made == [2]
    assert slices_connected(hollow_cube_mask(), 2) == first
    assert made == [2, 2]


def test_slice_range_guard():
    """k is an integer in 1..K-1: numpy integers are accepted, bools and
    floats are not."""
    r = rectangle((2, 2, 2))
    for k in (0, -1, 3):
        with pytest.raises(InvalidInput, match=re.escape(f"slice order {k} outside 1..2")):
            slices_connected(r, k)
    for k in (True, 1.0, 2.0, "1", None):
        with pytest.raises(InvalidInput, match="slice order k must be an integer"):
            slices_connected(r, k)
    rep = slices_connected(r, np.int64(2))
    assert type(rep.k) is int and rep == slices_connected(rectangle((2, 2, 2)), 2)


def test_rectangle_checks_its_lengths():
    """rectangle never truncates a length; numpy integers are lengths."""
    for dims in ([2.5, 2], [2.0, 2], [True, 2], [0, 2]):
        with pytest.raises(InvalidInput, match="axis length must be an integer >= 1"):
            rectangle(dims)
    r = rectangle(np.array([2, 3]))
    assert r.dims == (2, 3) and all(type(d) is int for d in r.dims)
    assert len(r.cells) == 6 and is_connected(r)


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


# The sort-based grid kernels the cell key replaced, verbatim but for their
# names, most docstrings and comments, and _axis_edges as a function of a
# region, and now the only copy of that code: the reference for the key's
# dedupe and order, its neighbours and slice grouping on both paths (the grid
# index and bincount, or searchsorted and np.unique) and its warm-started
# components, on every grid.
def reference_inside_sorted(arr: np.ndarray, dims, base: int) -> np.ndarray:
    """The cells of arr, with coordinates counted from base, 0-based in
    lexicographic order and each once; a cell outside the grid is InvalidInput."""
    last = np.array(dims, dtype=np.int64) + (base - 1)
    outside = ((arr < base) | (arr > last)).any(axis=1)
    if outside.any():
        raise InvalidInput(f"cell {arr[outside.argmax()].tolist()} outside grid {list(dims)}")
    arr = arr[np.lexsort(arr.T[::-1])] - base
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[keep]


def reference_axis_edges(self) -> list:
    coords = self.coords
    edges = []
    for axis in range(self.K):
        others = [coords[:, b] for b in reversed(range(self.K)) if b != axis]
        order = np.lexsort([coords[:, axis]] + others).astype(np.int32)
        s = coords[order]
        same = np.delete(s[1:] == s[:-1], axis, axis=1).all(axis=1)
        step = same & (s[1:, axis] - s[:-1, axis] == 1)
        edges.append((order[:-1][step], order[1:][step]))
    return edges


def reference_roots(n: int, edges) -> np.ndarray:
    lo = np.concatenate([e[0] for e in edges])
    hi = np.concatenate([e[1] for e in edges])
    parent = np.arange(n, dtype=np.int32)
    while True:
        a, b = parent[lo], parent[hi]
        cross = a != b
        if not cross.any():
            return parent
        lo, hi, a, b = lo[cross], hi[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def reference_slices_connected(region, k: int) -> SliceReport:
    if not len(region.coords):
        raise InvalidInput("empty region")
    K = region.K
    if not 1 <= k < K:
        raise InvalidInput(f"slice order {k} outside 1..{K - 1}")
    coords = region.coords
    verdicts = []
    for free in combinations(range(K), k):
        fixed_axes = [a for a in range(K) if a not in free]
        parent = reference_roots(len(coords), [region._axis_edges[a] for a in free])
        roots = parent == np.arange(len(coords))
        order = np.lexsort(coords[:, fixed_axes[::-1]].T)
        keys = coords[order][:, fixed_axes]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        group = np.cumsum(first) - 1
        comps = np.bincount(group[roots[order]], minlength=group[-1] + 1)
        sizes = np.diff(np.append(np.flatnonzero(first), len(keys)))
        for key, c, size in zip(keys[first].tolist(), comps.tolist(), sizes.tolist()):
            verdicts.append(
                SliceVerdict(
                    spec=SliceSpec(fixed=tuple(zip(fixed_axes, key)), free_axes=free),
                    connected=c == 1,
                    cell_count=size,
                )
            )
    all_ok = all(v.connected for v in verdicts)
    return SliceReport(k=k, all_connected=all_ok, verdicts=tuple(verdicts))


class ReferenceRegion:
    """A region as the sort-based kernels held it: coords and the edges."""

    def __init__(self, dims, arr, base):
        self.dims = tuple(dims)
        self.coords = reference_inside_sorted(arr, dims, base)

    K = property(lambda self: len(self.dims))
    _axis_edges = cached_property(reference_axis_edges)


@st.composite
def _cell_lists(draw):
    """(dims, cells, base): K = 1..6 axes, cells listed in random order with
    repeats, counted from base 0 or 1.  A third of the grids have a volume
    beyond int64 (K >= 2, axes up to 2^62) with their cells in a window of a
    few cells per axis at a random offset, so that they have neighbours.  A
    third of the others are near-full boxes, up to 30 % of their cells
    missing, so that the grids of volume at most K·N (GridRegion._index)
    and those beyond it come about equally often."""
    K = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if K >= 2 and draw(st.integers(0, 2)) == 0:
        dims = [int(d) for d in rng.choice([3, 2**31, 2**40, 2**62], size=K)]
        dims[0] = 2**62 if math.prod(dims) <= 2**63 - 1 else dims[0]
        assert math.prod(dims) > 2**63 - 1
    else:
        dims = [int(d) for d in rng.integers(1, 6, size=K)]
    base = draw(st.integers(0, 1))
    if math.prod(dims) <= 2**63 - 1 and draw(st.integers(0, 2)) == 0:
        box = np.indices(dims).reshape(K, -1).T
        kept = box[rng.random(len(box)) >= rng.uniform(0, 0.3)]
        kept = kept if len(kept) else box[:1]
        cells = np.concatenate([kept, kept[rng.integers(0, len(kept), size=len(kept) // 4)]])
        return dims, (rng.permutation(cells) + base).tolist(), base
    window = np.minimum(dims, rng.integers(1, 5, size=K))
    offset = [int(rng.integers(0, d - w + 1)) for d, w in zip(dims, window.tolist())]
    count = draw(st.integers(1, 3 * int(np.prod(window))))
    cells = rng.integers(0, window, size=(count, K)) + np.array(offset, dtype=np.int64)
    return dims, (cells + base).tolist(), base


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_cell_lists())
@example(([2**40, 2**40, 3], [[1, 1, 1], [1, 1, 2], [2**40, 2**40, 3]], 1))
@example(([1], [[0]], 0))
@example(([3, 1, 2, 1, 2, 3], [[2, 0, 1, 0, 1, 2], [0, 0, 0, 0, 0, 0], [2, 0, 1, 0, 1, 2]], 0))
# volume K·N, the largest with an index, and K·N + 1, the smallest without
@example(([4, 2], [[0, 0], [1, 0], [1, 1], [3, 1], [1, 0]], 0))
@example(([3, 3], [[1, 1], [1, 2], [2, 1], [3, 3], [1, 1]], 1))
@example(([2, 2, 3], [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]], 0))
@example(([2, 2, 4], [[1, 1, 1], [1, 1, 2], [1, 2, 2], [2, 2, 2], [2, 2, 4]], 1))
def test_cell_key_kernels_equal_the_sort_kernels(case):
    """The key's cells, edge sets, connectivity, every slice verdict of every
    order (asked in the order a topology request asks them, then again from
    a fresh region, order K-1 first) and premise digest equal the sort-based
    kernels'; the key is each cell's row-major index, in Python integers
    beyond int64; and the region has an index exactly when its volume is at
    most K·N."""
    dims, cells, base = case
    arr = np.array(cells, dtype=np.int64)
    ref = ReferenceRegion(dims, arr, base)
    build = GridRegion.from_occupied if base else GridRegion
    r = build(dims, cells)
    assert r.coords.tolist() == ref.coords.tolist()
    assert (r._index is None) == (math.prod(dims) > len(dims) * len(r.coords))
    assert r.key.dtype == (object if math.prod(dims) > 2**63 - 1 else np.int64)
    strides = [math.prod(dims[a + 1 :]) for a in range(len(dims))]
    assert r.key.tolist() == [sum(map(operator.mul, c, strides)) for c in ref.coords.tolist()]
    n = len(ref.coords)
    for got, want in zip(r._axis_edges, ref._axis_edges):
        assert got[0].dtype == got[1].dtype == np.int32
        assert sorted(zip(*(e.tolist() for e in got))) == sorted(zip(*(e.tolist() for e in want)))
    assert np.array_equal(_roots(n, r._axis_edges), reference_roots(n, ref._axis_edges))
    connected = not reference_roots(n, ref._axis_edges).any()
    cert = premise_report(r)
    assert is_connected(r) == cert.witness["isConnected"] == connected
    assert cert.inputs_digest == inputs_digest(list(dims), ref.coords.tolist())
    orders = range(1, len(dims))
    for fresh in (False, True):
        region = build(dims, cells) if fresh else r
        for k in sorted(orders, reverse=fresh):
            want = reference_slices_connected(ref, k)
            assert slices_connected(region, k) == want
            if k == len(dims) - 1:
                assert cert.witness["slicesAllConnected"] == want.all_connected
                assert cert.witness["sliceCount"] == len(want.verdicts)
    if len(dims) == 1:
        assert cert.witness["slicesAllConnected"] is None


def test_warm_start_leaves_its_labels_unchanged():
    """_roots joins a start's components without writing to the start."""
    start = np.array([0, 0, 2, 3], dtype=np.int32)
    edges = [(np.array([1], dtype=np.int32), np.array([2], dtype=np.int32))]
    assert _roots(4, edges, start).tolist() == [0, 0, 0, 3]
    assert start.tolist() == [0, 0, 2, 3]
