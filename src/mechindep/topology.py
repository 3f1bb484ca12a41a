"""Discretized latent-topology premises: path-connectedness of an occupancy
grid region and of its k-slices under orthogonal adjacency.

Verdicts are about the discretization, not the continuum region it samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product

import numpy as np

from .certificates import Certificate, _IntRows, inputs_digest
from .errors import InvalidInput

LOCAL_INJECTIVITY_NOTE = (
    "local injectivity of the mixing map is outside grid scope and must be "
    "asserted by the caller"
)

DISCRETIZATION_NOTE = (
    "grid verdicts approximate the continuum region by its occupancy mask"
)


_INT64_MAX = 2**63 - 1


def _is_int(v) -> bool:
    """An integer within int64; bools, floats and strings are not."""
    return (type(v) is int or isinstance(v, np.integer)) and -_INT64_MAX - 1 <= v <= _INT64_MAX


def _is_cell(row, K: int) -> bool:
    try:
        return len(row) == K and all(map(_is_int, row))
    except TypeError:
        return False


def _check_dims(dims) -> None:
    if not isinstance(dims, (list, tuple)):
        raise InvalidInput(f"dims must be a list of axis lengths, got {dims!r}")
    if not dims:
        raise InvalidInput("region needs at least one axis")
    if not all(type(d) is int and 1 <= d <= _INT64_MAX for d in dims):
        raise InvalidInput(f"axis lengths must be positive integers, got {list(dims)}")


def _cell_array(rows: list, K: int) -> np.ndarray:
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


def _inside_sorted(arr: np.ndarray, dims, base: int) -> tuple:
    """The cells of arr, with coordinates counted from base, 0-based in
    lexicographic order and each once, and their keys (GridRegion.key); a
    cell outside the grid is InvalidInput.

    Lexicographic order is the order of the row-major keys, so a strictly
    increasing key needs no sort.  A grid whose volume exceeds int64 has no
    keys and sorts its rows."""
    last = np.array(dims, dtype=np.int64) + (base - 1)
    outside = ((arr < base) | (arr > last)).any(axis=1)
    if outside.any():
        raise InvalidInput(f"cell {arr[outside.argmax()].tolist()} outside grid {list(dims)}")
    arr = arr - base
    if math.prod(dims) > _INT64_MAX:
        arr = arr[np.lexsort(arr.T[::-1])]
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        return arr[keep], None
    key = np.ravel_multi_index(arr.T, dims)
    if not (key[1:] > key[:-1]).all():
        key, first = np.unique(key, return_index=True)
        arr = arr[first]
    return arr, key


class GridRegion:
    """Occupied cells of a K-axis grid, held as coords: an (N, K) int64 array
    of 0-based coordinates in the order of sorted(cells), each cell once; and
    as key: each cell's row-major index in the grid, an (N,) strictly
    increasing int64 array, or None when the grid's volume exceeds int64."""

    def __init__(self, dims, cells):
        _check_dims(dims)
        self.dims = tuple(dims)
        self.coords, self.key = _inside_sorted(_cell_array(list(cells), len(dims)), dims, 0)

    def __eq__(self, other):
        same = isinstance(other, GridRegion) and self.dims == other.dims
        return same and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash((self.dims, self.coords.tobytes()))

    @property
    def K(self) -> int:
        return len(self.dims)

    @cached_property
    def cells(self) -> frozenset:
        return frozenset(map(tuple, self.coords.tolist()))

    @cached_property
    def _axis_edges(self) -> list:
        """For each axis, the (lo, hi) int32 index pairs into coords of the
        cells adjacent along it, lo < hi.

        The cell one step up axis a from a cell below the axis's last
        coordinate has the key key + stride[a], and one searchsorted in the
        sorted keys finds it if it is occupied.  Without keys, sorting by the
        other coordinates and then by the axis puts each line along the axis
        in order, so adjacent cells are consecutive rows one step apart on the
        axis and equal on every other one.  O(N log N) in the N occupied
        cells, whatever the grid's volume."""
        coords, key = self.coords, self.key
        edges = []
        for axis in range(self.K):
            if key is None:
                others = [coords[:, b] for b in reversed(range(self.K)) if b != axis]
                order = np.lexsort([coords[:, axis]] + others).astype(np.int32)
                s = coords[order]
                same = np.delete(s[1:] == s[:-1], axis, axis=1).all(axis=1)
                step = same & (s[1:, axis] - s[:-1, axis] == 1)
                lo, hi = order[:-1][step], order[1:][step]
            else:
                lo = np.flatnonzero(coords[:, axis] < self.dims[axis] - 1)
                up = key[lo] + math.prod(self.dims[axis + 1 :])
                hi = np.searchsorted(key, up)
                hit = key[np.minimum(hi, len(key) - 1)] == up
                lo, hi = lo[hit].astype(np.int32), hi[hit].astype(np.int32)
            edges.append((lo, hi))
        return edges

    @cached_property
    def _labels(self) -> dict:
        """_roots of the cells joined along each axis tuple asked of
        _roots_along so far, keyed by the tuple."""
        return {}

    def _roots_along(self, axes: tuple) -> np.ndarray:
        """_roots of the cells under the edges of the axes, a nonempty sorted
        tuple: those of axes[:-1], joined by the edges of axes[-1], and kept.
        Each axis set's labels are computed once per region."""
        if axes not in self._labels:
            start = self._roots_along(axes[:-1]) if len(axes) > 1 else None
            self._labels[axes] = _roots(len(self.coords), [self._axis_edges[axes[-1]]], start)
        return self._labels[axes]

    @cached_property
    def _reports(self) -> dict:
        """slices_connected's report of each order asked so far, keyed by the
        order."""
        return {}

    @classmethod
    def from_occupied(cls, dims, occupied) -> "GridRegion":
        """Build from 1-based coordinate lists (the file format)."""
        _check_dims(dims)
        try:
            rows = list(occupied)
        except TypeError:
            raise InvalidInput(f"occupied must be a list of cells, got {occupied!r}")
        region = cls.__new__(cls)
        region.dims = tuple(dims)
        region.coords, region.key = _inside_sorted(_cell_array(rows, len(dims)), dims, 1)
        return region

    def occupied_1based(self) -> list:
        return (self.coords + 1).tolist()


@dataclass(frozen=True)
class SliceSpec:
    """A k-slice: hold the axes in `fixed` constant, let the rest vary."""

    fixed: tuple  # ((axis, coord), ...) 0-based, sorted by axis
    free_axes: tuple

    def fixed_1based(self) -> dict:
        return {axis + 1: coord + 1 for axis, coord in self.fixed}


@dataclass(frozen=True)
class SliceVerdict:
    spec: SliceSpec
    connected: bool
    cell_count: int


@dataclass(frozen=True)
class SliceReport:
    k: int
    all_connected: bool
    verdicts: tuple

    def failing(self) -> list:
        return [v for v in self.verdicts if not v.connected]


def _roots(n: int, edges, parent: np.ndarray | None = None) -> np.ndarray:
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


def is_connected(region: GridRegion) -> bool:
    """One orthogonal-adjacency component covers every occupied cell."""
    if not len(region.coords):
        raise InvalidInput("empty region")
    # connected iff every cell's root is cell 0
    return not region._roots_along(tuple(range(region.K))).any()


def _slice_groups(region: GridRegion, fixed_axes: list) -> tuple:
    """The slices that fix fixed_axes, in order of their fixed coordinates:
    a cell index of each, each cell's slice, and each slice's cell count.

    With keys, one unique of the cells' row-major index in the fixed axes;
    its order is that of the fixed coordinates.  Without, a sort by them."""
    coords = region.coords
    if region.key is not None:
        fixed = np.ravel_multi_index(coords[:, fixed_axes].T, [region.dims[a] for a in fixed_axes])
        _, first, group, sizes = np.unique(
            fixed, return_index=True, return_inverse=True, return_counts=True
        )
        return first, group, sizes
    order = np.lexsort(coords[:, fixed_axes[::-1]].T)
    keys = coords[order][:, fixed_axes]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return order[first], group, np.diff(np.append(np.flatnonzero(first), len(keys)))


def slices_connected(region: GridRegion, k: int) -> SliceReport:
    """Connectivity verdict for every nonempty k-slice of the region.

    A k-slice picks k axes to stay free and one coordinate for each of the
    other axes; its cells inherit orthogonal adjacency in the free axes.
    Slices come in order of their free axes, then of their fixed coordinates.
    Each order's report is computed once per region.
    """
    if not len(region.coords):
        raise InvalidInput("empty region")
    K = region.K
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
        first, group, sizes = _slice_groups(region, fixed_axes)
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


def premise_report(region: GridRegion) -> Certificate:
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
        rep = slices_connected(region, region.K - 1)
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


def rectangle(dims) -> GridRegion:
    """Fully occupied box, the convex sanity case."""
    dims = tuple(int(d) for d in dims)
    return GridRegion(dims, product(*[range(d) for d in dims]))
