"""Discretized latent-topology premises: path-connectedness of an occupancy
grid region and of its k-slices under orthogonal adjacency.

Verdicts are about the discretization, not the continuum region it samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product

import numpy as np

from .certificates import Certificate, inputs_digest
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


def _check_inside(arr: np.ndarray, dims, base: int) -> None:
    """Every cell of arr lies in the grid, with coordinates counted from base."""
    last = np.array(dims, dtype=np.int64) + (base - 1)
    outside = ((arr < base) | (arr > last)).any(axis=1)
    if outside.any():
        raise InvalidInput(f"cell {arr[outside.argmax()].tolist()} outside grid {list(dims)}")


@dataclass(frozen=True)
class GridRegion:
    """Occupied cells of a K-axis grid; coordinates are 0-based internally."""

    dims: tuple
    cells: frozenset

    def __post_init__(self):
        _check_dims(self.dims)
        self.coords  # validates every cell

    @property
    def K(self) -> int:
        return len(self.dims)

    @cached_property
    def coords(self) -> np.ndarray:
        """The cells as an (N, K) int64 array in lexicographic order, the
        order of sorted(cells)."""
        arr = _cell_array(list(self.cells), self.K)
        _check_inside(arr, self.dims, 0)
        return arr[np.lexsort(arr.T[::-1])]

    @cached_property
    def _axis_edges(self) -> list:
        """For each axis, the (lo, hi) int32 index pairs into coords of the
        cells adjacent along it, lo < hi.

        Sorting by the other coordinates and then by the axis puts each line
        along the axis in order, so adjacent cells are consecutive rows one
        step apart on the axis and equal on every other one.  O(N log N) in
        the N occupied cells, whatever the grid's volume."""
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

    @classmethod
    def from_occupied(cls, dims, occupied) -> "GridRegion":
        """Build from 1-based coordinate lists (the file format)."""
        _check_dims(dims)
        dims = tuple(dims)
        try:
            rows = list(occupied)
        except TypeError:
            raise InvalidInput(f"occupied must be a list of cells, got {occupied!r}")
        arr = _cell_array(rows, len(dims))
        _check_inside(arr, dims, 1)
        arr -= 1
        return cls(dims=dims, cells=frozenset(zip(*arr.T.tolist())))

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


def _roots(n: int, edges) -> np.ndarray:
    """Components of the graph on vertices 0..n-1 with the given edges, a
    list of (lo, hi) integer index arrays: each vertex's root, the smallest
    vertex of its component.  A vertex is a root iff it is its own root.

    Min-root hooking with pointer jumping (Shiloach & Vishkin 1982): hook every
    root onto the smallest root an edge joins it to, then jump pointers until
    each vertex points at its root; repeat until no edge joins two roots."""
    lo = np.concatenate([e[0] for e in edges])
    hi = np.concatenate([e[1] for e in edges])
    parent = np.arange(n, dtype=np.int32)
    while True:
        a, b = parent[lo], parent[hi]
        cross = a != b
        if not cross.any():
            return parent
        # A parent is never larger than its cell, so hooking makes no cycle;
        # each round hooks at least one root onto a smaller index, so the
        # number of roots falls every round and the loop ends.  Edges inside
        # one component stay inside it, so only crossing edges are kept.
        lo, hi, a, b = lo[cross], hi[cross], a[cross], b[cross]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def is_connected(region: GridRegion) -> bool:
    """One orthogonal-adjacency component covers every occupied cell."""
    if not region.cells:
        raise InvalidInput("empty region")
    # connected iff every cell's root is cell 0
    return not _roots(len(region.coords), region._axis_edges).any()


def slices_connected(region: GridRegion, k: int) -> SliceReport:
    """Connectivity verdict for every nonempty k-slice of the region.

    A k-slice picks k axes to stay free and one coordinate for each of the
    other axes; its cells inherit orthogonal adjacency in the free axes.
    Slices come in order of their free axes, then of their fixed coordinates.
    """
    if not region.cells:
        raise InvalidInput("empty region")
    K = region.K
    if not 1 <= k < K:
        raise InvalidInput(f"slice order {k} outside 1..{K - 1}")
    coords = region.coords
    verdicts = []
    for free in combinations(range(K), k):
        fixed_axes = [a for a in range(K) if a not in free]
        # edges along the free axes never leave a slice, so each slice's
        # component count is the number of roots among its cells
        parent = _roots(len(coords), [region._axis_edges[a] for a in free])
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


def premise_report(region: GridRegion) -> Certificate:
    """Bundle the two grid-checkable premises of the local-to-global
    disentanglement result: the region is connected and every (K-1)-slice is
    connected.  The injectivity premise cannot be read off a grid."""
    if not region.cells:
        raise InvalidInput("empty region")
    digest = inputs_digest(list(region.dims), region.coords.tolist())
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
    cells = frozenset(product(*[range(d) for d in dims]))
    return GridRegion(dims=dims, cells=cells)
