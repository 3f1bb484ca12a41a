"""Discretized latent-topology premises: path-connectedness of an occupancy
grid region and of its k-slices under orthogonal adjacency.

Verdicts are about the discretization, not the continuum region it samples.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, combinations, product

import numpy as np

from .certificates import Certificate, _IntRows, inputs_digest
from .core import as_int
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


# the row types numpy takes no coordinates from, and the byte buffers, whose
# bytes it would take as coordinates
_NOT_ROWS = (Set, Mapping, bytes, bytearray, memoryview)


def _is_cell(row, K: int) -> bool:
    try:
        return not isinstance(row, _NOT_ROWS) and len(row) == K and all(map(_is_int, row))
    except TypeError:
        return False


def _check_dims(dims) -> None:
    if not isinstance(dims, (list, tuple)):
        raise InvalidInput(f"dims must be a list of axis lengths, got {dims!r}")
    if not dims:
        raise InvalidInput("region needs at least one axis")
    if not all(type(d) is int and 1 <= d <= _INT64_MAX for d in dims):
        raise InvalidInput(f"axis lengths must be positive integers, got {list(dims)}")


def _cell_array(rows, K: int) -> np.ndarray:
    """Cells given as K integers each, as an (N, K) int64 array in input order.

    A float, string, bool or null coordinate, a wrong arity, or an integer
    beyond int64 is InvalidInput, naming the first such cell.  rows is a list,
    or a 2-D integer ndarray taken as it is, with the outcome of its .tolist():
    every row has its width (no rows are no cells, whatever the width), and
    only uint64 holds integers beyond int64."""
    if isinstance(rows, np.ndarray):
        if not len(rows):
            return np.zeros((0, K), dtype=np.int64)
        if rows.shape[1] != K:
            bad = rows[0]
        elif rows.dtype == np.uint64 and (over := (rows > _INT64_MAX).any(axis=1)).any():
            bad = rows[over.argmax()]
        else:
            return rows.astype(np.int64)
        raise InvalidInput(f"cell {bad.tolist()!r} must be {K} integer coordinates")
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


class GridRegion:
    """Occupied cells of a K-axis grid, held as coords: an (N, K) int64 array
    of 0-based coordinates in the order of sorted(cells), each cell once; and
    as key: each cell's row-major index in the grid, coords @ the axis
    strides, an (N,) strictly increasing array.  The strides and keys are
    int64 when the grid's volume fits int64 and Python integers in object
    arrays when it does not, so that no key wraps.

    A grid of volume at most K·N also has _index, each grid cell's position
    in coords or -1, so that it holds no more entries than coords; neighbours
    and slices are then looked up in it and counted by bincount.  Any other
    grid, sparse or wider than int64, has _index None and searches the keys."""

    def __init__(self, dims, cells):
        self._build(dims, cells, 0, "cells")

    @classmethod
    def from_occupied(cls, dims, occupied) -> "GridRegion":
        """Build from 1-based coordinate lists (the file format)."""
        region = cls.__new__(cls)
        region._build(dims, occupied, 1, "occupied")
        return region

    def _build(self, dims, cells, base: int, name: str) -> None:
        """Check the cells, given with coordinates counted from base, and
        keep them 0-based in key order, each once; a cell outside the grid is
        InvalidInput.  Lexicographic order is key order, so a strictly
        increasing key needs no sort."""
        _check_dims(dims)
        rows = cells
        if not (isinstance(cells, np.ndarray) and cells.ndim == 2 and cells.dtype.kind in "iu"):
            # any other array as its Python rows and coordinates
            try:
                rows = list(cells.tolist() if isinstance(cells, np.ndarray) else cells)
            except TypeError:
                raise InvalidInput(f"{name} must be a list of cells, got {cells!r}")
        arr = _cell_array(rows, len(dims))
        last = np.array(dims, dtype=np.int64) + (base - 1)
        outside = ((arr < base) | (arr > last)).any(axis=1)
        if outside.any():
            raise InvalidInput(f"cell {arr[outside.argmax()].tolist()} outside grid {list(dims)}")
        self.dims = tuple(dims)
        wide = math.prod(dims) > _INT64_MAX
        strides = [math.prod(dims[a + 1 :]) for a in range(len(dims))]
        self._strides = np.array(strides, dtype=object if wide else np.int64)
        arr -= base  # a fresh array, so in place
        self.coords = arr
        self.key = self.coords @ self._strides
        if not (self.key[1:] > self.key[:-1]).all():
            self.key, first = np.unique(self.key, return_index=True)
            self.coords = self.coords[first]
        # _roots_along's labels of each axis tuple and slices_connected's
        # report of each order, kept as they are asked for
        self._labels, self._reports = {}, {}

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
    def _index(self) -> np.ndarray | None:
        """Each grid cell's position in coords, by key, or -1 if unoccupied;
        None when the grid's volume exceeds K·N."""
        volume = math.prod(self.dims)
        if volume > self.K * len(self.coords):
            return None
        index = np.full(volume, -1)
        index[self.key] = np.arange(len(self.key))
        return index

    @cached_property
    def _axis_edges(self) -> list:
        """For each axis, the (lo, hi) int32 index pairs into coords of the
        cells adjacent along it, lo < hi.

        The cell one step up axis a from a cell below the axis's last
        coordinate has the key key + strides[a].  With _index, its entry there
        is its position, or -1; without, one searchsorted in the sorted keys
        finds it if it is occupied, O(N log N) in the N occupied cells,
        whatever the grid's volume."""
        key, index = self.key, self._index
        edges = []
        for axis in range(self.K):
            lo = np.flatnonzero(self.coords[:, axis] < self.dims[axis] - 1)
            up = key[lo] + self._strides[axis]
            if index is None:
                hi = np.searchsorted(key, up)
                hit = key[np.minimum(hi, len(key) - 1)] == up
            else:
                hi = index[up]
                hit = hi >= 0
            edges.append((lo[hit].astype(np.int32), hi[hit].astype(np.int32)))
        return edges

    def _roots_along(self, axes: tuple) -> np.ndarray:
        """_roots of the cells under the edges of the axes, a nonempty sorted
        tuple: those of axes[:-1], joined by the edges of axes[-1], and kept.
        Each axis set's labels are computed once per region."""
        if axes not in self._labels:
            start = self._roots_along(axes[:-1]) if len(axes) > 1 else None
            self._labels[axes] = _roots(len(self.coords), [self._axis_edges[axes[-1]]], start)
        return self._labels[axes]

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


class SliceReport:
    """The verdicts of a region's nonempty k-slices, in order of their free
    axes, then of their fixed coordinates.

    slices_connected holds them as arrays, one group per free-axis set: its
    free axes, its fixed axes, and its slices' fixed coordinates (0-based,
    a row per slice), connected flags and cell counts.  verdicts builds the
    SliceVerdict objects when first asked; a report built from a verdicts
    tuple holds that tuple.  Like a frozen dataclass of k, all_connected and
    verdicts, two reports are equal when those three are, and no field can
    be assigned."""

    def __init__(self, k: int, all_connected: bool, verdicts: tuple = (), *, groups=None):
        vars(self).update(k=k, all_connected=all_connected, _groups=groups)
        if groups is None:
            vars(self)["verdicts"] = tuple(verdicts)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @cached_property
    def verdicts(self) -> tuple:
        return tuple(
            SliceVerdict(SliceSpec(tuple(zip(axes, key)), free), c, n)
            for free, axes, fixed, connected, cells in self._groups
            for key, c, n in zip(fixed.tolist(), connected.tolist(), cells.tolist())
        )

    def failing(self) -> list:
        return [v for v in self.verdicts if not v.connected]

    def _columns(self) -> tuple:
        """Each slice's fixed_1based(), connected flag and cell count, as
        three lists in slice order, read off the arrays of a report that
        slices_connected built."""
        fixed, connected, cells = [], [], []
        for _, axes, coords, ok, counts in self._groups:
            axes = [a + 1 for a in axes]
            fixed += [dict(zip(axes, key)) for key in (coords + 1).tolist()]
            connected += ok.tolist()
            cells += counts.tolist()
        return fixed, connected, cells

    def _fields(self) -> tuple:
        return self.k, self.all_connected, self.verdicts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        k, all_connected, verdicts = self._fields()
        return f"SliceReport(k={k!r}, all_connected={all_connected!r}, verdicts={verdicts!r})"


def _roots(n: int, edges, parent: np.ndarray | None = None) -> np.ndarray:
    """Components of the graph on vertices 0..n-1 with the given edges, a
    list of (lo, hi) integer index arrays: each vertex's root, the smallest
    vertex of its component, as int32.  A vertex is a root iff it is its own
    root.  parent, if given, is _roots of the same vertices under other
    edges: the result is then the components under both edge sets, and
    parent is not modified.

    Min-root hooking with pointer jumping (Shiloach & Vishkin 1982): hook every
    root onto the smallest root an edge joins it to, then jump pointers until
    each vertex points at its root; repeat until no edge joins two roots.
    From a start, each edge joins the start's roots of its ends, so hooking
    and jumping run on those roots alone, and one gather through the start
    labels every vertex: the smallest start root of a joined component is
    its smallest vertex, since each start root is the smallest of its own."""
    # intp indices: numpy gathers through int32 ones about three times slower
    a = np.concatenate([e[0] for e in edges], dtype=np.intp)
    b = np.concatenate([e[1] for e in edges], dtype=np.intp)
    p = np.arange(n)
    if parent is None:
        live = slice(None)
    else:
        parent = parent.astype(np.intp)
        a, b = parent[a], parent[b]
        live = np.flatnonzero(parent == p)
    # a and b hold the roots of each edge's ends
    while True:
        cross = a != b
        if not cross.any():
            return (p if parent is None else p[parent]).astype(np.int32)
        # A parent is never larger than its vertex, so hooking makes no
        # cycle; each round hooks at least one root onto a smaller index, so
        # the number of roots falls every round and the loop ends.  Only
        # live vertices are hooked, onto live ones, so jumping among them
        # takes each to its root.  Edges inside one component stay inside
        # it, so only crossing edges are kept.
        a, b = a[cross], b[cross]
        np.minimum.at(p, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = p[live]
            jumped = p[up]
            if np.array_equal(jumped, up):
                break
            p[live] = jumped
        a, b = p[a], p[b]


def is_connected(region: GridRegion) -> bool:
    """One orthogonal-adjacency component covers every occupied cell."""
    if not len(region.coords):
        raise InvalidInput("empty region")
    # connected iff every cell's root is cell 0
    return not region._roots_along(tuple(range(region.K))).any()


def slices_connected(region: GridRegion, k: int) -> SliceReport:
    """Connectivity verdict for every nonempty k-slice of the region.

    A k-slice picks k axes to stay free and one coordinate for each of the
    other axes; its cells inherit orthogonal adjacency in the free axes.
    Slices come in order of their free axes, then of their fixed coordinates.
    Each free-axis set numbers each cell's slice by the row-major index of
    its fixed coordinates, which orders the slices.  With the region's _index
    two bincounts over the fixed axes' sub-grid, and without it one np.unique
    and a searchsorted, group them and count each slice's components as the
    roots that fall in it.  The report holds the result as arrays
    (SliceReport); each order's report is computed once per region.
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
    dense = region._index is not None
    groups = []
    for free in combinations(range(K), k):
        fixed_axes = [a for a in range(K) if a not in free]
        # edges along the free axes never leave a slice, so each slice's
        # component count is the number of roots among its cells
        roots = region._roots_along(free) == cells
        if dense:
            shape = [region.dims[a] for a in fixed_axes]
            fixed = np.ravel_multi_index(coords[:, fixed_axes].T, shape)
            sizes = np.bincount(fixed, minlength=math.prod(shape))
            comps = np.bincount(fixed[roots], minlength=len(sizes))
            keys = np.flatnonzero(sizes)
            sizes, comps = sizes[keys], comps[keys]
            at = np.column_stack(np.unravel_index(keys, shape))
        else:
            fixed = coords[:, fixed_axes] @ region._strides[fixed_axes]
            keys, first, sizes = np.unique(fixed, return_index=True, return_counts=True)
            comps = np.bincount(np.searchsorted(keys, fixed[roots]), minlength=len(keys))
            at = coords[first][:, fixed_axes]
        groups.append((free, fixed_axes, at, comps == 1, sizes))
    all_ok = all(g[3].all() for g in groups)
    region._reports[k] = SliceReport(k=k, all_connected=all_ok, groups=tuple(groups))
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
        fixed, ok, cells = rep._columns()
        witness["sliceCount"] = len(cells)
        witness["failingSlices"] = [
            {"fixed": f, "cells": n} for f, c, n in zip(fixed, ok, cells) if not c
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
    dims = tuple(as_int(d, "axis length", 1) for d in dims)
    return GridRegion(dims, product(*[range(d) for d in dims]))
