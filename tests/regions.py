"""Occupancy masks whose connectivity verdicts are frozen expectations.

Each builder returns a region with a known pattern of overall and k-slice
connectivity: the bracket is connected but has broken 1-slices, the offset
squares are disconnected with all 1-slices fine, the hollow cube has broken
1-slices but intact 2-slices, and the slab with corners is the reverse.  The
serpentine is one long path, and in the checkerboard every cell is its own
component.  oracle_slice_verdicts spells out every k-slice verdict from the
exact flood-fill oracle, and assert_matches_oracle checks a region's verdicts
against it.
"""

from itertools import combinations, product

from mechindep.topology import GridRegion, is_connected, slices_connected

from oracles import oracle_grid_components, oracle_slices_all_connected


def bracket_mask():
    """Two horizontal bars joined by one vertical bar on a 5x3 grid."""
    cells = [(x, 0) for x in range(5)] + [(x, 2) for x in range(5)] + [(0, 1)]
    return GridRegion((5, 3), frozenset(cells))


def offset_squares_mask():
    """Two diagonally offset 2x2 squares on a 4x4 grid."""
    cells = [(x, y) for x in (0, 1) for y in (0, 1)]
    cells += [(x, y) for x in (2, 3) for y in (2, 3)]
    return GridRegion((4, 4), frozenset(cells))


def hollow_cube_mask():
    """3x3x3 cube with the center removed."""
    cells = [c for c in product(range(3), repeat=3) if c != (1, 1, 1)]
    return GridRegion((3, 3, 3), frozenset(cells))


def slab_with_corners_mask():
    """Full bottom 3x3 slab plus two diagonally opposite cells above it."""
    cells = [(x, y, 0) for x in range(3) for y in range(3)]
    cells += [(0, 0, 1), (2, 2, 1)]
    return GridRegion((3, 3, 2), frozenset(cells))


def serpentine_mask(width=15, height=15):
    """Full rows at even y, joined at alternating ends by single cells at odd
    y: one path of about width * height / 2 cells."""
    cells = [(x, y) for y in range(0, height, 2) for x in range(width)]
    cells += [(width - 1 if y % 4 == 1 else 0, y) for y in range(1, height, 2)]
    return GridRegion((width, height), frozenset(cells))


def checkerboard_mask(dims=(5, 4, 3)):
    """Cells with an even coordinate sum: no two of them are adjacent."""
    cells = [c for c in product(*(range(d) for d in dims)) if sum(c) % 2 == 0]
    return GridRegion(dims, frozenset(cells))


def oracle_slice_verdicts(dims, occupied, k):
    """(fixed, free_axes, connected, cell_count) of every nonempty k-slice, in
    the order of slices_connected: free axes in combinations order, then the
    fixed coordinates in ascending order."""
    cells = set(map(tuple, occupied))
    out = []
    for free in combinations(range(len(dims)), k):
        fixed_axes = [a for a in range(len(dims)) if a not in free]
        groups = {}
        for cell in cells:
            groups.setdefault(tuple(cell[a] for a in fixed_axes), []).append(cell)
        for key, group in sorted(groups.items()):
            connected = len(oracle_grid_components(dims, group)) == 1
            out.append((tuple(zip(fixed_axes, key)), free, connected, len(group)))
    return out


def assert_matches_oracle(r):
    """is_connected and every k-slice verdict, in order, equal the oracle's."""
    occupied = sorted(r.cells)
    assert is_connected(r) == (len(oracle_grid_components(r.dims, occupied)) == 1)
    for k in range(1, r.K):
        rep = slices_connected(r, k)
        got = [(v.spec.fixed, v.spec.free_axes, v.connected, v.cell_count) for v in rep.verdicts]
        assert got == oracle_slice_verdicts(r.dims, occupied, k)
        ok, bad = oracle_slices_all_connected(r.dims, occupied, k)
        assert rep.all_connected == ok
        assert [(v.spec.free_axes, tuple(c for _, c in v.spec.fixed)) for v in rep.failing()] == bad
