"""2.5D scene construction from a semantic class raster and a surface model.

Grids are stored south-row-first (row index grows with y); their ESRI ASCII
files (`gridio`) keep the north row first. Cell (ix, iy) covers
x in [origin + ix*cell, origin + (ix+1)*cell) and its center carries the
class label and elevation sample.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
import reprlib
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .config_json import (DataError, check_entries, check_numbers, check_object, finite_array,
                          is_kind, prefixed, read_config_fields, read_json, write_json)
from .geometry import outline_distance
from .gridio import read_grid, write_codes, write_elevations


class CellClass(IntEnum):
    IMPERVIOUS_SURFACE = 0
    BUILDING = 1
    LOW_VEGETATION = 2
    TREE = 3
    CAR = 4
    CLUTTER = 5


USER_CLASSES = (CellClass.IMPERVIOUS_SURFACE, CellClass.LOW_VEGETATION, CellClass.CLUTTER)
CANDIDATE_EXCLUDED = (CellClass.TREE, CellClass.CLUTTER, CellClass.CAR)

USER_HEIGHT_M = 2.0


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_grid_geometry(cell_size: float, origin: tuple[float, float], grid: np.ndarray):
    if not _is_number(cell_size):
        raise DataError(f"cell_size must be a number, got {cell_size!r}")
    # NaN fails every comparison, so `cell_size <= 0` alone would let it through
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise DataError(f"cell_size must be finite and positive, got {cell_size!r}")
    try:
        x, y = origin
    except (TypeError, ValueError):  # not a pair
        x = y = None
    if not (_is_number(x) and _is_number(y)):
        raise DataError(f"origin must be two numbers, got {origin!r}")
    if not np.isfinite(origin).all():
        raise DataError(f"origin must be finite, got {origin!r}")
    if grid.ndim != 2 or grid.size == 0:
        raise DataError(f"grid must be 2-D with at least one cell, got shape {grid.shape}")


@dataclass
class ClassRaster:
    """Per-cell semantic labels on a regular grid."""

    cell_size: float
    origin: tuple[float, float]
    classes: np.ndarray  # int array [height, width], row 0 southernmost

    def __post_init__(self):
        classes = np.asarray(self.classes, dtype=float)
        _check_grid_geometry(self.cell_size, self.origin, classes)
        if not np.isfinite(classes).all():
            raise DataError("class raster contains non-finite codes")
        if not np.array_equal(np.floor(classes), classes):
            raise DataError("class raster contains non-integer codes")
        out = (classes < 0) | (classes > 5)
        if out.any():  # checked before the cast, which wraps codes past int16
            raise DataError(f"class code {classes[out][0]:.0f} outside 0..5")
        self.classes = classes.astype(np.int16)

    @property
    def height(self) -> int:
        return self.classes.shape[0]

    @property
    def width(self) -> int:
        return self.classes.shape[1]

    def cell_at(self, x: float, y: float) -> tuple[int, int]:
        ix = int(np.floor((x - self.origin[0]) / self.cell_size))
        iy = int(np.floor((y - self.origin[1]) / self.cell_size))
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise DataError(f"point ({x}, {y}) outside raster extent")
        return ix, iy

    def label_at(self, x: float, y: float) -> CellClass:
        ix, iy = self.cell_at(x, y)
        return CellClass(int(self.classes[iy, ix]))


@dataclass
class Dsm:
    """Surface elevation in meters on the same grid as the class raster."""

    cell_size: float
    origin: tuple[float, float]
    elevation: np.ndarray  # float array [height, width], row 0 southernmost

    def __post_init__(self):
        self.elevation = np.asarray(self.elevation, dtype=float)
        _check_grid_geometry(self.cell_size, self.origin, self.elevation)
        if not np.isfinite(self.elevation).all():
            raise DataError("DSM contains non-finite elevations")

    @property
    def height(self) -> int:
        return self.elevation.shape[0]

    @property
    def width(self) -> int:
        return self.elevation.shape[1]

    def bilinear(self, x, y):
        """Elevation interpolated between cell centers, clamped at borders.

        Takes two floats, or two equal-shape arrays and returns an array.
        """
        gx = np.clip((np.asarray(x, dtype=float) - self.origin[0]) / self.cell_size - 0.5,
                     0.0, self.width - 1.0)
        gy = np.clip((np.asarray(y, dtype=float) - self.origin[1]) / self.cell_size - 0.5,
                     0.0, self.height - 1.0)
        ix0 = np.minimum(gx.astype(np.intp), max(self.width - 2, 0))
        iy0 = np.minimum(gy.astype(np.intp), max(self.height - 2, 0))
        ix1 = np.minimum(ix0 + 1, self.width - 1)
        iy1 = np.minimum(iy0 + 1, self.height - 1)
        fx = gx - ix0
        fy = gy - iy0
        z = self.elevation
        val = (
            z[iy0, ix0] * (1 - fx) * (1 - fy)
            + z[iy0, ix1] * fx * (1 - fy)
            + z[iy1, ix0] * (1 - fx) * fy
            + z[iy1, ix1] * fx * fy
        )
        return float(val) if val.ndim == 0 else val


@dataclass
class BuildingPrism:
    """Vertical prism: a footprint polygon extruded from base to roof."""

    footprint: np.ndarray  # (n, 2) counterclockwise, open ring
    base_elev: float
    top_elev: float
    bbox: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self):
        self.footprint = np.asarray(self.footprint, dtype=float)
        if self.footprint.ndim != 2 or self.footprint.shape[0] < 3:
            raise DataError("footprint needs at least 3 vertices")
        if not self.top_elev > self.base_elev:
            raise DataError("prism roof must be above its base")
        xs, ys = self.footprint[:, 0].tolist(), self.footprint[:, 1].tolist()
        self.bbox = (min(xs), min(ys), max(xs), max(ys))  # faster than numpy on a few vertices


@dataclass
class User:
    position: np.ndarray  # (3,) meters
    priority: bool  # near a building or on a road

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class CandidateSite:
    id: int
    position: np.ndarray  # (3,) meters, z includes the mast

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class Scene:
    """Immutable 2.5D world shared by the simulator and the optimizers."""

    buildings: list[BuildingPrism]
    users: list[User]
    candidates: list[CandidateSite]
    fixed_bs: list[np.ndarray]

    def __post_init__(self):
        self.fixed_bs = [np.asarray(p, dtype=float) for p in self.fixed_bs]

    def user_positions(self) -> np.ndarray:
        if not self.users:
            return np.zeros((0, 3))
        return np.array([u.position for u in self.users])

    def priority_mask(self) -> np.ndarray:
        return np.array([u.priority for u in self.users], dtype=bool)

    def candidate_positions(self) -> np.ndarray:
        if not self.candidates:
            return np.zeros((0, 3))
        return np.array([c.position for c in self.candidates])


@dataclass
class SceneConfig:
    user_spacing_m: float = 10.0
    candidate_pitch_m: float = 50.0
    mast_height_m: float = 25.0
    near_dist_m: float = 10.0
    fixed_bs: list = field(default_factory=list)

    def __post_init__(self):
        check_numbers(self)
        for name in ("user_spacing_m", "candidate_pitch_m", "mast_height_m"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.near_dist_m < 0:
            raise DataError(f"near_dist_m must be >= 0, got {self.near_dist_m!r}")

    @classmethod
    def from_json(cls, path) -> "SceneConfig":
        return cls(**read_config_fields(path, cls))


# ---------------------------------------------------------------------------
# Grid files (the ESRI ASCII format itself is in gridio)

def load_raster(path) -> ClassRaster:
    """Read a class raster from an ESRI ASCII grid of codes 0..5; every
    error names `path`."""
    xll, yll, cell, grid = read_grid(path)
    with prefixed(path):
        return ClassRaster(cell, (xll, yll), grid)


def save_raster(raster: ClassRaster, path):
    write_codes(path, raster.cell_size, raster.origin, raster.classes)


def load_dsm(path) -> Dsm:
    """Read a DSM from an ESRI ASCII grid of elevations; every error names `path`."""
    xll, yll, cell, grid = read_grid(path)
    with prefixed(path):
        return Dsm(cell, (xll, yll), grid)


def save_dsm(dsm: Dsm, path):
    """Write `dsm` as an ESRI ASCII grid of repr of each elevation; an
    elevation equal to the files' NODATA value -9999 raises DataError."""
    write_elevations(path, dsm.cell_size, dsm.origin, dsm.elevation)


def check_aligned(raster: ClassRaster, dsm: Dsm):
    if (raster.height, raster.width) != (dsm.height, dsm.width):
        raise DataError(
            f"raster grid {raster.height}x{raster.width} does not match "
            f"DSM grid {dsm.height}x{dsm.width}"
        )
    if abs(raster.cell_size - dsm.cell_size) > 1e-9 or (
        abs(raster.origin[0] - dsm.origin[0]) > 1e-9
        or abs(raster.origin[1] - dsm.origin[1]) > 1e-9
    ):
        raise DataError("raster and DSM disagree on cell size or origin")


# ---------------------------------------------------------------------------
# Building extraction

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)  # 4-connectivity


@dataclass
class BuildingComponents:
    """The 4-connected components of a raster's building cells, labelled once.

    `labels` numbers the components 1..n in scan order (0 off buildings).
    `tops[k]` is component k+1's roof height, the median DSM over its cells;
    the prisms and the roof-mounted sites both take it from here.
    """

    labels: np.ndarray
    tops: np.ndarray


def building_components(raster: ClassRaster, dsm: Dsm) -> BuildingComponents:
    """Label the building components once and take every roof in one grouped median."""
    from scipy import ndimage  # here, not at the top: commands that load a scene never need it

    check_aligned(raster, dsm)
    labels, count = ndimage.label(raster.classes == CellClass.BUILDING, structure=_CROSS)
    cells = np.flatnonzero(labels)
    tops = _group_medians(labels.ravel()[cells] - 1, dsm.elevation.ravel()[cells], count)
    return BuildingComponents(labels, tops)


def extract_buildings(
    raster: ClassRaster,
    dsm: Dsm,
    components: BuildingComponents | None = None,
) -> list[BuildingPrism]:
    """One prism per 4-connected component of building cells.

    Roof height is the median DSM over the component; base height is the
    median DSM over the ring of adjacent non-building cells. Medians keep
    single-cell DSM noise out of the prism heights. Bases and footprints
    are each found in one pass over the whole grid, for every component at
    once. `components` defaults to `building_components(raster, dsm)`.
    """
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)
    labels, tops = components.labels, components.tops
    bases = _ring_medians(labels, dsm.elevation, len(tops))
    empty = np.flatnonzero(np.isnan(bases))  # a component that fills the grid has no ring
    if empty.size:
        from scipy import ndimage

        bases[empty] = ndimage.minimum(dsm.elevation, labels, empty + 1)
    footprints = _trace_footprints(labels, len(tops), raster.origin, raster.cell_size)
    # degenerate flat terrain still yields a prism
    return [BuildingPrism(footprint, min(base, top - 1e-6), top)
            for footprint, base, top in zip(footprints, bases.tolist(), tops.tolist())]


def _group_medians(groups: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """np.median of the values of each group 0..count-1, NaN for an empty group.

    One sort by value and a stable one by group put every group's values in
    order; the median is the middle one, or the mean of the middle two as
    np.median takes it, (lo + hi) / 2.
    """
    order = np.argsort(values)  # equal values may come in any order
    order = order[np.argsort(groups[order], kind="stable")]
    ordered = np.append(values[order], np.nan)
    size = np.bincount(groups, minlength=count)
    start = np.cumsum(size) - size
    lo = np.where(size > 0, start + (size - 1) // 2, -1)  # -1 reads the NaN
    hi = np.where(size > 0, start + size // 2, -1)
    return np.where(lo == hi, ordered[lo], (ordered[lo] + ordered[hi]) / 2)


def _across_sides(labels: np.ndarray):
    """The label across the south, east, north and west side of every cell (0 off the grid)."""
    padded = np.pad(labels, 1)
    return padded[:-2, 1:-1], padded[1:-1, 2:], padded[2:, 1:-1], padded[1:-1, :-2]


def _ring_medians(labels: np.ndarray, elevation: np.ndarray, count: int) -> np.ndarray:
    """Median elevation over each component's ring, the off-building cells
    4-adjacent to it; NaN for a component without one."""
    off = labels == 0
    comps, cells = [], []
    seen = []  # the sides already taken: a cell counts once per component it touches
    for across in _across_sides(labels):
        ring = off & (across > 0)
        for other in seen:
            ring &= across != other
        seen.append(across)
        comps.append(across[ring])
        cells.append(np.flatnonzero(ring))
    return _group_medians(np.concatenate(comps) - 1,
                          elevation.ravel()[np.concatenate(cells)], count)


# A cell's open sides are unit edges with the cell on their left, south
# side first: their start corner, as an offset from the cell's lower-left
# corner, and their direction (east, north, west, south: d = 0..3).
_SIDE_STARTS = ((0, 0), (1, 0), (1, 1), (0, 1))
_STEPS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])
# preference among a corner's out-edges, by the turn (out d - in d) % 4 from
# the in-edge: left first, then straight on, then right
_TURN_RANK = np.array([1, 0, 3, 2])


def _trace_footprints(labels: np.ndarray, count: int, origin, cell_size) -> list[np.ndarray]:
    """Outer boundary of each component 1..count as a counterclockwise polygon.

    Every open side of every building cell is a directed unit edge with the
    cell on its left; two components are never 4-adjacent, so all edges of
    the grid are listed at once. The successor of an edge is the out-edge at
    its end corner, preferring the left turn at a pinch corner, which keeps
    each loop as tight as possible; the loops are the cycles of that table.
    Each component keeps its loop of largest area (inner rings around holes
    are dropped; a tie goes to the loop with the least start corner), begun
    at its least corner and run counterclockwise, with the corners that do
    not turn dropped. Corners are exact integers until they are scaled.
    """
    if count == 0:
        return []
    xs, ys, ds, comps = [], [], [], []
    building = labels > 0
    for d, (across, (sx, sy)) in enumerate(zip(_across_sides(labels), _SIDE_STARTS)):
        iy, ix = np.nonzero(building & (across == 0))
        xs.append(ix + sx)
        ys.append(iy + sy)
        ds.append(np.full(ix.size, d))
        comps.append(labels[iy, ix])
    x, y, d, comp = (np.concatenate(c) for c in (xs, ys, ds, comps))
    # corner keys ascend as (x, y) tuples do; sort the edges by start corner
    stride = labels.shape[0] + 1
    key = x * stride + y
    order = np.argsort(key)
    key, x, y, d, comp = key[order], x[order], y[order], d[order], comp[order]
    n, edge = key.size, np.arange(key.size)

    # successor: the out-edge at the end corner, of which a pinch corner has two
    step_x, step_y = _STEPS[d].T
    end = key + step_x * stride + step_y
    first = np.searchsorted(key, end)
    second = np.minimum(first + 1, n - 1)
    better = ((first + 1 < n) & (key[second] == end)
              & (_TURN_RANK[(d[second] - d) % 4] < _TURN_RANK[(d[first] - d) % 4]))
    succ = np.where(better, second, first)

    # each edge's loop head: its least edge, that is the edge at its least corner
    # (pointer jumping: after r rounds, the least of the 2**r edges from each one)
    rounds = int(np.bincount(comp).max()).bit_length()  # no loop outruns its component
    head, ahead = edge.copy(), succ
    for _ in range(rounds):
        head = np.minimum(head, head[ahead])
        ahead = ahead[ahead]
    # twice each loop's signed area (shoelace, exact in integers)
    area = np.zeros(n, dtype=np.int64)
    np.add.at(area, head, x * step_y - y * step_x)
    heads = np.flatnonzero(head == edge)  # in order of their least corner
    pick = heads[np.lexsort((heads, -np.abs(area[heads]), comp[heads]))]
    kept = np.zeros(n, dtype=bool)
    kept[pick[np.r_[True, comp[pick][1:] != comp[pick][:-1]]]] = True

    # edges to the end of each loop, begun at its head (list ranking, as many rounds)
    ahead = np.where(succ == head, edge, succ)  # the loop's last edge points at itself
    togo = (ahead != edge).astype(np.int64)
    for _ in range(rounds):
        togo += togo[ahead]
        ahead = ahead[ahead]
    # the corners that turn, in loop order, counterclockwise
    pred = np.empty_like(succ)
    pred[succ] = edge
    corner = np.flatnonzero(kept[head] & (d != d[pred]))
    clockwise = area[head[corner]] < 0
    corner = corner[np.lexsort((np.where(clockwise, togo[corner], -togo[corner]),
                                comp[corner]))]
    pts = np.column_stack([x[corner], y[corner]]).astype(float) * cell_size
    pts[:, 0] += origin[0]
    pts[:, 1] += origin[1]
    bounds = np.cumsum(np.bincount(comp[corner], minlength=count + 1)).tolist()
    return [pts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Users and candidate sites

def _lattice(origin_c: float, extent_m: float, pitch: float) -> np.ndarray:
    n = int(np.floor(extent_m / pitch))
    return origin_c + pitch * (np.arange(n) + 0.5)


def _lattice_cells(raster: ClassRaster, pitch: float):
    """Lattice points at `pitch` over the raster, west to east within rows
    from south to north, as x, y and the row and column of each point's cell."""
    xs = _lattice(raster.origin[0], raster.width * raster.cell_size, pitch)
    ys = _lattice(raster.origin[1], raster.height * raster.cell_size, pitch)
    x, y = (g.ravel() for g in np.meshgrid(xs, ys))
    ix = np.floor((x - raster.origin[0]) / raster.cell_size).astype(np.intp)
    iy = np.floor((y - raster.origin[1]) / raster.cell_size).astype(np.intp)
    outside = (ix < 0) | (ix >= raster.width) | (iy < 0) | (iy >= raster.height)
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise DataError(f"point ({x[i]}, {y[i]}) outside raster extent")
    return x, y, iy, ix


def place_users(
    raster: ClassRaster,
    dsm: Dsm,
    spacing: float,
    near_dist: float,
    buildings: list[BuildingPrism],
) -> list[User]:
    """Users on a regular lattice, 2 m above the surface.

    Lattice points on building/tree/car cells are skipped. A user has
    priority when it stands on an impervious surface (roads, pavements) or
    within near_dist of a building footprint. The (user, prism) pairs of the
    other users that lie within near_dist of the prism's bbox, found for
    all prisms at once, go to one `geometry.outline_distance` call, which
    gives each pair's exact distance to the footprint (0 inside or on it).
    """
    if spacing <= 0:
        raise DataError("user spacing must be positive")
    check_aligned(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, spacing)
    label = raster.classes[iy, ix]
    walkable = np.isin(label, USER_CLASSES)
    if not walkable.any():
        raise DataError("no lattice point falls on a walkable cell")
    x, y, label = x[walkable], y[walkable], label[walkable]
    positions = np.column_stack([x, y, dsm.bilinear(x, y) + USER_HEIGHT_M])
    priority = label == CellClass.IMPERVIOUS_SURFACE
    rest = np.flatnonzero(~priority)
    if buildings and rest.size:
        prism, user = _near_bbox_pairs(x[rest], y[rest], buildings, near_dist)
        near = outline_distance(x[rest[user]], y[rest[user]],
                                [b.footprint for b in buildings], prism) <= near_dist
        priority[rest[user[near]]] = True
    return [User(p, bool(q)) for p, q in zip(positions, priority)]


# (prism, point) tests per block of prisms in _near_bbox_pairs
_BBOX_BLOCK = 1 << 16


def _near_bbox_pairs(x, y, buildings, near_dist):
    """(prism, point) index pairs, prism-major, of the points (x, y) that lie
    within near_dist of a prism's bounding box.

    Each prism tests only the points of its strip of x, [x0, x1] widened by
    near_dist and a rounding margin, found by two binary searches in the
    sorted x; the exact bbox distance test then decides, for a block of
    prisms at a time.
    """
    x0, y0, x1, y1 = np.array([b.bbox for b in buildings]).T
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # far above the rounding error of the test's differences and squares
    reach = near_dist + 1e-9 * max(abs(sorted_x[0]), abs(sorted_x[-1]),
                                   np.abs(x0).max(), np.abs(x1).max(), near_dist)
    first = np.searchsorted(sorted_x, x0 - reach, "left")
    count = np.searchsorted(sorted_x, x1 + reach, "right") - first
    run_end = np.cumsum(count)  # the prisms' strips, laid end to end
    run_start = run_end - count
    limit_sq = near_dist * near_dist
    prisms, points = [], []
    s = 0
    while s < len(buildings):
        e = max(s + 1, int(np.searchsorted(run_end, run_start[s] + _BBOX_BLOCK, "right")))
        prism = np.repeat(np.arange(s, e), count[s:e])
        point = order[first[prism] + np.arange(run_start[s], run_end[e - 1]) - run_start[prism]]
        px, py = x[point], y[point]
        dx = np.maximum(np.maximum(x0[prism] - px, 0.0), px - x1[prism])
        dy = np.maximum(np.maximum(y0[prism] - py, 0.0), py - y1[prism])
        near = dx * dx + dy * dy <= limit_sq
        key = np.sort(prism[near] * x.size + point[near])  # back to point order in each prism
        prisms.append(key // x.size)
        points.append(key % x.size)
        s = e
    return np.concatenate(prisms), np.concatenate(points)


def place_candidates(
    raster: ClassRaster,
    dsm: Dsm,
    pitch: float,
    mast_height: float,
    components: BuildingComponents | None = None,
) -> list[CandidateSite]:
    """Candidate mast sites on a coarse lattice, skipping tree/clutter/car cells.

    Sites on building cells mount on the roof: z is the prism top plus the
    mast height. `components` defaults to `building_components(raster, dsm)`.
    """
    if pitch <= 0 or mast_height <= 0:
        raise DataError("pitch and mast height must be positive")
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, pitch)
    keep = ~np.isin(raster.classes[iy, ix], CANDIDATE_EXCLUDED)
    if not keep.any():
        raise DataError("every lattice point falls on an excluded cell")
    x, y, iy, ix = x[keep], y[keep], iy[keep], ix[keep]
    surface = dsm.bilinear(x, y)
    comp = components.labels[iy, ix]
    on_roof = comp > 0
    surface[on_roof] = components.tops[comp[on_roof] - 1]
    positions = np.column_stack([x, y, surface + mast_height])
    return [CandidateSite(i, p) for i, p in enumerate(positions)]


def build_scene(raster: ClassRaster, dsm: Dsm, config: SceneConfig) -> Scene:
    """Derive buildings, users and candidate sites, and attach prior BS."""
    components = building_components(raster, dsm)
    buildings = extract_buildings(raster, dsm, components)
    users = place_users(raster, dsm, config.user_spacing_m, config.near_dist_m, buildings)
    candidates = place_candidates(raster, dsm, config.candidate_pitch_m,
                                  config.mast_height_m, components)
    fixed = list(finite_points(config.fixed_bs, 3, "fixed_bs[{}]".format))
    _reject_coincident_scene_masts(candidates, fixed)
    return Scene(buildings, users, candidates, fixed)


def reject_coincident_masts(points, labels):
    """Raise DataError naming the first pair of entries that put two masts on one point.

    A mast given twice would radiate twice, its copy's sectors interfering
    with the original's. A set of the points rules out repeats;
    `np.unique` runs only to name the pair.
    """
    pts = np.asarray(points, dtype=float)
    if len(set(map(tuple, pts.tolist()))) == len(pts):  # tuples of floats equal as the floats do
        return
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    first_seen = first[inverse.ravel()]
    repeats = np.flatnonzero(first_seen != np.arange(len(pts)))
    if repeats.size:
        j = int(repeats[0])
        i = int(first_seen[j])
        raise DataError(f"{labels[i]} and {labels[j]} are the same mast at "
                        f"{tuple(float(v) for v in pts[j])}")


def _reject_coincident_scene_masts(candidates: list[CandidateSite],
                                   fixed: list[np.ndarray]):
    """No two of the candidate sites and prior base stations may coincide."""
    reject_coincident_masts(
        [c.position for c in candidates] + fixed,
        [f"candidates[{k}]" for k in range(len(candidates))]
        + [f"fixed_bs[{k}]" for k in range(len(fixed))])


# ---------------------------------------------------------------------------
# Scene serialization (geometry only; grids stay in their ASCII files)

def scene_to_dict(scene: Scene) -> dict:
    return {
        "buildings": [
            {
                "footprint": b.footprint.tolist(),
                "base_elev": float(b.base_elev),
                "top_elev": float(b.top_elev),
            }
            for b in scene.buildings
        ],
        "users": [
            {"position": u.position.tolist(), "priority": bool(u.priority)}
            for u in scene.users
        ],
        "candidates": [
            {"id": int(c.id), "position": c.position.tolist()}
            for c in scene.candidates
        ],
        "fixed_bs": [p.tolist() for p in scene.fixed_bs],
    }


def save_scene(scene: Scene, path):
    write_json(path, scene_to_dict(scene))


def finite_points(entries: list, dim: int, name) -> np.ndarray:
    """`entries` as an (n, dim) float array, checked in one vectorized test.

    Raises DataError naming the first entry, `name(i)`, that is not `dim`
    finite numbers. Strings and JSON `true`/`false` are not numbers, and an
    integer too large for a float is not finite.
    """
    if len(entries) == 0:
        return np.empty((0, dim))
    try:
        values = list(itertools.chain.from_iterable(entries))
        sized = set(map(len, entries)) == {dim}
    except TypeError:  # an entry that is no sequence
        values, sized = [], False
    if sized and all(issubclass(kind, numbers.Real) and kind is not bool
                     for kind in set(map(type, values))):
        pts = finite_array(values)
        if pts is not None:
            return pts.reshape(len(entries), dim)
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple, np.ndarray)) and len(entry) == dim
                and all(is_kind(v, float) for v in entry)):
            raise DataError(f"{name(i)} must be {dim} finite numbers, "
                            f"got {reprlib.repr(entry)}")
    return np.array(entries, dtype=float)  # every entry passed: the largest float got here


# a scene file's keys and its entries' keys; all but fixed_bs are required
_SCENE_KEYS = {"buildings": (list,), "users": (list,), "candidates": (list,),
               "fixed_bs": (list,)}
_ENTRY_KEYS = {"buildings": {"footprint": (list,), "base_elev": (float,), "top_elev": (float,)},
               "users": {"position": (list,), "priority": (bool,)},
               "candidates": {"id": (int,), "position": (list,)}}


def load_scene(path) -> Scene:
    """The scene saved at `path`; every error names `path` and the entry.

    Each list is checked in one pass per key (`check_entries`), its
    coordinates in one `finite_points` array and its prisms' vertex counts
    and heights in one test each; only where a pass finds fault does the
    check go entry by entry, to name the first bad one.
    """
    raw = check_object(read_json(path), _SCENE_KEYS, _ENTRY_KEYS, path)
    buildings, users, candidates = (check_entries(raw[group], kinds, path, group)
                                    for group, kinds in _ENTRY_KEYS.items())
    footprints = buildings["footprint"]
    starts = [0, *itertools.accumulate(map(len, footprints))]

    def vertex_name(i):
        k = bisect.bisect_right(starts, i) - 1
        return f"{path}: buildings[{k}].footprint[{i - starts[k]}]"

    vertices = finite_points(list(itertools.chain.from_iterable(footprints)), 2, vertex_name)
    rings = [vertices[lo:hi] for lo, hi in zip(starts, starts[1:])]
    bases = list(map(float, buildings["base_elev"]))
    tops = list(map(float, buildings["top_elev"]))
    if min(map(len, footprints), default=3) >= 3 and all(map(float.__gt__, tops, bases)):
        prisms = list(map(BuildingPrism, rings, bases, tops))
    else:  # name the first bad prism
        prisms = []
        for k, args in enumerate(zip(rings, bases, tops)):
            with prefixed(f"{path}: buildings[{k}]"):
                prisms.append(BuildingPrism(*args))
    user_pos = finite_points(users["position"], 3, lambda i: f"{path}: users[{i}].position")
    cand_pos = finite_points(candidates["position"], 3,
                             lambda i: f"{path}: candidates[{i}].position")
    fixed = list(finite_points(raw.get("fixed_bs", []), 3, lambda i: f"{path}: fixed_bs[{i}]"))
    if not raw["users"] or not raw["candidates"]:
        raise DataError(f"{path}: {'candidates' if raw['users'] else 'users'} is empty; a scene "
                        "must contain users and candidate sites")
    ids = candidates["id"]
    if ids != list(range(len(ids))):
        k = next(k for k, i in enumerate(ids) if i != k)
        raise DataError(f"{path}: candidates[{k}].id must be {k} (ids dense 0..C-1)")
    sites = list(map(CandidateSite, ids, cand_pos))
    with prefixed(path):
        _reject_coincident_scene_masts(sites, fixed)
    return Scene(prisms, list(map(User, user_pos, users["priority"])), sites, fixed)
