"""2.5D scene construction from a semantic class raster and a surface model.

Grids are stored south-row-first (row index grows with y); ESRI ASCII files
keep the north row first and are flipped on read/write. Cell (ix, iy) covers
x in [origin + ix*cell, origin + (ix+1)*cell) and its center carries the
class label and elevation sample.
"""

from __future__ import annotations

import bisect
import itertools
import json
import sys
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import ndimage

from .config_json import read_config_fields, require_finite
from .geometry import outline_distance


class SceneError(Exception):
    pass


class GridFormatError(SceneError):
    pass


class UnknownClassCode(SceneError):
    pass


class GridMismatch(SceneError):
    pass


class NoValidUserCells(SceneError):
    pass


class NoCandidates(SceneError):
    pass


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


def _check_grid_geometry(cell_size: float, origin: tuple[float, float]):
    # NaN fails every comparison, so `cell_size <= 0` alone would let it through
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise SceneError(f"cell_size must be finite and positive, got {cell_size!r}")
    if not np.isfinite(origin).all():
        raise SceneError(f"origin must be finite, got {origin!r}")


@dataclass
class ClassRaster:
    """Per-cell semantic labels on a regular grid."""

    width: int
    height: int
    cell_size: float
    origin: tuple[float, float]
    classes: np.ndarray  # int array [height, width], row 0 southernmost

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int16)
        if self.width < 1 or self.height < 1:
            raise SceneError("raster must have at least one cell")
        _check_grid_geometry(self.cell_size, self.origin)
        if self.classes.shape != (self.height, self.width):
            raise SceneError(
                f"class grid shape {self.classes.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        bad = (self.classes < 0) | (self.classes > 5)
        if bad.any():
            code = int(self.classes[bad][0])
            raise UnknownClassCode(f"class code {code} outside 0..5")

    def cell_at(self, x: float, y: float) -> tuple[int, int]:
        ix = int(np.floor((x - self.origin[0]) / self.cell_size))
        iy = int(np.floor((y - self.origin[1]) / self.cell_size))
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise SceneError(f"point ({x}, {y}) outside raster extent")
        return ix, iy

    def label_at(self, x: float, y: float) -> CellClass:
        ix, iy = self.cell_at(x, y)
        return CellClass(int(self.classes[iy, ix]))


@dataclass
class Dsm:
    """Surface elevation in meters on the same grid as the class raster."""

    width: int
    height: int
    cell_size: float
    origin: tuple[float, float]
    elevation: np.ndarray  # float array [height, width], row 0 southernmost

    def __post_init__(self):
        self.elevation = np.asarray(self.elevation, dtype=float)
        _check_grid_geometry(self.cell_size, self.origin)
        if self.elevation.shape != (self.height, self.width):
            raise SceneError(
                f"elevation grid shape {self.elevation.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        if not np.isfinite(self.elevation).all():
            raise SceneError("DSM contains non-finite elevations")

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
            raise SceneError("footprint needs at least 3 vertices")
        if not self.top_elev > self.base_elev:
            raise SceneError("prism roof must be above its base")
        self.bbox = (
            float(self.footprint[:, 0].min()),
            float(self.footprint[:, 1].min()),
            float(self.footprint[:, 0].max()),
            float(self.footprint[:, 1].max()),
        )


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
        require_finite(self, SceneError)
        for name in ("user_spacing_m", "candidate_pitch_m", "mast_height_m"):
            if getattr(self, name) <= 0:
                raise SceneError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.near_dist_m < 0:
            raise SceneError(f"near_dist_m must be >= 0, got {self.near_dist_m!r}")

    @classmethod
    def from_json(cls, path) -> "SceneConfig":
        return cls(**read_config_fields(path, cls, SceneError))


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _read_ascii_grid(path):
    header = {}
    values: list[str] = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if not values and key in _HEADER_KEYS:
                if len(parts) != 2:
                    raise GridFormatError(f"malformed header line: {line.strip()!r}")
                header[key] = parts[1]
            else:
                values.extend(parts)
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise GridFormatError(f"missing header field {key}")
    try:
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        xll = float(header["xllcorner"])
        yll = float(header["yllcorner"])
        cell = float(header["cellsize"])
        data = np.array([float(v) for v in values])
    except ValueError as e:
        raise GridFormatError(f"non-numeric grid content: {e}") from None
    if ncols < 1 or nrows < 1 or cell <= 0:
        raise GridFormatError("ncols/nrows must be >= 1 and cellsize > 0")
    if data.size != ncols * nrows:
        raise GridFormatError(
            f"expected {ncols * nrows} values ({nrows} rows x {ncols} cols), got {data.size}"
        )
    if "nodata_value" in header:
        nodata = float(header["nodata_value"])
        if (data == nodata).any():
            raise GridFormatError("NODATA cells are not supported in scene grids")
    grid = data.reshape(nrows, ncols)[::-1]  # file stores the north row first
    return ncols, nrows, xll, yll, cell, grid


def _write_ascii_grid(path, ncols, nrows, xll, yll, cell, grid, fmt):
    with open(path, "w") as f:
        f.write(f"ncols {ncols}\n")
        f.write(f"nrows {nrows}\n")
        f.write(f"xllcorner {xll!r}\n")
        f.write(f"yllcorner {yll!r}\n")
        f.write(f"cellsize {cell!r}\n")
        f.write("NODATA_value -9999\n")
        for row in grid[::-1]:  # back to north-first rows
            f.write(" ".join(fmt(v) for v in row))
            f.write("\n")


def load_raster(path) -> ClassRaster:
    """Read a class raster from an ESRI ASCII grid of codes 0..5."""
    ncols, nrows, xll, yll, cell, grid = _read_ascii_grid(path)
    codes = grid.astype(np.int64)
    if not np.array_equal(codes, grid):
        raise GridFormatError("class raster contains non-integer codes")
    if codes.min() < 0 or codes.max() > 5:
        bad = codes[(codes < 0) | (codes > 5)][0]
        raise UnknownClassCode(f"class code {int(bad)} outside 0..5")
    return ClassRaster(ncols, nrows, cell, (xll, yll), codes)


def save_raster(raster: ClassRaster, path):
    _write_ascii_grid(
        path, raster.width, raster.height, raster.origin[0], raster.origin[1],
        raster.cell_size, raster.classes, lambda v: str(int(v)),
    )


def load_dsm(path) -> Dsm:
    ncols, nrows, xll, yll, cell, grid = _read_ascii_grid(path)
    return Dsm(ncols, nrows, cell, (xll, yll), grid)


def save_dsm(dsm: Dsm, path):
    _write_ascii_grid(
        path, dsm.width, dsm.height, dsm.origin[0], dsm.origin[1],
        dsm.cell_size, dsm.elevation, lambda v: repr(float(v)),
    )


def check_aligned(raster: ClassRaster, dsm: Dsm):
    if (raster.height, raster.width) != (dsm.height, dsm.width):
        raise GridMismatch(
            f"raster grid {raster.height}x{raster.width} does not match "
            f"DSM grid {dsm.height}x{dsm.width}"
        )
    if abs(raster.cell_size - dsm.cell_size) > 1e-9 or (
        abs(raster.origin[0] - dsm.origin[0]) > 1e-9
        or abs(raster.origin[1] - dsm.origin[1]) > 1e-9
    ):
        raise GridMismatch("raster and DSM disagree on cell size or origin")


# ---------------------------------------------------------------------------
# Building extraction

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)  # 4-connectivity


@dataclass
class BuildingComponents:
    """The 4-connected components of a raster's building cells, labelled once.

    `labels` numbers the components 1..n in scan order (0 off buildings).
    `windows[k]` is component k+1's bounding box grown by one cell and
    clipped at the grid edge, so it holds the component, the ring of cells
    next to it and its whole boundary. `tops[k]` is its roof height, the
    median DSM over its cells; the prisms and the roof-mounted sites both
    take it from here.
    """

    labels: np.ndarray
    windows: list[tuple[slice, slice]]
    tops: list[float]


def building_components(raster: ClassRaster, dsm: Dsm) -> BuildingComponents:
    """Label the building components once and take each one's window and roof."""
    check_aligned(raster, dsm)
    labels, _ = ndimage.label(raster.classes == CellClass.BUILDING, structure=_CROSS)
    windows, tops = [], []
    for comp, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        window = (slice(max(rows.start - 1, 0), min(rows.stop + 1, raster.height)),
                  slice(max(cols.start - 1, 0), min(cols.stop + 1, raster.width)))
        windows.append(window)
        tops.append(float(np.median(dsm.elevation[window][labels[window] == comp])))
    return BuildingComponents(labels, windows, tops)


def extract_buildings(
    raster: ClassRaster,
    dsm: Dsm,
    components: BuildingComponents | None = None,
) -> list[BuildingPrism]:
    """One prism per 4-connected component of building cells.

    Roof height is the median DSM over the component; base height is the
    median DSM over the ring of adjacent non-building cells. Medians keep
    single-cell DSM noise out of the prism heights. Each component is
    handled inside its window, so the cost grows with the grid, not with
    the grid times the component count. `components` defaults to
    `building_components(raster, dsm)`.
    """
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)
    prisms = []
    for comp, (window, top) in enumerate(zip(components.windows, components.tops), start=1):
        labels = components.labels[window]
        cells = labels == comp
        elev = dsm.elevation[window]
        ring = ndimage.binary_dilation(cells, structure=_CROSS) & (labels == 0)
        if ring.any():
            base = float(np.median(elev[ring]))
        else:
            base = float(elev[cells].min())
        base = min(base, top - 1e-6)  # degenerate flat terrain still yields a prism
        offset = (window[1].start, window[0].start)
        footprint = _trace_footprint(cells, offset, raster.origin, raster.cell_size)
        prisms.append(BuildingPrism(footprint, base, top))
    return prisms


_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def _trace_footprint(cells: np.ndarray, offset, origin, cell_size) -> np.ndarray:
    """Outer boundary of a cell component as a counterclockwise polygon.

    Boundary edges are traced with the interior kept on the left; at pinch
    corners the walk prefers the left turn, which keeps each loop as tight
    as possible. The loop with the largest area is the outer ring (inner
    rings around holes are dropped). Works in integer corner coordinates,
    local to `cells`, so the chaining is exact; `offset` is the (column,
    row) of `cells[0, 0]` in the grid and is added before scaling, so the
    corners come out exactly as if traced on the whole grid.
    """
    padded = np.zeros((cells.shape[0] + 2, cells.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = cells
    # one (mask of cells with that side open, edge start, edge end) per side,
    # in corner offsets from the cell's lower-left corner
    sides = (
        (cells & ~padded[:-2, 1:-1], (0, 0), (1, 0)),   # south
        (cells & ~padded[1:-1, 2:], (1, 0), (1, 1)),    # east
        (cells & ~padded[2:, 1:-1], (1, 1), (0, 1)),    # north
        (cells & ~padded[1:-1, :-2], (0, 1), (0, 0)),   # west
    )
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for open_side, (sx, sy), (ex, ey) in sides:
        ys, xs = np.nonzero(open_side)
        for ix, iy in zip(xs.tolist(), ys.tolist()):
            edges.setdefault((ix + sx, iy + sy), []).append((ix + ex, iy + ey))

    loops = []
    while edges:
        start = min(edges)
        nxt = min(edges[start])
        loop = [start]
        cur, prev_dir = _consume_edge(edges, start, nxt)
        while cur != start:
            loop.append(cur)
            outs = edges[cur]
            if len(outs) == 1:
                choice = outs[0]
            else:
                pref = [_LEFT[prev_dir], prev_dir, _RIGHT[prev_dir]]
                choice = None
                for p in pref:
                    cand = (cur[0] + p[0], cur[1] + p[1])
                    if cand in outs:
                        choice = cand
                        break
                if choice is None:
                    choice = min(outs)
            cur, prev_dir = _consume_edge(edges, cur, choice)
        loops.append(loop)

    def twice_area(loop):  # shoelace on integer corners: exact
        return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1]))

    outer = max(loops, key=lambda lp: abs(twice_area(lp)))
    if twice_area(outer) < 0:
        outer = outer[::-1]
    outer = _merge_collinear(outer)
    pts = (np.array(outer) + offset).astype(float) * cell_size
    pts[:, 0] += origin[0]
    pts[:, 1] += origin[1]
    return pts


def _consume_edge(edges, frm, to):
    outs = edges[frm]
    outs.remove(to)
    if not outs:
        del edges[frm]
    return to, (to[0] - frm[0], to[1] - frm[1])


def _merge_collinear(loop):
    n = len(loop)
    out = []
    for i in range(n):
        prev_pt = loop[i - 1]
        cur = loop[i]
        nxt = loop[(i + 1) % n]
        d_in = (cur[0] - prev_pt[0], cur[1] - prev_pt[1])
        d_out = (nxt[0] - cur[0], nxt[1] - cur[1])
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        if cross != 0:
            out.append(cur)
    return out if len(out) >= 3 else loop


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
        raise SceneError(f"point ({x[i]}, {y[i]}) outside raster extent")
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
    within near_dist of a building footprint. Per prism, the users without
    priority yet that lie within near_dist of its bbox go to one
    `geometry.outline_distance` call, which gives each one's exact distance
    to the footprint (0 inside or on it).
    """
    if spacing <= 0:
        raise SceneError("user spacing must be positive")
    check_aligned(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, spacing)
    label = raster.classes[iy, ix]
    walkable = np.isin(label, USER_CLASSES)
    if not walkable.any():
        raise NoValidUserCells("no lattice point falls on a walkable cell")
    x, y, label = x[walkable], y[walkable], label[walkable]
    positions = np.column_stack([x, y, dsm.bilinear(x, y) + USER_HEIGHT_M])
    priority = label == CellClass.IMPERVIOUS_SURFACE
    limit_sq = near_dist * near_dist
    for prism in buildings:
        x0, y0, x1, y1 = prism.bbox
        dx = np.maximum(np.maximum(x0 - x, 0.0), x - x1)
        dy = np.maximum(np.maximum(y0 - y, 0.0), y - y1)
        i = np.flatnonzero(~priority & (dx * dx + dy * dy <= limit_sq))
        if i.size:
            priority[i] = outline_distance(x[i], y[i], prism.footprint) <= near_dist
    return [User(p, bool(q)) for p, q in zip(positions, priority)]


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
        raise SceneError("pitch and mast height must be positive")
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, pitch)
    keep = ~np.isin(raster.classes[iy, ix], CANDIDATE_EXCLUDED)
    if not keep.any():
        raise NoCandidates("every lattice point falls on an excluded cell")
    x, y, iy, ix = x[keep], y[keep], iy[keep], ix[keep]
    surface = dsm.bilinear(x, y)
    comp = components.labels[iy, ix]
    on_roof = comp > 0
    surface[on_roof] = np.asarray(components.tops)[comp[on_roof] - 1]
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
    """Raise SceneError naming the first pair of entries that put two masts on one point.

    A mast given twice would radiate twice, its copy's sectors interfering
    with the original's.
    """
    pts = np.asarray(points, dtype=float)
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    first_seen = first[inverse.ravel()]
    repeats = np.flatnonzero(first_seen != np.arange(len(pts)))
    if repeats.size:
        j = int(repeats[0])
        i = int(first_seen[j])
        raise SceneError(f"{labels[i]} and {labels[j]} are the same mast at "
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
                "footprint": [[float(x), float(y)] for x, y in b.footprint],
                "base_elev": float(b.base_elev),
                "top_elev": float(b.top_elev),
            }
            for b in scene.buildings
        ],
        "users": [
            {"position": [float(v) for v in u.position], "priority": bool(u.priority)}
            for u in scene.users
        ],
        "candidates": [
            {"id": int(c.id), "position": [float(v) for v in c.position]}
            for c in scene.candidates
        ],
        "fixed_bs": [[float(v) for v in p] for p in scene.fixed_bs],
    }


def save_scene(scene: Scene, path):
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f, indent=2, sort_keys=True)
        f.write("\n")


def finite_points(entries: list, dim: int, name) -> np.ndarray:
    """`entries` as an (n, dim) float array, checked in one vectorized test.

    Raises SceneError naming the first entry, `name(i)`, that is not `dim`
    finite numbers.
    """
    if not entries:
        return np.empty((0, dim))
    try:
        pts = np.array(entries, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric
        pts = None
    if pts is not None and pts.shape == (len(entries), dim) and np.isfinite(pts).all():
        return pts
    for i, entry in enumerate(entries):
        try:
            p = np.array(entry, dtype=float)
        except (TypeError, ValueError):
            p = None
        if p is None or p.shape != (dim,) or not np.isfinite(p).all():
            raise SceneError(f"{name(i)} must be {dim} finite numbers, got {entry!r}")
    raise SceneError(f"{name('*')} must be {dim} finite numbers")


_SCALAR_KINDS = {bool: "true or false", int: "an integer", float: "a finite number"}


def _scalar(entry: dict, key: str, kind: type, where: str):
    """entry[key] as `kind`: a JSON bool, an integer, or a finite number (not
    a bool). Anything else raises SceneError naming `where.key`."""
    value = entry[key]
    if kind is float:
        # within float range and not NaN; math.isfinite overflows on huge ints
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise SceneError(f"{where}.{key} must be {_SCALAR_KINDS[kind]}, got {value!r}")
    return kind(value)


def load_scene(path) -> Scene:
    with open(path) as f:
        raw = json.load(f)
    try:
        footprints = [b["footprint"] for b in raw["buildings"]]
        starts = [0, *itertools.accumulate(len(fp) for fp in footprints)]

        def vertex_name(i):
            k = bisect.bisect_right(starts, i) - 1
            return f"buildings[{k}].footprint[{i - starts[k]}]"

        vertices = finite_points([v for fp in footprints for v in fp], 2, vertex_name)
        buildings = [
            BuildingPrism(vertices[lo:hi], _scalar(b, "base_elev", float, f"buildings[{k}]"),
                          _scalar(b, "top_elev", float, f"buildings[{k}]"))
            for k, (lo, hi, b) in enumerate(zip(starts, starts[1:], raw["buildings"]))
        ]
        user_pos = finite_points([u["position"] for u in raw["users"]], 3,
                                 "users[{}].position".format)
        users = [User(p, _scalar(u, "priority", bool, f"users[{i}]"))
                 for i, (p, u) in enumerate(zip(user_pos, raw["users"]))]
        cand_pos = finite_points([c["position"] for c in raw["candidates"]], 3,
                                 "candidates[{}].position".format)
        candidates = [CandidateSite(_scalar(c, "id", int, f"candidates[{i}]"), p)
                      for i, (p, c) in enumerate(zip(cand_pos, raw["candidates"]))]
        fixed = list(finite_points(raw.get("fixed_bs", []), 3, "fixed_bs[{}]".format))
    except (KeyError, TypeError) as e:
        raise SceneError(f"malformed scene file: {e}") from None
    if not users or not candidates:
        raise SceneError("scene must contain users and candidate sites")
    ids = [c.id for c in candidates]
    if ids != list(range(len(ids))):
        raise SceneError("candidate ids must be dense 0..C-1")
    _reject_coincident_scene_masts(candidates, fixed)
    return Scene(buildings, users, candidates, fixed)
