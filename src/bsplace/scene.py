"""2.5D scene construction from a semantic class raster and a surface model.

Grids are stored south-row-first (row index grows with y); ESRI ASCII files
keep the north row first and are flipped on read/write. Cell (ix, iy) covers
x in [origin + ix*cell, origin + (ix+1)*cell) and its center carries the
class label and elevation sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import ndimage

from .config_json import read_config_fields
from .geometry import point_to_polygon_distance


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
        if self.cell_size <= 0:
            raise SceneError("cell_size must be positive")
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
        if self.elevation.shape != (self.height, self.width):
            raise SceneError(
                f"elevation grid shape {self.elevation.shape} does not match "
                f"(height, width)=({self.height}, {self.width})"
            )
        if not np.isfinite(self.elevation).all():
            raise SceneError("DSM contains non-finite elevations")

    def bilinear(self, x: float, y: float) -> float:
        """Elevation interpolated between cell centers, clamped at borders."""
        gx = (x - self.origin[0]) / self.cell_size - 0.5
        gy = (y - self.origin[1]) / self.cell_size - 0.5
        gx = min(max(gx, 0.0), self.width - 1.0)
        gy = min(max(gy, 0.0), self.height - 1.0)
        ix0 = min(int(gx), self.width - 1 if self.width == 1 else self.width - 2)
        iy0 = min(int(gy), self.height - 1 if self.height == 1 else self.height - 2)
        ix1 = min(ix0 + 1, self.width - 1)
        iy1 = min(iy0 + 1, self.height - 1)
        fx = gx - ix0
        fy = gy - iy0
        z = self.elevation
        return float(
            z[iy0, ix0] * (1 - fx) * (1 - fy)
            + z[iy0, ix1] * fx * (1 - fy)
            + z[iy1, ix0] * (1 - fx) * fy
            + z[iy1, ix1] * fx * fy
        )


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

    raster: ClassRaster | None
    dsm: Dsm | None
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

    @classmethod
    def from_json(cls, path) -> "SceneConfig":
        cfg = cls(**read_config_fields(path, cls, SceneError))
        if cfg.user_spacing_m <= 0 or cfg.candidate_pitch_m <= 0:
            raise SceneError("spacing and pitch must be positive")
        if cfg.mast_height_m <= 0:
            raise SceneError("mast height must be positive")
        return cfg


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


def _building_components(raster: ClassRaster):
    mask = raster.classes == CellClass.BUILDING
    labels, count = ndimage.label(mask, structure=_CROSS)
    return mask, labels, count


def extract_buildings(raster: ClassRaster, dsm: Dsm) -> list[BuildingPrism]:
    """One prism per 4-connected component of building cells.

    Roof height is the median DSM over the component; base height is the
    median DSM over the ring of adjacent non-building cells. Medians keep
    single-cell DSM noise out of the prism heights.
    """
    check_aligned(raster, dsm)
    mask, labels, count = _building_components(raster)
    prisms = []
    for comp in range(1, count + 1):
        cells = labels == comp
        top = float(np.median(dsm.elevation[cells]))
        ring = ndimage.binary_dilation(cells, structure=_CROSS) & ~cells & ~mask
        if ring.any():
            base = float(np.median(dsm.elevation[ring]))
        else:
            base = float(dsm.elevation[cells].min())
        base = min(base, top - 1e-6)  # degenerate flat terrain still yields a prism
        footprint = _trace_footprint(cells, raster.origin, raster.cell_size)
        prisms.append(BuildingPrism(footprint, base, top))
    return prisms


_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def _trace_footprint(cells: np.ndarray, origin, cell_size) -> np.ndarray:
    """Outer boundary of a cell component as a counterclockwise polygon.

    Boundary edges are traced with the interior kept on the left; at pinch
    corners the walk prefers the left turn, which keeps each loop as tight
    as possible. The loop with the largest area is the outer ring (inner
    rings around holes are dropped). Works in integer corner coordinates so
    the chaining is exact.
    """
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ys, xs = np.nonzero(cells)
    h, w = cells.shape

    def present(ix, iy):
        return 0 <= ix < w and 0 <= iy < h and cells[iy, ix]

    for iy, ix in zip(ys.tolist(), xs.tolist()):
        if not present(ix, iy - 1):
            edges.setdefault((ix, iy), []).append((ix + 1, iy))
        if not present(ix + 1, iy):
            edges.setdefault((ix + 1, iy), []).append((ix + 1, iy + 1))
        if not present(ix, iy + 1):
            edges.setdefault((ix + 1, iy + 1), []).append((ix, iy + 1))
        if not present(ix - 1, iy):
            edges.setdefault((ix, iy + 1), []).append((ix, iy))

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

    def area(loop):
        pts = np.array(loop, dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)

    outer = max(loops, key=lambda lp: abs(area(lp)))
    if area(outer) < 0:
        outer = outer[::-1]
    outer = _merge_collinear(outer)
    pts = np.array(outer, dtype=float) * cell_size
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


def place_users(
    raster: ClassRaster,
    dsm: Dsm,
    spacing: float,
    near_dist: float,
    buildings: list[BuildingPrism] | None = None,
) -> list[User]:
    """Users on a regular lattice, 2 m above the surface.

    Lattice points on building/tree/car cells are skipped. A user has
    priority when it stands on an impervious surface (roads, pavements) or
    within near_dist of a building footprint.
    """
    if spacing <= 0:
        raise SceneError("user spacing must be positive")
    check_aligned(raster, dsm)
    if buildings is None:
        buildings = extract_buildings(raster, dsm)

    xs = _lattice(raster.origin[0], raster.width * raster.cell_size, spacing)
    ys = _lattice(raster.origin[1], raster.height * raster.cell_size, spacing)
    users = []
    for y in ys:
        for x in xs:
            label = raster.label_at(x, y)
            if label not in USER_CLASSES:
                continue
            z = dsm.bilinear(x, y) + USER_HEIGHT_M
            priority = label == CellClass.IMPERVIOUS_SURFACE
            if not priority and buildings:
                p = np.array([x, y])
                for prism in buildings:
                    if _bbox_dist_exceeds(p, prism.bbox, near_dist):
                        continue
                    if point_to_polygon_distance(p, prism.footprint) <= near_dist:
                        priority = True
                        break
            users.append(User(np.array([x, y, z]), priority))
    if not users:
        raise NoValidUserCells("no lattice point falls on a walkable cell")
    return users


def _bbox_dist_exceeds(p, bbox, limit) -> bool:
    dx = max(bbox[0] - p[0], 0.0, p[0] - bbox[2])
    dy = max(bbox[1] - p[1], 0.0, p[1] - bbox[3])
    return dx * dx + dy * dy > limit * limit


def place_candidates(
    raster: ClassRaster,
    dsm: Dsm,
    pitch: float,
    mast_height: float,
) -> list[CandidateSite]:
    """Candidate mast sites on a coarse lattice, skipping tree/clutter/car cells.

    Sites on building cells mount on the roof: z is the prism top plus the
    mast height.
    """
    if pitch <= 0 or mast_height <= 0:
        raise SceneError("pitch and mast height must be positive")
    check_aligned(raster, dsm)
    _, labels, count = _building_components(raster)
    comp_tops = {}
    for comp in range(1, count + 1):
        comp_tops[comp] = float(np.median(dsm.elevation[labels == comp]))

    xs = _lattice(raster.origin[0], raster.width * raster.cell_size, pitch)
    ys = _lattice(raster.origin[1], raster.height * raster.cell_size, pitch)
    sites = []
    for y in ys:
        for x in xs:
            ix, iy = raster.cell_at(x, y)
            label = CellClass(int(raster.classes[iy, ix]))
            if label in CANDIDATE_EXCLUDED:
                continue
            if label == CellClass.BUILDING:
                z = comp_tops[int(labels[iy, ix])] + mast_height
            else:
                z = dsm.bilinear(x, y) + mast_height
            sites.append(CandidateSite(len(sites), np.array([x, y, z])))
    if not sites:
        raise NoCandidates("every lattice point falls on an excluded cell")
    return sites


def build_scene(raster: ClassRaster, dsm: Dsm, config: SceneConfig) -> Scene:
    """Derive buildings, users and candidate sites, and attach prior BS."""
    check_aligned(raster, dsm)
    buildings = extract_buildings(raster, dsm)
    users = place_users(raster, dsm, config.user_spacing_m, config.near_dist_m, buildings)
    candidates = place_candidates(raster, dsm, config.candidate_pitch_m, config.mast_height_m)
    fixed = [np.asarray(p, dtype=float) for p in config.fixed_bs]
    for p in fixed:
        if p.shape != (3,):
            raise SceneError("fixed_bs entries must be [x, y, z] points")
    return Scene(raster, dsm, buildings, users, candidates, fixed)


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


def load_scene(path) -> Scene:
    with open(path) as f:
        raw = json.load(f)
    try:
        buildings = [
            BuildingPrism(np.array(b["footprint"]), float(b["base_elev"]), float(b["top_elev"]))
            for b in raw["buildings"]
        ]
        users = [User(np.array(u["position"]), bool(u["priority"])) for u in raw["users"]]
        candidates = [CandidateSite(int(c["id"]), np.array(c["position"])) for c in raw["candidates"]]
        fixed = [np.array(p, dtype=float) for p in raw.get("fixed_bs", [])]
    except (KeyError, TypeError) as e:
        raise SceneError(f"malformed scene file: {e}") from None
    if not users or not candidates:
        raise SceneError("scene must contain users and candidate sites")
    ids = [c.id for c in candidates]
    if ids != list(range(len(ids))):
        raise SceneError("candidate ids must be dense 0..C-1")
    return Scene(None, None, buildings, users, candidates, fixed)
