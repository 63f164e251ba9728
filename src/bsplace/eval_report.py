"""Link-level reporting: SINR coverage curves, throughput CDFs, their CSV
writers, and a synthetic scene generator for desk-scale experiments.

It imports only `radio` and `scene`: the CLI runs the searches and hands
the SINR samples and placements to the writers here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radio import RadioParams, throughput_mbps
from .scene import CellClass, ClassRaster, Dsm, Scene


class ReportError(Exception):
    pass


class EmptyInput(ReportError):
    pass


COVERAGE_GRID_LO_DB = -20.0
COVERAGE_GRID_HI_DB = 40.0
COVERAGE_GRID_STEP_DB = 0.5


@dataclass
class CoverageCurve:
    thresholds: np.ndarray  # dB
    prob: np.ndarray  # P(SINR > threshold)

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.prob = np.asarray(self.prob, dtype=float)
        if self.prob.min() < 0 or self.prob.max() > 1:
            raise ReportError("coverage probabilities must lie in [0, 1]")
        if np.any(np.diff(self.prob) > 1e-12):
            raise ReportError("coverage curve must be non-increasing")


@dataclass
class ThroughputCdf:
    rates: np.ndarray  # Mbps
    cdf: np.ndarray  # P(throughput <= rate)
    outage_fraction: float  # P(throughput == 0)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        self.cdf = np.asarray(self.cdf, dtype=float)
        if np.any(np.diff(self.cdf) < -1e-12):
            raise ReportError("CDF must be non-decreasing")
        if abs(self.cdf[-1] - 1.0) > 1e-12:
            raise ReportError("CDF must end at 1")


def coverage_curve(sinrs_db,
                   lo: float = COVERAGE_GRID_LO_DB,
                   hi: float = COVERAGE_GRID_HI_DB,
                   step: float = COVERAGE_GRID_STEP_DB) -> CoverageCurve:
    """Empirical P(SINR > t) on a fixed threshold grid."""
    s = np.asarray(sinrs_db, dtype=float)
    if s.size == 0:
        raise EmptyInput("no SINR samples")
    thresholds = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    prob = (s[None, :] > thresholds[:, None]).mean(axis=1)
    return CoverageCurve(thresholds, prob)


def throughput_cdf(sinrs_db, attachments, params: RadioParams) -> ThroughputCdf:
    """Per-user throughput CDF under equal sector sharing.

    `attachments` gives each user's serving sector index; users on the
    same sector split its bandwidth.
    """
    s = np.asarray(sinrs_db, dtype=float)
    attach = np.asarray(attachments, dtype=int)
    if s.size == 0:
        raise EmptyInput("no SINR samples")
    if attach.shape != s.shape:
        raise ReportError("attachments must align with SINR samples")
    _, inverse, counts = np.unique(attach, return_inverse=True, return_counts=True)
    thr = throughput_mbps(s, counts[inverse], params)
    top = max(float(thr.max()), params.bandwidth_mhz)
    rates = 0.5 * np.arange(int(np.ceil(top / 0.5)) + 1)
    cdf = (thr[None, :] <= rates[:, None]).mean(axis=1)
    return ThroughputCdf(rates, cdf, outage_fraction=float((thr == 0.0).mean()))


# ---------------------------------------------------------------------------
# Synthetic scenes

# Fixed texture of every synthetic town: smooth terrain bumps of up to
# _TERRAIN_AMP meters, and the cell fractions of trees, cars and clutter
# sprinkled off the roads and buildings.
_TERRAIN_GAUSSIANS = 4
_TERRAIN_AMP = 5.0
_TREE_FRACTION = 0.04
_CAR_FRACTION = 0.01
_CLUTTER_FRACTION = 0.02


@dataclass
class GeneratorConfig:
    width: int = 200
    height: int = 200
    cell_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)
    building_density: float = 0.3
    building_size_range: tuple[int, int] = (6, 20)  # cells per side
    building_height_range: tuple[float, float] = (9.0, 30.0)
    road_period: int = 50  # cells between road centerlines
    road_width: int = 6

    def __post_init__(self):
        if self.width < 10 or self.height < 10:
            raise ReportError("generator grids need at least 10x10 cells")
        if not 0.0 <= self.building_density <= 0.8:
            raise ReportError("building_density must lie in [0, 0.8]")
        if self.building_size_range[0] < 1 or self.building_size_range[0] > self.building_size_range[1]:
            raise ReportError("invalid building_size_range")
        if self.building_height_range[0] <= 0 or self.building_height_range[0] > self.building_height_range[1]:
            raise ReportError("invalid building_height_range")
        if self.road_period < 2 or not 0 < self.road_width < self.road_period:
            raise ReportError("roads must be narrower than their period")


def generate_synthetic_scene(cfg: GeneratorConfig, seed: int) -> tuple[ClassRaster, Dsm]:
    """Random town block: smooth terrain, a road grid, rectangular buildings.

    Buildings land only off the roads and stop once the requested density
    is reached, so the Building cell fraction tracks `building_density`
    (overshoot bounded by one building footprint). Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    h, w = cfg.height, cfg.width

    yy, xx = np.mgrid[0:h, 0:w]
    terrain = np.zeros((h, w))
    for _ in range(_TERRAIN_GAUSSIANS):
        cx = rng.uniform(0, w)
        cy = rng.uniform(0, h)
        sigma = rng.uniform(min(w, h) / 8.0, min(w, h) / 3.0)
        amp = rng.uniform(0.0, _TERRAIN_AMP)
        terrain += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma ** 2))

    classes = np.full((h, w), int(CellClass.LOW_VEGETATION), dtype=np.int16)
    road = np.zeros((h, w), dtype=bool)
    half = cfg.road_width // 2
    for c in range(cfg.road_period // 2, w, cfg.road_period):
        road[:, max(0, c - half):c + half + 1] = True
    for c in range(cfg.road_period // 2, h, cfg.road_period):
        road[max(0, c - half):c + half + 1, :] = True
    classes[road] = int(CellClass.IMPERVIOUS_SURFACE)

    heights = np.zeros((h, w))
    building = np.zeros((h, w), dtype=bool)
    target_cells = cfg.building_density * w * h
    n_building = attempts = 0
    max_attempts = 200 * max(1, int(target_cells / max(1, cfg.building_size_range[0] ** 2)))
    while n_building < target_cells and attempts < max_attempts:
        attempts += 1
        bw = int(rng.integers(cfg.building_size_range[0], cfg.building_size_range[1] + 1))
        bh = int(rng.integers(cfg.building_size_range[0], cfg.building_size_range[1] + 1))
        x0 = int(rng.integers(0, max(1, w - bw)))
        y0 = int(rng.integers(0, max(1, h - bh)))
        patch = np.s_[y0:y0 + bh, x0:x0 + bw]
        if road[patch].any() or building[patch].any():
            continue
        building[patch] = True
        n_building += building[patch].size  # patches never overlap; clipped at the grid edge
        heights[patch] = rng.uniform(*cfg.building_height_range)
    classes[building] = int(CellClass.BUILDING)

    # sprinkle the remaining off-road, off-building classes
    free = ~road & ~building
    noise = rng.random((h, w))
    tree = free & (noise < _TREE_FRACTION)
    car = free & ~tree & (noise < _TREE_FRACTION + _CAR_FRACTION)
    clutter = free & ~tree & ~car & (noise < _TREE_FRACTION + _CAR_FRACTION + _CLUTTER_FRACTION)
    classes[tree] = int(CellClass.TREE)
    classes[car] = int(CellClass.CAR)
    classes[clutter] = int(CellClass.CLUTTER)

    elevation = terrain + heights
    raster = ClassRaster(w, h, cfg.cell_size, cfg.origin, classes)
    dsm = Dsm(w, h, cfg.cell_size, cfg.origin, elevation)
    return raster, dsm


# ---------------------------------------------------------------------------
# CSV emission

def save_coverage_csv(curve: CoverageCurve, path):
    with open(path, "w") as f:
        f.write("threshold_db,prob\n")
        for t, p in zip(curve.thresholds, curve.prob):
            f.write(f"{float(t)!r},{float(p)!r}\n")


def save_throughput_csv(cdf: ThroughputCdf, path):
    with open(path, "w") as f:
        f.write("mbps,cdf\n")
        for r, p in zip(cdf.rates, cdf.cdf):
            f.write(f"{float(r)!r},{float(p)!r}\n")


def save_placement_csv(scene: Scene, bs_positions, path):
    """One row per map element; priority column is set for users only."""
    with open(path, "w") as f:
        f.write("kind,x,y,z,priority\n")
        for u in scene.users:
            x, y, z = (float(v) for v in u.position)
            f.write(f"user,{x!r},{y!r},{z!r},{int(u.priority)}\n")
        for c in scene.candidates:
            x, y, z = (float(v) for v in c.position)
            f.write(f"candidate,{x!r},{y!r},{z!r},\n")
        for p in bs_positions:
            x, y, z = (float(v) for v in p)
            f.write(f"bs,{x!r},{y!r},{z!r},\n")
        for p in scene.fixed_bs:
            x, y, z = (float(v) for v in p)
            f.write(f"fixed_bs,{x!r},{y!r},{z!r},\n")
