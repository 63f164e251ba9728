"""Link-level reporting: SINR coverage curves, throughput CDFs, their CSV
writers, and a synthetic scene generator for desk-scale experiments.

Of the package it imports only `config_json`, `radio` and `scene`: the
CLI runs the searches and hands the SINR samples and placements to the
writers here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config_json import DataError, check_numbers, is_kind
from .radio import RadioParams, throughput_mbps
from .scene import CellClass, ClassRaster, Dsm, Scene


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
            raise DataError("coverage probabilities must lie in [0, 1]")
        if np.any(np.diff(self.prob) > 1e-12):
            raise DataError("coverage curve must be non-increasing")


@dataclass
class ThroughputCdf:
    rates: np.ndarray  # Mbps
    cdf: np.ndarray  # P(throughput <= rate)
    outage_fraction: float  # P(throughput == 0)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        self.cdf = np.asarray(self.cdf, dtype=float)
        if np.any(np.diff(self.cdf) < -1e-12):
            raise DataError("CDF must be non-decreasing")
        if abs(self.cdf[-1] - 1.0) > 1e-12:
            raise DataError("CDF must end at 1")


def coverage_curve(sinrs_db) -> CoverageCurve:
    """Empirical P(SINR > t) on the fixed COVERAGE_GRID_* threshold grid."""
    s = np.asarray(sinrs_db, dtype=float)
    if s.size == 0:
        raise DataError("no SINR samples")
    lo, hi, step = COVERAGE_GRID_LO_DB, COVERAGE_GRID_HI_DB, COVERAGE_GRID_STEP_DB
    thresholds = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    at_most = np.searchsorted(np.sort(s), thresholds, "right")  # NaN sorts last, above every t
    return CoverageCurve(thresholds, (np.count_nonzero(~np.isnan(s)) - at_most) / s.size)


def throughput_cdf(sinrs_db, attachments, params: RadioParams) -> ThroughputCdf:
    """Per-user throughput CDF under equal sector sharing.

    `attachments` gives each user's serving sector index; users on the
    same sector split its bandwidth.
    """
    s = np.asarray(sinrs_db, dtype=float)
    attach = np.asarray(attachments, dtype=int)
    if s.size == 0:
        raise DataError("no SINR samples")
    if attach.shape != s.shape:
        raise DataError("attachments must align with SINR samples")
    _, inverse, counts = np.unique(attach, return_inverse=True, return_counts=True)
    thr = throughput_mbps(s, counts[inverse], params)
    top = max(float(thr.max()), params.bandwidth_mhz)
    rates = 0.5 * np.arange(int(np.ceil(top / 0.5)) + 1)
    cdf = np.searchsorted(np.sort(thr), rates, "right") / thr.size
    return ThroughputCdf(rates, cdf, outage_fraction=float((thr == 0.0).mean()))


# ---------------------------------------------------------------------------
# Synthetic scenes

# Fixed texture of every synthetic town: its south-west corner at the
# coordinate origin, building sides of _BUILDING_SIDE_CELLS cells, smooth
# terrain bumps of up to _TERRAIN_AMP meters, and the cell fractions of
# trees, cars and clutter sprinkled off the roads and buildings.
_ORIGIN = (0.0, 0.0)
_BUILDING_SIDE_CELLS = (6, 20)
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
    building_density: float = 0.3
    building_height_range: tuple[float, float] = (9.0, 30.0)
    road_period: int = 50  # cells between road centerlines
    road_width: int = 6

    def __post_init__(self):
        check_numbers(self)
        if not all(is_kind(h, float) for h in self.building_height_range):
            raise DataError(f"building_height_range must be finite, got "
                            f"{self.building_height_range!r}")
        for name in ("width", "height"):
            cells = getattr(self, name)
            if cells < 10:
                raise DataError(f"{name} must be >= 10 cells, got {cells}")
        if not 0.0 <= self.building_density <= 0.8:
            raise DataError("building_density must lie in [0, 0.8]")
        if self.building_height_range[0] <= 0 or self.building_height_range[0] > self.building_height_range[1]:
            raise DataError("invalid building_height_range")
        if self.road_period < 2:
            raise DataError(f"road_period must be >= 2, got {self.road_period}")
        if not 0 < self.road_width < self.road_period:
            raise DataError(f"road_width must lie in (0, road_period = {self.road_period}), "
                            f"got {self.road_width}")


def generate_synthetic_scene(cfg: GeneratorConfig, seed: int) -> tuple[ClassRaster, Dsm]:
    """Random town block: smooth terrain, a road grid, rectangular buildings.

    Buildings land only off the roads and off each other. Each attempt
    draws a side length in x and in y, then a corner below the grid size
    less that side, and places the building when its patch is free, with a
    height drawn from `building_height_range`. Placement ends once the
    requested density is reached (overshoot bounded by one building
    footprint) or after a budget of `200 * max(1, target_cells // 36)`
    attempts, whichever comes first; on dense tiles the budget ends it short
    of the density (the 80 x 80 `search` benchmark tile, density 0.45, stops
    at 0.436 at seed 1). The attempts are drawn and walked in blocks on an
    exact copy of the random stream (`_walk_block`), so the result is the
    same as drawing attempt after attempt. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    h, w = cfg.height, cfg.width

    yy, xx = np.ogrid[0:h, 0:w]  # a column and a row, broadcast per bump
    terrain = np.zeros((h, w))
    for _ in range(_TERRAIN_GAUSSIANS):
        cx = rng.uniform(0, w)
        cy = rng.uniform(0, h)
        sigma = rng.uniform(min(w, h) / 8.0, min(w, h) / 3.0)
        amp = rng.uniform(0.0, _TERRAIN_AMP)
        terrain += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma ** 2))

    classes = np.full((h, w), int(CellClass.LOW_VEGETATION), dtype=np.int16)
    # the road grid: whole columns and whole rows
    road_x, road_y = np.zeros(w, dtype=bool), np.zeros(h, dtype=bool)
    half = cfg.road_width // 2
    for c in range(cfg.road_period // 2, w, cfg.road_period):
        road_x[max(0, c - half):c + half + 1] = True
    for c in range(cfg.road_period // 2, h, cfg.road_period):
        road_y[max(0, c - half):c + half + 1] = True
    road = road_y[:, None] | road_x[None, :]
    classes[road] = int(CellClass.IMPERVIOUS_SURFACE)

    side_lo, side_hi = _BUILDING_SIDE_CELLS
    heights = np.zeros((h, w))
    # padded so that every corner has a whole side_hi x side_hi window
    padded = np.zeros((h + side_hi, w + side_hi), dtype=bool)
    building = padded[:h, :w]
    target_cells = cfg.building_density * w * h
    n_building = attempts = 0
    max_attempts = 200 * max(1, int(target_cells / side_lo ** 2))
    # road columns before each x, road rows before each y
    road_sums = [np.concatenate([[0], np.cumsum(r)]) for r in (road_x, road_y)]
    block = _ATTEMPT_BLOCK_ELEMS // 8
    while n_building < target_cells and attempts < max_attempts:
        state = rng.bit_generator.state
        block = min(2 * block, max_attempts - attempts, _ATTEMPT_BLOCK_ELEMS // 8)
        # two words past the block's last attempt: the height of a building it places
        words = rng.integers(0, _WORD, size=4 * block + 2, dtype=np.uint64)
        used, tried, placed, stuck = _walk_block(words, road_sums, padded,
                                                 math.ceil(target_cells) - n_building,
                                                 whole=not state["has_uint32"])
        # the stream goes on right after the words the walk used
        rng.bit_generator.state = state
        rng.integers(0, _WORD, size=used, dtype=np.uint64)
        attempts += tried
        for x0, y0, bw, bh, at in placed:
            heights[y0:y0 + bh, x0:x0 + bw] = _uniform(words[at:at + 2], *cfg.building_height_range)
            n_building += bw * bh
        if not stuck:
            continue
        # the attempt the walk stopped at, drawn as is; the next block covers
        # twice the attempts this one got through
        block = tried + 1
        attempts += 1
        bw = int(rng.integers(side_lo, side_hi + 1))
        bh = int(rng.integers(side_lo, side_hi + 1))
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
    raster = ClassRaster(cfg.cell_size, _ORIGIN, classes)
    dsm = Dsm(cfg.cell_size, _ORIGIN, elevation)
    return raster, dsm


# `Generator.integers` bounds a range of at most 2**32 values on one 32-bit
# word of the stream, which `integers(0, _WORD, dtype=np.uint64)` returns as is.
_WORD = 1 << 32
# One block of building attempts decodes at most this many words, over its
# two phases, and one slice of its building test at most this many window cells.
_ATTEMPT_BLOCK_ELEMS = 1 << 14


def _bounded(words, n):
    """(value, retry): `Generator.integers(0, n)` for 1 <= n < 2**32 on each
    32-bit word, by Lemire's multiply-shift (Lemire 2019, "Fast random
    integer generation in an interval"), and whether it rejects that word
    and draws another. `n` is a scalar or broadcasts against `words`."""
    m = words * n
    return m >> 32, (m & (_WORD - 1)) < (_WORD - n) % n


def _uniform(words, low: float, high: float) -> float:
    """`Generator.uniform(low, high)` on the 64-bit output whose low and high
    32-bit words are `words`: its top 53 bits as a double in [0, 1), scaled."""
    u = int(words[0]) | int(words[1]) << 32
    low, high = float(low), float(high)
    return low + (high - low) * ((u >> 11) * (1.0 / (1 << 53)))


def _walk_block(words, road_sums, padded, room: int, whole: bool = True):
    """(used, tried, placed, stuck): walk the building attempts of a block of
    32-bit words, drawn from a stream that holds no buffered half of a
    64-bit output when `whole`.

    An attempt takes four words: side in x, side in y, x0, y0. It fails when
    its patch meets a road or a building, and places the building when its
    patch is free; the building's height then takes the next two words (one
    64-bit output, see `_uniform`). So the attempts lie at word offsets 0
    mod 4 until the first placement, then at 2 mod 4 until the next, and so
    on: each phase is decoded once, and a placement switches phase and
    marks the building in `padded`, the grid's building mask padded by
    side_hi on its far sides, which later attempts are tested against. A
    patch meets a road when its columns hold a road column or its rows a
    road row (`road_sums` are the prefix sums of the road columns and of the
    road rows).

    The walk stops at the block's end, once the placed cells reach `room`,
    or at an attempt that is not decided as drawn: one with a rejected word
    or a corner range under two values (so no corner is drawn), or, unless
    `whole`, one that places a building (its height draw would skip the
    buffered half word, which the next attempt then takes). It returns
    the words it used (the stream goes on after them), the attempts it
    made, each placement as (x0, y0, bw, bh, offset of its height's
    words), and whether it stopped at an attempt that the scalar loop then
    draws as is: an undecided one, or a placement when not `whole`.
    """
    x_sums, y_sums = road_sums
    windows = np.lib.stride_tricks.sliding_window_view(padded, (_BUILDING_SIDE_CELLS[1],) * 2)
    phases = [_decode(words[phase:phase + (len(words) - phase) // 4 * 4].reshape(-1, 4),
                      x_sums, y_sums)
              for phase in (0, 2)]
    pos = tried = 0
    placed = []
    while True:
        corner, sides, candidates, undecided = phases[pos % 4 // 2]
        first = pos // 4
        j = np.searchsorted(undecided, first)
        stop = int(undecided[j]) if j < len(undecided) else len(sides)
        a = _first_free(candidates[np.searchsorted(candidates, first):
                                   np.searchsorted(candidates, stop)],
                        corner, sides, windows)
        if a is None:
            return pos % 4 + 4 * stop, tried + stop - first, placed, stop < len(sides)
        at = pos % 4 + 4 * a
        if not whole:
            return at, tried + a - first, placed, True
        if at + 6 > len(words):  # its height's words lie past the block
            return at, tried + a - first, placed, False
        (x0, y0), (bw, bh) = corner[a].tolist(), sides[a].tolist()
        padded[y0:y0 + bh, x0:x0 + bw] = True
        placed.append((x0, y0, bw, bh, at + 4))
        tried += a - first + 1
        room -= bw * bh
        pos = at + 6
        if room <= 0:
            return pos, tried, placed, False


def _decode(words, x_sums, y_sums):
    """(corner, sides, candidates, undecided) of the attempts in the rows of
    `words`: each one's corner (x0, y0) and sides (bw, bh), the indices of
    the decided attempts whose patch meets no road, and of the undecided
    ones (see `_walk_block`)."""
    grid = np.array([len(x_sums), len(y_sums)]) - 1  # w, h
    side_lo, side_hi = _BUILDING_SIDE_CELLS
    sides, retry = _bounded(words[:, :2], side_hi - side_lo + 1)
    sides = sides.astype(np.int64) + side_lo
    span = grid - sides
    corner, corner_retry = _bounded(words[:, 2:], np.maximum(span, 1).astype(np.uint64))
    corner = corner.astype(np.int64)
    other = retry.any(axis=1) | corner_retry.any(axis=1) | (span < 2).any(axis=1)
    far = np.minimum(corner + sides, grid)  # only an undecided patch overhangs the grid
    (x0, y0), (x1, y1) = corner.T, far.T
    off_road = (x_sums[x1] == x_sums[x0]) & (y_sums[y1] == y_sums[y0]) & ~other
    return corner, sides, np.flatnonzero(off_road), np.flatnonzero(other)


def _first_free(candidates, corner, sides, windows):
    """The first of the `candidates` (attempt indices) whose patch holds no
    building cell of `windows[y0, x0]`, the building mask's widest patch at
    its corner, or None. They are tested in slices that grow from a few
    attempts: on a sparse tile the first is mostly free."""
    side_hi = _BUILDING_SIDE_CELLS[1]
    cells = np.arange(side_hi)
    start, step = 0, 4
    while start < len(candidates):
        a = candidates[start:start + step]
        patch = (cells < sides[a, 1, None])[:, :, None] & (cells < sides[a, 0, None])[:, None, :]
        free = np.flatnonzero(~(windows[corner[a, 1], corner[a, 0]] & patch).any(axis=(1, 2)))
        if len(free):
            return int(a[free[0]])
        start += step
        step = min(2 * step, _ATTEMPT_BLOCK_ELEMS // side_hi ** 2)
    return None


# ---------------------------------------------------------------------------
# CSV emission

def write_csv(path, header: str, rows):
    """`header`, then each row's values comma-joined by `str`, a line each.

    Rows hold plain Python values (an array's `tolist()`, not numpy
    scalars), so a float prints as its `repr` and reads back exactly.
    """
    _write_lines(path, header, (",".join(map(str, row)) for row in rows))


def _write_lines(path, header: str, lines):
    with open(path, "w") as f:
        f.write("\n".join([header, *lines]) + "\n")


# The report writers below lay out whole columns with `%r` (a Python float's
# `str`, as `write_csv` prints it), one format per row kind: the bytes of
# `write_csv`, without its join per row.

def save_coverage_csv(curve: CoverageCurve, path):
    _write_lines(path, "threshold_db,prob",
                 map("%r,%r".__mod__, zip(curve.thresholds.tolist(), curve.prob.tolist())))


def save_throughput_csv(cdf: ThroughputCdf, path):
    _write_lines(path, "mbps,cdf", map("%r,%r".__mod__, zip(cdf.rates.tolist(), cdf.cdf.tolist())))


def save_placement_csv(scene: Scene, bs_positions, path):
    """One row per map element; priority column is set for users only."""
    rows = [map("user,%r,%r,%r,%d".__mod__,
                zip(*_xyz(scene.user_positions()), scene.priority_mask().tolist()))]
    for kind, points in (("candidate", scene.candidate_positions()),
                         ("bs", bs_positions), ("fixed_bs", scene.fixed_bs)):
        rows.append(map(f"{kind},%r,%r,%r,".__mod__, zip(*_xyz(points))))
    _write_lines(path, "kind,x,y,z,priority", itertools.chain(*rows))


def _xyz(points) -> list:
    """The x, y and z lists of the points, as Python floats."""
    return np.asarray(points, dtype=float).reshape(-1, 3).T.tolist()
