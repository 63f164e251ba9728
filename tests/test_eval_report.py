import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsplace import eval_report
from bsplace.config_json import DataError
from bsplace.eval_report import (
    COVERAGE_GRID_HI_DB,
    COVERAGE_GRID_LO_DB,
    COVERAGE_GRID_STEP_DB,
    CoverageCurve,
    GeneratorConfig,
    ThroughputCdf,
    coverage_curve,
    generate_synthetic_scene,
    save_coverage_csv,
    save_placement_csv,
    save_throughput_csv,
    throughput_cdf,
)
from bsplace.radio import RadioParams, throughput_mbps
from bsplace.scene import (CandidateSite, CellClass, ClassRaster, Dsm, Scene, SceneConfig, User,
                           build_scene)

import conftest
from conftest import Digests, digest_id

PARAMS = RadioParams(tx_power_dbm=33.0)


def toy_scene(seed=1, fixed_bs=()):
    gen = GeneratorConfig(width=40, height=40, cell_size=25.0)
    raster, dsm = generate_synthetic_scene(gen, seed=seed)
    cfg = SceneConfig(user_spacing_m=200.0, candidate_pitch_m=350.0,
                      near_dist_m=50.0, fixed_bs=list(fixed_bs))
    return build_scene(raster, dsm, cfg)


# ---------------------------------------------------------------------------
# Coverage curves

def test_coverage_curve_hand_case():
    curve = coverage_curve([-30.0, 0.0, 15.0])
    assert curve.thresholds[0] == COVERAGE_GRID_LO_DB
    assert curve.thresholds[-1] == COVERAGE_GRID_HI_DB
    assert len(curve.thresholds) == 121
    assert np.all(np.diff(curve.thresholds) == pytest.approx(COVERAGE_GRID_STEP_DB))
    by_t = dict(zip(curve.thresholds.tolist(), curve.prob.tolist()))
    assert by_t[-20.0] == pytest.approx(2.0 / 3.0)
    assert by_t[-0.5] == pytest.approx(2.0 / 3.0)
    assert by_t[0.0] == pytest.approx(1.0 / 3.0)  # strictly-greater convention
    assert by_t[14.5] == pytest.approx(1.0 / 3.0)
    assert by_t[15.0] == 0.0
    assert by_t[40.0] == 0.0


def test_coverage_curve_non_increasing_property():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        curve = coverage_curve(rng.normal(5.0, 12.0, size=200))
        assert np.all(np.diff(curve.prob) <= 1e-12)
        assert curve.prob.min() >= 0.0 and curve.prob.max() <= 1.0


def test_coverage_curve_empty_raises():
    with pytest.raises(DataError, match="no SINR samples"):
        coverage_curve([])


def test_coverage_curve_validation():
    with pytest.raises(DataError, match="coverage curve must be non-increasing"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.2, 0.4]))
    with pytest.raises(DataError, match=r"coverage probabilities must lie in \[0, 1\]"):
        CoverageCurve(np.array([0.0, 1.0]), np.array([1.2, 0.4]))


# ---------------------------------------------------------------------------
# Throughput CDFs

def test_throughput_cdf_hand_case():
    # one user in outage, one at the cap on its own sector
    cdf = throughput_cdf([-20.0, 30.0], [0, 1], PARAMS)
    assert cdf.outage_fraction == pytest.approx(0.5)
    assert cdf.rates[0] == 0.0
    assert cdf.cdf[0] == pytest.approx(0.5)
    assert cdf.cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf.rates) == pytest.approx(0.5))
    # grid reaches the capped rate of 73.17 Mbps
    assert cdf.rates[-1] >= 73.0


def test_throughput_cdf_shares_sector():
    solo = throughput_cdf([12.0, 12.0], [0, 1], PARAMS)
    shared = throughput_cdf([12.0, 12.0], [3, 3], PARAMS)
    # same sector halves the rate: the shared CDF saturates earlier
    first_one_solo = solo.rates[np.argmax(solo.cdf >= 1.0)]
    first_one_shared = shared.rates[np.argmax(shared.cdf >= 1.0)]
    assert first_one_shared == pytest.approx(first_one_solo / 2.0, abs=0.5)
    assert shared.outage_fraction == 0.0


def test_throughput_cdf_validation():
    with pytest.raises(DataError, match="no SINR samples"):
        throughput_cdf([], [], PARAMS)
    with pytest.raises(DataError, match="attachments must align with SINR samples"):
        throughput_cdf([1.0, 2.0], [0], PARAMS)
    with pytest.raises(DataError, match="CDF must be non-decreasing"):
        ThroughputCdf(np.array([0.0, 0.5]), np.array([0.6, 0.4]), 0.0)
    with pytest.raises(DataError, match="CDF must end at 1"):
        ThroughputCdf(np.array([0.0, 0.5]), np.array([0.2, 0.8]), 0.0)


# ---------------------------------------------------------------------------
# Synthetic scenes

def scalar_generator(cfg: GeneratorConfig, seed: int):
    """The generator as it drew every building attempt one by one: the
    oracle for the block-drawn placement loop."""
    rng = np.random.default_rng(seed)
    h, w = cfg.height, cfg.width

    yy, xx = np.mgrid[0:h, 0:w]
    terrain = np.zeros((h, w))
    for _ in range(eval_report._TERRAIN_GAUSSIANS):
        cx = rng.uniform(0, w)
        cy = rng.uniform(0, h)
        sigma = rng.uniform(min(w, h) / 8.0, min(w, h) / 3.0)
        amp = rng.uniform(0.0, eval_report._TERRAIN_AMP)
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
    side_lo, side_hi = eval_report._BUILDING_SIDE_CELLS
    max_attempts = 200 * max(1, int(target_cells / side_lo ** 2))
    while n_building < target_cells and attempts < max_attempts:
        attempts += 1
        bw = int(rng.integers(side_lo, side_hi + 1))
        bh = int(rng.integers(side_lo, side_hi + 1))
        x0 = int(rng.integers(0, max(1, w - bw)))
        y0 = int(rng.integers(0, max(1, h - bh)))
        patch = np.s_[y0:y0 + bh, x0:x0 + bw]
        if road[patch].any() or building[patch].any():
            continue
        building[patch] = True
        n_building += building[patch].size
        heights[patch] = rng.uniform(*cfg.building_height_range)
    classes[building] = int(CellClass.BUILDING)

    free = ~road & ~building
    noise = rng.random((h, w))
    tree = free & (noise < eval_report._TREE_FRACTION)
    car = free & ~tree & (noise < eval_report._TREE_FRACTION + eval_report._CAR_FRACTION)
    clutter = free & ~tree & ~car & (noise < eval_report._TREE_FRACTION + eval_report._CAR_FRACTION
                                     + eval_report._CLUTTER_FRACTION)
    classes[tree] = int(CellClass.TREE)
    classes[car] = int(CellClass.CAR)
    classes[clutter] = int(CellClass.CLUTTER)
    return (ClassRaster(cfg.cell_size, eval_report._ORIGIN, classes),
            Dsm(cfg.cell_size, eval_report._ORIGIN, terrain + heights))


def assert_same_scene(got, want):
    (raster, dsm), (raster_want, dsm_want) = got, want
    assert raster.classes.dtype == raster_want.classes.dtype
    assert raster.classes.tobytes() == raster_want.classes.tobytes()
    assert dsm.elevation.tobytes() == dsm_want.elevation.tobytes()


SEARCH_TILE = dict(width=80, height=80, cell_size=25.0, building_density=0.45,
                   building_height_range=(18.0, 35.0), road_period=40, road_width=4)


# sha256 prefixes of the classes and elevation bytes, taken from the
# generator that drew every attempt one by one. Criterion 4 of the
# acceptance gate sits at its bound, so a drift of the generator's random
# stream must fail here by name. The terrain's exp rounds its last bit
# differently under numpy's AVX-512 and AVX2 kernels, so the elevation has
# a digest per dispatch mode.
_GENERATOR_PINS = [
    (SEARCH_TILE, 1, "1eb88c6bf31fcf27", Digests("250be163fe5f3077", "20fefa8c58d125ae")),
    (SEARCH_TILE, 2, "fa87db0a4c5bdbaa", Digests("cca83999a2670522", "a71bb78daa40edd6")),
    (SEARCH_TILE, 3, "e4698ebce6c0a453", Digests("88a31416d921dbeb", "dead2367292642b2")),
    (dict(SEARCH_TILE, width=200, height=200), 1, "59210b28bd9b1a6d",
     Digests("b16cf5ebf3b2b761", "1e3fc3c68923ba79")),
    ({}, 0, "23cb41d8d1cf0fe7", Digests("3c16388a7e14989e", "4bffec0700613b31")),
    (dict(width=40, height=40, cell_size=25.0), 2, "57eb56661b6f0e53",
     Digests("6a485fe3701fb920", "6abdb6af82e7c253")),
    (dict(width=12, height=60), 0, "cab85ab2a1e1baa6",
     Digests("0ed3d3cc400c32ff", "587b3ecacdf283ba")),
]


@pytest.mark.parametrize("config, seed, classes_sha, elevation_sha", _GENERATOR_PINS,
                         ids=digest_id)
def test_generator_output_is_pinned(config, seed, classes_sha, elevation_sha):
    raster, dsm = generate_synthetic_scene(GeneratorConfig(**config), seed)
    assert hashlib.sha256(raster.classes.tobytes()).hexdigest()[:16] == classes_sha
    assert hashlib.sha256(dsm.elevation.tobytes()).hexdigest()[:16] == elevation_sha.current()


def test_a_dispatch_mode_without_a_digest_fails_naming_it(monkeypatch):
    monkeypatch.setattr(conftest, "dispatch_key", lambda: ("ASIMD", "ASIMD", "ASIMD"))
    with pytest.raises(pytest.fail.Exception, match=r"\('ASIMD', 'ASIMD', 'ASIMD'\)"):
        _GENERATOR_PINS[0][3].current()


@pytest.mark.parametrize("config, seed, classes_sha", [pin[:3] for pin in _GENERATOR_PINS])
def test_generator_classes_are_pinned_under_any_dispatch(config, seed, classes_sha):
    # the class raster takes no transcendental function, so its digest holds
    # under every numpy dispatch mode (CI runs it with AVX-512 switched off)
    raster, _ = generate_synthetic_scene(GeneratorConfig(**config), seed)
    assert hashlib.sha256(raster.classes.tobytes()).hexdigest()[:16] == classes_sha


@settings(max_examples=60, deadline=None)
@given(width=st.integers(10, 90), height=st.integers(10, 90),
       density=st.floats(0.0, 0.8), period=st.integers(2, 60), road=st.integers(1, 59),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generator_matches_scalar_attempt_loop(width, height, density, period, road, seed):
    cfg = GeneratorConfig(width=width, height=height, building_density=density,
                          road_period=period, road_width=1 + (road - 1) % (period - 1))
    assert_same_scene(generate_synthetic_scene(cfg, seed), scalar_generator(cfg, seed))


# every workload's tile (perfbench/workloads.py: ingest 300, linktable 100,
# evaluate 140, search) at seeds 1-3, and the README quick start's tile
@pytest.mark.parametrize("config, seed", [
    *[(config, seed) for config in (dict(width=300, height=300), dict(width=100, height=100),
                                    dict(width=140, height=140), SEARCH_TILE)
      for seed in (1, 2, 3)],
    (dict(width=80, height=80, cell_size=25.0), 7),
])
def test_generator_matches_scalar_attempt_loop_on_workload_tiles(config, seed):
    cfg = GeneratorConfig(**config)
    assert_same_scene(generate_synthetic_scene(cfg, seed), scalar_generator(cfg, seed))


def spy_walks(monkeypatch):
    """The (used, tried, placed, stuck) of every `_walk_block` call, and
    whether its stream held a whole number of 64-bit outputs."""
    walks = []
    walk_block = eval_report._walk_block

    def spy(*args, whole):
        walks.append((walk_block(*args, whole=whole), whole))
        return walks[-1][0]

    monkeypatch.setattr(eval_report, "_walk_block", spy)
    return walks


@pytest.mark.parametrize("config, seed", [(SEARCH_TILE, 4), (dict(width=140, height=140), 1)])
def test_one_block_places_several_buildings_and_matches_scalar_loop(monkeypatch, config, seed):
    walks = spy_walks(monkeypatch)
    cfg = GeneratorConfig(**config)
    assert_same_scene(generate_synthetic_scene(cfg, seed), scalar_generator(cfg, seed))
    assert max(len(placed) for (_, _, placed, _), _ in walks) >= 2
    # placements after the first lie at word offsets 2 mod 4 as well as 0 mod 4
    assert {at % 4 for (_, _, placed, _), _ in walks for *_, at in placed} == {0, 2}


# 300 x 300 at seed 793: a corner word is rejected inside a block. On the
# 10 x 10 grid the first building, drawn as is, reaches the density
@pytest.mark.parametrize("config, seed, walks_on", [(dict(width=12, height=60), 0, True),
                                                    (dict(width=10, height=10), 3, False),
                                                    (dict(width=300, height=300), 793, True)])
def test_undecided_attempts_go_through_the_scalar_body(monkeypatch, config, seed, walks_on):
    walks = spy_walks(monkeypatch)
    cfg = GeneratorConfig(**config)
    assert_same_scene(generate_synthetic_scene(cfg, seed), scalar_generator(cfg, seed))
    assert any(stuck for (*_, stuck), _ in walks)
    # an odd number of words leaves half a 64-bit output in the stream: the
    # walks after it leave their placements to the scalar body
    assert any(not whole for _, whole in walks) == walks_on
    assert all(not placed for (_, _, placed, _), whole in walks if not whole)


def word_for(value, n):
    """A 32-bit word that `Generator.integers(0, n)` maps to `value` at once."""
    return ((2 * value + 1) << 31) // n


def test_walk_block_stops_at_the_first_attempt_not_decided_as_drawn():
    side_lo, side_hi = eval_report._BUILDING_SIDE_CELLS
    n_side = side_hi - side_lo + 1
    h = w = 40

    def road_sums(road_x, road_y):
        return [np.concatenate([[0], np.cumsum(r)]) for r in (road_x, road_y)]

    def one_building():
        padded = np.zeros((h + side_hi, w + side_hi), dtype=bool)
        padded[:6, :6] = True  # one placed building
        return padded

    roads = road_sums(np.arange(w) // 2 == 9, np.zeros(h, dtype=bool))  # columns 18-19

    def attempt(bw, bh, x0, y0):
        return [word_for(bw - side_lo, n_side), word_for(bh - side_lo, n_side),
                word_for(x0, w - bw), word_for(y0, h - bh)]

    on_road = attempt(6, 6, 15, 0)
    on_building = attempt(8, 8, 2, 3)
    free = attempt(6, 8, 25, 10)
    height = [7, 9]  # a placed building's height: one 64-bit output
    rejected = [0] + attempt(6, 6, 25, 10)[1:]  # a 15-value draw rejects the word 0
    room = h * w
    for rows, used, tried, placed, stuck in [
            # a free patch places its building, and the walk goes on two words later
            ([on_road, on_building, free, height], 14, 3, [(25, 10, 6, 8, 12)], False),
            ([on_road, rejected, free], 4, 1, [], True),
            ([on_building, on_road, on_building], 12, 3, [], False),
            # a free patch whose height lies past the block is left to the next block
            ([free], 0, 0, [], False),
            ([free, height], 6, 1, [(25, 10, 6, 8, 4)], False),
            # after a placement the attempts lie at word offsets 2 mod 4
            ([free, height, attempt(6, 6, 26, 12), attempt(6, 6, 30, 30), height],
             16, 3, [(25, 10, 6, 8, 4), (30, 30, 6, 6, 14)], False),
            ([free, height, on_road, rejected], 10, 2, [(25, 10, 6, 8, 4)], True)]:
        words = np.array([word for row in rows for word in row], dtype=np.uint64)
        padded = one_building()
        assert eval_report._walk_block(words, roads, padded, room) == (used, tried, placed, stuck)
        assert padded.sum() == 36 + sum(bw * bh for _, _, bw, bh, _ in placed)
    # on a stream holding half a 64-bit output a placement's height would skip
    # that half: the walk stops at the free patch and leaves it to the scalar body
    words = np.array(on_road + on_building + free + height, dtype=np.uint64)
    assert eval_report._walk_block(words, roads, one_building(), room, whole=False) == (
        8, 2, [], True)
    # the walk ends once the placed cells reach the room left
    words = np.array(free + height + free + height, dtype=np.uint64)
    assert eval_report._walk_block(words, roads, one_building(), 48) == (
        6, 1, [(25, 10, 6, 8, 4)], False)
    # on a grid 12 cells wide an 11-cell side leaves one corner column: no x0 draw
    narrow = road_sums(np.ones(12, dtype=bool), np.zeros(h, dtype=bool))  # all road
    short = [word_for(11 - side_lo, n_side)] + attempt(6, 6, 0, 0)[1:]
    words = np.array(attempt(6, 6, 2, 2) + short + attempt(6, 6, 3, 3), dtype=np.uint64)
    assert eval_report._walk_block(words, narrow, one_building(), room) == (4, 1, [], True)


@pytest.mark.parametrize("n", [2 ** 31 + 1, 2 ** 31 - 1, 3 * 2 ** 30, 2 ** 31 + 12345, 15, 1 << 20])
def test_bounded_matches_generator_integers(n):
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2 ** 32, size=4000, dtype=np.uint64)
    values, retry = eval_report._bounded(words, n)
    if n == 3 * 2 ** 30:
        # a quarter of the words land exactly on the rejection threshold, which keeps them
        assert ((words * n) % 2 ** 32 == 2 ** 32 - n).sum() > 500
    rng = np.random.default_rng(n)
    used = 0
    for _ in range(1500):
        while retry[used]:
            used += 1
        assert int(rng.integers(0, n)) == int(values[used])
        used += 1
    # the stream goes on right after the words the draws used
    assert rng.integers(0, 2 ** 32, size=8, dtype=np.uint64).tolist() == words[used:used + 8].tolist()


def test_bounded_rejects_a_word_one_below_the_threshold():
    # the first even word u of a stream, and n > 2**31 such that u * n mod
    # 2**32 is one below the rejection threshold 2**32 - n: (u + 1) n = -1
    rng = np.random.default_rng(9)
    words = rng.integers(0, 2 ** 32, size=64, dtype=np.uint64).tolist()
    for k, u in enumerate(words):
        n = -pow(u + 1, -1, 2 ** 32) % 2 ** 32 if u % 2 == 0 else 0
        if n > 2 ** 31:
            break
    assert (u * n) % 2 ** 32 == 2 ** 32 - n - 1
    _, retry = eval_report._bounded(np.array(words[k:k + 2], dtype=np.uint64), n)
    assert retry.tolist() == [True, bool((words[k + 1] * n) % 2 ** 32 < 2 ** 32 - n)]
    rng = np.random.default_rng(9)
    rng.integers(0, 2 ** 32, size=k, dtype=np.uint64)
    first = next(j for j in range(k + 1, len(words)) if (words[j] * n) % 2 ** 32 >= 2 ** 32 - n)
    assert int(rng.integers(0, n)) == (words[first] * n) >> 32


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       bounds=st.sampled_from([(9.0, 30.0), (18.0, 35.0), (1e-3, 1e3), (0.5, 0.5), (1, 7)])
       | st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)).map(sorted))
def test_uniform_matches_generator_uniform(seed, bounds):
    low, high = bounds
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2 ** 32, size=64, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    for k in range(0, 64, 2):
        want = rng.uniform(low, high)
        assert eval_report._uniform(words[k:k + 2], low, high).hex() == float(want).hex()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 6))
def test_replaying_the_used_words_leaves_the_stream_where_scalar_draws_do(seed, n):
    # n attempts that each place a building: four bounded draws and a height
    # draw, one after another, take 6 n words of the stream, in that order
    side_lo, side_hi = eval_report._BUILDING_SIDE_CELLS
    words = np.random.default_rng(seed).integers(0, 2 ** 32, size=6 * n, dtype=np.uint64)
    words = words.reshape(n, 6)
    sides, retry = eval_report._bounded(words[:, :2], side_hi - side_lo + 1)
    corner, corner_retry = eval_report._bounded(words[:, 2:4], 280)
    assume(not retry.any() and not corner_retry.any())
    scalar = np.random.default_rng(seed)
    for row, side, xy in zip(words, sides.tolist(), corner.tolist()):
        assert [int(scalar.integers(side_lo, side_hi + 1)) for _ in range(2)] == [
            v + side_lo for v in side]
        assert [int(scalar.integers(0, 280)) for _ in range(2)] == xy
        assert scalar.uniform(9.0, 30.0) == eval_report._uniform(row[4:], 9.0, 30.0)
    replay = np.random.default_rng(seed)
    replay.integers(0, 2 ** 32, size=6 * n, dtype=np.uint64)
    assert replay.bit_generator.state["has_uint32"] == scalar.bit_generator.state["has_uint32"] == 0
    assert replay.integers(0, 2 ** 32, size=8, dtype=np.uint64).tolist() == \
        scalar.integers(0, 2 ** 32, size=8, dtype=np.uint64).tolist()
    assert replay.uniform(9.0, 30.0) == scalar.uniform(9.0, 30.0)


# ---------------------------------------------------------------------------
# CSV writers

def test_save_coverage_csv(tmp_path):
    curve = coverage_curve([0.0, 10.0, 20.0])
    p = tmp_path / "coverage_test.csv"
    save_coverage_csv(curve, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "threshold_db,prob"
    assert len(lines) == 122
    t, prob = lines[1].split(",")
    assert float(t) == -20.0 and float(prob) == 1.0


def test_save_throughput_csv(tmp_path):
    cdf = throughput_cdf([15.0, -30.0], [0, 1], PARAMS)
    p = tmp_path / "throughput_test.csv"
    save_throughput_csv(cdf, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "mbps,cdf"
    assert len(lines) == len(cdf.rates) + 1
    r0, c0 = lines[1].split(",")
    assert float(r0) == 0.0
    assert float(c0) == pytest.approx(0.5)


def test_save_placement_csv(tmp_path):
    scene = toy_scene(fixed_bs=[[100.0, 100.0, 30.0]])
    bs = [scene.candidates[0].position]
    p = tmp_path / "placement_test.csv"
    save_placement_csv(scene, bs, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "kind,x,y,z,priority"
    expected = len(scene.users) + len(scene.candidates) + 1 + 1
    assert len(lines) == expected + 1
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds.count("user") == len(scene.users)
    assert kinds.count("candidate") == len(scene.candidates)
    assert kinds.count("bs") == 1
    assert kinds.count("fixed_bs") == 1
    user_rows = [ln for ln in lines[1:] if ln.startswith("user,")]
    assert all(ln.rsplit(",", 1)[1] in ("0", "1") for ln in user_rows)
    other_rows = [ln for ln in lines[1:] if not ln.startswith("user,")]
    assert all(ln.endswith(",") for ln in other_rows)


# every kind of float a report may print: zeros of both signs, subnormals,
# the edges of repr's fixed notation (1e-5 prints as 1e-05, 1e16 as 1e+16),
# huge values, short decimals, and NaN and the infinities
_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-5, 1e-4,
                     1e15, 1e16, 123456789012345.6, 1e300, -1e300, 0.1, 0.3, 2.675]),
    st.decimals(min_value=-10 ** 6, max_value=10 ** 6, places=3).map(float))
_CSV_POINTS = st.lists(_CSV_FLOATS, min_size=3, max_size=3)


def _write_csv_reports(curve, cdf, scene, bs_positions, out):
    """The three reports as `write_csv` writes them, one row at a time."""
    eval_report.write_csv(out / "coverage.csv", "threshold_db,prob",
                          zip(curve.thresholds.tolist(), curve.prob.tolist()))
    eval_report.write_csv(out / "throughput.csv", "mbps,cdf",
                          zip(cdf.rates.tolist(), cdf.cdf.tolist()))
    rows = [("user", *u.position.tolist(), int(u.priority)) for u in scene.users]
    for kind, points in (("candidate", [c.position for c in scene.candidates]),
                         ("bs", bs_positions), ("fixed_bs", scene.fixed_bs)):
        rows += [(kind, *np.asarray(p, dtype=float).tolist(), "") for p in points]
    eval_report.write_csv(out / "placement.csv", "kind,x,y,z,priority", rows)


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS), max_size=8),
       users=st.lists(st.tuples(_CSV_POINTS, st.booleans()), max_size=5),
       sites=st.lists(_CSV_POINTS, max_size=3), bs=st.lists(_CSV_POINTS, max_size=3),
       fixed=st.lists(_CSV_POINTS, max_size=2))
def test_report_csv_writers_match_write_csv_rows(tmp_path_factory, columns, users, sites, bs,
                                                 fixed):
    # the writers read only these columns, so any floats stand in for a curve
    a, b = (np.array(c, dtype=float).reshape(-1) for c in zip(*columns)) if columns else (
        np.empty(0), np.empty(0))
    curve = SimpleNamespace(thresholds=a, prob=b)
    cdf = SimpleNamespace(rates=b, cdf=a)
    scene = Scene([], [User(p, q) for p, q in users],
                  [CandidateSite(k, p) for k, p in enumerate(sites)], fixed)
    masts = [np.array(p) for p in bs]
    ref, out = tmp_path_factory.mktemp("ref"), tmp_path_factory.mktemp("out")
    _write_csv_reports(curve, cdf, scene, masts, ref)
    save_coverage_csv(curve, out / "coverage.csv")
    save_throughput_csv(cdf, out / "throughput.csv")
    save_placement_csv(scene, masts, out / "placement.csv")
    for name in ("coverage.csv", "throughput.csv", "placement.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_placement_csv_without_masts_matches_write_csv_rows(tmp_path):
    # a placement of scene sites alone: no off-lattice mast and no prior BS
    scene = toy_scene()
    _write_csv_reports(coverage_curve([0.0]), throughput_cdf([0.0], [0], PARAMS), scene, [],
                       tmp_path)
    save_placement_csv(scene, [], tmp_path / "new.csv")
    assert scene.fixed_bs == []
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "placement.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(sinrs=st.lists(st.one_of(st.floats(-60, 80), st.sampled_from(
           [-20.0, 40.0, 0.5, -19.75, float("inf"), -float("inf")])), min_size=1, max_size=60),
       nan=st.booleans(), sectors=st.integers(1, 6), data=st.data())
def test_curves_match_the_comparison_matrix(sinrs, nan, sectors, data):
    # the curves count samples by one sort and searchsorted; the matrix of
    # every (threshold, sample) comparison, averaged, is the oracle, bit for bit
    s = np.array(sinrs)
    if nan:
        s[data.draw(st.integers(0, s.size - 1))] = np.nan
    t = COVERAGE_GRID_LO_DB + COVERAGE_GRID_STEP_DB * np.arange(121)
    want = (s[None, :] > t[:, None]).mean(axis=1)
    assert coverage_curve(s).prob.tobytes() == want.tobytes()
    if nan:
        return
    attach = np.array(data.draw(st.lists(st.integers(0, sectors - 1), min_size=s.size,
                                         max_size=s.size)))
    cdf = throughput_cdf(s, attach, PARAMS)
    _, inverse, counts = np.unique(attach, return_inverse=True, return_counts=True)
    thr = throughput_mbps(s, counts[inverse], PARAMS)
    assert cdf.cdf.tobytes() == (thr[None, :] <= cdf.rates[:, None]).mean(axis=1).tobytes()
