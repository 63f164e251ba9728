import numpy as np
import pytest

from bsplace.eval_report import (
    COVERAGE_GRID_HI_DB,
    COVERAGE_GRID_LO_DB,
    COVERAGE_GRID_STEP_DB,
    CoverageCurve,
    EmptyInput,
    GeneratorConfig,
    ReportError,
    ThroughputCdf,
    coverage_curve,
    generate_synthetic_scene,
    save_coverage_csv,
    save_placement_csv,
    save_throughput_csv,
    throughput_cdf,
)
from bsplace.radio import RadioParams
from bsplace.scene import SceneConfig, build_scene

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
    with pytest.raises(EmptyInput):
        coverage_curve([])


def test_coverage_curve_validation():
    with pytest.raises(ReportError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.2, 0.4]))
    with pytest.raises(ReportError):
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
    with pytest.raises(EmptyInput):
        throughput_cdf([], [], PARAMS)
    with pytest.raises(ReportError):
        throughput_cdf([1.0, 2.0], [0], PARAMS)
    with pytest.raises(ReportError):
        ThroughputCdf(np.array([0.0, 0.5]), np.array([0.6, 0.4]), 0.0)
    with pytest.raises(ReportError):
        ThroughputCdf(np.array([0.0, 0.5]), np.array([0.2, 0.8]), 0.0)


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
