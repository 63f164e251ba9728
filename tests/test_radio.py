import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bsplace import radio
from bsplace.config_json import DataError
from bsplace.geometry import los_mask
from bsplace.radio import (
    SECTOR_AZIMUTHS_DEG,
    SINR_CAP_DB,
    SINR_FLOOR_DB,
    BsSector,
    RadioParams,
    antenna_attenuation_db,
    attach_and_evaluate,
    build_link_table,
    build_sectors,
    db_to_linear,
    linear_to_db,
    link_budget,
    pathloss_db,
    sector_rx_dbm,
    sectors_for_sites,
    sinr_db,
    sinr_from_rx,
    thermal_noise_dbm,
    throughput_mbps,
)
from bsplace.scene import CandidateSite, Scene, SceneConfig, User, build_scene
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene

from conftest import Digests, digest_id, table_from_db


DEFAULTS = RadioParams()
# every field moved off its default
NON_DEFAULT = RadioParams(carrier_ghz=3.5, hpbw_deg=70.0, front_back_db=25.0,
                          nlos_penalty_db=28.0, noise_figure_db=7.0, bandwidth_mhz=20.0,
                          tx_power_dbm=36.0, min_coupling_loss_db=65.0, antenna_gain_dbi=17.0)
# any valid radio config, drawn field by field
radio_params = st.builds(
    RadioParams, carrier_ghz=st.floats(0.5, 6.0), hpbw_deg=st.floats(20.0, 180.0),
    front_back_db=st.floats(1.0, 40.0), nlos_penalty_db=st.floats(0.0, 40.0),
    noise_figure_db=st.floats(1.0, 15.0), bandwidth_mhz=st.floats(1.4, 100.0),
    tx_power_dbm=st.floats(10.0, 50.0), min_coupling_loss_db=st.floats(30.0, 100.0),
    antenna_gain_dbi=st.floats(0.0, 25.0))


def flat_scene(users=(), buildings=()):
    return Scene(buildings=list(buildings),
                 users=list(users), candidates=[], fixed_bs=[])


# ---------------------------------------------------------------------------
# Path loss, pattern, noise

def test_pathloss_reference_points():
    assert pathloss_db(1000.0, DEFAULTS) == pytest.approx(128.1, abs=1e-12)
    assert pathloss_db(100.0, DEFAULTS) == pytest.approx(90.5, abs=1e-12)
    # the last 10 m clamp: anything closer costs the same as 10 m
    assert pathloss_db(10.0, DEFAULTS) == pytest.approx(52.9, abs=1e-9)
    assert pathloss_db(3.0, DEFAULTS) == pathloss_db(10.0, DEFAULTS)


def test_pathloss_carrier_shift():
    p4 = RadioParams(carrier_ghz=4.0)
    assert pathloss_db(1000.0, p4) == pytest.approx(134.4216299089436, abs=1e-9)


def test_pathloss_rejects_nonpositive():
    with pytest.raises(DataError, match="distance must be > 0 m"):
        pathloss_db(0.0, DEFAULTS)
    with pytest.raises(DataError, match="distance must be > 0 m"):
        pathloss_db(-5.0, DEFAULTS)
    with pytest.raises(DataError, match="distance must be > 0 m"):
        pathloss_db(np.array([100.0, 0.0]), DEFAULTS)


def test_pathloss_array_matches_scalar():
    d = np.array([10.0, 100.0, 250.0, 1000.0, 4000.0])
    arr = pathloss_db(d, DEFAULTS)
    for i, x in enumerate(d):
        assert arr[i] == pathloss_db(float(x), DEFAULTS)


def test_antenna_pattern_values():
    assert antenna_attenuation_db(0.0, DEFAULTS) == pytest.approx(0.0)
    assert antenna_attenuation_db(32.5, DEFAULTS) == pytest.approx(3.0, abs=1e-12)
    assert antenna_attenuation_db(-32.5, DEFAULTS) == pytest.approx(3.0, abs=1e-12)
    assert antenna_attenuation_db(65.0, DEFAULTS) == pytest.approx(12.0, abs=1e-12)
    assert antenna_attenuation_db(180.0, DEFAULTS) == pytest.approx(20.0)


def test_antenna_pattern_wraps_angles():
    # 327.5 deg normalizes to -32.5 deg off boresight
    assert antenna_attenuation_db(327.5, DEFAULTS) == pytest.approx(3.0, abs=1e-12)
    assert antenna_attenuation_db(-360.0 + 32.5, DEFAULTS) == pytest.approx(3.0, abs=1e-12)
    th = np.linspace(-720, 720, 97)
    att = antenna_attenuation_db(th, DEFAULTS)
    assert np.all(att >= 0.0) and np.all(att <= DEFAULTS.front_back_db)


def test_thermal_noise():
    assert thermal_noise_dbm(DEFAULTS) == pytest.approx(-95.0, abs=1e-12)
    assert thermal_noise_dbm(RadioParams(bandwidth_mhz=20.0)) == pytest.approx(
        -95.0 + 10.0 * np.log10(2.0), abs=1e-12)


def test_db_linear_round_trip():
    vals = np.array([-120.0, -30.5, 0.0, 17.25])
    assert np.allclose(linear_to_db(db_to_linear(vals)), vals)


# ---------------------------------------------------------------------------
# Link budget

def test_link_budget_boresight_snr():
    # 1 km on boresight: rx = 43 + 15 - 128.1 = -70.1 dBm, and with
    # noise at -95 dBm the SNR is 24.9 dB.
    sector = BsSector(np.array([0.0, 0.0, 25.0]), 0.0)
    user = User(position=np.array([1000.0, 0.0, 25.0]), priority=False)
    lb = link_budget(user, sector, flat_scene(), DEFAULTS, True)
    assert lb.pathloss_db == pytest.approx(128.1, abs=1e-12)
    assert lb.antenna_gain_db == pytest.approx(15.0)
    assert lb.los is True
    assert lb.rx_power_dbm == pytest.approx(-70.1, abs=1e-9)
    snr = lb.rx_power_dbm - thermal_noise_dbm(DEFAULTS)
    assert snr == pytest.approx(24.9, abs=1e-9)


def test_link_budget_min_coupling_loss():
    sector = BsSector(np.array([0.0, 0.0, 25.0]), 0.0)
    user = User(position=np.array([1.0, 0.0, 25.0]), priority=False)
    lb = link_budget(user, sector, flat_scene(), DEFAULTS, True)
    assert lb.rx_power_dbm == pytest.approx(
        DEFAULTS.tx_power_dbm - DEFAULTS.min_coupling_loss_db)


def test_link_budget_nlos_penalty(box_scene):
    sector = build_sectors(box_scene.candidates[0].position, DEFAULTS)[0]
    shadowed = box_scene.users[2]  # building sits between them
    with_blk = link_budget(shadowed, sector, box_scene, DEFAULTS, True)
    without = link_budget(shadowed, sector, box_scene, DEFAULTS, False)
    assert not with_blk.los
    assert without.los
    assert with_blk.rx_power_dbm == pytest.approx(
        without.rx_power_dbm - DEFAULTS.nlos_penalty_db)


def test_link_budget_off_boresight():
    sector = BsSector(np.array([0.0, 0.0, 25.0]), 0.0)
    user = User(position=np.array([0.0, 1000.0, 25.0]), priority=False)
    lb = link_budget(user, sector, flat_scene(), DEFAULTS, True)
    # 90 degrees off boresight hits the front-to-back cap
    assert lb.antenna_gain_db == pytest.approx(15.0 - 20.0)


def test_build_sectors_azimuths():
    secs = build_sectors(np.array([1.0, 2.0, 30.0]), DEFAULTS)
    assert [s.azimuth_deg for s in secs] == [0.0, 120.0, 240.0]
    assert SECTOR_AZIMUTHS_DEG == (0.0, 120.0, 240.0)
    multi = sectors_for_sites([np.zeros(3), np.ones(3)], DEFAULTS)
    assert len(multi) == 6


# ---------------------------------------------------------------------------
# SINR and association

def test_sinr_from_rx_hand_case():
    # signal -60 dBm, one interferer -70 dBm, noise -95 dBm:
    # 10 log10(1e-6 / (10^-9.5 + 1e-7)) = 9.986288071673165
    serving, sinr = sinr_from_rx(np.array([[-60.0, -70.0]]), -95.0)
    assert serving[0] == 0
    assert sinr[0] == pytest.approx(9.986288071673165, abs=1e-12)


def test_sinr_from_rx_tie_breaks_low_index():
    serving, _ = sinr_from_rx(np.array([[-61.5, -61.5, -61.5]]), -95.0)
    assert serving[0] == 0


def test_sinr_from_rx_no_interference_is_snr():
    serving, sinr = sinr_from_rx(np.array([[-70.1]]), -95.0)
    assert sinr[0] == pytest.approx(24.9, abs=1e-9)


def test_sinr_from_rx_rejects_empty():
    with pytest.raises(DataError, match="need at least one sector"):
        sinr_from_rx(np.zeros((3, 0)), -95.0)
    with pytest.raises(DataError, match="need at least one sector"):
        sinr_from_rx(np.zeros((2, 3, 0)), -95.0)
    with pytest.raises(DataError, match="need at least one sector"):
        sinr_from_rx(np.zeros(3), -95.0)


def test_sinr_from_rx_batch_equals_each_placement():
    rng = np.random.default_rng(3)
    for shape in ((5, 7, 6), (2, 3, 4, 9), (1, 1, 1)):
        rx = rng.normal(-90.0, 20.0, size=shape)
        rx[..., -1] = rx[..., 0]  # exact ties go to the lower index
        serving, sinr = sinr_from_rx(rx, -104.0)
        assert serving.shape == sinr.shape == shape[:-1]
        for idx in np.ndindex(*shape[:-2]):
            one_serving, one_sinr = sinr_from_rx(rx[idx], -104.0)
            assert np.array_equal(serving[idx], one_serving)
            assert sinr[idx].tobytes() == one_sinr.tobytes()


def test_sinr_for_batch_equals_each_site_set():
    rng = np.random.default_rng(4)
    rx = rng.normal(-90.0, 20.0, size=(6, 9, 3))
    table = table_from_db(rx, np.ones(6, dtype=bool), n_fixed=2)
    ids = rng.integers(0, 7, size=(4, 3))
    batch = table.sinr_for(ids)
    assert batch.shape == (4, 6)
    for row, sinr in zip(ids, batch):
        one = table.sinr_for(list(row))
        assert one.tobytes() == sinr.tobytes()
        # the fixed BS, sites 7 and 8, follow the chosen sites
        _, want = sinr_from_rx(rx[:, list(row) + [7, 8], :].reshape(6, -1), table.noise_dbm)
        assert one.tobytes() == want.tobytes()
    _, fixed_only = sinr_from_rx(rx[:, 7:, :].reshape(6, -1), table.noise_dbm)
    assert table.sinr_for([]).tobytes() == fixed_only.tobytes()


# LinkGainTable.sinr_for takes the max linear power as the signal, which is
# the linear power of the max dBm only while db_to_linear is monotone.

def test_db_to_linear_monotone_on_a_dense_sweep():
    db = np.linspace(-300.0, 60.0, 2_000_001)
    assert np.all(np.diff(db_to_linear(db)) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-300.0, 60.0))
def test_db_to_linear_monotone_over_adjacent_doubles(start):
    # 2 x 4096 consecutive doubles around `start`, in a contiguous array
    # as the table and its gathers are
    bits = np.array([start]).view(np.int64) + np.arange(-4096, 4096)
    db = np.sort(bits.view(np.float64))
    db = db[np.isfinite(db) & (np.abs(db) < 1e3)]
    assert np.all(np.diff(db) > 0.0)
    assert np.all(np.diff(db_to_linear(db)) >= 0.0)


def test_sinr_db_imposed_serving(box_scene):
    sectors = sectors_for_sites(
        [box_scene.candidates[0].position, box_scene.candidates[1].position],
        DEFAULTS)
    user = box_scene.users[0]
    vals = [sinr_db(user, s, sectors, box_scene, DEFAULTS, True)
            for s in range(len(sectors))]
    serving_best = int(np.argmax(vals))
    _, auto = attach_and_evaluate([user], sectors, box_scene, DEFAULTS, True)
    assert auto[0] == pytest.approx(max(vals))
    with pytest.raises(DataError, match="serving index 99 outside sector list"):
        sinr_db(user, 99, sectors, box_scene, DEFAULTS, True)
    assert 0 <= serving_best < len(sectors)


# ---------------------------------------------------------------------------
# Throughput mapping

def test_throughput_floor_and_cap():
    assert throughput_mbps(SINR_FLOOR_DB - 0.01, 1, DEFAULTS) == 0.0
    # at the floor the user still gets a rate
    assert throughput_mbps(SINR_FLOOR_DB, 1, DEFAULTS) > 0.0
    at_cap = throughput_mbps(SINR_CAP_DB, 1, DEFAULTS)
    above = throughput_mbps(SINR_CAP_DB + 15.0, 1, DEFAULTS)
    assert at_cap == pytest.approx(73.17316001936548, abs=1e-9)
    assert above == at_cap


def test_throughput_shares_bandwidth():
    solo = throughput_mbps(12.0, 1, DEFAULTS)
    shared = throughput_mbps(12.0, 4, DEFAULTS)
    assert shared == pytest.approx(solo / 4.0)
    with pytest.raises(DataError, match="n_attached must be >= 1"):
        throughput_mbps(12.0, 0, DEFAULTS)


def test_throughput_broadcasts():
    s = np.array([-20.0, 0.0, 30.0])
    n = np.array([1, 2, 3])
    out = throughput_mbps(s, n, DEFAULTS)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[2] == pytest.approx(73.17316001936548 / 3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Link table and attach_and_evaluate: both routes go through sector_rx_dbm

def test_link_table_shapes(box_scene):
    table = build_link_table(box_scene, DEFAULTS, True)
    assert table.rx_mw.shape == (3, 4, 3) and table.rx_mw.flags.c_contiguous
    assert table.rx_dbm.shape == (4, 3, 3)
    assert table.n_candidates == 3 and table.n_fixed == 0
    assert table.noise_dbm == pytest.approx(-95.0)
    assert table.sinr_for([0, 2]).shape == (4,)
    assert list(table.columns_for([2, 0])) == [2, 0]


def test_link_table_appends_fixed_bs(box_scene):
    scene = Scene(buildings=box_scene.buildings,
                  users=box_scene.users, candidates=box_scene.candidates,
                  fixed_bs=[np.array([150.0, 150.0, 20.0])])
    table = build_link_table(scene, DEFAULTS, True)
    assert table.rx_mw.shape == (4, 4, 3)
    assert table.n_fixed == 1
    assert list(table.columns_for([1])) == [1, 3]
    assert table.sinr_for([]).shape == (4,)


# the scene is only read, so one instance may serve every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=radio_params)
@example(params=DEFAULTS)
@example(params=NON_DEFAULT)
def test_table_matches_scalar_link_budget(box_scene, params):
    table = build_link_table(box_scene, params, True)
    for ui, user in enumerate(box_scene.users):
        for ci, cand in enumerate(box_scene.candidates):
            for si, sector in enumerate(build_sectors(cand.position, params)):
                lb = link_budget(user, sector, box_scene, params, True)
                assert table.rx_dbm[ui, ci, si] == pytest.approx(
                    lb.rx_power_dbm, abs=1e-12), (ui, ci, si)


@pytest.fixture(scope="module")
def attach_scenes():
    cfg = GeneratorConfig(width=40, height=40, cell_size=10.0)
    return [build_scene(*generate_synthetic_scene(cfg, seed=seed),
                        SceneConfig(user_spacing_m=40.0, candidate_pitch_m=130.0))
            for seed in range(4)]


@settings(max_examples=10, deadline=None)
@given(params=radio_params)
@example(params=DEFAULTS)
@example(params=NON_DEFAULT)
def test_attach_matches_table_route(attach_scenes, params):
    # the table and the what-if route give the same SINR bytes for any radio config
    for scene in attach_scenes:
        table = build_link_table(scene, params, True)
        ids = sorted(range(len(scene.candidates)))[:2]
        sectors = sectors_for_sites([scene.candidates[i].position for i in ids], params)
        _, sinr_d = attach_and_evaluate(scene.users, sectors, scene, params, True)
        assert table.sinr_for(ids).tobytes() == sinr_d.tobytes()


def test_attach_sector_fields_match_oracles(box_scene):
    # whole heads on masts in unsorted input order; user 2 sees the mast at
    # (10, 100) through the building, and the mast at (100.5, 30.5) sits
    # 0.7 m from user 1 so the coupling cap binds
    masts = np.array([[190.0, 190.0, 15.0], [10.0, 100.0, 15.0],
                      [100.5, 30.5, 1.5], [100.0, 10.0, 15.0]])
    sectors = sectors_for_sites(masts, DEFAULTS)
    budgets = [[link_budget(u, s, box_scene, DEFAULTS, True) for s in sectors]
               for u in box_scene.users]
    assert not budgets[2][3].los and budgets[2][9].los
    assert budgets[1][6].rx_power_dbm == DEFAULTS.tx_power_dbm - DEFAULTS.min_coupling_loss_db

    rx = sector_rx_dbm(box_scene.user_positions(), masts, box_scene.buildings, DEFAULTS)
    expect = np.array([[b.rx_power_dbm for b in row] for row in budgets])
    assert rx.shape == (4, 4, 3)
    assert np.allclose(rx.reshape(4, -1), expect, rtol=0.0, atol=1e-9)

    serving, sinr = attach_and_evaluate(box_scene.users, sectors, box_scene,
                                        DEFAULTS, True)
    assert np.array_equal(serving, np.argmax(expect, axis=1))
    for u, user in enumerate(box_scene.users):
        ref = sinr_db(user, int(serving[u]), sectors, box_scene, DEFAULTS, True)
        assert sinr[u] == pytest.approx(ref, abs=1e-9)
    with pytest.raises(DataError, match="sector list is empty"):
        attach_and_evaluate(box_scene.users, [], box_scene, DEFAULTS, True)


@pytest.mark.parametrize("sectors", [
    sectors_for_sites([[10.0, 100.0, 15.0]], DEFAULTS)[:2],
    [BsSector([10.0, 100.0, 15.0], az + 10.0) for az in SECTOR_AZIMUTHS_DEG],
    [BsSector([10.0, 100.0, 15.0], 0.0), BsSector([10.0, 100.0, 15.0], 120.0),
     *sectors_for_sites([[100.0, 10.0, 15.0]], DEFAULTS)],
], ids=["two-sectors", "rotated-azimuth", "split-head"])
def test_attach_rejects_sectors_that_are_not_whole_heads(box_scene, sectors):
    with pytest.raises(DataError, match="whole three-sector heads"):
        attach_and_evaluate(box_scene.users, sectors, box_scene, DEFAULTS, True)


@pytest.fixture(scope="module")
def tile_scene():
    cfg = GeneratorConfig(width=40, height=40, cell_size=10.0)
    raster, dsm = generate_synthetic_scene(cfg, seed=1)
    return build_scene(raster, dsm, SceneConfig(user_spacing_m=40.0, candidate_pitch_m=60.0))


@pytest.mark.parametrize("masts_per_block", [1, 4])
def test_rx_mast_blocks_keep_every_bit(tile_scene, monkeypatch, masts_per_block):
    users, masts = tile_scene.user_positions(), tile_scene.candidate_positions()
    assert 3 * len(users) * len(masts) <= radio._RX_BLOCK_ELEMS  # one block by default
    assert len(masts) % 4  # the last block of four masts is ragged
    whole = sector_rx_dbm(users, masts, tile_scene.buildings, DEFAULTS)
    # a block of one value still holds one whole mast
    elems = 1 if masts_per_block == 1 else 3 * len(users) * masts_per_block + 2
    monkeypatch.setattr(radio, "_RX_BLOCK_ELEMS", elems)
    blocked = sector_rx_dbm(users, masts, tile_scene.buildings, DEFAULTS)
    assert whole.tobytes() == blocked.tobytes()


@pytest.mark.parametrize("n_users, n_masts", [(3000, 200), (200, 3000), (20000, 3)])
def test_rx_kernel_temporaries_are_bounded(n_users, n_masts):
    rng = np.random.default_rng(0)
    users = np.column_stack([rng.uniform(0.0, 2000.0, (n_users, 2)), np.full(n_users, 1.5)])
    masts = np.column_stack([rng.uniform(0.0, 2000.0, (n_masts, 2)), np.full(n_masts, 25.0)])
    tracemalloc.start()
    try:
        rx = sector_rx_dbm(users, masts, [], DEFAULTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the result and the boolean LoS mask, a few blocks of float64
    extra = peak - rx.nbytes - n_users * n_masts
    assert extra < 8 * radio._RX_BLOCK_ELEMS * 8, extra


def test_link_table_stores_the_linear_site_major_kernel_output(tile_scene):
    users, masts = tile_scene.user_positions(), tile_scene.candidate_positions()
    for p in (DEFAULTS, NON_DEFAULT):
        rx = sector_rx_dbm(users, masts, tile_scene.buildings, p)
        want = db_to_linear(np.ascontiguousarray(np.moveaxis(rx, 1, 0)))
        table = build_link_table(tile_scene, p, True)
        assert table.rx_mw.shape == want.shape
        assert table.rx_mw.tobytes() == want.tobytes()
        # the dB view converts back to within rounding of the kernel's values
        assert np.abs(table.rx_dbm - rx).max() <= 1e-13


@pytest.mark.parametrize("generator, config, sha", [
    # the default 200 x 200 scene, and a 100 x 100 tile at a 25 m site pitch
    (GeneratorConfig(), SceneConfig(),
     Digests("2280f0503f68df3dfa492db4e6b7f44aee2dd6acf04616ebbf44ccc445c42b7b",
             "fe19d2aad5e0415d261726055f1ed68f97a895b241a0af2e86eabf7f19848a22")),
    (GeneratorConfig(width=100, height=100), SceneConfig(candidate_pitch_m=25.0),
     Digests("75de2ad4f918f900f02a761fa213ba776784463634c5e1c0cc29e5ffdc69b3ed",
             "1b84d1057b9c43604e6a0795723d170b7387538bab3e979cfbf17a5143b7b180")),
], ids=digest_id)
def test_link_table_bytes_are_pinned(generator, config, sha):
    # sha256 of rx_mw on seed 1, taken before the rectangle cover stage of
    # los_mask, per numpy dispatch mode (log10 and power round their last
    # bit differently under the AVX2 and AVX-512 kernels)
    raster, dsm = generate_synthetic_scene(generator, 1)
    table = build_link_table(build_scene(raster, dsm, config), RadioParams(), True)
    assert hashlib.sha256(table.rx_mw.tobytes()).hexdigest() == sha.current()


@pytest.mark.parametrize("generator, config, sha", [
    # the two scenes of test_link_table_bytes_are_pinned
    (GeneratorConfig(), SceneConfig(),
     "52447604080e941b0e9b5cd5682d04e7fb2c98bf7af2331f06fa0ea0051f9d58"),
    (GeneratorConfig(width=100, height=100), SceneConfig(candidate_pitch_m=25.0),
     "018451e2b46097ab6042f49a025110322657ae81b12a6595476980b015a14fdc"),
])
def test_los_mask_is_pinned_under_any_dispatch(generator, config, sha):
    # sha256 of the table's LoS mask on seed 1: the users' heights move in
    # their last bits with numpy's dispatch mode, the mask does not (CI runs
    # it with AVX-512 switched off)
    raster, dsm = generate_synthetic_scene(generator, 1)
    s = build_scene(raster, dsm, config)
    mask = los_mask(s.user_positions(), s.candidate_positions(), s.buildings)
    assert hashlib.sha256(mask.tobytes()).hexdigest() == sha


def test_link_table_build_and_first_score_allocate_one_table():
    rng = np.random.default_rng(2)
    users = [User(np.array([x, y, 1.5]), k % 3 == 0)
             for k, (x, y) in enumerate(rng.uniform(0.0, 3000.0, (2000, 2)))]
    candidates = [CandidateSite(i, np.array([x, y, 25.0]))
                  for i, (x, y) in enumerate(rng.uniform(0.0, 3000.0, (300, 2)))]
    scene = Scene(buildings=[], users=users, candidates=candidates, fixed_bs=[])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_link_table(scene, DEFAULTS, True)
        build_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        table.sinr_for([0, 1, 2])
        score_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    table_bytes = table.rx_mw.nbytes
    assert table_bytes > 20 * radio._RX_BLOCK_ELEMS * 8  # many mast blocks
    assert build_peak - table_bytes < table_bytes / 2, build_peak
    assert score_peak < table_bytes / 4, score_peak


def test_radio_params_validation():
    with pytest.raises(DataError, match="bandwidth_mhz must be positive"):
        RadioParams(bandwidth_mhz=0.0)
    with pytest.raises(DataError, match="carrier_ghz must be positive"):
        RadioParams(carrier_ghz=-1.0)
    with pytest.raises(DataError, match="hpbw_deg must be positive"):
        RadioParams(hpbw_deg=0.0)
    with pytest.raises(DataError, match="nlos_penalty_db must be >= 0, got -1.0"):
        RadioParams(nlos_penalty_db=-1.0)


def test_radio_params_json_round_trip(tmp_path):
    p = RadioParams(tx_power_dbm=33.0, nlos_penalty_db=25.0)
    path = tmp_path / "radio.json"
    with open(path, "w") as f:
        json.dump(asdict(p), f)
    back = RadioParams.from_json(path)
    assert back == p


def test_radio_params_rejects_unknown_key(tmp_path):
    path = tmp_path / "radio.json"
    # no route applies shadowing, so its old keys are unknown like any misspelling
    for key in ("tx_power_dBm", "shadowing_sigma_db", "shadowing_seed"):
        path.write_text(json.dumps({key: 1.0}))
        with pytest.raises(DataError, match=f"unknown key '{key}'"):
            RadioParams.from_json(path)


def test_radio_params_rejects_repeated_key(tmp_path):
    path = tmp_path / "radio.json"
    path.write_text('{"tx_power_dbm": 33.0, "hpbw_deg": 60.0, "tx_power_dbm": 40.0}')
    with pytest.raises(DataError, match="repeated JSON key 'tx_power_dbm'"):
        RadioParams.from_json(path)


def test_radio_params_rejects_wrong_type(tmp_path):
    path = tmp_path / "radio.json"
    path.write_text('{"tx_power_dbm": "33"}')
    with pytest.raises(DataError, match="'tx_power_dbm' must be a finite number, got '33'"):
        RadioParams.from_json(path)


@pytest.mark.parametrize("field, value", [
    ("antenna_gain_dbi", float("nan")),
    ("nlos_penalty_db", float("nan")),
    ("carrier_ghz", float("inf")),
    ("tx_power_dbm", float("-inf")),
    ("hpbw_deg", float("nan")),
])
def test_radio_params_rejects_non_finite(tmp_path, field, value):
    with pytest.raises(DataError, match=f"{field} must be finite"):
        RadioParams(**{field: value})
    path = tmp_path / "radio.json"
    path.write_text(f'{{"{field}": {value!r}}}'.replace("nan", "NaN").replace("inf", "Infinity"))
    with pytest.raises(DataError, match=f"'{field}' must be a finite number"):
        RadioParams.from_json(path)
