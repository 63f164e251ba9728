import numpy as np
import pytest

from bsplace.baselines import (
    METHODS,
    KmeansConfig,
    _snap_to_candidates,
    compare_methods,
    kmeans_site_ids,
    lloyd,
    save_comparison_csv,
)
from bsplace.config_json import DataError
from bsplace.optimizer import GaConfig, evaluate_sites, run_ga_single_objective, run_nsga2
from bsplace.radio import LinkGainTable, RadioParams, build_link_table
from bsplace.scene import SceneConfig, build_scene
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene

PARAMS = RadioParams(tx_power_dbm=33.0)


@pytest.fixture(scope="module")
def kmeans_scene():
    cfg = GeneratorConfig(width=40, height=40, cell_size=25.0)
    raster, dsm = generate_synthetic_scene(cfg, seed=2)
    scene = build_scene(raster, dsm, SceneConfig(user_spacing_m=150.0,
                                                 candidate_pitch_m=300.0,
                                                 near_dist_m=50.0))
    table = build_link_table(scene, PARAMS, True)
    return scene, table


# ---------------------------------------------------------------------------
# Lloyd iterations

def test_lloyd_fixpoint_hand_case():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    cents, assign, wcss = lloyd(pts, np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert np.allclose(cents, [[0.5, 0.0], [10.5, 0.0]])
    assert list(assign) == [0, 0, 1, 1]
    assert wcss[-1] == pytest.approx(1.0)  # four squared offsets of 0.5


def test_lloyd_wcss_non_increasing():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, size=(40, 2))
        k = int(rng.integers(2, 6))
        init = pts[rng.choice(40, size=k, replace=False)]
        _, assign, wcss = lloyd(pts, init)
        assert all(b <= a + 1e-9 for a, b in zip(wcss, wcss[1:])), f"seed {seed}"
        assert assign.shape == (40,)
        assert set(np.unique(assign)) <= set(range(k))


def test_lloyd_reseeds_empty_cluster():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    cents, assign, _ = lloyd(pts, np.array([[0.0, 0.0], [100.0, 0.0]]))
    # the empty cluster lands on the farthest point, so both points get served
    assert sorted(assign) == [0, 1]
    assert np.allclose(sorted(cents[:, 0]), [0.0, 1.0])


# ---------------------------------------------------------------------------
# Snapping

def test_snap_nearest_and_probe():
    cand = np.array([[0.0, 0.0], [5.0, 5.0], [20.0, 20.0]])
    ids = _snap_to_candidates(np.array([[0.1, 0.0], [0.2, 0.0]]), cand)
    assert ids[0] == 0
    assert ids[1] == 1  # nearest is taken, duplicate walks to next-nearest
    assert _snap_to_candidates(np.array([[19.0, 19.0]]), cand) == [2]


def test_snap_requires_enough_candidates():
    cand = np.array([[0.0, 0.0]])
    with pytest.raises(DataError, match="need 2 distinct candidate sites, scene has 1"):
        _snap_to_candidates(np.array([[0.0, 0.0], [1.0, 1.0]]), cand)


# ---------------------------------------------------------------------------
# Iterative k-means placement

def test_kmeans_site_ids_valid(kmeans_scene):
    scene, table = kmeans_scene
    for k in (1, 2, 3):
        ids = kmeans_site_ids(scene.users, k, scene, PARAMS,
                              KmeansConfig(seed=4), table=table)
        assert len(ids) == k
        assert len(set(ids)) == k
        assert all(0 <= i < len(scene.candidates) for i in ids)


def test_kmeans_deterministic(kmeans_scene):
    scene, table = kmeans_scene
    a = kmeans_site_ids(scene.users, 3, scene, PARAMS, KmeansConfig(seed=9), table=table)
    b = kmeans_site_ids(scene.users, 3, scene, PARAMS, KmeansConfig(seed=9), table=table)
    assert a == b


def test_kmeans_table_mismatch_guard(kmeans_scene):
    scene, table = kmeans_scene
    with pytest.raises(DataError, match=r"users must be the scene's user list \(table mismatch\)"):
        kmeans_site_ids(scene.users[:3], 2, scene, PARAMS,
                        KmeansConfig(), table=table)
    with pytest.raises(DataError, match="k must be >= 1"):
        kmeans_site_ids(scene.users, 0, scene, PARAMS, KmeansConfig(), table=table)


def test_kmeans_config_validation():
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        KmeansConfig(seed=-1)


def test_kmeans_config_rejects_non_finite():
    with pytest.raises(DataError, match="sinr_threshold_db must be finite, got nan"):
        KmeansConfig(sinr_threshold_db=float("nan"))


# ---------------------------------------------------------------------------
# Comparison harness

def test_compare_methods_rows(kmeans_scene):
    scene, _ = kmeans_scene
    ga = GaConfig(pop_size=16, generations=20, seed=0)
    rows = compare_methods(scene, PARAMS, [1, 2, 1, 2], ["nsga2", "kmeans", "nsga2"],
                           ga_config=ga)
    # duplicate method names and site counts collapse; rows come out method-major
    assert [(r["method"], r["m"]) for r in rows] == [
        ("nsga2", 1), ("nsga2", 2), ("kmeans", 1), ("kmeans", 2)]
    for r in rows:
        assert 0.0 <= r["pct_users_above_threshold"] <= 100.0
        assert np.isfinite(r["mean_sinr_db"])
        assert len(r["sites"]) >= 1
        assert set(METHODS) >= {r["method"]}


def test_search_and_baselines_never_read_the_db_view(kmeans_scene, monkeypatch):
    # rx_dbm converts the whole table on every read; scoring uses rx_mw
    def read_db_view(table):
        raise AssertionError("LinkGainTable.rx_dbm was read")

    monkeypatch.setattr(LinkGainTable, "rx_dbm", property(read_db_view))
    scene, table = kmeans_scene
    ga = GaConfig(pop_size=8, generations=3, m_max=2, seed=1)
    run_nsga2(scene, PARAMS, ga, table=table)
    run_ga_single_objective(scene, PARAMS, ga, table=table)
    kmeans_site_ids(scene.users, 2, scene, PARAMS, KmeansConfig(seed=1), table=table)
    compare_methods(scene, PARAMS, [1, 2], list(METHODS), ga_config=ga)
    evaluate_sites([0, 1], table, 10.0)


def test_runs_score_only_the_table_they_are_handed(kmeans_scene):
    scene, aware = kmeans_scene
    blind = build_link_table(scene, PARAMS, False)
    ga = GaConfig(pop_size=8, generations=3, m_max=2, seed=1)

    def nsga2(**table):
        return [(ind.sites, ind.objectives.tobytes())
                for ind in run_nsga2(scene, PARAMS, ga, **table)[0]]

    def ga_best(**table):
        return run_ga_single_objective(scene, PARAMS, ga, **table)[0].objectives.tobytes()

    def kmeans(**table):
        # k = 3 at seed 0: a run that the blind table steers elsewhere
        return kmeans_site_ids(scene.users, 3, scene, PARAMS, KmeansConfig(seed=0), **table)

    for run in (nsga2, ga_best, kmeans):
        assert run(table=aware) != run(table=blind), run.__name__
        with pytest.raises(TypeError, match="table"):
            run()


def test_compare_methods_validation(kmeans_scene):
    scene, _ = kmeans_scene
    with pytest.raises(DataError, match=r"unknown methods: \['simulated-annealing'\]"):
        compare_methods(scene, PARAMS, [1], ["simulated-annealing"])
    with pytest.raises(DataError, match="need at least one method and one site count"):
        compare_methods(scene, PARAMS, [], ["nsga2"])


def test_comparison_csv_round_trip(tmp_path):
    rows = [
        {"method": "nsga2", "m": 3, "pct_users_above_threshold": 62.5,
         "mean_sinr_db": 7.125, "sites": [1, 2, 3]},
        {"method": "kmeans", "m": 5, "pct_users_above_threshold": 40.0,
         "mean_sinr_db": -1.0, "sites": [0, 1, 2, 3, 4]},
    ]
    p = tmp_path / "comparison.csv"
    save_comparison_csv(rows, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "method,m,pct_users_above_threshold,mean_sinr_db,sites"
    assert len(lines) == 3
    meth, m, pct, mean, sites = lines[1].split(",")
    assert meth == "nsga2" and int(m) == 3
    assert float(pct) == 62.5 and float(mean) == 7.125
    assert sites == "1;2;3" and lines[2].endswith(",0;1;2;3;4")
