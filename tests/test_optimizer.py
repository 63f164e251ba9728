import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsplace.optimizer as opt
from bsplace.baselines import KmeansConfig, kmeans_site_ids
from bsplace.config_json import DataError
from bsplace.optimizer import (
    GaConfig,
    Individual,
    chromosome_bits,
    crowding_distance,
    decode_sites,
    dominates,
    evaluate_sites,
    non_dominated_sort,
    repair,
    repair_fixed_m,
    repair_fixed_m_rows,
    repair_rows,
    run_ga_single_objective,
    run_nsga2,
    select_best_for_m,
    site_bits,
)
from bsplace.radio import LinkGainTable, RadioParams, build_link_table, sinr_from_rx
from bsplace.scene import SceneConfig, build_scene
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene

from conftest import Digests, digest_id, table_from_db

PARAMS = RadioParams(tx_power_dbm=33.0)


def toy_scene(seed):
    gen = GeneratorConfig(width=40, height=40, cell_size=25.0)
    raster, dsm = generate_synthetic_scene(gen, seed=seed)
    cfg = SceneConfig(user_spacing_m=200.0, candidate_pitch_m=350.0,
                      near_dist_m=50.0)
    return build_scene(raster, dsm, cfg)


def make_ind(f1, f2, f3, sites=None, rank=0):
    return Individual(bits=np.zeros(1, dtype=bool),
                      objectives=np.array([f1, float(f2), f3]),
                      rank=rank, sites=sites or [])


# ---------------------------------------------------------------------------
# Chromosome encoding and repair

def test_site_bits():
    assert site_bits(1) == 1
    assert site_bits(2) == 1
    assert site_bits(3) == 2
    assert site_bits(8) == 3
    assert site_bits(9) == 4
    assert chromosome_bits(9, 6) == 6 * 5


def test_encode_decode_round_trip():
    for width in (1, 3, 5, 8):
        for idx in range(2 ** width):
            bits = opt._encode_index(idx, width)
            assert opt._decode_index(bits) == idx


def test_decode_sites_slot_order():
    # C=3 (2 site bits), slots of 3 bits: [active, msb, lsb]
    bits = np.array([1, 1, 0,   0, 0, 1,   1, 0, 1], dtype=bool)
    assert decode_sites(bits, 3, 3) == [2, 1]


def test_repair_wraps_and_deduplicates():
    rng = np.random.default_rng(0)
    # C=3: raw index 3 wraps to 0; the second active 0 gets deactivated
    bits = np.array([1, 1, 1,   1, 0, 0,   0, 1, 1], dtype=bool)
    fixed = repair(bits, 3, 3, rng)
    assert decode_sites(fixed, 3, 3) == [0]
    # inactive slot indices are still re-encoded into range
    assert opt._decode_index(fixed[7:9]) == 0


def test_repair_activates_one_when_empty():
    rng = np.random.default_rng(5)
    bits = np.zeros(9, dtype=bool)
    fixed = repair(bits, 3, 3, rng)
    assert len(decode_sites(fixed, 3, 3)) == 1


def test_repair_idempotent_and_valid():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_cand = int(rng.integers(2, 12))
        m_max = int(rng.integers(1, 6))
        bits = rng.random(chromosome_bits(n_cand, m_max)) < 0.5
        once = repair(bits, n_cand, m_max, rng)
        sites = decode_sites(once, n_cand, m_max)
        assert 1 <= len(sites) <= m_max
        assert len(set(sites)) == len(sites)
        assert all(0 <= s < n_cand for s in sites)
        # a repaired chromosome passes through untouched, no rng needed
        state_before = rng.bit_generator.state["state"]["state"]
        twice = repair(once, n_cand, m_max, rng)
        assert np.array_equal(once, twice)
        assert rng.bit_generator.state["state"]["state"] == state_before


def test_repair_fixed_m_probes_upward():
    # C=5 (3 site bits); slots carry 2, 2, 4 -> duplicate 2 probes to 3
    bits = np.concatenate([
        [True], opt._encode_index(2, 3),
        [False], opt._encode_index(2, 3),
        [True], opt._encode_index(4, 3),
    ]).astype(bool)
    fixed = repair_fixed_m(bits, 5, 3)
    assert decode_sites(fixed, 5, 3) == [2, 3, 4]


def test_repair_fixed_m_wraps_probe():
    # C=3, all slots request id 2: probing wraps 2 -> 0 -> 1
    bits = np.concatenate([
        [True], opt._encode_index(2, 2),
        [True], opt._encode_index(2, 2),
        [True], opt._encode_index(2, 2),
    ]).astype(bool)
    fixed = repair_fixed_m(bits, 3, 3)
    assert sorted(decode_sites(fixed, 3, 3)) == [0, 1, 2]
    with pytest.raises(DataError, match="fixed-M repair needs m_max <= candidate count"):
        repair_fixed_m(bits, 2, 3)


def test_repair_fixed_m_property():
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        m_max = int(rng.integers(1, 6))
        n_cand = int(rng.integers(m_max, m_max + 8))
        bits = rng.random(chromosome_bits(n_cand, m_max)) < 0.5
        fixed = repair_fixed_m(bits, n_cand, m_max)
        sites = decode_sites(fixed, n_cand, m_max)
        assert len(sites) == m_max
        assert len(set(sites)) == m_max


@st.composite
def _chromosomes(draw, fixed_m=False):
    """(bits, n_candidates, m_max) with any bit pattern; fixed_m keeps m_max <= C."""
    n_cand = draw(st.integers(1, 40))
    m_max = draw(st.integers(1, min(6, n_cand) if fixed_m else 6))
    bits = draw(st.lists(st.booleans(), min_size=chromosome_bits(n_cand, m_max),
                         max_size=chromosome_bits(n_cand, m_max)))
    return np.array(bits, dtype=bool), n_cand, m_max


@settings(max_examples=200, deadline=None)
@given(chrom=_chromosomes(), seed=st.integers(0, 2 ** 32 - 1))
def test_repair_property_idempotent_without_draws(chrom, seed):
    bits, n_cand, m_max = chrom
    once = repair(bits, n_cand, m_max, np.random.default_rng(seed))
    sites = decode_sites(once, n_cand, m_max)
    assert 1 <= len(sites) <= m_max and len(set(sites)) == len(sites)
    rng = np.random.default_rng(seed + 1)
    state = rng.bit_generator.state
    twice = repair(once, n_cand, m_max, rng)
    assert np.array_equal(twice, once)
    assert rng.bit_generator.state == state


@settings(max_examples=200, deadline=None)
@given(chrom=_chromosomes(fixed_m=True))
def test_repair_fixed_m_property_idempotent(chrom):
    bits, n_cand, m_max = chrom
    once = repair_fixed_m(bits, n_cand, m_max)
    sites = decode_sites(once, n_cand, m_max)
    assert len(sites) == m_max and len(set(sites)) == m_max
    assert all(0 <= s < n_cand for s in sites)
    assert np.array_equal(repair_fixed_m(once, n_cand, m_max), once)


# ---------------------------------------------------------------------------
# Dominance, sorting, crowding

def test_dominates_cases():
    assert dominates([0.0, 0.0], [1.0, 1.0])
    assert dominates([0.0, 1.0], [1.0, 1.0])
    assert not dominates([1.0, 1.0], [1.0, 1.0])
    assert not dominates([0.0, 2.0], [1.0, 1.0])
    assert not dominates([1.0, 1.0], [0.0, 0.0])


def _oracle_fronts(objs):
    """Cubic-time front peeling used as the reference."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(objs[j], objs[i])
                            for j in remaining if j != i)]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def test_non_dominated_sort_hand_case():
    objs = np.array([[0, 0], [1, 1], [0, 1], [1, 0], [2, 2]], dtype=float)
    fronts = non_dominated_sort(objs)
    assert [sorted(f) for f in fronts] == [[0], [2, 3], [1], [4]]


def test_non_dominated_sort_matches_oracle():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # low-cardinality grid forces plenty of ties and duplicates
        objs = rng.integers(0, 4, size=(n, 3)).astype(float)
        got = [sorted(f) for f in non_dominated_sort(objs)]
        assert got == _oracle_fronts(objs), f"seed {seed}"
        assert sorted(i for f in got for i in f) == list(range(n))


def test_front_zero_mutually_non_dominated():
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        objs = rng.normal(size=(25, 3))
        front0 = non_dominated_sort(objs)[0]
        for i, j in itertools.permutations(front0, 2):
            assert not dominates(objs[i], objs[j])


def test_crowding_distance_hand_case():
    objs = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    d = crowding_distance(objs)
    assert np.isinf(d[0]) and np.isinf(d[3])
    assert d[1] == pytest.approx(4.0 / 3.0)
    assert d[2] == pytest.approx(4.0 / 3.0)


def test_crowding_distance_small_fronts_all_inf():
    assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()
    assert np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))).all()


def test_crowding_distance_degenerate_dimension():
    # all points identical: zero span contributes nothing to the middle
    objs = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    d = crowding_distance(objs)
    assert np.isinf(d[0]) and np.isinf(d[2])
    assert d[1] == 0.0


def _oracle_crowding_distance(front_objectives):
    """Crowding distance of one front, one objective at a time."""
    objs = np.asarray(front_objectives, dtype=float)
    if objs.ndim == 1:
        objs = objs[None, :]
    k = len(objs)
    dist = np.zeros(k)
    if k <= 2:
        dist[:] = np.inf
        return dist
    for j in range(objs.shape[1]):
        order = np.argsort(objs[:, j], kind="stable")
        vals = objs[order, j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span > 0:
            gaps = (vals[2:] - vals[:-2]) / span
            inner = order[1:-1]
            finite = np.isfinite(dist[inner])
            dist[inner[finite]] += gaps[finite]
    return dist


def _oracle_crowding(objs, rank):
    """Crowding per front: `_oracle_crowding_distance` on each rank's rows in row order."""
    crowd = np.empty(len(objs))
    for r in np.unique(rank):
        front = np.flatnonzero(rank == r)
        crowd[front] = _oracle_crowding_distance(objs[front])
    return crowd


@st.composite
def _crowding_cases(draw):
    """Objectives on a low-cardinality grid (ties, repeats, zero spans) and
    front labels that make fronts of every size, ones and twos included."""
    n = draw(st.integers(0, 30))
    n_obj = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    objs = rng.integers(0, levels, size=(n, n_obj)) * draw(st.sampled_from([1.0, 0.37, -2.5]))
    if draw(st.booleans()):
        rank = np.empty(n, dtype=int)
        for r, front in enumerate(non_dominated_sort(objs)):
            rank[front] = r
    else:
        rank = rng.integers(0, draw(st.integers(1, 8)), size=n)
    return objs, rank


@settings(max_examples=300, deadline=None)
@given(case=_crowding_cases())
def test_one_pass_crowding_matches_per_front_oracle(case):
    objs, rank = case
    assert opt._crowding(objs, rank).tobytes() == _oracle_crowding(objs, rank).tobytes()
    assert crowding_distance(objs).tobytes() == _oracle_crowding_distance(objs).tobytes()


@st.composite
def _merged_generations(draw):
    """Parents plus children (2 x pop_size rows) on a low-cardinality grid."""
    pop_size = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    objs = rng.integers(0, draw(st.integers(2, 6)), size=(2 * pop_size, 3)).astype(float)
    return objs, pop_size


def _rank_and_crowding(objs):
    """Rank and crowding of every row of `objs` in row order, and the fronts,
    from a full sort: the oracle of `_survivors`."""
    fronts = non_dominated_sort(objs)
    rank = np.empty(len(objs), dtype=int)
    for r, front in enumerate(fronts):
        rank[front] = r
    return rank, opt._crowding(objs, rank), fronts


@settings(max_examples=300, deadline=None)
@given(case=_merged_generations())
def test_survivors_carry_the_rank_and_crowding_of_a_fresh_sort(case):
    objs, pop_size = case
    chosen, rank, crowd, first = opt._survivors(objs, pop_size)
    fronts = non_dominated_sort(objs)
    assert len(chosen) == pop_size and first == fronts[0]
    fresh_rank, fresh_crowd, _ = _rank_and_crowding(objs[chosen])
    assert np.array_equal(rank, fresh_rank)
    assert crowd.tobytes() == fresh_crowd.tobytes()
    assert chosen == _full_sort_survivors(objs, pop_size)[0]


@settings(max_examples=100, deadline=None)
@given(case=_merged_generations())
def test_survivors_of_a_whole_population_rank_it_as_a_fresh_sort(case):
    # generation 0: every row survives, and run_nsga2 scatters the survivors'
    # rank and crowding back to row order
    objs, _ = case
    chosen, rank, crowd, first = opt._survivors(objs, len(objs))
    fresh_rank, fresh_crowd, fronts = _rank_and_crowding(objs)
    assert sorted(chosen) == list(range(len(objs))) and first == fronts[0]
    assert np.array_equal(rank, fresh_rank[chosen])
    assert crowd.tobytes() == fresh_crowd[chosen].tobytes()


def _full_sort_survivors(objs, pop_size):
    """Environmental selection from a rank and crowding of every front."""
    rank, crowd, fronts = _rank_and_crowding(objs)
    chosen, cut = [], 0
    for front in fronts:
        if len(chosen) + len(front) > pop_size:
            cut = pop_size - len(chosen)
            order = np.argsort(-crowd[front], kind="stable")
            chosen += np.asarray(front)[order[:cut]].tolist()
            break
        chosen += front
    rank, crowd = rank[chosen], crowd[chosen]
    if cut:
        crowd[-cut:] = _oracle_crowding_distance(objs[chosen[-cut:]])
    return chosen, rank, crowd, fronts


# Rows listed front by front; the permutation interleaves the fronts in index order.
_LINE_FRONTS = np.array([[0.0, 4.0], [1.0, 2.5], [2.5, 1.0], [4.0, 0.0],  # front 0
                         [1.0, 5.0], [3.0, 3.0], [5.0, 1.0],              # front 1
                         [4.0, 4.5], [5.0, 4.0],                          # front 2
                         [6.0, 6.0], [7.0, 7.0], [8.0, 8.0]])             # fronts 3-5
_INTERLEAVE = np.array([5, 0, 9, 7, 2, 11, 4, 1, 10, 8, 6, 3])


@pytest.mark.parametrize("pop_size, n_peeled", [(7, 2), (3, 1)])
def test_survivors_stop_peeling_at_the_population_size(pop_size, n_peeled):
    # 7: fronts 0 and 1 fill the population exactly, no cut;
    # 3: front 0 alone is larger than the population and is cut
    objs = _LINE_FRONTS[_INTERLEAVE]
    chosen, rank, crowd, first = opt._survivors(objs, pop_size)
    want_chosen, want_rank, want_crowd, fronts = _full_sort_survivors(objs, pop_size)
    assert chosen == want_chosen and first == fronts[0]
    assert rank.tobytes() == want_rank.tobytes()
    assert crowd.tobytes() == want_crowd.tobytes()
    # later fronts are never peeled
    assert len(fronts) == 6
    assert len(opt._peel(opt._dominance(objs)[1], pop_size)) == n_peeled


def test_survivors_crowd_a_cut_front_again():
    # one front of eight points on a line; four survive, the two ends and
    # the first two inner points (all inner gaps tie), now a front of four
    objs = np.column_stack([np.arange(8.0), -np.arange(8.0)])
    chosen, rank, crowd, _ = opt._survivors(objs, 4)
    assert chosen == [0, 7, 1, 2]
    assert np.array_equal(rank, np.zeros(4, dtype=int))
    assert np.isinf(crowd[:2]).all()
    # the carried values would be 2/7 + 2/7 for both
    assert crowd[2:].tolist() == [2 / 7 + 2 / 7, 6 / 7 + 6 / 7]


# ---------------------------------------------------------------------------
# Objectives

def test_evaluate_sites_formula(box_scene_table):
    table, scene = box_scene_table

    for ids in ([0], [1, 2], [0, 1, 2]):
        f = evaluate_sites(ids, table, 10.0)
        sinr = table.sinr_for(sorted(ids))
        assert f[0] == pytest.approx(-float(sinr[table.priority].sum()))
        assert f[1] == float(len(ids))
        assert f[2] == -float((sinr > 10.0).sum())


def test_evaluate_sites_order_invariant(box_scene_table):
    table, _ = box_scene_table
    a = evaluate_sites([2, 0, 1], table, 10.0)
    b = evaluate_sites([0, 1, 2], table, 10.0)
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def box_scene_table():
    from conftest import rect_prism
    from bsplace.scene import CandidateSite, Scene, User

    building = rect_prism(90.0, 90.0, 110.0, 110.0, 0.0, 20.0)
    users = [
        User(position=np.array([30.0, 100.0, 1.5]), priority=True),
        User(position=np.array([100.0, 30.0, 1.5]), priority=False),
        User(position=np.array([170.0, 100.0, 1.5]), priority=False),
        User(position=np.array([100.0, 170.0, 1.5]), priority=True),
    ]
    candidates = [
        CandidateSite(id=0, position=np.array([10.0, 100.0, 15.0])),
        CandidateSite(id=1, position=np.array([100.0, 10.0, 15.0])),
        CandidateSite(id=2, position=np.array([190.0, 190.0, 15.0])),
    ]
    scene = Scene(buildings=[building], users=users,
                  candidates=candidates, fixed_bs=[])
    return build_link_table(scene, PARAMS, True), scene


# ---------------------------------------------------------------------------
# Whole runs

@pytest.fixture(scope="module")
def toy_run():
    scene = toy_scene(1)
    table = build_link_table(scene, PARAMS, True)
    cfg = GaConfig(pop_size=24, generations=60, m_max=3, seed=1)
    archive, history = run_nsga2(scene, PARAMS, cfg, table=table)
    return scene, table, cfg, archive, history


def test_archive_equals_exhaustive_pareto(toy_run):
    scene, table, cfg, archive, _ = toy_run
    C = len(scene.candidates)
    vecs = []
    for m in range(1, cfg.m_max + 1):
        for combo in itertools.combinations(range(C), m):
            vecs.append(tuple(float(x) for x in evaluate_sites(combo, table, 10.0)))
    pareto = {v for v in vecs if not any(dominates(w, v) for w in vecs)}
    got = {tuple(float(x) for x in ind.objectives) for ind in archive}
    assert got <= pareto
    assert len(got & pareto) >= int(np.ceil(0.9 * len(pareto)))


def test_archive_invariants(toy_run):
    scene, table, cfg, archive, _ = toy_run
    assert archive
    for a, b in itertools.permutations(archive, 2):
        assert not dominates(a.objectives, b.objectives)
    for ind in archive:
        assert ind.rank == 0
        assert 1 <= len(ind.sites) <= cfg.m_max
        assert len(ind.sites) == int(ind.objectives[1])
        assert len(set(ind.sites)) == len(ind.sites)
        redone = evaluate_sites(ind.sites, table, 10.0)
        assert np.array_equal(redone, ind.objectives)
    keys = [(ind.objectives[1], ind.objectives[2], ind.objectives[0])
            for ind in archive]
    assert keys == sorted(keys)
    # objective vectors are unique in the archive
    vecs = [tuple(ind.objectives) for ind in archive]
    assert len(set(vecs)) == len(vecs)


def test_history_budget_elitism(toy_run):
    _, _, cfg, archive, history = toy_run
    assert len(history) == cfg.generations + 1
    assert [h["generation"] for h in history] == list(range(cfg.generations + 1))
    for m in range(1, cfg.m_max + 1):
        f1s = [h["per_budget"][m]["f1"] for h in history]
        f3s = [h["per_budget"][m]["f3"] for h in history]
        assert all(b <= a for a, b in zip(f1s, f1s[1:])), f"f1 backtracked at m={m}"
        assert all(b <= a for a, b in zip(f3s, f3s[1:])), f"f3 backtracked at m={m}"
    # the final history row agrees with the returned archive
    last = history[-1]["per_budget"]
    for m in range(1, cfg.m_max + 1):
        within = [ind.objectives for ind in archive if ind.objectives[1] <= m]
        assert last[m]["f3"] == min(float(o[2]) for o in within)
        assert last[m]["f1"] == min(float(o[0]) for o in within)


def test_run_is_deterministic(toy_run):
    scene, table, cfg, archive, history = toy_run
    archive2, history2 = run_nsga2(scene, PARAMS, cfg, table=table)
    assert len(archive) == len(archive2)
    for a, b in zip(archive, archive2):
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.objectives, b.objectives)
    assert history == history2


def test_threads_match_sequential(toy_run):
    scene, _, cfg, archive, history = toy_run
    table8 = build_link_table(scene, PARAMS, True, threads=8)
    archive8, history8 = run_nsga2(scene, PARAMS, cfg, table=table8)
    assert history == history8
    assert [tuple(i.objectives) for i in archive] == [tuple(i.objectives) for i in archive8]


def test_select_best_for_m():
    archive = [
        make_ind(-50.0, 1, -5.0, sites=[0]),
        make_ind(-80.0, 2, -7.0, sites=[0, 1]),
        make_ind(-70.0, 2, -7.0, sites=[0, 2]),
        make_ind(-90.0, 3, -9.0, sites=[0, 1, 2]),
    ]
    best2 = select_best_for_m(archive, 2)
    assert best2.sites == [0, 1]  # ties on f3 break on f1
    with pytest.raises(DataError, match="archive has no solution with 5 sites"):
        select_best_for_m(archive, 5)
    assert select_best_for_m(archive, 5, allow_fewer=True).sites == [0, 1, 2]
    with pytest.raises(DataError, match="archive has no solution with 1 sites"):
        select_best_for_m([], 1, allow_fewer=True)


def test_single_objective_ga(toy_run):
    scene, table, _, _, _ = toy_run
    cfg = GaConfig(pop_size=24, generations=40, m_max=2, seed=3)
    best, history = run_ga_single_objective(scene, PARAMS, cfg, table=table)
    assert len(best.sites) == 2
    assert len(set(best.sites)) == 2
    assert int(best.objectives[1]) == 2
    assert len(history) == cfg.generations + 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    # exhaustive check: the GA should land on the best 2-site coverage here
    C = len(scene.candidates)
    best_f3 = min(evaluate_sites(c, table, 10.0)[2]
                  for c in itertools.combinations(range(C), 2))
    assert best.objectives[2] == best_f3
    assert history[-1] == best_f3


def test_ga_config_validation_and_json(tmp_path):
    with pytest.raises(DataError, match="pop_size must be even and >= 4"):
        GaConfig(pop_size=5)
    with pytest.raises(DataError, match="pop_size must be even and >= 4"):
        GaConfig(pop_size=2)
    with pytest.raises(DataError, match=r"crossover_prob must lie in \[0, 1\], got 1.5"):
        GaConfig(crossover_prob=1.5)
    with pytest.raises(DataError, match=r"mutation_prob_per_bit must lie in \[0, 1\], got -0.1"):
        GaConfig(mutation_prob_per_bit=-0.1)
    with pytest.raises(DataError, match="m_max must be >= 1"):
        GaConfig(m_max=0)
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        GaConfig(seed=-1)
    p = tmp_path / "ga.json"
    p.write_text('{"pop_size": 24, "m_max": 4, "seed": 9}')
    cfg = GaConfig.from_json(p)
    assert cfg.m_max == 4 and cfg.pop_size == 24 and cfg.seed == 9


@pytest.mark.parametrize("doc, bad", [
    ('{"generation": 5}', "generation"),
    ('{"M_max": 4}', "'M_max'"),
    ('[1, 2]', "JSON object"),
])
def test_ga_config_rejects_unknown_key(tmp_path, doc, bad):
    p = tmp_path / "ga.json"
    p.write_text(doc)
    with pytest.raises(DataError, match=bad):
        GaConfig.from_json(p)


@pytest.mark.parametrize("doc, message", [
    ('{"pop_size": "16"}', "'pop_size' must be an integer, got '16'"),
    ('{"generations": 10.5}', "'generations' must be an integer"),
    ('{"m_max": true}', "'m_max' must be an integer"),
    ('{"crossover_prob": "0.9"}', "'crossover_prob' must be a finite number"),
    ('{"mutation_prob_per_bit": [0.1]}', "'mutation_prob_per_bit' must be a finite number or null"),
])
def test_ga_config_rejects_wrong_type(tmp_path, doc, message):
    p = tmp_path / "ga.json"
    p.write_text(doc)
    with pytest.raises(DataError, match=message):
        GaConfig.from_json(p)
    p.write_text('{"mutation_prob_per_bit": null, "crossover_prob": 1}')
    assert GaConfig.from_json(p).crossover_prob == 1


@pytest.mark.parametrize("doc, key", [
    ('{"seed": 1, "seed": 2}', "'seed'"),
    ('{"M_max": 3, "pop_size": 8, "M_max": 4}', "'M_max'"),
], ids=["seed", "alias"])
def test_ga_config_rejects_repeated_key(tmp_path, doc, key):
    p = tmp_path / "ga.json"
    p.write_text(doc)
    with pytest.raises(DataError, match=f"repeated JSON key {key}"):
        GaConfig.from_json(p)


def test_run_nsga2_rejects_empty_candidates(box_scene_table):
    from bsplace.scene import Scene

    table, scene = box_scene_table
    empty = Scene(buildings=[], users=scene.users,
                  candidates=[], fixed_bs=[])
    with pytest.raises(DataError, match="scene has no candidate sites"):
        run_nsga2(empty, PARAMS, GaConfig(pop_size=4, generations=1),
                  table=build_link_table(empty, PARAMS, True))


def test_ga_config_rejects_non_finite(tmp_path):
    for field, value in (("sinr_threshold_db", float("nan")),
                         ("crossover_prob", float("nan")),
                         ("mutation_prob_per_bit", float("inf"))):
        with pytest.raises(DataError, match=f"{field} must be finite"):
            GaConfig(**{field: value})
    p = tmp_path / "ga.json"
    p.write_text('{"sinr_threshold_db": NaN}')
    with pytest.raises(DataError,
                       match="'sinr_threshold_db' must be a finite number, got nan"):
        GaConfig.from_json(p)


# ---------------------------------------------------------------------------
# Batched generation against the per-row code it replaced

def _oracle_decode_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def _oracle_encode_index(idx: int, width: int) -> np.ndarray:
    return np.array([(idx >> (width - 1 - i)) & 1 for i in range(width)], dtype=bool)


def _oracle_repair(bits, n_candidates, m_max, rng):
    bits = bits.copy()
    sb = site_bits(n_candidates)
    seen = set()
    any_active = False
    for slot in range(m_max):
        base = slot * (1 + sb)
        raw = _oracle_decode_index(bits[base + 1:base + 1 + sb])
        idx = raw % n_candidates
        if idx != raw:
            bits[base + 1:base + 1 + sb] = _oracle_encode_index(idx, sb)
        if bits[base]:
            if idx in seen:
                bits[base] = False
            else:
                seen.add(idx)
                any_active = True
    if not any_active:
        slot = int(rng.integers(m_max))
        bits[slot * (1 + sb)] = True
    return bits


def _oracle_repair_fixed_m(bits, n_candidates, m_max):
    bits = bits.copy()
    sb = site_bits(n_candidates)
    seen = set()
    for slot in range(m_max):
        base = slot * (1 + sb)
        bits[base] = True
        idx = _oracle_decode_index(bits[base + 1:base + 1 + sb]) % n_candidates
        while idx in seen:
            idx = (idx + 1) % n_candidates
        seen.add(idx)
        bits[base + 1:base + 1 + sb] = _oracle_encode_index(idx, sb)
    return bits


def _oracle_offspring(pop, parents, config, rng, fix):
    """Crossover and mutation with each child repaired as soon as its pair is drawn."""
    nbits = len(pop[0])
    p_mut = config.mutation_prob_per_bit
    if p_mut is None:
        p_mut = 1.0 / nbits
    children = []
    for i in range(0, len(parents), 2):
        a = pop[parents[i]].copy()
        b = pop[parents[i + 1]].copy()
        if rng.random() < config.crossover_prob:
            mask = rng.random(nbits) < 0.5
            a[mask], b[mask] = b[mask].copy(), a[mask].copy()
        a ^= rng.random(nbits) < p_mut
        b ^= rng.random(nbits) < p_mut
        children.append(fix(a))
        children.append(fix(b))
    return children


def _oracle_merge_archive(archive_objs, archive_bits, new_objs, new_bits):
    """The scalar fold: one new point at a time against every kept point."""
    for obj, bits in zip(new_objs, new_bits):
        tup = tuple(obj)
        if any(dominates(kept, obj) or tuple(kept) == tup for kept in archive_objs):
            continue
        keep_idx = [i for i, kept in enumerate(archive_objs) if not dominates(obj, kept)]
        archive_objs[:] = [archive_objs[i] for i in keep_idx]
        archive_bits[:] = [archive_bits[i] for i in keep_idx]
        archive_objs.append(obj.copy())
        archive_bits.append(bits.copy())


def _oracle_objectives(site_ids, table, threshold):
    sinr = table.sinr_for(sorted(site_ids))
    return np.array([-float(sinr[table.priority].sum()), float(len(site_ids)),
                     -float((sinr > threshold).sum())])


@st.composite
def _populations(draw, fixed_m=False):
    """(rows, n_candidates, m_max): any bits, some rows with every slot inactive."""
    n_cand = draw(st.integers(1, 40))
    m_max = draw(st.integers(1, min(6, n_cand) if fixed_m else 6))
    nbits = chromosome_bits(n_cand, m_max)
    n_rows = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=nbits, max_size=nbits),
                         min_size=n_rows, max_size=n_rows))
    blank = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    pop = np.array(rows, dtype=bool).reshape(n_rows, nbits)
    pop[np.array(blank), ::nbits // m_max] = False
    return pop, n_cand, m_max


@settings(max_examples=200, deadline=None)
@given(pop=_populations(), seed=st.integers(0, 2 ** 32 - 1))
def test_repair_rows_matches_per_row_oracle(pop, seed):
    rows, n_cand, m_max = pop
    rng_oracle = np.random.default_rng(seed)
    expected = np.array([_oracle_repair(r, n_cand, m_max, rng_oracle) for r in rows])
    # repair_rows draws nothing: the switch-on comes first, as the builders do it
    rng = np.random.default_rng(seed)
    switched = rows.copy()
    for row in switched:
        opt._switch_on_if_empty(row, m_max, rng)
    got = repair_rows(switched, n_cand, m_max)[0]
    assert got.dtype == bool and np.array_equal(got, expected)
    assert rng.bit_generator.state == rng_oracle.bit_generator.state
    rng = np.random.default_rng(seed)
    assert np.array_equal(repair(rows[0], n_cand, m_max, rng),
                          _oracle_repair(rows[0], n_cand, m_max, np.random.default_rng(seed)))


@settings(max_examples=100, deadline=None)
@given(n_cand=st.integers(1, 20), m_max=st.integers(1, 4), pairs=st.integers(2, 8),
       p_mut=st.sampled_from([None, 0.05, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_population_builders_leave_no_row_empty(n_cand, m_max, pairs, p_mut, seed):
    # repair_rows never switches a slot on, so both builders must have done it;
    # all-empty parents and rare or near-certain flips make many empty children
    config = GaConfig(pop_size=2 * pairs, m_max=m_max, mutation_prob_per_bit=p_mut)
    nbits = chromosome_bits(n_cand, m_max)
    rng = np.random.default_rng(seed)
    blank = np.zeros((config.pop_size, nbits), dtype=bool)
    parents = rng.integers(0, config.pop_size, size=config.pop_size)
    for rows in (opt._random_population(config, nbits, rng, m_max),
                 opt._offspring(blank, parents, config, rng, m_max)):
        assert rows[:, ::nbits // m_max].any(axis=1).all()


@settings(max_examples=200, deadline=None)
@given(pop=_populations(fixed_m=True))
def test_repair_fixed_m_rows_matches_per_row_oracle(pop):
    rows, n_cand, m_max = pop
    expected = np.array([_oracle_repair_fixed_m(r, n_cand, m_max) for r in rows])
    assert np.array_equal(repair_fixed_m_rows(rows, n_cand, m_max)[0], expected)
    assert np.array_equal(repair_fixed_m(rows[0], n_cand, m_max), expected[0])


def _variation_runs(n_cand, m_max, pairs, p_mut, crossover_prob, fixed_m, seed,
                    generations=3):
    """Block-drawn variation and batch repair against the per-pair oracle, from
    one seed: (batched, oracle) as (populations, RNG states) after generation
    0 and each later one, and the oracle's empty children [(generation, child)]."""
    config = GaConfig(pop_size=2 * pairs, m_max=m_max, crossover_prob=crossover_prob,
                      mutation_prob_per_bit=p_mut, seed=seed)
    nbits = chromosome_bits(n_cand, m_max)
    empties = []

    def run(batched):
        rng = np.random.default_rng(seed)
        if fixed_m:
            def fix(rows):
                return repair_fixed_m_rows(rows, n_cand, m_max)[0]

            def fix_one(bits):
                return _oracle_repair_fixed_m(bits, n_cand, m_max)
        else:
            def fix(rows):
                return repair_rows(rows, n_cand, m_max)[0]

            def fix_one(bits):
                if not bits[::nbits // m_max].any():
                    empties.append((len(pops), len(children)))
                children.append(bits)
                return _oracle_repair(bits, n_cand, m_max, rng)
        switch_on = None if fixed_m else m_max
        pops, states, children = [], [], []
        if batched:
            pop = fix(opt._random_population(config, nbits, rng, switch_on))
        else:
            pop = np.array([fix_one(rng.random(nbits) < 0.5) for _ in range(config.pop_size)])
        for _ in range(generations + 1):
            if pops:
                children.clear()
                parents = rng.integers(0, config.pop_size, size=config.pop_size)
                if batched:
                    pop = fix(opt._offspring(pop, parents, config, rng, switch_on))
                else:
                    pop = np.array(_oracle_offspring(list(pop), parents, config, rng, fix_one))
            pops.append(pop)
            states.append(rng.bit_generator.state)
        return pops, states

    return run(True), run(False), empties


def _assert_same_stream(got, expected):
    for (g, g_state), (e, e_state) in zip(zip(*got), zip(*expected), strict=True):
        assert np.array_equal(g, e)
        assert g_state == e_state


@settings(max_examples=100, deadline=None)
@given(n_cand=st.integers(1, 20), m_max=st.integers(1, 4), pairs=st.integers(2, 8),
       p_mut=st.sampled_from([None, 0.2, 0.6]), crossover_prob=st.sampled_from([0.0, 0.7, 1.0]),
       fixed_m=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_offspring_then_batch_repair_keeps_the_rng_stream(n_cand, m_max, pairs, p_mut,
                                                         crossover_prob, fixed_m, seed):
    m_max = min(m_max, n_cand) if fixed_m else m_max
    got, expected, _ = _variation_runs(n_cand, m_max, pairs, p_mut, crossover_prob,
                                       fixed_m, seed)
    _assert_same_stream(got, expected)


@pytest.mark.parametrize("m_max", [1, 2])
def test_switch_on_mid_block_keeps_the_rng_stream(m_max):
    # active bits flip with probability 0.9, so many children are empty and
    # switch-ons cut blocks mid-way; with one slot the switch-on draws no
    # number (integers(1) is always 0), with two it draws one
    got, expected, empties = _variation_runs(n_cand=5, m_max=m_max, pairs=16, p_mut=0.9,
                                             crossover_prob=0.7, fixed_m=False, seed=11,
                                             generations=4)
    _assert_same_stream(got, expected)
    # generation 1's first block covers all 16 pairs; an empty child of an
    # earlier pair cuts it before its end
    pairs_with_empties = [child // 2 for gen, child in empties if gen == 1]
    assert pairs_with_empties and pairs_with_empties[0] < 15


@pytest.mark.parametrize("p_mut", [None, 0.9])
def test_variation_at_the_search_workload_shape_keeps_the_rng_stream(p_mut):
    # the benchmark's search shape: 25 candidates (5 site bits), m_max 6 and
    # 32 pairs, over 20 generations; at 0.9 switch-ons cut and regrow blocks
    got, expected, empties = _variation_runs(n_cand=25, m_max=6, pairs=32, p_mut=p_mut,
                                             crossover_prob=0.9, fixed_m=False, seed=5,
                                             generations=20)
    _assert_same_stream(got, expected)
    assert len({gen for gen, _ in empties if gen > 0}) >= 5


def _oracle_tournament(rng, rank, crowd, n_picks):
    contestants = rng.integers(0, len(rank), size=(n_picks, 2))
    winners = np.empty(n_picks, dtype=int)
    for i, (a, b) in enumerate(contestants):
        if rank[a] < rank[b]:
            winners[i] = a
        elif rank[b] < rank[a]:
            winners[i] = b
        elif crowd[b] > crowd[a]:
            winners[i] = b
        else:
            winners[i] = a
    return winners


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_tournament_matches_scalar_oracle(n, seed):
    rng = np.random.default_rng(seed)
    rank = rng.integers(0, 3, size=n)
    crowd = rng.choice([0.0, 0.5, 1.0, np.inf], size=n)  # ties everywhere
    got = opt._tournament(np.random.default_rng(seed + 1), rank, crowd, 2 * n)
    assert np.array_equal(got, _oracle_tournament(np.random.default_rng(seed + 1), rank,
                                                  crowd, 2 * n))


@st.composite
def _db_tables(draw):
    """(rx dBm [users, sites, 3], its link table); coarse ones are full of exact rx ties."""
    n_users = draw(st.integers(1, 30))
    n_cand = draw(st.integers(1, 12))
    n_fixed = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rx = rng.normal(-90.0, 20.0, size=(n_users, n_cand + n_fixed, 3))
    if draw(st.booleans()):
        rx = np.round(rx / 6.0) * 6.0
    return rx, table_from_db(rx, rng.random(n_users) < 0.4, n_fixed)


def _tables():
    return _db_tables().map(lambda pair: pair[1])


def _mixed_population(table, m_max, rng, per_count=3):
    """Repaired rows holding every site count 1..min(m_max, C), in random slots and order."""
    n_cand = table.n_candidates
    sb = site_bits(n_cand)
    rows = []
    for k in range(1, min(m_max, n_cand) + 1):
        for _ in range(per_count):
            slots = np.zeros((m_max, 1 + sb), dtype=bool)
            raw = rng.integers(0, n_cand, size=m_max)
            chosen = rng.choice(m_max, size=k, replace=False)
            raw[chosen] = rng.choice(n_cand, size=k, replace=False)
            for slot in range(m_max):
                slots[slot, 0] = slot in chosen
                slots[slot, 1:] = _oracle_encode_index(int(raw[slot]), sb)
            rows.append(slots.ravel())
    return np.array(rows)[rng.permutation(len(rows))]


def evaluate_rows(pop, table, sinr_threshold_db, m_max):
    """Objective rows [rows, 3] of repaired chromosomes, through the batch
    scorer the searches use, with no memo."""
    active, idx = opt._slots(pop, table.n_candidates, m_max)
    return opt._evaluate_keys(opt._keys(active, idx, table.n_candidates), table,
                              sinr_threshold_db)


@settings(max_examples=150, deadline=None)
@given(table=_tables(), m_max=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       threshold=st.sampled_from([-6.0, 0.0, 10.0, 13.7]))
def test_evaluate_rows_matches_single_sets_bytewise(table, m_max, seed, threshold):
    pop = _mixed_population(table, m_max, np.random.default_rng(seed))
    counts = {len(decode_sites(r, table.n_candidates, m_max)) for r in pop}
    assert counts == set(range(1, min(m_max, table.n_candidates) + 1))
    got = evaluate_rows(pop, table, threshold, m_max)
    for row, obj in zip(pop, got):
        ids = decode_sites(row, table.n_candidates, m_max)
        assert obj.tobytes() == _oracle_objectives(ids, table, threshold).tobytes()
        assert obj.tobytes() == evaluate_sites(ids[::-1], table, threshold).tobytes()


@settings(max_examples=150, deadline=None)
@given(db_table=_db_tables(), seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5))
def test_linear_route_sinr_matches_sinr_from_rx_bytewise(db_table, seed, rows):
    rx, table = db_table
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, table.n_candidates + 1))
    ids = np.sort([rng.choice(table.n_candidates, size=k, replace=False)
                   for _ in range(rows)], axis=1)
    columns = np.take(rx, table.columns_for(ids), axis=1)  # [users, rows, k + n_fixed, 3]
    _, want = sinr_from_rx(np.moveaxis(columns, 0, 1).reshape(rows, len(rx), -1),
                           table.noise_dbm)
    assert table.sinr_for(ids).tobytes() == want.tobytes()
    for row, one in zip(ids, want):
        assert table.sinr_for(row).tobytes() == one.tobytes()


@pytest.fixture(scope="module")
def fixed_bs_scene():
    gen = GeneratorConfig(width=40, height=40, cell_size=25.0)
    raster, dsm = generate_synthetic_scene(gen, seed=4)
    cfg = SceneConfig(user_spacing_m=150.0, candidate_pitch_m=250.0, near_dist_m=50.0,
                      fixed_bs=[[250.0, 250.0, 30.0], [750.0, 600.0, 30.0]])
    return build_scene(raster, dsm, cfg)


@pytest.fixture(scope="module")
def fixed_bs_table(fixed_bs_scene):
    return build_link_table(fixed_bs_scene, PARAMS, True)


def test_evaluate_rows_on_scene_tables(toy_run, fixed_bs_table):
    for table in (toy_run[1], fixed_bs_table):
        rng = np.random.default_rng(11)
        pop = _mixed_population(table, 4, rng, per_count=6)
        got = evaluate_rows(pop, table, 10.0, 4)
        for row, obj in zip(pop, got):
            ids = decode_sites(row, table.n_candidates, 4)
            assert obj.tobytes() == _oracle_objectives(ids, table, 10.0).tobytes()
    assert fixed_bs_table.n_fixed == 2


@pytest.mark.parametrize("budget", [1, 700, 5000])
def test_evaluate_rows_chunking_keeps_every_bit(toy_run, fixed_bs_table, monkeypatch, budget):
    scene, toy_table, cfg, archive, history = toy_run
    cases = [(table, _mixed_population(table, 4, np.random.default_rng(5), per_count=9))
             for table in (toy_table, fixed_bs_table)]
    whole = [evaluate_rows(pop, table, 10.0, 4).tobytes() for table, pop in cases]
    monkeypatch.setattr(opt, "_GATHER_ELEMS", budget)
    assert [evaluate_rows(pop, table, 10.0, 4).tobytes() for table, pop in cases] == whole
    chunked_archive, chunked_history = run_nsga2(scene, PARAMS, cfg, table=toy_table)
    assert chunked_history == history
    assert [(a.bits.tobytes(), a.objectives.tobytes()) for a in chunked_archive] == \
        [(a.bits.tobytes(), a.objectives.tobytes()) for a in archive]


_small_objs = st.tuples(st.integers(-3, 0), st.integers(1, 3), st.integers(-3, 0))


@settings(max_examples=200, deadline=None)
@given(chunks=st.lists(st.lists(_small_objs, max_size=10), max_size=8))
def test_merge_archive_matches_sequential_fold(chunks):
    fold_objs, fold_tags = [], []
    objs, tags = np.empty((0, 3)), np.empty((0, 1), dtype=int)
    seen = 0
    for chunk in chunks:
        new_objs = np.array(chunk, dtype=float).reshape(-1, 3)
        new_tags = np.arange(seen, seen + len(chunk)).reshape(-1, 1)  # who came first
        seen += len(chunk)
        _oracle_merge_archive(fold_objs, fold_tags, new_objs, new_tags)
        objs, tags = opt._merge_archive(objs, tags, new_objs, new_tags)
        assert np.array_equal(objs, np.array(fold_objs).reshape(-1, 3))
        assert np.array_equal(tags, np.array(fold_tags, dtype=int).reshape(-1, 1))


# ---------------------------------------------------------------------------
# Kernels against their oracles: the gathered-max signal, one-compare
# dominance and front peeling

@st.composite
def _tied_db_tables(draw):
    """(rx dBm [users, sites, 3], its link table) with heads and sites tied at the max
    and one candidate whose power underflows to 0.0 mW; the fixed BS keep every
    user's signal positive."""
    rx, _ = draw(_db_tables())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_users, n_sites, _ = rx.shape
    n_fixed = draw(st.integers(1, 3))
    rx = np.concatenate([rx, rng.normal(-90.0, 20.0, size=(n_users, n_fixed, 3))], axis=1)
    n_sites += n_fixed
    top = rx.max(axis=(1, 2))
    for _ in range(draw(st.integers(1, 6))):  # the max again on another head and site
        rx[rng.integers(n_users), rng.integers(n_sites), rng.integers(3)] = \
            top[rng.integers(n_users)]
    rx[:, :, 1] = np.where(rng.random((n_users, n_sites)) < 0.3, rx[:, :, 0], rx[:, :, 1])
    if n_sites - n_fixed > 1:
        rx[:, rng.integers(n_sites - n_fixed)] = rx[:, rng.integers(n_sites - n_fixed)]
    rx[:, rng.integers(n_sites - n_fixed)] = -4000.0
    table = table_from_db(rx, rng.random(n_users) < 0.4, n_fixed)
    assert (table.rx_mw == 0.0).any()
    return rx, table


@settings(max_examples=150, deadline=None)
@given(db_table=_tied_db_tables(), seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5))
def test_sinr_for_matches_sinr_from_rx_on_ties_and_underflow(db_table, seed, rows):
    rx, table = db_table
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, table.n_candidates + 1))
    # sorted sets, as the search scores them, and unsorted ones, as k-means does
    for ids in (np.sort([rng.choice(table.n_candidates, size=k, replace=False)
                         for _ in range(rows)], axis=1),
                np.array([rng.permutation(table.n_candidates)[:k] for _ in range(rows)])):
        columns = np.take(rx, table.columns_for(ids), axis=1)  # [users, rows, k + n_fixed, 3]
        _, want = sinr_from_rx(np.moveaxis(columns, 0, 1).reshape(rows, len(rx), -1),
                               table.noise_dbm)
        assert table.sinr_for(ids).tobytes() == want.tobytes()
        for row, one in zip(ids, want):
            assert table.sinr_for(row).tobytes() == one.tobytes()


def test_columns_for_without_fixed_bs_keeps_the_ids():
    table = LinkGainTable(rx_mw=np.ones((4, 2, 3)), priority=np.ones(2, dtype=bool),
                          n_fixed=0, noise_dbm=-95.0)
    ids = np.array([[3, 1], [0, 2]])
    assert table.columns_for(ids) is ids
    assert table.columns_for([2]).tolist() == [2]


@st.composite
def _objective_sets(draw):
    """Objective rows on a coarse grid, with repeated rows and some f1 at +inf."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    objs = rng.integers(-3, 1, size=(n, 3)).astype(float)
    objs[:, 1] += 4.0
    objs[rng.random(n) < 0.2, 0] = np.inf
    if n > 1:
        objs[rng.integers(n, size=n // 3)] = objs[rng.integers(n, size=n // 3)]
    return objs


def _counting_peel(dom, limit):
    """Fronts by dominator counts, the form `_peel` had before: the oracle."""
    n_dominators = dom.sum(axis=0)
    assigned = np.zeros(len(dom), dtype=bool)
    fronts = []
    placed = 0
    while placed < limit:
        current = np.flatnonzero((n_dominators == 0) & ~assigned)
        fronts.append(current)
        assigned[current] = True
        placed += len(current)
        n_dominators = n_dominators - dom[current].sum(axis=0)
    return fronts


@settings(max_examples=200, deadline=None)
@given(objs=_objective_sets())
def test_dominance_matches_pairwise_oracle(objs):
    le, dom = opt._dominance(objs)
    n = len(objs)
    assert le.tolist() == [[bool(np.all(objs[i] <= objs[j])) for j in range(n)]
                           for i in range(n)]
    assert dom.tolist() == [[dominates(objs[i], objs[j]) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(objs=_objective_sets(), cut=st.floats(0.0, 1.0))
def test_peel_matches_counting_peel(objs, cut):
    _, dom = opt._dominance(objs)
    for limit in (len(objs), int(cut * len(objs))):
        got = opt._peel(dom, limit)
        want = _counting_peel(dom, limit)
        assert [f.tolist() for f in got] == [f.tolist() for f in want]


# ---------------------------------------------------------------------------
# The per-run memo: every distinct site set is scored once per run

def _memo_batches(table, m_max, fixed_m, rng, n_batches):
    """Unrepaired batches that repeat site sets: rows of every active count (all in
    the first batch), copies with their slots permuted, and random rows (switched on
    for the NSGA-II repair)."""
    width = 1 + site_bits(table.n_candidates)
    mixed = list(_mixed_population(table, m_max, rng))
    raw = rng.random((8, m_max * width)) < 0.5
    if not fixed_m:
        raw[:, 0] |= ~raw[:, ::width].any(axis=1)
    pool = mixed + list(raw)
    batches = []
    for _ in range(n_batches):
        picks = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 12))]
        if not batches:
            picks += mixed
        picks += [row.reshape(m_max, width)[rng.permutation(m_max)].ravel()
                  for row in picks[:4]]
        batches.append(np.array(picks)[rng.permutation(len(picks))])
        pool += picks
    return batches


def _check_memo_batches(table, m_max, fixed_m, seed, n_batches, threshold):
    n_cand = table.n_candidates
    if fixed_m:
        m_max = min(m_max, n_cand)
    repair = repair_fixed_m_rows if fixed_m else repair_rows
    score = opt._memo_scorer(table, threshold)
    counts = set()
    for batch in _memo_batches(table, m_max, fixed_m, np.random.default_rng(seed), n_batches):
        bits, keys = repair(batch, n_cand, m_max)
        got = score(keys)
        assert got.tobytes() == evaluate_rows(bits, table, threshold, m_max).tobytes()
        counts |= set(got[:, 1].tolist())
    if not fixed_m:
        assert counts == set(range(1, min(m_max, n_cand) + 1))


@settings(max_examples=150, deadline=None)
@given(table=_tables(), m_max=st.integers(1, 6), fixed_m=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), n_batches=st.integers(1, 6),
       threshold=st.sampled_from([-6.0, 0.0, 10.0]))
def test_memo_scorer_equals_evaluate_rows_batch_by_batch(table, m_max, fixed_m, seed,
                                                        n_batches, threshold):
    _check_memo_batches(table, m_max, fixed_m, seed, n_batches, threshold)


@pytest.mark.parametrize("fixed_m", [False, True])
def test_memo_scorer_on_a_fixed_bs_table(fixed_bs_table, fixed_m):
    assert fixed_bs_table.n_fixed == 2
    for seed in range(5):
        _check_memo_batches(fixed_bs_table, 4, fixed_m, seed, 6, 10.0)


def _spy_on_scoring(monkeypatch, repair_name):
    """Record each row `sinr_for` scores and the sorted site set of each repaired row."""
    scored, repaired = [], []
    sinr_for = LinkGainTable.sinr_for
    repair = getattr(opt, repair_name)

    def spy_sinr_for(table, site_ids):
        ids = np.asarray(site_ids)
        scored.extend(tuple(row) for row in ids.reshape(-1, ids.shape[-1]).tolist())
        return sinr_for(table, site_ids)

    def spy_repair(pop, n_candidates, m_max):
        bits, keys = repair(pop, n_candidates, m_max)
        repaired.extend(tuple(sorted(decode_sites(row, n_candidates, m_max))) for row in bits)
        return bits, keys

    monkeypatch.setattr(LinkGainTable, "sinr_for", spy_sinr_for)
    monkeypatch.setattr(opt, repair_name, spy_repair)
    return scored, repaired


@pytest.mark.parametrize("run, repair_name", [(run_nsga2, "repair_rows"),
                                              (run_ga_single_objective, "repair_fixed_m_rows")])
def test_a_run_scores_each_distinct_site_set_once(fixed_bs_scene, fixed_bs_table,
                                                  monkeypatch, run, repair_name):
    cfg = GaConfig(pop_size=24, generations=30, m_max=4, seed=3)
    want = run(fixed_bs_scene, PARAMS, cfg, table=fixed_bs_table)
    scored, repaired = _spy_on_scoring(monkeypatch, repair_name)
    got = run(fixed_bs_scene, PARAMS, cfg, table=fixed_bs_table)
    assert len(repaired) == cfg.pop_size * (cfg.generations + 1)
    assert len(set(repaired)) < len(repaired) / 2  # the memo has repeats to save
    assert Counter(scored) == Counter(set(repaired))  # each distinct set exactly once
    assert _run_digests(want) == _run_digests(got)


def test_runs_share_no_scores_across_tables(toy_run):
    scene, aware, cfg, archive, history = toy_run
    blind = build_link_table(scene, PARAMS, False)
    ga_cfg = GaConfig(pop_size=24, generations=30, m_max=3, seed=2)
    fresh = {}
    for name, table in (("blind", blind), ("aware", aware), ("blind", blind),
                        ("aware", aware)):
        got = (_run_digests(run_nsga2(scene, PARAMS, cfg, table=table)),
               _run_digests(run_ga_single_objective(scene, PARAMS, ga_cfg, table=table)))
        assert fresh.setdefault(name, got) == got
    assert fresh["aware"][0] == _run_digests((archive, history))
    assert fresh["aware"][0] != fresh["blind"][0]


# ---------------------------------------------------------------------------
# Pinned search outputs: sha256 digests of the seeded runs' bytes, so a
# silent change to what the search computes or draws fails by name

def _run_digests(result):
    """Digest of a `run_nsga2` (archive, history) or a `run_ga_single_objective`
    (best, history): every member's bits, objectives, rank, crowding and sites."""
    members, history = result
    h = hashlib.sha256()
    for ind in members if isinstance(members, list) else [members]:
        h.update(ind.bits.tobytes())
        h.update(ind.objectives.tobytes())
        h.update(repr((int(ind.rank), float(ind.crowding), [int(s) for s in ind.sites]))
                 .encode())
    h.update(repr(history).encode())
    return h.hexdigest()


@pytest.mark.parametrize("scene_name, m, seed, nsga2_sha, ga_sha, kmeans_ids", [
    ("toy", 3, 1,
     Digests("5645dc00633fc82bdfb66e54c5f2a92cb42fa4b6c2f529ab6ac4329173197888",
             "5c31501fcc9949db3dfc9f6497965507c4838a29bd748de4bef8bdf5badced60"),
     Digests("42e42246605eda3f3c63b453712a164429fd27aaa000b3233653ddd7793597d6",
             "42e42246605eda3f3c63b453712a164429fd27aaa000b3233653ddd7793597d6"),
     [1, 2, 3]),
    ("fixed_bs", 4, 3,
     Digests("66fc70ce2e87d63a1261d987d59bbbeb5d04c75c80f85f0987abef40a991e01e",
             "66fc70ce2e87d63a1261d987d59bbbeb5d04c75c80f85f0987abef40a991e01e"),
     Digests("8f6d75c6bd0a2a940accd441e2dc82d9c76912dc861100ab94641755b82ea4a0",
             "7cc567086ae392aeb7d71c279ccb148c34a3b37b10ce63043d17418970997adf"),
     [10, 2, 6, 8]),
], ids=digest_id)
def test_search_outputs_are_pinned(request, scene_name, m, seed, nsga2_sha, ga_sha,
                                   kmeans_ids):
    # f1 and the table hold per numpy dispatch mode (log10 rounds its last
    # bit differently under the AVX2 and AVX-512 kernels)
    nsga2, ga, ids = _pinned_searches(request, scene_name, m, seed)
    assert (_run_digests(nsga2), _run_digests(ga), ids) == (nsga2_sha.current(),
                                                            ga_sha.current(), kmeans_ids)


def _pinned_searches(request, scene_name, m, seed):
    """The seeded NSGA-II, GA and k-means runs whose outputs are pinned."""
    if scene_name == "toy":
        scene, table = request.getfixturevalue("toy_run")[:2]
    else:
        scene = request.getfixturevalue("fixed_bs_scene")
        table = request.getfixturevalue("fixed_bs_table")
    nsga2 = run_nsga2(scene, PARAMS, GaConfig(pop_size=24, generations=40, m_max=m,
                                              seed=seed), table=table)
    ga = run_ga_single_objective(scene, PARAMS, GaConfig(pop_size=24, generations=30,
                                                         m_max=m, seed=seed), table=table)
    ids = kmeans_site_ids(scene.users, m, scene, PARAMS, KmeansConfig(seed=seed), table=table)
    return nsga2, ga, ids


@pytest.mark.parametrize("scene_name, m, seed, sets_sha, kmeans_ids", [
    ("toy", 3, 1, "0a667d1e942412203f7f8ada017f3f4c2a5b78b9a037f8535c152283986b7cca", [1, 2, 3]),
    ("fixed_bs", 4, 3, "213caaf8fa9b578966b1ae76a4219d25381b10bb8fd5603ccea6e23718a68d17",
     [10, 2, 6, 8]),
])
def test_search_site_sets_are_pinned_under_any_dispatch(request, scene_name, m, seed,
                                                        sets_sha, kmeans_ids):
    # what the searches choose: every archived and GA-best site list with its
    # f2 and f3, the GA's best-f3 history and the k-means ids. These hold
    # under every numpy dispatch mode (CI runs them with AVX-512 switched off)
    (archive, _), (best, ga_history), ids = _pinned_searches(request, scene_name, m, seed)
    picks = [([int(s) for s in ind.sites], float(ind.objectives[1]), float(ind.objectives[2]))
             for ind in archive + [best]]
    digest = hashlib.sha256(repr((picks, ga_history)).encode()).hexdigest()
    assert (digest, ids) == (sets_sha, kmeans_ids)
