"""NSGA-II over binary-encoded base-station configurations.

A chromosome holds M_max slots; each slot is an active bit followed by a
binary candidate-site index. Objectives, all minimized:

  f1 = -(sum of SINR in dB over priority users)
  f2 = number of active new sites
  f3 = -(number of users with SINR above the threshold)

Fixed prior BS radiate (signal and interference) but do not count in f2.
Runs are deterministic for a given seed: one RNG stream, consumed only in
the sequential selection/variation phase.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .config_json import read_config_fields
from .radio import LinkGainTable, build_link_table, sinr_from_rx


class OptimizerError(Exception):
    pass


class NoSolutionForM(OptimizerError):
    pass


@dataclass
class GaConfig:
    pop_size: int = 40
    generations: int = 100
    crossover_prob: float = 0.9
    mutation_prob_per_bit: float | None = None  # default 1/chromosome_bits
    seed: int = 0
    m_max: int = 6
    sinr_threshold_db: float = 10.0

    def __post_init__(self):
        if self.pop_size < 4 or self.pop_size % 2 != 0:
            raise OptimizerError("pop_size must be even and >= 4")
        if self.generations < 1:
            raise OptimizerError("generations must be >= 1")
        for p in (self.crossover_prob, self.mutation_prob_per_bit):
            if p is not None and not 0.0 <= p <= 1.0:
                raise OptimizerError("probabilities must lie in [0, 1]")
        if self.m_max < 1:
            raise OptimizerError("m_max must be >= 1")

    @classmethod
    def from_json(cls, path) -> "GaConfig":
        return cls(**read_config_fields(path, cls, OptimizerError, {"M_max": "m_max"}))

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


@dataclass
class Individual:
    bits: np.ndarray  # flat bool array, M_max * (1 + site_bits)
    objectives: np.ndarray  # (3,) [f1, f2, f3]
    rank: int = 0
    crowding: float = 0.0
    sites: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Chromosome encoding

def site_bits(n_candidates: int) -> int:
    return max(1, math.ceil(math.log2(n_candidates))) if n_candidates > 1 else 1


def chromosome_bits(n_candidates: int, m_max: int) -> int:
    return m_max * (1 + site_bits(n_candidates))


def _decode_index(bits: np.ndarray) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def _encode_index(idx: int, width: int) -> np.ndarray:
    return np.array([(idx >> (width - 1 - i)) & 1 for i in range(width)], dtype=bool)


def decode_sites(bits: np.ndarray, n_candidates: int, m_max: int) -> list[int]:
    """Active candidate ids in slot order (assumes a repaired chromosome)."""
    sb = site_bits(n_candidates)
    out = []
    for slot in range(m_max):
        base = slot * (1 + sb)
        if bits[base]:
            out.append(_decode_index(bits[base + 1:base + 1 + sb]) % n_candidates)
    return out


def repair(bits: np.ndarray, n_candidates: int, m_max: int,
           rng: np.random.Generator) -> np.ndarray:
    """Make a chromosome valid in place of rejection.

    Out-of-range site indices wrap modulo the candidate count, later
    duplicates of an active site are deactivated, and if nothing remains
    active a random slot is switched on. Idempotent: a repaired chromosome
    passes through unchanged and draws no randomness.
    """
    bits = bits.copy()
    sb = site_bits(n_candidates)
    seen: set[int] = set()
    any_active = False
    for slot in range(m_max):
        base = slot * (1 + sb)
        raw = _decode_index(bits[base + 1:base + 1 + sb])
        idx = raw % n_candidates
        if idx != raw:
            bits[base + 1:base + 1 + sb] = _encode_index(idx, sb)
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


def repair_fixed_m(bits: np.ndarray, n_candidates: int, m_max: int) -> np.ndarray:
    """Repair for the single-objective GA: every slot stays active.

    Duplicate sites are resolved by probing upward (modulo the candidate
    count) to the next unused id, so the configuration always has exactly
    m_max distinct sites.
    """
    if m_max > n_candidates:
        raise OptimizerError("fixed-M repair needs m_max <= candidate count")
    bits = bits.copy()
    sb = site_bits(n_candidates)
    seen: set[int] = set()
    for slot in range(m_max):
        base = slot * (1 + sb)
        bits[base] = True
        idx = _decode_index(bits[base + 1:base + 1 + sb]) % n_candidates
        while idx in seen:
            idx = (idx + 1) % n_candidates
        seen.add(idx)
        bits[base + 1:base + 1 + sb] = _encode_index(idx, sb)
    return bits


# ---------------------------------------------------------------------------
# Objectives

def evaluate_sites(site_ids, table: LinkGainTable, sinr_threshold_db: float) -> np.ndarray:
    # Sort so the objective is a function of the site set, not of slot
    # order (summation order shifts f1 by an ulp otherwise).
    ids = sorted(int(s) for s in site_ids)
    rx = table.rx_for(ids)
    _, sinr = sinr_from_rx(rx, table.noise_dbm)
    f1 = -float(sinr[table.priority].sum())
    f3 = -float((sinr > sinr_threshold_db).sum())
    return np.array([f1, float(len(ids)), f3])


def evaluate(chromosome: np.ndarray, scene, params, use_blockages: bool,
             table: LinkGainTable | None = None,
             sinr_threshold_db: float = 10.0,
             m_max: int | None = None) -> np.ndarray:
    """Objective vector for one repaired chromosome.

    Scores through the link table, a pure array gather; without one it
    builds the scene's table first, so both calls give the same numbers,
    shadowing included.
    """
    if table is None:
        table = build_link_table(scene, params, use_blockages)
    if m_max is None:
        m_max = len(chromosome) // (1 + site_bits(table.n_candidates))
    return evaluate_sites(decode_sites(chromosome, table.n_candidates, m_max), table,
                          sinr_threshold_db)


# ---------------------------------------------------------------------------
# NSGA-II machinery

def dominates(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_sort(objectives) -> list[list[int]]:
    """Fronts of indices, best first, via the pairwise dominance matrix."""
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim == 1:
        objs = objs[None, :]
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    dom = le & lt  # dom[i, j]: i dominates j
    n_dominators = dom.sum(axis=0)
    fronts: list[list[int]] = []
    assigned = np.zeros(len(objs), dtype=bool)
    while not assigned.all():
        current = np.where((n_dominators == 0) & ~assigned)[0]
        fronts.append(current.tolist())
        assigned[current] = True
        n_dominators = n_dominators - dom[current].sum(axis=0)
    return fronts


def crowding_distance(front_objectives) -> np.ndarray:
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


def _rank_and_crowding(objs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    fronts = non_dominated_sort(objs)
    rank = np.empty(len(objs), dtype=int)
    crowd = np.empty(len(objs))
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(objs[front])
    return rank, crowd, fronts


def _tournament(rng: np.random.Generator, rank: np.ndarray, crowd: np.ndarray,
                n_picks: int) -> np.ndarray:
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


def _random_population(config: GaConfig, nbits: int, rng: np.random.Generator,
                       fix) -> list[np.ndarray]:
    return [fix(rng.random(nbits) < 0.5) for _ in range(config.pop_size)]


def _offspring(pop: list[np.ndarray], parents: np.ndarray, config: GaConfig,
               rng: np.random.Generator, fix) -> list[np.ndarray]:
    """Uniform crossover and bit-flip mutation over consecutive parent pairs.

    Per pair the draws are: the crossover coin, the swap mask (only when
    crossing), the flip masks of a and of b; then `fix` repairs a and b.
    The flip probability defaults to one bit per chromosome.
    """
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


def _evaluate_many(chroms, table, threshold, n_candidates, m_max, threads) -> np.ndarray:
    def score(bits):
        return evaluate_sites(decode_sites(bits, n_candidates, m_max), table, threshold)

    if threads > 1 and len(chroms) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(score, chroms)))
    return np.array([score(c) for c in chroms])


def _merge_archive(archive_objs: list[np.ndarray], archive_bits: list[np.ndarray],
                   new_objs: np.ndarray, new_bits) -> None:
    """Fold new non-dominated points into the running archive.

    Keeps the union's non-dominated subset, one entry per distinct
    objective vector (first seen wins).
    """
    for obj, bits in zip(new_objs, new_bits):
        dominated = False
        tup = tuple(obj)
        for kept in archive_objs:
            if dominates(kept, obj) or tuple(kept) == tup:
                dominated = True
                break
        if dominated:
            continue
        keep_idx = [i for i, kept in enumerate(archive_objs) if not dominates(obj, kept)]
        archive_objs[:] = [archive_objs[i] for i in keep_idx]
        archive_bits[:] = [archive_bits[i] for i in keep_idx]
        archive_objs.append(obj.copy())
        archive_bits.append(bits.copy())


def _budget_stats(archive_objs: list[np.ndarray], m_max: int) -> dict[int, dict[str, float]]:
    """Best f1 and f3 achievable within each site budget m (f2 <= m)."""
    out = {}
    for m in range(1, m_max + 1):
        eligible = [o for o in archive_objs if o[1] <= m]
        if eligible:
            out[m] = {
                "f1": min(float(o[0]) for o in eligible),
                "f3": min(float(o[2]) for o in eligible),
            }
        else:
            out[m] = {"f1": math.inf, "f3": math.inf}
    return out


def run_nsga2(scene, params, config: GaConfig, use_blockages: bool = True,
              table: LinkGainTable | None = None, threads: int = 1):
    """Full NSGA-II run; returns (archive, history).

    The archive accumulates every non-dominated configuration seen across
    generations (not just the last population), so the per-budget bests in
    `history` never move backwards. Each history entry maps a budget m to
    the best f1/f3 over archived solutions using at most m sites.
    """
    if table is None:
        table = build_link_table(scene, params, use_blockages)
    n_cand = table.n_candidates
    if n_cand < 1:
        raise OptimizerError("scene has no candidate sites")
    rng = np.random.default_rng(config.seed)

    def fix(bits):
        return repair(bits, n_cand, config.m_max, rng)

    pop = _random_population(config, chromosome_bits(n_cand, config.m_max), rng, fix)
    objs = _evaluate_many(pop, table, config.sinr_threshold_db, n_cand, config.m_max, threads)

    archive_objs: list[np.ndarray] = []
    archive_bits: list[np.ndarray] = []
    first_front = non_dominated_sort(objs)[0]
    _merge_archive(archive_objs, archive_bits, objs[first_front],
                   [pop[i] for i in first_front])

    history = [{"generation": 0, "per_budget": _budget_stats(archive_objs, config.m_max)}]

    for gen in range(1, config.generations + 1):
        rank, crowd, _ = _rank_and_crowding(objs)
        parents = _tournament(rng, rank, crowd, config.pop_size)
        children = _offspring(pop, parents, config, rng, fix)
        child_objs = _evaluate_many(children, table, config.sinr_threshold_db,
                                    n_cand, config.m_max, threads)

        combined = pop + children
        combined_objs = np.vstack([objs, child_objs])
        c_rank, c_crowd, c_fronts = _rank_and_crowding(combined_objs)

        _merge_archive(archive_objs, archive_bits, combined_objs[c_fronts[0]],
                       [combined[i] for i in c_fronts[0]])

        chosen: list[int] = []
        for front in c_fronts:
            if len(chosen) + len(front) <= config.pop_size:
                chosen.extend(front)
            else:
                need = config.pop_size - len(chosen)
                front_arr = np.asarray(front)
                order = np.argsort(-c_crowd[front_arr], kind="stable")
                chosen.extend(front_arr[order[:need]].tolist())
                break
        pop = [combined[i] for i in chosen]
        objs = combined_objs[chosen]

        history.append({"generation": gen,
                        "per_budget": _budget_stats(archive_objs, config.m_max)})

    arch_objs = np.array(archive_objs)
    _, crowd, _ = _rank_and_crowding(arch_objs)
    archive = [
        Individual(bits=bits, objectives=obj, rank=0, crowding=float(cd),
                   sites=decode_sites(bits, n_cand, config.m_max))
        for bits, obj, cd in zip(archive_bits, archive_objs, crowd)
    ]
    archive.sort(key=lambda ind: (ind.objectives[1], ind.objectives[2], ind.objectives[0]))
    return archive, history


def select_best_for_m(archive: list[Individual], m: int,
                      allow_fewer: bool = False) -> Individual:
    """Pick the archived solution deploying exactly m sites.

    Rank first, then most users covered (lowest f3), then best f1. With
    allow_fewer, an empty m-slice falls back to the best solution within
    budget (f2 <= m) instead of raising.
    """
    slice_ = [ind for ind in archive if int(ind.objectives[1]) == m]
    if not slice_ and allow_fewer:
        slice_ = [ind for ind in archive if ind.objectives[1] <= m]
    if not slice_:
        raise NoSolutionForM(f"archive has no solution with {m} sites")
    return min(slice_, key=lambda ind: (ind.rank, ind.objectives[2], ind.objectives[0]))


def run_ga_single_objective(scene, params, config: GaConfig, use_blockages: bool = True,
                            table: LinkGainTable | None = None, threads: int = 1):
    """Plain elitist GA maximizing covered users at a fixed site count.

    Same chromosome layout and variation operators as the multi-objective
    run, but every slot is forced active (exactly m_max sites) and fitness
    is the covered-user count alone. Returns (best Individual, history of
    best f3 per generation).
    """
    if table is None:
        table = build_link_table(scene, params, use_blockages)
    n_cand = table.n_candidates
    if config.m_max > n_cand:
        raise OptimizerError("m_max exceeds candidate count")
    rng = np.random.default_rng(config.seed)

    def fix(bits):
        return repair_fixed_m(bits, n_cand, config.m_max)

    pop = _random_population(config, chromosome_bits(n_cand, config.m_max), rng, fix)
    objs = _evaluate_many(pop, table, config.sinr_threshold_db, n_cand, config.m_max, threads)
    fitness = objs[:, 2]  # minimize f3

    best_idx = int(np.argmin(fitness))
    best_bits = pop[best_idx].copy()
    best_obj = objs[best_idx].copy()
    history = [float(fitness[best_idx])]

    for _ in range(config.generations):
        contestants = rng.integers(0, config.pop_size, size=(config.pop_size, 2))
        parents = np.where(fitness[contestants[:, 0]] <= fitness[contestants[:, 1]],
                           contestants[:, 0], contestants[:, 1])
        children = _offspring(pop, parents, config, rng, fix)
        child_objs = _evaluate_many(children, table, config.sinr_threshold_db,
                                    n_cand, config.m_max, threads)

        all_bits = pop + children
        all_objs = np.vstack([objs, child_objs])
        all_fit = all_objs[:, 2]
        order = np.argsort(all_fit, kind="stable")[:config.pop_size]
        pop = [all_bits[i] for i in order]
        objs = all_objs[order]
        fitness = objs[:, 2]

        if fitness[0] < best_obj[2]:
            best_bits = pop[0].copy()
            best_obj = objs[0].copy()
        history.append(float(best_obj[2]))

    best = Individual(bits=best_bits, objectives=best_obj, rank=0, crowding=math.inf,
                      sites=decode_sites(best_bits, n_cand, config.m_max))
    return best, history


# ---------------------------------------------------------------------------
# Archive serialization

def archive_to_dict(archive: list[Individual], n_fixed: int) -> list[dict]:
    return [
        {
            "sites": [int(s) for s in ind.sites],
            "fixed_bs_count": int(n_fixed),
            "objectives": {
                "f1": float(ind.objectives[0]),
                "f2": float(ind.objectives[1]),
                "f3": float(ind.objectives[2]),
            },
            "rank": int(ind.rank),
            "crowding": "inf" if math.isinf(ind.crowding) else float(ind.crowding),
        }
        for ind in archive
    ]


def save_archive(archive: list[Individual], n_fixed: int, path):
    with open(path, "w") as f:
        json.dump(archive_to_dict(archive, n_fixed), f, indent=2, sort_keys=True)
        f.write("\n")
