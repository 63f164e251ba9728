"""NSGA-II over binary-encoded base-station configurations.

A chromosome holds M_max slots; each slot is an active bit followed by a
binary candidate-site index. Objectives, all minimized:

  f1 = -(sum of SINR in dB over priority users)
  f2 = number of active new sites
  f3 = -(number of users with SINR above the threshold)

Fixed prior BS radiate (signal and interference) but do not count in f2.
Runs are deterministic for a given seed: one RNG stream, consumed only in
the sequential selection/variation phase.

A generation is held as one bool array [pop, nbits] and each step runs
over all its rows. Generation 0 is drawn row by row; variation
(`_offspring`) draws in blocks, in the order a per-pair loop would draw,
and applies the swaps and flips to all pairs of a block at once. Slots
decode with one matrix product, and repair wraps and deduplicates every
row at once. Repair also hands on each row's key: its active site ids
sorted, then the candidate count in its inactive slots, so a batch is
decoded once.

A run scores through one memo (`_memo_scorer`): each distinct key is
scored once, on the batch it first appears in, and looked up after that.
This is exact because a row's objectives are a function of its sorted
site set and rows are scored independently. The memo is made per run, so
it never spans two tables (a blockage ablation scores one scene on an
aware and then on a blind table). The fresh keys are grouped by
active-site count; each group gathers the link table once and is scored
with `LinkGainTable.sinr_for` (in chunks of at most `_GATHER_ELEMS`
gathered values) into one SINR array, from which the objectives are
formed once. The archive merge is one dominance matrix.
`repair`, `repair_fixed_m`, `decode_sites` and `evaluate_sites` are the
same code on a single row.

Both runs go through one generation loop (`_generations`): a random
first population, then per generation tournaments, variation, repair,
scoring and a survivor rule over the union of parents and children.
NSGA-II's rule is `_survivors`, and it folds each generation's first
front into its archive. The GA keeps the rows of least f3 in a stable
sort (`_best_by_f3`), so its first survivor is the best row seen.

`_survivors` ranks each generation once. Dominance is
one comparison per objective (`_dominance`), and each front is the rows
left that no row left dominates. Fronts are peeled only until they hold
the population, and only those rows are crowded. The survivors are whole
fronts plus part of one cut front, so they keep the rank and crowding of
that pass, and only the cut front's survivors are crowded again.
Crowding runs over all fronts in one pass per objective;
`crowding_distance` is its one-front case.

Objectives are scored only through the `LinkGainTable` a run is handed:
`run_nsga2` and `run_ga_single_objective` take it as a required keyword,
and a run that ignores buildings is handed a blind table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config_json import DataError, check_numbers, read_config_fields, write_json
from .radio import LinkGainTable
# Scoring goes through LinkGainTable.sinr_for; sinr_from_rx stays importable
# from this module because the benchmark's traced layers wrap it here.
from .radio import sinr_from_rx  # noqa: F401


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
        check_numbers(self)
        if self.pop_size < 4 or self.pop_size % 2 != 0:
            raise DataError("pop_size must be even and >= 4")
        if self.generations < 1:
            raise DataError("generations must be >= 1")
        for name in ("crossover_prob", "mutation_prob_per_bit"):
            p = getattr(self, name)
            if p is not None and not 0.0 <= p <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], got {p}")
        if self.m_max < 1:
            raise DataError("m_max must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, path) -> "GaConfig":
        return cls(**read_config_fields(path, cls))


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


def _decode_index(bits) -> np.ndarray:
    """Big-endian integer value of the last axis of `bits`."""
    bits = np.asarray(bits)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _encode_index(idx, width: int) -> np.ndarray:
    """`width` big-endian bits of each index, on a new last axis."""
    return ((np.asarray(idx)[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(bool)


def _slots(pop: np.ndarray, n_candidates: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Active bits [rows, m_max] and site indices wrapped modulo the candidate count."""
    slots = pop.reshape(len(pop), m_max, 1 + site_bits(n_candidates))
    return slots[:, :, 0], _decode_index(slots[:, :, 1:]) % n_candidates


def _encode(active: np.ndarray, idx: np.ndarray, sb: int) -> np.ndarray:
    """Chromosome rows from per-slot active bits and site indices."""
    return np.concatenate([active[:, :, None], _encode_index(idx, sb)],
                          axis=2).reshape(len(active), -1)


def decode_sites(bits: np.ndarray, n_candidates: int, m_max: int) -> list[int]:
    """Active candidate ids in slot order (assumes a repaired chromosome)."""
    active, idx = _slots(np.asarray(bits, dtype=bool)[None], n_candidates, m_max)
    return idx[active].tolist()


def _switch_on_if_empty(bits: np.ndarray, m_max: int, rng: np.random.Generator) -> None:
    """`repair`'s one draw: a chromosome with no active slot gets a random one, in place."""
    step = len(bits) // m_max
    if not bits[::step].any():
        bits[int(rng.integers(m_max)) * step] = True


def _keys(active: np.ndarray, idx: np.ndarray, n_candidates: int) -> np.ndarray:
    """Key rows [rows, m_max]: each row's active site ids sorted, then
    `n_candidates` in its inactive slots. Equal rows are equal site sets."""
    return np.sort(np.where(active, idx, n_candidates), axis=1)


def repair_rows(pop: np.ndarray, n_candidates: int, m_max: int):
    """`repair` applied to every row of `pop` but for its switch-on draw: rows
    are wrapped and deduplicated, and a row with no active slot stays so. The
    population builders have already switched such rows on
    (`_random_population`, `_offspring`).
    Returns the repaired rows and their key rows (`_keys`)."""
    active, idx = _slots(np.asarray(pop, dtype=bool), n_candidates, m_max)
    # slot s repeats an earlier active slot t < s
    earlier = np.tri(m_max, k=-1, dtype=bool)
    dup = ((idx[:, :, None] == idx[:, None, :]) & earlier & active[:, None, :]).any(axis=2)
    active = active & ~dup
    return _encode(active, idx, site_bits(n_candidates)), _keys(active, idx, n_candidates)


def repair(bits: np.ndarray, n_candidates: int, m_max: int,
           rng: np.random.Generator) -> np.ndarray:
    """Make a chromosome valid in place of rejection.

    Out-of-range site indices wrap modulo the candidate count, later
    duplicates of an active site are deactivated, and if nothing is
    active a random slot is switched on. Idempotent: a repaired chromosome
    passes through unchanged and draws no randomness.
    """
    bits = np.array(bits, dtype=bool)
    _switch_on_if_empty(bits, m_max, rng)
    rows, _ = repair_rows(bits[None], n_candidates, m_max)
    return rows[0]


def repair_fixed_m_rows(pop: np.ndarray, n_candidates: int, m_max: int):
    """`repair_fixed_m` applied to every row of `pop`; returns the repaired rows
    and their key rows (`_keys`)."""
    if m_max > n_candidates:
        raise DataError("fixed-M repair needs m_max <= candidate count")
    _, idx = _slots(np.asarray(pop, dtype=bool), n_candidates, m_max)
    rows = np.arange(len(idx))
    seen = np.zeros((len(idx), n_candidates), dtype=bool)
    for slot in idx.T:  # a view: probing writes into idx
        taken = seen[rows, slot]
        while taken.any():
            slot[taken] = (slot[taken] + 1) % n_candidates
            taken = seen[rows, slot]
        seen[rows, slot] = True
    bits = _encode(np.ones(idx.shape, dtype=bool), idx, site_bits(n_candidates))
    return bits, np.sort(idx, axis=1)


def repair_fixed_m(bits: np.ndarray, n_candidates: int, m_max: int) -> np.ndarray:
    """Repair for the single-objective GA: every slot stays active.

    Duplicate sites are resolved by probing upward (modulo the candidate
    count) to the next unused id, so the configuration always has exactly
    m_max distinct sites.
    """
    rows, _ = repair_fixed_m_rows(np.asarray(bits)[None], n_candidates, m_max)
    return rows[0]


# ---------------------------------------------------------------------------
# Objectives

def _objectives(sinr: np.ndarray, n_sites: np.ndarray, table: LinkGainTable,
                sinr_threshold_db: float) -> np.ndarray:
    """Objective rows from SINR rows [rows, users] and each row's site count."""
    # sinr[:, priority] comes out Fortran-ordered; the contiguous copy sums
    # each row in the order a single row would (f1 moves an ulp otherwise)
    f1 = -np.ascontiguousarray(sinr[:, table.priority]).sum(axis=1)
    f3 = -(sinr > sinr_threshold_db).sum(axis=1).astype(float)
    return np.column_stack([f1, n_sites.astype(float), f3])


def evaluate_sites(site_ids, table: LinkGainTable, sinr_threshold_db: float) -> np.ndarray:
    # Sort so the objective is a function of the site set, not of slot
    # order (summation order shifts f1 by an ulp otherwise).
    ids = np.sort(np.array([int(s) for s in site_ids], dtype=int))
    return _objectives(table.sinr_for(ids[None]), np.array([len(ids)]), table,
                       sinr_threshold_db)[0]


# Largest table gather scored in one `sinr_for` call, in elements (512 KiB
# of float64): a batch's temporaries stay cache-sized, and on large tables a
# chunk is a single row, as fast as one big gather and without its memory.
_GATHER_ELEMS = 1 << 16


def _evaluate_keys(keys: np.ndarray, table: LinkGainTable,
                   sinr_threshold_db: float) -> np.ndarray:
    """Objective vectors [rows, 3] of key rows (see `_keys`).

    Rows with the same active-site count share one table gather and SINR
    pass, split into chunks of at most `_GATHER_ELEMS` gathered values (at
    least one row); every group writes its rows of one SINR array, and the
    objectives are formed once over all rows. Rows are scored
    independently, so neither the grouping nor the chunking changes a bit.
    """
    counts = (keys < table.n_candidates).sum(axis=1)
    n_users = len(table.priority)
    sinr = np.empty((len(keys), n_users))
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        ids = keys[rows, :k]
        step = max(1, _GATHER_ELEMS // (n_users * 3 * (k + table.n_fixed)))
        for start in range(0, len(rows), step):
            sinr[rows[start:start + step]] = table.sinr_for(ids[start:start + step])
    return _objectives(sinr, counts, table, sinr_threshold_db)


def _memo_scorer(table: LinkGainTable, sinr_threshold_db: float):
    """One run's scoring: key rows [rows, m_max] to objective rows [rows, 3].

    Each distinct key row is scored once, on the batch it first appears
    in, and looked up after that. This is exact: a key row is a sorted
    site set and `_evaluate_keys` scores rows independently. The memo holds
    one table and threshold, so it lives as long as the run that made it.
    """
    seen: dict[bytes, int] = {}  # key row -> its objective row in `store`
    store = np.empty((0, 3))

    def score(keys: np.ndarray) -> np.ndarray:
        nonlocal store
        keys = np.ascontiguousarray(keys)
        names = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
        fresh = {name: row for row, name in enumerate(names) if name not in seen}
        if fresh:
            seen.update(zip(fresh, range(len(store), len(store) + len(fresh))))
            store = np.concatenate([store, _evaluate_keys(keys[list(fresh.values())], table,
                                                          sinr_threshold_db)])
        return store[[seen[name] for name in names]]

    return score


# ---------------------------------------------------------------------------
# NSGA-II machinery

def dominates(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def _dominance(objs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(le, dom): le[i, j] when row i is <= row j everywhere, dom[i, j] when i dominates j.

    One 2D comparison per objective. Row i dominates row j when it is <= j
    everywhere and j is not <= i everywhere: with no NaN, "not <=" is ">"
    (an infinite f1 compares as any other value), so dom is le & ~le.T.
    """
    le = np.ones((len(objs), len(objs)), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
    return le, le & ~le.T


def _peel(dom: np.ndarray, limit: int) -> list[np.ndarray]:
    """Fronts of the dominance matrix `dom`, best first, each in index order,
    peeled until they hold at least `limit` rows."""
    left = np.ones(len(dom), dtype=bool)
    fronts: list[np.ndarray] = []
    placed = 0
    while placed < limit:
        # the rows left that no row left dominates
        current = np.flatnonzero(left & ~dom[left].any(axis=0))
        fronts.append(current)
        left[current] = False
        placed += len(current)
    return fronts


def non_dominated_sort(objectives) -> list[list[int]]:
    """Fronts of indices, best first, via the pairwise dominance matrix."""
    objs = np.atleast_2d(np.asarray(objectives, dtype=float))
    _, dom = _dominance(objs)
    return [front.tolist() for front in _peel(dom, len(objs))]


def _crowding(objs: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every row within its front (the rows sharing its rank).

    One stable sort per objective orders each front by that objective,
    ties in row order. A front's first and last rows are infinite; each
    inner row adds the gap between its neighbours over the front's span,
    when that span is positive (a row already infinite stays so, as the
    objectives are finite). Fronts of one or two rows are infinite
    throughout.
    """
    dist = np.zeros(len(objs))
    if len(objs) == 0:
        return dist
    # Every per-objective order sorts by rank first, so fronts sit at the
    # same positions in each: their first and last rows and inner rows.
    ranks = np.sort(rank)
    new_front = ranks[1:] != ranks[:-1]
    first = np.concatenate([[True], new_front])
    last = np.concatenate([new_front, [True]])
    inner = np.flatnonzero(~(first | last))
    inner_front = (np.cumsum(first) - 1)[inner]
    for col in objs.T:
        order = np.lexsort((col, rank))
        vals = col[order]
        dist[order[first | last]] = np.inf
        span = (vals[last] - vals[first])[inner_front]
        spread = span > 0
        pos = inner[spread]
        dist[order[pos]] += (vals[pos + 1] - vals[pos - 1]) / span[spread]
    return dist


def crowding_distance(front_objectives) -> np.ndarray:
    """Crowding distance of the rows of one front (`_crowding` with one rank)."""
    objs = np.atleast_2d(np.asarray(front_objectives, dtype=float))
    return _crowding(objs, np.zeros(len(objs), dtype=int))


def _survivors(objs: np.ndarray, pop_size: int):
    """NSGA-II environmental selection of `pop_size` rows of `objs`.

    Whole fronts are kept best first; the front that does not fit keeps
    its most crowded-apart rows (stable on ties). Returns the chosen row
    indices, the survivors' rank and crowding (what a full sort and
    `_crowding` of `objs[chosen]` give), and the first front of `objs`.

    Fronts are peeled only until they hold `pop_size` rows, and only those
    rows are crowded: a front's crowding depends on its own rows alone, and
    each front lists them in index order, as a sort of all fronts does, so
    ties fall the same way and every value is the same.
    """
    _, dom = _dominance(objs)
    fronts = _peel(dom, pop_size)
    chosen = np.concatenate(fronts)
    rank = np.repeat(np.arange(len(fronts)), [len(front) for front in fronts])
    crowd = _crowding(objs[chosen], rank)
    head = len(chosen) - len(fronts[-1])  # rows of the fronts before the last
    if len(chosen) > pop_size:
        # A kept front keeps its rank and its row order, so its crowding holds;
        # the cut front's survivors are a new front in a new order.
        keep = head + np.argsort(-crowd[head:], kind="stable")[:pop_size - head]
        chosen = np.concatenate([chosen[:head], chosen[keep]])
        rank = rank[:pop_size]
        crowd = np.concatenate([crowd[:head], _crowding(objs[chosen[head:]], rank[head:])])
    return chosen.tolist(), rank, crowd, fronts[0].tolist()


def _tournament(rng: np.random.Generator, rank: np.ndarray, crowd: np.ndarray,
                n_picks: int) -> np.ndarray:
    """Binary tournaments: lower rank wins, then larger crowding, then the first drawn."""
    a, b = rng.integers(0, len(rank), size=(n_picks, 2)).T
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


def _random_population(config: GaConfig, nbits: int, rng: np.random.Generator,
                       m_max: int | None = None) -> np.ndarray:
    """Uniform random rows, unrepaired: `nbits` draws per row, then, with
    `m_max`, `repair`'s switch-on draw if the row has no active slot."""
    pop = np.empty((config.pop_size, nbits), dtype=bool)
    for row in pop:
        row[:] = rng.random(nbits) < 0.5
        if m_max is not None:
            _switch_on_if_empty(row, m_max, rng)
    return pop


def _offspring(pop: np.ndarray, parents: np.ndarray, config: GaConfig,
               rng: np.random.Generator, m_max: int | None = None) -> np.ndarray:
    """Uniform crossover and bit-flip mutation over consecutive parent pairs.

    Per pair the draws are: the crossover coin, the swap mask (only when
    crossing), the flip masks of a and of b; then, with `m_max`, `repair`'s
    switch-on draw for a and then for b when that child has no active slot.
    The flip probability defaults to one bit per chromosome.

    The draws come in blocks of `1 + 3 nbits` doubles per pair, the most it
    can use. A scalar walk over the coins places each pair's masks, and the
    swaps and flips apply to the block's pairs at once. The first pair with
    an empty child cuts the block, and the stream is rewound to that pair's
    end for its switch-on draws; the next block covers twice the pairs kept.
    """
    nbits = pop.shape[1]
    p_mut = config.mutation_prob_per_bit
    if p_mut is None:
        p_mut = 1.0 / nbits
    pairs = pop[parents].reshape(-1, 2, nbits)
    children = np.empty_like(pairs)
    cols = np.arange(nbits)
    flip_cols = np.arange(2 * nbits)  # a's flip mask, then b's
    lo, size = 0, len(pairs)
    while lo < len(pairs):
        hi = min(len(pairs), lo + size)
        state = rng.bit_generator.state
        block = rng.random((hi - lo) * (1 + 3 * nbits))
        crossing = []
        flips_at = []
        coin = block.item
        pos = 0
        for _ in range(hi - lo):
            crossing.append(coin(pos) < config.crossover_prob)
            pos += 1 + nbits if crossing[-1] else 1
            flips_at.append(pos)
            pos += 2 * nbits
        flips_at = np.array(flips_at)
        cross = np.array(crossing)
        mates = pairs[lo:hi]
        # swapping a and b where the mask is set flips both where they differ
        diff = np.zeros((hi - lo, nbits), dtype=bool)
        swap = block[(flips_at[cross] - nbits)[:, None] + cols] < 0.5
        diff[cross] = (mates[cross, 0] ^ mates[cross, 1]) & swap
        flips = block[flips_at[:, None] + flip_cols] < p_mut
        kids = mates ^ diff[:, None] ^ flips.reshape(hi - lo, 2, nbits)
        stop = hi
        if m_max is not None:
            empty = np.flatnonzero(~kids[:, :, ::nbits // m_max].any(axis=2).all(axis=1))
            if len(empty):
                stop = lo + empty[0] + 1
        children[lo:stop] = kids[:stop - lo]
        used = flips_at[stop - lo - 1] + 2 * nbits
        if used < len(block):
            rng.bit_generator.state = state
            rng.random(used)
        if m_max is not None:  # draws only for an empty child, so only at a cut
            for child in children[stop - 1]:
                _switch_on_if_empty(child, m_max, rng)
        size = 2 * (stop - lo)
        lo = stop
    return children.reshape(-1, nbits)


def _merge_archive(archive_objs: np.ndarray, archive_bits: np.ndarray,
                   new_objs: np.ndarray, new_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The running archive with new points folded in.

    Keeps the union's non-dominated subset, one entry per distinct
    objective vector (first seen wins), kept entries before new ones, each
    in its own order: what folding the new points in one at a time gives,
    since the archive is itself non-dominated and free of repeats.
    """
    objs = np.vstack([archive_objs, new_objs])
    bits = np.vstack([archive_bits, new_bits])
    le, dom = _dominance(objs)
    repeat = np.triu(le & le.T, k=1).any(axis=0)  # equals an earlier entry
    keep = ~dom.any(axis=0) & ~repeat
    return objs[keep], bits[keep]


def _budget_stats(archive_objs: np.ndarray, m_max: int) -> dict[int, dict[str, float]]:
    """Best f1 and f3 achievable within each site budget m (f2 <= m)."""
    out = {}
    for m in range(1, m_max + 1):
        eligible = archive_objs[archive_objs[:, 1] <= m]
        out[m] = {"f1": min(eligible[:, 0].tolist(), default=math.inf),
                  "f3": min(eligible[:, 2].tolist(), default=math.inf)}
    return out


def _generations(config: GaConfig, table: LinkGainTable, repair, survive,
                 switch_on: int | None = None):
    """One run's generations: yields (rows, objs, first) per generation.

    Generation 0 is `_random_population` (with `repair`'s switch-on draw
    when `switch_on` is the chromosome's `m_max`); each later generation is
    the union of the survivors and their children, made by `_tournament`,
    `_offspring`, `repair` and the run's `_memo_scorer`. `survive(objs,
    pop_size)` picks the rows that live on, their rank and crowding for the
    tournaments, and the rows it ranks first (`first`, indices into `rows`).
    Generation 0 survives whole, with its rank and crowding in row order, so
    its tournaments draw from the rows as drawn.
    """
    rng = np.random.default_rng(config.seed)
    score = _memo_scorer(table, config.sinr_threshold_db)
    n_cand, m_max = table.n_candidates, config.m_max
    pop, keys = repair(_random_population(config, chromosome_bits(n_cand, m_max), rng, switch_on),
                       n_cand, m_max)
    objs = score(keys)
    chosen, ranked, crowded, first = survive(objs, config.pop_size)
    rank, crowd = np.empty_like(ranked), np.empty_like(crowded)
    rank[chosen], crowd[chosen] = ranked, crowded
    yield pop, objs, first
    for _ in range(config.generations):
        parents = _tournament(rng, rank, crowd, config.pop_size)
        children, keys = repair(_offspring(pop, parents, config, rng, switch_on), n_cand, m_max)
        rows = np.vstack([pop, children])
        objs = np.vstack([objs, score(keys)])
        chosen, rank, crowd, first = survive(objs, config.pop_size)
        yield rows, objs, first
        pop, objs = rows[chosen], objs[chosen]


def run_nsga2(scene, params, config: GaConfig, *, table: LinkGainTable):
    """Full NSGA-II run on `table`; returns (archive, history).

    `scene` and `params` are accepted for call compatibility and not read.

    The archive accumulates every non-dominated configuration seen across
    generations (not just the last population), so the per-budget bests in
    `history` never move backwards. Each history entry maps a budget m to
    the best f1/f3 over archived solutions using at most m sites.
    """
    n_cand = table.n_candidates
    if n_cand < 1:
        raise DataError("scene has no candidate sites")
    m_max = config.m_max
    archive_objs = np.empty((0, 3))
    archive_bits = np.empty((0, chromosome_bits(n_cand, m_max)), dtype=bool)
    history = []
    runs = _generations(config, table, repair_rows, _survivors, m_max)
    for gen, (rows, objs, first) in enumerate(runs):
        archive_objs, archive_bits = _merge_archive(archive_objs, archive_bits,
                                                    objs[first], rows[first])
        history.append({"generation": gen, "per_budget": _budget_stats(archive_objs, m_max)})

    crowd = crowding_distance(archive_objs)  # the archive is one front
    archive = [
        Individual(bits=bits, objectives=obj, rank=0, crowding=float(cd),
                   sites=decode_sites(bits, n_cand, m_max))
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
        raise DataError(f"archive has no solution with {m} sites")
    return min(slice_, key=lambda ind: (ind.rank, ind.objectives[2], ind.objectives[0]))


def _best_by_f3(objs: np.ndarray, pop_size: int):
    """The GA's survivor rule: the `pop_size` rows of least f3 in a stable
    sort, so of two tied rows the earlier one stays ahead, and the row it
    ranks first is the best row seen. Their rank is their f3 and their
    crowding 0: a tournament goes to the lower f3, then to the first drawn."""
    chosen = np.argsort(objs[:, 2], kind="stable")[:pop_size]
    return chosen, objs[chosen, 2], np.zeros(len(chosen)), chosen[:1]


def run_ga_single_objective(scene, params, config: GaConfig, *, table: LinkGainTable):
    """Plain elitist GA on `table`, maximizing covered users at a fixed site count.

    Same chromosome layout, variation and generation loop as the
    multi-objective run, but every slot is forced active (exactly m_max
    sites) and the survivors are the rows of least f3 (`_best_by_f3`).
    Returns (best Individual, history of best f3 per generation). `scene`
    and `params` are accepted for call compatibility and not read.
    """
    n_cand = table.n_candidates
    if config.m_max > n_cand:
        raise DataError("m_max exceeds candidate count")
    history = []
    for rows, objs, first in _generations(config, table, repair_fixed_m_rows, _best_by_f3):
        history.append(float(objs[first[0], 2]))
    best = first[0]
    return Individual(bits=rows[best], objectives=objs[best], rank=0, crowding=math.inf,
                      sites=decode_sites(rows[best], n_cand, config.m_max)), history


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


def history_to_dict(history: list[dict]) -> list[dict]:
    """`run_nsga2`'s history with each infinite best (a budget with no archived
    solution) as "inf", as `archive_to_dict` writes an infinite crowding."""
    return [{**h, "per_budget": {m: {k: "inf" if math.isinf(v) else v for k, v in best.items()}
                                 for m, best in h["per_budget"].items()}} for h in history]


def save_archive(archive: list[Individual], n_fixed: int, path):
    write_json(path, archive_to_dict(archive, n_fixed))
