"""Placement baselines: iterative k-means with MUS reseeding, and the
method-comparison harness pitting it against NSGA-II and the plain GA.
`run_method` is the one runner of all three, which the comparison and the
CLI's `optimize` share. Every method scores only on the link table it is
handed; `compare_methods` builds one table and hands it to each method.

The k-means loop clusters users in the ground plane, snaps centroids to
candidate sites, scores the snapped placement by covered users, then
reseeds the centroid of the Most Unserved Sector (the cluster with the
fewest covered users) at that cluster's worst-served user and repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import optimizer as opt
from .config_json import DataError, require_finite
from .eval_report import write_csv
from .radio import LinkGainTable, build_link_table
# Scoring goes through LinkGainTable.sinr_for; sinr_from_rx stays importable
# from this module because the benchmark's traced layers wrap it here.
from .radio import sinr_from_rx  # noqa: F401


METHODS = ("nsga2", "ga", "kmeans")

KMEANS_ROUNDS = 5  # MUS reseeding rounds
MAX_LLOYD_ITERS = 100  # Lloyd iterations per round


@dataclass
class KmeansConfig:
    seed: int = 0
    sinr_threshold_db: float = 10.0

    def __post_init__(self):
        require_finite(self)
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def lloyd(points: np.ndarray, centroids: np.ndarray):
    """Plain Lloyd iterations to an assignment fixpoint, at most MAX_LLOYD_ITERS.

    Empty clusters are reseeded at the point currently farthest from its
    own centroid, which cannot increase the within-cluster sum of squares.
    Returns (centroids, assignments, per-iteration WCSS).
    """
    centroids = centroids.astype(float).copy()
    k = len(centroids)
    assignments = None
    wcss_history = []
    for _ in range(MAX_LLOYD_ITERS):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        wcss_history.append(float(d2[np.arange(len(points)), new_assign].sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                own_d = d2[np.arange(len(points)), assignments]
                centroids[c] = points[int(np.argmax(own_d))]
    return centroids, assignments, wcss_history


def _snap_to_candidates(centroids: np.ndarray, cand_xy: np.ndarray) -> list[int]:
    """Nearest candidate per centroid; duplicates take the next-nearest free one."""
    if len(cand_xy) < len(centroids):
        raise DataError(
            f"need {len(centroids)} distinct candidate sites, scene has {len(cand_xy)}"
        )
    used: set[int] = set()
    ids = []
    for c in centroids:
        order = np.argsort(((cand_xy - c) ** 2).sum(axis=1), kind="stable")
        pick = next(int(i) for i in order if int(i) not in used)
        used.add(pick)
        ids.append(pick)
    return ids


def kmeans_site_ids(users, k: int, scene, params, config: KmeansConfig, *,
                    table: LinkGainTable) -> list[int]:
    """Candidate-site ids chosen by the iterative k-means (MUS) baseline,
    scored on `table`. `scene` gives the candidate positions; `params` is
    accepted for call compatibility and not read."""
    if k < 1:
        raise DataError("k must be >= 1")
    if not users or not scene.candidates:
        raise DataError("need users and candidate sites")
    if len(users) != len(table.priority):
        raise DataError("users must be the scene's user list (table mismatch)")
    points = np.array([u.position[:2] for u in users])
    cand_xy = scene.candidate_positions()[:, :2]
    rng = np.random.default_rng(config.seed)
    if k > len(points):
        raise DataError(f"k={k} exceeds the {len(points)} available users")
    centroids = points[rng.choice(len(points), size=k, replace=False)]

    best_ids: list[int] | None = None
    best_covered = -1
    for _ in range(KMEANS_ROUNDS):
        centroids, assignments, _ = lloyd(points, centroids)
        ids = _snap_to_candidates(centroids, cand_xy)
        sinr = table.sinr_for(ids)
        served = sinr > config.sinr_threshold_db
        if int(served.sum()) > best_covered:
            best_covered = int(served.sum())
            best_ids = list(ids)
        # Most Unserved Sector: the cluster with the fewest covered users;
        # its centroid restarts at that cluster's worst-served user.
        mus = int(np.argmin(np.bincount(assignments, weights=served, minlength=k)))
        members = np.where(assignments == mus)[0]
        if len(members) == 0:
            members = np.arange(len(points))
        worst = members[int(np.argmin(sinr[members]))]
        centroids = centroids.copy()
        centroids[mus] = points[worst]
    return best_ids


def run_method(method: str, m: int, scene, params, ga_config: opt.GaConfig,
               table: LinkGainTable):
    """Run one placement method with site budget `m` on the scene's link table.

    `m` is NSGA-II's and the GA's `m_max` and k-means' `k`; the GA and
    k-means take the GA config's seed and SINR threshold. Returns
    (archive, history): the archive is a list of `Individual` (NSGA-II's
    non-dominated set, or the GA's best or k-means' placement alone), the
    history is in its JSON form (empty for k-means).
    """
    if method == "nsga2":
        archive, history = opt.run_nsga2(scene, params, replace(ga_config, m_max=m),
                                         table=table)
        return archive, opt.history_to_dict(history)
    if method == "ga":
        best, history = opt.run_ga_single_objective(scene, params,
                                                    replace(ga_config, m_max=m), table=table)
        return [best], history
    kmeans_config = KmeansConfig(seed=ga_config.seed,
                                 sinr_threshold_db=ga_config.sinr_threshold_db)
    ids = kmeans_site_ids(scene.users, m, scene, params, kmeans_config, table=table)
    objectives = opt.evaluate_sites(ids, table, ga_config.sinr_threshold_db)
    return [opt.Individual(bits=np.zeros(0, dtype=bool), objectives=objectives, rank=0,
                           crowding=float("inf"), sites=list(ids))], []


def compare_methods(scene, params, bs_counts, methods,
                    ga_config: opt.GaConfig | None = None,
                    use_blockages: bool = True) -> list[dict]:
    """Coverage summary rows for each (method, site count) pair.

    NSGA-II runs once with the largest budget and per-m solutions are read
    off its archive; the GA and k-means run once per requested count.
    k-means takes the GA config's seed and SINR threshold, so every method
    is judged and steered by one threshold. Repeated methods and counts
    collapse to their first occurrence.
    """
    methods = list(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DataError(f"unknown methods: {unknown}")
    if not methods or not bs_counts:
        raise DataError("need at least one method and one site count")
    bs_counts = list(dict.fromkeys(int(m) for m in bs_counts))
    if ga_config is None:
        ga_config = opt.GaConfig()
    table = build_link_table(scene, params, use_blockages)
    threshold = ga_config.sinr_threshold_db

    archives = {}
    rows = []
    for method in methods:
        for m in bs_counts:
            # NSGA-II's one archive holds a best for every budget up to its m_max
            budget = max(bs_counts) if method == "nsga2" else m
            if (method, budget) not in archives:
                archives[method, budget], _ = run_method(method, budget, scene, params,
                                                         ga_config, table)
            ids = opt.select_best_for_m(archives[method, budget], m, allow_fewer=True).sites
            sinr = table.sinr_for(ids)
            rows.append({
                "method": method,
                "m": m,
                "pct_users_above_threshold": 100.0 * float((sinr > threshold).mean()),
                "mean_sinr_db": float(sinr.mean()),
                "sites": [int(i) for i in ids],
            })
    return rows


def save_comparison_csv(rows: list[dict], path):
    """The rows' summary columns, then `sites`: each row's site ids joined by
    `;`, as a comma would split the field."""
    columns = ("method", "m", "pct_users_above_threshold", "mean_sinr_db")
    write_csv(path, ",".join(columns) + ",sites",
              [[r[c] for c in columns] + [";".join(map(str, r["sites"]))] for r in rows])
