"""Placement baselines: iterative k-means with MUS reseeding, and the
method-comparison harness pitting it against NSGA-II and the plain GA.

The k-means loop clusters users in the ground plane, snaps centroids to
candidate sites, scores the snapped placement by covered users, then
reseeds the centroid of the Most Unserved Sector (the cluster with the
fewest covered users) at that cluster's worst-served user and repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import optimizer as opt
from .config_json import read_config_fields, require_finite
# Scoring goes through LinkGainTable.sinr_for; sinr_from_rx stays importable
# from this module because the benchmark's traced layers wrap it here.
from .radio import LinkGainTable, build_link_table, sinr_from_rx  # noqa: F401


class BaselineError(Exception):
    pass


class EmptyScene(BaselineError):
    pass


METHODS = ("nsga2", "ga", "kmeans")


@dataclass
class KmeansConfig:
    rounds: int = 5
    max_lloyd_iters: int = 100
    seed: int = 0
    sinr_threshold_db: float = 10.0

    def __post_init__(self):
        require_finite(self, BaselineError)
        if self.rounds < 1 or self.max_lloyd_iters < 1:
            raise BaselineError("rounds and max_lloyd_iters must be >= 1")
        if self.seed < 0:
            raise BaselineError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, path) -> "KmeansConfig":
        return cls(**read_config_fields(path, cls, BaselineError))


def lloyd(points: np.ndarray, centroids: np.ndarray, max_iters: int):
    """Plain Lloyd iterations to an assignment fixpoint.

    Empty clusters are reseeded at the point currently farthest from its
    own centroid, which cannot increase the within-cluster sum of squares.
    Returns (centroids, assignments, per-iteration WCSS).
    """
    centroids = centroids.astype(float).copy()
    k = len(centroids)
    assignments = None
    wcss_history = []
    for _ in range(max_iters):
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
        raise EmptyScene(
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


def kmeans_site_ids(users, k: int, scene, params, config: KmeansConfig,
                    use_blockages: bool = True,
                    table: LinkGainTable | None = None) -> list[int]:
    """Candidate-site ids chosen by the iterative k-means (MUS) baseline."""
    if k < 1:
        raise BaselineError("k must be >= 1")
    if not users or not scene.candidates:
        raise EmptyScene("need users and candidate sites")
    if table is None:
        table = build_link_table(scene, params, use_blockages)
    if len(users) != table.rx_dbm.shape[0]:
        raise BaselineError("users must be the scene's user list (table mismatch)")
    points = np.array([u.position[:2] for u in users])
    cand_xy = scene.candidate_positions()[:, :2]
    rng = np.random.default_rng(config.seed)
    if k > len(points):
        raise EmptyScene(f"k={k} exceeds the {len(points)} available users")
    centroids = points[rng.choice(len(points), size=k, replace=False)]

    best_ids: list[int] | None = None
    best_covered = -1
    for _ in range(config.rounds):
        centroids, assignments, _ = lloyd(points, centroids, config.max_lloyd_iters)
        ids = _snap_to_candidates(centroids, cand_xy)
        sinr = table.sinr_for(ids)
        served = sinr > config.sinr_threshold_db
        if int(served.sum()) > best_covered:
            best_covered = int(served.sum())
            best_ids = list(ids)
        # Most Unserved Sector: the cluster with the fewest covered users;
        # its centroid restarts at that cluster's worst-served user.
        covered_per_cluster = np.array(
            [served[assignments == c].sum() for c in range(k)]
        )
        mus = int(np.argmin(covered_per_cluster))
        members = np.where(assignments == mus)[0]
        if len(members) == 0:
            members = np.arange(len(points))
        worst = members[int(np.argmin(sinr[members]))]
        centroids = centroids.copy()
        centroids[mus] = points[worst]
    return best_ids


def compare_methods(scene, params, bs_counts, methods,
                    ga_config: opt.GaConfig | None = None,
                    kmeans_config: KmeansConfig | None = None,
                    use_blockages: bool = True,
                    table: LinkGainTable | None = None) -> list[dict]:
    """Coverage summary rows for each (method, site count) pair.

    NSGA-II runs once with the largest budget and per-m solutions are read
    off its archive; the GA and k-means run once per requested count.
    Repeated methods and counts collapse to their first occurrence.
    """
    methods = list(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise BaselineError(f"unknown methods: {unknown}")
    if not methods or not bs_counts:
        raise BaselineError("need at least one method and one site count")
    bs_counts = list(dict.fromkeys(int(m) for m in bs_counts))
    if ga_config is None:
        ga_config = opt.GaConfig()
    if kmeans_config is None:
        kmeans_config = KmeansConfig(seed=ga_config.seed,
                                     sinr_threshold_db=ga_config.sinr_threshold_db)
    if table is None:
        table = build_link_table(scene, params, use_blockages)
    threshold = ga_config.sinr_threshold_db

    nsga_archive = None
    rows = []
    for method in methods:
        for m in bs_counts:
            if method == "nsga2":
                if nsga_archive is None:
                    cfg = replace(ga_config, m_max=max(bs_counts))
                    nsga_archive, _ = opt.run_nsga2(scene, params, cfg, use_blockages,
                                                    table=table)
                ind = opt.select_best_for_m(nsga_archive, m, allow_fewer=True)
                ids = ind.sites
            elif method == "ga":
                cfg = replace(ga_config, m_max=m)
                best, _ = opt.run_ga_single_objective(scene, params, cfg, use_blockages,
                                                      table=table)
                ids = best.sites
            else:
                ids = kmeans_site_ids(scene.users, m, scene, params, kmeans_config,
                                      use_blockages, table)
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
    with open(path, "w") as f:
        f.write("method,m,pct_users_above_threshold,mean_sinr_db\n")
        for r in rows:
            f.write(f"{r['method']},{r['m']},"
                    f"{r['pct_users_above_threshold']!r},{r['mean_sinr_db']!r}\n")
