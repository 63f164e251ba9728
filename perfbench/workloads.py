"""The four benchmark workloads.

Each workload has an untimed `setup(seed, workdir)` that makes its inputs
from the seed, and `units(state)`: the timed section as a list of calls into
the package's public entry points, timed one by one (one per tile, or one
per search run). `check(state, result)` compares the list of unit results
with the scalar oracles the package ships (one bool per checked item), and
`sizes(state, result)` gives exact input sizes and result counts.

A workload spans several tiles where one tile's cost varies too much from
seed to seed: every tile is a separate seeded scene.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from bsplace import baselines, cli, eval_report, optimizer, radio, scene
from bsplace.eval_report import GeneratorConfig
from bsplace.radio import RadioParams
from bsplace.scene import SceneConfig

from hypervolume import hypervolume_int_f2

RX_TOL_DB = 1e-6  # vector and scalar radio routes differ only by summation order


def tile_seed(seed: int, tile: int) -> int:
    return int(np.random.SeedSequence([seed, tile]).generate_state(1)[0])


def _quiet(fn, *args):
    """Run `fn` with its stdout discarded (the CLI prints a summary line)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _scene_equal(a, b) -> bool:
    return (
        len(a.buildings) == len(b.buildings)
        and all(np.array_equal(p.footprint, q.footprint) and p.base_elev == q.base_elev
                and p.top_elev == q.top_elev for p, q in zip(a.buildings, b.buildings))
        and len(a.users) == len(b.users)
        and all(np.array_equal(u.position, v.position) and u.priority == v.priority
                for u, v in zip(a.users, b.users))
        and len(a.candidates) == len(b.candidates)
        and all(c.id == d.id and np.array_equal(c.position, d.position)
                for c, d in zip(a.candidates, b.candidates))
        and len(a.fixed_bs) == len(b.fixed_bs)
        and all(np.array_equal(p, q) for p, q in zip(a.fixed_bs, b.fixed_bs))
    )


def _scene_sizes(cells: int, scenes, pairs_per_scene) -> dict:
    return {
        "cells": cells,
        "prisms": sum(len(s.buildings) for s in scenes),
        "users": sum(len(s.users) for s in scenes),
        "candidates": sum(len(s.candidates) for s in scenes),
        "pairs": sum(pairs_per_scene(s) for s in scenes),
    }


class Ingest:
    """`bsplace build-scene` on ESRI grids written in setup."""

    tiles = 2
    size = 300

    def setup(self, seed, workdir: Path):
        state = []
        for k in range(self.tiles):
            raster, dsm = eval_report.generate_synthetic_scene(
                GeneratorConfig(width=self.size, height=self.size), tile_seed(seed, k))
            tile = workdir / f"tile{k}"
            tile.mkdir(parents=True, exist_ok=True)
            scene.save_raster(raster, tile / "raster.asc")
            scene.save_dsm(dsm, tile / "dsm.asc")
            state.append((tile, raster, dsm))
        return state

    def units(self, state):
        return [functools.partial(_quiet, cli.main, [
                    "build-scene", str(tile / "raster.asc"), str(tile / "dsm.asc"),
                    "--out", str(tile / "out")])
                for tile, _, _ in state]

    def check(self, state, result):
        ok = [rc == 0 for rc in result]
        for tile, raster, dsm in state:
            built = scene.build_scene(raster, dsm, SceneConfig())
            saved = scene.load_scene(tile / "out" / "scene.json")
            scene.save_scene(saved, tile / "roundtrip.json")
            again = scene.load_scene(tile / "roundtrip.json")
            ok.append(_scene_equal(built, saved) and _scene_equal(saved, again))
            ok += [raster.label_at(*u.position[:2]) in scene.USER_CLASSES for u in saved.users]
            _, n_components = ndimage.label(raster.classes == scene.CellClass.BUILDING,
                                            structure=ndimage.generate_binary_structure(2, 1))
            ok.append(len(saved.buildings) == n_components)
        return ok

    def sizes(self, state, result):
        scenes = [scene.load_scene(tile / "out" / "scene.json") for tile, _, _ in state]
        return _scene_sizes(self.tiles * self.size ** 2, scenes, lambda s: 0)


class LinkTable:
    """`radio.build_link_table` with blockages on prebuilt scenes."""

    tiles = 8
    size = 100
    pitch_m = 25.0
    sample_pairs = 30

    def setup(self, seed, workdir: Path):
        scenes = []
        for k in range(self.tiles):
            raster, dsm = eval_report.generate_synthetic_scene(
                GeneratorConfig(width=self.size, height=self.size), tile_seed(seed, k))
            scenes.append(scene.build_scene(raster, dsm,
                                            SceneConfig(candidate_pitch_m=self.pitch_m)))
        return {"scenes": scenes, "seed": seed}

    def units(self, state, threads=1):
        return [functools.partial(radio.build_link_table, s, RadioParams(),
                                  use_blockages=True, threads=threads)
                for s in state["scenes"]]

    def check(self, state, result):
        params = RadioParams()
        rng = np.random.default_rng(state["seed"])
        ok = []
        for s, table in zip(state["scenes"], result):
            for _ in range(self.sample_pairs):
                u = int(rng.integers(len(s.users)))
                c = int(rng.integers(len(s.candidates)))
                sectors = radio.build_sectors(s.candidates[c].position, params)
                ref = [radio.link_budget(s.users[u], sec, s, params, True).rx_power_dbm
                       for sec in sectors]
                ok.append(bool(np.allclose(table.rx_dbm[u, c], ref, rtol=0.0, atol=RX_TOL_DB)))
        return ok

    def sizes(self, state, result):
        return _scene_sizes(self.tiles * self.size ** 2, state["scenes"],
                            lambda s: len(s.users) * len(s.candidates))


# Hypervolume reference point in the normalised objective space
# (f1 / priority users, f2, f3 / users): a mean priority SINR of -10 dB
# (the outage floor), one site more than the budget, and zero coverage.
HV_M_MAX = 6
HV_REF = (10.0, HV_M_MAX + 1.0, 0.0)


def front_hv(archive, table) -> float:
    n_priority = int(table.priority.sum())
    n_users = len(table.priority)
    objs = np.array([ind.objectives for ind in archive]) / [n_priority, 1.0, n_users]
    return hypervolume_int_f2(objs, HV_REF)


class Search:
    """NSGA-II, the fixed-size GA and k-means on a prebuilt link table."""

    gen = dict(width=80, height=80, cell_size=25.0, building_density=0.45,
               building_height_range=(18.0, 35.0), road_period=40, road_width=4)
    scene_cfg = dict(user_spacing_m=200.0, candidate_pitch_m=400.0,
                     near_dist_m=50.0, mast_height_m=12.0)
    params = RadioParams(tx_power_dbm=33.0)
    nsga2 = dict(pop_size=64, generations=100, m_max=HV_M_MAX)
    ga = dict(pop_size=32, generations=40)
    budgets = (3, 4, 5, 6)

    def setup(self, seed, workdir: Path):
        raster, dsm = eval_report.generate_synthetic_scene(GeneratorConfig(**self.gen), seed)
        s = scene.build_scene(raster, dsm, SceneConfig(**self.scene_cfg))
        table = radio.build_link_table(s, self.params, use_blockages=True, threads=1)
        return {"scene": s, "table": table, "seed": seed}

    def units(self, state):
        """NSGA-II first, then one unit per budget: (GA result, k-means site ids)."""
        s, table, seed = state["scene"], state["table"], state["seed"]

        def nsga2():
            return optimizer.run_nsga2(
                s, self.params, optimizer.GaConfig(**self.nsga2, seed=seed), table=table)

        def baselines_at(m):
            cfg = optimizer.GaConfig(**self.ga, m_max=m, seed=seed)
            return (optimizer.run_ga_single_objective(s, self.params, cfg, table=table),
                    baselines.kmeans_site_ids(s.users, m, s, self.params,
                                              baselines.KmeansConfig(seed=seed), table=table))

        return [nsga2] + [functools.partial(baselines_at, m) for m in self.budgets]

    def check(self, state, result):
        table = state["table"]
        threshold = optimizer.GaConfig().sinr_threshold_db
        archive = result[0][0]
        ok = []
        for ind in archive:
            ok.append(not any(optimizer.dominates(other.objectives, ind.objectives)
                              for other in archive if other is not ind))
            fresh = optimizer.evaluate_sites(ind.sites, table, threshold)
            ok.append(bool(np.array_equal(fresh, ind.objectives)))
            ok.append(ind.objectives[1] == len(set(ind.sites)) == len(ind.sites))
        for m, ((best, _), ids) in zip(self.budgets, result[1:]):
            fresh = optimizer.evaluate_sites(best.sites, table, threshold)
            ok.append(bool(np.array_equal(fresh, best.objectives)) and len(set(best.sites)) == m)
            ok.append(len(set(ids)) == m)
        return ok

    def sizes(self, state, result):
        out = _scene_sizes(self.gen["width"] * self.gen["height"], [state["scene"]],
                           lambda s: len(s.users) * len(s.candidates))
        (archive, history), ga = result[0], [g for g, _ in result[1:]]
        out["archive_size"] = len(archive)
        out["generations"] = len(history) - 1 + sum(len(h) - 1 for _, h in ga)
        out["front_hv"] = front_hv(archive, state["table"])
        return out


class Evaluate:
    """`bsplace evaluate --placement` with seeded off-lattice masts."""

    tiles = 6
    size = 140
    masts = 5
    mast_height_m = 25.0
    sample_users = 10

    def setup(self, seed, workdir: Path):
        rng = np.random.default_rng(seed)
        state = []
        for k in range(self.tiles):
            raster, dsm = eval_report.generate_synthetic_scene(
                GeneratorConfig(width=self.size, height=self.size), tile_seed(seed, k))
            s = scene.build_scene(raster, dsm, SceneConfig())
            tile = workdir / f"tile{k}"
            tile.mkdir(parents=True, exist_ok=True)
            scene.save_scene(s, tile / "scene.json")
            extent = self.size * raster.cell_size
            positions = []
            for x, y in rng.uniform(0.0, extent, size=(self.masts, 2)):
                positions.append([float(x), float(y),
                                  dsm.bilinear(x, y) + self.mast_height_m])
            with open(tile / "placement.json", "w") as f:
                json.dump({"positions": positions}, f)
            state.append((tile, s, positions))
        return {"tiles": state, "seed": seed}

    def units(self, state):
        return [functools.partial(_quiet, cli.main, [
                    "evaluate", str(tile / "scene.json"), "--placement",
                    str(tile / "placement.json"), "--out", str(tile / "out")])
                for tile, _, _ in state["tiles"]]

    def check(self, state, result):
        params = RadioParams()
        rng = np.random.default_rng(state["seed"])
        ok = [rc == 0 for rc in result]
        for tile, s, positions in state["tiles"]:
            sectors = radio.sectors_for_sites([np.array(p) for p in positions], params)
            serving, sinr = radio.attach_and_evaluate(s.users, sectors, s, params, True)
            curve = eval_report.coverage_curve(sinr)
            written = np.loadtxt(tile / "out" / "coverage_eval.csv", delimiter=",", skiprows=1)
            ok.append(bool(np.array_equal(written[:, 1], curve.prob)))
            for u in rng.choice(len(s.users), size=self.sample_users, replace=False):
                ref = radio.sinr_db(s.users[u], int(serving[u]), sectors, s, params, True)
                ok.append(math.isclose(ref, float(sinr[u]), rel_tol=0.0, abs_tol=RX_TOL_DB))
        return ok

    def sizes(self, state, result):
        scenes = [s for _, s, _ in state["tiles"]]
        return _scene_sizes(self.tiles * self.size ** 2, scenes,
                            lambda s: len(s.users) * self.masts)


WORKLOADS = {"ingest": Ingest(), "linktable": LinkTable(), "search": Search(),
             "evaluate": Evaluate()}
