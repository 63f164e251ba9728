"""Densify around masts that are already on air.

Three fixed base stations serve a 5 km tile badly. The optimizer only
controls the NEW sites; the fixed ones always transmit (and interfere).
Watch covered users climb and outage fall as one then two sites go in.
The full NSGA-II archive goes to out/prior_archive.json.
"""

import os

from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.optimizer import GaConfig, run_nsga2, save_archive, select_best_for_m
from bsplace.radio import SINR_FLOOR_DB, RadioParams, build_link_table
from bsplace.scene import SceneConfig, build_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

FIXED = [[1250.0, 1250.0, 35.0], [3750.0, 1250.0, 35.0], [2500.0, 3750.0, 35.0]]

gen = GeneratorConfig(width=200, height=200, cell_size=25.0)
cfg = SceneConfig(user_spacing_m=250.0, candidate_pitch_m=1000.0,
                  near_dist_m=50.0, fixed_bs=FIXED)
raster, dsm = generate_synthetic_scene(gen, seed=2)
scene = build_scene(raster, dsm, cfg)
params = RadioParams(tx_power_dbm=33.0)
table = build_link_table(scene, params, use_blockages=True)
print(f"{len(scene.users)} users, {len(scene.candidates)} candidate sites, "
      f"{table.n_fixed} fixed BS")


def score(site_ids):
    sinr = table.sinr_for(site_ids)
    covered = int((sinr > 10.0).sum())
    outage = float((sinr < SINR_FLOOR_DB).mean())
    return covered, outage


archive, _ = run_nsga2(scene, params,
                       GaConfig(pop_size=64, generations=150, m_max=2, seed=2),
                       table=table)
save_archive(archive, table.n_fixed, os.path.join(OUT, "prior_archive.json"))

rows = [("fixed only", [])]
for m in (1, 2):
    ind = select_best_for_m(archive, m, allow_fewer=True)
    rows.append((f"fixed + {m} new", ind.sites))

print(f"{'deployment':>14} {'covered':>8} {'outage':>7}  new sites")
for name, ids in rows:
    covered, outage = score(ids)
    print(f"{name:>14} {covered:>8} {outage:>6.1%}  {ids}")
