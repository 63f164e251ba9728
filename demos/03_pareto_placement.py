"""Multi-objective site search: how many masts buy how much coverage.

Runs the NSGA-II placement on the scene from demo 01 (rebuilt here so the
script is standalone) and prints the archived Pareto front. Three numbers
per solution: priority SINR sum (f1, lower is better since it is negated),
number of new sites (f2), covered users (negated as f3). The full archive
goes to out/pareto_archive.json.
"""

import os

from bsplace.eval_report import (
    GeneratorConfig,
    coverage_curve,
    generate_synthetic_scene,
    save_coverage_csv,
)
from bsplace.optimizer import GaConfig, run_nsga2, save_archive, select_best_for_m
from bsplace.radio import RadioParams, build_link_table
from bsplace.scene import SceneConfig, build_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

gen = GeneratorConfig(width=80, height=80, cell_size=25.0)
raster, dsm = generate_synthetic_scene(gen, seed=7)
scene = build_scene(raster, dsm, SceneConfig(user_spacing_m=150.0,
                                             candidate_pitch_m=500.0,
                                             near_dist_m=50.0))
params = RadioParams(tx_power_dbm=33.0)  # small cells
table = build_link_table(scene, params, use_blockages=True)

ga = GaConfig(pop_size=32, generations=80, m_max=4, seed=7)
archive, history = run_nsga2(scene, params, ga, table=table)
save_archive(archive, table.n_fixed, os.path.join(OUT, "pareto_archive.json"))

print(f"{len(scene.users)} users, {len(scene.candidates)} candidates, "
      f"archive holds {len(archive)} non-dominated configurations")
print(f"{'m':>2} {'covered':>8} {'priority f1':>12}  sites")
for ind in archive:
    f1, f2, f3 = ind.objectives
    print(f"{int(f2):>2} {-int(f3):>8} {f1:>12.1f}  {ind.sites}")

# The budget view: the best covered count at each site budget, straight
# from the per-generation history (final row equals the archive).
final = history[-1]["per_budget"]
print("best covered by budget:",
      {m: -int(s["f3"]) for m, s in final.items() if s["f3"] != float("inf")})

# Dump the coverage curve for the 3-site pick; plot with anything.
best3 = select_best_for_m(archive, 3, allow_fewer=True)
sinr = table.sinr_for(best3.sites)
path = os.path.join(OUT, "coverage_m3.csv")
save_coverage_csv(coverage_curve(sinr), path)
print(f"3-site pick {best3.sites}: {-int(best3.objectives[2])} covered, "
      f"curve in {os.path.relpath(path)}")
