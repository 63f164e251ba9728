"""Three placement methods on one dense downtown tile.

compare_methods runs NSGA-II once (its archive answers every budget),
then the iterative k-means baseline and the fixed-size single-objective
GA per budget, all judged on the same blockage-aware link table.
"""

import os

from bsplace.baselines import compare_methods, save_comparison_csv
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.optimizer import GaConfig
from bsplace.radio import RadioParams
from bsplace.scene import SceneConfig, build_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# Tall tight blocks with rooftop-level masts: blockage decides everything,
# so methods that see the walls should win.
gen = GeneratorConfig(width=120, height=120, cell_size=25.0,
                      building_density=0.45,
                      building_height_range=(18.0, 35.0),
                      road_period=40, road_width=4)
cfg = SceneConfig(user_spacing_m=200.0, candidate_pitch_m=600.0,
                  near_dist_m=50.0, mast_height_m=12.0)
raster, dsm = generate_synthetic_scene(gen, seed=4)
scene = build_scene(raster, dsm, cfg)
params = RadioParams(tx_power_dbm=33.0)
print(f"{len(scene.users)} users, {len(scene.candidates)} candidates, "
      f"{len(scene.buildings)} buildings")

rows = compare_methods(
    scene, params,
    methods=["nsga2", "kmeans", "ga"],
    bs_counts=[3, 4, 5],
    ga_config=GaConfig(pop_size=48, generations=100, m_max=5, seed=4),
)

print(f"{'method':>8} {'m':>2} {'above 10 dB':>12} {'mean SINR':>10}")
for row in rows:
    print(f"{row['method']:>8} {row['m']:>2} {row['pct_users_above_threshold']:>11.1f}% "
          f"{row['mean_sinr_db']:>9.2f}")

path = os.path.join(OUT, "comparison.csv")
save_comparison_csv(rows, path)
print("saved", os.path.relpath(path))
