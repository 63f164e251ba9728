"""Build a 2.5D scene from a class raster and a surface model.

Walks the whole ingest path once: generate a synthetic tile, extract the
building prisms, drop users on walkable ground and candidate masts on the
street/roof lattice, then save the scene to JSON for the later demos.
"""

import os

import numpy as np

from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.scene import SceneConfig, build_scene, save_scene

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# A 2 km x 2 km tile at 25 m cells. The generator draws rectangular blocks
# on a road grid, so the raster looks like a planned district rather than
# white noise.
gen = GeneratorConfig(width=80, height=80, cell_size=25.0)
raster, dsm = generate_synthetic_scene(gen, seed=7)
print(f"raster {raster.width}x{raster.height} cells, {raster.cell_size} m each")

counts = {int(code): int((raster.classes == code).sum()) for code in np.unique(raster.classes)}
print("class histogram:", counts)

# Users every 150 m on walkable cells, candidate masts every 500 m.
cfg = SceneConfig(user_spacing_m=150.0, candidate_pitch_m=500.0, near_dist_m=50.0)
scene = build_scene(raster, dsm, cfg)

print(f"{len(scene.buildings)} building prisms")
tallest = max(scene.buildings, key=lambda b: b.top_elev - b.base_elev)
print(f"tallest: {tallest.top_elev - tallest.base_elev:.1f} m over "
      f"{len(tallest.footprint)} footprint corners")

prio = sum(1 for u in scene.users if u.priority)
print(f"{len(scene.users)} users ({prio} priority), {len(scene.candidates)} candidate sites")

path = os.path.join(OUT, "scene.json")
save_scene(scene, path)
print("saved", os.path.relpath(path))
