"""One link at a time: pathloss, sector pattern, blockage, SINR.

No optimizer here. A hand-built block with a single 20 m building shows
how the pieces of the downlink budget combine, and what a wall in the
Fresnel-free 2.5D world does to the received power.
"""

import numpy as np

from bsplace.radio import (
    RadioParams,
    antenna_attenuation_db,
    build_sectors,
    link_budget,
    pathloss_db,
    thermal_noise_dbm,
)
from bsplace.scene import BuildingPrism, CandidateSite, Scene, User

params = RadioParams()
print(f"tx {params.tx_power_dbm} dBm, gain {params.antenna_gain_dbi} dBi, "
      f"noise floor {thermal_noise_dbm(params):.1f} dBm")

# Pathloss doubles-and-then-some per distance decade.
for d in (100.0, 250.0, 500.0, 1000.0, 2000.0):
    print(f"  pathloss({d:6.0f} m) = {pathloss_db(d, params):6.2f} dB")

# The sector pattern: 3 dB down at half the beamwidth, floored at 20 dB.
for ang in (0.0, 32.5, 65.0, 120.0, 180.0):
    print(f"  attenuation({ang:5.1f} deg) = {antenna_attenuation_db(ang, params):5.2f} dB")

# A 20 m slab between the mast and the far user.
wall = BuildingPrism(footprint=np.array([[90.0, 40.0], [110.0, 40.0],
                                         [110.0, 160.0], [90.0, 160.0]]),
                     base_elev=0.0, top_elev=20.0)
scene = Scene(buildings=[wall],
              users=[User(np.array([60.0, 100.0, 1.5]), True),
                     User(np.array([180.0, 100.0, 1.5]), False)],
              candidates=[CandidateSite(0, np.array([10.0, 100.0, 15.0]))],
              fixed_bs=[])

sectors = build_sectors(scene.candidates[0].position, params)
for user, name in zip(scene.users, ("near, clear", "far, behind wall")):
    budgets = [link_budget(user, s, scene, params, True) for s in sectors]
    best = max(budgets, key=lambda b: b.rx_power_dbm)
    print(f"{name}: rx {best.rx_power_dbm:7.2f} dBm, los={best.los}")

# Same pair through the link table the search scores with, now as SINR.
# Note the near user ends up WORSE than the far one: the two idle sectors
# on its own mast leak (20 dB down but from point-blank range) and
# dominate its interference.
from bsplace.radio import build_link_table

table = build_link_table(scene, params, use_blockages=True)
sinr = table.sinr_for([0])
for user, s in zip(("near", "far"), sinr):
    print(f"SINR {user}: {s:6.2f} dB")
