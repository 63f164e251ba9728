"""Base-station placement over 2.5D urban scenes.

Pipeline: semantic class raster + DSM -> scene (buildings, users, candidate
sites) -> LTE downlink SINR with line-of-sight blockage -> multi-objective
placement search (NSGA-II) with k-means and single-objective GA baselines.
"""

__version__ = "0.1.0"

from .baselines import KmeansConfig, compare_methods
from .eval_report import (CoverageCurve, GeneratorConfig, ThroughputCdf, coverage_curve,
                          generate_synthetic_scene, throughput_cdf)
from .geometry import Segment3, los_blocked, los_mask
from .optimizer import (GaConfig, Individual, run_ga_single_objective, run_nsga2,
                        select_best_for_m)
from .radio import (BsSector, LinkGainTable, RadioParams, attach_and_evaluate,
                    build_link_table, build_sectors, link_budget, pathloss_db,
                    sinr_db, throughput_mbps)
from .scene import (BuildingPrism, CandidateSite, CellClass, ClassRaster, Dsm, Scene,
                    SceneConfig, User, build_scene, extract_buildings, load_dsm,
                    load_raster, load_scene, place_candidates, place_users, save_dsm,
                    save_raster, save_scene)

__all__ = [
    "BsSector", "BuildingPrism", "CandidateSite", "CellClass", "ClassRaster",
    "CoverageCurve", "Dsm", "GaConfig", "GeneratorConfig", "Individual",
    "KmeansConfig", "LinkGainTable", "RadioParams", "Scene", "SceneConfig",
    "Segment3", "ThroughputCdf", "User",
    "attach_and_evaluate", "build_link_table", "build_scene", "build_sectors",
    "compare_methods", "coverage_curve", "extract_buildings",
    "generate_synthetic_scene", "link_budget", "load_dsm",
    "load_raster", "load_scene", "los_blocked", "los_mask", "pathloss_db",
    "place_candidates", "place_users", "run_ga_single_objective", "run_nsga2",
    "save_dsm", "save_raster", "save_scene", "select_best_for_m",
    "sinr_db", "throughput_cdf", "throughput_mbps",
]
