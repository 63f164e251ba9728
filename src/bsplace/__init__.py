"""Base-station placement over 2.5D urban scenes.

Pipeline: semantic class raster + DSM -> scene (buildings, users, candidate
sites) -> LTE downlink SINR with line-of-sight blockage -> multi-objective
placement search (NSGA-II) with k-means and single-objective GA baselines.
"""

__version__ = "0.1.0"
