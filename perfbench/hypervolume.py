"""Exact hypervolume of a 3-objective minimisation front with integer f2.

The placement objectives are f1 (negated SINR sum over priority users),
f2 (number of new sites, an integer) and f3 (negated covered-user count).
Because f2 only takes integer values, the dominated region splits into unit
slabs along f2: inside the slab k <= z2 < k + 1 it is the 2D region
dominated in (f1, f3) by the points with f2 <= k. The 3D hypervolume is
therefore a sum of 2D staircase areas (Zitzler & Thiele 1999).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def hypervolume_2d(points, ref) -> float:
    """Area dominated by `points` (minimised) and bounded by `ref`."""
    pts = sorted((float(x), float(y)) for x, y in points if x < ref[0] and y < ref[1])
    area = 0.0
    best_y = float(ref[1])
    for x, y in pts:
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


def hypervolume_int_f2(points, ref) -> float:
    """3D hypervolume of `points` against `ref`, where f2 is integer-valued.

    `ref[1]` must be an integer too, so every f2 slab has unit width.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not float(ref[1]).is_integer():
        raise ValueError("the f2 reference must be an integer")
    if np.any(pts[:, 1] != np.round(pts[:, 1])):
        raise ValueError("f2 values must be integers")
    inside = pts[np.all(pts < np.asarray(ref, dtype=float), axis=1)]
    if len(inside) == 0:
        return 0.0
    total = 0.0
    for k in range(int(inside[:, 1].min()), int(ref[1])):
        layer = inside[inside[:, 1] <= k]
        total += hypervolume_2d(layer[:, [0, 2]], (ref[0], ref[2]))
    return total


def hypervolume_inclusion_exclusion(points, ref) -> float:
    """Brute-force oracle: inclusion-exclusion over the points' boxes.

    Exponential in the number of points; for tests on small fronts only.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    ref = np.asarray(ref, dtype=float)
    total = 0.0
    for size in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            corner = np.max(subset, axis=0)
            volume = math.prod(max(0.0, float(r - c)) for r, c in zip(ref, corner))
            total += volume if size % 2 else -volume
    return total
