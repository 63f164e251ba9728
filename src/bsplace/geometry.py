"""2.5D line-of-sight tests between antennas and users through building prisms.

All polygons are numpy arrays of shape (n, 2) holding an open ring (the last
vertex is not repeated). Heights are handled by linear interpolation along the
segment; prisms block only below their roof elevation.

Where a point lies relative to a footprint outline is answered for many
points at once by one routine, `_outline`: the squared distance to the
nearest edge and the even-odd parity. `los_mask` takes its inside test from
it and `outline_distance` (which `scene.place_users` calls for
near-building priority) its distance. The scalar `point_in_polygon`,
`point_to_polygon_distance` and `los_blocked` do the same arithmetic one
point at a time and are kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance on interval parameters; ties break toward line of sight.
EPS = 1e-9


@dataclass(frozen=True)
class Segment3:
    """Directed 3D segment from a to b, in meters."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("segment endpoints must be 3D points")
        if np.array_equal(a, b):
            raise ValueError("degenerate segment: endpoints coincide")


def point_in_polygon(p, poly) -> bool:
    """Even-odd containment test; points on the boundary count as inside."""
    p = np.asarray(p, dtype=float)
    poly = np.asarray(poly, dtype=float)
    x1 = poly[:, 0]
    y1 = poly[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)

    if _min_dist_to_edges_sq(p, poly) <= EPS * EPS:
        return True

    # Half-open crossing rule keeps vertices from double-counting.
    crosses = (y1 > p[1]) != (y2 > p[1])
    if not crosses.any():
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (p[1] - y1) * (x2 - x1) / (y2 - y1)
    return bool(np.count_nonzero(p[0] < xint[crosses]) % 2)


def _min_dist_to_edges_sq(p, poly) -> float:
    """Squared distance from point p to the closest polygon edge."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    d = b - a
    len2 = (d * d).sum(axis=1)
    len2 = np.where(len2 == 0.0, 1.0, len2)
    t = np.clip(((p - a) * d).sum(axis=1) / len2, 0.0, 1.0)
    closest = a + t[:, None] * d
    diff = closest - p
    return float((diff * diff).sum(axis=1).min())


def point_to_polygon_distance(p, poly) -> float:
    """Distance from a 2D point to a polygon outline (0 inside or on it)."""
    p = np.asarray(p, dtype=float)
    poly = np.asarray(poly, dtype=float)
    d = np.sqrt(_min_dist_to_edges_sq(p, poly))
    if point_in_polygon(p, poly):
        return 0.0
    return d


def outline_distance(px, py, poly) -> np.ndarray:
    """point_to_polygon_distance over arrays of points (px, py), with its arithmetic.

    Distance from each point to the outline of poly: 0 inside or on it.
    """
    d2, odd = _outline(np.asarray(px, dtype=float), np.asarray(py, dtype=float),
                       _Edges(np.asarray(poly, dtype=float)))
    return np.where((d2 <= EPS * EPS) | odd, 0.0, np.sqrt(d2))


def segment_polygon_interval(a, b, poly) -> list[tuple[float, float]]:
    """Maximal parameter intervals of segment a->b lying inside or on poly.

    Returns sorted, disjoint (t0, t1) pairs with t1 - t0 > EPS. Zero-measure
    touches (vertex grazing) are dropped.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    poly = np.asarray(poly, dtype=float)
    d = b - a
    if abs(d[0]) <= EPS and abs(d[1]) <= EPS:
        # degenerate projection (e.g. a mast right above the user): the
        # whole segment shares one 2D point
        return [(0.0, 1.0)] if point_in_polygon(a, poly) else []

    ts = [0.0, 1.0]
    e0 = poly
    e1 = np.roll(poly, -1, axis=0)
    for i in range(len(poly)):
        ts.extend(_seg_edge_params(a, d, e0[i], e1[i]))

    ts = sorted(t for t in ts if -EPS <= t <= 1.0 + EPS)
    # Deduplicate parameter values within tolerance.
    uniq = [min(max(ts[0], 0.0), 1.0)]
    for t in ts[1:]:
        t = min(max(t, 0.0), 1.0)
        if t - uniq[-1] > EPS:
            uniq.append(t)

    intervals: list[tuple[float, float]] = []
    for lo, hi in zip(uniq[:-1], uniq[1:]):
        mid = a + 0.5 * (lo + hi) * d
        if point_in_polygon(mid, poly):
            if intervals and lo - intervals[-1][1] <= EPS:
                intervals[-1] = (intervals[-1][0], hi)
            else:
                intervals.append((lo, hi))
    return [(lo, hi) for lo, hi in intervals if hi - lo > EPS]


def _seg_edge_params(a, d, e0, e1) -> list[float]:
    """Parameters t where segment a + t*d meets edge e0-e1, incl. overlaps."""
    ed = e1 - e0
    denom = d[0] * ed[1] - d[1] * ed[0]
    rel = e0 - a
    if abs(denom) > EPS:
        t = (rel[0] * ed[1] - rel[1] * ed[0]) / denom
        u = (rel[0] * d[1] - rel[1] * d[0]) / denom
        if -EPS <= t <= 1.0 + EPS and -EPS <= u <= 1.0 + EPS:
            return [t]
        return []
    # Parallel: collinear edges contribute their projected overlap endpoints.
    if abs(rel[0] * d[1] - rel[1] * d[0]) > EPS * max(1.0, np.abs(d).max()):
        return []
    # Explicit products, not `@`: a BLAS dot may fuse the multiply-add, and
    # los_mask must reproduce these values exactly.
    dd = d[0] * d[0] + d[1] * d[1]
    return [((e0[0] - a[0]) * d[0] + (e0[1] - a[1]) * d[1]) / dd,
            ((e1[0] - a[0]) * d[0] + (e1[1] - a[1]) * d[1]) / dd]


def los_blocked(seg: Segment3, prisms) -> bool:
    """True if any prism interrupts the direct path of seg.

    A prism blocks when the 2D projection of the segment spends a positive
    parameter interval inside its footprint and the segment height drops
    below the roof somewhere on that interval. Grazing the outline at a
    single point, or merely touching it at an endpoint, never blocks.
    """
    a, b = seg.a, seg.b
    for prism in prisms:
        if min(a[2], b[2]) >= prism.top_elev - EPS:
            continue
        if not _bbox_overlap(a, b, prism.bbox):
            continue
        for lo, hi in segment_polygon_interval(a[:2], b[:2], prism.footprint):
            lo = max(lo, 0.0)
            hi = min(hi, 1.0)
            if hi - lo <= EPS:
                continue
            z_lo = a[2] + lo * (b[2] - a[2])
            z_hi = a[2] + hi * (b[2] - a[2])
            if min(z_lo, z_hi) < prism.top_elev - EPS:
                return True
    return False


def _bbox_overlap(a, b, bbox) -> bool:
    minx, miny, maxx, maxy = bbox
    return (
        min(a[0], b[0]) <= maxx + EPS
        and max(a[0], b[0]) >= minx - EPS
        and min(a[1], b[1]) <= maxy + EPS
        and max(a[1], b[1]) >= miny - EPS
    )


# Candidate pairs per _prism_blocks call; bounds its temporaries (pairs x edges).
_SLICE_PAIRS = 4096


def los_mask(origins, targets, prisms) -> np.ndarray:
    """Boolean matrix line_of_sight[i, j] for origins[i] -> targets[j].

    Same result as `not los_blocked(Segment3(origins[i], targets[j]), prisms)`
    for every pair; `los_blocked` is the scalar oracle. One pass per prism:
    a pair whose two outcodes (see _outcodes) share a bit lies wholly past
    one side of the prism's EPS-grown bounding box, or wholly at or above
    its roof less EPS, so the prism cannot block it. That is the trivial
    reject of Cohen-Sutherland line clipping, and exactly the prefilter of
    `los_blocked`. The other still-clear pairs go to _prism_blocks, at most
    _SLICE_PAIRS at a time.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    out = np.ones((len(origins), len(targets)), dtype=bool)
    clear = out.reshape(-1)  # a view into out, indexed by i * len(targets) + j
    bounds = np.array([(*p.bbox, p.top_elev) for p in prisms]).reshape(-1, 5)
    for prism, ca, cb in zip(prisms, _outcodes(origins, bounds), _outcodes(targets, bounds)):
        k = np.flatnonzero(out & ((ca[:, None] & cb) == 0))
        edge = _Edges(prism.footprint)
        for s in range(0, k.size, _SLICE_PAIRS):
            ks = k[s:s + _SLICE_PAIRS]
            i, j = np.divmod(ks, len(targets))
            a, b = origins.take(i, axis=0), targets.take(j, axis=0)  # faster than origins[i]
            clear[ks[_prism_blocks(a, b, edge, prism.top_elev)]] = False
    return out


def _outcodes(points, bounds) -> np.ndarray:
    """uint8 [n_prisms, n_points] outcodes against the prisms' (minx, miny,
    maxx, maxy, top) rows, a bit each for x > maxx + EPS, x < minx - EPS,
    y > maxy + EPS, y < miny - EPS and z >= top - EPS."""
    x, y, z = points.T[:, None, :]
    minx, miny, maxx, maxy, top = bounds.T[:, :, None]
    code = (x > maxx + EPS).view(np.uint8)  # one side at a time bounds the temporaries
    code |= (x < minx - EPS).view(np.uint8) << 1
    code |= (y > maxy + EPS).view(np.uint8) << 2
    code |= (y < miny - EPS).view(np.uint8) << 3
    code |= (z >= top - EPS).view(np.uint8) << 4
    return code


class _Edges:
    """A footprint ring as edge arrays: starts (x1, y1), ends (x2, y2) and
    vectors (ex, ey), each of shape (1, n_edges) to broadcast over pairs."""

    def __init__(self, poly):
        ends = np.concatenate([poly[1:], poly[:1]])  # np.roll's result, at a quarter the cost
        self.x1, self.y1 = poly[None, :, 0], poly[None, :, 1]
        self.x2, self.y2 = ends[None, :, 0], ends[None, :, 1]
        self.ex, self.ey = self.x2 - self.x1, self.y2 - self.y1


def _prism_blocks(a, b, edges: _Edges, top) -> np.ndarray:
    """Which segments a[k] -> b[k] the prism (edges, top) blocks.

    Vectorized segment_polygon_interval plus the roof test of los_blocked,
    with the same arithmetic, so every decision matches the scalar path bit
    for bit. Merging adjacent inside intervals is skipped: z is linear along
    the segment, so a merged interval dips below the roof exactly when one
    of its sub-intervals does.
    """
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    dx, dy, dz = b[:, 0] - ax, b[:, 1] - ay, b[:, 2] - az
    vertical = (np.abs(dx) <= EPS) & (np.abs(dy) <= EPS)

    # A vertical link projects to one point: its single interval [0, 1] is
    # probed at that point instead of at a midpoint.
    v = np.nonzero(vertical)[0]
    rows, los, his = [v], [np.zeros(v.size)], [np.ones(v.size)]
    px, py = [ax[v]], [ay[v]]

    s = np.nonzero(~vertical)[0]
    if s.size:
        ts = _edge_params(ax[s, None], ay[s, None], dx[s, None], dy[s, None], edges)
        # Sequential dedup within EPS of the last kept value; each kept
        # value closes the sub-interval that starts at the previous one.
        last = np.minimum(np.maximum(ts[:, 0], 0.0), 1.0)
        for col in ts.T[1:]:
            val = np.minimum(np.maximum(col, 0.0), 1.0)
            kept = np.nonzero(np.isfinite(col) & (val - last > EPS))[0]
            r, lo, hi = s[kept], last[kept], val[kept]
            mid = 0.5 * (lo + hi)
            rows.append(r)
            los.append(lo)
            his.append(hi)
            px.append(ax[r] + mid * dx[r])
            py.append(ay[r] + mid * dy[r])
            last[kept] = hi

    rows, lo, hi = np.concatenate(rows), np.concatenate(los), np.concatenate(his)
    z_lo = az[rows] + lo * dz[rows]
    z_hi = az[rows] + hi * dz[rows]
    low = np.nonzero(np.minimum(z_lo, z_hi) < top - EPS)[0]
    d2, odd = _outline(np.concatenate(px)[low], np.concatenate(py)[low], edges)
    inside = (d2 <= EPS * EPS) | odd  # on the outline, or inside it
    blocked = np.zeros(len(a), dtype=bool)
    blocked[rows[low[inside]]] = True
    return blocked


def _edge_params(ax, ay, dx, dy, e: _Edges) -> np.ndarray:
    """Sorted interval parameters of segments a + t*d (column vectors) against
    a ring, as _seg_edge_params gives them plus 0 and 1, windowed to
    [-EPS, 1+EPS]. Rows are padded with inf; trailing all-inf columns are cut.
    """
    relx, rely = e.x1 - ax, e.y1 - ay
    denom = dx * e.ey - dy * e.ex
    cross = relx * dy - rely * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (relx * e.ey - rely * e.ex) / denom
        u = cross / denom
    crossing = np.abs(denom) > EPS
    cols = [np.zeros_like(ax), np.ones_like(ax),
            np.where(crossing & _in_window(t) & _in_window(u), t, np.inf)]
    if not crossing.all():
        # Parallel edges: collinear ones add the ends of their overlap.
        collinear = ~crossing & ~(np.abs(cross) > EPS * np.maximum(
            1.0, np.maximum(np.abs(dx), np.abs(dy))))
        dd = dx * dx + dy * dy
        t0 = (relx * dx + rely * dy) / dd
        t1 = ((e.x2 - ax) * dx + (e.y2 - ay) * dy) / dd
        cols[2] = np.where(collinear, t0, cols[2])
        cols.append(np.where(collinear, t1, np.inf))
    ts = np.concatenate(cols, axis=1)
    ts[~_in_window(ts)] = np.inf
    ts.sort(axis=1)
    return ts[:, :np.isfinite(ts).sum(axis=1).max()]


def _in_window(t):
    return (t >= -EPS) & (t <= 1.0 + EPS)


def _outline(px, py, e: _Edges) -> tuple[np.ndarray, np.ndarray]:
    """Squared distance to the nearest edge and even-odd parity of points
    (px, py) against a ring, with the arithmetic of _min_dist_to_edges_sq
    and of point_in_polygon's crossing count."""
    len2 = e.ex * e.ex + e.ey * e.ey
    len2 = np.where(len2 == 0.0, 1.0, len2)
    qx, qy = px[:, None], py[:, None]
    t = np.minimum(np.maximum(((qx - e.x1) * e.ex + (qy - e.y1) * e.ey) / len2, 0.0), 1.0)
    cx = e.x1 + t * e.ex - qx
    cy = e.y1 + t * e.ey - qy
    d2 = (cx * cx + cy * cy).min(axis=1)

    crosses = (e.y1 > qy) != (e.y2 > qy)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = e.x1 + (qy - e.y1) * e.ex / e.ey
    odd = np.count_nonzero(crosses & (qx < xint), axis=1) % 2 == 1
    return d2, odd
