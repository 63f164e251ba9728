"""2.5D line-of-sight tests between antennas and users through building prisms.

All polygons are numpy arrays of shape (n, 2) holding an open ring (the last
vertex is not repeated). Heights are handled by linear interpolation along the
segment; prisms block only below their roof elevation.

`los_mask` decides every (origin, target) pair against every prism in three
stages, each exact against the scalar `los_blocked`:

1. Outcodes: a pair whose endpoints lie past the same side of a prism's
   EPS-grown bounding box, or both at or above its roof less EPS, is
   rejected (the trivial reject of Cohen-Sutherland clipping).
2. Slab clip: each remaining (pair, prism) candidate is clipped against
   the box (Liang-Barsky); it is dropped when the clip is empty, or when the
   link provably stays above the roof wherever `los_blocked` could look.
3. Mixed-prism slices: the survivors of all prisms are queued and run
   through the decision arithmetic of `los_blocked` a slice at a time. One
   edge table holds every footprint, padded to the widest ring; padding is
   masked so it adds no interval parameter, distance or crossing.

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
                       _Edges.ring(np.asarray(poly, dtype=float)))
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


# Every kernel temporary holds at most this many elements: slice rows x
# interval-parameter columns, or the 6 edge arrays x midpoints x ring width
# of one outline test.
_SLICE_ELEMS = 1 << 13
# (pair, prism) candidates queued before the kernel runs; also the size of
# one outcode block (prisms x pairs) and of one slab-clip chunk.
_QUEUE_PAIRS = 1 << 13
# Rounding slack of the slab clip's box, in meters.
_GUARD = 1e-6


def los_mask(origins, targets, prisms) -> np.ndarray:
    """Boolean matrix line_of_sight[i, j] for origins[i] -> targets[j].

    Same result as `not los_blocked(Segment3(origins[i], targets[j]), prisms)`
    for every pair; `los_blocked` is the scalar oracle. Three stages:

    1. Outcodes. A pair whose two outcodes (see _outcodes) share a bit lies
       wholly past one side of the prism's EPS-grown bounding box, or wholly
       at or above its roof less EPS: the trivial reject of Cohen-Sutherland
       line clipping, and exactly the prefilter of `los_blocked`. Prisms are
       visited in blocks, narrowest ring first, and pairs some prism has
       already blocked are skipped.
    2. Slab clip (_slab_clip): each remaining (pair, prism) candidate is
       clipped against the prism's box (Liang-Barsky) and dropped when the
       prism provably cannot block it.
    3. Mixed-prism slices. Survivors are queued across prisms; a full queue
       goes to _prism_blocks, the decision arithmetic of `los_blocked`, in
       slices of rows from any prisms. Each row gathers its prism's edges
       from one ring table (_Rings), padded to the widest ring in the slice
       and masked, so padding adds no parameter, distance or crossing. Every
       kernel temporary holds at most _SLICE_ELEMS elements.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    n, m = len(origins), len(targets)
    out = np.ones((n, m), dtype=bool)
    if not prisms:
        return out
    clear = out.reshape(-1)  # a view into out, indexed by i * m + j
    rings = _Rings([p.footprint for p in prisms])
    bounds = np.array([(*p.bbox, p.top_elev) for p in prisms])
    boxes = _clip_boxes(bounds, rings)
    ca, cb = _outcodes(origins, bounds), _outcodes(targets, bounds)
    order = np.argsort(rings.width, kind="stable")
    queue, queued = [], 0

    def flush():
        k, p, a, b = (np.concatenate(c) for c in zip(*queue))
        queue.clear()
        clear[k[_slices_blocked(a, b, p, rings, boxes)]] = False

    step = max(1, _QUEUE_PAIRS // max(1, n * m))
    for s in range(0, len(order), step):
        block = order[s:s + step]
        hit = (ca[block, :, None] & cb[block, None, :]) == 0
        hit &= out
        q, k = np.divmod(np.flatnonzero(hit), n * m)
        for c in range(0, k.size, _QUEUE_PAIRS):
            kc, pc = k[c:c + _QUEUE_PAIRS], block[q[c:c + _QUEUE_PAIRS]]
            i, j = np.divmod(kc, m)
            a, b = origins.take(i, axis=0), targets.take(j, axis=0)  # faster than origins[i]
            keep = np.flatnonzero(_slab_clip(a, b, boxes.take(pc, axis=1)))
            queue.append((kc[keep], pc[keep], a.take(keep, axis=0), b.take(keep, axis=0)))
            queued += keep.size
            if queued >= _QUEUE_PAIRS:
                flush()
                queued = 0
    if queue:
        flush()
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


def _clip_boxes(bounds, rings) -> np.ndarray:
    """[6, n_prisms] slab-clip columns: the bounding box grown by R on every
    side (lox, loy, hix, hiy), the roof less EPS, and 1.0 where every edge is
    axis-parallel (else 0.0). R = _GUARD + EPS * (2 + longer box side)."""
    minx, miny, maxx, maxy, top = bounds.T
    grow = _GUARD + EPS * (2.0 + np.maximum(maxx - minx, maxy - miny))
    axis = ((rings.table[4] == 0.0) | (rings.table[5] == 0.0)).all(axis=1)
    return np.stack([minx - grow, miny - grow, maxx + grow, maxy + grow, top - EPS, axis])


def _slab_clip(a, b, box) -> np.ndarray:
    """Which candidates a[k] -> b[k] the prism of clip column box[:, k] may block.

    [t0, t1] is the part of the segment (clamped to [0, 1]) inside the box,
    which is grown by R = _GUARD + EPS * (2 + L), L the longer box side. A
    candidate is dropped when [t0, t1] is empty, or, for a prism with
    axis-parallel edges and a link at least 1 m long in x or y, when z is at
    or above top - EPS at t0 and t1 and no sub-interval reaching t = 0 or 1
    can have its midpoint in [t0, t1] (below). Why `los_blocked` blocks
    none of these:

    - It blocks only through a sub-interval (lo, hi) between consecutive
      kept parameters whose midpoint is inside the footprint or within EPS
      of its outline, so within EPS of the bounding box. The guard dwarfs
      the rounding of that midpoint and of the clip itself (for
      coordinates below about 1e8 m), so the computed [t0, t1] holds the
      midpoint parameter: an empty clip rejects exactly. A near-vertical
      link gets no false rejection: the guard is added in x and y before
      dividing by dx or dy, so in t it grows like 1 / |d|, as the
      rounding of the link's own parameters does; a vertical link, whose
      interval is probed at its origin, is within EPS of the box, so the
      clip of its (0, 1) segment is not empty either.
    - Every kept parameter other than 0 and 1 lies in [t0, t1]: a crossing
      parameter has its edge parameter within [-EPS, 1 + EPS], so its point
      lies within EPS * L of the box; a collinear overlap end lies within
      2 EPS of a vertex for links at least 1 m long. With axis-parallel
      edges, t and its denominator each have one exactly zero product term,
      so a parameter carries only a few ulps of rounding. (Near a slanted
      edge met at a grazing angle, rounding can carry a crossing parameter
      arbitrarily far; such prisms get the empty-clip test only.)
    - z(t) = az + t * dz is monotone in t also after rounding, so a
      sub-interval with both ends in [t0, t1] does not dip below top - EPS
      once z(t0) and z(t1) do not.
    - That leaves sub-intervals with an end at 0 or 1 outside [t0, t1] (a
      link passing within EPS of the outline makes those possible, with
      midpoints far from either end): (0, hi) has midpoint hi / 2 <= t1 / 2,
      (lo, 1) has midpoint (lo + 1) / 2 >= (t0 + 1) / 2, and (0, 1) has 0.5.
      Each can matter only when that midpoint can reach [t0, t1] and z at
      its 0 or 1 end (az, or az + dz as the kernel computes it) is below
      top - EPS; such candidates are kept.
    """
    lox, loy, hix, hiy, lim, axis = box
    ax, ay, az = a.T
    dx, dy, dz = b[:, 0] - ax, b[:, 1] - ay, b[:, 2] - az
    t0, t1 = np.zeros(len(a)), np.ones(len(a))
    with np.errstate(divide="ignore"):  # dx == 0 gives +-inf: no bound from that slab
        for lo, hi, p, d in ((lox, hix, ax, dx), (loy, hiy, ay, dy)):
            ta, tb = (lo - p) / d, (hi - p) / d
            np.maximum(t0, np.minimum(ta, tb), out=t0)
            np.minimum(t1, np.maximum(ta, tb), out=t1)
    z1 = az + dz  # z at t = 1, rounded as in _prism_blocks
    low0, low1 = az < lim, z1 < lim
    reach = ((low0 & (0.5 * t1 >= t0)) | (low1 & (0.5 * (t0 + 1.0) <= t1))
             | ((low0 | low1) & (t0 <= 0.5) & (0.5 <= t1)))
    above = (az + t0 * dz >= lim) & (az + t1 * dz >= lim)
    exact = (axis == 1.0) & (np.maximum(np.abs(dx), np.abs(dy)) >= 1.0)
    return (t0 <= t1) & ~(above & exact & ~reach)


class _Edges:
    """Edge rows: `xy` [6, rows, width] stacks starts (x1, y1), ends (x2, y2)
    and vectors (ex, ey), one ring per row (or one row to broadcast a single
    ring), and `valid` [rows, width] is False on padding past a row's ring,
    or None when there is none."""

    def __init__(self, xy, valid=None):
        self.xy, self.valid = xy, valid
        self.x1, self.y1, self.x2, self.y2, self.ex, self.ey = xy

    @classmethod
    def ring(cls, poly):
        """One footprint ring as a single row."""
        ends = np.concatenate([poly[1:], poly[:1]])  # np.roll's result, at a quarter the cost
        return cls(np.concatenate([poly.T, ends.T, (ends - poly).T])[:, None, :])

    def take(self, rows) -> "_Edges":
        return _Edges(self.xy.take(rows, axis=1),
                      None if self.valid is None else self.valid.take(rows, axis=0))


class _Rings:
    """Every footprint of a call in one edge table: `table` [6, n_rings,
    widest ring] holds x1, y1, x2, y2, ex, ey, row r its `width[r]` edges
    and then zeros that `valid` masks."""

    def __init__(self, polys):
        self.width = np.array([len(p) for p in polys])
        self.valid = np.arange(self.width.max()) < self.width[:, None]
        start = np.zeros(self.valid.shape + (2,))
        end = np.zeros_like(start)
        start[self.valid] = np.concatenate(polys)
        end[self.valid] = np.concatenate([np.concatenate([p[1:], p[:1]]) for p in polys])
        self.table = np.stack([start[..., 0], start[..., 1], end[..., 0], end[..., 1],
                               end[..., 0] - start[..., 0], end[..., 1] - start[..., 1]])

    def rows(self, ring_ids, width) -> _Edges:
        """Edges of rings ring_ids, cut to `width` columns."""
        padded = self.width[ring_ids[0]] < width  # rows ascend in width
        return _Edges(self.table[:, ring_ids, :width],
                      self.valid[ring_ids, :width] if padded else None)


def _slices_blocked(a, b, ring_ids, rings: _Rings, boxes) -> np.ndarray:
    """Which queued candidates (a[k] -> b[k], prism ring_ids[k]) are blocked.

    Rows ascend in ring width. A slice ends before the first row more than
    twice as wide as its own first row, which bounds the padding, and is cut
    so that rows x (2 width + 2) parameter columns stay within _SLICE_ELEMS.
    """
    widths = rings.width.take(ring_ids)
    blocked = np.empty(len(a), dtype=bool)
    start = 0
    while start < len(a):
        end = int(np.searchsorted(widths, 2 * widths[start], side="right"))
        while end - start > 1 and (end - start) * (2 * widths[end - 1] + 2) > _SLICE_ELEMS:
            end = start + max(1, _SLICE_ELEMS // (2 * widths[end - 1] + 2))
        ids = ring_ids[start:end]
        blocked[start:end] = _prism_blocks(a[start:end], b[start:end],
                                           rings.rows(ids, widths[end - 1]),
                                           boxes[:5].take(ids, axis=1))
        start = end
    return blocked


def _prism_blocks(a, b, edges: _Edges, box) -> np.ndarray:
    """Which segments a[k] -> b[k] the prism of row k blocks: its ring is
    edges row k, its grown box and roof less EPS are box[:, k] (_clip_boxes).

    Vectorized segment_polygon_interval plus the roof test of los_blocked,
    with the same arithmetic, so every decision matches the scalar path bit
    for bit. Merging adjacent inside intervals is skipped: z is linear along
    the segment, so a merged interval dips below the roof exactly when one
    of its sub-intervals does. A midpoint outside the grown box is neither
    inside the ring nor within EPS of it (see _slab_clip), so only those in
    the box get the outline test.
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
        ts = _edge_params(ax[s, None], ay[s, None], dx[s, None], dy[s, None],
                          edges.take(s) if v.size else edges)
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
    px, py = np.concatenate(px), np.concatenate(py)
    z_lo = az[rows] + lo * dz[rows]
    z_hi = az[rows] + hi * dz[rows]
    lox, loy, hix, hiy, lim = box.take(rows, axis=1)
    test = np.nonzero((np.minimum(z_lo, z_hi) < lim) & (px >= lox) & (px <= hix)
                      & (py >= loy) & (py <= hiy))[0]
    px, py, rows = px[test], py[test], rows[test]
    blocked = np.zeros(len(a), dtype=bool)
    step = max(1, _SLICE_ELEMS // (6 * edges.x1.shape[1]))  # their edges: 6 x step x width
    for c in range(0, rows.size, step):
        r = rows[c:c + step]
        d2, odd = _outline(px[c:c + step], py[c:c + step], edges.take(r))
        blocked[r[(d2 <= EPS * EPS) | odd]] = True  # on the outline, or inside it
    return blocked


def _edge_params(ax, ay, dx, dy, e: _Edges) -> np.ndarray:
    """Sorted interval parameters of segments a + t*d (column vectors) against
    their rings, as _seg_edge_params gives them plus 0 and 1, windowed to
    [-EPS, 1+EPS]. Rows are padded with inf; trailing all-inf columns are cut.
    """
    relx, rely = e.x1 - ax, e.y1 - ay
    denom = dx * e.ey - dy * e.ex
    cross = relx * dy - rely * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (relx * e.ey - rely * e.ex) / denom
        u = cross / denom
    crossing = np.abs(denom) > EPS  # never on padding: its edge vectors are zero
    parallel = ~crossing if e.valid is None else ~crossing & e.valid
    cols = [np.zeros_like(ax), np.ones_like(ax),
            np.where(crossing & _in_window(t) & _in_window(u), t, np.inf)]
    if parallel.any():
        # Parallel edges: collinear ones add the ends of their overlap.
        collinear = parallel & ~(np.abs(cross) > EPS * np.maximum(
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
    (px, py) against their rings, with the arithmetic of
    _min_dist_to_edges_sq and of point_in_polygon's crossing count. Padding
    entries (e.valid False) are at distance inf and never cross."""
    len2 = e.ex * e.ex + e.ey * e.ey
    len2 = np.where(len2 == 0.0, 1.0, len2)
    qx, qy = px[:, None], py[:, None]
    t = np.minimum(np.maximum(((qx - e.x1) * e.ex + (qy - e.y1) * e.ey) / len2, 0.0), 1.0)
    cx = e.x1 + t * e.ex - qx
    cy = e.y1 + t * e.ey - qy
    dist2 = cx * cx + cy * cy
    if e.valid is not None:
        dist2 = np.where(e.valid, dist2, np.inf)
    crosses = (e.y1 > qy) != (e.y2 > qy)  # never on padding: its ends coincide
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = e.x1 + (qy - e.y1) * e.ex / e.ey
    odd = np.count_nonzero(crosses & (qx < xint), axis=1) % 2 == 1
    return dist2.min(axis=1), odd
