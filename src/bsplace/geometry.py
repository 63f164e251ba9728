"""2.5D line-of-sight tests between antennas and users through building prisms.

All polygons are numpy arrays of shape (n, 2) holding an open ring (the last
vertex is not repeated). Heights are handled by linear interpolation along the
segment; prisms block only below their roof elevation.

`los_mask` decides every (origin, target) pair against every prism in three
stages, each exact against the scalar `los_blocked`:

1. Outcodes: a pair whose endpoints lie past the same side of a prism's
   EPS-grown bounding box, or both at or above its roof less EPS, is
   rejected (the trivial reject of Cohen-Sutherland clipping). Prisms are
   visited in blocks, narrowest ring first, and pairs some prism has
   already blocked are skipped. A block's candidates are found
   `_SCAN_PAIRS` entries at a time, in ascending order, so their index
   arrays stay small however many pairs a prism keeps.
2. Slab clip: each remaining (pair, prism) candidate is clipped against
   the box (Liang-Barsky), the part of the link `los_blocked` tests against
   the roof; it is dropped when the clip is empty, or when the link is at or
   above the roof less EPS at both clip ends.
3. Mixed-prism slices: the survivors of all prisms are queued with their
   clip and run through the decision arithmetic of `los_blocked` a slice at
   a time, which tests the height only within the clip. One
   edge table holds every footprint, padded to the widest ring; padding is
   masked so it adds no interval parameter, distance or crossing. Every
   kernel temporary holds at most `_SLICE_ELEMS` elements.

Where a point lies relative to a footprint outline is answered for many
points at once by one routine, `_outline`: the squared distance to the
nearest edge and the even-odd parity. `los_mask` takes its inside test from
it and `outline_distance` (which `scene.place_users` calls once for all its
near-building (user, prism) pairs) its distance. The scalar `point_in_polygon`,
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


def outline_distance(px, py, polys, ring_ids) -> np.ndarray:
    """point_to_polygon_distance of each point (px[k], py[k]) to the outline
    of polys[ring_ids[k]], with its arithmetic: 0 inside or on it.

    The points go through _outline in order of ring width, a slice of
    points at a time, so one call serves the points of many rings.
    """
    px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
    ring_ids = np.asarray(ring_ids, dtype=np.intp)
    d2, odd = np.empty(px.size), np.empty(px.size, dtype=bool)
    if px.size:
        rings = _Rings([np.asarray(p, dtype=float) for p in polys])
        order = np.argsort(rings.width[ring_ids], kind="stable")
        widths = rings.width[ring_ids[order]]
        for start, end in _width_slices(widths, lambda w: 6 * w):  # 6 edge arrays
            k = order[start:end]
            d2[k], odd[k] = _outline(px[k], py[k], rings.rows(ring_ids[k], widths[end - 1]))
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
    below the roof somewhere on the part of that interval within the
    prism's EPS-grown bounding box. Grazing the outline at a single point,
    or merely touching it at an endpoint, never blocks.
    """
    a, b = seg.a, seg.b
    for prism in prisms:
        if min(a[2], b[2]) >= prism.top_elev - EPS:
            continue
        if not _bbox_overlap(a, b, prism.bbox):
            continue
        c0, c1 = _box_clip(a, b, prism.bbox)
        for lo, hi in segment_polygon_interval(a[:2], b[:2], prism.footprint):
            lo, hi = max(lo, c0), min(hi, c1)
            if lo > hi:
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


def _box_clip(a, b, bbox) -> tuple[float, float]:
    """[c0, c1]: the parameters t in [0, 1] where segment a->b lies in bbox
    grown by EPS on every side (Liang-Barsky); c0 > c1 when it misses."""
    minx, miny, maxx, maxy = bbox
    c0, c1 = 0.0, 1.0
    for lo, hi, p, d in ((minx - EPS, maxx + EPS, a[0], b[0] - a[0]),
                         (miny - EPS, maxy + EPS, a[1], b[1] - a[1])):
        if d == 0.0:
            if not lo <= p <= hi:
                return 1.0, 0.0
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        c0, c1 = max(c0, min(ta, tb)), min(c1, max(ta, tb))
    return c0, c1


# Every kernel temporary holds at most this many elements: slice rows x
# interval-parameter columns, or the 6 edge arrays x midpoints x ring width
# of one outline test.
_SLICE_ELEMS = 1 << 13
# (pair, prism) candidates queued before the kernel runs; also the size of
# one outcode block (prisms x pairs) and of one slab-clip chunk.
_QUEUE_PAIRS = 1 << 13
# Flat (prism, pair) entries of an outcode block scanned for candidates at once.
_SCAN_PAIRS = 1 << 18
# Rounding slack of the box that skips midpoints far from a ring, in meters.
_GUARD = 1e-6


def los_mask(origins, targets, prisms) -> np.ndarray:
    """Boolean matrix line_of_sight[i, j] for origins[i] -> targets[j].

    Same result as `not los_blocked(Segment3(origins[i], targets[j]), prisms)`
    for every pair; `los_blocked` is the scalar oracle. The three stages
    (outcodes, slab clip, mixed-prism slices) are described in the module
    docstring.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    n, m = len(origins), len(targets)
    out = np.ones((n, m), dtype=bool)
    if not prisms:
        return out
    clear = out.reshape(-1)  # a view into out, indexed by i * m + j
    rings = _Rings([p.footprint for p in prisms])
    boxes = _clip_boxes(prisms)
    ca, cb = _outcodes(origins, boxes), _outcodes(targets, boxes)
    order = np.argsort(rings.width, kind="stable")
    queue, queued = [], 0

    def flush():
        k, p, a, b, t0, t1 = (np.concatenate(c) for c in zip(*queue))
        queue.clear()
        clear[k[_slices_blocked(a, b, t0, t1, p, rings, boxes)]] = False

    step = max(1, _QUEUE_PAIRS // max(1, n * m))
    for s in range(0, len(order), step):
        block = order[s:s + step]
        hit = (ca[block, :, None] & cb[block, None, :]) == 0
        hit &= out
        for chunk in _true_chunks(hit.reshape(-1), _QUEUE_PAIRS):
            q, kc = np.divmod(chunk, n * m)
            pc = block[q]
            i, j = np.divmod(kc, m)
            a, b = origins.take(i, axis=0), targets.take(j, axis=0)  # faster than origins[i]
            keep, t0, t1 = _slab_clip(a, b, boxes.take(pc, axis=1))
            kept = np.flatnonzero(keep)
            queue.append((kc[kept], pc[kept], a.take(kept, axis=0), b.take(kept, axis=0),
                          t0[kept], t1[kept]))
            queued += kept.size
            if queued >= _QUEUE_PAIRS:
                flush()
                queued = 0
    if queue:
        flush()
    return out


def _true_chunks(flags, size):
    """The positions of the True entries of the flat bool array `flags` in
    ascending order, `size` at a time (the last chunk may hold fewer).

    `flags` is scanned `_SCAN_PAIRS` entries at a time, so no index array
    outgrows one scan slice's positions plus one chunk.
    """
    held = np.empty(0, dtype=np.intp)
    for start in range(0, flags.size, _SCAN_PAIRS):
        held = np.concatenate([held, np.flatnonzero(flags[start:start + _SCAN_PAIRS]) + start])
        full = len(held) - len(held) % size
        for c in range(0, full, size):
            yield held[c:c + size]
        held = held[full:]
    if len(held):
        yield held


def _clip_boxes(prisms) -> np.ndarray:
    """[5, n_prisms] columns: each prism's bounding box grown by EPS (lox,
    loy, hix, hiy) and its roof less EPS."""
    boxes = np.array([(*p.bbox, p.top_elev) for p in prisms]).T
    return boxes + np.array([-EPS, -EPS, EPS, EPS, -EPS])[:, None]


def _outcodes(points, boxes) -> np.ndarray:
    """uint8 [n_prisms, n_points] outcodes against the _clip_boxes columns
    (lox, loy, hix, hiy, lim), a bit each for x > hix, x < lox, y > hiy,
    y < loy and z >= lim."""
    x, y, z = points.T[:, None, :]
    lox, loy, hix, hiy, lim = boxes[:, :, None]
    code = (x > hix).view(np.uint8)
    side = np.empty_like(code)  # the one temporary: each further side in turn, shifted in place
    for bit, (test, v, bound) in enumerate(((np.less, x, lox), (np.greater, y, hiy),
                                            (np.less, y, loy), (np.greater_equal, z, lim)), 1):
        test(v, bound, out=side.view(bool))
        side <<= bit
        code |= side
    return code


def _slab_clip(a, b, box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, t0, t1): [t0, t1] is the clip of a[k] -> b[k] against the
    _clip_boxes column box[:, k], with the arithmetic of _box_clip; keep is
    False when it is empty, or when z is at or above the roof less EPS at t0
    and t1."""
    lox, loy, hix, hiy, lim = box
    ax, ay, az = a.T
    dz = b[:, 2] - az
    t0, t1 = np.zeros(len(a)), np.ones(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi, p, d in ((lox, hix, ax, b[:, 0] - ax), (loy, hiy, ay, b[:, 1] - ay)):
            ta, tb = (lo - p) / d, (hi - p) / d
            # d == 0 gives +-inf, or nan (0 / 0) with p on a side, which
            # fmax/fmin pass over: no bound from that slab
            np.fmax(t0, np.minimum(ta, tb), out=t0)
            np.fmin(t1, np.maximum(ta, tb), out=t1)
    keep = (t0 <= t1) & ((az + t0 * dz < lim) | (az + t1 * dz < lim))
    return keep, t0, t1


class _Edges:
    """Edge rows: `xy` [6, rows, width] stacks starts (x1, y1), ends (x2, y2)
    and vectors (ex, ey), one ring per row (or one row to broadcast a single
    ring), and `valid` [rows, width] is False on padding past a row's ring,
    or None when there is none."""

    def __init__(self, xy, valid=None):
        self.xy, self.valid = xy, valid
        self.x1, self.y1, self.x2, self.y2, self.ex, self.ey = xy

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
        start[self.valid] = np.concatenate(polys)
        col = np.arange(self.valid.shape[1])
        succ = np.where(col + 1 < self.width[:, None], col + 1, 0)  # next vertex on the ring
        end = start[np.arange(len(polys))[:, None], succ]
        end[~self.valid] = 0.0
        self.table = np.stack([start[..., 0], start[..., 1], end[..., 0], end[..., 1],
                               end[..., 0] - start[..., 0], end[..., 1] - start[..., 1]])

    def rows(self, ring_ids, width) -> _Edges:
        """Edges of rings ring_ids, cut to `width` columns."""
        padded = self.width[ring_ids[0]] < width  # rows ascend in width
        return _Edges(self.table[:, ring_ids, :width],
                      self.valid[ring_ids, :width] if padded else None)


def _width_slices(widths, row_elems):
    """(start, end) slices of rows whose ring widths ascend. A slice ends
    before the first row more than twice as wide as its own first row, which
    bounds the padding, and is cut so that its rows x row_elems(widest row)
    stay within _SLICE_ELEMS."""
    start = 0
    while start < len(widths):
        end = int(np.searchsorted(widths, 2 * widths[start], side="right"))
        while end - start > 1 and (end - start) * row_elems(widths[end - 1]) > _SLICE_ELEMS:
            end = start + max(1, _SLICE_ELEMS // row_elems(widths[end - 1]))
        yield start, end
        start = end


def _slices_blocked(a, b, t0, t1, ring_ids, rings: _Rings, boxes) -> np.ndarray:
    """Which queued candidates (a[k] -> b[k], clipped to [t0[k], t1[k]],
    prism ring_ids[k]) are blocked.

    Rows ascend in ring width and go to the kernel in _width_slices, whose
    rows x (2 width + 2) parameter columns stay within _SLICE_ELEMS.
    """
    widths = rings.width.take(ring_ids)
    blocked = np.empty(len(a), dtype=bool)
    for start, end in _width_slices(widths, lambda w: 2 * w + 2):
        ids = ring_ids[start:end]
        blocked[start:end] = _prism_blocks(a[start:end], b[start:end],
                                           t0[start:end], t1[start:end],
                                           rings.rows(ids, widths[end - 1]),
                                           boxes.take(ids, axis=1))
    return blocked


def _prism_blocks(a, b, t0, t1, edges: _Edges, box) -> np.ndarray:
    """Which segments a[k] -> b[k], clipped to [t0[k], t1[k]], the prism of
    row k blocks: its ring is edges row k, its _clip_boxes column box[:, k].

    Vectorized segment_polygon_interval plus the roof test of los_blocked,
    with the same arithmetic, so every decision matches the scalar path bit
    for bit. Merging adjacent inside intervals is skipped: z is linear along
    the segment, so a merged interval, clamped to the clip, dips below the
    roof exactly when one of its clamped sub-intervals does. A midpoint more
    than _GUARD outside the box is neither inside the ring nor within EPS of
    it, whatever the rounding, so only the others get the outline test.
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

    rows, px, py = np.concatenate(rows), np.concatenate(px), np.concatenate(py)
    lo = np.maximum(np.concatenate(los), t0[rows])
    hi = np.minimum(np.concatenate(his), t1[rows])
    z_lo = az[rows] + lo * dz[rows]
    z_hi = az[rows] + hi * dz[rows]
    lox, loy, hix, hiy, lim = box.take(rows, axis=1)
    test = np.nonzero((lo <= hi) & (np.minimum(z_lo, z_hi) < lim)
                      & (px >= lox - _GUARD) & (px <= hix + _GUARD)
                      & (py >= loy - _GUARD) & (py <= hiy + _GUARD))[0]
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
