"""2.5D line-of-sight tests between antennas and users through building prisms.

All polygons are numpy arrays of shape (n, 2) holding an open ring (the last
vertex is not repeated). Heights are handled by linear interpolation along the
segment; prisms block only below their roof elevation.

`los_mask` decides every (origin, target) pair against every prism in four
stages, each exact against the scalar `los_blocked`:

1. Outcodes: a pair whose endpoints lie past the same side of a prism's
   EPS-grown bounding box, or both at or above its roof less EPS, is
   rejected (the trivial reject of Cohen-Sutherland clipping). Prisms are
   visited in index order, a block of about `_QUEUE_PAIRS` (prism, pair)
   entries (at least one prism) at a time, and pairs some prism has
   already blocked are skipped. A block takes its own origins' outcodes and
   finds its candidates in one pass, at most 8 bytes per (prism, pair)
   entry of the block: n x m x 8 bytes when every clear pair crosses the
   box of a prism that fills a block alone.
2. Slab clip: each remaining (pair, prism) candidate is clipped against
   the box (Liang-Barsky), the part of the link `los_blocked` tests against
   the roof; it is dropped when the clip is empty, or when the link is at or
   above the roof less EPS at both clip ends.
3. Rectangle cover: the survivors of all prisms are queued with their
   clip, and each time `_QUEUE_PAIRS` have queued they are tested against
   their footprint's rectangles (`_Cover`: each rectilinear footprint is
   tiled by axis-aligned rectangles). A candidate whose link runs through
   one of them below the roof less EPS, `_INSET` inside its clip, blocks
   its pair, which `_Cover` proves `los_blocked` finds too. The cover never
   decides that a pair is clear.
4. Mixed-prism slices: the rest, less the candidates whose pair is now
   blocked, are held until `_QUEUE_PAIRS` of them wait; by then the
   rectangles of later prisms have blocked many of their pairs. Those still
   clear run through the decision arithmetic of `los_blocked` in plain
   slices, which tests the height only within the clip. One edge table
   holds every footprint, padded to the widest ring; padding is masked so
   it adds no interval parameter, distance or crossing. A slice holds
   `_SLICE_ELEMS // (2 widest ring + 2)` rows, so every kernel temporary
   holds at most `_SLICE_ELEMS` elements.

The mask is an OR over prisms: neither the visiting order nor the slicing
can change a bit of it.

Where a point lies relative to a footprint outline is answered for many
points at once by one routine, `_outline`: the squared distance to the
nearest edge and the even-odd parity. `los_mask` takes its inside test from
it and `outline_distance` (which `scene.place_users` calls once for all its
near-building (user, prism) pairs) its distance. The scalar `point_in_polygon`,
`point_to_polygon_distance` and `los_blocked` do the same arithmetic one
point at a time and are kept as test oracles.
"""

from __future__ import annotations

import numpy as np

# Tolerance on interval parameters; ties break toward line of sight.
EPS = 1e-9


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


def los_blocked(a, b, prisms) -> bool:
    """True if any prism interrupts the direct path from 3D point a to b.

    A prism blocks when the 2D projection of the segment spends a positive
    parameter interval inside its footprint and the segment height drops
    below the roof somewhere on the part of that interval within the
    prism's EPS-grown bounding box. Grazing the outline at a single point,
    or merely touching it at an endpoint, never blocks. Coincident a and b
    are a point, blocked when it is inside or on a footprint below its roof
    less EPS.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
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
# (pair, prism) candidates queued before the cover runs, and held before the
# kernel runs; also the size of one outcode block (prisms x pairs), of one
# slab-clip chunk and of one batch of (candidate, rectangle) rows.
_QUEUE_PAIRS = 1 << 13
# Rounding slack of the box that skips midpoints far from a ring, in meters.
_GUARD = 1e-6
# The rectangle cover (_Cover): how far inside a rectangle's clip a height
# is read, in link parameter units; the largest vertex coordinate and link
# component, in meters; the largest link component per meter of the ring's
# shortest edge.
_INSET = 2 * EPS
_FAR = 1e5
_SPAN = 1e6


def los_mask(origins, targets, prisms) -> np.ndarray:
    """Boolean matrix line_of_sight[i, j] for origins[i] -> targets[j].

    Same result as `not los_blocked(origins[i], targets[j], prisms)` for
    every pair; `los_blocked` is the scalar oracle. The four stages
    (outcodes, slab clip, rectangle cover, mixed-prism slices) are described
    in the module docstring: one pass over the prisms in index order, a
    block at a time.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    n, m = len(origins), len(targets)
    out = np.ones((n, m), dtype=bool)
    if not prisms:
        return out
    clear = out.reshape(-1)  # a view into out, indexed by i * m + j
    rings = _Rings([p.footprint for p in prisms])
    cover = _Cover(rings)
    boxes = _clip_boxes(prisms)
    cb = _outcodes(targets, boxes)
    queue, queued = [], 0  # slab-clip survivors, for the cover
    held = []  # the cover's undecided candidates, for the kernel

    def flush(last=False):
        if queue:
            k, p, a, b, t0, t1 = cands = _joined(queue)
            clear[k[cover.blocks(a, b, p, boxes[4])]] = False
            held.append(_live(cands, clear))
        if held and (last or sum(len(c[0]) for c in held) >= _QUEUE_PAIRS):
            k, p, a, b, t0, t1 = _live(_joined(held), clear)
            clear[k[_slices_blocked(a, b, t0, t1, p, rings, boxes)]] = False

    step = max(1, _QUEUE_PAIRS // max(1, n * m))
    for s in range(0, len(prisms), step):
        hit = (_outcodes(origins, boxes[:, s:s + step])[:, :, None] & cb[s:s + step, None, :]) == 0
        hit &= out
        cand = np.flatnonzero(hit)  # ascending (prism, pair) entries of the block
        for c in range(0, cand.size, _QUEUE_PAIRS):
            q, kc = np.divmod(cand[c:c + _QUEUE_PAIRS], n * m)
            pc = q + s
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
    flush(last=True)
    return out


def _joined(parts) -> tuple:
    """The queued candidate arrays (pair, prism, a, b, t0, t1) of all
    `parts`, concatenated; `parts` is emptied."""
    cands = tuple(np.concatenate(c) for c in zip(*parts))
    parts.clear()
    return cands


def _live(cands, clear) -> tuple:
    """The candidates whose pair `clear` still holds clear."""
    live = np.flatnonzero(clear[cands[0]])
    return tuple(c.take(live, axis=0) for c in cands)


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


def _slab_clip(a, b, box, inset=0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, t0, t1): [t0, t1] is the clip of a[k] -> b[k] against box[:, k]
    (lox, loy, hix, hiy, lim: a _clip_boxes column, or a cover rectangle and
    its roof less EPS), with the arithmetic of _box_clip; keep is False when
    [t0 + inset, t1 - inset] is empty, or when z is at or above lim at both
    its ends."""
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
        s0, s1 = t0 + inset, t1 - inset
        # an empty clip may hold +-inf, and inf * 0 is nan, which is not below lim
        keep = (s0 <= s1) & ((az + s0 * dz < lim) | (az + s1 * dz < lim))
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
    and then zeros that `valid` masks. No rings make an empty table."""

    def __init__(self, polys):
        self.width = np.array([len(p) for p in polys], dtype=np.intp)
        self.valid = np.arange(self.width.max(initial=0)) < self.width[:, None]
        start = np.zeros(self.valid.shape + (2,))
        start[self.valid] = np.concatenate([np.empty((0, 2))] + list(polys))
        col = np.arange(self.valid.shape[1])
        succ = np.where(col + 1 < self.width[:, None], col + 1, 0)  # next vertex on the ring
        end = start[np.arange(len(polys))[:, None], succ]
        end[~self.valid] = 0.0
        self.table = np.stack([start[..., 0], start[..., 1], end[..., 0], end[..., 1],
                               end[..., 0] - start[..., 0], end[..., 1] - start[..., 1]])

    def rows(self, ring_ids, width) -> _Edges:
        """Edges of rings ring_ids, cut to `width` columns; `valid` is None
        when no ring is narrower."""
        padded = self.width.take(ring_ids).min() < width
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


class _Cover:
    """Rectangles that tile the even-odd interior of each rectilinear ring
    of a _Rings table, and the candidates they prove blocked (`blocks`).

    A ring is covered when each edge is axis-aligned with nonzero length and
    each vertex lies within _FAR of the origin on both axes; other rings get
    no rectangles, and their candidates all go to the kernel. The interior
    is cut into slabs between consecutive vertex y values (but for a slab
    whose midline rounds onto one), and each slab into x intervals between
    paired vertical edges. Ring r's rectangles are columns first[r]:first[r]
    + count[r] of `box` [4, n_rects] (lox, loy, hix, hiy); `span` [2,
    n_rings] bounds the 2D components of the links they may decide (see
    below).

    Why a hit is blocked for los_blocked. Let F be the prism's ring taken
    closed, [s0, s1] the clip of P(t) = a + t d against one of its
    rectangles, and t* a point of [s0 + _INSET, s1 - _INSET] where
    a[2] + t* dz < lim (the roof less EPS). P(t*) is in F; let [T0, T1] be
    the largest parameter interval around t* on which P stays in F.
    1. If T0 > 0, P(T0) lies on an edge the link crosses (one across the
       link: where the link runs along a wall, the edge at that wall's
       end). Each nonzero component of d is at least 2 EPS / (shortest
       edge), so that edge's denominator exceeds EPS, and at most _SPAN
       times the shortest edge, which keeps the rounding of its edge
       parameter u (about 4 ulp(1) |d| / edge length) within the EPS
       window. So los_blocked lists the crossing, a few ulps from T0, and
       after its dedup some kept parameter lies at most EPS below that. The
       same holds at T1 < 1; 0 and 1 are always listed.
    2. _INSET exceeds EPS plus those ulps, so the sub-interval [lo, hi] of
       los_blocked holding t* has lo >= T0 - EPS - ulps and hi <= T1 +
       ulps: its midpoint lies strictly inside (T0, T1), in F.
    3. Coordinates within _FAR and components within _FAR put the computed
       midpoint a few ulps of 2e5 m (under 1e-10 m) from the exact one.
       Parity on axis-aligned edges is exact (a crossing's abscissa is its
       edge's own x), so the computed midpoint is inside by parity or within
       EPS of the outline: the sub-interval is inside, and its merged
       interval, longer than EPS, is kept.
    4. The EPS-grown box holds the rectangle, so that interval clamped to
       the box clip still holds t*. Heights are a[2] + t dz on both sides,
       and rounding is monotone, so its lower end is at most the height at
       t*, below lim. Candidates come through the outcodes, so the link
       meets the box and not both its ends are at or above lim, the two
       cases los_blocked skips: it finds the pair blocked.
    A link with dx = dy = 0 is a point of F, for which los_blocked tests
    [0, 1], of which t* is a point; every nonzero component exceeds EPS, so
    no other link takes los_blocked's vertical branch.

    _INSET and both terms of the lower span bound each have a test that
    fails without them. No test reaches the upper span bound or _FAR, but
    the proof needs them: they matter only for links a million times longer
    than their ring's shortest edge, or coordinates far from the origin.
    Shrinking the rectangles or a height margin would add nothing: a
    rectangle is closed in F, and step 4 is exact. When footprints keep
    their holes, the cover must be built from all of a prism's rings by the
    same even-odd rule.
    """

    def __init__(self, rings: _Rings):
        x1, y1, _, _, ex, ey = rings.table
        axis = ((ex == 0.0) != (ey == 0.0)) | ~rings.valid  # padding has ex = ey = 0
        far = np.where(rings.valid, np.maximum(np.abs(x1), np.abs(y1)), 0.0).max(
            axis=1, initial=0.0)
        ids = np.flatnonzero(axis.all(axis=1) & (far <= _FAR))
        short = np.where(rings.valid[ids], np.abs(ex[ids]) + np.abs(ey[ids]), np.inf).min(
            axis=1, initial=np.inf)
        self.span = np.zeros((2, len(rings.width)))
        self.span[:, ids] = 2 * EPS * np.maximum(1.0, 1.0 / short), np.minimum(_FAR, _SPAN * short)
        ids = ids[np.argsort(rings.width[ids], kind="stable")]
        parts = [_slab_rects(rings, ids[start:end], rings.width[ids[end - 1]])
                 for start, end in _width_slices(rings.width[ids], lambda w: w * w)]
        ring = np.concatenate([np.empty(0, dtype=np.intp)] + [r for r, _ in parts])
        box = np.concatenate([np.empty((4, 0))] + [b for _, b in parts], axis=1)
        order = np.argsort(ring, kind="stable")
        self.box = box.take(order, axis=1)
        self.count = np.bincount(ring, minlength=len(rings.width))
        self.first = np.cumsum(self.count) - self.count

    def blocks(self, a, b, ring_ids, lim) -> np.ndarray:
        """Which candidates a[k] -> b[k], prism ring_ids[k], some rectangle
        of their ring proves blocked below lim[ring_ids[k]]; False is no
        decision. (candidate, rectangle) rows go through _slab_clip
        `_QUEUE_PAIRS` at a time."""
        d = np.abs(b[:, :2] - a[:, :2])
        lo, hi = self.span.take(ring_ids, axis=1)
        fine = ((d == 0.0) | ((d >= lo[:, None]) & (d <= hi[:, None]))).all(axis=1)
        rows = np.flatnonzero(fine & (self.count.take(ring_ids) > 0))
        n = self.count.take(ring_ids.take(rows))
        ends = np.cumsum(n)
        blocked = np.zeros(len(a), dtype=bool)
        start = 0
        while start < rows.size:
            end = max(start + 1, int(np.searchsorted(ends, ends[start] - n[start] + _QUEUE_PAIRS,
                                                      side="right")))
            k, c = rows[start:end], n[start:end]
            rep = np.repeat(k, c)
            rect = np.repeat(self.first.take(ring_ids.take(k)) - np.cumsum(c) + c, c) \
                + np.arange(rep.size)
            box = np.vstack([self.box.take(rect, axis=1), lim.take(ring_ids.take(rep))])
            hit, _, _ = _slab_clip(a.take(rep, axis=0), b.take(rep, axis=0), box, _INSET)
            blocked[rep[hit]] = True
            start = end
        return blocked


def _slab_rects(rings: _Rings, ids, width) -> tuple[np.ndarray, np.ndarray]:
    """(ring, box [4, n]) of the _Cover rectangles of rings ids, cut to `width`
    columns: temporaries of len(ids) x width x width elements."""
    x1, y1, _, y2, ex, _ = rings.table[:, ids, :width]
    valid = rings.valid[ids, :width]
    ys = np.sort(np.where(valid, y1, np.inf), axis=1)
    lo, hi = ys[:, :-1], ys[:, 1:]
    mid = 0.5 * (lo + hi)
    # a slab's midline must miss every vertex, or its crossings may not pair
    slab = (lo < mid) & (mid < hi)
    mid = mid[:, :, None]
    crosses = ((valid & (ex == 0.0))[:, None, :] & (np.minimum(y1, y2)[:, None, :] < mid)
               & (mid < np.maximum(y1, y2)[:, None, :]))
    xs = np.sort(np.where(crosses, x1[:, None, :], np.inf), axis=2)
    pairs = xs[:, :, :width - width % 2].reshape(len(ids), width - 1, -1, 2)
    left, right = pairs[..., 0], pairs[..., 1]
    r, s, _ = keep = np.nonzero((left < right) & slab[:, :, None])
    return ids[r], np.stack([left[keep], lo[r, s], right[keep], hi[r, s]])


def _slices_blocked(a, b, t0, t1, ring_ids, rings: _Rings, boxes) -> np.ndarray:
    """Which queued candidates (a[k] -> b[k], clipped to [t0[k], t1[k]],
    prism ring_ids[k]) are blocked.

    The rows go to the kernel in plain slices of full-width edge rows, whose
    rows x (2 widest ring + 2) parameter columns stay within _SLICE_ELEMS.
    """
    widest = rings.valid.shape[1]
    step = max(1, _SLICE_ELEMS // (2 * widest + 2))
    blocked = np.empty(len(a), dtype=bool)
    for s in range(0, len(a), step):
        r = slice(s, s + step)
        blocked[r] = _prism_blocks(a[r], b[r], t0[r], t1[r], rings.rows(ring_ids[r], widest),
                                   boxes.take(ring_ids[r], axis=1))
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
