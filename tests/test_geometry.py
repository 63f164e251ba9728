import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsplace import geometry
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.geometry import (
    Segment3,
    los_blocked,
    los_mask,
    outline_distance,
    point_in_polygon,
    point_to_polygon_distance,
    segment_polygon_interval,
)
from bsplace.scene import (
    BuildingPrism,
    ClassRaster,
    Dsm,
    SceneConfig,
    build_scene,
    extract_buildings,
)

from conftest import make_segment, pinch_heavy_classes, rect_prism

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_segment3_validates_endpoints():
    with pytest.raises(ValueError):
        Segment3(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        Segment3(np.zeros(2), np.ones(2))


def test_point_in_polygon_square():
    assert point_in_polygon([0.5, 0.5], UNIT_SQUARE)
    assert not point_in_polygon([1.5, 0.5], UNIT_SQUARE)
    assert not point_in_polygon([-0.1, 0.5], UNIT_SQUARE)
    # boundary and vertices count as inside
    assert point_in_polygon([1.0, 0.5], UNIT_SQUARE)
    assert point_in_polygon([0.0, 0.0], UNIT_SQUARE)
    assert point_in_polygon([0.5, 1.0], UNIT_SQUARE)


def test_point_in_polygon_concave():
    # L-shape: the notch around (1.5, 1.5) is outside
    poly = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    assert point_in_polygon([0.5, 0.5], poly)
    assert point_in_polygon([0.5, 1.5], poly)
    assert not point_in_polygon([1.5, 1.5], poly)


def test_point_to_polygon_distance():
    assert point_to_polygon_distance([0.5, 0.5], UNIT_SQUARE) == 0.0
    assert point_to_polygon_distance([1.0, 0.5], UNIT_SQUARE) == 0.0
    assert point_to_polygon_distance([2.0, 0.5], UNIT_SQUARE) == pytest.approx(1.0)
    assert point_to_polygon_distance([2.0, 2.0], UNIT_SQUARE) == pytest.approx(np.sqrt(2.0))


def _distance_to_one_ring(px, py, ring):
    return outline_distance(px, py, [ring], np.zeros(len(px), dtype=int))


def test_outline_distance_hand_values():
    px = np.array([0.5, 1.0, 0.0, 2.0, 2.0, -0.5])
    py = np.array([0.5, 0.5, 0.0, 0.5, 2.0, 0.5])
    np.testing.assert_array_equal(_distance_to_one_ring(px, py, UNIT_SQUARE),
                                  [0.0, 0.0, 0.0, 1.0, np.sqrt(2.0), 0.5])
    assert _distance_to_one_ring(np.empty(0), np.empty(0), UNIT_SQUARE).shape == (0,)
    assert outline_distance(np.empty(0), np.empty(0), [], np.empty(0, dtype=int)).shape == (0,)
    # exactly EPS off the outline still counts as on it; 2 EPS does not
    eps = geometry.EPS
    d = _distance_to_one_ring(np.array([0.5, 0.5]), np.array([-eps, -2 * eps]), UNIT_SQUARE)
    assert d.tolist() == [0.0, point_to_polygon_distance([0.5, -2 * eps], UNIT_SQUARE)]
    assert d[1] > 0.0


def test_segment_polygon_interval_clean_crossing():
    # Horizontal chord through the square: inside for x in [0, 1],
    # i.e. t in [1/3, 2/3] of the segment (-1, .5) -> (2, .5).
    ivals = segment_polygon_interval([-1.0, 0.5], [2.0, 0.5], UNIT_SQUARE)
    assert len(ivals) == 1
    t0, t1 = ivals[0]
    assert t0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert t1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_segment_polygon_interval_inside_and_miss():
    inside = segment_polygon_interval([0.2, 0.2], [0.8, 0.8], UNIT_SQUARE)
    assert inside == [(0.0, 1.0)]
    assert segment_polygon_interval([2.0, 2.0], [3.0, 2.0], UNIT_SQUARE) == []


def test_los_blocked_hand_case():
    # Segment (0,0,25) -> (10,0,2): z(t) = 25 - 23 t. A prism spanning
    # x in [4, 6] intersects at t in [0.4, 0.6], where z runs 15.8 down
    # to 11.2. Roof below 11.2 clears, roof at 12 blocks.
    a = [0.0, 0.0, 25.0]
    b = [10.0, 0.0, 2.0]
    low = rect_prism(4.0, -1.0, 6.0, 1.0, 0.0, 11.0)
    high = rect_prism(4.0, -1.0, 6.0, 1.0, 0.0, 12.0)
    assert not los_blocked(make_segment(a, b), [low])
    assert los_blocked(make_segment(a, b), [high])
    assert los_blocked(make_segment(a, b), [low, high])


def test_los_blocked_solid_below_roof():
    # 2.5D world: inside the footprint everything below the roof is solid,
    # so a ray under the recorded base elevation is still blocked.
    a = [0.0, 0.0, 25.0]
    b = [10.0, 0.0, 2.0]
    hillside = rect_prism(4.0, -1.0, 6.0, 1.0, 16.0, 30.0)
    grounded = rect_prism(4.0, -1.0, 6.0, 1.0, 0.0, 30.0)
    assert los_blocked(make_segment(a, b), [hillside])
    assert los_blocked(make_segment(a, b), [grounded])


def test_los_blocked_endpoint_inside_prism():
    prism = rect_prism(0.0, 0.0, 10.0, 10.0, 0.0, 20.0)
    seg = make_segment([5.0, 5.0, 1.5], [50.0, 5.0, 1.5])
    assert los_blocked(seg, [prism])


def test_los_blocked_vertical_link():
    # zero 2D extent: a mast right above (or away from) the user
    prism = rect_prism(0.0, 0.0, 10.0, 10.0, 0.0, 20.0)
    inside = make_segment([5.0, 5.0, 1.5], [5.0, 5.0, 30.0])
    above = make_segment([5.0, 5.0, 25.0], [5.0, 5.0, 30.0])
    outside = make_segment([50.0, 50.0, 1.5], [50.0, 50.0, 30.0])
    assert los_blocked(inside, [prism])
    assert not los_blocked(above, [prism])
    assert not los_blocked(outside, [prism])


def test_los_blocked_over_the_roof():
    prism = rect_prism(4.0, -1.0, 6.0, 1.0, 0.0, 10.0)
    seg = make_segment([0.0, 0.0, 30.0], [10.0, 0.0, 30.0])
    assert not los_blocked(seg, [prism])


def _random_prisms(rng, n, extent=100.0):
    prisms = []
    for _ in range(n):
        x0, y0 = rng.uniform(0.0, extent - 15.0, size=2)
        w, h = rng.uniform(4.0, 15.0, size=2)
        top = rng.uniform(5.0, 30.0)
        prisms.append(rect_prism(x0, y0, x0 + w, y0 + h, 0.0, top))
    return prisms


def test_los_blocked_symmetric():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        prisms = _random_prisms(rng, 6)
        for _ in range(8):
            a = np.append(rng.uniform(0, 100, size=2), rng.uniform(1.0, 35.0))
            b = np.append(rng.uniform(0, 100, size=2), rng.uniform(1.0, 35.0))
            if np.array_equal(a, b):
                continue
            fwd = los_blocked(make_segment(a, b), prisms)
            rev = los_blocked(make_segment(b, a), prisms)
            assert fwd == rev, f"seed {seed}: asymmetric for {a} {b}"


def test_los_clear_stays_clear_when_raised():
    # With all prisms grounded, lifting both endpoints by the same amount
    # can only move the ray further above every roof.
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        prisms = _random_prisms(rng, 6)
        for _ in range(8):
            a = np.append(rng.uniform(0, 100, size=2), rng.uniform(1.0, 35.0))
            b = np.append(rng.uniform(0, 100, size=2), rng.uniform(1.0, 35.0))
            if np.array_equal(a[:2], b[:2]):
                continue
            if los_blocked(make_segment(a, b), prisms):
                continue
            lift = rng.uniform(0.5, 20.0)
            a2 = a + np.array([0.0, 0.0, lift])
            b2 = b + np.array([0.0, 0.0, lift])
            assert not los_blocked(make_segment(a2, b2), prisms)


def test_los_mask_matches_pairwise():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        prisms = _random_prisms(rng, 5)
        origins = np.column_stack([
            rng.uniform(0, 100, size=6),
            rng.uniform(0, 100, size=6),
            rng.uniform(1.0, 3.0, size=6),
        ])
        targets = np.column_stack([
            rng.uniform(0, 100, size=4),
            rng.uniform(0, 100, size=4),
            rng.uniform(10.0, 40.0, size=4),
        ])
        mask = los_mask(origins, targets, prisms)
        assert mask.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                expect = not los_blocked(make_segment(origins[i], targets[j]), prisms)
                assert mask[i, j] == expect


def test_los_mask_no_prisms_all_clear():
    origins = np.array([[0.0, 0.0, 1.5], [10.0, 0.0, 1.5]])
    targets = np.array([[50.0, 50.0, 20.0]])
    assert los_mask(origins, targets, []).all()


@pytest.mark.parametrize("offset, blocked", [(1.0, True), (2.0, False)])
def test_los_mask_link_along_a_wall_at_eps(offset, blocked):
    # The link runs parallel to the wall y = 0, `offset` EPS outside it. At
    # exactly EPS its overlap with the wall counts as on the outline. Each
    # quarter turn of the scene puts the wall on another side of the
    # bounding box, so the tie meets every wall bit of los_mask's outcodes.
    prism = rect_prism(0.0, 0.0, 1.0, 1.0, 0.0, 10.0)
    y = -offset * geometry.EPS
    a, b = np.array([-1.0, y, 2.0]), np.array([2.0, y, 3.0])
    for _ in range(4):
        assert los_blocked(make_segment(a, b), [prism]) == blocked
        assert los_mask(a[None], b[None], [prism])[0, 0] == (not blocked)
        prism = BuildingPrism(prism.footprint[:, ::-1] * [-1.0, 1.0], 0.0, 10.0)
        a, b = a[[1, 0, 2]] * [-1.0, 1.0, 1.0], b[[1, 0, 2]] * [-1.0, 1.0, 1.0]


@pytest.mark.parametrize("offset, blocked", [(1.0, False), (2.0, True)])
def test_los_mask_link_ending_below_the_roof_at_eps(offset, blocked):
    # The link descends from above a 0.5 m roof to a target inside the
    # footprint, `offset` EPS below the roof. At exactly EPS the tie breaks
    # toward line of sight, though the kernel's interpolated height at the
    # target, 1.0 + (z - 1.0), rounds below the roof less EPS.
    prism = rect_prism(0.0, 0.0, 1.0, 1.0, 0.0, 0.5)
    a, b = np.array([-1.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5 - offset * geometry.EPS])
    assert los_blocked(make_segment(a, b), [prism]) == blocked
    assert los_mask(a[None], b[None], [prism])[0, 0] == (not blocked)


def _hug(x):
    """y of a link 0.7 to 0.8 EPS below the wall y = 0 over x in [0, 10],
    at a slope too small to cross it there."""
    return -0.75e-9 + (x - 5.0) * 1e-11


# Footprints whose long wall y = 0 ends in 0.5 m edges at x = 10: a link on
# _hug passes them outside their parameter windows (0.5 EPS). The slot in
# the second, with 2 m walls, gives the link two parameters inside the box.
_HUG_RECT = [[0.0, 0.0], [10.0, 0.0], [10.0, 0.5], [0.0, 0.5]]
_HUG_SLOT = [[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [2.0, 2.0], [2.0, 0.0], [10.0, 0.0],
             [10.0, 0.5], [9.5, 0.5], [9.5, 2.5], [0.0, 2.5]]


@pytest.mark.parametrize("ring, a, b", [
    # the link's only interval is (0, 1), judged inside by its midpoint
    # within EPS of the wall; its low end is 100 m away from the prism, and
    # the link is 5 m above the roof wherever it passes the box
    (_HUG_RECT, (-100.0, 1.5), (110.0, 30.0)),
    # (slot, 1): its midpoint hugs the wall, its end at 1 is below the roof
    # but outside the box, the link is above the roof all over the box
    (_HUG_SLOT, (-100.0, 100.0), (10.5, 9.9)),
])
def test_los_mask_link_hugging_a_wall_past_short_edges(ring, a, b):
    # The roof test looks only at the part of an inside interval within the
    # prism's EPS-grown bounding box, so these links are clear both ways.
    prism = BuildingPrism(np.array(ring), 0.0, 10.0)
    a = np.array([a[0], _hug(a[0]), a[1]])
    b = np.array([b[0], _hug(b[0]), b[1]])
    assert not los_blocked(make_segment(a, b), [prism])
    assert not los_blocked(make_segment(b, a), [prism])
    assert los_mask(a[None], b[None], [prism])[0, 0]
    assert los_mask(b[None], a[None], [prism])[0, 0]


def _kernel_blocks(a, b, prism):
    """_prism_blocks on the link's slab clip, whether or not the clip keeps it."""
    a, b = np.array([a], dtype=float), np.array([b], dtype=float)
    box = geometry._clip_boxes([prism])
    _, t0, t1 = geometry._slab_clip(a, b, box)
    edges = geometry._Rings([prism.footprint]).rows(np.array([0]), len(prism.footprint))
    return bool(geometry._prism_blocks(a, b, t0, t1, edges, box)[0])


@pytest.mark.parametrize("x_end", [10.0 + 2e-9, 10.0 + 5e-7])
def test_los_mask_roof_crossed_just_past_the_box(x_end):
    # A hugging link (one interval, (0, 1)) that falls through the roof less
    # EPS at x_end: 1 EPS past the prism's EPS-grown box, or half a
    # micrometre past it, inside the guard of the midpoint skip. Over the box
    # it is above the roof, so it is clear. The kernel alone, on the link's
    # clip, agrees: it clamps each interval to the clip before its height
    # test.
    prism = BuildingPrism(np.array(_HUG_RECT), 0.0, 10.0)
    lim = 10.0 - geometry.EPS
    a = np.array([-100.0, _hug(-100.0), lim + 0.1 * (x_end + 100.0)])
    b = np.array([110.0, _hug(110.0), lim - 0.1 * (110.0 - x_end)])
    for a, b in ((a, b), (b, a)):
        assert not los_blocked(make_segment(a, b), [prism])
        assert los_mask(a[None], b[None], [prism])[0, 0]
        assert not _kernel_blocks(a, b, prism)
    # the same link lowered by 1 mm is below the roof less EPS inside the box
    low = np.array([0.0, 0.0, 1e-3])
    assert los_blocked(make_segment(a - low, b - low), [prism])
    assert not los_mask((a - low)[None], (b - low)[None], [prism])[0, 0]


def test_slab_clip_link_on_the_box_side():
    # A link with dx == 0 on x = minx - EPS lies on the side of the clip box:
    # that slab bounds nothing (its 0 / 0 is passed over, with no warning).
    prism = rect_prism(3.0, 1.0, 5.0, 2.0, 0.0, 10.0)
    x = 3.0 - geometry.EPS
    a, b = np.array([[x, 0.0, 1.5]]), np.array([[x, 4.0, 2.5]])
    box = geometry._clip_boxes([prism])
    assert box[0, 0] == x
    keep, t0, t1 = geometry._slab_clip(a, b, box)
    assert keep[0] and t0[0] == box[1, 0] / 4.0 and t1[0] == box[3, 0] / 4.0
    for a, b in ((a[0], b[0]), (b[0], a[0])):
        assert los_mask(a[None], b[None], [prism])[0, 0] == (
            not los_blocked(make_segment(a, b), [prism]))


_ELL = [[20.0, 5.0], [24.0, 5.0], [24.0, 7.0], [22.0, 7.0], [22.0, 9.0], [20.0, 9.0]]
# its notch holds the origin, 1 m from the nearest edges
_ELL_AROUND_ORIGIN = [[-2.0, -2.0], [2.0, -2.0], [2.0, -1.0], [-1.0, -1.0], [-1.0, 2.0],
                     [-2.0, 2.0]]
_U = [[20.0, 5.0], [24.0, 5.0], [24.0, 9.0], [23.0, 9.0], [23.0, 6.0], [21.0, 6.0],
      [21.0, 9.0], [20.0, 9.0]]


def test_los_mask_padding_adds_no_parameter():
    # Each narrow ring's rows share a kernel slice with its wide ring's, so
    # they are padded to the wide ring's width. Zero padding is a
    # zero-length edge at the origin. As an interval parameter it would
    # split the low hugging link's only interval (0, 1) at x = 0 into two
    # with midpoints far outside the rectangle (clear); as an outline edge
    # it would put the midpoint of the link through the L's notch, the
    # origin, on the L's outline (blocked).
    for narrow, wide, probe, clear in [
        (_HUG_RECT, _ELL, [(-100.0, _hug(-100.0), 1.5), (110.0, _hug(110.0), 5.0)], False),
        (_ELL_AROUND_ORIGIN, _U, [(-0.5, 0.0, 1.5), (0.5, 0.0, 1.5)], True),
    ]:
        prisms = [BuildingPrism(np.array(narrow), 0.0, 10.0),
                  BuildingPrism(np.array(wide), 0.0, 30.0)]
        origins = [probe[0], (15.0, 5.5, 1.5)]
        targets = [probe[1], (30.0, 5.5, 1.5)]
        mask = los_mask(origins, targets, prisms)
        for i, a in enumerate(origins):
            for j, b in enumerate(targets):
                assert mask[i, j] == (not los_blocked(make_segment(a, b), prisms)), (a, b)
        assert mask[0, 0] == clear and not mask[1, 1]  # the probe, and a link through the wide ring


def test_outline_ignores_padding():
    rect = np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0], [1.0, 2.0]])
    rings = geometry._Rings([rect, np.array(_HUG_SLOT)])
    padded = rings.rows(np.array([0]), 10)
    assert padded.valid is not None and not padded.valid.all()
    px, py = np.array([0.0, 2.0, 5.0]), np.array([0.0, 1.5, 1.0])
    d2, odd = geometry._outline(px, py, padded)
    e2, eodd = geometry._outline(px, py, geometry._Rings([rect]).rows(np.zeros(3, int), 4))
    np.testing.assert_array_equal(d2, e2)
    np.testing.assert_array_equal(odd, eodd)


def test_los_mask_slanted_prism_near_parallel_links():
    # Links nearly parallel to a slanted edge, over and under the roof.
    # Rounding can put a crossing parameter of a grazing edge far along such
    # a link, outside the prism's box, where the roof test does not look.
    prism = BuildingPrism(np.array([[0.0, 0.0], [8.0, 6.0], [5.0, 10.0], [-3.0, 4.0]]), 0.0, 10.0)
    rng = np.random.default_rng(5)
    origins, targets = [], []
    for off in (0.0, 0.5e-9, 1e-9, 2e-9, 1e-6, 0.1):
        for z0, z1 in ((1.5, 30.0), (12.0, 30.0), (30.0, 1.5)):
            lo, hi = rng.uniform(-60.0, -1.0), rng.uniform(9.0, 60.0)
            # points along the edge (0,0)-(8,6), pushed `off` outward
            n = np.array([0.6, -0.8]) * off
            origins.append([*(np.array([0.8, 0.6]) * lo + n), z0])
            targets.append([*(np.array([0.8, 0.6]) * hi + n), z1])
    mask = los_mask(origins, targets, [prism])
    for i, a in enumerate(origins):
        for j, b in enumerate(targets):
            assert mask[i, j] == (not los_blocked(make_segment(a, b), [prism])), (a, b)


def test_bbox_prefilter_does_not_change_results():
    # A prism far away from every segment must never register.
    far = rect_prism(1000.0, 1000.0, 1010.0, 1010.0, 0.0, 50.0)
    seg = make_segment([0.0, 0.0, 1.5], [100.0, 100.0, 1.5])
    assert not los_blocked(seg, [far])
    assert not geometry._bbox_overlap(seg.a[:2], seg.b[:2], far.bbox)


# ---------------------------------------------------------------------------
# Exactness of the vectorized los_mask against the scalar los_blocked oracle

HALF_M = 0.5  # lattice pitch: collinear edges, vertex hits and EPS ties all occur


def _lattice(lo, hi):
    return st.integers(int(lo / HALF_M), int(hi / HALF_M)).map(lambda k: k * HALF_M)


@st.composite
def _footprints(draw):
    """Rectangle, L or U footprint on the lattice, counterclockwise."""
    x0, y0 = draw(_lattice(0, 12)), draw(_lattice(0, 12))
    w, h = draw(_lattice(1.5, 8)), draw(_lattice(1.5, 8))
    x1, y1 = x0 + w, y0 + h
    kind = draw(st.sampled_from(["rect", "L", "U"]))
    if kind == "rect":
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    elif kind == "L":
        cx = x0 + draw(_lattice(HALF_M, w - HALF_M))
        cy = y0 + draw(_lattice(HALF_M, h - HALF_M))
        ring = [(x0, y0), (x1, y0), (x1, cy), (cx, cy), (cx, y1), (x0, y1)]
    else:
        # notch in the top edge, one lattice step in from either side
        ax = x0 + HALF_M
        bx = x1 - HALF_M
        cy = y0 + draw(_lattice(HALF_M, h - HALF_M))
        ring = [(x0, y0), (x1, y0), (x1, y1), (bx, y1), (bx, cy), (ax, cy), (ax, y1), (x0, y1)]
    top = draw(_lattice(HALF_M, 20))
    return BuildingPrism(footprint=np.array(ring), base_elev=0.0, top_elev=top)


_points = st.tuples(_lattice(-2, 22), _lattice(-2, 22), _lattice(0, 24))


@st.composite
def _tie_link(draw, prism):
    """An origin and a target on the edge of the prism's trivial reject: both
    ends s = EPS / 2, EPS or 2 EPS past one wall of its bounding box, or the
    target inside the footprint s below the roof and the origin above it, or
    a diagonal link passing one corner of the box s outside both walls. The
    outcodes pass the corner link (its ends are past different walls), so
    the slab clip decides it."""
    minx, miny, maxx, maxy = prism.bbox
    top = prism.top_elev
    s = draw(st.sampled_from([0.5, 1.0, 2.0])) * geometry.EPS
    side = draw(st.sampled_from(["minx", "maxx", "miny", "maxy", "roof", "corner"]))
    if side == "corner":
        sx, sy = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        cx, cy = (maxx if sx > 0 else minx) + sx * s, (maxy if sy > 0 else miny) + sy * s
        # (cx + sx l, cy - sy l) runs along the corner at 45 degrees; at l = 0
        # it is s outside both walls
        return [(cx + sx * l, cy - sy * l, draw(_lattice(0, top + 2)))
                for l in (draw(_lattice(HALF_M, 6)), -draw(_lattice(HALF_M, 6)))]
    if side == "roof":
        return ((draw(_lattice(-2, 22)), draw(_lattice(-2, 22)), top + draw(_lattice(0, 4))),
                (minx + HALF_M / 2, miny + HALF_M / 2, top - s))  # every kind holds this corner
    wall = {"minx": minx - s, "maxx": maxx + s, "miny": miny - s, "maxy": maxy + s}[side]
    lo, hi = (miny, maxy) if side in ("minx", "maxx") else (minx, maxx)
    ends = [(wall, draw(_lattice(lo - 1, hi + 1)), draw(_lattice(0, top))) for _ in range(2)]
    if side in ("miny", "maxy"):
        ends = [(u, w, z) for w, u, z in ends]
    return ends


@settings(max_examples=300, deadline=None)
@given(
    prisms=st.lists(_footprints(), min_size=1, max_size=4),
    origins=st.lists(_points, min_size=1, max_size=5),
    targets=st.lists(_points, min_size=1, max_size=5),
    above=st.lists(_lattice(0, 24), max_size=3),
    data=st.data(),
)
def test_los_mask_matches_oracle_on_lattice(prisms, origins, targets, above, data):
    # targets straight above (or below) an origin give vertical links
    targets = targets + [(origins[0][0], origins[0][1], z) for z in above]
    tie_origin, tie_target = data.draw(_tie_link(data.draw(st.sampled_from(prisms))))
    origins, targets = origins + [tie_origin], targets + [tie_target]
    mask = los_mask(origins, targets, prisms)
    for i, a in enumerate(origins):
        for j, b in enumerate(targets):
            if a == b:
                continue  # not a segment; the oracle rejects it
            assert mask[i, j] == (not los_blocked(make_segment(a, b), prisms)), (a, b)


# nudges that put a point just inside, on or just outside the EPS band of an edge
_NUDGES = [0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-3, -1e-3, 0.7, -0.7]


@st.composite
def _outline_points(draw, ring):
    """Points on vertices, on or next to edges, and anywhere on the lattice."""
    n = len(ring)
    kind = draw(st.sampled_from(["vertex", "edge", "lattice"]))
    if kind == "lattice":
        return draw(_lattice(-2, 22)), draw(_lattice(-2, 22))
    k = draw(st.integers(0, n - 1))
    s = 0.0 if kind == "vertex" else draw(
        st.one_of(st.sampled_from([0.25, 0.5, 1 / 3]), st.floats(0.0, 1.0)))
    x, y = ring[k] + s * (ring[(k + 1) % n] - ring[k])
    return x + draw(st.sampled_from(_NUDGES)), y + draw(st.sampled_from(_NUDGES))


@settings(max_examples=300, deadline=None)
@given(prisms=st.lists(_footprints(), min_size=1, max_size=3), data=st.data())
def test_outline_distance_matches_oracle_on_lattice(prisms, data):
    rings = [p.footprint for p in prisms]
    ids = data.draw(st.lists(st.integers(0, len(rings) - 1), min_size=1, max_size=8))
    pts = [data.draw(_outline_points(rings[k])) for k in ids]
    px, py = np.array(pts).T
    got = outline_distance(px, py, rings, ids)
    expect = [point_to_polygon_distance(p, rings[k]) for p, k in zip(pts, ids)]
    assert got.tolist() == expect, (pts, ids)


def test_outline_distance_many_rings_across_slices():
    # enough points that the rings of several widths take several _outline slices
    rng = np.random.default_rng(3)
    rings = [np.array(_HUG_SLOT), UNIT_SQUARE * 3.0,
             np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [0, 3]], dtype=float)]
    ids = rng.integers(0, len(rings), 3000)
    px, py = rng.uniform(-2.0, 6.0, (2, ids.size))
    got = outline_distance(px, py, rings, ids)
    expect = [point_to_polygon_distance((x, y), rings[k]) for x, y, k in zip(px, py, ids)]
    assert got.tolist() == expect


def _generated_scene(seed):
    raster, dsm = generate_synthetic_scene(GeneratorConfig(width=60, height=60), seed)
    return build_scene(raster, dsm, SceneConfig(user_spacing_m=6.0, candidate_pitch_m=10.0))


def test_los_mask_matches_oracle_on_generated_scene():
    s = _generated_scene(11)
    users, sites = s.user_positions(), s.candidate_positions()
    assert len(s.buildings) > 0 and users.shape[0] * sites.shape[0] > 1000
    mask = los_mask(users, sites, s.buildings)
    expect = np.array([[not los_blocked(make_segment(u, c), s.buildings) for c in sites]
                       for u in users])
    np.testing.assert_array_equal(mask, expect)
    assert 0 < mask.sum() < mask.size  # both outcomes are exercised


@pytest.mark.parametrize("cap", [1, 7, 100])
def test_los_mask_block_cap_does_not_change_result(monkeypatch, cap):
    s = _generated_scene(12)
    users, sites = s.user_positions(), s.candidate_positions()
    full = los_mask(users, sites, s.buildings)
    monkeypatch.setattr(geometry, "_SLICE_ELEMS", cap)
    monkeypatch.setattr(geometry, "_QUEUE_PAIRS", cap)
    monkeypatch.setattr(geometry, "_SCAN_PAIRS", cap)
    np.testing.assert_array_equal(los_mask(users, sites, s.buildings), full)


@settings(max_examples=200, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=60), size=st.integers(1, 9),
       scan=st.integers(1, 70))
def test_true_chunks_are_flatnonzero_in_chunks(flags, size, scan):
    flags = np.array(flags, dtype=bool)
    want = np.flatnonzero(flags)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_SCAN_PAIRS", scan)
        chunks = list(geometry._true_chunks(flags, size))
    assert [len(c) for c in chunks] == [len(c) for c in np.split(want, range(size, len(want), size))
                                        if len(c)]
    np.testing.assert_array_equal(np.concatenate(chunks) if chunks else want, want)


# Tiny slices and queues: a kernel call then holds rows of several prisms
# (queue 2-3 with room in the slice), or one prism's candidates are split
# over several calls (slice of 1-2 rows, queue of 1).
_TINY = [(1, 1), (1, 3), (3, 2), (20, 1), (20, 3), (None, 2), (1, None)]


def _patched(monkeypatch, slice_elems, queue_pairs):
    if slice_elems is not None:
        monkeypatch.setattr(geometry, "_SLICE_ELEMS", slice_elems)
    if queue_pairs is not None:
        monkeypatch.setattr(geometry, "_QUEUE_PAIRS", queue_pairs)


@pytest.mark.parametrize("slice_elems, queue_pairs", _TINY)
def test_los_mask_tiny_slices_match_pairwise(monkeypatch, slice_elems, queue_pairs):
    _patched(monkeypatch, slice_elems, queue_pairs)
    test_los_mask_matches_pairwise()


@settings(max_examples=100, deadline=None)
@given(
    prisms=st.lists(_footprints(), min_size=1, max_size=4),
    origins=st.lists(_points, min_size=1, max_size=5),
    targets=st.lists(_points, min_size=1, max_size=5),
    sizes=st.sampled_from(_TINY),
    data=st.data(),
)
def test_los_mask_tiny_slices_match_oracle_on_lattice(prisms, origins, targets, sizes, data):
    with pytest.MonkeyPatch.context() as mp:
        _patched(mp, *sizes)
        test_los_mask_matches_oracle_on_lattice.hypothesis.inner_test(
            prisms, origins, targets, [], data)


# ---------------------------------------------------------------------------
# The rectangle cover of rectilinear footprints


def _cover_rects(rings):
    """Each ring's cover rectangles, rows (lox, loy, hix, hiy)."""
    cover = geometry._Cover(geometry._Rings([np.asarray(r, dtype=float) for r in rings]))
    return [cover.box[:, f:f + c].T for f, c in zip(cover.first, cover.count)]


def _shoelace(ring):
    x, y = np.asarray(ring, dtype=float).T
    return abs((x * np.roll(y, -1) - np.roll(x, -1) * y).sum()) / 2


def _assert_tiles(ring, rects):
    """The rectangles are disjoint, fill the ring's area and lie inside it."""
    lox, loy, hix, hiy = rects.T
    assert len(rects) and (lox < hix).all() and (loy < hiy).all()
    overlap = ((np.minimum(hix[:, None], hix) > np.maximum(lox[:, None], lox))
               & (np.minimum(hiy[:, None], hiy) > np.maximum(loy[:, None], loy)))
    assert np.array_equal(overlap, np.eye(len(rects), dtype=bool))
    assert ((hix - lox) * (hiy - loy)).sum() == _shoelace(ring)
    g = 1e-6
    for x0, y0, x1, y1 in rects:
        for p in [(0.5 * (x0 + x1), 0.5 * (y0 + y1)), (x0 + g, y0 + g), (x1 - g, y0 + g),
                  (x1 - g, y1 - g), (x0 + g, y1 - g)]:
            assert point_in_polygon(p, ring), (p, ring)


@st.composite
def _slanted(draw):
    """A lattice footprint with one vertex moved off its axes: one slanted edge or more."""
    ring = draw(_footprints()).footprint.copy()
    ring[draw(st.integers(0, len(ring) - 1))] += draw(st.sampled_from([(0.25, 0.0), (0.0, -0.25)]))
    return ring


@settings(max_examples=200, deadline=None)
@given(prisms=st.lists(_footprints(), min_size=1, max_size=4),
       slanted=st.lists(_slanted(), max_size=2))
def test_cover_tiles_lattice_footprints(prisms, slanted):
    rings = [p.footprint for p in prisms]
    rects = _cover_rects(rings + slanted)
    for ring, r in zip(rings, rects):
        _assert_tiles(ring, r)
    assert all(len(r) == 0 for r in rects[len(rings):])  # slanted rings get none


@settings(max_examples=60, deadline=None)
@given(classes=pinch_heavy_classes(), cell=st.sampled_from([0.5, 1.0, 3.0]))
def test_cover_tiles_traced_footprints(classes, cell):
    # traced rings touch themselves at pinch corners and carry hundreds of vertices
    raster = ClassRaster(cell, (-7.5, 12.0), classes)
    prisms = extract_buildings(raster, Dsm(cell, (-7.5, 12.0), np.full(classes.shape, 9.0)))
    rings = [p.footprint for p in prisms]
    for ring, rects in zip(rings, _cover_rects(rings)):
        _assert_tiles(ring, rects)


def test_cover_edge_cases(monkeypatch):
    # a ring past _FAR gets no rectangles; a step one ulp high has a slab
    # whose midline rounds onto a vertex, so the slab gets none; a tiny slice
    # budget splits the slab passes one ring at a time without changing the
    # rectangles; no rings make an empty cover
    assert _cover_rects([]) == []
    comb = [(0, 0), (9, 0), (9, 3)] + [(x, y) for k in range(4, 0, -1)
                                       for x, y in ((2 * k, 3), (2 * k, 1), (2 * k - 1, 1),
                                                    (2 * k - 1, 3))] + [(0, 3)]
    up = np.nextafter(1.0, 2.0)
    stairs = [(0, 0), (3, 0), (3, 1), (2, 1), (2, up), (1, up), (1, 2), (0, 2)]
    rings = [comb, np.array(_ELL), np.array(_ELL) + geometry._FAR, stairs]
    full = _cover_rects(rings)
    assert [len(r) for r in full] == [6, 2, 0, 2]  # the comb: its back and 5 teeth
    np.testing.assert_array_equal(full[3], [[0, 0, 3, 1], [0, up, 1, 2]])
    monkeypatch.setattr(geometry, "_SLICE_ELEMS", 1)
    for a, b in zip(full, _cover_rects(rings)):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(
    prisms=st.lists(_footprints(), min_size=1, max_size=4),
    origins=st.lists(_points, min_size=1, max_size=5),
    targets=st.lists(_points, min_size=1, max_size=5),
    offset=st.tuples(_lattice(-1e4, 1e4), _lattice(-1e4, 1e4)),
    data=st.data(),
)
def test_los_mask_matches_oracle_on_translated_lattice(prisms, origins, targets, offset, data):
    # the same lattice up to 1e4 m from the origin, where coordinate ulps
    # reach 2e-12 m: the lattice stays exact, the EPS ties of _tie_link round
    ox, oy = offset
    prisms = [BuildingPrism(p.footprint + offset, p.base_elev, p.top_elev) for p in prisms]
    origins = [(x + ox, y + oy, z) for x, y, z in origins]
    targets = [(x + ox, y + oy, z) for x, y, z in targets]
    test_los_mask_matches_oracle_on_lattice.hypothesis.inner_test(
        prisms, origins, targets, [], data)


_STEP_H = 1e-3  # the short wall x = 5 of _STEP, from y = 0 to y = _STEP_H
_STEP = [[5.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [0.0, _STEP_H], [5.0, _STEP_H]]


@pytest.mark.parametrize("ring, top, a, b", [
    # _INSET: the target is 0.5 um inside the wall x = 0 at the end of a
    # 1 km link, so los_blocked's crossing lies 0.5 EPS before t = 1, which
    # its dedup drops; its only sub-interval is outside. The rectangle's clip
    # is 0.5 EPS long.
    (_HUG_RECT, 10.0, (-999.9999995, 0.25, 1.0), (0.5e-6, 0.25, 1.0)),
    # the lower span bound, 2 EPS: a link 0.9 EPS long each way, from 1.06
    # EPS outside the corner (0, 0) into the footprint, takes los_blocked's
    # vertical branch, which probes only its first end
    (_HUG_RECT, 10.0, (-0.75e-9, -0.75e-9, 1.0), (0.15e-9, 0.15e-9, 1.5)),
    # the lower span bound, 2 EPS / (shortest edge): dx * 1 mm is 0.5 EPS, so
    # los_blocked drops the crossing of the wall x = 5 and lists the wall's
    # ends as collinear; the link climbs through the roof less EPS inside the
    # 1 mm slab, where its sub-interval spans both ends and its midpoint lies
    # 2e-8 m outside the wall
    (_STEP, 60.0, (5.0 - 0.5e-6 * 0.59, -0.005, 0.0), (5.0 - 0.5e-6 * 0.59 + 0.5e-6, 0.005, 100.0)),
])
def test_los_mask_cover_guard_cases(ring, top, a, b):
    # each case fails when its guard term alone is 0; los_blocked finds one
    # direction clear, where a rectangle of the footprint holds the link
    # below the roof less EPS
    prism = BuildingPrism(np.array(ring), 0.0, top)
    a, b = np.array(a), np.array(b)
    results = []
    for a, b in ((a, b), (b, a)):
        results.append(los_blocked(make_segment(a, b), [prism]))
        assert los_mask(a[None], b[None], [prism])[0, 0] == (not results[-1]), (a, b)
    assert not all(results)
