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
from bsplace.scene import BuildingPrism, SceneConfig, build_scene

from conftest import make_segment, rect_prism

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


def test_outline_distance_hand_values():
    px = np.array([0.5, 1.0, 0.0, 2.0, 2.0, -0.5])
    py = np.array([0.5, 0.5, 0.0, 0.5, 2.0, 0.5])
    np.testing.assert_array_equal(outline_distance(px, py, UNIT_SQUARE),
                                  [0.0, 0.0, 0.0, 1.0, np.sqrt(2.0), 0.5])
    assert outline_distance(np.empty(0), np.empty(0), UNIT_SQUARE).shape == (0,)
    # exactly EPS off the outline still counts as on it; 2 EPS does not
    eps = geometry.EPS
    d = outline_distance(np.array([0.5, 0.5]), np.array([-eps, -2 * eps]), UNIT_SQUARE)
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
    target inside the footprint s below the roof and the origin above it."""
    minx, miny, maxx, maxy = prism.bbox
    top = prism.top_elev
    s = draw(st.sampled_from([0.5, 1.0, 2.0])) * geometry.EPS
    side = draw(st.sampled_from(["minx", "maxx", "miny", "maxy", "roof"]))
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
@given(prism=_footprints(), data=st.data())
def test_outline_distance_matches_oracle_on_lattice(prism, data):
    ring = prism.footprint
    pts = data.draw(st.lists(_outline_points(ring), min_size=1, max_size=8))
    px, py = np.array(pts).T
    got = outline_distance(px, py, ring)
    expect = [point_to_polygon_distance(p, ring) for p in pts]
    assert got.tolist() == expect, pts


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
    monkeypatch.setattr(geometry, "_SLICE_PAIRS", cap)
    np.testing.assert_array_equal(los_mask(users, sites, s.buildings), full)
