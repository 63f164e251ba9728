import json

import numpy as np
import pytest

from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.scene import (
    CANDIDATE_EXCLUDED,
    USER_CLASSES,
    USER_HEIGHT_M,
    CellClass,
    ClassRaster,
    Dsm,
    GridFormatError,
    GridMismatch,
    NoCandidates,
    NoValidUserCells,
    Scene,
    SceneConfig,
    SceneError,
    UnknownClassCode,
    build_scene,
    check_aligned,
    extract_buildings,
    load_dsm,
    load_raster,
    load_scene,
    place_candidates,
    place_users,
    save_dsm,
    save_raster,
    save_scene,
)


# ---------------------------------------------------------------------------
# Grid containers

def test_class_raster_validation():
    ok = ClassRaster(2, 2, 1.0, (0.0, 0.0), np.zeros((2, 2), dtype=int))
    assert ok.classes.dtype == np.int16
    with pytest.raises(SceneError):
        ClassRaster(2, 2, 1.0, (0.0, 0.0), np.zeros((3, 2), dtype=int))
    with pytest.raises(SceneError):
        ClassRaster(2, 2, -1.0, (0.0, 0.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(SceneError):
        ClassRaster(2, 2, 1.0, (0.0, 0.0), np.full((2, 2), 9))


def test_dsm_bilinear_hand_values():
    # Cell centers at 5 and 15 with elevations 0/10 (south row), 20/30.
    dsm = Dsm(2, 2, 10.0, (0.0, 0.0),
              np.array([[0.0, 10.0], [20.0, 30.0]]))
    assert dsm.bilinear(5.0, 5.0) == pytest.approx(0.0)
    assert dsm.bilinear(15.0, 15.0) == pytest.approx(30.0)
    assert dsm.bilinear(10.0, 10.0) == pytest.approx(15.0)
    assert dsm.bilinear(15.0, 5.0) == pytest.approx(10.0)
    # clamped beyond the border cell centers
    assert dsm.bilinear(-50.0, -50.0) == pytest.approx(0.0)
    assert dsm.bilinear(500.0, 500.0) == pytest.approx(30.0)


def test_check_aligned_mismatches():
    r = ClassRaster(2, 2, 1.0, (0.0, 0.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(GridMismatch):
        check_aligned(r, Dsm(3, 3, 1.0, (0.0, 0.0), np.zeros((3, 3))))
    with pytest.raises(GridMismatch):
        check_aligned(r, Dsm(2, 2, 2.0, (0.0, 0.0), np.zeros((2, 2))))
    with pytest.raises(GridMismatch):
        check_aligned(r, Dsm(2, 2, 1.0, (5.0, 0.0), np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# ESRI ASCII grids

def test_ascii_grid_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    classes = rng.integers(0, 6, size=(5, 8))
    raster = ClassRaster(8, 5, 2.5, (100.0, -40.0), classes)
    p = tmp_path / "classes.asc"
    save_raster(raster, p)
    back = load_raster(p)
    assert back.width == 8 and back.height == 5
    assert back.cell_size == pytest.approx(2.5)
    assert back.origin == (pytest.approx(100.0), pytest.approx(-40.0))
    assert np.array_equal(back.classes, classes)

    elev = rng.normal(50.0, 10.0, size=(5, 8))
    dsm = Dsm(8, 5, 2.5, (100.0, -40.0), elev)
    q = tmp_path / "surface.asc"
    save_dsm(dsm, q)
    back_dsm = load_dsm(q)
    # repr round-trip keeps elevations bit-exact
    assert np.array_equal(back_dsm.elevation, elev)


def test_ascii_grid_rows_written_north_first(tmp_path):
    raster = ClassRaster(2, 2, 1.0, (0.0, 0.0),
                         np.array([[0, 1], [2, 3]]))
    p = tmp_path / "tiny.asc"
    save_raster(raster, p)
    rows = [line.split() for line in p.read_text().splitlines()[6:]]
    # file order is north to south; row 0 of the array is the south row
    assert rows[0] == ["2", "3"]
    assert rows[1] == ["0", "1"]


def test_load_raster_rejects_bad_codes(tmp_path):
    p = tmp_path / "bad.asc"
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n0 7\n"
    )
    with pytest.raises(UnknownClassCode):
        load_raster(p)
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n0 1.5\n"
    )
    with pytest.raises(GridFormatError):
        load_raster(p)


def test_load_grid_rejects_nodata_and_bad_headers(tmp_path):
    p = tmp_path / "grid.asc"
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n-9999 1\n"
    )
    with pytest.raises(GridFormatError):
        load_dsm(p)
    p.write_text("ncols 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n0 1\n")
    with pytest.raises(GridFormatError):
        load_dsm(p)
    p.write_text(
        "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"
    )
    with pytest.raises(GridFormatError):
        load_dsm(p)


# ---------------------------------------------------------------------------
# Building extraction

def test_extract_buildings_flat_block(flat_raster_pair):
    raster, dsm = flat_raster_pair
    prisms = extract_buildings(raster, dsm)
    assert len(prisms) == 1
    b = prisms[0]
    assert b.top_elev == pytest.approx(18.0)
    assert b.base_elev == pytest.approx(3.0)
    assert len(b.footprint) == 4  # collinear points merged away
    assert b.bbox == (pytest.approx(40.0), pytest.approx(40.0),
                      pytest.approx(60.0), pytest.approx(60.0))
    # counterclockwise orientation (positive shoelace area)
    x, y = b.footprint[:, 0], b.footprint[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(400.0)


def test_extract_buildings_diagonal_cells_are_separate():
    classes = np.zeros((4, 4), dtype=int)
    classes[1, 1] = 1
    classes[2, 2] = 1
    raster = ClassRaster(4, 4, 1.0, (0.0, 0.0), classes)
    elev = np.where(classes == 1, 10.0, 0.0)
    dsm = Dsm(4, 4, 1.0, (0.0, 0.0), elev)
    prisms = extract_buildings(raster, dsm)
    assert len(prisms) == 2


def test_extract_buildings_l_shape_footprint():
    classes = np.zeros((5, 5), dtype=int)
    classes[1, 1:4] = 1
    classes[2, 1] = 1
    classes[3, 1] = 1
    raster = ClassRaster(5, 5, 1.0, (0.0, 0.0), classes)
    dsm = Dsm(5, 5, 1.0, (0.0, 0.0), np.where(classes == 1, 12.0, 2.0))
    prisms = extract_buildings(raster, dsm)
    assert len(prisms) == 1
    b = prisms[0]
    x, y = b.footprint[:, 0], b.footprint[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(5.0)  # five cells of 1 m^2
    assert len(b.footprint) == 6  # L-shape has six corners


def test_extract_buildings_median_heights():
    classes = np.zeros((3, 5), dtype=int)
    classes[1, 1:4] = 1
    raster = ClassRaster(5, 3, 1.0, (0.0, 0.0), classes)
    elev = np.full((3, 5), 1.0)
    elev[1, 1:4] = [10.0, 11.0, 30.0]  # one roof outlier
    elev[0, 2] = 7.0                   # one ground outlier in the ring
    dsm = Dsm(5, 3, 1.0, (0.0, 0.0), elev)
    b = extract_buildings(raster, dsm)[0]
    assert b.top_elev == pytest.approx(11.0)
    assert b.base_elev == pytest.approx(1.0)


def test_extract_buildings_none():
    raster = ClassRaster(3, 3, 1.0, (0.0, 0.0), np.zeros((3, 3), dtype=int))
    dsm = Dsm(3, 3, 1.0, (0.0, 0.0), np.zeros((3, 3)))
    assert extract_buildings(raster, dsm) == []


# ---------------------------------------------------------------------------
# Users and candidate sites

def test_place_users_lattice_and_height(flat_raster_pair):
    raster, dsm = flat_raster_pair
    users = place_users(raster, dsm, 10.0, 10.0, extract_buildings(raster, dsm))
    # 10 x 10 lattice minus the four points on building cells
    assert len(users) == 96
    for u in users:
        x, y, z = u.position
        assert x % 10 == pytest.approx(5.0)
        assert y % 10 == pytest.approx(5.0)
        assert z == pytest.approx(dsm.bilinear(x, y) + USER_HEIGHT_M)


def test_place_users_priority(flat_raster_pair):
    raster, dsm = flat_raster_pair
    users = place_users(raster, dsm, 10.0, 10.0, extract_buildings(raster, dsm))
    by_pos = {(round(u.position[0]), round(u.position[1])): u for u in users}
    # south row is low vegetation, 35 m or more from the building: no priority
    assert not by_pos[(5, 5)].priority
    assert not by_pos[(95, 5)].priority
    # impervious surface gets priority everywhere
    assert by_pos[(5, 95)].priority
    assert by_pos[(35, 45)].priority


def test_place_users_near_building_priority():
    # all low vegetation, so priority can only come from building distance
    classes = np.full((10, 10), CellClass.LOW_VEGETATION, dtype=int)
    classes[4:6, 4:6] = CellClass.BUILDING
    raster = ClassRaster(10, 10, 10.0, (0.0, 0.0), classes)
    dsm = Dsm(10, 10, 10.0, (0.0, 0.0), np.where(classes == 1, 18.0, 3.0))
    users = place_users(raster, dsm, 10.0, 10.0, extract_buildings(raster, dsm))
    by_pos = {(round(u.position[0]), round(u.position[1])): u for u in users}
    # (35, 45) is 5 m from the footprint edge at x=40
    assert by_pos[(35, 45)].priority
    # (25, 45) is 15 m away, outside the 10 m near ring
    assert not by_pos[(25, 45)].priority
    assert not by_pos[(5, 5)].priority


def test_place_users_skips_blocked_classes():
    classes = np.full((4, 4), CellClass.TREE, dtype=int)
    classes[0, 0] = CellClass.IMPERVIOUS_SURFACE
    raster = ClassRaster(4, 4, 10.0, (0.0, 0.0), classes)
    dsm = Dsm(4, 4, 10.0, (0.0, 0.0), np.zeros((4, 4)))
    users = place_users(raster, dsm, 10.0, 10.0, [])
    assert len(users) == 1
    assert tuple(users[0].position[:2]) == (5.0, 5.0)
    for cls in USER_CLASSES:
        assert cls not in (CellClass.BUILDING, CellClass.TREE, CellClass.CAR)


def test_place_users_no_valid_cells():
    classes = np.full((3, 3), CellClass.BUILDING, dtype=int)
    raster = ClassRaster(3, 3, 10.0, (0.0, 0.0), classes)
    dsm = Dsm(3, 3, 10.0, (0.0, 0.0), np.full((3, 3), 9.0))
    with pytest.raises(NoValidUserCells):
        place_users(raster, dsm, 10.0, 10.0, [])


def test_place_candidates_flat(flat_raster_pair):
    raster, dsm = flat_raster_pair
    cands = place_candidates(raster, dsm, 50.0, 25.0)
    assert [c.id for c in cands] == [0, 1, 2, 3]
    assert {(c.position[0], c.position[1]) for c in cands} == {
        (25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)
    }
    for c in cands:
        assert c.position[2] == pytest.approx(3.0 + 25.0)


def test_place_candidates_roof_mount():
    classes = np.zeros((10, 10), dtype=int)
    classes[7:9, 7:9] = CellClass.BUILDING  # contains lattice point (75, 75)
    raster = ClassRaster(10, 10, 10.0, (0.0, 0.0), classes)
    elev = np.where(classes == 1, 20.0, 0.0).astype(float)
    dsm = Dsm(10, 10, 10.0, (0.0, 0.0), elev)
    cands = place_candidates(raster, dsm, 50.0, 25.0)
    by_pos = {(c.position[0], c.position[1]): c for c in cands}
    assert by_pos[(75.0, 75.0)].position[2] == pytest.approx(20.0 + 25.0)
    assert by_pos[(25.0, 25.0)].position[2] == pytest.approx(0.0 + 25.0)


def test_place_candidates_skips_excluded():
    # pitch 20 puts lattice points at 10 and 30 m, i.e. in cells 1 and 3
    classes = np.zeros((4, 4), dtype=int)
    classes[1, 1] = CellClass.TREE
    classes[1, 3] = CellClass.CAR
    classes[3, 1] = CellClass.CLUTTER
    raster = ClassRaster(4, 4, 10.0, (0.0, 0.0), classes)
    dsm = Dsm(4, 4, 10.0, (0.0, 0.0), np.zeros((4, 4)))
    cands = place_candidates(raster, dsm, 20.0, 25.0)
    assert len(cands) == 1
    assert (cands[0].position[0], cands[0].position[1]) == (30.0, 30.0)
    assert cands[0].id == 0
    assert set(CANDIDATE_EXCLUDED) == {CellClass.TREE, CellClass.CLUTTER, CellClass.CAR}


def test_place_candidates_none():
    classes = np.full((3, 3), CellClass.CLUTTER, dtype=int)
    raster = ClassRaster(3, 3, 10.0, (0.0, 0.0), classes)
    dsm = Dsm(3, 3, 10.0, (0.0, 0.0), np.zeros((3, 3)))
    with pytest.raises(NoCandidates):
        place_candidates(raster, dsm, 10.0, 25.0)


# ---------------------------------------------------------------------------
# Whole-scene assembly and JSON round trip

def test_build_scene_counts(flat_raster_pair):
    raster, dsm = flat_raster_pair
    scene = build_scene(raster, dsm, SceneConfig())
    assert len(scene.buildings) == 1
    assert len(scene.users) == 96
    assert len(scene.candidates) == 4
    assert scene.fixed_bs == []
    assert scene.user_positions().shape == (96, 3)
    assert scene.priority_mask().dtype == bool
    assert scene.candidate_positions().shape == (4, 3)


def test_build_scene_fixed_bs_validation(flat_raster_pair):
    raster, dsm = flat_raster_pair
    cfg = SceneConfig(fixed_bs=[[10.0, 10.0, 30.0]])
    scene = build_scene(raster, dsm, cfg)
    assert len(scene.fixed_bs) == 1
    with pytest.raises(SceneError):
        build_scene(raster, dsm, SceneConfig(fixed_bs=[[10.0, 10.0]]))


def test_scene_json_round_trip(flat_raster_pair, tmp_path):
    raster, dsm = flat_raster_pair
    scene = build_scene(raster, dsm, SceneConfig(fixed_bs=[[1.0, 2.0, 30.0]]))
    p = tmp_path / "scene.json"
    save_scene(scene, p)
    back = load_scene(p)
    assert len(back.buildings) == len(scene.buildings)
    assert np.allclose(back.buildings[0].footprint, scene.buildings[0].footprint)
    assert len(back.users) == len(scene.users)
    assert np.allclose(back.user_positions(), scene.user_positions())
    assert np.array_equal(back.priority_mask(), scene.priority_mask())
    assert [c.id for c in back.candidates] == [c.id for c in scene.candidates]
    assert np.allclose(back.candidate_positions(), scene.candidate_positions())
    assert np.allclose(back.fixed_bs[0], [1.0, 2.0, 30.0])


def test_load_scene_rejects_sparse_ids(tmp_path):
    doc = {
        "buildings": [],
        "users": [{"position": [0.0, 0.0, 2.0], "priority": False}],
        "candidates": [
            {"id": 0, "position": [0.0, 0.0, 25.0]},
            {"id": 2, "position": [9.0, 0.0, 25.0]},
        ],
        "fixed_bs": [],
    }
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SceneError):
        load_scene(p)


def test_scene_config_from_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"user_spacing_m": 5.0, "near_dist_m": 4.0}))
    cfg = SceneConfig.from_json(p)
    assert cfg.user_spacing_m == 5.0
    assert cfg.near_dist_m == 4.0
    assert cfg.candidate_pitch_m == 50.0  # default kept
    assert cfg.mast_height_m == 25.0
    p.write_text(json.dumps({"user_spacing_m": -1.0}))
    with pytest.raises(SceneError):
        SceneConfig.from_json(p)


def test_scene_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"user_spacing_m": 5.0, "user_spacing": 6.0}))
    with pytest.raises(SceneError, match="user_spacing'"):
        SceneConfig.from_json(p)


# ---------------------------------------------------------------------------
# Synthetic scene generator

def test_generator_deterministic():
    cfg = GeneratorConfig(width=60, height=60, cell_size=5.0)
    r1, d1 = generate_synthetic_scene(cfg, seed=11)
    r2, d2 = generate_synthetic_scene(cfg, seed=11)
    assert np.array_equal(r1.classes, r2.classes)
    assert np.array_equal(d1.elevation, d2.elevation)
    r3, _ = generate_synthetic_scene(cfg, seed=12)
    assert not np.array_equal(r1.classes, r3.classes)


def test_generator_output_shape_and_classes():
    cfg = GeneratorConfig(width=50, height=40, cell_size=2.0,
                           building_density=0.25)
    raster, dsm = generate_synthetic_scene(cfg, seed=3)
    assert raster.classes.shape == (40, 50)
    assert dsm.elevation.shape == (40, 50)
    assert raster.classes.min() >= 0 and raster.classes.max() <= 5
    check_aligned(raster, dsm)
    frac = (raster.classes == CellClass.BUILDING).mean()
    assert 0.15 <= frac <= 0.35
    # buildings stand above the neighbouring terrain
    built = raster.classes == CellClass.BUILDING
    assert dsm.elevation[built].mean() > dsm.elevation[~built].mean() + 5.0


def test_generator_scene_is_buildable():
    cfg = GeneratorConfig(width=60, height=60, cell_size=5.0)
    raster, dsm = generate_synthetic_scene(cfg, seed=5)
    scene = build_scene(raster, dsm, SceneConfig(user_spacing_m=30.0,
                                                 candidate_pitch_m=60.0))
    assert scene.users and scene.candidates and scene.buildings


def test_generator_config_validation():
    from bsplace.eval_report import ReportError

    with pytest.raises(ReportError):
        GeneratorConfig(width=0, height=10)
    with pytest.raises(ReportError):
        GeneratorConfig(building_density=0.95)
    with pytest.raises(ReportError):
        GeneratorConfig(building_size_range=(20, 6))
