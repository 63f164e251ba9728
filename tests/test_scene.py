import json
import re
import reprlib
import sys
import warnings
from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from bsplace import scene as scene_mod
from bsplace.config_json import DataError, check_object, is_kind, prefixed, read_json
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.geometry import point_to_polygon_distance
from bsplace.scene import (
    CANDIDATE_EXCLUDED,
    USER_CLASSES,
    BuildingPrism,
    CandidateSite,
    USER_HEIGHT_M,
    CellClass,
    ClassRaster,
    Dsm,
    Scene,
    SceneConfig,
    User,
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

from conftest import pinch_heavy_classes


# ---------------------------------------------------------------------------
# Grid containers

def test_class_raster_validation():
    ok = ClassRaster(1.0, (0.0, 0.0), np.zeros((3, 2), dtype=int))
    assert ok.classes.dtype == np.int16
    assert (ok.width, ok.height) == (2, 3)
    with pytest.raises(DataError, match="cell_size must be finite and positive, got -1.0"):
        ClassRaster(-1.0, (0.0, 0.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(DataError, match="class code 9 outside 0..5"):
        ClassRaster(1.0, (0.0, 0.0), np.full((2, 2), 9))


@pytest.mark.parametrize("grid", [np.zeros((0, 0)), np.zeros((2, 0)), np.zeros(4),
                                  np.zeros((1, 1, 1))], ids=["empty", "no-columns", "1-D", "3-D"])
@pytest.mark.parametrize("cls", [ClassRaster, Dsm], ids=["ClassRaster", "Dsm"])
def test_grid_needs_two_axes_and_a_cell(cls, grid):
    with pytest.raises(DataError, match="at least one cell"):
        cls(1.0, (0.0, 0.0), grid)


def test_dsm_bilinear_hand_values():
    # Cell centers at 5 and 15 with elevations 0/10 (south row), 20/30.
    dsm = Dsm(10.0, (0.0, 0.0), np.array([[0.0, 10.0], [20.0, 30.0]]))
    assert dsm.bilinear(5.0, 5.0) == pytest.approx(0.0)
    assert dsm.bilinear(15.0, 15.0) == pytest.approx(30.0)
    assert dsm.bilinear(10.0, 10.0) == pytest.approx(15.0)
    assert dsm.bilinear(15.0, 5.0) == pytest.approx(10.0)
    # clamped beyond the border cell centers
    assert dsm.bilinear(-50.0, -50.0) == pytest.approx(0.0)
    assert dsm.bilinear(500.0, 500.0) == pytest.approx(30.0)


def test_check_aligned_mismatches():
    r = ClassRaster(1.0, (0.0, 0.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(DataError, match="raster grid 2x2 does not match DSM grid 3x3"):
        check_aligned(r, Dsm(1.0, (0.0, 0.0), np.zeros((3, 3))))
    with pytest.raises(DataError, match="raster and DSM disagree on cell size or origin"):
        check_aligned(r, Dsm(2.0, (0.0, 0.0), np.zeros((2, 2))))
    with pytest.raises(DataError, match="raster and DSM disagree on cell size or origin"):
        check_aligned(r, Dsm(1.0, (5.0, 0.0), np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# ESRI ASCII grids

def test_ascii_grid_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    classes = rng.integers(0, 6, size=(5, 8))
    raster = ClassRaster(2.5, (100.0, -40.0), classes)
    p = tmp_path / "classes.asc"
    save_raster(raster, p)
    back = load_raster(p)
    assert back.width == 8 and back.height == 5
    assert back.cell_size == pytest.approx(2.5)
    assert back.origin == (pytest.approx(100.0), pytest.approx(-40.0))
    assert np.array_equal(back.classes, classes)

    elev = rng.normal(50.0, 10.0, size=(5, 8))
    dsm = Dsm(2.5, (100.0, -40.0), elev)
    q = tmp_path / "surface.asc"
    save_dsm(dsm, q)
    back_dsm = load_dsm(q)
    # repr round-trip keeps elevations bit-exact
    assert np.array_equal(back_dsm.elevation, elev)


def test_ascii_grid_rows_written_north_first(tmp_path):
    raster = ClassRaster(1.0, (0.0, 0.0), np.array([[0, 1], [2, 3]]))
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
    with pytest.raises(DataError, match="class code 7 outside 0..5"):
        load_raster(p)
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n0 1.5\n"
    )
    with pytest.raises(DataError, match="class raster contains non-integer codes"):
        load_raster(p)
    for code in ("nan", "inf", "-inf"):
        p.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            f"NODATA_value -9999\n0 {code}\n"
        )
        with pytest.raises(DataError, match="non-finite"):
            load_raster(p)
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n0 1e20\n"
    )
    with pytest.raises(DataError, match="class code 100000000000000000000 outside"):
        load_raster(p)


def test_load_grid_rejects_nodata_and_bad_headers(tmp_path):
    p = tmp_path / "grid.asc"
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value -9999\n-9999 1\n"
    )
    with pytest.raises(DataError, match="NODATA cells are not supported in scene grids"):
        load_dsm(p)
    p.write_text("ncols 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n0 1\n")
    with pytest.raises(DataError, match="missing header field nrows"):
        load_dsm(p)
    p.write_text(
        "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n"
    )
    with pytest.raises(DataError, match=r"expected 6 values \(2 rows x 3 cols\), got 3"):
        load_dsm(p)
    p.write_text(
        "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
        "NODATA_value abc\n0 1\n"
    )
    with pytest.raises(DataError, match="non-numeric"):
        load_dsm(p)
    p.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nncols 3\n0 1 2 3 4 5\n"
    )
    with pytest.raises(DataError, match="repeated header field ncols"):
        load_dsm(p)


@pytest.mark.parametrize("load", [load_raster, load_dsm])
@pytest.mark.parametrize("key, value, field", [
    ("cellsize", "nan", "cell_size"), ("cellsize", "inf", "cell_size"),
    ("xllcorner", "nan", "origin"), ("yllcorner", "-inf", "origin"),
])
def test_load_grid_rejects_non_finite_geometry(tmp_path, load, key, value, field):
    header = {"ncols": "2", "nrows": "1", "xllcorner": "0", "yllcorner": "5", "cellsize": "1"}
    header[key] = value
    p = tmp_path / "grid.asc"
    p.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "0 1\n")
    with pytest.raises(DataError, match=f"{field} must be finite"):
        load(p)


def _old_grid_rows(grid, fmt):
    """The body as the writer formatted it value by value: fmt(v) of each numpy value."""
    return "".join(" ".join(fmt(v) for v in row) + "\n" for row in grid[::-1])


def test_grid_writer_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    floats = rng.normal(0.0, 1.0, (7, 9)) * 10.0 ** rng.integers(-30, 30, (7, 9))
    floats.flat[:8] = [-0.0, 0.0, 1e-300, -1e300, 5e-324, 123456789012345678.0, -2.5, 1e16]
    ints = rng.integers(-70000, 70000, (5, 6))
    ints.flat[:3] = [0, -1, 5]
    for grid, fmt, old_fmt in ((floats, scene_mod._repr_rows, lambda v: repr(float(v))),
                               (ints, scene_mod._code_rows, lambda v: str(int(v)))):
        p = tmp_path / "grid.asc"
        scene_mod._write_ascii_grid(p, 2.0, (1.5, -3.0), grid, fmt)
        body = "".join(p.read_text().splitlines(keepends=True)[6:])
        assert body == _old_grid_rows(grid, old_fmt)
    # the public writers on their own dtypes
    raster = ClassRaster(1.0, (0.0, 0.0), rng.integers(0, 6, (4, 5)))
    dsm = Dsm(1.0, (0.0, 0.0), floats[:4, :5])
    save_raster(raster, tmp_path / "r.asc")
    save_dsm(dsm, tmp_path / "d.asc")
    assert "".join((tmp_path / "r.asc").read_text().splitlines(keepends=True)[6:]) == \
        _old_grid_rows(raster.classes, lambda v: str(int(v)))
    assert "".join((tmp_path / "d.asc").read_text().splitlines(keepends=True)[6:]) == \
        _old_grid_rows(dsm.elevation, lambda v: repr(float(v)))


_GRID_HEADER = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"


def _read_body(tmp_path, body, header=_GRID_HEADER, newline=None):
    p = tmp_path / "grid.asc"
    with open(p, "w", newline=newline) as f:
        f.write(header + body)
    return scene_mod._read_ascii_grid(p)[3]


@pytest.mark.parametrize("tokens", [
    ["+1.5", ".5", "5.", "1e3", "nan", "inf"],
    ["-0.0", "-inf", "NaN", "Infinity", "1E-3", "-.25e+2"],
    ["1_0", "0.1", "12345678901234567890", "4.9e-324", "1.7976931348623157e308", "-1e-400"],
])
@pytest.mark.parametrize("layout", ["rows", "one_line", "wrapped", "tabs_crlf", "cr"])
def test_grid_reader_tokens_and_layouts(tmp_path, tokens, layout):
    if layout == "rows":
        body, newline = " ".join(tokens[:3]) + "\n" + " ".join(tokens[3:]) + "\n", None
    elif layout == "one_line":
        body, newline = "  ".join(tokens), None
    elif layout == "wrapped":  # values wrap at counts unrelated to ncols
        body, newline = "\n\n".join(["", tokens[0], " ".join(tokens[1:5]), tokens[5]]), None
    elif layout == "tabs_crlf":
        body, newline = "\t".join(tokens[:4]) + " \t\n" + "\t".join(tokens[4:]) + "\n", "\r\n"
    else:
        body, newline = "\n".join(tokens) + "\n", "\r"
    grid = _read_body(tmp_path, body, _GRID_HEADER.replace("\n", "\r\n")
                      if layout == "tabs_crlf" else _GRID_HEADER, newline)
    # bit-identical to float() of each token; the file stores the north row first
    expect = np.array([float(t) for t in tokens]).reshape(2, 3)[::-1]
    assert grid.tobytes() == expect.tobytes()


def test_grid_reader_rejects_stray_tokens_and_empty_bodies(tmp_path):
    with pytest.raises(DataError, match="non-numeric grid content"):
        _read_body(tmp_path, "1 2 #\n4 5 6\n")
    with pytest.raises(DataError, match="non-numeric grid content"):
        _read_body(tmp_path, "1 2 3\n4 5 6 # comment\n")
    with pytest.raises(DataError, match="non-numeric grid content"):
        _read_body(tmp_path, "1 2 3\n4 5 ncols\n")  # header keys only lead the file
    for body in ("", "\n\n  \t\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError,
                               match=r"expected 6 values \(2 rows x 3 cols\), got 0"):
                _read_body(tmp_path, body)
    # header fields may come in any order and case, after blank lines
    grid = _read_body(tmp_path, "1 2 3 4 5 6",
                      "\n CELLSIZE 2\nnRows 2\n\nyllcorner 0\nxllcorner 0\nncols 3\n")
    assert grid.tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]


# Grid body kernel against float() of each token

def _float_grid(tokens):
    return np.array([float(t) for t in tokens], dtype=float).reshape(1, -1)


def _grid_text(tokens, body):
    return f"ncols {len(tokens)}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n{body}"


@st.composite
def _double_midpoints(draw):
    """The exact decimal of a point halfway between two doubles."""
    m = draw(st.integers(2**52, 2**53 - 1))
    e = draw(st.integers(-60, 12))  # (2m + 1) * 2**(e - 1)
    numerator, denominator = (2 * m + 1) * 2 ** max(e - 1, 0), 2 ** max(1 - e, 0)
    whole, rest = divmod(numerator, denominator)
    digits = []
    while rest:
        rest *= 10
        digits.append(str(rest // denominator))
        rest %= denominator
    return f"{whole}.{''.join(digits)}" if digits or draw(st.booleans()) else str(whole)


def _with_dot(digits: str, at: int) -> str:
    return digits[:at] + "." + digits[at:]


_doubles = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()).filter(np.isfinite)
_grid_tokens = st.one_of(
    _doubles.map(repr),  # every binade, subnormals and exponent forms included
    st.tuples(st.floats(-1e7, 1e7), st.integers(0, 20)).map(lambda p: f"{p[0]:.{p[1]}f}"),
    st.tuples(st.integers(0, 10**12), st.integers(1, 20)).map(
        lambda p: str(p[0]).zfill(p[1])),
    st.sampled_from(["-0", "-0.0", "5.", ".5", "-.5", "0", "00", "-00.000",
                     "9007199254740993", "9007199254740995.0", "-9007199254740993.",
                     "1e5", "+1.5", "-inf", "nan", "1_000", "12345678901234567890123",
                     "123456789012345678", "1234567890123456789", "-1234567890123456.78",
                     "12345678901234567.89", "9999999999999999999.9", "0.1234567890123456789"]),
    st.tuples(st.integers(10**16, 10**24), st.integers(0, 25), st.booleans()).map(
        lambda p: ("-" if p[2] else "") + _with_dot(str(p[0]), min(p[1], len(str(p[0]))))),
    _double_midpoints(),
    _double_midpoints().map(lambda t: "-" + t),
)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_grid_tokens, min_size=1, max_size=40), data=st.data(),
       piece=st.sampled_from([1, 7, 24, 61, scene_mod._GRID_PIECE]))
def test_grid_body_kernel_equals_float_of_each_token(tokens, data, piece):
    # \v and \x1c are ASCII whitespace, NBSP and EM SPACE are not; small
    # pieces put tokens on every cut
    spaces = data.draw(st.sampled_from([" \n\t\r", " \n\x0b\x1c", " \n\t\r\x0b\x1c\xa0\u2003"]))
    seps = data.draw(st.lists(st.text(spaces, min_size=1, max_size=3),
                              min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    body = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    with mock.patch.object(scene_mod, "_GRID_PIECE", piece):
        grid = scene_mod._parse_ascii_grid(_grid_text(tokens, body).encode())[3]
    assert grid.tobytes() == _float_grid(tokens).tobytes()


def _dsm_body(seed, shape):
    """A save_dsm body: repr of every elevation, one row per line."""
    rng = np.random.default_rng(seed)
    elevation = rng.normal(20.0, 15.0, shape)
    elevation.flat[:6] = [-0.0, 0.0, 9007199254740993.0, 1e-7, 123.5, -3.0]
    return "".join(" ".join(map(repr, row)) + "\n" for row in elevation.tolist())


def test_grid_body_kernel_gate_off_gives_the_same_bytes(monkeypatch):
    body = _dsm_body(3, (60, 90)) + " 5. .5 -.5 -0 1e5 +2 9007199254740995.0\n"
    tokens = body.split()
    fast = scene_mod._parse_ascii_grid(_grid_text(tokens, body).encode())[3]
    monkeypatch.setattr(scene_mod, "_EXACT_LONGDOUBLE", False)
    slow = scene_mod._parse_ascii_grid(_grid_text(tokens, body).encode())[3]
    assert fast.tobytes() == slow.tobytes() == _float_grid(tokens).tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="no x87 long double")
def test_grid_body_kernel_sends_few_tokens_to_float(monkeypatch, tmp_path):
    seen = []
    reference = scene_mod._float_tokens

    def spy(body):
        seen.append(len(body.split()))
        return reference(body)

    monkeypatch.setattr(scene_mod, "_float_tokens", spy)
    elevation = np.random.default_rng(5).normal(30.0, 12.0, (300, 300))
    save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, elevation)
    assert sum(seen) < 0.01 * elevation.size  # midpoints only, a handful


@pytest.mark.skipif(not scene_mod._EXACT_LONGDOUBLE, reason="no x87 long double")
def test_grid_body_kernel_divides_short_mantissas_in_float64(monkeypatch, tmp_path):
    calls = []
    reference = scene_mod._long_double_quotient

    def spy(mantissa, below, slow):
        calls.append(mantissa.size)
        return reference(mantissa, below, slow)

    monkeypatch.setattr(scene_mod, "_long_double_quotient", spy)
    _, pieces = _route_spies(monkeypatch)
    rng = np.random.default_rng(9)
    classes = rng.integers(0, 6, (300, 300))
    save_raster(ClassRaster(1.0, (0.0, 0.0), classes), tmp_path / "raster.asc")
    assert np.array_equal(load_raster(tmp_path / "raster.asc").classes, classes)
    assert pieces == []  # one-digit codes take the one-digit pass
    # integer codes of several digits go through the kernel
    codes = rng.integers(0, 10**6, (300, 300))
    scene_mod._write_ascii_grid(tmp_path / "codes.asc", 1.0, (0.0, 0.0), codes,
                                scene_mod._code_rows)
    assert np.array_equal(scene_mod._read_ascii_grid(tmp_path / "codes.asc")[3], codes)
    assert pieces and calls == []
    # at most 15 significant digits: every mantissa is below 2**53
    elevation = rng.normal(30.0, 12.0, (300, 300))
    body = "".join(" ".join(f"{v:.15g}" for v in row) + "\n" for row in elevation.tolist())
    grid = scene_mod._parse_ascii_grid(_grid_text(body.split(), body).encode())[3]
    assert grid.tobytes() == _float_grid(body.split()).tobytes()
    assert calls == []
    # repr writes 16 and 17 digits, so a save_dsm file still divides in long doubles
    save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, elevation)
    assert sum(calls) == elevation.size


def test_grid_writers_take_numpy_scalar_geometry(tmp_path):
    origin, cell = (np.float64(10.0), np.float32(-5.5)), np.float64(2.0)
    classes = np.arange(9).reshape(3, 3) % 6
    save_raster(ClassRaster(cell, origin, classes), tmp_path / "raster.asc")
    save_dsm(Dsm(cell, origin, classes * 1.5), tmp_path / "dsm.asc")
    assert (tmp_path / "raster.asc").read_text().splitlines()[2:5] == [
        "xllcorner 10.0", "yllcorner -5.5", "cellsize 2.0"]
    raster, dsm = load_raster(tmp_path / "raster.asc"), load_dsm(tmp_path / "dsm.asc")
    for grid in (raster, dsm):
        assert (grid.cell_size, grid.origin) == (2.0, (10.0, -5.5))
    assert np.array_equal(raster.classes, classes)
    assert np.array_equal(dsm.elevation, classes * 1.5)


# The DSM writer's array passes against repr of each value

def _repr_body(grid):
    return _old_grid_rows(grid, lambda v: repr(float(v)))


def _neighbours(values):
    """Each value, its float64 neighbours on both sides, and their negatives."""
    v = np.asarray(values, dtype=float)
    out = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
    return np.concatenate([out, -out])


@settings(max_examples=200, deadline=None)
@given(grid=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                       elements=st.one_of(
                           st.floats(width=64, allow_nan=False, allow_infinity=False),
                           st.floats(1e-4, 1e15), st.floats(-1e15, -1e-4), _doubles,
                           st.tuples(st.integers(-10**12, 10**12), st.integers(0, 12)).map(
                               lambda p: p[0] / 10**p[1]))),
       block=st.sampled_from([1, 7, 64, scene_mod._REPR_BLOCK]))
def test_grid_writer_repr_route_equals_repr_of_any_float(grid, block):
    # small blocks put row ends and flagged values on every block edge
    with mock.patch.object(scene_mod, "_REPR_BLOCK", block):
        assert scene_mod._repr_rows(grid) == _repr_body(grid)


def _exact_ties(digits, rng):
    """Doubles n / 2**j (n odd) in [1e-4, 1e15) whose exact decimal has
    digits + 1 significant digits, the last a 5: midway between two
    `digits`-digit decimals."""
    out = []
    while len(out) < 40:
        j = int(rng.integers(1, 30))
        v = float(int(rng.integers(1, 2**53)) | 1) / 2**j
        if 1e-4 <= v < 1e15 and len(Decimal(v).as_tuple().digits) == digits + 1:
            out.append(v)
    return out


def test_grid_writer_targeted_values():
    rng = np.random.default_rng(33)
    cases = {
        "powers of ten": _neighbours(10.0 ** np.arange(-6, 18)),
        "powers of two": _neighbours(2.0 ** np.arange(-16, 56)),
        "range edges": _neighbours([1e-4, 1e15, 1e16, 5e-324, 0.0]),
        "near 2**53": _neighbours(2.0**53 + np.arange(-4, 5)),
        # ties at 15, 16 and 17 digits, and one more decimal digit, one step from tying
        **{f"{p}-digit ties": _neighbours(_exact_ties(p, rng)) for p in (15, 16, 17)},
    }
    for name, values in cases.items():
        grid = values.reshape(-1, 3) if values.size % 3 == 0 else values.reshape(1, -1)
        assert scene_mod._repr_rows(grid) == _repr_body(grid), name


def test_grid_writer_uniform_and_short_decimal_grids():
    rng = np.random.default_rng(4)
    for grid in (rng.uniform(-1000.0, 1000.0, (40, 300)),
                 np.round(rng.uniform(-1000.0, 1000.0, (40, 300)), 2),
                 rng.integers(-10**6, 10**6, (40, 300)).astype(float),
                 np.exp(rng.normal(0.0, 8.0, (40, 300))),
                 rng.uniform(1e-4, 1.0, (40, 300))):
        assert scene_mod._repr_rows(grid) == _repr_body(grid)


@pytest.mark.skipif(not scene_mod._EXACT_LONGDOUBLE, reason="no x87 long double")
@pytest.mark.parametrize("seed", [1, 2])
def test_grid_writer_sends_few_values_to_repr(monkeypatch, tmp_path, seed):
    seen = []
    reference = scene_mod._float_reprs

    def spy(values):
        seen.append(values.size)
        return reference(values)

    monkeypatch.setattr(scene_mod, "_float_reprs", spy)
    _, dsm = generate_synthetic_scene(GeneratorConfig(width=300, height=300), seed)
    save_dsm(dsm, tmp_path / "dsm.asc")
    body = "".join((tmp_path / "dsm.asc").read_text().splitlines(keepends=True)[6:])
    assert body == _repr_body(dsm.elevation)
    assert sum(seen) < 0.03 * dsm.elevation.size


def test_grid_writer_gate_off_gives_the_same_bytes(monkeypatch, tmp_path):
    _, dsm = generate_synthetic_scene(GeneratorConfig(width=60, height=50), 3)
    dsm.elevation.flat[:8] = [-0.0, 0.0, 1e-300, 2.0**53 + 2, 0.5, 1e15, 123.25, -7.0]
    save_dsm(dsm, tmp_path / "on.asc")
    monkeypatch.setattr(scene_mod, "_EXACT_LONGDOUBLE", False)
    save_dsm(dsm, tmp_path / "off.asc")
    on, off = (tmp_path / "on.asc").read_text(), (tmp_path / "off.asc").read_text()
    assert on == off
    assert "".join(on.splitlines(keepends=True)[6:]) == _repr_body(dsm.elevation)


def test_grid_writer_rejects_a_nodata_elevation(tmp_path):
    elevation = np.full((4, 5), 12.5)
    elevation[2, 3] = elevation[3, 0] = -9999.0
    with pytest.raises(DataError, match=r"dsm\.asc: elevation -9999\.0 at row 2, column 3 "
                                        r"is the grid files' NODATA value"):
        save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert list(tmp_path.iterdir()) == []
    # its neighbours are no NODATA value, and round-trip
    elevation[2, 3], elevation[3, 0] = np.nextafter(-9999.0, [0.0, -np.inf])
    save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, elevation)


@pytest.mark.parametrize("bad", ["#", "--5", "1.2.3", "-", "1e", "2\x07", "\x1b5"])
@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])  # first, a middle and the last piece
def test_grid_body_kernel_keeps_float_error_text(tmp_path, bad, where):
    tokens = _dsm_body(7, (200, 120)).split()  # 4 pieces
    at = int(where * (len(tokens) - 60))
    tokens[at] = bad
    tokens[at + 50] = "later"  # only the first bad token is named
    p = tmp_path / "dsm.asc"
    p.write_text(_grid_text(tokens, " ".join(tokens) + "\n"))
    try:
        float(bad)
    except ValueError as e:
        expect = f"{p}: non-numeric grid content: {e}"
    with pytest.raises(DataError, match=f"^{re.escape(expect)}$"):
        load_dsm(p)


# The one-digit pass against float() of each token

_ONE_DIGIT_SPACES = " \t\n\r\x0b\x0c\x1c"
# tokens the one-digit pass must leave to the kernel or to float(): a NUL is
# no whitespace, and U+0663 is a digit float() reads but the kernel does not
_NOT_ONE_DIGIT = ["10", "-1", "+2", "5.", ".", "x", "\u0663", "\x00"]


@settings(max_examples=300, deadline=None)
@given(digits=st.lists(st.sampled_from("0123456789"), min_size=1, max_size=60),
       data=st.data(), exact=st.booleans())
def test_grid_one_digit_route_equals_float_of_each_token(digits, data, exact):
    tokens = list(digits)
    other = data.draw(st.none() | st.sampled_from(_NOT_ONE_DIGIT))
    if other is not None:
        tokens.insert(data.draw(st.integers(0, len(tokens))), other)
    inner = data.draw(st.lists(st.text(_ONE_DIGIT_SPACES, min_size=1, max_size=3),
                               min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    ends = data.draw(st.lists(st.text(_ONE_DIGIT_SPACES, max_size=3), min_size=2, max_size=2))
    body = ends[0] + "".join(s + t for s, t in zip([""] + inner, tokens)) + ends[1]
    # the pass runs before the x87 gate: the same values with that gate closed
    with mock.patch.object(scene_mod, "_EXACT_LONGDOUBLE", scene_mod._EXACT_LONGDOUBLE and exact):
        try:
            expect = scene_mod._float_tokens(body)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                scene_mod._parse_grid_body(body.encode())
        else:
            assert scene_mod._parse_grid_body(body.encode()).tobytes() == expect.tobytes()


def _route_spies(monkeypatch):
    """Lists that record the one-digit pass's results and the kernel's pieces."""
    passes, pieces = [], []
    one_digit, parse_piece = scene_mod._one_digit_values, scene_mod._parse_piece

    def pass_spy(raw):
        passes.append(one_digit(raw))
        return passes[-1]

    def piece_spy(raw, lo, hi):
        pieces.append(hi - lo)
        return parse_piece(raw, lo, hi)

    monkeypatch.setattr(scene_mod, "_one_digit_values", pass_spy)
    monkeypatch.setattr(scene_mod, "_parse_piece", piece_spy)
    return passes, pieces


def test_grid_one_digit_route_reads_rasters_and_skips_dsms(monkeypatch, tmp_path):
    passes, pieces = _route_spies(monkeypatch)
    raster, dsm = generate_synthetic_scene(GeneratorConfig(width=300, height=200), 6)
    save_raster(raster, tmp_path / "raster.asc")
    assert np.array_equal(load_raster(tmp_path / "raster.asc").classes, raster.classes)
    assert len(passes) == 1 and passes[0] is not None and pieces == []
    # a save_dsm body stops at the gate: its first token has a dot
    passes.clear()
    save_dsm(dsm, tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, dsm.elevation)
    assert passes == []
    assert bool(pieces) == scene_mod._EXACT_LONGDOUBLE


@pytest.mark.parametrize("exact", [True, False])
def test_grid_one_digit_route_keeps_the_count_errors(monkeypatch, tmp_path, exact):
    monkeypatch.setattr(scene_mod, "_EXACT_LONGDOUBLE", scene_mod._EXACT_LONGDOUBLE and exact)
    passes, pieces = _route_spies(monkeypatch)
    for body, got in (("1 2 3\n4 5\n", 5), ("1 2 3\r\n4 5 6 7\r\n", 7), ("0", 1)):
        with pytest.raises(DataError, match=rf"grid\.asc: expected 6 values "
                                            rf"\(2 rows x 3 cols\), got {got}$"):
            _read_body(tmp_path, body)
    assert len(passes) == 3 and all(p is not None for p in passes) and pieces == []
    for body in ("", "\n\n  \t\x1c\n"):  # no first token: the gate stays shut
        with pytest.raises(DataError,
                           match=r"grid\.asc: expected 6 values \(2 rows x 3 cols\), got 0$"):
            _read_body(tmp_path, body)
    assert len(passes) == 3


# The bytes read against the file read in text mode

def _text_mode_grid(path):
    """The grid reader as it read a file in text mode, line ends translated,
    and parsed its text with str methods: the bytes read's reference."""
    with prefixed(path):
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError:
            raise DataError("not UTF-8 text") from None
        header, body = {}, 0
        while body < len(text):
            end = text.find("\n", body) + 1 or len(text)
            line = text[body:end]
            parts = line.split()
            if parts:
                key = parts[0].lower()
                if key not in scene_mod._HEADER_KEYS:
                    break
                if len(parts) != 2:
                    raise DataError(f"malformed header line: {line.strip()!r}")
                if key in header:
                    raise DataError(f"repeated header field {key}")
                header[key] = parts[1]
            body = end
        for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
            if key not in header:
                raise DataError(f"missing header field {key}")
        try:
            ncols, nrows = int(header["ncols"]), int(header["nrows"])
            xll, yll, cell = (float(header[k]) for k in ("xllcorner", "yllcorner", "cellsize"))
            values = scene_mod._float_tokens(text[body:])
            nodata = float(header["nodata_value"]) if "nodata_value" in header else None
        except ValueError as e:
            raise DataError(f"non-numeric grid content: {e}") from None
        if ncols < 1 or nrows < 1 or cell <= 0:
            raise DataError("ncols/nrows must be >= 1 and cellsize > 0")
        if values.size != ncols * nrows:
            raise DataError(f"expected {ncols * nrows} values ({nrows} rows x {ncols} cols), "
                            f"got {values.size}")
        if nodata is not None and (values == nodata).any():
            raise DataError("NODATA cells are not supported in scene grids")
        return xll, yll, cell, values.reshape(nrows, ncols)[::-1]


def _outcome(read, path):
    try:
        xll, yll, cell, grid = read(path)
    except DataError as e:
        return str(e)
    return xll, yll, cell, grid.shape, grid.tobytes()


_LF_GRID = ("ncols 3\nnrows 2\nxllcorner 0.5\nyllcorner -2\ncellsize 1.5\n"
            "NODATA_value -9999\n")
_TEXT_MODE_CASES = {
    "lf raster": _LF_GRID + "1 2 3\n4 5 0\n",
    "lf dsm": _LF_GRID + "1.25 -2.5 3.0\n4e1 5.5 0.0\n",
    "crlf": (_LF_GRID + "1 2 3\n4.5 5 0\n").replace("\n", "\r\n"),
    "lone cr": (_LF_GRID + "1 2 3\n4 5.5 0\n").replace("\n", "\r"),
    "mixed": "ncols 3\r\nnrows 2\rxllcorner 0\n\r\nyllcorner 0\r\r\ncellsize 1\n\r"
             "1 2 3\r4 5 6\r\n",
    "cr in a header line": "ncols 3\rnrows 2 \r\nxllcorner\t0\x1cyllcorner 0\n"
                           "cellsize 1\n1 2 3 4 5 6\n",
    "header key after a cr": "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\r"
                             "1 2 3\rncols 4\r4 5 6\n",
    "bom": "\ufeff" + _LF_GRID + "1 2 3\n4 5 0\n",
    "bom in the body": _LF_GRID + "1 2 3\n4 5 \ufeff0\n",
    "nbsp and em space": _LF_GRID + "1\xa02 3\n4\u20035.5 0\n",
    "nel and line separator": _LF_GRID.replace("\n", "\x85\n") + "1 2\u20283\n4 5 0\n",
    "one-digit nbsp": _LF_GRID + "1 2\xa03\n4 5 0\n",
    "unicode digit": _LF_GRID + "1 2 3\n4 5 \u0663\n",
    "control byte": _LF_GRID + "1 2 3\n4 5\x07 0\n",
    "one-digit control byte": _LF_GRID + "1 2 3\n4 5 \x00\n",
    "escape byte": _LF_GRID + "1 2 3\n4.5 \x1b5 0\n",
    "control byte in the header": "ncols 3\x07\nnrows 2\n",
    "short": (_LF_GRID + "1 2 3\n4.5 5\n").replace("\n", "\r\n"),
    "no final line end": _LF_GRID + "1 2 3\n4.5 5 0",
    "one line": "ncols 3 nrows 2 xllcorner 0 yllcorner 0 cellsize 1 1 2 3 4 5 6",
}
_BAD_UTF8 = {
    "invalid utf-8 in the body": (_LF_GRID + "1 2 3\n4 5 0\n").encode() + b"\xff\n",
    "invalid utf-8 in the header": b"ncols 3\xc3\nnrows 2\n" + b"1 2 3 4 5 6\n",
    "a lone surrogate": (_LF_GRID + "1 2 3\n4 5 ").encode() + b"\xed\xa0\x80\n",
    "a truncated sequence": (_LF_GRID + "1 2 3\n4 5 0").encode() + b"\xe2\x80",
}


@pytest.mark.parametrize("name", list(_TEXT_MODE_CASES) + list(_BAD_UTF8))
def test_grid_reader_reads_bytes_as_text_mode_reads_them(tmp_path, name):
    p = tmp_path / "grid.asc"
    p.write_bytes(_BAD_UTF8[name] if name in _BAD_UTF8 else
                  _TEXT_MODE_CASES[name].encode("utf-8"))
    expect = _outcome(_text_mode_grid, p)
    assert _outcome(scene_mod._read_ascii_grid, p) == expect
    if name.startswith(("lf", "crlf", "lone cr", "mixed")):
        assert not isinstance(expect, str)  # these read to a grid
    elif name.startswith(("invalid", "a ")):
        assert expect == f"{p}: not UTF-8 text"


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
    raster = ClassRaster(1.0, (0.0, 0.0), classes)
    elev = np.where(classes == 1, 10.0, 0.0)
    dsm = Dsm(1.0, (0.0, 0.0), elev)
    prisms = extract_buildings(raster, dsm)
    assert len(prisms) == 2


def test_extract_buildings_l_shape_footprint():
    classes = np.zeros((5, 5), dtype=int)
    classes[1, 1:4] = 1
    classes[2, 1] = 1
    classes[3, 1] = 1
    raster = ClassRaster(1.0, (0.0, 0.0), classes)
    dsm = Dsm(1.0, (0.0, 0.0), np.where(classes == 1, 12.0, 2.0))
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
    raster = ClassRaster(1.0, (0.0, 0.0), classes)
    elev = np.full((3, 5), 1.0)
    elev[1, 1:4] = [10.0, 11.0, 30.0]  # one roof outlier
    elev[0, 2] = 7.0                   # one ground outlier in the ring
    dsm = Dsm(1.0, (0.0, 0.0), elev)
    b = extract_buildings(raster, dsm)[0]
    assert b.top_elev == pytest.approx(11.0)
    assert b.base_elev == pytest.approx(1.0)


def test_extract_buildings_none():
    raster = ClassRaster(1.0, (0.0, 0.0), np.zeros((3, 3), dtype=int))
    dsm = Dsm(1.0, (0.0, 0.0), np.zeros((3, 3)))
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
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    dsm = Dsm(10.0, (0.0, 0.0), np.where(classes == 1, 18.0, 3.0))
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
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    dsm = Dsm(10.0, (0.0, 0.0), np.zeros((4, 4)))
    users = place_users(raster, dsm, 10.0, 10.0, [])
    assert len(users) == 1
    assert tuple(users[0].position[:2]) == (5.0, 5.0)
    for cls in USER_CLASSES:
        assert cls not in (CellClass.BUILDING, CellClass.TREE, CellClass.CAR)


def test_place_users_no_valid_cells():
    classes = np.full((3, 3), CellClass.BUILDING, dtype=int)
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    dsm = Dsm(10.0, (0.0, 0.0), np.full((3, 3), 9.0))
    with pytest.raises(DataError, match="no lattice point falls on a walkable cell"):
        place_users(raster, dsm, 10.0, 10.0, [])


def _all_pairs_near_bbox(x, y, buildings, near_dist):
    """Every (prism, point) pair within near_dist of the prism's bbox, prism-major."""
    x0, y0, x1, y1 = np.array([b.bbox for b in buildings]).T[:, :, None]
    dx = np.maximum(np.maximum(x0 - x, 0.0), x - x1)
    dy = np.maximum(np.maximum(y0 - y, 0.0), y - y1)
    return np.nonzero(dx * dx + dy * dy <= near_dist * near_dist)


@settings(max_examples=150, deadline=None)
@given(origin=st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)),
       spacing=st.floats(0.1, 50.0), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       near=st.one_of(st.just(0.0), st.floats(0.0, 80.0)), block=st.sampled_from([1, 64, 2**16]),
       data=st.data())
def test_near_bbox_pairs_match_all_pairs(origin, spacing, shape, near, block, data):
    xs = origin[0] + spacing * (np.arange(shape[0]) + 0.5)
    ys = origin[1] + spacing * (np.arange(shape[1]) + 0.5)
    x, y = (g.ravel() for g in np.meshgrid(xs, ys))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    keep[0] = True
    x, y = x[keep], y[keep]
    boxes = []
    for _ in range(data.draw(st.integers(1, 12))):
        i, j = data.draw(st.integers(0, x.size - 1)), data.draw(st.integers(0, x.size - 1))
        # edges that lie exactly near_dist from a lattice point, or anywhere near one
        gap = data.draw(st.sampled_from([-near, near, 0.0]) | st.floats(-2 * near - 5,
                                                                      2 * near + 5))
        x0, y0 = x[i] + gap, y[j] + data.draw(st.sampled_from([-near, near, 0.0]))
        w, h = data.draw(st.floats(0.0, 3 * spacing)), data.draw(st.floats(0.0, 3 * spacing))
        boxes.append(SimpleNamespace(bbox=(x0, y0, x0 + w, y0 + h)))
    with mock.patch.object(scene_mod, "_BBOX_BLOCK", block):
        prism, point = scene_mod._near_bbox_pairs(x, y, boxes, near)
    expect_prism, expect_point = _all_pairs_near_bbox(x, y, boxes, near)
    assert prism.tolist() == expect_prism.tolist()
    assert point.tolist() == expect_point.tolist()


def test_near_bbox_pairs_keep_points_just_outside_the_strip():
    # each point lies one ulp outside x0 - near or x1 + near, yet the rounded
    # bbox distance equals near: only the strip's rounding margin keeps it
    boxes = [SimpleNamespace(bbox=(56.256974352610996, 0.0, 60.0, 1.0)),
             SimpleNamespace(bbox=(-60.0, 0.0, -56.1805612824196, 1.0))]
    for box, near, px in ((boxes[0], 40.93263295462597, 15.324341397985021),
                          (boxes[1], 56.301140419347384, 0.12057913692778045)):
        x, y = np.array([px, px + 500.0]), np.array([0.5, 0.5])
        prism, point = scene_mod._near_bbox_pairs(x, y, [box], near)
        assert (prism.tolist(), point.tolist()) == ([0], [0])
        assert [a.tolist() for a in _all_pairs_near_bbox(x, y, [box], near)] == [[0], [0]]


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
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    elev = np.where(classes == 1, 20.0, 0.0).astype(float)
    dsm = Dsm(10.0, (0.0, 0.0), elev)
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
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    dsm = Dsm(10.0, (0.0, 0.0), np.zeros((4, 4)))
    cands = place_candidates(raster, dsm, 20.0, 25.0)
    assert len(cands) == 1
    assert (cands[0].position[0], cands[0].position[1]) == (30.0, 30.0)
    assert cands[0].id == 0
    assert set(CANDIDATE_EXCLUDED) == {CellClass.TREE, CellClass.CLUTTER, CellClass.CAR}


def test_place_candidates_none():
    classes = np.full((3, 3), CellClass.CLUTTER, dtype=int)
    raster = ClassRaster(10.0, (0.0, 0.0), classes)
    dsm = Dsm(10.0, (0.0, 0.0), np.zeros((3, 3)))
    with pytest.raises(DataError, match="every lattice point falls on an excluded cell"):
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
    with pytest.raises(DataError, match=r"fixed_bs\[0\] must be 3 finite numbers"):
        build_scene(raster, dsm, SceneConfig(fixed_bs=[[10.0, 10.0]]))
    # two masts on one point: a prior BS given twice, or one on a candidate site
    with pytest.raises(DataError, match=r"fixed_bs\[0\] and fixed_bs\[1\]"):
        build_scene(raster, dsm, SceneConfig(fixed_bs=[[10.0, 10.0, 30.0]] * 2))
    site = scene.candidates[2].position.tolist()
    with pytest.raises(DataError, match=r"candidates\[2\] and fixed_bs\[1\]"):
        build_scene(raster, dsm, SceneConfig(fixed_bs=[[1.0, 2.0, 30.0], site]))
    with pytest.raises(DataError, match=r"fixed_bs\[0\] must be 3 finite numbers"):
        build_scene(raster, dsm, SceneConfig(fixed_bs=[["10", "10", "30"]]))
    # a 2-D array or a list of numpy rows gives what the list of lists gives
    for fixed in (np.array([[10.0, 10.0, 30.0]]), [np.array([10.0, 10.0, 30.0])]):
        again = build_scene(raster, dsm, SceneConfig(fixed_bs=fixed))
        assert [p.tolist() for p in again.fixed_bs] == [[10.0, 10.0, 30.0]]
    with pytest.raises(DataError, match=r"fixed_bs\[1\] must be 3 finite numbers"):
        build_scene(raster, dsm, SceneConfig(fixed_bs=np.array([[1.0, 2.0, 30.0],
                                                                [1.0, np.nan, 30.0]])))


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
    with pytest.raises(DataError, match=r"candidates\[1\]\.id must be 1 \(ids dense 0\.\.C-1\)"):
        load_scene(p)


def test_load_scene_rejects_repeated_key(tmp_path):
    doc = ('{{"buildings": [], "users": [{{"position": [0.0, 0.0, 2.0], "priority": false{}}}], '
           '"candidates": [{{"id": 0, "position": [0.0, 0.0, 25.0]}}], "fixed_bs": []{}}}')
    p = tmp_path / "scene.json"
    for in_user, at_top, key in (("", ', "users": []', "users"),
                                 (', "priority": true', "", "priority")):
        p.write_text(doc.format(in_user, at_top))
        with pytest.raises(DataError, match=f"repeated JSON key '{key}'"):
            load_scene(p)


def test_scene_config_from_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"user_spacing_m": 5.0, "near_dist_m": 4.0}))
    cfg = SceneConfig.from_json(p)
    assert cfg.user_spacing_m == 5.0
    assert cfg.near_dist_m == 4.0
    assert cfg.candidate_pitch_m == 50.0  # default kept
    assert cfg.mast_height_m == 25.0
    for field, value in (("user_spacing_m", -1.0), ("candidate_pitch_m", 0.0),
                         ("mast_height_m", -3.0), ("near_dist_m", -5.0)):
        p.write_text(json.dumps({field: value}))
        with pytest.raises(DataError, match=field):
            SceneConfig.from_json(p)


def test_scene_config_checks_values_on_construction():
    with pytest.raises(DataError, match="user_spacing_m must be positive"):
        SceneConfig(user_spacing_m=-1, mast_height_m=-3)
    with pytest.raises(DataError, match="near_dist_m must be >= 0"):
        SceneConfig(near_dist_m=-0.5)
    with pytest.raises(DataError, match="near_dist_m must be finite"):
        SceneConfig(near_dist_m=float("nan"))


def test_scene_config_rejects_wrong_type(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"user_spacing_m": "5"}))
    with pytest.raises(DataError, match="'user_spacing_m' must be a finite number"):
        SceneConfig.from_json(p)
    p.write_text(json.dumps({"fixed_bs": {"x": 1}}))
    with pytest.raises(DataError, match="'fixed_bs' must be a list"):
        SceneConfig.from_json(p)


def test_scene_config_rejects_non_finite(tmp_path):
    p = tmp_path / "cfg.json"
    for field, text in (("near_dist_m", "NaN"), ("user_spacing_m", "NaN"),
                        ("mast_height_m", "Infinity")):
        p.write_text(f'{{"{field}": {text}}}')
        with pytest.raises(DataError, match=f"'{field}' must be a finite number"):
            SceneConfig.from_json(p)


def test_scene_config_rejects_repeated_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"user_spacing_m": 5.0, "user_spacing_m": 6.0}')
    with pytest.raises(DataError, match="repeated JSON key 'user_spacing_m'"):
        SceneConfig.from_json(p)


def test_scene_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"user_spacing_m": 5.0, "user_spacing": 6.0}))
    with pytest.raises(DataError, match="user_spacing'"):
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


@pytest.mark.parametrize("width, height, density", [(12, 60, 0.3), (16, 80, 0.4),
                                                     (10, 120, 0.25)])
def test_generator_counts_clipped_buildings_by_their_cells(width, height, density):
    # buildings up to 20 cells wide are clipped at the edge of these grids;
    # counting a clipped one at its full size would stop placement short
    for seed in range(5):
        raster, _ = generate_synthetic_scene(
            GeneratorConfig(width=width, height=height, building_density=density), seed)
        built = int((raster.classes == CellClass.BUILDING).sum())
        assert density * width * height <= built < density * width * height + 20 * 20


def test_generator_scene_is_buildable():
    cfg = GeneratorConfig(width=60, height=60, cell_size=5.0)
    raster, dsm = generate_synthetic_scene(cfg, seed=5)
    scene = build_scene(raster, dsm, SceneConfig(user_spacing_m=30.0,
                                                 candidate_pitch_m=60.0))
    assert scene.users and scene.candidates and scene.buildings


def test_generator_config_validation():
    with pytest.raises(DataError, match="width must be >= 10 cells, got 0"):
        GeneratorConfig(width=0, height=10)
    with pytest.raises(DataError, match="height must be >= 10 cells, got 9"):
        GeneratorConfig(height=9)
    with pytest.raises(DataError, match="road_period must be >= 2, got 1"):
        GeneratorConfig(road_period=1, road_width=1)
    with pytest.raises(DataError, match=r"road_width must lie in \(0, road_period = 50\), got 50"):
        GeneratorConfig(road_width=50)
    with pytest.raises(DataError, match=r"building_density must lie in \[0, 0\.8\]"):
        GeneratorConfig(building_density=0.95)


@pytest.mark.parametrize("field", ["width", "height", "road_period", "road_width"])
@pytest.mark.parametrize("value", [30.5, 40.0, np.float64(6.0), True])
def test_generator_config_names_a_non_integer_count(field, value):
    # a float used to fail inside the generator with a bare TypeError, and a
    # bool was taken as 0 or 1
    with pytest.raises(DataError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        GeneratorConfig(**{field: value})


def test_generator_config_takes_numpy_integer_counts():
    cfg = GeneratorConfig(width=np.int64(30), height=np.int32(20), road_period=np.int16(10),
                          road_width=np.uint8(3))
    raster, _ = generate_synthetic_scene(cfg, 1)
    assert raster.classes.shape == (20, 30)


@pytest.mark.parametrize("kwargs, field", [
    (dict(building_height_range=(float("nan"), 30.0)), "building_height_range"),
    (dict(building_height_range=(9.0, float("inf"))), "building_height_range"),
    (dict(cell_size=float("nan")), "cell_size"),
    (dict(building_density=float("-inf")), "building_density"),
])
def test_generator_config_rejects_non_finite(kwargs, field):
    # NaN passes every range check, and an infinite height range used to
    # reach numpy's uniform draw as an OverflowError
    with pytest.raises(DataError, match=f"{field} must be finite"):
        GeneratorConfig(**kwargs)


# ---------------------------------------------------------------------------
# Scene build against a full-grid reference
#
# The reference does what the scene module did before it worked in
# per-component windows: a full-grid mask, dilation and median for every
# component, a boundary walk over the whole grid, and scalar lattice loops.
# The scene build must reproduce it bit for bit.

_REF_CROSS = ndimage.generate_binary_structure(2, 1)
_REF_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_REF_RIGHT = {v: k for k, v in _REF_LEFT.items()}


def _ref_outer_ring(cells, origin, cell_size):
    edges = {}
    h, w = cells.shape

    def present(ix, iy):
        return 0 <= ix < w and 0 <= iy < h and cells[iy, ix]

    for iy, ix in zip(*np.nonzero(cells)):
        ix, iy = int(ix), int(iy)
        if not present(ix, iy - 1):
            edges.setdefault((ix, iy), []).append((ix + 1, iy))
        if not present(ix + 1, iy):
            edges.setdefault((ix + 1, iy), []).append((ix + 1, iy + 1))
        if not present(ix, iy + 1):
            edges.setdefault((ix + 1, iy + 1), []).append((ix, iy + 1))
        if not present(ix - 1, iy):
            edges.setdefault((ix, iy + 1), []).append((ix, iy))

    def take(frm, to):
        edges[frm].remove(to)
        if not edges[frm]:
            del edges[frm]
        return to, (to[0] - frm[0], to[1] - frm[1])

    loops = []
    while edges:
        start = min(edges)
        loop = [start]
        cur, heading = take(start, min(edges[start]))
        while cur != start:
            loop.append(cur)
            outs = edges[cur]
            choice = min(outs)
            for turn in (_REF_LEFT[heading], heading, _REF_RIGHT[heading]):
                if (cur[0] + turn[0], cur[1] + turn[1]) in outs:
                    choice = (cur[0] + turn[0], cur[1] + turn[1])
                    break
            cur, heading = take(cur, choice)
        loops.append(loop)

    def area(loop):
        x, y = np.array(loop, dtype=float).T
        return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)

    outer = max(loops, key=lambda lp: abs(area(lp)))
    if area(outer) < 0:
        outer = outer[::-1]
    n = len(outer)
    corners = [
        outer[i] for i in range(n)
        if (outer[i][0] - outer[i - 1][0]) * (outer[(i + 1) % n][1] - outer[i][1])
        != (outer[i][1] - outer[i - 1][1]) * (outer[(i + 1) % n][0] - outer[i][0])
    ]
    pts = np.array(corners if len(corners) >= 3 else outer, dtype=float) * cell_size
    pts[:, 0] += origin[0]
    pts[:, 1] += origin[1]
    return pts


def _ref_buildings(raster, dsm):
    mask = raster.classes == CellClass.BUILDING
    labels, count = ndimage.label(mask, structure=_REF_CROSS)
    out = []
    for comp in range(1, count + 1):
        cells = labels == comp
        top = float(np.median(dsm.elevation[cells]))
        ring = ndimage.binary_dilation(cells, structure=_REF_CROSS) & ~cells & ~mask
        base = float(np.median(dsm.elevation[ring])) if ring.any() \
            else float(dsm.elevation[cells].min())
        out.append((_ref_outer_ring(cells, raster.origin, raster.cell_size),
                    min(base, top - 1e-6), top))
    return out, labels


def _ref_bilinear(dsm, x, y):
    gx = min(max((x - dsm.origin[0]) / dsm.cell_size - 0.5, 0.0), dsm.width - 1.0)
    gy = min(max((y - dsm.origin[1]) / dsm.cell_size - 0.5, 0.0), dsm.height - 1.0)
    ix0 = min(int(gx), dsm.width - 1 if dsm.width == 1 else dsm.width - 2)
    iy0 = min(int(gy), dsm.height - 1 if dsm.height == 1 else dsm.height - 2)
    ix1 = min(ix0 + 1, dsm.width - 1)
    iy1 = min(iy0 + 1, dsm.height - 1)
    fx, fy = gx - ix0, gy - iy0
    z = dsm.elevation
    return float(z[iy0, ix0] * (1 - fx) * (1 - fy) + z[iy0, ix1] * fx * (1 - fy)
                 + z[iy1, ix0] * (1 - fx) * fy + z[iy1, ix1] * fx * fy)


def _ref_lattice(raster, pitch):
    def axis(origin, extent):
        return origin + pitch * (np.arange(int(np.floor(extent / pitch))) + 0.5)

    xs = axis(raster.origin[0], raster.width * raster.cell_size)
    for y in axis(raster.origin[1], raster.height * raster.cell_size):
        for x in xs:
            yield x, y


def _ref_users(raster, dsm, spacing, near_dist, footprints):
    users = []
    for x, y in _ref_lattice(raster, spacing):
        label = raster.label_at(x, y)
        if label not in USER_CLASSES:
            continue
        priority = label == CellClass.IMPERVIOUS_SURFACE
        for fp in footprints:
            if priority:
                break
            dx = max(fp[:, 0].min() - x, 0.0, x - fp[:, 0].max())
            dy = max(fp[:, 1].min() - y, 0.0, y - fp[:, 1].max())
            if dx * dx + dy * dy <= near_dist * near_dist:
                priority = point_to_polygon_distance([x, y], fp) <= near_dist
        users.append(([x, y, _ref_bilinear(dsm, x, y) + USER_HEIGHT_M], priority))
    return users


def _ref_candidates(raster, dsm, pitch, mast_height, labels):
    sites = []
    for x, y in _ref_lattice(raster, pitch):
        ix, iy = raster.cell_at(x, y)
        label = raster.classes[iy, ix]
        if label in CANDIDATE_EXCLUDED:
            continue
        if label == CellClass.BUILDING:
            z = float(np.median(dsm.elevation[labels == labels[iy, ix]]))
        else:
            z = _ref_bilinear(dsm, x, y)
        sites.append([x, y, z + mast_height])
    return sites


def _assert_matches_reference(raster, dsm, cfg):
    """Build the scene and compare it with the reference; None when the
    reference has no users or no sites and the build raises accordingly."""
    ref, labels = _ref_buildings(raster, dsm)
    users = _ref_users(raster, dsm, cfg.user_spacing_m, cfg.near_dist_m,
                       [fp for fp, _, _ in ref])
    sites = _ref_candidates(raster, dsm, cfg.candidate_pitch_m, cfg.mast_height_m, labels)
    if not users or not sites:
        with pytest.raises(DataError, match="every lattice point falls on an excluded cell"
                           if users else "no lattice point falls on a walkable cell"):
            build_scene(raster, dsm, cfg)
        prisms = extract_buildings(raster, dsm)
    else:
        scene = build_scene(raster, dsm, cfg)
        prisms = scene.buildings
        assert np.array_equal(scene.user_positions(), [pos for pos, _ in users])
        assert scene.priority_mask().tolist() == [prio for _, prio in users]
        assert [c.id for c in scene.candidates] == list(range(len(sites)))
        assert np.array_equal(scene.candidate_positions(), sites)
    assert len(prisms) == len(ref)
    for prism, (footprint, base, top) in zip(prisms, ref):
        assert np.array_equal(prism.footprint, footprint)
        assert (prism.base_elev, prism.top_elev) == (base, top)
    return prisms


@pytest.mark.parametrize("seed, size, cell, density", [
    (1, 120, 1.0, 0.3), (2, 90, 2.5, 0.55), (3, 60, 25.0, 0.2), (4, 100, 0.7, 0.45),
])
def test_build_scene_matches_full_grid_reference(seed, size, cell, density):
    raster, dsm = generate_synthetic_scene(
        GeneratorConfig(width=size, height=size - 7, cell_size=cell,
                        building_density=density), seed)
    for cfg in (SceneConfig(user_spacing_m=7 * cell, candidate_pitch_m=9 * cell,
                            near_dist_m=4 * cell),
                SceneConfig(user_spacing_m=1.3 * cell, candidate_pitch_m=2.1 * cell,
                            near_dist_m=2 * cell),
                SceneConfig(user_spacing_m=1.3 * cell, candidate_pitch_m=2.1 * cell,
                            near_dist_m=0.0)):
        assert len(_assert_matches_reference(raster, dsm, cfg)) > 5


def test_build_scene_reference_edges_diagonals_and_single_cells():
    # B = building. Components touch all four edges and all four corners;
    # several meet only diagonally; some are single cells; one is a ring
    # with a courtyard and one has a pinch corner.
    plan = [
        "BB..B..BBB",
        "B...B..B.B",
        ".B.BBB..BB",
        "..B.B.BBB.",
        "B.........",
        "B..BBB.B.B",
        "...B.B..B.",
        "B..BBB.B.B",
        "BB.......B",
        "B.BB.BB.BB",
    ]
    classes = np.array([[1 if c == "B" else 0 for c in row] for row in plan])
    classes[4, 5:7] = CellClass.LOW_VEGETATION
    classes[9, 4] = CellClass.TREE
    rng = np.random.default_rng(0)
    elev = np.where(classes == 1, 12.0, 1.0) + rng.normal(0, 2, classes.shape)
    raster = ClassRaster(3.0, (-17.5, 40.25), classes)
    dsm = Dsm(3.0, (-17.5, 40.25), elev)
    prisms = _assert_matches_reference(
        raster, dsm, SceneConfig(user_spacing_m=1.0, candidate_pitch_m=1.5, near_dist_m=2.0))
    assert len(prisms) == 15
    # the full-grid building and the empty-ring case
    full = ClassRaster(1.0, (0.0, 0.0), np.ones((3, 4), dtype=int))
    prisms = extract_buildings(full, Dsm(1.0, (0.0, 0.0), np.arange(12.0).reshape(3, 4)))
    ref, _ = _ref_buildings(full, Dsm(1.0, (0.0, 0.0), np.arange(12.0).reshape(3, 4)))
    assert np.array_equal(prisms[0].footprint, ref[0][0])
    assert (prisms[0].base_elev, prisms[0].top_elev) == (ref[0][1], ref[0][2])


@settings(max_examples=120, deadline=None)
@given(
    classes=st.one_of(
        hnp.arrays(np.int16, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                               max_side=14),
                   elements=st.sampled_from([0, 1, 1, 1, 2, 3, 4, 5])),
        pinch_heavy_classes()),
    cell=st.sampled_from([0.5, 1.0, 3.7]),
    spacing=st.sampled_from([0.4, 1.0, 2.9]),
    near=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
    tied=st.booleans(),
)
def test_build_scene_matches_reference_on_random_rasters(classes, cell, spacing, near, seed,
                                                         tied):
    h, w = classes.shape
    rng = np.random.default_rng(seed)
    # tied: a few distinct heights, so medians often meet equal middle values
    elev = (rng.integers(0, 4, (h, w)) * 1.5 + 7.0 if tied
            else rng.normal(10.0, 4.0, (h, w)))
    raster = ClassRaster(cell, (3.25, -8.5), classes)
    dsm = Dsm(cell, (3.25, -8.5), elev)
    # the scalar reference walks the user lattice in Python: keep it near 14 x 14
    spacing *= max(1.0, max(h, w) / 14)
    cfg = SceneConfig(user_spacing_m=spacing * cell, candidate_pitch_m=1.5 * spacing * cell,
                      near_dist_m=near * cell)
    _assert_matches_reference(raster, dsm, cfg)


def test_extract_buildings_even_count_medians_with_ties():
    # One 2 x 3 block (6 cells) whose middle two heights tie, and one 2 x 2
    # block (4 cells) whose middle two differ; each ring has an even count
    # of cells too, tied in the first and not in the second.
    classes = np.array([
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 1, 1, 0],
        [0, 1, 1, 1, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ])
    elev = np.array([
        [9.0, 1.0, 2.0, 2.0, 9.0, 9.0, 1.0, 3.0, 9.0],
        [2.0, 20.0, 15.0, 30.0, 2.0, 1.0, 10.0, 11.0, 1.0],
        [5.0, 15.0, 12.0, 15.0, 3.0, 3.0, 13.0, 40.0, 3.0],
        [9.0, 2.0, 0.5, 2.0, 9.0, 9.0, 4.0, 2.0, 9.0],
    ])
    raster = ClassRaster(1.0, (0.0, 0.0), classes)
    dsm = Dsm(1.0, (0.0, 0.0), elev)
    first, second = extract_buildings(raster, dsm)
    assert first.top_elev == 15.0  # sorted 12 15 15 15 20 30
    assert second.top_elev == 12.0  # (11 + 13) / 2
    assert first.base_elev == 2.0  # ring: 1 2 2 | 2 5 | 2 3 | 2 0.5 2 -> 10 cells, 2 and 2
    assert second.base_elev == 2.5  # ring: 1 3 | 1 3 | 1 3 | 4 2 -> 8 cells, 2 and 3
    ref, _ = _ref_buildings(raster, dsm)
    assert [(b.base_elev, b.top_elev) for b in (first, second)] == [r[1:] for r in ref]



def test_dsm_bilinear_arrays_and_scalars_match_reference():
    rng = np.random.default_rng(4)
    for w, h in ((1, 1), (1, 5), (6, 1), (7, 4)):
        dsm = Dsm(2.5, (-3.0, 11.0), rng.normal(20.0, 5.0, (h, w)))
        x = rng.uniform(-10.0, 3.0 * w, 50)
        y = rng.uniform(5.0, 14.0 + 3.0 * h, 50)
        ref = [_ref_bilinear(dsm, a, b) for a, b in zip(x, y)]
        assert dsm.bilinear(x, y).tolist() == ref
        assert [dsm.bilinear(float(a), float(b)) for a, b in zip(x, y)] == ref
        assert isinstance(dsm.bilinear(float(x[0]), float(y[0])), float)


# ---------------------------------------------------------------------------
# Round-trip properties and scene-file validation

_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_origins = st.tuples(_coord, _coord)
_cell_sizes = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    classes=hnp.arrays(np.int16, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                   max_side=12),
                       elements=st.integers(0, 5)),
    # -9999 is the files' NODATA marker, which scene grids may not contain
    elevation=st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != -9999.0),
    origin=_origins,
    cell=_cell_sizes,
    seed=st.integers(0, 2**16),
)
def test_ascii_grid_round_trip_property(tmp_path_factory, classes, elevation, origin, cell,
                                        seed):
    h, w = classes.shape
    tmp = tmp_path_factory.mktemp("grid")
    raster = ClassRaster(cell, origin, classes)
    save_raster(raster, tmp / "classes.asc")
    back = load_raster(tmp / "classes.asc")
    assert (back.width, back.height, back.cell_size, back.origin) == (w, h, cell, origin)
    assert np.array_equal(back.classes, classes)

    elev = np.random.default_rng(seed).normal(0.0, 1.0, (h, w)) * 10.0 ** (seed % 12)
    elev.flat[seed % elev.size] = elevation
    dsm = Dsm(cell, origin, elev)
    save_dsm(dsm, tmp / "surface.asc")
    back_dsm = load_dsm(tmp / "surface.asc")
    assert (back_dsm.width, back_dsm.height, back_dsm.cell_size, back_dsm.origin) == \
        (w, h, cell, origin)
    assert np.array_equal(back_dsm.elevation, elev)


_point3 = st.tuples(_coord, _coord, _coord).map(list)


@st.composite
def _scenes(draw):
    buildings = []
    for _ in range(draw(st.integers(0, 3))):
        footprint = draw(st.lists(st.tuples(_coord, _coord).map(list), min_size=3,
                                  max_size=6))
        base = draw(_coord)
        top = base + draw(st.floats(1e-3, 300.0))
        buildings.append(BuildingPrism(np.array(footprint), base, top))
    users = [User(np.array(p), draw(st.booleans()))
             for p in draw(st.lists(_point3, min_size=1, max_size=6))]
    # candidate sites and prior BS are distinct masts; load_scene rejects repeats
    masts = draw(st.lists(_point3, min_size=1, max_size=6, unique_by=tuple))
    n_cand = draw(st.integers(max(1, len(masts) - 2), min(4, len(masts))))
    candidates = [CandidateSite(i, np.array(p)) for i, p in enumerate(masts[:n_cand])]
    fixed = [np.array(p) for p in masts[n_cand:]]
    return Scene(buildings, users, candidates, fixed)


@settings(max_examples=80, deadline=None)
@given(scene=_scenes())
def test_scene_json_round_trip_property(tmp_path_factory, scene):
    p = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(scene, p)
    back = load_scene(p)
    assert len(back.buildings) == len(scene.buildings)
    for a, b in zip(back.buildings, scene.buildings):
        assert np.array_equal(a.footprint, b.footprint)
        assert (a.base_elev, a.top_elev, a.bbox) == (b.base_elev, b.top_elev, b.bbox)
    assert np.array_equal(back.user_positions(), scene.user_positions())
    assert np.array_equal(back.priority_mask(), scene.priority_mask())
    assert [c.id for c in back.candidates] == [c.id for c in scene.candidates]
    assert np.array_equal(back.candidate_positions(), scene.candidate_positions())
    assert len(back.fixed_bs) == len(scene.fixed_bs)
    assert all(np.array_equal(a, b) for a, b in zip(back.fixed_bs, scene.fixed_bs))


def _scene_doc():
    return {
        "buildings": [{"footprint": [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]],
                       "base_elev": 0.0, "top_elev": 9.0}],
        "users": [{"position": [1.0, 9.0, 2.0], "priority": False},
                  {"position": [8.0, 9.0, 2.0], "priority": True}],
        "candidates": [{"id": 0, "position": [9.0, 0.0, 25.0]}],
        "fixed_bs": [[20.0, 20.0, 30.0]],
    }


@pytest.mark.parametrize("path, value, entry", [
    (("users", 0, "position"), [float("nan"), 9.0, 2.0], "users[0].position"),
    (("users", 1, "position"), [8.0, 9.0], "users[1].position"),
    (("users", 1, "position"), [8.0, 9.0, "high"], "users[1].position"),
    (("candidates", 0, "position"), [9.0, float("inf"), 25.0], "candidates[0].position"),
    (("candidates", 0, "position"), [[9.0, 0.0, 25.0]], "candidates[0].position"),
    (("fixed_bs", 0), [20.0, 20.0, 30.0, 1.0], "fixed_bs[0]"),
    (("fixed_bs", 0), [20.0, None, 30.0], "fixed_bs[0]"),
    (("buildings", 0, "footprint", 2), [4.0, float("-inf")], "buildings[0].footprint[2]"),
    (("buildings", 0, "footprint", 1), [4.0], "buildings[0].footprint[1]"),
    (("fixed_bs", 0), [9.0, 0.0, 25.0], "candidates[0] and fixed_bs[0]"),
    (("fixed_bs",), [[20.0, 20.0, 30.0]] * 2, "fixed_bs[0] and fixed_bs[1]"),
    (("buildings", 0, "base_elev"), "x", "buildings[0].base_elev"),
    (("buildings", 0, "top_elev"), float("inf"), "buildings[0].top_elev"),
    (("buildings", 0, "top_elev"), True, "buildings[0].top_elev"),
    (("candidates", 0, "id"), "a", "candidates[0].id"),
    (("candidates", 0, "id"), 1.7, "candidates[0].id"),
    (("users", 1, "priority"), "no", "users[1].priority"),
    # an integer too large for a float, and a JSON bool, as coordinates
    (("users", 1, "position"), [10 ** 400, 9.0, 2.0], "users[1].position"),
    (("users", 0, "position"), [1.0, True, 2.0], "users[0].position"),
    (("candidates", 0, "position"), [9.0, 0.0, -10 ** 400], "candidates[0].position"),
    (("candidates", 0, "position"), [False, 0.0, 25.0], "candidates[0].position"),
    (("fixed_bs", 0), [20.0, 10 ** 400, 30.0], "fixed_bs[0]"),
    (("fixed_bs", 0), [20.0, 20.0, True], "fixed_bs[0]"),
    (("buildings", 0, "footprint", 2), [10 ** 400, 4.0], "buildings[0].footprint[2]"),
    (("buildings", 0, "footprint", 0), [True, 0.0], "buildings[0].footprint[0]"),
    # numeric strings, which a float conversion would read as numbers
    (("users", 0, "position"), ["1.0", "9.0", "2.0"], "users[0].position"),
    (("candidates", 0, "position"), [9.0, "0", 25.0], "candidates[0].position"),
    (("fixed_bs", 0), ["20", "20", "30"], "fixed_bs[0]"),
    (("buildings", 0, "footprint", 1), ["4.0", 0.0], "buildings[0].footprint[1]"),
])
def test_load_scene_rejects_bad_coordinates(tmp_path, path, value, entry):
    doc = _scene_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))  # writes NaN/Infinity, which json.load accepts
    with pytest.raises(DataError, match=entry.replace("[", r"\[").replace("]", r"\]")):
        load_scene(p)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(fixed_BS=[]), "unknown key 'fixed_BS'"),
    (lambda doc: doc.pop("users"), "missing key 'users'"),
    (lambda doc: doc.update(buildings={}), "'buildings' must be a list, got {}"),
    (lambda doc: doc["users"][3].pop("priority"), "missing key users[3].priority"),
    (lambda doc: doc["users"][3].update(priorty=True), "unknown key users[3].priorty"),
    (lambda doc: doc["users"].__setitem__(3, [1, 2, 3]),
     "users[3] must be a JSON object, got [1, 2, 3]"),
    (lambda doc: doc["buildings"][0].update(height=9.0), "unknown key buildings[0].height"),
    (lambda doc: doc["candidates"][0].pop("id"), "missing key candidates[0].id"),
], ids=["unknown-top", "missing-users", "buildings-object", "missing-priority",
        "unknown-user-key", "list-user", "unknown-building-key", "missing-id"])
def test_load_scene_names_file_entry_and_key(tmp_path, edit, message):
    doc = _scene_doc()
    doc["users"] += [{"position": [float(x), 9.0, 2.0], "priority": False} for x in (3, 5)]
    edit(doc)
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(message)) as raised:
        load_scene(p)
    assert str(raised.value) == f"{p}: {message}"


def test_load_scene_accepts_valid_coordinates(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(_scene_doc()))
    scene = load_scene(p)
    assert scene.user_positions().tolist() == [[1.0, 9.0, 2.0], [8.0, 9.0, 2.0]]
    assert scene.fixed_bs[0].tolist() == [20.0, 20.0, 30.0]
    assert scene.buildings[0].top_elev == 9.0


@pytest.mark.parametrize("path, entry", [
    (("users", 1, "position", 0), "users[1].position"),
    (("candidates", 0, "position", 2), "candidates[0].position"),
    (("fixed_bs", 0, 1), "fixed_bs[0]"),
    (("buildings", 0, "footprint", 2, 0), "buildings[0].footprint[2]"),
])
@pytest.mark.parametrize("value", [int(sys.float_info.max) + 1, -int(sys.float_info.max) - 1,
                                   2 ** 1024 - 2 ** 970], ids=["max+1", "-max-1", "overflows"])
def test_load_scene_rejects_ints_that_round_to_the_largest_float(tmp_path, path, entry, value):
    # past the largest float, yet converted to it rather than overflowing: a
    # float conversion alone reads these as finite
    doc = _scene_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    message = f"{p}: {entry} must be "
    with pytest.raises(DataError, match=re.escape(message)) as raised:
        load_scene(p)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("group", ["users", "fixed_bs"])
def test_load_scene_keeps_the_largest_float(tmp_path, group):
    # the largest float is finite; the bulk test leaves it to the per-value one
    doc = _scene_doc()
    point = doc["users"][0]["position"] if group == "users" else doc["fixed_bs"][0]
    point[0] = sys.float_info.max
    point[1] = -int(sys.float_info.max)
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    scene = load_scene(p)
    got = scene.user_positions()[0] if group == "users" else scene.fixed_bs[0]
    assert got[:2].tolist() == [sys.float_info.max, -sys.float_info.max]


# ---------------------------------------------------------------------------
# load_scene against its per-entry reference route

_MAX = sys.float_info.max


def _reference_points(entries, dim, name):
    """Each entry a list of `dim` JSON finite numbers, tested one value at a time."""
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == dim
                and all(is_kind(v, float) for v in entry)):
            raise DataError(f"{name(i)} must be {dim} finite numbers, got {reprlib.repr(entry)}")
    return np.array(entries, dtype=float).reshape(len(entries), dim)


def _reference_load_scene(path) -> Scene:
    """`load_scene` entry by entry: one `check_object` per entry, one kind
    test per number, one prism at a time, and `np.unique` for repeated masts."""
    raw = check_object(read_json(path), scene_mod._SCENE_KEYS, scene_mod._ENTRY_KEYS, path)
    for group, kinds in scene_mod._ENTRY_KEYS.items():
        for i, entry in enumerate(raw[group]):
            check_object(entry, kinds, kinds, path, f"{group}[{i}]")
    rings = [_reference_points(b["footprint"], 2,
                               lambda j, k=k: f"{path}: buildings[{k}].footprint[{j}]")
             for k, b in enumerate(raw["buildings"])]
    prisms = []
    for k, (ring, b) in enumerate(zip(rings, raw["buildings"])):
        with prefixed(f"{path}: buildings[{k}]"):
            prisms.append(BuildingPrism(ring, float(b["base_elev"]), float(b["top_elev"])))
    users = _reference_points([u["position"] for u in raw["users"]], 3,
                              lambda i: f"{path}: users[{i}].position")
    sites = _reference_points([c["position"] for c in raw["candidates"]], 3,
                              lambda i: f"{path}: candidates[{i}].position")
    fixed = _reference_points(raw.get("fixed_bs", []), 3, lambda i: f"{path}: fixed_bs[{i}]")
    if not len(users) or not len(sites):
        raise DataError(f"{path}: {'candidates' if len(users) else 'users'} is empty; a scene "
                        "must contain users and candidate sites")
    for k, c in enumerate(raw["candidates"]):
        if c["id"] != k:
            raise DataError(f"{path}: candidates[{k}].id must be {k} (ids dense 0..C-1)")
    masts = np.concatenate([sites, fixed])
    labels = ([f"candidates[{k}]" for k in range(len(sites))]
              + [f"fixed_bs[{k}]" for k in range(len(fixed))])
    _, first, inverse = np.unique(masts, axis=0, return_index=True, return_inverse=True)
    first_seen = first[inverse.ravel()]
    repeats = np.flatnonzero(first_seen != np.arange(len(masts)))
    if repeats.size:
        j = int(repeats[0])
        i = int(first_seen[j])
        raise DataError(f"{path}: {labels[i]} and {labels[j]} are the same mast at "
                        f"{tuple(float(v) for v in masts[j])}")
    return Scene(prisms, [User(p, u["priority"]) for p, u in zip(users, raw["users"])],
                 [CandidateSite(c["id"], p) for p, c in zip(sites, raw["candidates"])],
                 list(fixed))


def _assert_same_scene(got: Scene, want: Scene):
    def same_bytes(a, b):
        return a.dtype == b.dtype == float and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert len(got.buildings) == len(want.buildings)
    for g, w in zip(got.buildings, want.buildings):
        assert same_bytes(g.footprint, w.footprint)
        assert same_bytes(np.array([g.base_elev, g.top_elev]), np.array([w.base_elev, w.top_elev]))
        assert type(g.base_elev) is type(g.top_elev) is float
        assert g.bbox == (*w.footprint.min(axis=0).tolist(), *w.footprint.max(axis=0).tolist())
    assert same_bytes(got.user_positions(), want.user_positions())
    assert [u.priority for u in got.users] == [u.priority for u in want.users]
    assert all(type(u.priority) is bool for u in got.users)
    assert [c.id for c in got.candidates] == [c.id for c in want.candidates]
    assert same_bytes(got.candidate_positions(), want.candidate_positions())
    assert len(got.fixed_bs) == len(want.fixed_bs)
    assert all(same_bytes(g, w) for g, w in zip(got.fixed_bs, want.fixed_bs))


# JSON numbers a scene may hold: floats, ints, and the edges of the float range
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([_MAX, -_MAX, int(_MAX), -int(_MAX), 5e-324, -0.0, 0, 1e16]))
_POINT3 = st.lists(_NUMBER, min_size=3, max_size=3)


@st.composite
def _scene_docs(draw):
    """A valid scene document, its entries' keys in random order."""
    buildings = []
    for footprint in draw(st.lists(st.lists(st.lists(_NUMBER, min_size=2, max_size=2),
                                            min_size=3, max_size=6), max_size=4)):
        base, top = sorted(draw(st.lists(_NUMBER, min_size=2, max_size=2, unique_by=float)),
                           key=float)
        buildings.append({"footprint": footprint, "base_elev": base, "top_elev": top})
    users = [{"position": p, "priority": draw(st.booleans())}
             for p in draw(st.lists(_POINT3, min_size=1, max_size=6))]
    masts = draw(st.lists(_POINT3, min_size=1, max_size=6,
                          unique_by=lambda p: tuple(map(float, p))))
    split = draw(st.integers(1, len(masts)))
    doc = {"buildings": buildings, "users": users,
           "candidates": [{"id": k, "position": p} for k, p in enumerate(masts[:split])]}
    if split < len(masts) or draw(st.booleans()):
        doc["fixed_bs"] = masts[split:]
    shuffle = draw(st.randoms(use_true_random=False))
    for group in ("buildings", "users", "candidates"):
        doc[group] = [dict(shuffle.sample(list(e.items()), len(e))) for e in doc[group]]
    return doc


def _number_slots(doc):
    """(container, index) of every number a scene document holds."""
    for b in doc["buildings"]:
        yield from ((v, i) for v in b["footprint"] for i in range(len(v)))
        yield from ((b, key) for key in ("base_elev", "top_elev"))
    for group in ("users", "candidates"):
        yield from ((e["position"], i) for e in doc[group] for i in range(3))
    yield from ((p, i) for p in doc.get("fixed_bs", []) for i in range(3))


_BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), 10 ** 400, int(_MAX) + 1,
                -int(_MAX) - 1, True, False, "1.0", "0", None, [1.0]]
# a value of another kind for each key of an entry
_BAD_KINDS = {"footprint": [{}, 3.0, "[[0, 0]]", None], "base_elev": ["0", None, [0.0], True],
              "top_elev": [False, "9", {}], "position": [{}, "1,2,3", 3.0, None],
              "priority": [1, 0, "yes", None, [True]], "id": [1.5, True, "0", None, [0]]}
_ENTRY_GROUPS = ("buildings", "users", "candidates")


def _corrupt(doc, data):
    """Make one corruption of `doc`, each of which the loader must refuse;
    return its name. Without buildings, the footprint and roof corruptions
    empty the users or the candidates instead."""
    kind = data.draw(st.sampled_from([
        "number", "kind", "missing", "unknown", "not-object", "length", "short-footprint",
        "low-roof", "sparse-id", "coincident", "empty"]))
    groups = [g for g in _ENTRY_GROUPS if doc[g]]
    group = data.draw(st.sampled_from(groups))
    k = data.draw(st.integers(0, len(doc[group]) - 1))
    entry = doc[group][k]
    if kind == "number":
        node, key = data.draw(st.sampled_from(list(_number_slots(doc))))
        node[key] = data.draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "kind":
        key = data.draw(st.sampled_from(sorted(entry)))
        entry[key] = data.draw(st.sampled_from(_BAD_KINDS[key]))
    elif kind == "missing":
        del entry[data.draw(st.sampled_from(sorted(entry)))]
    elif kind == "unknown":
        entry[data.draw(st.sampled_from(["extra", "Priority", "ids"]))] = 1.0
    elif kind == "not-object":
        doc[group][k] = data.draw(st.sampled_from([[1, 2], 3, "x", None, [entry]]))
    elif kind == "length":
        points = ([entry["position"]] if group != "buildings" else entry["footprint"])
        point = data.draw(st.sampled_from(points))
        del point[data.draw(st.integers(0, len(point) - 1))]
        if data.draw(st.booleans()):
            point += [1.0, 2.0]
    elif kind == "short-footprint" and doc["buildings"]:
        b = data.draw(st.sampled_from(doc["buildings"]))
        del b["footprint"][data.draw(st.integers(0, 2)):]
    elif kind == "low-roof" and doc["buildings"]:
        b = data.draw(st.sampled_from(doc["buildings"]))
        if data.draw(st.booleans()):
            b["top_elev"] = b["base_elev"]
        else:
            b["base_elev"], b["top_elev"] = b["top_elev"], b["base_elev"]
    elif kind == "sparse-id":
        c = data.draw(st.sampled_from(doc["candidates"]))
        c["id"] = data.draw(st.sampled_from([c["id"] + 1, c["id"] - 1, 10 ** 6]))
    elif kind == "coincident":
        masts = [c["position"] for c in doc["candidates"]] + doc.get("fixed_bs", [])
        copy = list(data.draw(st.sampled_from(masts)))
        if data.draw(st.booleans()):
            doc.setdefault("fixed_bs", []).append(copy)
        else:
            doc["candidates"].append({"id": len(doc["candidates"]), "position": copy})
    else:
        kind = "empty"
        doc[data.draw(st.sampled_from(["users", "candidates"]))] = []
    return kind


@settings(max_examples=150, deadline=None)
@given(doc=_scene_docs())
def test_load_scene_matches_the_per_entry_route(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    path.write_text(json.dumps(doc))
    _assert_same_scene(load_scene(path), _reference_load_scene(path))


@settings(max_examples=500, deadline=None)
@given(doc=_scene_docs(), data=st.data())
def test_load_scene_names_a_corruption_as_the_per_entry_route(tmp_path_factory, doc, data):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    kind = _corrupt(doc, data)
    path.write_text(json.dumps(doc))  # NaN and the infinities as bare NaN/Infinity
    try:
        _reference_load_scene(path)
    except DataError as e:
        message = str(e)
    else:
        raise AssertionError(f"the reference route took a {kind} corruption")
    with pytest.raises(DataError, match=re.escape(message)) as raised:
        load_scene(path)
    assert str(raised.value) == message, kind
