"""ESRI ASCII grid files: the reader's and the writers' array routes
against float(), str and repr of each value, and the header and body
checks. The round trips and error texts of the scene's load and save
functions are in test_scene.py."""

import re
import subprocess
import sys
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bsplace import gridio
from bsplace.config_json import DataError, prefixed
from bsplace.eval_report import GeneratorConfig, generate_synthetic_scene
from bsplace.scene import ClassRaster, Dsm, load_dsm, load_raster, save_dsm, save_raster

from conftest import dsm_body, grid_text


def _old_grid_rows(grid, fmt):
    """The body as the writer formatted it value by value: fmt(v) of each numpy value."""
    return "".join(" ".join(fmt(v) for v in row) + "\n" for row in grid[::-1])


def test_grid_writer_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    floats = rng.normal(0.0, 1.0, (7, 9)) * 10.0 ** rng.integers(-30, 30, (7, 9))
    floats.flat[:8] = [-0.0, 0.0, 1e-300, -1e300, 5e-324, 123456789012345678.0, -2.5, 1e16]
    ints = rng.integers(-70000, 70000, (5, 6))
    ints.flat[:3] = [0, -1, 5]
    for grid, write, old_fmt in ((floats, gridio.write_elevations, lambda v: repr(float(v))),
                                 (ints, gridio.write_codes, lambda v: str(int(v)))):
        p = tmp_path / "grid.asc"
        write(p, 2.0, (1.5, -3.0), grid)
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
    return gridio.read_grid(p)[3]


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
       piece=st.sampled_from([1, 7, 24, 61, gridio._GRID_PIECE]))
def test_grid_body_kernel_equals_float_of_each_token(tokens, data, piece):
    # \v and \x1c are ASCII whitespace, NBSP and EM SPACE are not; small
    # pieces put tokens on every cut
    spaces = data.draw(st.sampled_from([" \n\t\r", " \n\x0b\x1c", " \n\t\r\x0b\x1c\xa0\u2003"]))
    seps = data.draw(st.lists(st.text(spaces, min_size=1, max_size=3),
                              min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    body = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    with mock.patch.object(gridio, "_GRID_PIECE", piece):
        grid = gridio._parse_ascii_grid(grid_text(tokens, body).encode())[3]
    assert grid.tobytes() == _float_grid(tokens).tobytes()


def test_grid_body_kernel_gate_off_gives_the_same_bytes(monkeypatch):
    body = dsm_body(3, (60, 90)) + " 5. .5 -.5 -0 1e5 +2 9007199254740995.0\n"
    tokens = body.split()
    fast = gridio._parse_ascii_grid(grid_text(tokens, body).encode())[3]
    monkeypatch.setattr(gridio, "_EXACT_LONGDOUBLE", False)
    slow = gridio._parse_ascii_grid(grid_text(tokens, body).encode())[3]
    assert fast.tobytes() == slow.tobytes() == _float_grid(tokens).tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="no x87 long double")
def test_grid_body_kernel_sends_few_tokens_to_float(monkeypatch, tmp_path):
    seen = []
    reference = gridio._float_tokens

    def spy(body):
        seen.append(len(body.split()))
        return reference(body)

    monkeypatch.setattr(gridio, "_float_tokens", spy)
    elevation = np.random.default_rng(5).normal(30.0, 12.0, (300, 300))
    save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, elevation)
    assert sum(seen) < 0.01 * elevation.size  # midpoints only, a handful


@pytest.mark.skipif(not gridio._EXACT_LONGDOUBLE, reason="no x87 long double")
def test_grid_body_kernel_divides_short_mantissas_in_float64(monkeypatch, tmp_path):
    calls = []
    reference = gridio._long_double_quotient

    def spy(mantissa, below, slow):
        calls.append(mantissa.size)
        return reference(mantissa, below, slow)

    monkeypatch.setattr(gridio, "_long_double_quotient", spy)
    _, pieces = _route_spies(monkeypatch)
    rng = np.random.default_rng(9)
    classes = rng.integers(0, 6, (300, 300))
    save_raster(ClassRaster(1.0, (0.0, 0.0), classes), tmp_path / "raster.asc")
    assert np.array_equal(load_raster(tmp_path / "raster.asc").classes, classes)
    assert pieces == []  # one-digit codes take the one-digit pass
    # integer codes of several digits go through the kernel
    codes = rng.integers(0, 10**6, (300, 300))
    gridio.write_codes(tmp_path / "codes.asc", 1.0, (0.0, 0.0), codes)
    assert np.array_equal(gridio.read_grid(tmp_path / "codes.asc")[3], codes)
    assert pieces and calls == []
    # at most 15 significant digits: every mantissa is below 2**53
    elevation = rng.normal(30.0, 12.0, (300, 300))
    body = "".join(" ".join(f"{v:.15g}" for v in row) + "\n" for row in elevation.tolist())
    grid = gridio._parse_ascii_grid(grid_text(body.split(), body).encode())[3]
    assert grid.tobytes() == _float_grid(body.split()).tobytes()
    assert calls == []
    # repr writes 16 and 17 digits, so a save_dsm file still divides in long doubles
    save_dsm(Dsm(1.0, (0.0, 0.0), elevation), tmp_path / "dsm.asc")
    assert np.array_equal(load_dsm(tmp_path / "dsm.asc").elevation, elevation)
    assert sum(calls) == elevation.size


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
       block=st.sampled_from([1, 7, 64, gridio._REPR_BLOCK]))
def test_grid_writer_repr_route_equals_repr_of_any_float(grid, block):
    # small blocks put row ends and flagged values on every block edge
    with mock.patch.object(gridio, "_REPR_BLOCK", block):
        assert gridio._repr_rows(grid) == _repr_body(grid)


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
        assert gridio._repr_rows(grid) == _repr_body(grid), name


def test_grid_writer_uniform_and_short_decimal_grids():
    rng = np.random.default_rng(4)
    for grid in (rng.uniform(-1000.0, 1000.0, (40, 300)),
                 np.round(rng.uniform(-1000.0, 1000.0, (40, 300)), 2),
                 rng.integers(-10**6, 10**6, (40, 300)).astype(float),
                 np.exp(rng.normal(0.0, 8.0, (40, 300))),
                 rng.uniform(1e-4, 1.0, (40, 300))):
        assert gridio._repr_rows(grid) == _repr_body(grid)


@pytest.mark.skipif(not gridio._EXACT_LONGDOUBLE, reason="no x87 long double")
@pytest.mark.parametrize("seed", [1, 2])
def test_grid_writer_sends_few_values_to_repr(monkeypatch, tmp_path, seed):
    seen = []
    reference = gridio._float_reprs

    def spy(values):
        seen.append(values.size)
        return reference(values)

    monkeypatch.setattr(gridio, "_float_reprs", spy)
    _, dsm = generate_synthetic_scene(GeneratorConfig(width=300, height=300), seed)
    save_dsm(dsm, tmp_path / "dsm.asc")
    body = "".join((tmp_path / "dsm.asc").read_text().splitlines(keepends=True)[6:])
    assert body == _repr_body(dsm.elevation)
    assert sum(seen) < 0.03 * dsm.elevation.size


def test_grid_writer_gate_off_gives_the_same_bytes(monkeypatch, tmp_path):
    _, dsm = generate_synthetic_scene(GeneratorConfig(width=60, height=50), 3)
    dsm.elevation.flat[:8] = [-0.0, 0.0, 1e-300, 2.0**53 + 2, 0.5, 1e15, 123.25, -7.0]
    save_dsm(dsm, tmp_path / "on.asc")
    monkeypatch.setattr(gridio, "_EXACT_LONGDOUBLE", False)
    save_dsm(dsm, tmp_path / "off.asc")
    on, off = (tmp_path / "on.asc").read_text(), (tmp_path / "off.asc").read_text()
    assert on == off
    assert "".join(on.splitlines(keepends=True)[6:]) == _repr_body(dsm.elevation)


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
    with mock.patch.object(gridio, "_EXACT_LONGDOUBLE", gridio._EXACT_LONGDOUBLE and exact):
        try:
            expect = gridio._float_tokens(body)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                gridio._parse_grid_body(body.encode())
        else:
            assert gridio._parse_grid_body(body.encode()).tobytes() == expect.tobytes()


def _route_spies(monkeypatch):
    """Lists that record the one-digit pass's results and the kernel's pieces."""
    passes, pieces = [], []
    one_digit, parse_piece = gridio._one_digit_values, gridio._parse_piece

    def pass_spy(raw):
        passes.append(one_digit(raw))
        return passes[-1]

    def piece_spy(raw, lo, hi):
        pieces.append(hi - lo)
        return parse_piece(raw, lo, hi)

    monkeypatch.setattr(gridio, "_one_digit_values", pass_spy)
    monkeypatch.setattr(gridio, "_parse_piece", piece_spy)
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
    assert bool(pieces) == gridio._EXACT_LONGDOUBLE


@pytest.mark.parametrize("exact", [True, False])
def test_grid_one_digit_route_keeps_the_count_errors(monkeypatch, tmp_path, exact):
    monkeypatch.setattr(gridio, "_EXACT_LONGDOUBLE", gridio._EXACT_LONGDOUBLE and exact)
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
                if key not in gridio._HEADER_KEYS:
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
            values = gridio._float_tokens(text[body:])
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
    assert _outcome(gridio.read_grid, p) == expect
    if name.startswith(("lf", "crlf", "lone cr", "mixed")):
        assert not isinstance(expect, str)  # these read to a grid
    elif name.startswith(("invalid", "a ")):
        assert expect == f"{p}: not UTF-8 text"


def test_gridio_imports_only_config_json_of_the_package():
    # the file format sits below the scene: reading a grid loads no scene,
    # geometry or search code, and no scipy
    code = ("import sys\nimport bsplace.gridio\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('bsplace', 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(["bsplace", "bsplace.config_json", "bsplace.gridio"])
