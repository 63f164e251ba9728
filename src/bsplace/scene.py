"""2.5D scene construction from a semantic class raster and a surface model.

Grids are stored south-row-first (row index grows with y); ESRI ASCII files
keep the north row first and are flipped on read/write. Cell (ix, iy) covers
x in [origin + ix*cell, origin + (ix+1)*cell) and its center carries the
class label and elevation sample.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
import re
import reprlib
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .config_json import (DataError, check_entries, check_object, finite_array, is_kind,
                          prefixed, read_config_fields, read_json, require_finite, write_json)
from .geometry import outline_distance


class CellClass(IntEnum):
    IMPERVIOUS_SURFACE = 0
    BUILDING = 1
    LOW_VEGETATION = 2
    TREE = 3
    CAR = 4
    CLUTTER = 5


USER_CLASSES = (CellClass.IMPERVIOUS_SURFACE, CellClass.LOW_VEGETATION, CellClass.CLUTTER)
CANDIDATE_EXCLUDED = (CellClass.TREE, CellClass.CLUTTER, CellClass.CAR)

USER_HEIGHT_M = 2.0


def _check_grid_geometry(cell_size: float, origin: tuple[float, float], grid: np.ndarray):
    # NaN fails every comparison, so `cell_size <= 0` alone would let it through
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise DataError(f"cell_size must be finite and positive, got {cell_size!r}")
    if not np.isfinite(origin).all():
        raise DataError(f"origin must be finite, got {origin!r}")
    if grid.ndim != 2 or grid.size == 0:
        raise DataError(f"grid must be 2-D with at least one cell, got shape {grid.shape}")


@dataclass
class ClassRaster:
    """Per-cell semantic labels on a regular grid."""

    cell_size: float
    origin: tuple[float, float]
    classes: np.ndarray  # int array [height, width], row 0 southernmost

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int16)
        _check_grid_geometry(self.cell_size, self.origin, self.classes)
        bad = (self.classes < 0) | (self.classes > 5)
        if bad.any():
            code = int(self.classes[bad][0])
            raise DataError(f"class code {code} outside 0..5")

    @property
    def height(self) -> int:
        return self.classes.shape[0]

    @property
    def width(self) -> int:
        return self.classes.shape[1]

    def cell_at(self, x: float, y: float) -> tuple[int, int]:
        ix = int(np.floor((x - self.origin[0]) / self.cell_size))
        iy = int(np.floor((y - self.origin[1]) / self.cell_size))
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise DataError(f"point ({x}, {y}) outside raster extent")
        return ix, iy

    def label_at(self, x: float, y: float) -> CellClass:
        ix, iy = self.cell_at(x, y)
        return CellClass(int(self.classes[iy, ix]))


@dataclass
class Dsm:
    """Surface elevation in meters on the same grid as the class raster."""

    cell_size: float
    origin: tuple[float, float]
    elevation: np.ndarray  # float array [height, width], row 0 southernmost

    def __post_init__(self):
        self.elevation = np.asarray(self.elevation, dtype=float)
        _check_grid_geometry(self.cell_size, self.origin, self.elevation)
        if not np.isfinite(self.elevation).all():
            raise DataError("DSM contains non-finite elevations")

    @property
    def height(self) -> int:
        return self.elevation.shape[0]

    @property
    def width(self) -> int:
        return self.elevation.shape[1]

    def bilinear(self, x, y):
        """Elevation interpolated between cell centers, clamped at borders.

        Takes two floats, or two equal-shape arrays and returns an array.
        """
        gx = np.clip((np.asarray(x, dtype=float) - self.origin[0]) / self.cell_size - 0.5,
                     0.0, self.width - 1.0)
        gy = np.clip((np.asarray(y, dtype=float) - self.origin[1]) / self.cell_size - 0.5,
                     0.0, self.height - 1.0)
        ix0 = np.minimum(gx.astype(np.intp), max(self.width - 2, 0))
        iy0 = np.minimum(gy.astype(np.intp), max(self.height - 2, 0))
        ix1 = np.minimum(ix0 + 1, self.width - 1)
        iy1 = np.minimum(iy0 + 1, self.height - 1)
        fx = gx - ix0
        fy = gy - iy0
        z = self.elevation
        val = (
            z[iy0, ix0] * (1 - fx) * (1 - fy)
            + z[iy0, ix1] * fx * (1 - fy)
            + z[iy1, ix0] * (1 - fx) * fy
            + z[iy1, ix1] * fx * fy
        )
        return float(val) if val.ndim == 0 else val


@dataclass
class BuildingPrism:
    """Vertical prism: a footprint polygon extruded from base to roof."""

    footprint: np.ndarray  # (n, 2) counterclockwise, open ring
    base_elev: float
    top_elev: float
    bbox: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self):
        self.footprint = np.asarray(self.footprint, dtype=float)
        if self.footprint.ndim != 2 or self.footprint.shape[0] < 3:
            raise DataError("footprint needs at least 3 vertices")
        if not self.top_elev > self.base_elev:
            raise DataError("prism roof must be above its base")
        xs, ys = self.footprint[:, 0].tolist(), self.footprint[:, 1].tolist()
        self.bbox = (min(xs), min(ys), max(xs), max(ys))  # faster than numpy on a few vertices


@dataclass
class User:
    position: np.ndarray  # (3,) meters
    priority: bool  # near a building or on a road

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class CandidateSite:
    id: int
    position: np.ndarray  # (3,) meters, z includes the mast

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class Scene:
    """Immutable 2.5D world shared by the simulator and the optimizers."""

    buildings: list[BuildingPrism]
    users: list[User]
    candidates: list[CandidateSite]
    fixed_bs: list[np.ndarray]

    def __post_init__(self):
        self.fixed_bs = [np.asarray(p, dtype=float) for p in self.fixed_bs]

    def user_positions(self) -> np.ndarray:
        if not self.users:
            return np.zeros((0, 3))
        return np.array([u.position for u in self.users])

    def priority_mask(self) -> np.ndarray:
        return np.array([u.priority for u in self.users], dtype=bool)

    def candidate_positions(self) -> np.ndarray:
        if not self.candidates:
            return np.zeros((0, 3))
        return np.array([c.position for c in self.candidates])


@dataclass
class SceneConfig:
    user_spacing_m: float = 10.0
    candidate_pitch_m: float = 50.0
    mast_height_m: float = 25.0
    near_dist_m: float = 10.0
    fixed_bs: list = field(default_factory=list)

    def __post_init__(self):
        require_finite(self)
        for name in ("user_spacing_m", "candidate_pitch_m", "mast_height_m"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.near_dist_m < 0:
            raise DataError(f"near_dist_m must be >= 0, got {self.near_dist_m!r}")

    @classmethod
    def from_json(cls, path) -> "SceneConfig":
        return cls(**read_config_fields(path, cls))


# ---------------------------------------------------------------------------
# ESRI ASCII grid I/O

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _read_ascii_grid(path):
    """(xllcorner, yllcorner, cellsize, grid) of the ESRI ASCII grid file at
    `path`; every error names `path`."""
    with prefixed(path):
        with open(path, "rb") as f:
            data = f.read()
        return _parse_ascii_grid(data)


def _parse_ascii_grid(data: bytes):
    """(xllcorner, yllcorner, cellsize, grid) of an ESRI ASCII grid file's bytes.

    The file reads as UTF-8 text opened in text mode reads it: CR LF, a lone
    CR and LF end lines and a BOM is a character. The header lines come
    first, one `key value` pair each, in any order; the body that follows
    holds the values, whitespace-separated and wrapped anywhere, and every
    token reads bit for bit as float() reads it (see `_parse_grid_body`).
    Only a file that is not ASCII is decoded whole, to check that it is UTF-8.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError("not UTF-8 text") from None
    header = {}
    body = 0  # where the body starts: the first non-blank line that is no header field
    while body < len(data):
        # a line ends at a \n or a \r; the \n of a \r\n is then a blank line, skipped
        end = data.find(b"\n", body) + 1 or len(data)
        cr = data.find(b"\r", body, end)
        if cr >= 0:
            end = cr + 1
        line = data[body:end].decode("utf-8")
        parts = line.split(None, 2)  # a third part is enough to reject the line
        if parts:
            key = parts[0].lower()
            if key not in _HEADER_KEYS:
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
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        xll = float(header["xllcorner"])
        yll = float(header["yllcorner"])
        cell = float(header["cellsize"])
        values = _parse_grid_body(data[body:])
        nodata = float(header["nodata_value"]) if "nodata_value" in header else None
    except ValueError as e:
        raise DataError(f"non-numeric grid content: {e}") from None
    if ncols < 1 or nrows < 1 or cell <= 0:
        raise DataError("ncols/nrows must be >= 1 and cellsize > 0")
    if values.size != ncols * nrows:
        raise DataError(
            f"expected {ncols * nrows} values ({nrows} rows x {ncols} cols), got {values.size}"
        )
    if nodata is not None and (values == nodata).any():
        raise DataError("NODATA cells are not supported in scene grids")
    grid = values.reshape(nrows, ncols)[::-1]  # file stores the north row first
    return xll, yll, cell, grid


# The body kernel divides in x87 80-bit long doubles (a 64-bit mantissa),
# which numpy on aarch64, Apple silicon and Windows does not have.
_EXACT_LONGDOUBLE = (np.finfo(np.longdouble).nmant == 63
                     and np.dtype(np.longdouble).itemsize == 16)
_GRID_PIECE = 1 << 17  # body bytes per kernel pass, so its temporaries stay cache-sized
_ASCII_SPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # the bytes str.split takes for whitespace
# a body whose first token is one digit: the one-digit pass's gate
_ONE_DIGIT_HEAD = re.compile(rb"[\t-\r\x1c- ]*[0-9](?:[\t-\r\x1c- ]|$)")
_PIECE_CUT = re.compile(rb"[\t-\r\x1c- ]")  # any byte of _ASCII_SPACE
_MANTISSA_MAX = 19  # digits and dot: below 10**19 < 2**64 even with the dot read as a 0
_WORD_PAD = 24  # zero bytes before a piece: the three words of its first token
_WORD_SHIFTS = np.array([[0], [8], [16]])
_ONES = 0x0101010101010101
_LOW7 = 0x7F7F7F7F7F7F7F7F
_POW10 = 10 ** np.arange(_MANTISSA_MAX + 1, dtype=np.uint64)
# _TOP_BYTES[c] keeps the top c bytes of a little-endian word, the c that lie in the token
_TOP_BYTES = np.array([0] + [(1 << 64) - (1 << (64 - 8 * c)) for c in range(1, 9)],
                      dtype=np.uint64)


def _float_tokens(body: str) -> np.ndarray:
    """float() of each whitespace-separated token of `body`: the reference
    the kernel reproduces."""
    values = body.split()
    return np.fromiter(map(float, values), dtype=float, count=len(values))


def _parse_grid_body(raw: bytes) -> np.ndarray:
    """float() of each whitespace-separated token of `raw`, the UTF-8 bytes of
    a body, in order.

    Where the first token is one ASCII digit, one pass checks that every
    token is, and each value is its byte less ord("0"): every body
    save_raster writes. Otherwise an array kernel reads the plain decimals,
    `-?[0-9]*.?[0-9]*` with at most 19 digits and dot, in pieces of about
    `_GRID_PIECE` bytes cut at whitespace, and gives float()'s result bit
    for bit:

    - The 8-byte words that end at each token's end, bytes before its
      digits masked off, become integers by three multiply-shift steps of
      8 digits each (Lemire 2021). The dot reads as a 0 and one division
      by a power of ten takes it out: the integer mantissa m < 10**19 and
      the count f of digits after the dot.
    - Where every m of the piece is below 2**53, m and 10**f are exact
      doubles (5**19 < 2**53), and one float64 division rounds the true
      value once: float()'s result (Clinger 1990).
    - Otherwise m and 10**f are exact in the 64-bit mantissa of an x87
      long double, so q = m / 10**f is the true value v correctly rounded
      to 64 bits. Every midpoint between two doubles lies on that 64-bit
      grid (and v is far from the subnormals), so no midpoint lies
      strictly between v and q: when q is not itself a midpoint (its low
      11 mantissa bits are not 0x400), q and v round to the same double,
      float()'s result.

    Everything else goes to float() of the token: exponents, `+`, `_`,
    `nan` and `inf`, a second dot, a sign that is not the first byte,
    tokens too long, and the rare q that is a midpoint. So the first bad
    token in file order raises float()'s own ValueError. A body that is
    not ASCII (whose whitespace and digits the kernel does not know) or
    holds a control byte that is not whitespace goes to float() whole, and
    so does one that meets no x87 long double, unless every token is one
    digit.
    """
    if not raw.isascii():
        return _float_tokens(raw.decode("utf-8"))
    if _ONE_DIGIT_HEAD.match(raw):
        values = _one_digit_values(raw)
        if values is not None:
            return values
    if not _EXACT_LONGDOUBLE:
        return _float_tokens(raw.decode("ascii"))
    pieces, lo = [], 0
    while lo < len(raw):
        cut = _PIECE_CUT.search(raw, lo + _GRID_PIECE)
        hi = cut.start() if cut else len(raw)
        piece = _parse_piece(raw, lo, hi)
        if piece is None:
            return _float_tokens(raw.decode("ascii"))
        pieces.append(piece)
        lo = hi
    return np.concatenate(pieces) if pieces else np.empty(0)


def _one_digit_values(raw: bytes):
    """float() of each token of the ASCII body `raw` where every token is one
    digit, else None."""
    solid = np.frombuffer(raw, np.uint8) > 32
    if (solid[1:] & solid[:-1]).any():  # a token of two or more bytes
        return None
    digits = raw.translate(None, _ASCII_SPACE)
    if not digits.isdigit():  # a byte that is neither whitespace nor a digit
        return None
    return np.frombuffer(digits, np.uint8) - 48.0


def _parse_piece(raw: bytes, lo: int, hi: int):
    """float() of each token of raw[lo:hi], a piece cut at whitespace, or
    None where the piece holds a control byte that is not whitespace."""
    b = np.frombuffer(raw, np.uint8, hi - lo, lo)
    if (b < 9).any() or ((b - 14) < 14).any():  # 0-8 or 14-27: no str.split whitespace
        return None
    space = np.ones(b.size + 2, dtype=bool)
    np.less_equal(b, 32, out=space[1:-1])
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, ends = edges[0::2], edges[1::2]
    if not starts.size:
        return np.empty(0)
    neg = b[starts] == 45  # a leading minus
    width = ends - starts - neg  # the mantissa: digits and dot
    digits = np.zeros(_WORD_PAD + b.size, dtype=np.uint8)
    np.subtract(b, 48, out=digits[_WORD_PAD:])  # digit values; other bytes wrap above 9

    # word k holds the 8 bytes that end 8k bytes before the token's end,
    # with the bytes before its mantissa cleared; as many words as the
    # piece's widest token needs
    words = np.ndarray((digits.size - 7,), "<u8", digits, 0, (1,))  # unaligned, every offset
    shift = _WORD_SHIFTS[:min(-(-int(width.max()) // 8), 3)]
    w = words[ends + (_WORD_PAD - 8) - shift]
    w &= _TOP_BYTES[np.clip(width - shift, 0, 8)]
    # 0x01 in each byte above 9, the dot or a byte float() must read
    # (a byte's low 7 bits plus 0x76 carry into its top bit, never further)
    odd = ((((w & _LOW7) + 0x7676767676767676) | w) >> 7) & _ONES
    fill = odd * 0xFF
    # a byte above 9 that is not the dot (46 - 48 wraps to 0xFE)
    slow = (((w ^ 0xFEFEFEFEFEFEFEFE) & fill) != 0).any(axis=0)
    w &= ~fill  # the dot reads as a 0
    # the mantissa's bytes above 9 (a multiply by _ONES sums a word's bytes into its top byte)
    marks = ((odd * _ONES) >> 56).astype(np.intp).sum(axis=0)
    slow |= (marks > 1) | (width > _MANTISSA_MAX) | (width <= marks)
    # digits after the dot: 8k, plus the bytes above the dot's in its word k
    above = (((~(fill | (fill - 1)) & _ONES) * _ONES) >> 56).astype(np.intp)
    frac = (above + np.where(odd > 0, shift, 0)).sum(axis=0)

    # 8 digits at a time into their integer: three multiply-shift steps
    w = w * 10 + (w >> 8)
    w = ((w & 0x000000FF000000FF) * 0x000F424000000064
         + ((w >> 16) & 0x000000FF000000FF) * 0x0000271000000001) >> 32
    mantissa = w[0]
    for k in range(1, len(w)):
        mantissa += w[k] * _POW10[8 * k]
    below = np.take(_POW10, frac, mode="clip")
    if marks.any():  # the dot read as a 0 splits the integer into head * 10**(f+1) + tail
        head = mantissa // np.take(_POW10, np.where(marks > 0, frac + 1, _MANTISSA_MAX),
                                   mode="clip")
        mantissa -= head * 9 * below

    if mantissa.max() < 1 << 53:  # m and 10**f exact in a double: one division rounds once
        values = mantissa.astype(float) / below.astype(float)
    else:
        values = _long_double_quotient(mantissa, below, slow)
    np.negative(values, out=values, where=neg)
    redo = np.flatnonzero(slow)
    if redo.size:
        values[redo] = _float_tokens(b" ".join(
            raw[s:e] for s, e in zip((lo + starts[redo]).tolist(), (lo + ends[redo]).tolist()))
            .decode("ascii"))
    return values


def _long_double_quotient(mantissa, below, slow) -> np.ndarray:
    """m / 10**f through an x87 long double, each q midway between two doubles marked in `slow`."""
    q = mantissa.astype(np.longdouble) / below.astype(np.longdouble)  # both exact
    slow |= (q.view(np.uint64)[0::2] & 0x7FF) == 0x400
    return q.astype(float)


def _write_ascii_grid(path, cell, origin, grid, rows):
    """Write `grid` as an ESRI ASCII grid whose body is rows(grid)."""
    nrows, ncols = grid.shape
    body = rows(grid)
    with open(path, "w") as f:
        f.write(f"ncols {ncols}\n")
        f.write(f"nrows {nrows}\n")
        f.write(f"xllcorner {float(origin[0])!r}\n")  # a numpy scalar's repr is no number
        f.write(f"yllcorner {float(origin[1])!r}\n")
        f.write(f"cellsize {float(cell)!r}\n")
        f.write("NODATA_value -9999\n")
        f.write(body)


def _per_value_rows(grid, fmt) -> str:
    """fmt of each value's Python number, space-separated, one row per line,
    north row first: the body the writers' array passes reproduce."""
    return "".join(" ".join(map(fmt, row)) + "\n" for row in grid[::-1].tolist())


def _code_rows(codes) -> str:
    """_per_value_rows(codes, str), in one array pass where every code is one digit."""
    if codes.min() < 0 or codes.max() > 9:
        return _per_value_rows(codes, str)
    text = np.full((codes.shape[0], 2 * codes.shape[1]), ord(" "), dtype=np.uint8)
    text[:, 0::2] = codes[::-1] + ord("0")
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


_REPR_BLOCK = 1 << 14  # values per writer pass, so its temporaries stay under about 1 MB
_POW10L = np.longdouble(10) ** np.arange(28)  # exact in an x87 long double
_POW10F = 10.0 ** np.arange(23)  # exact doubles
_SLOT = 28  # bytes per value: its text right-aligned in 24, the separator, 3 spare
_PLACE = 23 - np.arange(_SLOT)  # how far left of the text's last byte a slot byte lies
# _LEFT_OF_POINT[f]: 0xFF in the text bytes left of a point with f digits after it
_LEFT_OF_POINT = ((_PLACE >= np.arange(24)[:, None]) * np.uint8(0xFF)).view(np.uint32)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)  # _DIGITS4[i]: i as four ASCII digits
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_SHOWN = (_PLACE < np.arange(25)[:, None]) & (_PLACE >= -1)  # row n: n bytes of text, separator


def _float_reprs(values) -> list[str]:
    """repr of each value's Python float: the route for values the kernel flags."""
    return list(map(repr, values.tolist()))


def _repr_rows(grid) -> str:
    """_per_value_rows(grid, repr), in whole-array passes of `_REPR_BLOCK` values.

    repr writes the shortest digits that read back, the nearest if several
    (Steele & White 1990, Gay 1990), in fixed notation for |v| in [1e-4,
    1e16). For |v| in [1e-4, 1e15), with e the exponent of its 17-digit
    rounding, let D_p be |v| * 10**(p-1-e) rounded to an integer:

    - 15-digit decimals lie over 4.5 ulp apart, so at most one reads back,
      and D15 is that one if it exists: rounded in float64 it is off by at
      most 1/16 of a step, and that one lies within 1/9 of a step of v. It
      reads back by one division of exact doubles (Clinger 1990). A repr
      of 15 or fewer digits, padded with zeros, is a 15-digit decimal that
      reads back, so then repr is D15 without its trailing zeros.
    - Else repr is D16 if it reads back, else D17. In an x87 long double
      |v|, 10**k and every half-integer are exact, so a rounded product
      stays on the true product's side of each half unless it is one: those
      ties are flagged, as are D16 quotients midway between two doubles. A
      power of two, whose lower neighbour is half as near, has D15 here.

    Flagged values, zeros, the rest of the range, and every value where
    numpy has no x87 long double, go through repr one by one.
    """
    if not _EXACT_LONGDOUBLE:
        return _per_value_rows(grid, repr)
    values, ncols = grid[::-1].ravel(), grid.shape[1]
    return b"".join(_repr_block(values[lo:lo + _REPR_BLOCK], (-lo - 1) % ncols, ncols)
                    for lo in range(0, values.size, _REPR_BLOCK)).decode("ascii")


def _repr_block(v, first, step) -> bytes:
    """repr of each of the values `v`, each followed by a space, or by a
    line break from value `first` on every `step` values (see `_repr_rows`)."""
    a = np.abs(v)
    slow = ~((a >= 1e-4) & (a < 1e15))
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    wide = a.astype(np.longdouble)

    def rounded(k):  # |v| * 10**k rounded half up, and whether it met a half exactly
        x = wide * _POW10L[k] + 0.5
        d = x.astype(np.uint64)
        return d, d == x

    d17, tie17 = rounded(16 - e)
    fix = (d17 >= 10**17).astype(np.intp) - (d17 < 10**16)  # log10 missed by one
    if fix.any():
        e += fix
        d17, tie17 = rounded(16 - e)
    d16, tie16 = rounded(15 - e)
    d15 = np.rint(a * _POW10F[14 - e])
    ok15 = d15 / _POW10F[14 - e] == a
    q16 = d16.astype(np.longdouble) / _POW10L[15 - e]
    ok16 = q16.astype(float) == a
    mid16 = (q16.view(np.uint64)[0::2] & 0x7FF) == 0x400
    slow |= (d17 < 10**16) | (d17 >= 10**17) | ~ok15 & (tie16 | mid16 | ~ok16 & tie17)
    digits, count = np.where(ok16, d16, d17), 17 - ok16
    short = np.flatnonzero(ok15)
    cut = d15[short] / _POW10F[1:15, None]  # below 2**53, no rounding makes a whole number
    zeros = (cut == np.floor(cut)).sum(axis=0)  # D15's trailing zeros
    digits[short], count[short] = d15[short] / _POW10F[zeros], 15 - zeros

    # repr's layout, `0.000ddd`, `ddd.ddd` or `ddd00.0`: zero-padded digits, right-aligned
    point = e + 1  # the value is 0.digits * 10**point
    after = np.maximum(count - point, 1)  # digits after the point
    digits *= _POW10[np.maximum(point - count + 1, 0)]  # a whole number's zeros and `.0`
    width = np.maximum(point, 1) + after
    n = v.size
    quads = np.empty((6, n), dtype=np.uint64)  # four digits each: 24 > 17
    for lane in range(5, 0, -1):
        quads[lane - 1] = digits // 10**4
        quads[lane] = digits - quads[lane - 1] * 10**4
        digits = quads[lane - 1]
    lanes = np.empty((n, _SLOT // 4), dtype=np.uint32)
    lanes[:, :6] = np.take(_DIGITS4, quads).T
    lanes[:, 6] = ord(" ")
    lanes[first::step, 6] = ord("\n")
    flat = lanes.ravel()  # the bytes left of the point move one left, then the point and sign
    moved = flat >> 8
    moved[:-1] |= flat[1:] << 24
    flat ^= (flat ^ moved) & np.take(_LEFT_OF_POINT, after, axis=0).ravel()
    text = lanes.view(np.uint8)
    start = np.arange(0, _SLOT * n, _SLOT)
    text.ravel()[start + 23 - after] = ord(".")
    text.ravel()[(start + 22 - width)[np.signbit(v)]] = ord("-")
    length = width + 1 + np.signbit(v)
    redo = np.flatnonzero(slow)  # in range of their slots, whatever their digits
    if redo.size:
        reprs = _float_reprs(v[redo])
        text[redo, :24] = np.frombuffer("".join(r.rjust(24) for r in reprs).encode("ascii"),
                                        np.uint8).reshape(-1, 24)
        length[redo] = list(map(len, reprs))
    return text[np.take(_SHOWN, length, axis=0)].tobytes()


def load_raster(path) -> ClassRaster:
    """Read a class raster from an ESRI ASCII grid of codes 0..5; every
    error names `path`."""
    xll, yll, cell, grid = _read_ascii_grid(path)
    with prefixed(path):
        if not np.isfinite(grid).all():
            raise DataError("class raster contains non-finite codes")
        if not np.array_equal(np.floor(grid), grid):
            raise DataError("class raster contains non-integer codes")
        out = (grid < 0) | (grid > 5)
        if out.any():  # checked before the cast, which huge codes would overflow
            raise DataError(f"class code {grid[out][0]:.0f} outside 0..5")
        return ClassRaster(cell, (xll, yll), grid.astype(np.int64))


def save_raster(raster: ClassRaster, path):
    _write_ascii_grid(path, raster.cell_size, raster.origin, raster.classes, _code_rows)


def load_dsm(path) -> Dsm:
    """Read a DSM from an ESRI ASCII grid of elevations; every error names `path`."""
    xll, yll, cell, grid = _read_ascii_grid(path)
    with prefixed(path):
        return Dsm(cell, (xll, yll), grid)


def save_dsm(dsm: Dsm, path):
    """Write `dsm` as an ESRI ASCII grid of repr of each elevation; an
    elevation equal to the files' NODATA value -9999 raises DataError."""
    nodata = np.argwhere(dsm.elevation == -9999.0)
    if nodata.size:
        row, col = nodata[0].tolist()
        raise DataError(f"{path}: elevation -9999.0 at row {row}, column {col} "
                        "is the grid files' NODATA value")
    _write_ascii_grid(path, dsm.cell_size, dsm.origin, dsm.elevation, _repr_rows)


def check_aligned(raster: ClassRaster, dsm: Dsm):
    if (raster.height, raster.width) != (dsm.height, dsm.width):
        raise DataError(
            f"raster grid {raster.height}x{raster.width} does not match "
            f"DSM grid {dsm.height}x{dsm.width}"
        )
    if abs(raster.cell_size - dsm.cell_size) > 1e-9 or (
        abs(raster.origin[0] - dsm.origin[0]) > 1e-9
        or abs(raster.origin[1] - dsm.origin[1]) > 1e-9
    ):
        raise DataError("raster and DSM disagree on cell size or origin")


# ---------------------------------------------------------------------------
# Building extraction

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)  # 4-connectivity


@dataclass
class BuildingComponents:
    """The 4-connected components of a raster's building cells, labelled once.

    `labels` numbers the components 1..n in scan order (0 off buildings).
    `tops[k]` is component k+1's roof height, the median DSM over its cells;
    the prisms and the roof-mounted sites both take it from here.
    """

    labels: np.ndarray
    tops: np.ndarray


def building_components(raster: ClassRaster, dsm: Dsm) -> BuildingComponents:
    """Label the building components once and take every roof in one grouped median."""
    from scipy import ndimage  # here, not at the top: commands that load a scene never need it

    check_aligned(raster, dsm)
    labels, count = ndimage.label(raster.classes == CellClass.BUILDING, structure=_CROSS)
    cells = np.flatnonzero(labels)
    tops = _group_medians(labels.ravel()[cells] - 1, dsm.elevation.ravel()[cells], count)
    return BuildingComponents(labels, tops)


def extract_buildings(
    raster: ClassRaster,
    dsm: Dsm,
    components: BuildingComponents | None = None,
) -> list[BuildingPrism]:
    """One prism per 4-connected component of building cells.

    Roof height is the median DSM over the component; base height is the
    median DSM over the ring of adjacent non-building cells. Medians keep
    single-cell DSM noise out of the prism heights. Bases and footprints
    are each found in one pass over the whole grid, for every component at
    once. `components` defaults to `building_components(raster, dsm)`.
    """
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)
    labels, tops = components.labels, components.tops
    bases = _ring_medians(labels, dsm.elevation, len(tops))
    empty = np.flatnonzero(np.isnan(bases))  # a component that fills the grid has no ring
    if empty.size:
        from scipy import ndimage

        bases[empty] = ndimage.minimum(dsm.elevation, labels, empty + 1)
    footprints = _trace_footprints(labels, len(tops), raster.origin, raster.cell_size)
    # degenerate flat terrain still yields a prism
    return [BuildingPrism(footprint, min(base, top - 1e-6), top)
            for footprint, base, top in zip(footprints, bases.tolist(), tops.tolist())]


def _group_medians(groups: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """np.median of the values of each group 0..count-1, NaN for an empty group.

    One sort by value and a stable one by group put every group's values in
    order; the median is the middle one, or the mean of the middle two as
    np.median takes it, (lo + hi) / 2.
    """
    order = np.argsort(values)  # equal values may come in any order
    order = order[np.argsort(groups[order], kind="stable")]
    ordered = np.append(values[order], np.nan)
    size = np.bincount(groups, minlength=count)
    start = np.cumsum(size) - size
    lo = np.where(size > 0, start + (size - 1) // 2, -1)  # -1 reads the NaN
    hi = np.where(size > 0, start + size // 2, -1)
    return np.where(lo == hi, ordered[lo], (ordered[lo] + ordered[hi]) / 2)


def _across_sides(labels: np.ndarray):
    """The label across the south, east, north and west side of every cell (0 off the grid)."""
    padded = np.pad(labels, 1)
    return padded[:-2, 1:-1], padded[1:-1, 2:], padded[2:, 1:-1], padded[1:-1, :-2]


def _ring_medians(labels: np.ndarray, elevation: np.ndarray, count: int) -> np.ndarray:
    """Median elevation over each component's ring, the off-building cells
    4-adjacent to it; NaN for a component without one."""
    off = labels == 0
    comps, cells = [], []
    seen = []  # the sides already taken: a cell counts once per component it touches
    for across in _across_sides(labels):
        ring = off & (across > 0)
        for other in seen:
            ring &= across != other
        seen.append(across)
        comps.append(across[ring])
        cells.append(np.flatnonzero(ring))
    return _group_medians(np.concatenate(comps) - 1,
                          elevation.ravel()[np.concatenate(cells)], count)


# A cell's open sides are unit edges with the cell on their left, south
# side first: their start corner, as an offset from the cell's lower-left
# corner, and their direction (east, north, west, south: d = 0..3).
_SIDE_STARTS = ((0, 0), (1, 0), (1, 1), (0, 1))
_STEPS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])
# preference among a corner's out-edges, by the turn (out d - in d) % 4 from
# the in-edge: left first, then straight on, then right
_TURN_RANK = np.array([1, 0, 3, 2])


def _trace_footprints(labels: np.ndarray, count: int, origin, cell_size) -> list[np.ndarray]:
    """Outer boundary of each component 1..count as a counterclockwise polygon.

    Every open side of every building cell is a directed unit edge with the
    cell on its left; two components are never 4-adjacent, so all edges of
    the grid are listed at once. The successor of an edge is the out-edge at
    its end corner, preferring the left turn at a pinch corner, which keeps
    each loop as tight as possible; the loops are the cycles of that table.
    Each component keeps its loop of largest area (inner rings around holes
    are dropped; a tie goes to the loop with the least start corner), begun
    at its least corner and run counterclockwise, with the corners that do
    not turn dropped. Corners are exact integers until they are scaled.
    """
    if count == 0:
        return []
    xs, ys, ds, comps = [], [], [], []
    building = labels > 0
    for d, (across, (sx, sy)) in enumerate(zip(_across_sides(labels), _SIDE_STARTS)):
        iy, ix = np.nonzero(building & (across == 0))
        xs.append(ix + sx)
        ys.append(iy + sy)
        ds.append(np.full(ix.size, d))
        comps.append(labels[iy, ix])
    x, y, d, comp = (np.concatenate(c) for c in (xs, ys, ds, comps))
    # corner keys ascend as (x, y) tuples do; sort the edges by start corner
    stride = labels.shape[0] + 1
    key = x * stride + y
    order = np.argsort(key)
    key, x, y, d, comp = key[order], x[order], y[order], d[order], comp[order]
    n, edge = key.size, np.arange(key.size)

    # successor: the out-edge at the end corner, of which a pinch corner has two
    step_x, step_y = _STEPS[d].T
    end = key + step_x * stride + step_y
    first = np.searchsorted(key, end)
    second = np.minimum(first + 1, n - 1)
    better = ((first + 1 < n) & (key[second] == end)
              & (_TURN_RANK[(d[second] - d) % 4] < _TURN_RANK[(d[first] - d) % 4]))
    succ = np.where(better, second, first)

    # each edge's loop head: its least edge, that is the edge at its least corner
    # (pointer jumping: after r rounds, the least of the 2**r edges from each one)
    rounds = int(np.bincount(comp).max()).bit_length()  # no loop outruns its component
    head, ahead = edge.copy(), succ
    for _ in range(rounds):
        head = np.minimum(head, head[ahead])
        ahead = ahead[ahead]
    # twice each loop's signed area (shoelace, exact in integers)
    area = np.zeros(n, dtype=np.int64)
    np.add.at(area, head, x * step_y - y * step_x)
    heads = np.flatnonzero(head == edge)  # in order of their least corner
    pick = heads[np.lexsort((heads, -np.abs(area[heads]), comp[heads]))]
    kept = np.zeros(n, dtype=bool)
    kept[pick[np.r_[True, comp[pick][1:] != comp[pick][:-1]]]] = True

    # edges to the end of each loop, begun at its head (list ranking, as many rounds)
    ahead = np.where(succ == head, edge, succ)  # the loop's last edge points at itself
    togo = (ahead != edge).astype(np.int64)
    for _ in range(rounds):
        togo += togo[ahead]
        ahead = ahead[ahead]
    # the corners that turn, in loop order, counterclockwise
    pred = np.empty_like(succ)
    pred[succ] = edge
    corner = np.flatnonzero(kept[head] & (d != d[pred]))
    clockwise = area[head[corner]] < 0
    corner = corner[np.lexsort((np.where(clockwise, togo[corner], -togo[corner]),
                                comp[corner]))]
    pts = np.column_stack([x[corner], y[corner]]).astype(float) * cell_size
    pts[:, 0] += origin[0]
    pts[:, 1] += origin[1]
    bounds = np.cumsum(np.bincount(comp[corner], minlength=count + 1)).tolist()
    return [pts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Users and candidate sites

def _lattice(origin_c: float, extent_m: float, pitch: float) -> np.ndarray:
    n = int(np.floor(extent_m / pitch))
    return origin_c + pitch * (np.arange(n) + 0.5)


def _lattice_cells(raster: ClassRaster, pitch: float):
    """Lattice points at `pitch` over the raster, west to east within rows
    from south to north, as x, y and the row and column of each point's cell."""
    xs = _lattice(raster.origin[0], raster.width * raster.cell_size, pitch)
    ys = _lattice(raster.origin[1], raster.height * raster.cell_size, pitch)
    x, y = (g.ravel() for g in np.meshgrid(xs, ys))
    ix = np.floor((x - raster.origin[0]) / raster.cell_size).astype(np.intp)
    iy = np.floor((y - raster.origin[1]) / raster.cell_size).astype(np.intp)
    outside = (ix < 0) | (ix >= raster.width) | (iy < 0) | (iy >= raster.height)
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise DataError(f"point ({x[i]}, {y[i]}) outside raster extent")
    return x, y, iy, ix


def place_users(
    raster: ClassRaster,
    dsm: Dsm,
    spacing: float,
    near_dist: float,
    buildings: list[BuildingPrism],
) -> list[User]:
    """Users on a regular lattice, 2 m above the surface.

    Lattice points on building/tree/car cells are skipped. A user has
    priority when it stands on an impervious surface (roads, pavements) or
    within near_dist of a building footprint. The (user, prism) pairs of the
    other users that lie within near_dist of the prism's bbox, found for
    all prisms at once, go to one `geometry.outline_distance` call, which
    gives each pair's exact distance to the footprint (0 inside or on it).
    """
    if spacing <= 0:
        raise DataError("user spacing must be positive")
    check_aligned(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, spacing)
    label = raster.classes[iy, ix]
    walkable = np.isin(label, USER_CLASSES)
    if not walkable.any():
        raise DataError("no lattice point falls on a walkable cell")
    x, y, label = x[walkable], y[walkable], label[walkable]
    positions = np.column_stack([x, y, dsm.bilinear(x, y) + USER_HEIGHT_M])
    priority = label == CellClass.IMPERVIOUS_SURFACE
    rest = np.flatnonzero(~priority)
    if buildings and rest.size:
        prism, user = _near_bbox_pairs(x[rest], y[rest], buildings, near_dist)
        near = outline_distance(x[rest[user]], y[rest[user]],
                                [b.footprint for b in buildings], prism) <= near_dist
        priority[rest[user[near]]] = True
    return [User(p, bool(q)) for p, q in zip(positions, priority)]


# (prism, point) tests per block of prisms in _near_bbox_pairs
_BBOX_BLOCK = 1 << 16


def _near_bbox_pairs(x, y, buildings, near_dist):
    """(prism, point) index pairs, prism-major, of the points (x, y) that lie
    within near_dist of a prism's bounding box.

    Each prism tests only the points of its strip of x, [x0, x1] widened by
    near_dist and a rounding margin, found by two binary searches in the
    sorted x; the exact bbox distance test then decides, for a block of
    prisms at a time.
    """
    x0, y0, x1, y1 = np.array([b.bbox for b in buildings]).T
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # far above the rounding error of the test's differences and squares
    reach = near_dist + 1e-9 * max(abs(sorted_x[0]), abs(sorted_x[-1]),
                                   np.abs(x0).max(), np.abs(x1).max(), near_dist)
    first = np.searchsorted(sorted_x, x0 - reach, "left")
    count = np.searchsorted(sorted_x, x1 + reach, "right") - first
    run_end = np.cumsum(count)  # the prisms' strips, laid end to end
    run_start = run_end - count
    limit_sq = near_dist * near_dist
    prisms, points = [], []
    s = 0
    while s < len(buildings):
        e = max(s + 1, int(np.searchsorted(run_end, run_start[s] + _BBOX_BLOCK, "right")))
        prism = np.repeat(np.arange(s, e), count[s:e])
        point = order[first[prism] + np.arange(run_start[s], run_end[e - 1]) - run_start[prism]]
        px, py = x[point], y[point]
        dx = np.maximum(np.maximum(x0[prism] - px, 0.0), px - x1[prism])
        dy = np.maximum(np.maximum(y0[prism] - py, 0.0), py - y1[prism])
        near = dx * dx + dy * dy <= limit_sq
        key = np.sort(prism[near] * x.size + point[near])  # back to point order in each prism
        prisms.append(key // x.size)
        points.append(key % x.size)
        s = e
    return np.concatenate(prisms), np.concatenate(points)


def place_candidates(
    raster: ClassRaster,
    dsm: Dsm,
    pitch: float,
    mast_height: float,
    components: BuildingComponents | None = None,
) -> list[CandidateSite]:
    """Candidate mast sites on a coarse lattice, skipping tree/clutter/car cells.

    Sites on building cells mount on the roof: z is the prism top plus the
    mast height. `components` defaults to `building_components(raster, dsm)`.
    """
    if pitch <= 0 or mast_height <= 0:
        raise DataError("pitch and mast height must be positive")
    check_aligned(raster, dsm)
    if components is None:
        components = building_components(raster, dsm)

    x, y, iy, ix = _lattice_cells(raster, pitch)
    keep = ~np.isin(raster.classes[iy, ix], CANDIDATE_EXCLUDED)
    if not keep.any():
        raise DataError("every lattice point falls on an excluded cell")
    x, y, iy, ix = x[keep], y[keep], iy[keep], ix[keep]
    surface = dsm.bilinear(x, y)
    comp = components.labels[iy, ix]
    on_roof = comp > 0
    surface[on_roof] = components.tops[comp[on_roof] - 1]
    positions = np.column_stack([x, y, surface + mast_height])
    return [CandidateSite(i, p) for i, p in enumerate(positions)]


def build_scene(raster: ClassRaster, dsm: Dsm, config: SceneConfig) -> Scene:
    """Derive buildings, users and candidate sites, and attach prior BS."""
    components = building_components(raster, dsm)
    buildings = extract_buildings(raster, dsm, components)
    users = place_users(raster, dsm, config.user_spacing_m, config.near_dist_m, buildings)
    candidates = place_candidates(raster, dsm, config.candidate_pitch_m,
                                  config.mast_height_m, components)
    fixed = list(finite_points(config.fixed_bs, 3, "fixed_bs[{}]".format))
    _reject_coincident_scene_masts(candidates, fixed)
    return Scene(buildings, users, candidates, fixed)


def reject_coincident_masts(points, labels):
    """Raise DataError naming the first pair of entries that put two masts on one point.

    A mast given twice would radiate twice, its copy's sectors interfering
    with the original's. A set of the points rules out repeats;
    `np.unique` runs only to name the pair.
    """
    pts = np.asarray(points, dtype=float)
    if len(set(map(tuple, pts.tolist()))) == len(pts):  # tuples of floats equal as the floats do
        return
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    first_seen = first[inverse.ravel()]
    repeats = np.flatnonzero(first_seen != np.arange(len(pts)))
    if repeats.size:
        j = int(repeats[0])
        i = int(first_seen[j])
        raise DataError(f"{labels[i]} and {labels[j]} are the same mast at "
                        f"{tuple(float(v) for v in pts[j])}")


def _reject_coincident_scene_masts(candidates: list[CandidateSite],
                                   fixed: list[np.ndarray]):
    """No two of the candidate sites and prior base stations may coincide."""
    reject_coincident_masts(
        [c.position for c in candidates] + fixed,
        [f"candidates[{k}]" for k in range(len(candidates))]
        + [f"fixed_bs[{k}]" for k in range(len(fixed))])


# ---------------------------------------------------------------------------
# Scene serialization (geometry only; grids stay in their ASCII files)

def scene_to_dict(scene: Scene) -> dict:
    return {
        "buildings": [
            {
                "footprint": b.footprint.tolist(),
                "base_elev": float(b.base_elev),
                "top_elev": float(b.top_elev),
            }
            for b in scene.buildings
        ],
        "users": [
            {"position": u.position.tolist(), "priority": bool(u.priority)}
            for u in scene.users
        ],
        "candidates": [
            {"id": int(c.id), "position": c.position.tolist()}
            for c in scene.candidates
        ],
        "fixed_bs": [p.tolist() for p in scene.fixed_bs],
    }


def save_scene(scene: Scene, path):
    write_json(path, scene_to_dict(scene))


def finite_points(entries: list, dim: int, name) -> np.ndarray:
    """`entries` as an (n, dim) float array, checked in one vectorized test.

    Raises DataError naming the first entry, `name(i)`, that is not `dim`
    finite numbers. Strings and JSON `true`/`false` are not numbers, and an
    integer too large for a float is not finite.
    """
    if len(entries) == 0:
        return np.empty((0, dim))
    try:
        values = list(itertools.chain.from_iterable(entries))
        sized = set(map(len, entries)) == {dim}
    except TypeError:  # an entry that is no sequence
        values, sized = [], False
    if sized and all(issubclass(kind, numbers.Real) and kind is not bool
                     for kind in set(map(type, values))):
        pts = finite_array(values)
        if pts is not None:
            return pts.reshape(len(entries), dim)
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple, np.ndarray)) and len(entry) == dim
                and all(is_kind(v, float) for v in entry)):
            raise DataError(f"{name(i)} must be {dim} finite numbers, "
                            f"got {reprlib.repr(entry)}")
    return np.array(entries, dtype=float)  # every entry passed: the largest float got here


# a scene file's keys and its entries' keys; all but fixed_bs are required
_SCENE_KEYS = {"buildings": (list,), "users": (list,), "candidates": (list,),
               "fixed_bs": (list,)}
_ENTRY_KEYS = {"buildings": {"footprint": (list,), "base_elev": (float,), "top_elev": (float,)},
               "users": {"position": (list,), "priority": (bool,)},
               "candidates": {"id": (int,), "position": (list,)}}


def load_scene(path) -> Scene:
    """The scene saved at `path`; every error names `path` and the entry.

    Each list is checked in one pass per key (`check_entries`), its
    coordinates in one `finite_points` array and its prisms' vertex counts
    and heights in one test each; only where a pass finds fault does the
    check go entry by entry, to name the first bad one.
    """
    raw = check_object(read_json(path), _SCENE_KEYS, _ENTRY_KEYS, path)
    buildings, users, candidates = (check_entries(raw[group], kinds, path, group)
                                    for group, kinds in _ENTRY_KEYS.items())
    footprints = buildings["footprint"]
    starts = [0, *itertools.accumulate(map(len, footprints))]

    def vertex_name(i):
        k = bisect.bisect_right(starts, i) - 1
        return f"{path}: buildings[{k}].footprint[{i - starts[k]}]"

    vertices = finite_points(list(itertools.chain.from_iterable(footprints)), 2, vertex_name)
    rings = [vertices[lo:hi] for lo, hi in zip(starts, starts[1:])]
    bases = list(map(float, buildings["base_elev"]))
    tops = list(map(float, buildings["top_elev"]))
    if min(map(len, footprints), default=3) >= 3 and all(map(float.__gt__, tops, bases)):
        prisms = list(map(BuildingPrism, rings, bases, tops))
    else:  # name the first bad prism
        prisms = []
        for k, args in enumerate(zip(rings, bases, tops)):
            with prefixed(f"{path}: buildings[{k}]"):
                prisms.append(BuildingPrism(*args))
    user_pos = finite_points(users["position"], 3, lambda i: f"{path}: users[{i}].position")
    cand_pos = finite_points(candidates["position"], 3,
                             lambda i: f"{path}: candidates[{i}].position")
    fixed = list(finite_points(raw.get("fixed_bs", []), 3, lambda i: f"{path}: fixed_bs[{i}]"))
    if not raw["users"] or not raw["candidates"]:
        raise DataError(f"{path}: {'candidates' if raw['users'] else 'users'} is empty; a scene "
                        "must contain users and candidate sites")
    ids = candidates["id"]
    if ids != list(range(len(ids))):
        k = next(k for k, i in enumerate(ids) if i != k)
        raise DataError(f"{path}: candidates[{k}].id must be {k} (ids dense 0..C-1)")
    sites = list(map(CandidateSite, ids, cand_pos))
    with prefixed(path):
        _reject_coincident_scene_masts(sites, fixed)
    return Scene(prisms, list(map(User, user_pos, users["priority"])), sites, fixed)
