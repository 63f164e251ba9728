"""ESRI ASCII grid files, the form in which the class raster and the DSM
arrive.

`read_grid` reads either kind of file; `write_codes` writes integer class
codes and `write_elevations` float elevations. A file keeps its north row
first, and the arrays these take and return keep the south row first (row
index grows with y). A value reads back bit for bit as float() reads its
token, and is written as str (codes) or repr (elevations) of it, on every
route a body takes.
"""

from __future__ import annotations

import re

import numpy as np

from .config_json import DataError, prefixed

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def read_grid(path):
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


def write_codes(path, cell, origin, codes):
    """Write the integer array `codes` as an ESRI ASCII grid of str of each code."""
    _write_grid(path, cell, origin, codes.shape, _code_rows(codes))


def write_elevations(path, cell, origin, elevation):
    """Write the float array `elevation` as an ESRI ASCII grid of repr of each
    elevation; one equal to the files' NODATA value -9999 raises DataError."""
    nodata = np.argwhere(elevation == -9999.0)
    if nodata.size:
        row, col = nodata[0].tolist()
        raise DataError(f"{path}: elevation -9999.0 at row {row}, column {col} "
                        "is the grid files' NODATA value")
    _write_grid(path, cell, origin, elevation.shape, _repr_rows(elevation))


def _write_grid(path, cell, origin, shape, body: str):
    """Write the header of a grid of `shape`, then `body`."""
    nrows, ncols = shape
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
