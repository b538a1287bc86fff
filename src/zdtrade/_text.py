"""Deterministic text formatting for CSV/JSON artifacts.

`plain` is the one rule that turns a result into JSON data: dataclasses
become dicts of their fields, arrays and tuples lists, numpy scalars Python
numbers, and with `strict` every NaN or infinity becomes None.

A CSV value prints by the rule of its numpy dtype kind: floats as `%.12g`
(nan, inf, -inf, -0), integers as `%d`, booleans as false/true, strings as
they are.  Nothing depends on the locale, so reruns are byte-identical.

`csv_text` renders BLOCK_ROWS rows at a time into one uint32 buffer, held
transposed so that each word column is written by one contiguous `take`.
Every cell is a whole number of 4-byte words: its `,` (a pad byte in the
first column), then its text, padded with the byte 0xFF, which UTF-8 never
produces; `bytes.translate` deletes the padding from the block.  Digits
come from 10^4-entry word tables (10^3 for the units word, whose fourth
byte holds the decimal point) in which leading zeros, trailing zeros and
the sign are already written as padding or `-`, so a cell costs a few
table lookups, not per-byte work.  Booleans and `table` and `grid_axes`
columns are coded: each distinct cell is rendered once and taken by code.

A float x whose 12-digit decimal exponent X lies in [-4, 11] is rounded as
m = rint(|x| * 10^(11 - X)): the power of ten is exact and the product is
below 2^40, so it is within half an ulp of the exact value and every
half-integer is a float; m is the correctly rounded significand unless the
product is exactly a half-integer, where the exact value may lie on either
side.  Such ties, products outside [1e11, 1e12], a carry to 1e12 at X = 11
and non-finite values are formatted one by one with `%.12g`, as are
integers of 14 or more digits and cells of other kinds.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cache
from typing import Callable

import numpy as np

BLOCK_ROWS = 16384  # rows rendered into one buffer
_PAD = 0xFF
_PAD_WORD = np.uint32(0xFFFFFFFF)
_SEP = (np.uint8(_PAD), np.uint8(ord(",")))
_INT_LIMIT = 10 ** 13     # integers print through the digit tables below this
_POW10 = 10.0 ** np.arange(17)              # exact powers of ten, as floats
_MAX_M = np.where(np.arange(16) == 0, 1e12 - 1, 1e12)   # no carry at X = 11


def fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def plain(obj, strict: bool = False):
    """`obj` as JSON data: a dataclass as a dict of its fields in field
    order, an array, list or tuple as a list, a numpy scalar as a Python
    number; with `strict`, every non-finite float as None."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name), strict)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v, strict) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [plain(v, strict) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if strict and isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _digits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, ASCII digits) of 0..10^n - 1: shapes (10^n, 1), (10^n, n)."""
    v = np.arange(10 ** n)[:, None]
    return v, (v // 10 ** np.arange(n - 1, -1, -1) % 10 + 48).astype(np.uint8)


def _signed(cells: np.ndarray) -> np.ndarray:
    """Leading-padded cells with '-' in their last leading pad byte."""
    out = cells.copy()
    pads = (cells == _PAD).sum(axis=1)
    out[np.arange(len(out)), np.maximum(pads - 1, 0)] = ord("-")
    return out


def _words(*cells: np.ndarray) -> np.ndarray:
    """Stacked (n, 4) uint8 cell tables as one flat, read-only uint32 word
    table."""
    words = np.ascontiguousarray(np.concatenate(cells)).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


@cache
def _tables() -> dict:
    """Word tables of 4-byte cells, built on first use (a run that writes
    no CSV never builds them).  A table stacks the variants of one word
    place, indexed by digits + 10^4 (10^3 for units words) * variant:

    mid    a 4-digit word of an integer part: [leading zeros padded,
           all digits]
    first  the leading word of an integer part of two or more words:
           [unsigned, '-' before the first digit]
    last   the units word of such a part, three digits and the point byte:
           [leading zeros padded, all digits] x [no point, point]
    one    the units word of a one-digit integer part:
           [unsigned, signed] x [no point, point]
    frac   a 4-digit fraction word: [all digits, trailing zeros padded]

    first and one are pairs: [pad, `,`] in byte 0."""
    v4, d4 = _digits(4)
    col = np.arange(4)
    lead = np.where(v4 < 10 ** (3 - col), _PAD, d4).astype(np.uint8)
    trail = np.where(v4 % 10 ** (4 - col) == 0, _PAD, d4).astype(np.uint8)
    v3, d3 = _digits(3)
    lead0 = np.where((v3 < 10 ** (2 - col[:3])) & (col[:3] < 2), _PAD, d3)
    lead0 = lead0.astype(np.uint8)                  # 0 prints as "0"

    def units(*cells):
        return [np.hstack([c, np.full((1000, 1), byte, np.uint8)])
                for byte in (_PAD, ord(".")) for c in cells]

    first = [lead, _signed(lead)]
    one = units(lead0, _signed(lead0))
    tables = {"mid": _words(lead, d4), "frac": _words(d4, trail),
              "last": _words(*units(lead0, d3))}
    for name, cells in (("first", first), ("one", one)):
        tables[name] = [_words(*cells)]
        comma = [c.copy() for c in cells]
        for c in comma:
            c[:, 0] = ord(",")
        tables[name].append(_words(*comma))
    return tables


def _int_lookups(i, sign, point, comma: bool) -> list:
    """(table, index) word lookups of the integer part `i` >= 0 with its
    sign and point flags, in as few words as leave the first two bytes of
    the first word free for the `,` and the sign."""
    tables = _tables()
    wide = int((i.max(initial=0) >= 10 ** np.array([1, 5, 9])).sum())
    if wide == 0:
        return [(tables["one"][comma], i + 1000 * (sign + 2 * point))]
    rest = i // 1000
    out = [(tables["last"], i - rest * 1000 + 1000 * ((rest > 0) + 2 * point))]
    for _ in range(wide - 1):
        high = rest // 10000
        out.append((tables["mid"], rest - high * 10000 + 10000 * (high > 0)))
        rest = high
    out.append((tables["first"][comma], rest + 10000 * sign))
    return out[::-1]


def _frac_lookups(g, n: int) -> list:
    """Word lookups of the 4n-digit fraction field `g`, trailing zeros as
    padding."""
    frac, out, zero = _tables()["frac"], [], np.True_
    for _ in range(n):
        high = g // 10000
        digits = g - high * 10000
        out.append((frac, digits + 10000 * zero))
        zero = zero & (digits == 0)
        g = high
    return out[::-1]


def _float_cells(x: np.ndarray, comma: bool):
    """(word lookups, fallback rows, fallback texts) of a float block."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = x.astype(np.float64, copy=False)    # a float32 NaN may signal
        a = np.abs(x)
        # k = 11 - X digits after the point, for X clipped to [-4, 11]
        k = np.fmin(np.fmax(11.0 - np.floor(np.log10(a)), 0.0), 15.0)
        k = k.astype(np.intp)
        scale = _POW10.take(k)
        p = a * scale
        m = np.rint(p)
        ok = (p >= 1e11) & (m <= _MAX_M.take(k)) & (np.abs(p - m) != 0.5)
    ok |= a == 0
    bad = np.flatnonzero(~ok)
    m[bad] = 0.0
    # m < 2^40 and scale = 10^k, so the floor of the rounded quotient is
    # exact, and so is the fraction field f * 10^(4n - k) < 10^(4n)
    i = np.floor(m / scale)
    f = m - i * scale
    point = f > 0
    n = -(-int(np.max(k, where=point, initial=0)) // 4)
    g = (f * _POW10.take(np.maximum(4 * n - k, 0))).astype(np.int64)
    lookups = (_int_lookups(i.astype(np.int64), np.signbit(x), point, comma)
               + _frac_lookups(g, n))
    return lookups, bad, ["%.12g" % v for v in x[bad].tolist()]


def _integer_cells(v: np.ndarray, comma: bool):
    """(word lookups, fallback rows, fallback texts) of an integer block."""
    ok = v < _INT_LIMIT
    if v.dtype.kind == "i":
        ok &= v > -_INT_LIMIT
    i = np.abs(np.where(ok, v, 0).astype(np.int64))
    bad = np.flatnonzero(~ok)
    return (_int_lookups(i, v < 0, False, comma), bad,
            [str(int(t)) for t in v[bad].tolist()])


def _text_cells(texts) -> np.ndarray:
    """(n, width) uint8 UTF-8 cells of `texts`, padded with _PAD."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    return np.frombuffer(b"".join(r.ljust(width, b"\xff") for r in raw),
                         np.uint8).reshape(len(raw), width)


def _cell_words(cells: np.ndarray, comma: bool) -> np.ndarray:
    """(n, words) uint32 of padded uint8 cells behind a `,` or a pad byte."""
    n, width = cells.shape
    out = np.full((n, -(-(width + 1) // 4) * 4), _PAD, np.uint8)
    out[:, 0] = _SEP[comma]
    out[:, 1:width + 1] = cells
    return out.view(np.uint32)


class Coded:
    """A column whose row r prints as cells[codes(start, stop)[r - start]]
    for r in start:stop: each distinct cell is rendered once."""

    __slots__ = ("cells", "size", "codes")

    def __init__(self, cells: np.ndarray, size: int,
                 codes: Callable[[int, int], np.ndarray]):
        self.cells = cells          # (k, width) uint8, padded with _PAD
        self.size = size
        self.codes = codes


_BOOL = _text_cells(["false", "true"])
_NEWLINE = _cell_words(_text_cells(["\n"]), False)[0, 0]


def _cells(names) -> np.ndarray:
    """(len(names), width) uint8 cells of `names`, each by its dtype's rule."""
    if isinstance(names, np.ndarray):
        return _text_cells(_texts(names))
    return _text_cells([_texts(np.asarray(n).reshape(1))[0] for n in names])


def table(names, codes=None) -> Coded:
    """Coded column of names[codes[r]] in row r (of the names themselves
    when `codes` is None): each name is rendered once."""
    cells = _cells(names)
    if codes is None:
        return Coded(cells, len(cells), np.arange)
    codes = np.asarray(codes)
    if codes.dtype.kind == "b":
        codes = codes.view(np.uint8)
    if codes.size and not 0 <= codes.min() <= codes.max() < len(cells):
        raise ValueError(f"codes must lie in [0, {len(cells)}), got "
                         f"[{codes.min()}, {codes.max()}]")
    return Coded(cells, codes.size, lambda start, stop: codes[start:stop])


def grid_axes(outer, inner) -> tuple[Coded, Coded]:
    """The two axis columns of a row-major 2-D grid, coded per block."""
    n, size = len(inner), len(outer) * len(inner)
    return (Coded(_cells(np.asarray(outer)), size,
                  lambda start, stop: np.arange(start, stop) // n),
            Coded(_cells(np.asarray(inner)), size,
                  lambda start, stop: np.arange(start, stop) % n))


def _column(col) -> Coded | np.ndarray:
    """A 1-D array or coded column; a bool array becomes a coded column."""
    if isinstance(col, Coded):
        return col
    col = np.asarray(col)
    if col.ndim != 1:
        raise ValueError(f"a CSV column must be 1-D, got shape {col.shape}")
    if col.dtype.kind == "b":
        return Coded(_BOOL, col.size,
                     lambda start, stop: col[start:stop].view(np.uint8))
    return col


def _lookups(col, start: int, stop: int, comma: bool):
    """(word lookups, fallback rows, fallback texts) of rows start:stop."""
    if isinstance(col, Coded):
        codes = col.codes(start, stop)
        return [(w, codes) for w in _cell_words(col.cells, comma).T], (), []
    values = col[start:stop]
    if values.dtype.kind == "f":
        return _float_cells(values, comma)
    if values.dtype.kind in "iu":
        return _integer_cells(values, comma)
    return [], np.arange(len(values)), [str(v) for v in values.tolist()]


def _fill(parts, rows: int, extra: int) -> np.ndarray:
    """(words + extra, rows) uint32 buffer, transposed, holding the cells
    of `parts`: one (lookups, fallback rows, fallback texts) per column."""
    cells = []
    for j, (lookups, bad, texts) in enumerate(parts):
        fallback = _cell_words(_text_cells(texts), j > 0)
        cells.append((max(len(lookups), fallback.shape[1]), lookups, bad,
                      fallback))
    buf = np.empty((sum(c[0] for c in cells) + extra, rows), np.uint32)
    at = 0
    for width, lookups, bad, fallback in cells:
        for j, (words, index) in enumerate(lookups):
            words.take(index, out=buf[at + j], mode="wrap")
        buf[at + len(lookups):at + width] = _PAD_WORD
        if len(bad):
            buf[at:at + width, bad] = _PAD_WORD
            buf[at:at + fallback.shape[1], bad] = fallback.T
        at += width
    return buf


def _texts(values: np.ndarray) -> list:
    """The CSV text of each value of a 1-D array."""
    buf = _fill([_lookups(_column(values), 0, len(values), False)],
                len(values), 0)
    return [row.tobytes().translate(None, b"\xff").decode() for row in buf.T]


def csv_text(header, columns) -> str:
    """CSV text: the header line, then one line per row of the equal-length
    1-D `columns` (arrays, or coded columns from `table` and `grid_axes`)."""
    cols = [_column(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"CSV has {len(header)} header names but "
                         f"{len(cols)} columns")
    sizes = sorted({c.size for c in cols})
    if len(sizes) > 1:
        raise ValueError(f"CSV columns have unequal lengths {sizes}")
    rows = sizes[0] if sizes else 0
    parts = [",".join(header) + "\n"]
    for start in range(0, rows, BLOCK_ROWS):
        parts.append(_render_block(cols, start, min(start + BLOCK_ROWS, rows)))
    return "".join(parts)


def _render_block(cols, start: int, stop: int) -> str:
    buf = _fill([_lookups(c, start, stop, i > 0) for i, c in enumerate(cols)],
                stop - start, 1)
    buf[-1] = _NEWLINE
    return buf.T.tobytes().translate(None, b"\xff").decode()
