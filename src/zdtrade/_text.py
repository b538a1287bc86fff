"""Deterministic text formatting for CSV/JSON artifacts.

`plain` is the one rule that turns a result into JSON data: dataclasses
become dicts of their fields, arrays and tuples lists, numpy scalars Python
numbers, and with `strict` every NaN or infinity becomes None.

A CSV value prints by one scalar rule, `_scalar_text`: a float as
`%.12g` (nan, inf, -inf, -0), an integer as `%d`, a boolean as false/true,
anything else by `str`.  Only numeric data columns (float and integer
arrays) apply it through the word tables below.  Every name table, given
as a list, tuple or array (the key/value CSV's keys and values, a trace's
state names and payoffs, a grid's axes), and every fallback cell of a
column (a number the word tables do not print, any cell of another dtype
kind) print one value at a time through `_scalar_text`.  Nothing depends
on the locale, so reruns are byte-identical.

`csv_blocks` renders BLOCK_ROWS rows at a time into one uint32 buffer,
held transposed so that each word column is written by one contiguous
`take`, and yields each block as bytes.  Each artifact's `to_csv(out)`
writes the blocks into a binary file one at a time, so an artifact is never
held whole; `csv_text` is their joined string.  Every cell is a whole
number of 4-byte words padded with the byte 0xFF, which UTF-8 never produces;
`bytes.translate` deletes the padding from the block.  Digits come from
10^4-entry word tables (10^3 for the units word) that hold digits and
padding only, leading and trailing zeros already padded, so a cell costs a
few table lookups, not per-byte work.  Every other byte is a mark XORed
into a pad byte that the tables leave free: the row's line break or the `,`
into byte 0 of every cell, the `-` into byte 1 of a number's first word and
the `.` into byte 3 of its units word.  `table` and `grid_axes` columns
are coded: each distinct cell is rendered once, into word tables built once
per column by `_cell_words`, and taken by code; a bool column is
`table((False, True), col)`, and a `range` column is made an array a block
at a time.

A float x whose 12-digit decimal exponent X lies in [-4, 11] is rounded as
m = rint(|x| * 10^(11 - X)): the power of ten is exact and the product is
below 2^40, so it is within half an ulp of the exact value and every
half-integer is a float; m is the correctly rounded significand unless the
product is exactly a half-integer, where the exact value may lie on either
side.  Such ties, products outside [1e11, 1e12], a carry to 1e12 at X = 11
and non-finite values are formatted one by one with `%.12g`, as are
integers of 14 or more digits and cells of other kinds.  The float
kernel reuses its own temporaries and has two fast paths: a block with no
fallback cell skips the fallback pass, and a block whose integer parts are
all below 10 takes its units words straight from the `last` table (from 10
up, the units word fills byte 1, so a leading word must hold the sign).
"""

from __future__ import annotations

import dataclasses
import math
from functools import cache
from typing import Callable, Iterator

import numpy as np

BLOCK_ROWS = 16384  # rows rendered into one buffer
_PAD = 0xFF
_PAD_WORD = np.uint32(0xFFFFFFFF)
_INT_LIMIT = 10 ** 13     # integers print through the digit tables below this
_POW10 = 10.0 ** np.arange(17)              # exact powers of ten, as floats
_MAX_M = np.where(np.arange(16) == 0, 1e12 - 1, 1e12)   # no carry at X = 11


def fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def _scalar_text(value) -> str:
    """The CSV text of one value by the scalar rule."""
    if isinstance(value, (float, np.floating)):  # first: axes are floats
        return fmt_float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return str(value)


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
    """(values, ASCII digits) of 0..10^n - 1: shapes (10^n, 1), (10^n, n),
    the digits C-contiguous.  Digit j of every value is the index of axis j
    of a grid of n axes of ten."""
    digits = np.empty((10,) * n + (n,), np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for j in range(n):
        digits[..., j] = ascii_digits.reshape((10,) + (1,) * (n - 1 - j))
    return np.arange(10 ** n)[:, None], digits.reshape(-1, n)


def _words(cells: np.ndarray) -> np.ndarray:
    """A C-contiguous (variants, n, 4) uint8 cell table as one flat,
    read-only uint32 word table."""
    words = cells.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


def _mark(char: str, byte: int) -> np.uint32:
    """The word that, XORed in, turns pad byte `byte` of a word into `char`."""
    word = np.zeros(4, np.uint8)
    word[byte] = _PAD ^ ord(char)
    return word.view(np.uint32)[0]


_BREAK, _COMMA, _SIGN, _POINT = (_mark("\n", 0), _mark(",", 0),
                                 _mark("-", 1), _mark(".", 3))


def _mid_cells(d3, d4) -> np.ndarray:
    cells = np.stack([d4, d4])
    for j in range(4):      # values below 10^(3-j) have j + 1 leading zeros
        cells[0, :10 ** (3 - j), j] = _PAD
    return cells


def _last_cells(d3, d4) -> np.ndarray:
    cells = np.full((2, 1000, 4), _PAD, np.uint8)
    cells[:, :, :3] = d3
    for j in range(2):      # byte 2 stays: 0 prints as "0"
        cells[0, :10 ** (2 - j), j] = _PAD
    return cells


def _frac_cells(d3, d4) -> np.ndarray:
    cells = np.stack([d4, d4])
    for j in range(4):      # multiples of 10^(4-j) end in 4 - j zeros
        cells[1, ::10 ** (4 - j), j] = _PAD
    return cells


@cache
def _table(name: str) -> np.ndarray:
    """The word table `name` of 4-byte cells, built from the digit arrays
    the first time a column reads it: a run that writes no CSV builds none,
    and one whose integer parts all lie below 10, as a `scan-pin` CSV's do,
    never builds `mid`.  The tables hold digits and pad bytes only; each
    stacks the variants of one word place, indexed by digits + 10^4 (10^3
    for units words) * variant:

    mid    a 4-digit word of an integer part: [leading zeros padded,
           all digits]; the leading word of an integer part of two or more
           words is below 100 and takes the padded variant, so its bytes 0
           and 1 (the `,` and the sign) stay free
    last   the units word, three digits and a free byte 3 (the point):
           [leading zeros padded, all digits]; a one-digit integer part is
           its padded variant alone
    frac   a 4-digit fraction word: [all digits, trailing zeros padded]"""
    cells = {"mid": _mid_cells, "last": _last_cells, "frac": _frac_cells}[name]
    return _words(cells(_digits(3)[1], _digits(4)[1]))


def _int_lookups(i) -> list:
    """(table, index) word lookups of the integer part `i` >= 0, in as few
    words as leave the first two bytes of the first word free for the `,`
    and the sign; the last lookup is the units word."""
    wide = int((i.max(initial=0) >= 10 ** np.array([1, 5, 9])).sum())
    if not wide:                    # every i < 10: the units word alone
        return [(_table("last"), i)]
    rest = i // 1000
    out = [(_table("last"), i - rest * 1000 + 1000 * (rest > 0))]
    for _ in range(wide):
        high = rest // 10000
        out.append((_table("mid"), rest - high * 10000 + 10000 * (high > 0)))
        rest = high
    return out[::-1]


def _frac_lookups(g, n: int) -> list:
    """Word lookups of the 4n-digit fraction field `g`, trailing zeros as
    padding."""
    frac, out, zero = _table("frac"), [], np.True_
    for _ in range(n):
        high = g // 10000
        digits = g - high * 10000
        out.append((frac, digits + 10000 * zero))
        zero = zero & (digits == 0)
        g = high
    return out[::-1]


def _float_cells(x: np.ndarray):
    """(word lookups, fallback rows, fallback texts, marks) of a float
    block.  Each step writes into a temporary of an earlier one that it no
    longer needs; a block with no fallback cell skips the fallback pass."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = x.astype(np.float64, copy=False)    # a float32 NaN may signal
        a = np.abs(x)
        # k = 11 - X digits after the point, for X clipped to [-4, 11]
        t = np.log10(a)
        np.floor(t, out=t)
        np.subtract(11.0, t, out=t)
        np.fmax(t, 0.0, out=t)
        np.fmin(t, 15.0, out=t)
        k = t.astype(np.intp)
        scale = _POW10.take(k)
        p = np.multiply(a, scale, out=t)
        m = np.rint(p)
        ok = p >= 1e11
        p -= m
        ok &= np.abs(p, out=p) != 0.5
        ok &= m <= _MAX_M.take(k, out=p)
    ok |= a == 0
    if ok.all():
        bad, texts = (), []
    else:
        bad = np.flatnonzero(~ok)
        m[bad] = 0.0
        texts = list(map(_scalar_text, x[bad].tolist()))
    # m < 2^40 and scale = 10^k, so the floor of the rounded quotient is
    # exact, and so is the fraction field f * 10^(4n - k) < 10^(4n)
    i = np.floor(np.divide(m, scale, out=p), out=p)
    f = np.subtract(m, np.multiply(i, scale, out=scale), out=m)
    point = f > 0
    n = -(-int(np.max(k, where=point, initial=0)) // 4)
    np.subtract(4 * n, k, out=k)
    f *= _POW10.take(np.maximum(k, 0, out=k), out=scale)
    ints = _int_lookups(i.astype(np.int64))
    return (ints + _frac_lookups(f.astype(np.int64), n), bad, texts,
            [(0, _SIGN, np.signbit(x)), (len(ints) - 1, _POINT, point)])


def _integer_cells(v: np.ndarray):
    """(word lookups, fallback rows, fallback texts, marks) of an integer
    block."""
    ok = v < _INT_LIMIT
    if v.dtype.kind == "i":
        ok &= v > -_INT_LIMIT
    i = np.abs(np.where(ok, v, 0).astype(np.int64))
    bad = np.flatnonzero(~ok)
    texts = list(map(_scalar_text, v[bad].tolist()))
    return _int_lookups(i), bad, texts, [(0, _SIGN, v < 0)]


def _cell_words(names) -> np.ndarray:
    """(words, len(names)) uint32 cells of `names`, a list, tuple or array:
    the `_scalar_text` of each name behind a pad byte, padded with _PAD to
    whole words.  Every name table and every fallback cell is built here;
    only numeric data columns use the word tables.  Text holds no pad byte,
    so no cell needs packing."""
    if isinstance(names, np.ndarray):
        names = names.tolist()
    raw = [_scalar_text(n).encode() for n in names]
    width = -(-(max(map(len, raw), default=0) + 1) // 4) * 4
    cells = b"".join(b"\xff" + r.ljust(width - 1, b"\xff") for r in raw)
    return np.ascontiguousarray(
        np.frombuffer(cells, np.uint32).reshape(len(raw), width // 4).T)


_NO_CELLS = _cell_words(())


class Coded:
    """A column whose row r prints as cells[codes(start, stop)[r - start]]
    for r in start:stop: each distinct cell is rendered once, into word
    tables built once per column."""

    __slots__ = ("words", "size", "codes")

    def __init__(self, words: np.ndarray, size: int,
                 codes: Callable[[int, int], np.ndarray]):
        self.words = words      # (places, cells) uint32, from _cell_words
        self.size = size
        self.codes = codes

    def __len__(self) -> int:
        return self.size


def table(names, codes=None) -> Coded:
    """Coded column of names[codes[r]] in row r (of the names themselves
    when `codes` is None): each name is rendered once."""
    words = _cell_words(names)
    k = words.shape[1]
    if codes is None:
        return Coded(words, k, np.arange)
    codes = np.asarray(codes)
    if codes.dtype.kind == "b":
        codes = codes.view(np.uint8)
    if codes.size and not 0 <= codes.min() <= codes.max() < k:
        raise ValueError(f"codes must lie in [0, {k}), got "
                         f"[{codes.min()}, {codes.max()}]")
    return Coded(words, codes.size, lambda start, stop: codes[start:stop])


def grid_axes(outer, inner) -> tuple[Coded, Coded]:
    """The two axis columns of a row-major 2-D grid, coded per block."""
    n, size = len(inner), len(outer) * len(inner)
    return (Coded(_cell_words(outer), size,
                  lambda start, stop: np.arange(start, stop) // n),
            Coded(_cell_words(inner), size,
                  lambda start, stop: np.arange(start, stop) % n))


def _column(col) -> Coded | range | np.ndarray:
    """A 1-D array, `range` or coded column; a bool array becomes a coded
    column."""
    if isinstance(col, (Coded, range)):
        return col
    col = np.asarray(col)
    if col.ndim != 1:
        raise ValueError(f"a CSV column must be 1-D, got shape {col.shape}")
    return table((False, True), col) if col.dtype.kind == "b" else col


def _lookups(col, start: int, stop: int):
    """(word lookups, fallback rows, fallback texts, marks) of rows
    start:stop."""
    if isinstance(col, Coded):
        codes = col.codes(start, stop)
        return [(w, codes) for w in col.words], (), [], []
    values = col[start:stop]
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step)
    if values.dtype.kind == "f":
        return _float_cells(values)
    if values.dtype.kind in "iu":
        return _integer_cells(values)
    texts = list(map(_scalar_text, values.tolist()))
    return [], np.arange(len(values)), texts, []


def _fill(parts, rows: int) -> np.ndarray:
    """(words, rows) uint32 buffer, transposed, holding the cells of
    `parts`, one (lookups, fallback rows, fallback texts, marks) per
    column.  A mark (word, XOR word, row mask) goes into the looked-up
    words before fallback cells overwrite theirs whole; then byte 0 of
    every cell becomes the row's line break or the `,`."""
    cells = []
    for lookups, bad, texts, marks in parts:
        fallback = _cell_words(texts) if texts else _NO_CELLS
        cells.append((max(len(lookups), fallback.shape[0]), lookups, bad,
                      fallback, marks))
    buf = np.empty((sum(c[0] for c in cells), rows), np.uint32)
    at = 0
    for j, (width, lookups, bad, fallback, marks) in enumerate(cells):
        for k, (words, index) in enumerate(lookups):
            words.take(index, out=buf[at + k], mode="wrap")
        buf[at + len(lookups):at + width] = _PAD_WORD
        for k, mark, where in marks:
            np.bitwise_xor(buf[at + k], mark, out=buf[at + k], where=where)
        if len(bad):
            buf[at:at + width, bad] = _PAD_WORD
            buf[at:at + len(fallback), bad] = fallback
        buf[at] ^= _COMMA if j else _BREAK
        at += width
    return buf


def csv_blocks(header, columns) -> Iterator[bytes]:
    """The CSV of the equal-length 1-D `columns` (arrays, a `range`, or
    coded columns from `table` and `grid_axes`) as UTF-8 blocks: the header
    line, one block of up to BLOCK_ROWS rows at a time, then the final line
    break.  The columns are checked here, before the first block."""
    cols = [_column(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"CSV has {len(header)} header names but "
                         f"{len(cols)} columns")
    sizes = sorted({len(c) for c in cols})
    if len(sizes) > 1:
        raise ValueError(f"CSV columns have unequal lengths {sizes}")
    return _blocks(",".join(header).encode(), cols, sizes[0] if sizes else 0)


def _blocks(head: bytes, cols: list, rows: int) -> Iterator[bytes]:
    yield head                      # each row starts with its line break
    for start in range(0, rows, BLOCK_ROWS):
        yield _block(cols, start, min(start + BLOCK_ROWS, rows))
    yield b"\n"


def _block(cols: list, start: int, stop: int) -> bytes:
    """Rows start:stop as bytes; neither the buffer nor the block outlives
    its write.  The next block reuses their memory only where glibc keeps
    freed blocks of this size in the heap, as it does once `cli.main` has
    fixed its mmap and trim thresholds; at glibc's start values each is
    unmapped and faulted in again."""
    buf = _fill([_lookups(c, start, stop) for c in cols], stop - start)
    return buf.T.tobytes().translate(None, b"\xff")


def csv_text(header, columns) -> str:
    """The CSV of `csv_blocks` joined into one string."""
    return b"".join(csv_blocks(header, columns)).decode()
