"""Deterministic text formatting for CSV/JSON artifacts.

A CSV value prints by the rule of its numpy dtype kind: floats with `%.12g`
(nan, inf, -inf, -0), integers with `%d`, booleans as false/true, strings
as they are.  Nothing depends on the locale, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 4096  # rows rendered by one `%` template
_CODES = {"f": "%.12g", "i": "%d", "u": "%d"}  # other kinds print with %s
_BOOL = np.array(["false", "true"], dtype=object)


def fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def table(names, codes=None):
    """Object column of each name's CSV text, or of names[codes[r]] in row
    r: each name is formatted once, by the rule of its dtype."""
    texts = np.array([_BOOL[int(a)] if a.dtype.kind == "b"
                      else _CODES.get(a.dtype.kind, "%s") % a.item()
                      for a in map(np.asarray, names)], dtype=object)
    return texts if codes is None else texts.take(codes)


def grid_axes(outer, inner):
    """The two axis columns of a row-major 2-D grid."""
    return np.repeat(table(outer), len(inner)), np.tile(table(inner), len(outer))


def csv_text(header, columns) -> str:
    """CSV text: the header line, then one line per row of the equal-length
    1-D `columns` (a bool column prints through the false/true table).
    Each block of BLOCK_ROWS rows is rendered by one `%` template."""
    cols = [_BOOL.take(c) if c.dtype.kind == "b" else c
            for c in map(np.asarray, columns)]
    row = ",".join(_CODES.get(c.dtype.kind, "%s") for c in cols) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, len(cols[0]), BLOCK_ROWS):
        blocks = [c[start:start + BLOCK_ROWS].tolist() for c in cols]
        flat = [None] * (len(blocks[0]) * len(cols))
        for i, values in enumerate(blocks):
            flat[i::len(cols)] = values
        parts.append(row * len(blocks[0]) % tuple(flat))
    return "".join(parts)
