"""The CSV renderer's word tables hold digits and padding only: the line
break, the `,`, the sign and the decimal point are marks XORed into pad
bytes, never table bytes."""

import numpy as np
import pytest

from zdtrade import _text

TABLES = ("mid", "last", "frac")


def test_word_tables_hold_no_punctuation():
    for name in TABLES:
        data = np.asarray(_text._table(name)).view(np.uint8)
        assert data.size, name
        assert not np.isin(data, np.frombuffer(b",-.\n", np.uint8)).any(), name
        assert np.isin(data, np.frombuffer(b"0123456789\xff", np.uint8)).all()


def division_digits(n: int):
    """The digit table as first built, by int64 division: shapes
    (10^n, 1), (10^n, n)."""
    v = np.arange(10 ** n)[:, None]
    return v, (v // 10 ** np.arange(n - 1, -1, -1) % 10 + 48).astype(np.uint8)


def test_word_tables_equal_the_division_built_tables(monkeypatch):
    for n in (3, 4):
        for got, want in zip(_text._digits(n), division_digits(n)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert np.array_equal(got, want)
    tables = {name: _text._table.__wrapped__(name) for name in TABLES}
    monkeypatch.setattr(_text, "_digits", division_digits)
    for name in TABLES:
        words = _text._table.__wrapped__(name)
        assert tables[name].dtype == words.dtype, name
        assert tables[name].tobytes() == words.tobytes(), name
    with pytest.raises(KeyError):       # the three are all the tables
        _text._table.__wrapped__("units")
