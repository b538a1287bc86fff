"""The CSV renderer's word tables hold digits and padding only: the line
break, the `,`, the sign and the decimal point are marks XORed into pad
bytes, never table bytes."""

import numpy as np

from zdtrade import _text


def test_word_tables_hold_no_punctuation():
    tables = _text._tables()
    assert tables
    for name, words in tables.items():
        data = np.asarray(words).view(np.uint8)
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
    tables = _text._tables.__wrapped__()
    monkeypatch.setattr(_text, "_digits", division_digits)
    reference = _text._tables.__wrapped__()
    assert list(tables) == list(reference) == ["mid", "last", "frac"]
    for name, words in reference.items():
        assert tables[name].dtype == words.dtype, name
        assert tables[name].tobytes() == words.tobytes(), name
