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
