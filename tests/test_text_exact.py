"""The array renderer of CSV cells against Python's own `%.12g` and `%d`,
value by value, and its refusals of malformed column sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdtrade._text as text_mod
from zdtrade import GameParams, scan_pinning_region
from zdtrade._text import csv_blocks, csv_text

INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


def cells(values) -> list:
    """The rendered cells of one CSV column."""
    return csv_text(["x"], [values]).split("\n")[1:-1]


def assert_floats_exact(values):
    values = np.asarray(values)
    expected = ["%.12g" % v for v in values.tolist()]
    got = cells(values)
    wrong = [(v, e, g) for v, e, g in zip(values.tolist(), expected, got)
             if e != g]
    assert not wrong and len(got) == len(expected), wrong[:5]


@settings(max_examples=150, deadline=None)
@given(st.lists(INT64, min_size=1, max_size=64))
def test_every_float64_bit_pattern_prints_as_percent_g(bits):
    assert_floats_exact(np.array(bits, dtype=np.int64).view(np.float64))


@settings(max_examples=60, deadline=None)
@given(st.lists(INT64, min_size=1, max_size=64))
def test_integers_print_as_percent_d(values):
    values = np.array(values, dtype=np.int64)
    assert cells(values) == ["%d" % v for v in values.tolist()]


def test_unsigned_and_wide_integers_print_as_percent_d():
    for values in (np.array([0, 9, 10, 99999, 10**5, 10**13 - 1, 10**13,
                             2**64 - 1], dtype=np.uint64),
                   np.array([-2**63, -10**13, -10**13 + 1, -99999, -1, 0,
                             2**63 - 1], dtype=np.int64)):
        assert cells(values) == ["%d" % v for v in values.tolist()]


def test_neighbours_of_powers_of_ten():
    values = []
    for e in range(-5, 14):
        up = down = 10.0 ** e
        values.append(up)
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            values += [up, down]
    assert_floats_exact(np.array(values))


def test_exact_ties_and_carries():
    rng = np.random.default_rng(5)
    # odd multiples of 2^-12 in [1, 10): 13 significant digits ending in 5,
    # so the scaled product is exactly a half-integer
    dyadic = (2 * rng.integers(2**11, 5 * 2**12, 200) + 1) / 2.0**12
    values = np.concatenate([
        [123456789012.5, 1234567890125.0, 999999999999.5, 99999999999.5,
         0.5, 2.5, 1.000244140625, 9.999999999995, 0.99999999999951,
         99999.9999999951, 0.000999999999999951, 9999999999999.0],
        dyadic, dyadic * 2.0**-8, dyadic * 2.0**20])
    assert_floats_exact(np.concatenate([values, -values]))


def test_subnormals_zeros_infinities_and_nans():
    negative_nan = np.array([0xFFF8000000000001], np.uint64).view(np.float64)
    values = np.concatenate([
        [5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf,
         -np.inf, np.nan, 1e-4, 9.9999999999995e-5, 1e12, 1e300],
        negative_nan])
    assert np.signbit(negative_nan[0]) and np.isnan(negative_nan[0])
    assert_floats_exact(values)


def test_float32_columns_print_their_float64_value():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.integers(0, 2**32, 2000, dtype=np.uint64).astype(np.uint32)
        .view(np.float32),
        np.array([0.1, -3.4028235e38, 1e-45, 1.5, 16777217.0], np.float32)])
    assert cells(values) == ["%.12g" % float(v) for v in values]


def test_array_path_renders_nearly_every_pinning_cell():
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)
    grid = scan_pinning_region(params, resolution=101)
    floats = [grid.p2.ravel(), grid.p3.ravel(), grid.pinned_s_c.ravel()]
    fallback = sum(len(text_mod._float_cells(c)[1]) for c in floats)
    assert fallback <= 1e-3 * sum(c.size for c in floats)


def float_parts(values) -> tuple[int, int]:
    """(fallback cells, index of the units word) of one float block."""
    _, bad, texts, marks = text_mod._float_cells(np.asarray(values, float))
    assert len(bad) == len(texts)
    return len(bad), marks[1][0]


def test_one_digit_integer_parts_take_the_units_word_alone():
    rng = np.random.default_rng(11)
    values = (rng.random(3000) - 0.5) * 19.99
    values[:1000] = np.round(values[:1000], 3)
    values[1000:1010] = [0.0, -0.0, 9.0, -9.0, 9.9999999999949, 1e-4,
                         -9.5, 0.5, 5e-4, 1.0]
    assert float_parts(values) == (0, 0)
    assert_floats_exact(values)
    ints = np.arange(-9, 10)
    assert cells(ints) == ["%d" % v for v in ints.tolist()]
    assert cells(ints.astype(np.uint8)[9:]) == [str(v) for v in range(10)]


def test_a_carry_to_ten_leaves_the_units_word_fast_path():
    # 9.99999999999995 rounds to 10 at 12 digits: two integer digits, so
    # the units word gives up byte 1 and a leading word holds the sign
    assert float_parts([9.99999999999995]) == (0, 1)
    assert float_parts([-9.5]) == (0, 0)
    for values in ([9.99999999999995], [-9.5], [-9.99999999999995],
                   [9.99999999999995, -9.5, 0.25, -0.0],
                   [9.999999999995, -9.9999999999995, 9.99999999999949]):
        assert_floats_exact(values)


def test_blocks_with_and_without_fallback_cells():
    rng = np.random.default_rng(12)
    values = rng.random(500) * 9.5
    assert float_parts(values)[0] == 0
    assert_floats_exact(values)
    for odd in (np.nan, 1e-5, 1e12, -np.inf):
        mixed = values.copy()
        mixed[137] = odd
        assert float_parts(mixed)[0] == 1
        assert_floats_exact(mixed)


def test_coded_columns_across_many_blocks(monkeypatch):
    monkeypatch.setattr(text_mod, "BLOCK_ROWS", 7)
    outer = np.array([0.0, 0.25, -1.5, 1e12, np.nan])
    inner = np.array([1.0, 9.99999999999995, 1e-5])
    rows = len(outer) * len(inner)
    flags = np.arange(rows) % 3 == 1
    codes = np.arange(rows) % 4
    names = ["CC", "CD", "DC", "DD"]
    values = np.linspace(-2.0, 2.0, rows)
    text = csv_text(["p1", "p4", "flag", "state", "x"],
                    [*text_mod.grid_axes(outer, inner), flags,
                     text_mod.table(names, codes), values])
    expected = ["p1,p4,flag,state,x"] + [
        ",".join(["%.12g" % outer[r // 3], "%.12g" % inner[r % 3],
                  "true" if flags[r] else "false", names[codes[r]],
                  "%.12g" % values[r]]) for r in range(rows)]
    assert text == "\n".join(expected) + "\n"


@pytest.mark.parametrize("values", [
    np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-5,
              99999999999.5, 999999999999.4, 1e12, -1.5, 0.25]),
    np.linspace(0.0, 0.9, 200),
    np.array([10**13, -10**13, 10**13 - 1, 10**14 + 3, 2**63 - 1, -2**63,
              0, -7], dtype=np.int64),
    np.array([10**13, 2**64 - 1, 9, 0], dtype=np.uint64),
    np.array([], dtype=float),
])
def test_coded_number_cells_equal_their_texts(values):
    texts = cells(values)
    words = text_mod._cell_words(values)
    reference = text_mod._cell_words(texts)
    assert (words.shape, words.tobytes()) == (reference.shape,
                                              reference.tobytes())
    codes = np.arange(len(values))[::-1]
    assert cells(text_mod.table(values, codes)) == texts[::-1]
    outer, inner = text_mod.grid_axes(values, values[:3])
    assert cells(outer) == [t for t in texts for _ in values[:3]]
    assert cells(inner) == texts[:3] * len(values)


def test_header_and_column_counts_must_match():
    with pytest.raises(ValueError, match="1 header names but 2 columns"):
        csv_text(["a"], [np.array([1.0]), np.array([2.0])])


def test_columns_must_have_equal_lengths():
    with pytest.raises(ValueError, match=r"unequal lengths \[1, 2\]"):
        csv_text(["a", "b"], [np.array([1.0]), np.array([2.0, 3.0])])


def test_columns_must_be_one_dimensional():
    with pytest.raises(ValueError, match=r"1-D, got shape \(2, 2\)"):
        csv_text(["a"], [np.zeros((2, 2))])


def test_table_codes_must_index_the_names():
    with pytest.raises(ValueError, match=r"codes must lie in \[0, 2\)"):
        text_mod.table("DC", np.array([0, 2]))


def test_range_columns_print_as_percent_d():
    for values in (range(995, 1005), range(99_998, 100_002),
                   range(10**13 - 3, 10**13), range(12, -1, -3), range(0)):
        assert cells(values) == ["%d" % v for v in values]


@pytest.mark.parametrize("values", [
    range(-1, 3), range(10**13 - 2, 10**13 + 1), range(10**13, 0, -1)])
def test_range_columns_must_lie_within_the_integer_words(values):
    with pytest.raises(ValueError, match=r"leaves \[0, 10000000000000\)"):
        csv_blocks(["x"], [values])
