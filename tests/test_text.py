"""The column-wise CSV formatter against per-value reference formatting."""

import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdtrade._text as text_mod
from zdtrade import (ProviderStrategy, scan_extortion_region,
                     scan_pinning_region)
from zdtrade._text import csv_blocks, csv_text, table
from zdtrade.markov import CollectorStrategy
from zdtrade.payoffs import STATE_NAMES
from zdtrade.simulate import SimConfig, play_rounds

from conftest import csv_of


# Reference: one value at a time, as CSV artifacts were first written.
def ref_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.12g}"
    return str(x)


def ref_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(ref_value(f) for f in r) for r in rows)
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                  -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
                  1e12, 123456789012345.0, -1e16, 2.0 ** 60]

FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=True, allow_infinity=True))
INTS = st.integers(min_value=-2**63, max_value=2**63 - 1)
STRS = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\x00"), max_size=6)
KINDS = {"float": (FLOATS, float), "bool": (st.booleans(), bool),
         "int": (INTS, np.int64), "str": (STRS, str),
         "object": (st.one_of(FLOATS, st.booleans(), INTS, STRS), object)}


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=6))
    return [(kind, draw(st.lists(KINDS[kind][0], min_size=n, max_size=n)))
            for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(columns=tables(), block_rows=st.sampled_from([1, 3, 4096]))
def test_columns_match_per_value_formatting(columns, block_rows):
    header = [f"c{i}" for i in range(len(columns))]
    arrays = [np.array(values, dtype=KINDS[kind][1]) for kind, values in columns]
    expected_cells = {
        "float": lambda x: f"{x:.12g}",
        "bool": lambda x: "true" if x else "false",
        "int": str, "str": str, "object": ref_value,
    }
    rows = zip(*[[expected_cells[kind](v) for v in values]
                 for kind, values in columns])
    expected = "".join(",".join(r) + "\n" for r in [header, *rows])
    saved = text_mod.BLOCK_ROWS
    text_mod.BLOCK_ROWS = block_rows
    try:
        assert csv_text(header, arrays) == expected
    finally:
        text_mod.BLOCK_ROWS = saved


def test_table_columns_format_each_name_by_its_type():
    values = (1.5, True, 7, "x", -0.0, math.nan, Fraction(1, 3), 1 + 2j)
    assert csv_text(["v"], [table(values)]) == (
        "v\n1.5\ntrue\n7\nx\n-0\nnan\n1/3\n(1+2j)\n")   # the rest by str
    assert csv_text(["s"], [table(STATE_NAMES, [3, 0, 3])]) == "s\nDD\nCC\nDD\n"


# floats that lie exactly halfway between two 12-digit decimals
EXACT_TIES = [100000000000.5, 12345678901.25, 1234567890.125,
              123456789.0625, 3.814697265625e-06]
SUBNORMALS = st.floats(min_value=-2.2250738585072014e-308,
                       max_value=2.2250738585072014e-308)
UINT64 = st.integers(min_value=0, max_value=2**64 - 1)
SCALARS = st.one_of(
    FLOATS, SUBNORMALS, st.sampled_from(EXACT_TIES),
    st.one_of(FLOATS, SUBNORMALS, st.sampled_from(EXACT_TIES)).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(), st.booleans().map(np.bool_),
    INTS, UINT64, st.sampled_from([10**13, -10**13, 10**13 - 1, 2**64 - 1]),
    INTS.map(np.int64), UINT64.map(np.uint64),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    STRS, STRS.map(np.str_))


@settings(max_examples=300, deadline=None)
@given(st.lists(SCALARS, min_size=1, max_size=20))
def test_table_names_print_as_one_element_array_columns(values):
    # the array renderer is the reference for the names' scalar rule
    expected = "".join(csv_text(["v"], [np.asarray(v).reshape(1)])[2:]
                       for v in values)
    assert csv_text(["v"], [table(values)]) == "v\n" + expected


def test_pinning_grid_matches_reference(base_params):
    grid = scan_pinning_region(base_params, resolution=37)
    assert np.isnan(grid.pinned_s_c[-1, 0])   # the 0/0 corner
    rows = ((float(p1), float(p4), bool(grid.feasible[i, j]),
             float(grid.p2[i, j]), float(grid.p3[i, j]),
             float(grid.pinned_s_c[i, j]))
            for i, p1 in enumerate(grid.p1_axis)
            for j, p4 in enumerate(grid.p4_axis))
    assert csv_of(grid) == ref_csv(
        ["p1", "p4", "feasible", "p2", "p3", "s_c_pinned"], rows)


def test_extortion_grid_with_degenerate_cells_matches_reference(base_params):
    axis = np.linspace(0.0, 0.9, 10)
    grid = scan_extortion_region(base_params, 1, 1.8, axis, axis,
                                 chi_probe=1.5)
    degenerate = int(np.isnan(grid.chi_lower).sum())
    assert 0 < degenerate < grid.chi_lower.size
    rows = ((float(e1), float(e2), float(grid.chi_lower[i, j]),
             float(grid.chi_upper[i, j]), bool(grid.feasible[i, j]))
            for i, e1 in enumerate(grid.e1_axis)
            for j, e2 in enumerate(grid.e2_axis))
    assert csv_of(grid) == ref_csv(
        ["e1", "e2", "chi_lower", "chi_upper", "feasible"], rows)


def test_trace_matches_reference(base_params):
    config = SimConfig(params=base_params,
                       p=ProviderStrategy(0.9, 0.78, 0.08, 0.1),
                       q=CollectorStrategy(0.3, 0.7), rounds=5000, seed=11)
    _, trace = play_rounds(config, collect_trace=True)
    ob = np.where(trace.provider_obs_g, "g", "b")
    ac = np.where(trace.provider_coop, "C", "D")
    cob = np.where(trace.collector_obs_g, "g", "b")
    cac = np.where(trace.collector_coop, "C", "D")
    rows = ((t + 1, STATE_NAMES[int(trace.prev_state[t])], ob[t], ac[t],
             cob[t], cac[t], float(trace.u_p[t]), float(trace.u_c[t]))
            for t in range(len(trace)))
    assert csv_of(trace) == ref_csv(
        ["round", "prev_state", "provider_obs", "provider_action",
         "collector_obs", "collector_action", "u_p", "u_c"], rows)


@pytest.mark.parametrize("m", [
    np.full((4, 4), 0.25),
    np.array([[math.nan, -0.0, 1e300, 5e-324]] * 4),
])
def test_matrix_csv_matches_reference(m):
    rows = [[STATE_NAMES[i]] + [float(x) for x in m[i]] for i in range(4)]
    assert csv_text(["state", *STATE_NAMES],
                    [table(STATE_NAMES), *m.T]) == ref_csv(
        ["state", *STATE_NAMES], rows)


def _artifacts(params):
    """A pinning grid, an extortion grid (with chi_probe) and a trace of
    25 rows each."""
    axis = np.linspace(0.0, 0.8, 5)
    config = SimConfig(params=params, p=ProviderStrategy(0.9, 0.78, 0.08, 0.1),
                       q=CollectorStrategy(0.3, 0.7), rounds=25, seed=3)
    return [scan_pinning_region(params, resolution=5),
            scan_extortion_region(params, 1, 2, axis, axis, chi_probe=1.5),
            play_rounds(config, collect_trace=True)[1]]


def _empty(artifact):
    """`artifact` with every array field cut to its first 0 entries."""
    return dataclasses.replace(artifact, **{
        f.name: getattr(artifact, f.name)[:0]
        for f in dataclasses.fields(artifact)
        if isinstance(getattr(artifact, f.name), np.ndarray)})


# 25 rows: exactly 1 and 5 blocks, one row more (24, 12) and one row less
# (26, 13) than whole blocks
@pytest.mark.parametrize("block_rows", [25, 5, 24, 12, 26, 13])
def test_streamed_csv_is_the_text_encoded(base_params, monkeypatch,
                                          block_rows):
    artifacts = _artifacts(base_params)
    artifacts += [_empty(a) for a in artifacts]
    expected = [csv_of(a) for a in artifacts]   # at the default BLOCK_ROWS
    monkeypatch.setattr(text_mod, "BLOCK_ROWS", block_rows)
    for artifact, text in zip(artifacts, expected):
        out = io.BytesIO()
        assert artifact.to_csv(out) is None
        assert out.getvalue() == text.encode()
    assert [t.count("\n") for t in expected] == [26] * 3 + [1] * 3


@pytest.mark.parametrize("header, columns, message", [
    (["a"], [np.array([1.0]), np.array([2.0])], "1 header names but 2 columns"),
    (["a", "b"], [np.array([1.0]), np.array([2.0, 3.0])],
     r"unequal lengths \[1, 2\]"),
    (["a"], [np.zeros((2, 2))], r"1-D, got shape \(2, 2\)"),
])
def test_csv_blocks_checks_columns_before_the_first_block(header, columns,
                                                          message):
    with pytest.raises(ValueError, match=message):
        csv_blocks(header, columns)         # not iterated
