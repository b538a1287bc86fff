"""One JSON record rule: `plain` and every record's `as_dict`."""

import json
import math
from dataclasses import dataclass

import numpy as np

from zdtrade import (CollectorStrategy, ComparisonReport, ExtortionGrid,
                     ExtortionParams, GameParams, PayoffVectors, PinningGrid,
                     ProviderStrategy, SimConfig, SimResult, StationaryResult,
                     Trace, ZdColumns, build_extortion_strategy, build_payoffs,
                     check_collector_extortion, check_collector_pinning,
                     compare_to_analytic,
                     expected_payoffs, play_rounds,
                     solve_pinning, validate_ordering,
                     verify_extortion_relation)
from zdtrade._text import plain


@dataclass(frozen=True)
class _Record:
    b: np.ndarray
    a: tuple
    c: float


def test_plain_rules():
    r = _Record(b=np.array([[1.5, np.nan]]), a=(np.int64(3), np.bool_(True)),
                c=np.float64(-math.inf))
    out = plain(r)
    assert list(out) == ["b", "a", "c"]                 # field order
    assert out["b"][0][0] == 1.5 and math.isnan(out["b"][0][1])
    assert out["a"] == [3, True] and out["c"] == -math.inf
    assert [type(x) for x in out["a"]] == [int, bool]
    assert type(out["b"][0][0]) is float and type(out["c"]) is float
    assert plain(r, strict=True) == {"b": [[1.5, None]], "a": [3, True],
                                     "c": None}
    nested = {"x": [np.float32(0.5), (math.nan, "s", None)], "y": np.float64(2)}
    assert plain(nested, strict=True) == {"x": [0.5, [None, "s", None]], "y": 2.0}
    assert math.isnan(plain(nested)["x"][1][0])
    m = np.array([[0.1, np.nan], [np.inf, -0.0]], dtype=np.float32)
    out = plain(np.asarray(m, dtype=float))
    assert [[type(x) for x in row] for row in out] == [[float] * 2] * 2
    assert np.array_equal(out, [[float(x) for x in row] for row in m],
                          equal_nan=True)


def _records(base_params):
    p, q = ProviderStrategy(0.6, 0.5, 0.4, 0.3), CollectorStrategy(0.5, 0.5)
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    result = play_rounds(SimConfig(base_params, p, q, rounds=2000, seed=3))
    return [
        base_params,
        validate_ordering(build_payoffs(base_params)),
        check_collector_pinning(base_params),
        check_collector_extortion(base_params, 1.0, 2.0),
        sol,
        build_extortion_strategy(base_params,
                                 ExtortionParams(l1=1, l2=2, chi=5.0)),
        verify_extortion_relation(sol, base_params, ext, trials=20, rng=0),
        expected_payoffs(p, q, base_params),
        result,
        compare_to_analytic(result, p, q, base_params),
        solve_pinning(0.9, 0.1, base_params),
        solve_pinning(1.0, 0.0, base_params),      # infeasible corner, NaN
    ]


def test_as_dict_is_plain(base_params):
    records = _records(base_params)
    assert {type(r).__name__ for r in records} == {
        "GameParams", "OrderingReport", "InfeasibilityCertificate",
        "ExtortionSolution", "VerificationReport", "StationaryResult",
        "SimResult", "ComparisonReport", "PinningSolution"}
    for r in records:
        assert r.as_dict() == plain(r), type(r).__name__
        json.dumps(plain(r, strict=True), allow_nan=False)
    assert [r.feasible for r in records[-2:]] == [True, False]
    for r in records[-2:]:
        assert list(r.as_dict()) == list(plain(r)) == [
            "p1", "p2", "p3", "p4", "a_const", "b_const", "d1_const",
            "pinned_s_c", "feasible", "reason"]


def test_array_records_compare_by_identity(base_params):
    # a generated field-wise __eq__ would compare arrays and raise, and the
    # generated __hash__ of a frozen record would hash them and raise
    config = SimConfig(base_params, ProviderStrategy(0.6, 0.5, 0.4, 0.3),
                       CollectorStrategy(0.5, 0.5), rounds=200, seed=3)
    (r1, t1), (r2, t2) = (play_rounds(config, collect_trace=True)
                          for _ in range(2))
    assert r1 == r1 and t1 == t1 and t1.payoffs == t1.payoffs
    assert r1 != r2 and t1 != t2 and t1.payoffs != t2.payoffs
    assert len({hash(x) for x in (r1, t1, r2, t2)}) == 4
    for cls in (PayoffVectors, StationaryResult, ZdColumns, Trace, SimResult,
                ComparisonReport, PinningGrid, ExtortionGrid):
        assert cls.__eq__ is object.__eq__, cls.__name__
    same = GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)
    assert base_params is not same
    assert base_params == same and hash(base_params) == hash(same)
