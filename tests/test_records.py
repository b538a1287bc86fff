"""The records: how `zdtrade._record.record` builds them, and the one JSON
record rule, `plain` and every record's `as_dict`."""

import copy
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import (MISSING, FrozenInstanceError, dataclass, fields,
                         is_dataclass)

import numpy as np
import pytest

import zdtrade
from zdtrade import (CollectorStrategy, ComparisonReport, ExtortionGrid,
                     ExtortionParams, GameParams, InvalidParameterError,
                     PayoffVectors, PinningGrid, ProviderStrategy, SimConfig,
                     SimResult, StationaryResult, Trace, ZdColumns,
                     build_extortion_strategy, build_payoffs,
                     check_collector_extortion, check_collector_pinning,
                     compare_to_analytic,
                     expected_payoffs, play_rounds, scan_extortion_region,
                     scan_pinning_region, solve_pinning, validate_ordering,
                     verify_extortion_relation, zd_columns)
from zdtrade._text import plain

RECORDS = [name for name in zdtrade.__all__
           if is_dataclass(getattr(zdtrade, name))]


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


def test_import_compiles_no_record_methods():
    # @dataclass(frozen=True) would compile each generated method with exec,
    # 92 for these records; `record` lets dataclass generate nothing (Python
    # 3.13 still execs one empty batch per class)
    src = os.path.dirname(os.path.dirname(zdtrade.__file__))
    code = ("import sys, dataclasses, numpy\n"
            "count = [0]\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and sys._getframe(1).f_code"
            ".co_filename.endswith('dataclasses.py'):\n"
            "        count[0] += 1\n"
            "sys.addaudithook(hook)\n"
            "import zdtrade\n"
            "print(count[0], sum(dataclasses.is_dataclass(getattr(zdtrade, n))"
            " for n in zdtrade.__all__))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    compiled, records = map(int, proc.stdout.split())
    assert records == len(RECORDS) == 18
    assert compiled <= records


def _instances(base_params):
    """One instance of every record, by class name; the value records hold
    no NaN, so that a copy equals its original."""
    p, q = ProviderStrategy(0.6, 0.5, 0.4, 0.3), CollectorStrategy(0.5, 0.5)
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    config = SimConfig(base_params, p, q, rounds=200, seed=3)
    result, trace = play_rounds(config, collect_trace=True)
    axis = np.linspace(0, 0.9, 3)
    records = [
        base_params, p, q, ext, sol, config, result, trace,
        verify_extortion_relation(sol, base_params, ext, trials=20, rng=0),
        build_payoffs(base_params),
        validate_ordering(build_payoffs(base_params)),
        check_collector_extortion(base_params, 1.0, 2.0),
        expected_payoffs(p, q, base_params), zd_columns(p, q, base_params),
        compare_to_analytic(result, p, q, base_params),
        solve_pinning(0.9, 0.1, base_params),
        scan_pinning_region(base_params, resolution=3),
        scan_extortion_region(base_params, 1.0, 2.0, axis, axis,
                              chi_probe=1.5),
    ]
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name, base_params):
    cls = getattr(zdtrade, name)
    obj = _instances(base_params)[name]
    names = [f.name for f in fields(cls)]
    assert names == list(cls.__annotations__)           # annotation order
    for target in (names[0], names[-1], "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, target, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, target)
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)]
    shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
    assert repr(obj) == f"{name}({shown})"
    if cls.__eq__ is not object.__eq__:                 # a value record
        for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin is not obj and twin == obj and hash(twin) == hash(obj)


def test_value_record_differs_from_other_classes_with_its_values():
    from zdtrade._record import record

    @record
    class Pair:
        a: int
        b: int

    @record
    class OtherPair:
        a: int
        b: int

    pair = Pair(1, 2)
    for other in (OtherPair(1, 2), (1, 2)):
        assert pair.__eq__(other) is NotImplemented
        assert pair != other and other != pair
    assert pair == Pair(1, 2)


def test_constructor_errors(base_params):
    m = {f.name: getattr(base_params, f.name) for f in fields(GameParams)}
    assert GameParams(**m) == base_params
    for bad in ({**m, "c_p3": 1.0}, {k: v for k, v in m.items() if k != "e2"}):
        with pytest.raises(TypeError):
            GameParams(**bad)
    with pytest.raises(TypeError):
        GameParams(*m.values(), 0.5)                    # one too many
    with pytest.raises(TypeError):
        GameParams(*m.values(), e2=0.5)                 # e2 twice
    with pytest.raises(InvalidParameterError):
        base_params.replace_noise(e1=1.5)               # validated again
    # __post_init__ sets phi_sign past the frozen __setattr__
    assert ExtortionParams(1, 2, 1.5).phi_sign == 1
    assert ExtortionParams(1, 2, 1.5, phi=-0.01).phi_sign == -1
    assert ExtortionParams(1, 2, 1.5, -0.01) == ExtortionParams(
        l1=1, l2=2, chi=1.5, phi=-0.01, phi_sign=-1)


@pytest.mark.parametrize("cls, args, kwargs, named", [
    (GameParams, (5, 5, 2, 2, 3, 3, 0.3), {}, "e2"),                # missing
    (GameParams, (5, 5, 2, 2, 3, 3, 0.3, 0.5), {"c_p3": 1}, "c_p3"),  # unknown
    (GameParams, (5, 5, 2, 2, 3, 3, 0.3, 0.5), {"e2": 0.5}, "e2"),  # doubled
    (GameParams, (5, 5, 2, 2, 3, 3, 0.3, 0.5, 0.5), {}, None),      # extra
    (ExtortionParams, (1, 2), {}, "chi"),
    (ExtortionParams, (1, 2, 1.5), {"psi": 1}, "psi"),
    (ExtortionParams, (1, 2, 1.5), {"l1": 1}, "l1"),
    (ExtortionParams, (1, 2, 1.5, None, 1, 7), {}, None),
], ids=[f"{name}-{kind}" for name in ("GameParams", "ExtortionParams")
         for kind in ("missing", "unknown", "doubled", "extra")])
def test_constructor_error_names_class_and_argument(cls, args, kwargs, named):
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    message = str(info.value)
    assert message.startswith(f"{cls.__qualname__}() "), message
    if named is not None:
        assert repr(named) in message, message
