import re

import numpy as np
import pytest

from zdtrade import (DegenerateParameterError, ExtortionParams, GameParams,
                     InvalidParameterError, StateIndex,
                     build_extortion_strategy, build_payoffs,
                     chi_feasible_interval, pinning_sensitivity_noise,
                     scan_pinning_region, solve_pinning, validate_ordering)
from zdtrade.payoffs import check_seed


def test_baseline_table_values(base_params):
    pv = build_payoffs(base_params)
    np.testing.assert_allclose(pv.u_p, [5.0, 4.5, 3.5, 3.6], rtol=0, atol=1e-15)
    np.testing.assert_allclose(pv.u_c, [5.0, 5.5, 3.5, 3.4], rtol=0, atol=1e-15)


def test_zero_noise_collapses_provider_rows():
    pv = build_payoffs(GameParams(7, 4, 3, 2, 5, 6, 0.0, 0.0))
    assert pv.u_p[StateIndex.DC] == pv.u_p[StateIndex.CC] == 7
    assert pv.u_p[StateIndex.DD] == pv.u_p[StateIndex.CD]


def test_full_data_noise_zeroes_collector_value():
    pv = build_payoffs(GameParams(7, 4, 3, 2, 5, 6, 1.0, 0.25))
    assert pv.u_c[StateIndex.DC] == 0.0
    assert pv.u_c[StateIndex.DD] == pytest.approx(-(1 - 0.25) * 6, abs=1e-15)
    assert pv.u_c[StateIndex.DD] <= 0


def test_ordering_baseline_violations(base_params):
    report = validate_ordering(build_payoffs(base_params))
    assert report.u_p_cc_gt_cd
    assert not report.u_p_cc_dc_dd      # u_p(DD)=3.6 > u_p(DC)=3.5
    assert report.u_c_cd_cc_dc
    assert not report.u_c_cd_dd_dc      # u_c(DD)=3.4 < u_c(DC)=3.5
    assert not report.all_hold


def test_ordering_high_masking_noise_chains_hold():
    pv = build_payoffs(GameParams(5, 5, 2, 2, 3, 3, 0.5, 0.9))
    np.testing.assert_allclose(pv.u_p, [5.0, 3.3, 2.5, 1.8], atol=1e-15)
    report = validate_ordering(pv)
    assert report.u_p_cc_gt_cd
    assert report.u_p_cc_dc_dd
    assert report.all_hold


def test_ordering_tie_counts_as_violation():
    # c_p1 = (1 - e2) c_p2 makes u_p(CC) == u_p(CD) exactly
    pv = build_payoffs(GameParams(5, 5, 1.5, 2, 3, 3, 0.3, 0.5))
    assert pv.u_p[StateIndex.CC] == pv.u_p[StateIndex.CD]
    assert not validate_ordering(pv).u_p_cc_gt_cd


def test_row_exactness_random_sweep():
    # every entry re-derived independently, 1e4 draws
    rng = np.random.default_rng(101)
    c = rng.uniform(0.01, 50, (10_000, 6))
    e = rng.uniform(0, 1, (10_000, 2))
    for k in range(10_000):
        c_p, c_c, c_p1, c_c1, c_p2, c_c2 = c[k]
        e1, e2 = e[k]
        pv = build_payoffs(GameParams(c_p, c_c, c_p1, c_c1, c_p2, c_c2, e1, e2))
        expected_p = np.array([
            c_p,
            c_p - c_p1 + (1 - e2) * c_p2,
            (1 - e1) * c_p,
            (1 - e1) * c_p - (1 - e1) * c_p1 + (1 - e2) * c_p2,
        ])
        expected_c = np.array([
            c_c,
            c_c + c_c1 - (1 - e2) * c_c2,
            (1 - e1) * c_c,
            (1 - e1) * c_c + (1 - e1) * c_c1 - (1 - e2) * c_c2,
        ])
        np.testing.assert_allclose(pv.u_p, expected_p, rtol=1e-12)
        np.testing.assert_allclose(pv.u_c, expected_c, rtol=1e-12)


def test_noise_monotonicity():
    e1_axis = np.linspace(0, 1, 21)
    u_c_dc = [build_payoffs(GameParams(5, 5, 2, 2, 3, 3, e1, 0.5)).u_c[2]
              for e1 in e1_axis]
    u_p_dc = [build_payoffs(GameParams(5, 5, 2, 2, 3, 3, e1, 0.5)).u_p[2]
              for e1 in e1_axis]
    assert np.all(np.diff(u_c_dc) <= 0)
    assert np.all(np.diff(u_p_dc) <= 0)
    e2_axis = np.linspace(0, 1, 21)
    u_c_cd = [build_payoffs(GameParams(5, 5, 2, 2, 3, 3, 0.3, e2)).u_c[1]
              for e2 in e2_axis]
    assert np.all(np.diff(u_c_cd) >= 0)


def test_provider_classification_matches_sign():
    rng = np.random.default_rng(11)
    for _ in range(500):
        c_p, c_p1 = rng.uniform(0.1, 10, 2)
        report = validate_ordering(
            build_payoffs(GameParams(c_p, 5, c_p1, 2, 3, 3, 0.3, 0.5)))
        assert report.data_valued == (c_p > c_p1)
        assert report.privacy_sensitive == (c_p < c_p1)
    tie = validate_ordering(build_payoffs(GameParams(4, 5, 4, 2, 3, 3, 0.3, 0.5)))
    assert not tie.data_valued and not tie.privacy_sensitive


@pytest.mark.parametrize("kwargs", [
    {"c_p": 0.0}, {"c_c": -1.0}, {"c_p1": 0.0}, {"c_c2": -0.5},
    {"e1": -0.01}, {"e1": 1.01}, {"e2": 2.0}, {"e2": float("nan")},
])
def test_invalid_params_raise(kwargs):
    base = dict(c_p=5, c_c=5, c_p1=2, c_c1=2, c_p2=3, c_c2=3, e1=0.3, e2=0.5)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        GameParams(**base)


def test_boundary_noise_is_valid():
    GameParams(5, 5, 2, 2, 3, 3, 0.0, 1.0)  # construction ok, e2=1 rejected later


def test_params_round_trip_through_dict(base_params):
    # the CLI builds the game this way once its config has refused missing
    # and unknown keys (test_cli: test_missing_key_exit_2, test_unknown_key_exit_2)
    assert GameParams(**base_params.as_dict()) == base_params


def test_ordering_report_flat_bool_map(base_params):
    d = validate_ordering(build_payoffs(base_params)).as_dict()
    assert set(d) == {"u_p_cc_gt_cd", "u_p_cc_dc_dd", "u_c_cd_cc_dc",
                      "u_c_cd_dd_dc", "data_valued", "privacy_sensitive"}
    assert all(isinstance(v, bool) for v in d.values())


def test_e2_one_raises_one_message_everywhere(base_params):
    params = base_params.replace_noise(e2=1.0)
    calls = [
        lambda: solve_pinning(0.5, 0.5, params),
        lambda: scan_pinning_region(params, resolution=5),
        lambda: pinning_sensitivity_noise(0.5, 0.5, params),
        lambda: chi_feasible_interval(params, 1, 2),
        lambda: build_extortion_strategy(params,
                                         ExtortionParams(l1=1, l2=2, chi=1.5)),
    ]
    messages = []
    for call in calls:
        with pytest.raises(DegenerateParameterError) as info:
            call()
        messages.append(str(info.value))
    assert messages == [
        "e2 = 1 makes the pinning constants undefined (division by 1 - e2)"
    ] * len(calls)


@pytest.mark.parametrize("seed", [-1, np.int64(-2)])
def test_check_seed_refuses_negative(seed):
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"seed must be >= 0, got {seed!r}")):
        check_seed(seed)


@pytest.mark.parametrize("seed", [1.5, "7", None, True, np.bool_(False)])
def test_check_seed_refuses_non_integers(seed):
    with pytest.raises(InvalidParameterError, match=re.escape(
            f"seed must be an integer, got {seed!r}")):
        check_seed(seed)


def test_replace_noise_builds_positionally(base_params, monkeypatch):
    # one argument per field: the copy never binds keywords, the records'
    # slow path, so a call that did would fail here
    monkeypatch.setattr(GameParams, "__signature__", None)
    moved = base_params.replace_noise(e1=0.1)
    assert moved == GameParams(5, 5, 2, 2, 3, 3, 0.1, 0.5)
    assert base_params.replace_noise(e2=0.2) == GameParams(5, 5, 2, 2, 3, 3,
                                                           0.3, 0.2)
    with pytest.raises(InvalidParameterError,
                       match=r"^e1 must lie in \[0, 1\], got 1\.5$"):
        base_params.replace_noise(e1=1.5)


def test_replace_noise_changes_only_the_noise(base_params):
    assert base_params.replace_noise() == base_params
    for noise in ({"e1": 0.1}, {"e2": 0.2}, {"e1": 0.1, "e2": 0.2}):
        moved = base_params.replace_noise(**noise)
        assert moved.as_dict() == dict(base_params.as_dict(), **noise)
    # refused as the constructor refuses it, with its message
    for noise in ({"e1": 1.5}, {"e2": -0.1}):
        with pytest.raises(InvalidParameterError) as info:
            base_params.replace_noise(**noise)
        with pytest.raises(InvalidParameterError) as direct:
            GameParams(**dict(base_params.as_dict(), **noise))
        assert str(info.value) == str(direct.value)
