import json
import math

import numpy as np
import pytest

from zdtrade import (BaselineDegenerateError, GameParams,
                     InvalidParameterError, build_payoffs, chi_bounds,
                     check_collector_extortion, check_collector_pinning,
                     validate_ordering)


def test_pinning_certificate_baseline(base_params):
    cert = check_collector_pinning(base_params)
    assert cert.kind == "pinning"
    assert cert.conflicting_states == ("CC", "CD")
    assert cert.lhs == pytest.approx(5.0)
    assert cert.rhs == pytest.approx(4.5)
    assert cert.gap == pytest.approx(0.5, abs=1e-12)
    assert cert.holds
    assert cert.ordering_violations == ()


def test_pinning_certificate_escape_hatch():
    # c_p1 = (1 - e2) c_p2 forces u_p(CC) = u_p(CD): the one configuration
    # the impossibility argument cannot rule out (and it violates the
    # provider's preference chain)
    params = GameParams(5, 5, 1.5, 2, 3, 3, 0.3, 0.5)
    cert = check_collector_pinning(params)
    assert not cert.holds
    assert cert.gap == 0.0
    assert "u_p_cc_gt_cd" in cert.ordering_violations


def test_extortion_certificate_baseline(base_params):
    cert = check_collector_extortion(base_params, l1=1, l2=2)
    assert cert.kind == "extortion"
    assert cert.lhs == pytest.approx(4 / 3, abs=1e-12)
    assert cert.rhs == pytest.approx(1.0, abs=1e-12)
    assert cert.gap == pytest.approx(1 / 3, abs=1e-12)
    assert cert.holds
    assert cert.baselines == (1.0, 2.0)
    assert cert.ordering_violations == ()


def test_extortion_certificate_engineered_equality():
    # payoffs violating the resale-gain chain can make the two ratios equal
    # at tuned baselines; the certificate reports it honestly and tags the
    # broken assumption.  u_c(CD) < u_c(CC) here (large reputation loss).
    params = GameParams(5, 5, 2, 2, 3, 8, 0.3, 0.5)
    pv = build_payoffs(params)
    assert pv.u_c[1] < pv.u_c[0]
    # pick l1, l2 so that (u_p(CC)-l1)/(u_c(CC)-l2) == (u_p(CD)-l1)/(u_c(CD)-l2)
    # with u_p = (5, 4.5, ...), u_c = (5, 3, ...): chi* = 0.5/2 = 0.25,
    # then l2 from u_p(CC)-l1 = chi*(u_c(CC)-l2) with l1 = 4.
    chi_star = (pv.u_p[0] - pv.u_p[1]) / (pv.u_c[0] - pv.u_c[1])
    l1 = 4.0
    l2 = pv.u_c[0] - (pv.u_p[0] - l1) / chi_star
    cert = check_collector_extortion(params, l1, float(l2))
    assert cert.gap == pytest.approx(0.0, abs=1e-12)
    assert not cert.holds
    assert "u_c_cd_cc_dc" in cert.ordering_violations


def test_extortion_certificate_degenerate_baseline(base_params):
    with pytest.raises(BaselineDegenerateError):
        check_collector_extortion(base_params, l1=1, l2=5.0)
    with pytest.raises(BaselineDegenerateError):
        check_collector_extortion(base_params, l1=1, l2=5.5)


def test_degenerate_baseline_has_one_message(base_params):
    # the ratio bounds and the certificate refuse the same baseline alike
    u_c = build_payoffs(base_params).u_c
    for l2, phi_sign, state in ((5.0, 1, "CC"), (float(u_c[1]), -1, "CD")):
        with pytest.raises(BaselineDegenerateError) as bounds:
            chi_bounds(base_params, 1, l2, phi_sign=phi_sign)
        with pytest.raises(BaselineDegenerateError) as cert:
            check_collector_extortion(base_params, 1, l2)
        assert str(bounds.value) == str(cert.value) == (
            f"u_c({state}) - l2 = 0.0 is degenerate; move the baseline")
    with pytest.raises(BaselineDegenerateError,
                       match=r"^u_c\(DC\) - l2 = 0\.0 is degenerate"):
        chi_bounds(base_params, 1, float(u_c[2]), phi_sign=-1)


def test_extortion_certificate_rejects_non_finite_baselines():
    # a NaN gap must never certify: NaN != NaN would make holds True
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)
    for l1, l2 in ((math.nan, 2.0), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(InvalidParameterError):
            check_collector_extortion(params, l1, l2)


def test_pinning_sweep_no_counterexamples():
    # random draws filtered to the provider's preference chain: the
    # pinning certificate always holds
    rng = np.random.default_rng(61)
    kept = 0
    while kept < 2000:
        params = GameParams(*rng.uniform(0.1, 10, 6), *rng.uniform(0, 0.99, 2))
        pv = build_payoffs(params)
        if not validate_ordering(pv).u_p_cc_gt_cd:
            continue
        assert check_collector_pinning(params).holds
        kept += 1


def test_extortion_sweep_no_counterexamples():
    # draws satisfying the two relevant chains, with baselines below the
    # cooperative payoffs (l2 < u_c(DC) also keeps both denominators
    # positive): the ratio gap is strictly positive
    rng = np.random.default_rng(62)
    kept = 0
    while kept < 2000:
        params = GameParams(*rng.uniform(0.1, 10, 6), *rng.uniform(0, 0.95, 2))
        pv = build_payoffs(params)
        report = validate_ordering(pv)
        if not (report.u_p_cc_gt_cd and report.u_c_cd_cc_dc):
            continue
        if pv.u_c[2] <= 1e-6:
            continue
        l1 = rng.uniform(0.05, 0.95) * pv.u_p[0]
        l2 = rng.uniform(0.05, 0.95) * pv.u_c[2]
        cert = check_collector_extortion(params, float(l1), float(l2))
        assert cert.holds and cert.gap > 0
        kept += 1


def test_certificate_serialization(base_params):
    cert = check_collector_extortion(base_params, l1=1, l2=2)
    payload = cert.as_dict()
    text = json.dumps(payload)
    assert json.loads(text)["holds"] is True
    assert set(payload) == {"kind", "conflicting_states", "lhs", "rhs", "gap",
                            "holds", "ordering_violations", "baselines"}
