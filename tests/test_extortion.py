import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zdtrade.collector as collector
import zdtrade.extortion as extortion
import zdtrade.markov as markov
from zdtrade import (BaselineDegenerateError, ExtortionParams,
                     GameParams, InvalidParameterError,
                     build_extortion_strategy, build_payoffs, chi_bounds,
                     check_collector_extortion,
                     chi_feasible_interval, expected_payoffs,
                     expected_payoffs_many, phi_feasible_interval,
                     reducible_mask, scan_extortion_region,
                     verify_extortion_relation)
from zdtrade.extortion import (MAX_GRID_NUM, MAX_TRIALS, VERIFY_PASS,
                               ExtortionGrid, ExtortionSolution,
                               VerificationReport)
from zdtrade.markov import irreducible_payoffs

from conftest import (csv_of, reference_irreducible_payoffs,
                      reference_verification)


def lattice_feasible(u_p, u_c, l1, l2, e2, chis, phis, tol=1e-12):
    """Independent brute-force oracle: solve the four rows over a (chi, phi)
    lattice with the row formulas typed out, return True when any probe
    lands every entry in [0, 1].

    The phi lattice must stay at moderate scales: as phi -> 0 every
    strategy collapses onto the degenerate (1, 1, 0, 0) pattern within any
    loose tolerance, whose chain is reducible and enforces nothing.
    """
    x = (u_p[None, :] - l1) - chis[:, None] * (u_c[None, :] - l2)  # (nchi, 4)
    phi = phis[None, :, None]
    x = x[:, None, :]
    p1 = phi[..., 0] * x[..., 0] + 1
    p2 = (phi[..., 0] * x[..., 1] + 1 - e2 * p1) / (1 - e2)
    p3 = phi[..., 0] * x[..., 2]
    p4 = (phi[..., 0] * x[..., 3] - e2 * p3) / (1 - e2)
    entries = np.stack([p1, p2, p3, p4], axis=-1)
    ok = np.all((entries >= -tol) & (entries <= 1 + tol), axis=-1)
    return bool(ok.any())


# --- chi bounds --------------------------------------------------------------

def test_chi_bounds_baseline_interval(base_params):
    bounds = chi_bounds(base_params, l1=1, l2=2, phi_sign=1)
    assert bounds.lower == pytest.approx(4 / 3, abs=1e-12)
    assert bounds.upper == pytest.approx(13 / 7, abs=1e-12)
    assert bounds.nonempty_above_1


def test_chi_bounds_zero_numerator(base_params):
    # l1 at the mutual-cooperation payoff zeroes the lower ratio
    bounds = chi_bounds(base_params, l1=5, l2=2, phi_sign=1)
    assert bounds.lower == 0.0
    assert bounds.nonempty_above_1 == (bounds.upper > 1 and bounds.lower <= bounds.upper)


def test_chi_bounds_negative_phi_empty(base_params):
    bounds = chi_bounds(base_params, l1=1, l2=2, phi_sign=-1)
    assert bounds.lower == pytest.approx(2.5 / 1.5, abs=1e-12)   # 5/3 from DC
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)         # from CD
    assert not bounds.nonempty_above_1


def test_chi_bounds_degenerate_denominator(base_params):
    with pytest.raises(BaselineDegenerateError):
        chi_bounds(base_params, l1=1, l2=5.0, phi_sign=1)   # l2 = u_c(CC)


# --- exact feasibility interval ----------------------------------------------

def test_exact_interval_tighter_than_ratio_bounds(base_params):
    # the DC row caps chi at 5/3, strictly inside the ratio interval
    interval = chi_feasible_interval(base_params, 1, 2, phi_sign=1)
    assert interval.nonempty
    assert interval.lower == pytest.approx(4 / 3, abs=1e-12)
    assert interval.upper == pytest.approx(5 / 3, abs=1e-12)


def test_exact_interval_valid_under_sign_flips():
    # baselines above some payoff entries: the ratio bounds are meaningless
    # (upper < lower) yet large extortion factors are genuinely feasible
    params = GameParams(5, 5, 2, 2, 3, 3, 0.9, 0.1)
    bounds = chi_bounds(params, l1=2, l2=1, phi_sign=1)
    assert bounds.upper < bounds.lower
    interval = chi_feasible_interval(params, 2, 1, phi_sign=1)
    assert interval.nonempty
    assert interval.lower == pytest.approx(3.0, abs=1e-12)
    assert math.isinf(interval.upper)
    ext = ExtortionParams(l1=2, l2=1, chi=3.5)
    sol = build_extortion_strategy(params, ext)
    assert sol.feasible
    report = verify_extortion_relation(sol, params, ext, trials=200, rng=5)
    assert report.max_residual < 1e-9


def test_exact_interval_empty(base_params):
    assert not chi_feasible_interval(base_params, 6, 10, phi_sign=1).nonempty


# --- strategy construction -----------------------------------------------------

def test_build_midpoint_phi(base_params):
    sol = build_extortion_strategy(base_params, ExtortionParams(l1=1, l2=2, chi=1.5))
    assert sol.feasible
    assert sol.phi == pytest.approx(1 / 6, abs=1e-12)
    assert sol.phi_range[0] == 0.0
    assert sol.phi_range[1] == pytest.approx(1 / 3, abs=1e-12)
    np.testing.assert_allclose(sol.p, [11 / 12, 0.5, 1 / 24, 0.125], atol=1e-12)
    assert sol.chi_lower == pytest.approx(4 / 3, abs=1e-12)
    assert sol.chi_upper == pytest.approx(13 / 7, abs=1e-12)


def test_build_never_clamps(base_params):
    sol = build_extortion_strategy(
        base_params, ExtortionParams(l1=1, l2=2, chi=1.5, phi=2.0))
    assert not sol.feasible
    assert min(sol.p) < -1e-9 or max(sol.p) > 1 + 1e-9
    with pytest.raises(InvalidParameterError):
        _ = sol.strategy


def test_chi_outside_ratio_interval_infeasible_for_all_phi(base_params):
    for chi in (1.9, 2.5, 10.0):
        assert phi_feasible_interval(base_params, 1, 2, chi, phi_sign=1) is None
        for phi in np.geomspace(1e-8, 1e3, 40):
            sol = build_extortion_strategy(
                base_params, ExtortionParams(l1=1, l2=2, chi=chi, phi=phi))
            assert not sol.feasible


def test_vanishing_phi_limit(base_params):
    sol = build_extortion_strategy(
        base_params, ExtortionParams(l1=1, l2=2, chi=1.5, phi=1e-12))
    np.testing.assert_allclose(sol.p, [1, 1, 0, 0], atol=1e-11)


def test_bound_tightness_at_exact_upper(base_params):
    # at the top of the exact interval one row is tight, so an entry sits
    # on a [0, 1] boundary (here p3 = 0 from the DC row)
    interval = chi_feasible_interval(base_params, 1, 2, phi_sign=1)
    ext = ExtortionParams(l1=1, l2=2, chi=interval.upper)
    sol = build_extortion_strategy(base_params, ext)
    assert sol.feasible
    dist = min(min(abs(x), abs(1 - x)) for x in sol.p)
    assert dist < 1e-6


@pytest.mark.parametrize("params, l1, l2, chi, row", [
    (GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5), 1, 2, 1.5, 1),
    (GameParams(5, 5, 1, 7, 3, 7, 0.5, 0.1), 1, 2, 2.28, 3),
    (GameParams(7, 5, 9, 2, 5, 7, 0.3, 0.5), 1, 3.5, 4.33, 3),
], ids=["CD-binds", "DD-binds-e2-0.1", "DD-binds-e2-0.5"])
def test_phi_max_puts_the_binding_entry_on_the_boundary(params, l1, l2, chi,
                                                        row):
    # the mixed rows CD, DD have the budget 1 - e2: at the end of the phi
    # interval their entry (p2 or p4) sits on 0 or 1, and past it leaves
    _, phi_max = phi_feasible_interval(params, l1, l2, chi)

    def solve(phi):
        return build_extortion_strategy(
            params, ExtortionParams(l1=l1, l2=l2, chi=chi, phi=phi))
    sol = solve(phi_max)
    assert sol.feasible
    assert min(abs(sol.p[row]), abs(1 - sol.p[row])) < 1e-9, sol.p
    assert not solve(phi_max * (1 + 1e-6)).feasible


def test_exact_interval_subset_of_ratio_interval():
    # whenever both ratio denominators are positive, the exact interval
    # cannot escape the printed one (its CC and DD conditions imply the
    # two ratio inequalities)
    rng = np.random.default_rng(54)
    checked = 0
    while checked < 200:
        params = GameParams(*rng.uniform(0.5, 10, 6), *rng.uniform(0, 0.9, 2))
        pv = build_payoffs(params)
        cap = min(pv.u_c[0], pv.u_c[3])
        if cap <= 0.05:
            continue
        l2 = rng.uniform(0.02, 0.95) * cap
        l1 = rng.uniform(0.02, 0.95) * pv.u_p.min() if pv.u_p.min() > 0.05 else 0.02
        interval = chi_feasible_interval(params, l1, l2, phi_sign=1)
        if not interval.nonempty:
            continue
        bounds = chi_bounds(params, l1, l2, phi_sign=1)
        assert interval.lower >= bounds.lower - 1e-9
        assert interval.upper <= bounds.upper + 1e-9
        checked += 1


# --- enforced relation ---------------------------------------------------------

def test_relation_holds_for_random_opponents(base_params):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    report = verify_extortion_relation(sol, base_params, ext, trials=1000, rng=51)
    assert report.trials == 1000
    assert report.max_residual < 1e-9


def test_relation_all_cooperate_exact(base_params):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    r = expected_payoffs(sol.strategy, (1, 1), base_params)
    assert (r.s_p - 1) == pytest.approx(1.5 * (r.s_c - 2), abs=1e-12)


def test_verify_refuses_infeasible(base_params):
    bad = build_extortion_strategy(
        base_params, ExtortionParams(l1=1, l2=2, chi=1.5, phi=5.0))
    assert not bad.feasible
    with pytest.raises(InvalidParameterError):
        verify_extortion_relation(bad, base_params,
                                  ExtortionParams(l1=1, l2=2, chi=1.5, phi=5.0))
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    good = build_extortion_strategy(base_params, ext)
    with pytest.raises(InvalidParameterError, match="seed"):
        verify_extortion_relation(good, base_params, ext, trials=10, rng=-1)
    # a seed is an integer: True used to run as seed 1, 1.5 to fail in numpy
    for rng in (True, 1.5, "7"):
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"seed must be an integer, got {rng!r}")):
            verify_extortion_relation(good, base_params, ext, trials=10,
                                      rng=rng)
    # None (fresh entropy) and a Generator stay accepted
    assert verify_extortion_relation(good, base_params, ext, trials=10).trials == 10
    assert verify_extortion_relation(
        good, base_params, ext, trials=10,
        rng=np.random.default_rng(1)) == verify_extortion_relation(
        good, base_params, ext, trials=10, rng=1)
    # trials must be an integer (2.5 used to stop inside numpy)
    for trials in (2.5, 1e4, True):
        with pytest.raises(InvalidParameterError,
                           match=rf"^trials must be an integer, got {trials!r}$"):
            verify_extortion_relation(good, base_params, ext, trials=trials)
    assert verify_extortion_relation(good, base_params, ext,
                                     trials=np.int64(3), rng=0).trials == 3


def _pinning_solution(p) -> ExtortionSolution:
    return ExtortionSolution(p=p, feasible=True, chi=1.5, phi=0.1,
                             chi_lower=1.0, chi_upper=2.0, phi_range=None)


def test_verification_refuses_a_strategy_that_pins_the_chain(base_params):
    # p4 = 2.01e-9 barely leaves DD: only opponents with
    # s = (1 - e1) q1 + e1 q2 below ~0.005 keep an irreducible chain, so a
    # corner opponent does and the 100 x trials guard has to refuse it
    sol = _pinning_solution((1.0, 1.0, 0.0, 2.01e-9))
    with pytest.raises(InvalidParameterError,
                       match=r"too many reducible draws \(1010 discarded for "
                             r"10 trials, limit 100 x trials = 1000\)"):
        verify_extortion_relation(sol, base_params,
                                  ExtortionParams(l1=1, l2=2, chi=1.5),
                                  trials=10, rng=0)


def test_verification_refuses_a_strategy_that_pins_every_chain_at_once(
        base_params):
    # p = (1, 1, 0, 0) keeps the provider's action: {CC, CD} and {DC, DD}
    # never meet, whatever the collector plays; the first empty pass shows
    # it at the four corner opponents, long before 100 x MAX_TRIALS draws
    sol = _pinning_solution((1.0, 1.0, 0.0, 0.0))
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError,
                       match=r"pins the chain for every opponent: it is "
                             r"reducible at all four corner opponents"):
        verify_extortion_relation(sol, base_params,
                                  ExtortionParams(l1=1, l2=2, chi=1.5),
                                  trials=MAX_TRIALS, rng=0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("trials", [10**30, MAX_TRIALS + 1])
def test_verify_refuses_trials_above_ceiling_before_drawing(base_params, trials):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="trials"):
            verify_extortion_relation(sol, base_params, ext, trials=trials,
                                      rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sign_coherence_provider_gets_larger_share(base_params):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    rng = np.random.default_rng(52)
    qs = rng.random((200, 2))
    qs = qs[~reducible_mask(sol.strategy, qs, base_params)]
    s_p, s_c = expected_payoffs_many(sol.strategy, qs, base_params)
    assert np.all(s_p - 1 >= s_c - 2 - 1e-9)
    assert np.all(s_c - 2 >= -1e-9)


def test_params_validation(base_params):
    with pytest.raises(InvalidParameterError):
        ExtortionParams(l1=0, l2=2, chi=1.5)
    with pytest.raises(InvalidParameterError):
        ExtortionParams(l1=1, l2=-2, chi=1.5)
    with pytest.raises(InvalidParameterError):
        ExtortionParams(l1=1, l2=2, chi=1.0)
    with pytest.raises(InvalidParameterError):
        ExtortionParams(l1=1, l2=2, chi=1.5, phi=0.0)
    with pytest.raises(InvalidParameterError):
        ExtortionParams(l1=1, l2=2, chi=1.5, phi_sign=0)
    # 0 is neither sign: both functions refuse it instead of picking a side
    for check in (chi_bounds, chi_feasible_interval):
        with pytest.raises(InvalidParameterError, match="phi_sign"):
            check(base_params, 1, 2, 0)
    assert ExtortionParams(l1=1, l2=2, chi=1.5, phi=-0.2).phi_sign == -1
    # phi_sign None means "not given": the sign of phi, else +1
    assert ExtortionParams(1, 2, 1.5).phi_sign == 1
    assert ExtortionParams(1, 2, 1.5, phi_sign=-1).phi_sign == -1
    assert ExtortionParams(1, 2, 1.5, phi=-0.1, phi_sign=-1).phi_sign == -1
    assert ExtortionParams(1, 2, 1.5, phi_sign=1) == ExtortionParams(1, 2, 1.5)
    # a given sign that contradicts phi is refused, not overwritten
    for phi, phi_sign, text in ((0.1, -1, "-1"), (-0.1, 1, "+1"),
                                (0.1, np.int64(-1), "-1")):
        with pytest.raises(InvalidParameterError) as info:
            ExtortionParams(1, 2, 1.5, phi=phi, phi_sign=phi_sign)
        assert str(info.value) == (f"phi_sign {text} contradicts the sign "
                                   f"of phi {phi!r}")
    with pytest.raises(InvalidParameterError, match="phi_sign must be"):
        ExtortionParams(1, 2, 1.5, phi=0.1, phi_sign=0)
    # the sign is an integer: a float or a bool is refused, not kept
    for phi_sign in (-1.0, 1.0, True):
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"phi_sign must be +1 or -1, got {phi_sign!r}")):
            ExtortionParams(1, 2, 1.5, phi_sign=phi_sign)
    side = ExtortionParams(1, 2, 1.5, phi_sign=np.int64(-1)).phi_sign
    assert side == -1 and type(side) is int


# --- one input rule -------------------------------------------------------------

def baseline_entry_points(params, l1, l2):
    """Every public call that takes the baselines l1, l2."""
    axis = [0.1, 0.2]
    return {
        "ExtortionParams": lambda: ExtortionParams(l1, l2, 1.5),
        "chi_bounds": lambda: chi_bounds(params, l1, l2),
        "chi_feasible_interval": lambda: chi_feasible_interval(params, l1, l2),
        "phi_feasible_interval":
            lambda: phi_feasible_interval(params, l1, l2, 1.5),
        "scan_extortion_region":
            lambda: scan_extortion_region(params, l1, l2, axis, axis),
        "check_collector_extortion":
            lambda: check_collector_extortion(params, l1, l2),
    }


@pytest.mark.parametrize("field", ["l1", "l2"])
@pytest.mark.parametrize("bad, text", [(0, "0"), (-1, "-1"), (-0.0, "-0.0"),
                                       (math.nan, "nan")])
def test_every_entry_point_refuses_a_baseline_alike(base_params, field, bad,
                                                    text):
    # a baseline <= 0 is out of range everywhere, not only in
    # ExtortionParams; a non-finite one is refused as such everywhere
    rule = "finite" if math.isnan(bad) else "> 0"
    baselines = {"l1": 1.0, "l2": 2.0, field: bad}
    for name, call in baseline_entry_points(base_params, **baselines).items():
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == f"{field} must be {rule}, got {text}", name


def test_phi_interval_refuses_chi_at_most_one(base_params):
    for chi in (1.0, 0.5):
        with pytest.raises(InvalidParameterError) as info:
            phi_feasible_interval(base_params, 1, 2, chi)
        assert str(info.value) == f"chi must be > 1, got {chi!r}"


def test_each_call_runs_the_input_rule_once(base_params, monkeypatch):
    ext = ExtortionParams(1, 2, 1.5)
    calls = {"rule": 0, "build_payoffs": 0}

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted
    rule = counting("rule", extortion.check_extortion_inputs)
    for module in (extortion, collector):
        monkeypatch.setattr(module, "check_extortion_inputs", rule)
    monkeypatch.setattr(extortion, "build_payoffs", counting(
        "build_payoffs", extortion.build_payoffs))
    # the strategy trusts its checked ExtortionParams and builds its payoffs
    # and rows once, without the public phi_feasible_interval
    build_extortion_strategy(base_params, ext)
    assert calls == {"rule": 0, "build_payoffs": 1}
    axis = np.linspace(0, 0.9, 5)
    for call in (lambda: chi_bounds(base_params, 1, 2),
                 lambda: chi_feasible_interval(base_params, 1, 2),
                 lambda: phi_feasible_interval(base_params, 1, 2, 1.5),
                 lambda: check_collector_extortion(base_params, 1, 2),
                 lambda: scan_extortion_region(base_params, 1, 2, axis, axis,
                                               phi_sign=-1, chi_probe=1.5)):
        calls["rule"] = 0
        call()
        assert calls["rule"] == 1


# --- noise-space scan -----------------------------------------------------------

def test_scan_baseline_region_nonempty(base_params):
    grid = scan_extortion_region(base_params, 1, 2, np.linspace(0, 0.9, 10),
                                 np.linspace(0, 0.9, 10))
    assert grid.feasible_count > 0
    # the (0.3, 0.5)-style cells must agree with the direct interval
    i = 3  # e1 = 0.3
    j = 5  # e2 = 0.5
    assert grid.e1_axis[i] == pytest.approx(0.3)
    assert grid.e2_axis[j] == pytest.approx(0.5)
    assert grid.feasible[i, j]
    assert grid.chi_lower[i, j] == pytest.approx(4 / 3, abs=1e-9)
    assert grid.chi_upper[i, j] == pytest.approx(13 / 7, abs=1e-9)


def test_scan_consistent_with_brute_force_lattice(base_params):
    # coarse 11x11 noise grid, 100x100 (chi, phi) probes per cell
    e_axis = np.linspace(0.0, 0.8, 11)
    grid = scan_extortion_region(base_params, 1, 2, e_axis, e_axis)
    # chi lattice dense enough to resolve the narrowest feasible window on
    # this grid (a few 1e-3 wide); phi spans moderate scales only (see
    # lattice_feasible)
    chis = np.linspace(1 + 1e-4, 5.0, 1500)
    phis = np.geomspace(1e-4, 1e3, 80)
    for i in range(11):
        for j in range(11):
            cell = base_params.replace_noise(e1=float(e_axis[i]), e2=float(e_axis[j]))
            pv = build_payoffs(cell)
            brute = lattice_feasible(pv.u_p, pv.u_c, 1, 2, cell.e2, chis, phis)
            assert brute == bool(grid.feasible[i, j]), (i, j)


def test_lattice_oracle_agrees_with_builder(base_params):
    # tie the inline lattice formulas to the public constructor
    rng = np.random.default_rng(53)
    pv = build_payoffs(base_params)
    for _ in range(50):
        chi = rng.uniform(1.01, 3.0)
        phi = float(rng.choice([1, -1]) * 10 ** rng.uniform(-4, 1))
        sol = build_extortion_strategy(
            base_params, ExtortionParams(l1=1, l2=2, chi=chi, phi=phi))
        inline = lattice_feasible(pv.u_p, pv.u_c, 1, 2, base_params.e2,
                                  np.array([chi]), np.array([phi]))
        assert inline == sol.feasible


def test_scan_degenerate_ratio_cells_marked(base_params):
    # l2 equal to u_c(DD) at (0.3, 0.5) degenerates the ratio bound there;
    # feasibility is still decided (division-free conditions)
    grid = scan_extortion_region(base_params, 1, 3.4, np.array([0.2, 0.3, 0.4]),
                                 np.array([0.4, 0.5]))
    assert np.isnan(grid.chi_lower[1, 1]) and np.isnan(grid.chi_upper[1, 1])
    assert np.isfinite(grid.chi_lower[0, 0]) and np.isfinite(grid.chi_upper[0, 0])


def test_scan_empty_region_with_hostile_baselines(base_params):
    grid = scan_extortion_region(base_params, 6, 10, np.linspace(0, 0.8, 5),
                                 np.linspace(0, 0.8, 5))
    assert grid.feasible_count == 0


def test_scan_probe_column(base_params):
    grid = scan_extortion_region(base_params, 1, 2, np.array([0.3, 0.5]),
                                 np.array([0.4, 0.5]), chi_probe=1.5)
    assert grid.probe_feasible is not None
    assert grid.probe_feasible[0, 1]   # chi = 1.5 inside [4/3, 5/3] at (0.3, 0.5)
    grid2 = scan_extortion_region(base_params, 1, 2, np.array([0.3, 0.5]),
                                  np.array([0.4, 0.5]), chi_probe=40.0)
    assert not grid2.probe_feasible[0, 1]


def test_scan_negative_phi_branch(base_params):
    grid = scan_extortion_region(base_params, 1, 2, np.linspace(0, 0.8, 9),
                                 np.linspace(0, 0.8, 9), phi_sign=-1)
    for i in range(9):
        for j in range(9):
            cell = base_params.replace_noise(e1=float(grid.e1_axis[i]),
                                       e2=float(grid.e2_axis[j]))
            interval = chi_feasible_interval(cell, 1, 2, phi_sign=-1)
            assert bool(grid.feasible[i, j]) == (interval.nonempty
                                                 and interval.upper > 1)


def test_scan_csv_format_and_jobs(base_params):
    grid = scan_extortion_region(base_params, 1, 2, np.linspace(0, 0.8, 5),
                                 np.linspace(0, 0.8, 4))
    text = csv_of(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "e1,e2,chi_lower,chi_upper,feasible"
    assert len(lines) == 1 + 5 * 4
    threaded = scan_extortion_region(base_params, 1, 2, np.linspace(0, 0.8, 5),
                                     np.linspace(0, 0.8, 4), jobs=3)
    assert csv_of(threaded) == text


def test_scan_grid_validation(base_params):
    axis = np.linspace(0, 0.8, 10)
    for l1, l2 in ((math.nan, 2), (1, math.nan), (math.inf, 2)):
        with pytest.raises(InvalidParameterError):
            scan_extortion_region(base_params, l1, l2, axis, axis)
    for chi_probe in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="chi_probe"):
            scan_extortion_region(base_params, 1, 2, axis, axis,
                                  chi_probe=chi_probe)
    with pytest.raises(InvalidParameterError):
        scan_extortion_region(base_params, 1, 2, np.array([0.5]), np.array([0.1, 0.2]))
    with pytest.raises(InvalidParameterError):
        scan_extortion_region(base_params, 1, 2, np.array([0.0, 1.0]),
                              np.array([0.1, 0.2]))


@pytest.mark.parametrize("name", ["e1_grid", "e2_grid"])
def test_scan_refuses_axis_above_ceiling(base_params, name):
    axes = {"e1_grid": [0.1, 0.2], "e2_grid": [0.1, 0.2],
            name: np.linspace(0.0, 0.9, MAX_GRID_NUM + 1)}
    with pytest.raises(InvalidParameterError,
                       match=rf"^{name} size must be in \[2, {MAX_GRID_NUM}\]"):
        scan_extortion_region(base_params, 1, 2, **axes)


def test_scan_axis_must_be_finite(base_params):
    good = [0.1, 0.2]
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("e1_grid", "e2_grid"):
            axes = {"e1_grid": good, "e2_grid": good, name: [0.1, bad]}
            with pytest.raises(InvalidParameterError,
                               match=f"{name} values must be finite"):
                scan_extortion_region(base_params, 1, 2, **axes)


# --- batched scan against the per-cell loop --------------------------------------

def reference_scan(params, l1, l2, e1_axis, e2_axis, phi_sign, chi_probe):
    """The region scan as a per-cell loop, as it was first written: payoffs,
    ratio bounds, exact chi interval and the chi_probe sign test, one cell
    at a time.  Returns an ExtortionGrid and the mask of the cells whose
    ratio denominator degenerates."""
    g = params
    shape = (len(e1_axis), len(e2_axis))
    bounds = np.full(shape + (2,), np.nan)
    feasible = np.zeros(shape, dtype=bool)
    degenerate = np.zeros(shape, dtype=bool)
    probe = np.zeros(shape, dtype=bool)
    for i, e1 in enumerate(map(float, e1_axis)):
        for j, e2 in enumerate(map(float, e2_axis)):
            u_p = np.array([
                g.c_p, g.c_p - g.c_p1 + (1 - e2) * g.c_p2, (1 - e1) * g.c_p,
                (1 - e1) * g.c_p - (1 - e1) * g.c_p1 + (1 - e2) * g.c_p2])
            u_c = np.array([
                g.c_c, g.c_c + g.c_c1 - (1 - e2) * g.c_c2, (1 - e1) * g.c_c,
                (1 - e1) * g.c_c + (1 - e1) * g.c_c1 - (1 - e2) * g.c_c2])
            states = (0, 3) if phi_sign > 0 else (2, 1)
            denoms = [u_c[s] - l2 for s in states]
            if any(abs(d) <= 1e-12 for d in denoms):
                degenerate[i, j] = True
            else:
                bounds[i, j] = [(u_p[s] - l1) / d for s, d in zip(states, denoms)]
            a, b = u_p - l1, u_c - l2
            rows = [(a[0], b[0], -phi_sign),
                    (a[1] - e2 * a[0], b[1] - e2 * b[0], -phi_sign),
                    (a[2], b[2], phi_sign),
                    (a[3] - e2 * a[2], b[3] - e2 * b[2], phi_sign)]
            lo, hi, ok = -math.inf, math.inf, True
            for alpha, beta, sign in rows:
                if beta == 0.0:
                    ok = ok and not sign * alpha < 0
                elif (sign > 0) == (beta > 0):
                    hi = min(hi, alpha / beta)
                else:
                    lo = max(lo, alpha / beta)
            ok = ok and not lo > hi and hi > 1
            feasible[i, j] = ok
            if (chi_probe is not None and ok and lo <= chi_probe <= hi
                    and chi_probe > 1):
                probe[i, j] = all(not sign * (alpha - chi_probe * beta) < 0
                                  for alpha, beta, sign in rows)
    return ExtortionGrid(
        np.asarray(e1_axis, dtype=float), np.asarray(e2_axis, dtype=float),
        bounds[..., 0], bounds[..., 1], feasible,
        probe if chi_probe is not None else None, chi_probe), degenerate


def assert_scan_matches_reference(params, l1, l2, e1_axis, e2_axis,
                                  chi_probe=None):
    """Both phi signs: CSV, bounds (bit for bit, NaN exactly where the loop
    finds a degenerate ratio denominator) and the probe column equal the
    per-cell loop's."""
    grids = []
    for phi_sign in (1, -1):
        grid = scan_extortion_region(params, l1, l2, e1_axis, e2_axis,
                                     phi_sign=phi_sign, chi_probe=chi_probe)
        ref, degenerate = reference_scan(params, l1, l2, e1_axis, e2_axis,
                                         phi_sign, chi_probe)
        assert csv_of(grid) == csv_of(ref)
        for name in ("chi_lower", "chi_upper"):
            assert np.array_equal(getattr(grid, name).view(np.int64),
                                  getattr(ref, name).view(np.int64)), name
            assert np.array_equal(np.isnan(getattr(grid, name)), degenerate)
        if chi_probe is None:
            assert grid.probe_feasible is None
        else:
            assert np.array_equal(grid.probe_feasible, ref.probe_feasible)
        grids.append(grid)
    return grids


@pytest.mark.parametrize("seed", range(30))
def test_scan_matches_per_cell_loop_on_random_games(seed):
    rng = np.random.default_rng(seed)
    params = GameParams(*rng.uniform(0.5, 10, 6), *rng.uniform(0, 0.99, 2))
    l1, l2 = rng.uniform(0.1, 12, 2)
    if seed % 2:   # non-uniform, unsorted list axes
        e1_axis = rng.uniform(0, 0.99, rng.integers(2, 10)).tolist()
        e2_axis = rng.uniform(0, 0.99, rng.integers(2, 10)).tolist()
    else:
        e1_axis = np.linspace(0, 0.9, rng.integers(2, 12))
        e2_axis = np.linspace(0, 0.95, rng.integers(2, 12))
    chi_probe = float(rng.uniform(0.5, 4)) if seed % 3 else None
    assert_scan_matches_reference(params, l1, l2, e1_axis, e2_axis, chi_probe)


@pytest.mark.parametrize("l1", [1.0, 7.5])
def test_scan_matches_per_cell_loop_with_flat_cc_row(base_params, l1):
    # l2 = c_c makes beta_CC exactly 0: the CC row holds for every chi or
    # for none, depending on the sign of c_p - l1
    axis = np.linspace(0, 0.9, 10)
    grids = assert_scan_matches_reference(base_params, l1, base_params.c_c,
                                          axis, axis, chi_probe=1.5)
    assert np.all(np.isnan(grids[0].chi_lower) & np.isnan(grids[0].chi_upper))


def test_scan_matches_per_cell_loop_on_degenerate_denominators(base_params):
    for axes in (([0.2, 0.3, 0.4], [0.4, 0.5]),
                 (np.linspace(0, 0.9, 10), np.linspace(0, 0.9, 10))):
        grids = assert_scan_matches_reference(base_params, 1, 3.4, *axes,
                                              chi_probe=1.5)
        assert np.any(np.isnan(grids[0].chi_lower))


def test_scan_matches_per_cell_loop_with_hostile_baselines(base_params):
    axis = np.linspace(0, 0.8, 5)
    grids = assert_scan_matches_reference(base_params, 6, 10, axis, axis,
                                          chi_probe=1.5)
    assert grids[0].feasible_count == 0


def test_scan_matches_per_cell_loop_on_list_axes(base_params):
    assert_scan_matches_reference(base_params, 1, 2,
                                  [0.0, 0.05, 0.5, 0.51, 0.9],
                                  [0.7, 0.1, 0.3], chi_probe=1.5)


def test_scan_matches_per_cell_loop_with_signed_zero_lower_bound(base_params):
    # l1 = c_p zeroes the CC ratio's numerator and l2 above u_c(CC) makes its
    # denominator negative, so every phi > 0 chi_lower is -0.0: a broadcast
    # to the grid by adding zeros would turn it into 0.0 (l2 also lies above
    # every u_c(DD) here, so no cell's ratio degenerates to NaN)
    axis = np.linspace(0, 0.9, 10)
    grid = assert_scan_matches_reference(base_params, base_params.c_p, 7.5,
                                         axis, axis, chi_probe=1.5)[0]
    assert np.all(grid.chi_lower == 0) and np.all(np.signbit(grid.chi_lower))
    rows = csv_of(grid).splitlines()[1:]
    assert len(rows) == axis.size ** 2
    assert all(row.split(",")[2] == "-0" for row in rows)


# A 400^2 scan with chi_probe peaks at ~70 bytes per cell for either phi sign
# (tracemalloc, numpy 2.4); the bound leaves ~30% headroom.  Payoffs or row
# constraints stacked into (n1, n2, 4) arrays, as the scan once built them,
# peak at ~250.
SCAN_PEAK_BYTES_PER_CELL = 90


@pytest.mark.parametrize("phi_sign", [1, -1])
def test_scan_peak_memory_per_cell(base_params, phi_sign):
    axis = np.linspace(0, 0.9, 400)
    scan_extortion_region(base_params, 1, 2, axis[:2], axis[:2], phi_sign)
    tracemalloc.start()
    try:
        grid = scan_extortion_region(base_params, 1, 2, axis, axis,
                                     phi_sign=phi_sign, chi_probe=1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.chi_lower.shape == (axis.size, axis.size)
    assert peak / axis.size ** 2 < SCAN_PEAK_BYTES_PER_CELL


AXIS = st.lists(st.floats(0, 0.99), min_size=2, max_size=6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=80, deadline=None)
@given(l1=st.floats(0.1, 12), l2=st.floats(0.1, 12),
       chi_probe=st.floats(0.5, 5), e1_grid=AXIS, e2_grid=AXIS,
       field=st.sampled_from(["l1", "l2", "chi_probe", "e1_grid", "e2_grid"]),
       bad=NON_FINITE, position=st.integers(0, 5))
def test_non_finite_input_never_yields_a_grid(l1, l2, chi_probe, e1_grid,
                                              e2_grid, field, bad, position):
    args = {"l1": l1, "l2": l2, "chi_probe": chi_probe,
            "e1_grid": e1_grid, "e2_grid": e2_grid}
    if field.endswith("_grid"):
        axis = list(args[field])
        axis[position % len(axis)] = bad
        args[field] = axis
    else:
        args[field] = bad
    with pytest.raises(InvalidParameterError, match=field):
        scan_extortion_region(GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5), **args)


@settings(max_examples=80, deadline=None)
@given(l1=st.floats(0.1, 12), l2=st.floats(0.1, 12), chi=st.floats(0.5, 5),
       field=st.sampled_from(["l1", "l2", "chi"]), bad=NON_FINITE,
       phi_sign=st.sampled_from([1, -1]))
def test_non_finite_input_never_yields_a_scalar_verdict(l1, l2, chi, field,
                                                        bad, phi_sign):
    args = {"l1": l1, "l2": l2, "chi": chi, field: bad}
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)
    calls = [(phi_feasible_interval, args)]
    if field != "chi":
        baselines = {"l1": args["l1"], "l2": args["l2"]}
        calls += [(chi_bounds, baselines), (chi_feasible_interval, baselines)]
    for fn, kwargs in calls:
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
            fn(params, **kwargs, phi_sign=phi_sign)


# --- verification passes ------------------------------------------------------------

def test_verification_builds_no_matrix_and_runs_no_solve(base_params, monkeypatch):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    want = verify_extortion_relation(sol, base_params, ext, trials=500, rng=4)

    def refuse(*args, **kwargs):
        raise AssertionError("the batched engine built or solved a 4x4 chain")

    for name in ("_solve", "_minor3", "build_transition_matrices",
                 "build_transition_matrix"):
        monkeypatch.setattr(markov, name, refuse)
    assert verify_extortion_relation(sol, base_params, ext, trials=500,
                                     rng=4) == want
    # and the corner test of a strategy that pins every chain
    with pytest.raises(InvalidParameterError, match="four corner opponents"):
        verify_extortion_relation(_pinning_solution((1.0, 1.0, 0.0, 0.0)),
                                  base_params, ext, trials=10, rng=0)


def test_verify_passes_match_one_pass_loop(base_params, monkeypatch):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)

    def flag(strategy, qs, params):   # a deterministic "reducible" subset
        return qs[:, 0] < 0.3

    cofactors = markov._cofactors

    def flag_chains(p, qs, params):   # the same subset, zeroed
        w = cofactors(p, qs, params)
        w[qs[:, 0] < 0.3] = 0.0
        return w

    monkeypatch.setattr(markov, "_cofactors", flag_chains)
    monkeypatch.setattr(extortion, "VERIFY_PASS", 7)
    report = verify_extortion_relation(sol, base_params, ext, trials=100, rng=3)
    # one pass draws every remaining trial at once
    rng = np.random.default_rng(3)
    max_residual, discarded, remaining = 0.0, 0, 100
    while remaining > 0:
        qs = rng.random((remaining, 2))
        bad = flag(sol.strategy, qs, base_params)
        discarded += int(bad.sum())
        qs = qs[~bad]
        if qs.shape[0]:
            s_p, s_c = expected_payoffs_many(sol.strategy, qs, base_params)
            residual = np.abs((s_p - ext.l1) - ext.chi * (s_c - ext.l2))
            max_residual = max(max_residual, float(residual.max()))
            remaining -= qs.shape[0]
    assert discarded > 0
    assert report == VerificationReport(100, max_residual, discarded)


@pytest.mark.parametrize("pass_size", [7, VERIFY_PASS])
@pytest.mark.parametrize("trials", [100, VERIFY_PASS + 5])
@pytest.mark.parametrize("p", [None, (1.0, 1.0, 0.0, 4e-9)],
                         ids=["extortionate", "half-reducible"])
def test_workspace_passes_match_allocating_loop(base_params, monkeypatch,
                                                pass_size, trials, p):
    # trials leave a short last pass at either pass size; p = (1, 1, 0, 4e-9)
    # makes the chain reducible wherever s > 0.5 (about half the draws), so
    # passes in the middle drop draws and the next pass reuses the buffers
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = (build_extortion_strategy(base_params, ext) if p is None
           else _pinning_solution(p))
    monkeypatch.setattr(extortion, "VERIFY_PASS", pass_size)
    report = verify_extortion_relation(sol, base_params, ext, trials=trials,
                                       rng=9)
    assert report == reference_verification(sol, base_params, ext, trials, 9,
                                            pass_size)
    assert (report.discarded > 0) == (p is not None)


def test_engine_matches_stacked_reference_across_batch_sizes(base_params):
    p = (1.0, 1.0, 0.0, 0.5)   # reducible at q = (1, 1): cc = 1, dc = 0
    rng = np.random.default_rng(8)
    for n in (50, 20, 50, 3, 80):
        qs = rng.random((n, 2))
        qs[::4] = 1.0
        reducible, s_p, s_c = irreducible_payoffs(p, qs, base_params)
        want = reference_irreducible_payoffs(p, qs, base_params)
        assert reducible.sum() == len(range(0, n, 4))
        for got, ref in zip((reducible, s_p, s_c), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_verification_peak_memory_per_pass_opponent(base_params):
    ext = ExtortionParams(l1=1, l2=2, chi=1.5)
    sol = build_extortion_strategy(base_params, ext)
    verify_extortion_relation(sol, base_params, ext, trials=1000, rng=0)
    tracemalloc.start()
    try:
        verify_extortion_relation(sol, base_params, ext, trials=100_000, rng=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one workspace (80 B) and one draw buffer (16 B) per pass opponent,
    # plus the reducible mask and the draw check's temporaries
    assert peak / VERIFY_PASS < 120
