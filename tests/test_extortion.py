import math
import tracemalloc

import numpy as np
import pytest

from zdtrade import (BaselineDegenerateError, ExtortionParams,
                     GameParams, InvalidParameterError,
                     build_extortion_strategy, build_payoffs, chi_bounds,
                     chi_feasible_interval, expected_payoffs,
                     expected_payoffs_many, phi_feasible_interval,
                     reducible_mask, scan_extortion_region,
                     verify_extortion_relation)
from zdtrade.extortion import MAX_TRIALS


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
    assert grid.reason_code[1, 1] == 1
    assert np.isnan(grid.chi_lower[1, 1]) and np.isnan(grid.chi_upper[1, 1])
    assert grid.reason_code[0, 0] != 1


def test_scan_empty_region_with_hostile_baselines(base_params):
    grid = scan_extortion_region(base_params, 6, 10, np.linspace(0, 0.8, 5),
                                 np.linspace(0, 0.8, 5))
    assert grid.feasible_count == 0
    assert np.all(grid.reason_code[grid.reason_code != 1] >= 0)


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
    text = grid.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "e1,e2,chi_lower,chi_upper,feasible"
    assert len(lines) == 1 + 5 * 4
    threaded = scan_extortion_region(base_params, 1, 2, np.linspace(0, 0.8, 5),
                                     np.linspace(0, 0.8, 4), jobs=3)
    assert threaded.to_csv() == text


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
