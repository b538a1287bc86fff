import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zdtrade import (DegenerateParameterError, GameParams,
                     InvalidParameterError, PinningSolution, build_payoffs,
                     expected_payoffs_many, pinning_sensitivity_noise,
                     pinning_sensitivity_strategy, reducible_mask,
                     scan_pinning_region, solve_pinning)
from zdtrade import pinning
from zdtrade.payoffs import BOUNDARY_TOL
from zdtrade.pinning import MAX_RESOLUTION

from conftest import csv_of, reference_solve_cells


def test_baseline_solution_values(base_params):
    sol = solve_pinning(0.9, 0.1, base_params)
    assert sol.a_const == pytest.approx(3.3, abs=1e-12)
    assert sol.b_const == pytest.approx(5.0, abs=1e-15)
    assert sol.d1_const == pytest.approx(0.85, abs=1e-12)
    assert sol.p2 == pytest.approx(0.665 / 0.85, abs=1e-12)   # ~0.782353
    assert sol.p3 == pytest.approx(0.065 / 0.85, abs=1e-12)   # ~0.076471
    assert sol.feasible and sol.reason is None
    assert sol.pinned_s_c == pytest.approx(4.15, abs=1e-12)


def test_unilaterality_random_opponents(base_params):
    # the pinned value holds against any collector strategy
    sol = solve_pinning(0.9, 0.1, base_params)
    rng = np.random.default_rng(41)
    qs = rng.random((100, 2))
    qs = qs[~reducible_mask(sol.strategy, qs, base_params)]
    _, s_c = expected_payoffs_many(sol.strategy, qs, base_params)
    assert np.max(np.abs(s_c - sol.pinned_s_c)) < 1e-9


def test_infeasible_point_reported_not_raised(base_params):
    sol = solve_pinning(0.5, 0.5, base_params)
    assert not sol.feasible
    assert sol.p2 == pytest.approx(-0.075 / 0.85, abs=1e-12)  # ~ -0.088
    assert sol.reason == "p2_out_of_range"
    with pytest.raises(InvalidParameterError):
        _ = sol.strategy


def test_p4_zero_pins_at_a_constant(base_params):
    # the pinned-value formula collapses to A on the p4 = 0 edge
    # (the solved strategy there is typically infeasible for these params,
    # but the enforced value is still well-defined data)
    for p1 in (0.0, 0.3, 0.9):
        sol = solve_pinning(p1, 0.0, base_params)
        assert sol.pinned_s_c == pytest.approx(sol.a_const, abs=1e-12)


def test_p1_one_pins_at_collector_cooperative_payoff(base_params):
    for p4 in (0.1, 0.5, 1.0):
        sol = solve_pinning(1.0, p4, base_params)
        assert sol.pinned_s_c == pytest.approx(5.0, abs=1e-12)
    assert solve_pinning(1.0, 0.1, base_params).feasible


def test_corner_is_undefined(base_params):
    sol = solve_pinning(1.0, 0.0, base_params)
    assert not sol.feasible
    assert sol.reason == "pinned_value_undefined_at_p1_1_p4_0"
    assert np.isnan(sol.pinned_s_c)


def test_degenerate_denominator_raises():
    # D1 = 3.1 - 4.5 e2 for this family at e1 = 0.3; vanishes at e2 = 31/45
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 31 / 45)
    with pytest.raises(DegenerateParameterError):
        solve_pinning(0.5, 0.5, params)
    with pytest.raises(DegenerateParameterError):
        solve_pinning(0.5, 0.5, GameParams(5, 5, 2, 2, 3, 3, 0.3, 1.0))


# --- sensitivities ----------------------------------------------------------

def test_strategy_sensitivity_values(base_params):
    sol = solve_pinning(0.9, 0.1, base_params)
    ds_dp1, ds_dp4 = pinning_sensitivity_strategy(sol)
    assert ds_dp1 == pytest.approx(1.7 * 0.1 / 0.04, rel=1e-12)  # 4.25
    assert ds_dp4 == pytest.approx(1.7 * 0.1 / 0.04, rel=1e-12)  # 4.25


def test_strategy_sensitivity_matches_finite_differences(base_params):
    rng = np.random.default_rng(42)
    h = 1e-6
    checked = 0
    while checked < 30:
        p1, p4 = rng.uniform(0.05, 0.95, 2)
        sol = solve_pinning(p1, p4, base_params)
        if not sol.feasible:
            continue
        ds_dp1, ds_dp4 = pinning_sensitivity_strategy(sol)
        fd1 = (solve_pinning(p1 + h, p4, base_params).pinned_s_c
               - solve_pinning(p1 - h, p4, base_params).pinned_s_c) / (2 * h)
        fd4 = (solve_pinning(p1, p4 + h, base_params).pinned_s_c
               - solve_pinning(p1, p4 - h, base_params).pinned_s_c) / (2 * h)
        assert ds_dp1 == pytest.approx(fd1, rel=1e-4)
        assert ds_dp4 == pytest.approx(fd4, rel=1e-4)
        checked += 1


def test_sensitivity_vanishing_cases():
    # p4 = 0 kills the p1-derivative; A = B kills both
    sol = PinningSolution(p1=0.5, p4=0.0, p2=0.5, p3=0.5, a_const=3.0,
                          b_const=5.0, d1_const=1.0, pinned_s_c=3.0,
                          feasible=True)
    assert pinning_sensitivity_strategy(sol)[0] == 0.0
    flat = PinningSolution(p1=0.5, p4=0.2, p2=0.5, p3=0.5, a_const=4.0,
                           b_const=4.0, d1_const=1.0, pinned_s_c=4.0,
                           feasible=True)
    assert pinning_sensitivity_strategy(flat) == (0.0, 0.0)


def test_p4_zero_feasible_when_dd_equals_dc_value():
    # (1-e1) c_c1 == (1-e2) c_c2 makes u_c(DD) = u_c(DC), so p3 >= 0 on the
    # p4 = 0 edge and the A-pinning strategies are actually realizable
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 1 - 1.4 / 3)
    sol = solve_pinning(0.9, 0.0, params)
    assert sol.feasible
    assert sol.pinned_s_c == pytest.approx(sol.a_const, abs=1e-12)
    assert pinning_sensitivity_strategy(sol)[0] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(43)
    qs = rng.random((50, 2))
    qs = qs[~reducible_mask(sol.strategy, qs, params)]
    _, s_c = expected_payoffs_many(sol.strategy, qs, params)
    assert np.max(np.abs(s_c - sol.pinned_s_c)) < 1e-9


def test_corner_sensitivity_raises(base_params):
    sol = PinningSolution(p1=1.0, p4=0.0, p2=0.5, p3=0.5, a_const=3.3,
                          b_const=5.0, d1_const=0.85, pinned_s_c=4.0,
                          feasible=True)
    with pytest.raises(DegenerateParameterError):
        pinning_sensitivity_strategy(sol)
    with pytest.raises(DegenerateParameterError):
        pinning_sensitivity_noise(1.0, 0.0, base_params)
    infeasible = PinningSolution(p1=0.9, p4=0.1, p2=1.5, p3=0.5, a_const=3.3,
                                 b_const=5.0, d1_const=0.85, pinned_s_c=4.0,
                                 feasible=False, reason="p2 out of range")
    with pytest.raises(InvalidParameterError, match="feasible solution"):
        pinning_sensitivity_strategy(infeasible)


def test_noise_sensitivity_values(base_params):
    ds_de1, ds_de2 = pinning_sensitivity_noise(0.9, 0.1, base_params)
    assert ds_de1 == pytest.approx(-4.5, abs=1e-12)
    assert ds_de2 == pytest.approx(2.8, abs=1e-12)
    # free entries are checked as in solve_pinning
    for p1, p4 in ((2.0, 0.1), (0.9, -0.1), (np.nan, 0.1)):
        with pytest.raises(InvalidParameterError):
            pinning_sensitivity_noise(p1, p4, base_params)


def test_noise_sensitivity_matches_finite_differences(base_params):
    h = 1e-6
    rng = np.random.default_rng(44)
    for _ in range(30):
        p1, p4 = rng.uniform(0.05, 0.95, 2)
        ds_de1, ds_de2 = pinning_sensitivity_noise(p1, p4, base_params)
        up = solve_pinning(p1, p4, base_params.replace_noise(e1=base_params.e1 + h)).pinned_s_c
        dn = solve_pinning(p1, p4, base_params.replace_noise(e1=base_params.e1 - h)).pinned_s_c
        assert ds_de1 == pytest.approx((up - dn) / (2 * h), rel=1e-4)
        up = solve_pinning(p1, p4, base_params.replace_noise(e2=base_params.e2 + h)).pinned_s_c
        dn = solve_pinning(p1, p4, base_params.replace_noise(e2=base_params.e2 - h)).pinned_s_c
        assert ds_de2 == pytest.approx((up - dn) / (2 * h), rel=1e-4)


def test_noise_sensitivity_signs_everywhere():
    rng = np.random.default_rng(45)
    for _ in range(300):
        c = rng.uniform(0.1, 10, 6)
        e1, e2 = rng.uniform(0, 0.95, 2)
        p1, p4 = rng.uniform(0, 0.99), rng.uniform(0, 1)
        params = GameParams(*c, e1, e2)
        ds_de1, ds_de2 = pinning_sensitivity_noise(p1, p4, params)
        assert ds_de1 < 0
        assert ds_de2 > 0


def test_noise_sensitivity_zero_at_p1_one(base_params):
    assert pinning_sensitivity_noise(1.0, 0.4, base_params) == (0.0, 0.0)


# --- region scan -------------------------------------------------------------

def test_scan_matches_pointwise_solver(base_params):
    grid = scan_pinning_region(base_params, resolution=21)
    for i in range(0, 21, 4):
        for j in range(0, 21, 4):
            sol = solve_pinning(grid.p1_axis[i], grid.p4_axis[j], base_params)
            assert bool(grid.feasible[i, j]) == sol.feasible
            assert grid.p2[i, j] == pytest.approx(sol.p2, abs=1e-12)
            assert grid.p3[i, j] == pytest.approx(sol.p3, abs=1e-12)
            if not np.isnan(sol.pinned_s_c):
                assert grid.pinned_s_c[i, j] == pytest.approx(sol.pinned_s_c,
                                                              abs=1e-12)
            assert grid.reason(i, j) == sol.reason


def test_scan_feasible_values_stay_between_constants(base_params):
    grid = scan_pinning_region(base_params, resolution=101)
    assert grid.feasible_count > 0
    sc = grid.pinned_s_c[grid.feasible]
    assert sc.min() >= min(grid.a_const, grid.b_const) - 1e-12
    assert sc.max() <= max(grid.a_const, grid.b_const) + 1e-12


def test_scan_all_cells_stay_between_constants(base_params):
    grid = scan_pinning_region(base_params, resolution=41)
    sc = grid.pinned_s_c[~np.isnan(grid.pinned_s_c)]
    lo, hi = min(grid.a_const, grid.b_const), max(grid.a_const, grid.b_const)
    assert sc.min() >= lo - 1e-12 and sc.max() <= hi + 1e-12


def test_scan_monotone_along_axes(base_params):
    # pinned value grows with p1 and with p4 whenever A < B
    grid = scan_pinning_region(base_params, resolution=51)
    assert grid.a_const < grid.b_const
    sc = np.where(np.isnan(grid.pinned_s_c), -np.inf, grid.pinned_s_c)
    for i in range(51):
        row = sc[i, :][grid.feasible[i, :]]
        assert np.all(np.diff(row) >= -1e-12)
    for j in range(51):
        col = sc[:, j][grid.feasible[:, j]]
        assert np.all(np.diff(col) >= -1e-12)


def test_scan_more_data_noise_lowers_best_pin(family_small):
    lo = scan_pinning_region(family_small(0.3, 0.5), resolution=101)
    hi = scan_pinning_region(family_small(0.5, 0.5), resolution=101)
    assert lo.feasible_count and hi.feasible_count
    assert (hi.pinned_s_c[hi.feasible].max()
            <= lo.pinned_s_c[lo.feasible].max() + 1e-9)


def test_scan_resolution_two_is_corners(base_params):
    grid = scan_pinning_region(base_params, resolution=2)
    assert grid.feasible.shape == (2, 2)
    np.testing.assert_array_equal(grid.p1_axis, [0.0, 1.0])
    assert grid.reason(1, 0) == "pinned_value_undefined_at_p1_1_p4_0"
    with pytest.raises(InvalidParameterError):
        scan_pinning_region(base_params, resolution=1)
    # a resolution must be an integer (10.5 used to stop inside numpy)
    for resolution in (10.5, 1e4, True):
        with pytest.raises(InvalidParameterError,
                           match=rf"^resolution must be an integer, "
                                 rf"got {resolution!r}$"):
            scan_pinning_region(base_params, resolution=resolution)


@pytest.mark.parametrize("resolution", [10**12, MAX_RESOLUTION + 1])
def test_scan_refuses_resolution_above_ceiling_before_allocating(base_params,
                                                                 resolution):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError,
                           match=rf"^resolution must be in \[2, {MAX_RESOLUTION}\], "
                                 rf"got {resolution}$"):
            scan_pinning_region(base_params, resolution=resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_scan_csv_and_summary(base_params):
    grid = scan_pinning_region(base_params, resolution=11)
    text = csv_of(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "p1,p4,feasible,p2,p3,s_c_pinned"
    assert len(lines) == 1 + 11 * 11
    # row-major: p1 varies slowest
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("0,0.1,")
    info = grid.summary()
    assert info["cells"] == 121
    assert info["feasible_cells"] == grid.feasible_count
    feasible_s_c = grid.pinned_s_c[grid.feasible]
    assert (info["s_c_min"], info["s_c_max"]) == (feasible_s_c.min(),
                                                  feasible_s_c.max())


def test_empty_region_at_extreme_masking_noise():
    grid = scan_pinning_region(GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.99),
                               resolution=51)
    assert grid.feasible_count == 0
    assert grid.summary()["s_c_min"] is None


# --- one kernel: the scalar solver is the grid kernel at one cell -------------

def reference_solve(p1, p4, params):
    """The scalar solver, formulas and clamp written out per value: the
    oracle for the kernel's one-cell call."""
    for name, v in (("p1", p1), ("p4", p4)):
        if not np.isfinite(v) or not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {v!r}")
    if params.e2 >= 1.0:
        raise DegenerateParameterError(
            "e2 = 1 makes the pinning constants undefined (division by 1 - e2)"
        )
    u_c = build_payoffs(params).u_c
    e2 = params.e2
    b = float(u_c[0])
    a = float((u_c[3] - e2 * u_c[2]) / (1 - e2))
    d1 = float(u_c[0] - u_c[3] - e2 * (u_c[0] - u_c[2]))
    if abs(d1) <= 1e-12:
        raise DegenerateParameterError(
            f"pinning denominator D1 = {d1!r} is degenerate for these parameters"
        )
    p2 = ((u_c[1] - u_c[3] + e2 * (u_c[2] - u_c[0])) * p1
          + (u_c[0] - u_c[1]) * (1 + p4)) / d1
    p3 = ((u_c[3] - u_c[2]) * (1 - p1)
          + (u_c[0] - u_c[2]) * (1 - e2) * p4) / d1
    corner = (p1 == 1.0 and p4 == 0.0)
    p2_ok = bool(-1e-9 <= p2 <= 1 + 1e-9)
    p3_ok = bool(-1e-9 <= p3 <= 1 + 1e-9)
    if corner:
        feasible, reason, pinned = (False, "pinned_value_undefined_at_p1_1_p4_0",
                                    math.nan)
    else:
        feasible = p2_ok and p3_ok
        reason = (None if feasible else
                  "p2_out_of_range" if not p2_ok and p3_ok else
                  "p3_out_of_range" if p2_ok else "p2_and_p3_out_of_range")
        pinned = (a * (1 - p1) + b * p4) / (1 - p1 + p4)
    if feasible:
        p2, p3 = min(1.0, max(0.0, p2)), min(1.0, max(0.0, p3))
    return PinningSolution(
        p1=float(p1), p4=float(p4), p2=float(p2), p3=float(p3),
        a_const=a, b_const=b, d1_const=d1, pinned_s_c=float(pinned),
        feasible=feasible, reason=reason,
    )


def bits(sol):
    """as_dict() with every float as its IEEE bytes (signed zeros, NaN)."""
    return {k: struct.pack("<d", v) if isinstance(v, float) else v
            for k, v in sol.as_dict().items()}


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (InvalidParameterError, DegenerateParameterError) as exc:
        return type(exc), str(exc)


PAYOFF = st.one_of(st.integers(1, 9).map(float), st.floats(0.1, 10))
NOISE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(0, 0.99))
GAMES = st.builds(GameParams, PAYOFF, PAYOFF, PAYOFF, PAYOFF, PAYOFF, PAYOFF,
                  NOISE, NOISE)
FREE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
CELLS = st.one_of(st.just((1.0, 0.0)), st.tuples(FREE, FREE))


@settings(max_examples=200, deadline=None)
@given(params=GAMES, cells=st.lists(CELLS, min_size=1, max_size=8))
@example(params=GameParams(1, 1, 1, 1, 1, 0.5, 0.0, 0.0),  # p3 = 0 / (D1 < 0)
         cells=[(1.0, 5e-237)])
def test_solver_matches_scalar_reference(params, cells):
    for p1, p4 in cells:
        assert outcome(solve_pinning, p1, p4, params) == \
            outcome(reference_solve, p1, p4, params)


def test_solver_errors_match_scalar_reference(base_params):
    cases = [(0.5, 0.5, GameParams(5, 5, 2, 2, 3, 3, 0.3, 1.0)),      # e2 = 1
             (0.5, 0.5, GameParams(5, 5, 2, 2, 3, 3, 0.3, 31 / 45)),  # D1 ~ 0
             (0.5, 0.5, GameParams(5, 5, 2, 2, 3, 3, 0.0, 1 / 3))]   # D1 ~ 0
    cases += [(p1, p4, base_params) for p1, p4 in
              ((1.5, 0.2), (-0.1, 0.2), (math.nan, 0.2), (0.2, math.inf),
               (0.2, -1e-300), (math.nan, math.nan))]
    for p1, p4, params in cases:
        got = outcome(solve_pinning, p1, p4, params)
        assert isinstance(got, tuple), (p1, p4, params)
        assert got == outcome(reference_solve, p1, p4, params)


@settings(max_examples=15, deadline=None)
@given(params=GAMES)
def test_scan_cells_equal_solver(params):
    try:
        grid = scan_pinning_region(params, resolution=23)
    except DegenerateParameterError:
        return
    lo = min(grid.a_const, grid.b_const)
    hi = max(grid.a_const, grid.b_const)
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    for i, p1 in enumerate(grid.p1_axis):
        for j, p4 in enumerate(grid.p4_axis):
            sol = solve_pinning(p1, p4, params)
            cell = PinningSolution(
                p1=float(p1), p4=float(p4), p2=float(grid.p2[i, j]),
                p3=float(grid.p3[i, j]), a_const=grid.a_const,
                b_const=grid.b_const, d1_const=grid.d1_const,
                pinned_s_c=float(grid.pinned_s_c[i, j]),
                feasible=bool(grid.feasible[i, j]), reason=grid.reason(i, j))
            assert bits(cell) == bits(sol)
            if sol.feasible:
                assert lo - slack <= sol.pinned_s_c <= hi + slack


# --- the in-place kernel against its allocate-per-step form -------------------

def kernel_pair(p1, p4, params):
    """(kernel, reference) outputs at the same cells, as arrays."""
    consts = (*pinning._pinning_constants(params), params.e2)
    return ([np.asarray(x) for x in pinning._solve_cells(p1, p4, *consts)],
            [np.asarray(x) for x in reference_solve_cells(p1, p4, *consts)])


def assert_same_cells(p1, p4, params):
    got, want = kernel_pair(p1, p4, params)
    for name, g, w in zip(("p2", "p3", "pinned", "feasible", "code"),
                          got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), (name, params)
        assert g.tobytes() == w.tobytes(), (name, params)


def edge_axes(params, rng):
    """p1 and p4 axes with the corner, random values, and values that put
    p2 (along the first p4 values) or p3 (along the first p1 values) within
    BOUNDARY_TOL of 0 and of 1, on both sides; and the unclamped (p2, p3)
    of a cell."""
    u_c, _, _, d1 = pinning._pinning_constants(params)
    e2 = params.e2
    c21, c22 = u_c[1] - u_c[3] + e2 * (u_c[2] - u_c[0]), u_c[0] - u_c[1]
    c31, c32 = u_c[3] - u_c[2], (u_c[0] - u_c[2]) * (1 - e2)
    p1s, p4s = [1.0, 0.0, *rng.random(6)], [0.0, 1.0, *rng.random(6)]
    targets = [-2 * BOUNDARY_TOL, -BOUNDARY_TOL / 2, 0.0, BOUNDARY_TOL / 2,
               1 - BOUNDARY_TOL / 2, 1 + BOUNDARY_TOL / 2, 1 + 2 * BOUNDARY_TOL]
    with np.errstate(divide="ignore", invalid="ignore"):
        p1s += [(t * d1 - c22 * (1 + p4)) / c21 for t in targets
                for p4 in p4s[:3]]
        p4s += [(t * d1 - c31 * (1 - p1)) / c32 for t in targets
                for p1 in p1s[:3]]
    inside = (lambda v: np.array([float(x) for x in v if 0.0 <= x <= 1.0]))

    def raw(p1, p4):
        return ((c21 * p1 + c22 * (1 + p4)) / d1,
                (c31 * (1 - p1) + c32 * p4) / d1)
    return inside(p1s), inside(p4s), raw


def test_kernel_is_bit_exact_against_allocating_form():
    rng = np.random.default_rng(24)
    games = [GameParams(1, 1, 1, 1, 1, 0.5, 0.0, 0.0)]   # D1 < 0: 0 / D1 = -0.0
    while len(games) < 120:
        c = (rng.integers(1, 10, 6).astype(float) if len(games) % 2 else
             rng.uniform(0.1, 10, 6))
        games.append(GameParams(*c, *rng.choice([0.0, 0.5, rng.random()], 2)))
    clamped = {"below 0": 0, "above 1": 0}
    for params in games:
        try:
            p1, p4, raw = edge_axes(params, rng)
        except DegenerateParameterError:
            continue
        assert_same_cells(p1[:, None], p4[None, :], params)
        assert_same_cells(p1[None, :], p4[:, None], params)
        for i in range(len(p1)):
            for j in range(i % 3, len(p4), 3):
                assert_same_cells(np.float64(p1[i]), np.float64(p4[j]),
                                  params)
        p2, p3, _, feasible, _ = kernel_pair(p1[:, None], p4[None, :],
                                             params)[0]
        assert not np.signbit(p2[feasible]).any()
        assert not np.signbit(p3[feasible]).any()
        for x in raw(p1[:, None], p4[None, :]):
            clamped["below 0"] += int((feasible & (x < 0)).sum())
            clamped["above 1"] += int((feasible & (x > 1)).sum())
    assert min(clamped.values()) > 0, clamped
    # p3 = 0 / D1 with D1 < 0 is -0.0 before the clamp, 0.0 after it
    p1, p4, raw = edge_axes(games[0], rng)
    one, tiny = np.float64(1.0), np.float64(5e-237)
    assert np.signbit(raw(one, tiny)[1])
    assert_same_cells(one, tiny, games[0])
    assert_same_cells(np.array([[1.0], [0.5]]), np.array([[0.0, 5e-237]]),
                      games[0])
    sol = solve_pinning(1.0, 5e-237, games[0])
    assert sol.feasible and struct.pack("<d", sol.p3) == bytes(8)


def test_scalar_solver_and_scan_share_the_kernel(base_params, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(np.shape(args[0]))
        return kernel(*args)

    kernel = pinning._solve_cells
    monkeypatch.setattr(pinning, "_solve_cells", spy)
    solve_pinning(0.9, 0.1, base_params)
    scan_pinning_region(base_params, resolution=5)
    assert calls == [(), (5, 1)]


def test_scan_peak_memory_per_cell(base_params):
    tracemalloc.start()
    try:
        scan_pinning_region(base_params, resolution=1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 1001 ** 2
