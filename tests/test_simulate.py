import math
import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from zdtrade import (CollectorStrategy, GameParams, InvalidParameterError,
                     NonUniqueStationaryError, ProviderStrategy, SimConfig,
                     SimResult, StateIndex, build_payoffs,
                     build_transition_matrix, compare_to_analytic,
                     expected_payoffs, play_rounds, simulate, solve_pinning)
from zdtrade._text import plain
from zdtrade.simulate import MAX_ROUNDS, _batch_se

from conftest import csv_of


def sequential_reference(config):
    """Straight-line re-implementation of the round loop, one scalar draw
    at a time, as the oracle for the vectorized engine."""
    rng = np.random.default_rng(config.seed)
    payoff = build_payoffs(config.params)
    e1, e2 = config.params.e1, config.params.e2
    p = config.p.vector
    q = (config.q.q1, config.q.q2)
    x_prev = int(config.initial_state) < 2      # provider cooperated in v
    y_prev = int(config.initial_state) % 2 == 0
    rows = []
    for t in range(config.rounds):
        u_obs, u_act, u_cobs, u_cact = (rng.random(), rng.random(),
                                        rng.random(), rng.random())
        if t == 0:
            obs_g = True                        # fictitious first outcome
        else:
            obs_g = True if y_prev else (u_obs < e2)
        idx = (0 if x_prev else 2) + (0 if obs_g else 1)
        x = u_act < p[idx]
        cobs_g = True if x else (u_cobs >= e1)
        y = u_cact < (q[0] if cobs_g else q[1])
        state = (0 if x else 2) + (0 if y else 1)
        rows.append((state, obs_g, x, cobs_g, y,
                     payoff.u_p[state], payoff.u_c[state]))
        x_prev, y_prev = x, y
    return rows


@pytest.fixture
def mixed_config(base_params):
    return SimConfig(params=base_params, p=ProviderStrategy(0.8, 0.4, 0.6, 0.2),
                     q=CollectorStrategy(0.7, 0.3), rounds=3000, seed=99,
                     burn_in=100)


def test_all_cooperate_exact(base_params):
    config = SimConfig(params=base_params, p=ProviderStrategy(1, 1, 1, 1),
                       q=CollectorStrategy(1, 1), rounds=5000, seed=3)
    result = play_rounds(config)
    assert result.s_p == 5.0 and result.s_c == 5.0
    np.testing.assert_array_equal(result.state_frequencies, [1, 0, 0, 0])
    assert result.se_s_p == 0.0


def test_seed_determinism(mixed_config):
    a, trace_a = play_rounds(mixed_config, collect_trace=True)
    b, trace_b = play_rounds(mixed_config, collect_trace=True)
    assert a.s_p == b.s_p and a.s_c == b.s_c
    np.testing.assert_array_equal(a.state_frequencies, b.state_frequencies)
    np.testing.assert_array_equal(trace_a.prev_state, trace_b.prev_state)
    np.testing.assert_array_equal(trace_a.provider_coop, trace_b.provider_coop)
    assert csv_of(trace_a) == csv_of(trace_b)
    other = SimConfig(params=mixed_config.params, p=mixed_config.p,
                      q=mixed_config.q, rounds=3000, seed=100, burn_in=100)
    c = play_rounds(other)
    assert c.s_p != a.s_p   # different seed, different trajectory


def test_matches_sequential_reference(mixed_config):
    _, trace = play_rounds(mixed_config, collect_trace=True)
    rows = sequential_reference(mixed_config)
    states = np.array([r[0] for r in rows])
    realized = np.concatenate([[int(mixed_config.initial_state)], states])
    np.testing.assert_array_equal(trace.prev_state, realized[:-1])
    np.testing.assert_array_equal(trace.provider_obs_g,
                                  np.array([r[1] for r in rows]))
    np.testing.assert_array_equal(trace.provider_coop,
                                  np.array([r[2] for r in rows]))
    np.testing.assert_array_equal(trace.collector_obs_g,
                                  np.array([r[3] for r in rows]))
    np.testing.assert_array_equal(trace.collector_coop,
                                  np.array([r[4] for r in rows]))
    np.testing.assert_allclose(trace.u_p, [r[5] for r in rows], atol=0)


def test_matches_reference_from_defect_start(base_params):
    config = SimConfig(params=base_params, p=ProviderStrategy(0.3, 0.9, 0.5, 0.7),
                       q=CollectorStrategy(0.2, 0.8), rounds=500, seed=17,
                       initial_state=StateIndex.DD)
    _, trace = play_rounds(config, collect_trace=True)
    rows = sequential_reference(config)
    np.testing.assert_array_equal(trace.provider_coop,
                                  np.array([r[2] for r in rows]))
    # fictitious first outcome is (D, g): round 1 uses the Dg entry
    assert trace.provider_obs_g[0]


def test_observation_noise_empirics(base_params):
    # defecting collector observed g with probability e2; defecting
    # provider observed b with probability e1
    config = SimConfig(params=base_params, p=ProviderStrategy(0.5, 0.5, 0.5, 0.5),
                       q=CollectorStrategy(0.4, 0.6), rounds=200_000, seed=5)
    _, trace = play_rounds(config, collect_trace=True)
    prev_collector_defected = (trace.prev_state % 2) == 1
    frac_g = trace.provider_obs_g[prev_collector_defected].mean()
    n = prev_collector_defected.sum()
    se = np.sqrt(base_params.e2 * (1 - base_params.e2) / n)
    assert abs(frac_g - base_params.e2) < 3 * se

    provider_defected = ~trace.provider_coop
    frac_b = (~trace.collector_obs_g[provider_defected]).mean()
    n2 = provider_defected.sum()
    se2 = np.sqrt(base_params.e1 * (1 - base_params.e1) / n2)
    assert abs(frac_b - base_params.e1) < 3 * se2


def test_transition_empirics(base_params):
    # per-cell one-step frequencies against the analytic matrix, 3 SE each
    # (seeded: 16 simultaneous 3-sigma checks need a specific draw)
    p = ProviderStrategy(0.8, 0.4, 0.6, 0.2)
    q = CollectorStrategy(0.7, 0.3)
    config = SimConfig(params=base_params, p=p, q=q, rounds=200_000, seed=42)
    _, trace = play_rounds(config, collect_trace=True)
    m = build_transition_matrix(p, q, base_params)
    prev_seq = trace.prev_state
    last = (2 * int(not trace.provider_coop[-1])
            + int(not trace.collector_coop[-1]))
    next_seq = np.concatenate([trace.prev_state[1:], [last]])
    for v in range(4):
        mask = prev_seq == v
        mask[0] = False     # skip the fictitious-observation round
        n = mask.sum()
        assert n > 500
        for w in range(4):
            emp = (next_seq[mask] == w).mean()
            se = np.sqrt(max(m[v, w] * (1 - m[v, w]), 1e-12) / n)
            assert abs(emp - m[v, w]) < 3 * se, (v, w)


def test_agreement_with_stationary_analysis(base_params):
    rng = np.random.default_rng(71)
    for k in range(5):
        p = ProviderStrategy(*rng.uniform(0.1, 0.9, 4))
        q = CollectorStrategy(*rng.uniform(0.1, 0.9, 2))
        config = SimConfig(params=base_params, p=p, q=q, rounds=200_000,
                           seed=800 + k, burn_in=1000)
        result = play_rounds(config)
        report = compare_to_analytic(result, p, q, base_params)
        assert not report.flagged, report


def test_pinned_value_reached_empirically(base_params):
    sol = solve_pinning(0.9, 0.1, base_params)
    config = SimConfig(params=base_params, p=sol.strategy,
                       q=CollectorStrategy(0.35, 0.65), rounds=400_000,
                       seed=13, burn_in=1000)
    result = play_rounds(config)
    assert abs(result.s_c - sol.pinned_s_c) < 3 * result.se_s_c


def test_negative_control_flags_wrong_target(base_params):
    p = ProviderStrategy(0.8, 0.4, 0.6, 0.2)
    q = CollectorStrategy(0.7, 0.3)
    config = SimConfig(params=base_params, p=p, q=q, rounds=100_000, seed=8,
                       burn_in=500)
    result = play_rounds(config)
    wrong = GameParams(6, 6, 2, 2, 3, 3, 0.3, 0.5)  # perturbed payoffs
    report = compare_to_analytic(result, p, q, wrong)
    assert report.flagged


def test_compare_all_cooperate_z_zero(base_params):
    config = SimConfig(params=base_params, p=ProviderStrategy(1, 1, 1, 1),
                       q=CollectorStrategy(1, 1), rounds=2000, seed=9)
    result = play_rounds(config)
    report = compare_to_analytic(result, config.p, config.q, base_params)
    assert report.max_abs_z == 0.0 and not report.flagged


def test_compare_propagates_reducible(base_params):
    config = SimConfig(params=base_params.replace_noise(e1=1.0),
                       p=ProviderStrategy(1, 1, 0, 0),
                       q=CollectorStrategy(1, 0), rounds=1000, seed=10)
    result = play_rounds(config)   # simulation itself is fine
    with pytest.raises(NonUniqueStationaryError):
        compare_to_analytic(result, config.p, config.q, config.params)


def test_trace_csv_and_records(mixed_config):
    result, trace = play_rounds(mixed_config, collect_trace=True)
    text = csv_of(trace)
    lines = text.strip().split("\n")
    assert lines[0] == ("round,prev_state,provider_obs,provider_action,"
                        "collector_obs,collector_action,u_p,u_c")
    assert len(lines) == 1 + mixed_config.rounds
    assert lines[1].startswith("1,CC,g,")
    assert trace.prev_state[0] == StateIndex.CC
    assert trace.provider_obs_g[0]
    payoff = build_payoffs(mixed_config.params)
    state = 2 * (not trace.provider_coop[0]) + (not trace.collector_coop[0])
    assert trace.u_p[0] == payoff.u_p[state]
    assert trace.u_c[0] == payoff.u_c[state]


def test_trace_noise_rule_invariants(mixed_config):
    # a cooperating player is always observed as g
    _, trace = play_rounds(mixed_config, collect_trace=True)
    prev_collector_coop = (trace.prev_state % 2) == 0
    assert trace.provider_obs_g[prev_collector_coop].all()
    assert trace.collector_obs_g[trace.provider_coop].all()


def test_result_frequencies_sum_to_one(mixed_config):
    result = play_rounds(mixed_config)
    assert abs(result.state_frequencies.sum() - 1.0) < 1e-12
    assert result.rounds_used == mixed_config.rounds - mixed_config.burn_in


def test_config_validation(base_params):
    p, q = ProviderStrategy(1, 1, 1, 1), CollectorStrategy(1, 1)
    with pytest.raises(InvalidParameterError):
        SimConfig(params=base_params, p=p, q=q, rounds=0, seed=1)
    with pytest.raises(InvalidParameterError):
        SimConfig(params=base_params, p=p, q=q, rounds=100, seed=1, burn_in=100)
    with pytest.raises(InvalidParameterError, match="seed"):
        SimConfig(params=base_params, p=p, q=q, rounds=100, seed=-1)
    # a count must be an integer: 1e4 used to pass and fail in play_rounds
    for rounds in (1e4, 10.5, True):
        with pytest.raises(InvalidParameterError,
                           match=rf"^rounds must be an integer, got {rounds!r}$"):
            SimConfig(params=base_params, p=p, q=q, rounds=rounds, seed=1)
    with pytest.raises(InvalidParameterError, match="burn_in must be an integer"):
        SimConfig(params=base_params, p=p, q=q, rounds=100, seed=1, burn_in=2.5)


@pytest.mark.parametrize("seed", [1.5, "7", None, True])
def test_config_refuses_a_seed_that_is_not_an_integer(base_params, seed):
    # 1.5 and "7" used to fail inside numpy, None to run unseeded (equal
    # configs would not give equal traces) and True to run as seed 1
    p, q = ProviderStrategy(1, 1, 1, 1), CollectorStrategy(1, 1)
    with pytest.raises(InvalidParameterError,
                       match=rf"^seed must be an integer, got {re.escape(repr(seed))}$"):
        SimConfig(params=base_params, p=p, q=q, rounds=100, seed=seed)


def test_payoff_average_agrees_with_dot_product(mixed_config):
    # empirical mean payoff must equal freq . u exactly (same data)
    result = play_rounds(mixed_config)
    payoff = build_payoffs(mixed_config.params)
    assert result.s_p == pytest.approx(
        float(result.state_frequencies @ payoff.u_p), abs=1e-12)
    assert result.s_c == pytest.approx(
        float(result.state_frequencies @ payoff.u_c), abs=1e-12)


# --- the chunked fold against the lookup-table fold it replaced -------------

def reference_play_rounds(config):
    """The simulator as it was before the blocked draws and the chunked
    fold: one (rounds, 4) uniform array, a lookup table of the next state
    per round and previous state, a per-round Python fold, and the
    frequency errors from a (rounds, 4) indicator matrix.  The bit-for-bit
    oracle for play_rounds, trace included."""
    params, rounds = config.params, config.rounds
    pvec = config.p.vector
    q1, q2 = config.q.q1, config.q.q2
    e1, e2 = params.e1, params.e2
    payoff = build_payoffs(params)
    u = np.random.default_rng(config.seed).random((rounds, 4))
    prev_y_coop = np.array([True, False, True, False])
    prev_x_coop = np.array([True, True, False, False])
    obs_g = prev_y_coop[None, :] | (u[:, 0:1] < e2)
    obs_g[0, :] = True
    outcome = np.where(prev_x_coop[None, :], 0, 2) + np.where(obs_g, 0, 1)
    x_coop = u[:, 1:2] < pvec[outcome]
    col_obs_g = x_coop | (u[:, 2:3] >= e1)
    y_coop = u[:, 3:4] < np.where(col_obs_g, q1, q2)
    next_state = np.where(x_coop, 0, 2) + np.where(y_coop, 0, 1)
    state = int(config.initial_state)
    states = [state]
    for t in range(rounds):
        state = int(next_state[t, state])
        states.append(state)
    seq = np.asarray(states, dtype=np.intp)
    realized = seq[1:]
    used = realized[config.burn_in:]
    up_seq = payoff.u_p[used]
    uc_seq = payoff.u_c[used]
    ind = (used[:, None] == np.arange(4)[None, :]).astype(float)
    result = SimResult(
        state_frequencies=np.bincount(used, minlength=4) / used.size,
        s_p=float(up_seq.mean()), s_c=float(uc_seq.mean()),
        se_s_p=_batch_se(up_seq), se_s_c=_batch_se(uc_seq),
        se_frequencies=np.array([_batch_se(ind[:, k]) for k in range(4)]),
        rounds_used=int(used.size),
    )
    rows = np.arange(rounds)
    prev = seq[:-1]
    # the seven per-round trace columns, by name
    trace = SimpleNamespace(
        prev_state=prev.astype(np.int8),
        provider_obs_g=obs_g[rows, prev], provider_coop=x_coop[rows, prev],
        collector_obs_g=col_obs_g[rows, prev],
        collector_coop=y_coop[rows, prev],
        u_p=payoff.u_p[realized], u_c=payoff.u_c[realized],
    )
    return result, trace


def assert_bit_equal(got, want):
    """got's attribute of each name in want (a dataclass's fields or a
    namespace's columns) has want's dtype, shape and bytes."""
    names = [f.name for f in fields(want)] if is_dataclass(want) else vars(want)
    for name in names:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_matches_sequential(trace, config):
    rows = sequential_reference(config)
    states = [int(config.initial_state)] + [r[0] for r in rows[:-1]]
    np.testing.assert_array_equal(trace.prev_state, states)
    for k, name in enumerate(("provider_obs_g", "provider_coop",
                              "collector_obs_g", "collector_coop"), start=1):
        np.testing.assert_array_equal(getattr(trace, name),
                                      [r[k] for r in rows], err_msg=name)
    np.testing.assert_array_equal(trace.u_p, [r[5] for r in rows])
    np.testing.assert_array_equal(trace.u_c, [r[6] for r in rows])


_rng = np.random.default_rng(2024)
EDGE_PLAYS = {
    "never-merge": ((1, 0, 1, 0), (1, 0)),  # the four start states stay apart
    "all-C": ((1, 1, 1, 1), (1, 1)),
    "all-D": ((0, 0, 0, 0), (0, 0)),
} | {f"random{k}": (tuple(_rng.uniform(0, 1, 4)), tuple(_rng.uniform(0, 1, 2)))
     for k in range(2)}


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 7 rounds folded in chunks of 3: every run below crosses
    block edges, chunk edges and a padded final chunk."""
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    monkeypatch.setattr(simulate, "_CHUNK", 3)


@pytest.mark.parametrize("rounds", [1, 2, 3, 4, 6, 7, 8, 21, 22, 1000])
@pytest.mark.parametrize("play", EDGE_PLAYS.values(), ids=EDGE_PLAYS.keys())
def test_chunked_fold_matches_reference_across_edges(small_blocks, base_params,
                                                     rounds, play):
    p, q = ProviderStrategy(*play[0]), CollectorStrategy(*play[1])
    for initial in StateIndex:
        for burn_in in sorted({0, rounds // 3}):
            config = SimConfig(params=base_params, p=p, q=q, rounds=rounds,
                               seed=rounds + 10 * initial, burn_in=burn_in,
                               initial_state=initial)
            result, trace = play_rounds(config, collect_trace=True)
            want_result, want_trace = reference_play_rounds(config)
            assert_bit_equal(result, want_result)
            assert_bit_equal(trace, want_trace)
            assert_bit_equal(play_rounds(config), want_result)
            assert_matches_sequential(trace, config)


@pytest.mark.parametrize("initial", list(StateIndex))
def test_chunked_fold_matches_reference_at_noise_extremes(small_blocks,
                                                         initial):
    # e1 = 1: a defection is always seen as b; e2 just under 1: almost
    # always seen as g
    params = GameParams(5, 5, 2, 2, 3, 3, 1.0, 1 - 1e-12)
    config = SimConfig(params=params, p=ProviderStrategy(0.3, 0.6, 0.2, 0.9),
                       q=CollectorStrategy(0.4, 0.7), rounds=500, seed=6,
                       burn_in=50, initial_state=initial)
    result, trace = play_rounds(config, collect_trace=True)
    want_result, want_trace = reference_play_rounds(config)
    assert_bit_equal(result, want_result)
    assert_bit_equal(trace, want_trace)
    assert_matches_sequential(trace, config)


def test_default_blocks_match_reference(base_params):
    # 200,001 rounds: three full blocks, then a partial block whose last
    # chunk is padded
    config = SimConfig(params=base_params, p=ProviderStrategy(1, 0, 1, 0),
                       q=CollectorStrategy(1, 0), rounds=200_001, seed=11,
                       burn_in=999, initial_state=StateIndex.CD)
    result, trace = play_rounds(config, collect_trace=True)
    want_result, want_trace = reference_play_rounds(config)
    assert_bit_equal(result, want_result)
    assert_bit_equal(trace, want_trace)


@pytest.mark.parametrize("rounds", [10**12, MAX_ROUNDS + 1])
def test_rounds_above_ceiling_refused_before_allocating(base_params, rounds):
    p, q = ProviderStrategy(0.5, 0.5, 0.5, 0.5), CollectorStrategy(0.5, 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError,
                           match=rf"^rounds must be in \[1, {MAX_ROUNDS}\], "
                                 rf"got {rounds}$"):
            SimConfig(params=base_params, p=p, q=q, rounds=rounds, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    SimConfig(params=base_params, p=p, q=q, rounds=MAX_ROUNDS, seed=1)


def test_zero_standard_errors_give_infinite_z(base_params):
    p, q = ProviderStrategy(0.6, 0.5, 0.4, 0.3), CollectorStrategy(0.5, 0.5)
    analytic = expected_payoffs(p, q, base_params)
    result = SimResult(state_frequencies=np.array([1.0, 0.0, 0.0, 0.0]),
                       s_p=analytic.s_p + 1, s_c=analytic.s_c - 1,
                       se_s_p=0.0, se_s_c=0.0, se_frequencies=np.zeros(4),
                       rounds_used=100)
    report = compare_to_analytic(result, p, q, base_params)
    assert report.z_frequencies.tolist() == [np.inf, -np.inf, -np.inf, -np.inf]
    assert (report.z_s_p, report.z_s_c) == (np.inf, -np.inf)
    assert report.max_abs_z == np.inf and report.flagged
    strict = plain(report, strict=True)
    assert strict["z_frequencies"] == [None] * 4
    assert strict["z_s_p"] is None and strict["max_abs_z"] is None
    # an infinite payoff mean with a NaN error has a NaN z
    overflow = replace(result, s_p=np.inf, se_s_p=np.nan)
    report = compare_to_analytic(overflow, p, q, base_params)
    assert np.isnan(report.z_s_p) and np.isnan(report.max_abs_z)
    assert report.flagged
    # a NaN difference over a zero error has no sign: its z is NaN
    nan_mean = replace(result, s_p=np.nan)
    report = compare_to_analytic(nan_mean, p, q, base_params)
    assert np.isnan(report.z_s_p) and report.z_s_c == -np.inf
    assert np.isnan(report.max_abs_z) and report.flagged


def test_payoffs_near_float_max_give_finite_averages(recwarn):
    # 1,000 payoffs near 1e308 overflow a plain sum; the averages are those
    # of the same chain with every payoff scaled down by 1e308
    p, q = ProviderStrategy(0.9, 0.78, 0.08, 0.1), CollectorStrategy(0.3, 0.7)
    huge = GameParams(1e308, 1e308, 2, 2, 3, 3, 0.3, 0.5)
    unit = GameParams(1, 1, 2e-300, 2e-300, 3e-300, 3e-300, 0.3, 0.5)
    big, small = (play_rounds(SimConfig(g, p, q, rounds=1000, seed=1))
                  for g in (huge, unit))
    assert not recwarn.list
    assert np.array_equal(big.state_frequencies, small.state_frequencies)
    for name in ("s_p", "s_c", "se_s_p", "se_s_c"):
        assert np.isfinite(getattr(big, name)), name
        assert getattr(big, name) == pytest.approx(
            1e308 * getattr(small, name), rel=1e-12), name
    assert big.se_s_p > 0


# --- the batch-means errors against the chain's exact CLT variance ---------

def clt_sigma(m, v, f):
    """Asymptotic sd of the mean of f(state) over a chain M with stationary
    vector v, from Kemeny & Snell's fundamental matrix Z = (I - M + 1v)^-1:
    sigma^2 = 2 v.(f~ o Z f~) - v.(f~ o f~), with f~ = f - v.f."""
    ft = f - v @ f
    z = np.linalg.inv(np.eye(4) - m + v)       # + v adds v to every row
    return np.sqrt(2 * v @ (ft * (z @ ft)) - v @ (ft * ft))


def test_standard_errors_match_the_exact_clt_variance(base_params):
    # 40 seeded chains at 2e5 rounds: every reported error over sigma/sqrt(n)
    # (s_p, s_c and the four frequencies).  Over seeds 0-8 of the chain draw
    # those 240 ratios had sd 0.065-0.077, range 0.778-1.235 and mean
    # 0.986-1.002 (100 batches alone give sd ~0.071); the band is 1 +- 6 x
    # 0.078, and a doubled or a halved error leaves it.
    payoff = build_payoffs(base_params)
    rng = np.random.default_rng(0)
    ratios = []
    for seed in range(40):
        p, q = rng.uniform(0.1, 0.9, 4), rng.uniform(0.1, 0.9, 2)
        m = build_transition_matrix(p, q, base_params)
        v = expected_payoffs(p, q, base_params).v
        result = play_rounds(SimConfig(base_params, ProviderStrategy(*p),
                                       CollectorStrategy(*q), rounds=200_000,
                                       seed=seed))
        for f, se in zip([payoff.u_p, payoff.u_c, *np.eye(4)],
                         [result.se_s_p, result.se_s_c,
                          *result.se_frequencies]):
            sigma = clt_sigma(m, v, f)
            # M has rank 2: autocovariances decay as lambda^(k-1) gamma_1
            ft = f - v @ f
            lam = np.trace(m) - 1
            assert sigma ** 2 == pytest.approx(
                v @ (ft * ft) + 2 * v @ (ft * (m @ ft)) / (1 - lam), rel=1e-9)
            ratios.append(se / (sigma / np.sqrt(result.rounds_used)))
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios - 1) < 6 * 0.078), (ratios.min(), ratios.max())
    assert abs(ratios.mean() - 1) < 0.05


# --- the byte functions, their composition and the statistics tail ----------

class StreamRng:
    """Stands in for np.random.default_rng: hands out the given uniforms."""

    def __init__(self, uniforms):
        self._uniforms = iter(uniforms)

    def random(self):
        return next(self._uniforms)


TIE_PLAYS = {
    "distinct": ((0.8, 0.4, 0.6, 0.2), (0.7, 0.3)),
    "shared": ((0.5, 0.5, 0.3, 0.3), (0.3, 0.5)),   # thresholds coincide
}


@pytest.mark.parametrize("play", TIE_PLAYS.values(), ids=TIE_PLAYS.keys())
def test_draw_code_ties_follow_sequential_rule(monkeypatch, base_params, play):
    # every uniform a round compares, set equal to each threshold and to its
    # two neighbours, from each previous state
    p, q = play
    config = SimConfig(params=base_params, p=ProviderStrategy(*p),
                       q=CollectorStrategy(*q), rounds=2, seed=0)
    ties = sorted({np.nextafter(t, to) for t in (base_params.e1, base_params.e2,
                                                 *p, *q)
                   for to in (0.0, t, 1.0)})
    other = [0.05, 0.95, 0.15, 0.85]
    quads = [[v] * 4 for v in ties] + [other[:c] + [v] + other[c + 1:]
                                       for v in ties for c in range(4)]
    codes = simulate._draw_codes(np.array(quads), config).tolist()
    step = simulate._tables()[0]
    top = np.nextafter(1.0, 0.0)
    for quad, code in zip(quads, codes):
        for k in StateIndex:
            # round 1 (fictitious g) moves into state k, round 2 draws quad
            steer = [0.0, 0.0 if k < 2 else top, 0.0, 0.0 if k % 2 == 0 else top]
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed: StreamRng(steer + quad))
            first, (state, obs_g, _, cobs_g, _, _, _) = \
                sequential_reference(config)
            assert first[0] == k
            assert step[code] >> 2 * k & 3 == state, (quad, k)
            assert (bool(code & 1) or k % 2 == 0) == obs_g, (quad, k)
            assert (bool(code & 2) or state < 2) == cobs_g, (quad, k)


def test_compose_table_applies_f_then_g():
    compose = simulate._tables()[1]
    assert compose.dtype == np.uint8 and compose.shape == (65536,)
    image = [[f >> 2 * s & 3 for s in range(4)] for f in range(256)]
    got = compose.tolist()
    for f in range(256):
        for g in range(256):
            byte = got[f * 256 + g]
            assert [byte >> 2 * s & 3 for s in range(4)] == \
                [image[g][image[f][s]] for s in range(4)], (f, g)
    identity = 0b11100100
    assert image[identity] == [0, 1, 2, 3]
    fs = np.arange(256)
    np.testing.assert_array_equal(compose[identity * 256 + fs], fs)
    np.testing.assert_array_equal(compose[fs * 256 + identity], fs)


@pytest.mark.parametrize("burn_in", [0, 37])
@pytest.mark.parametrize("n", [1, 2, 199, 200, 201, 12_345, 1_000_000])
def test_state_frequency_errors_match_indicator_series(n, burn_in):
    # state 3 never occurs: its count and error are 0
    realized = np.random.default_rng(n).choice(3, size=burn_in + n,
                                               p=[0.6, 0.3, 0.1])
    used = realized.astype(np.int8)[burn_in:]
    freq, se = simulate._state_frequencies(used)
    want_freq = np.bincount(used, minlength=4) / used.size
    want_se = np.array([_batch_se((used == k).astype(float))
                        for k in range(4)])
    assert freq.tobytes() == want_freq.tobytes()
    assert se.tobytes() == want_se.tobytes()


@pytest.mark.parametrize("rounds, burn_in", [(2, 0), (2, 1), (150, 0),
                                             (150, 49), (199, 0), (199, 99)])
def test_short_runs_report_the_iid_standard_error(base_params, rounds,
                                                  burn_in):
    # under 2 * BATCH_COUNT rounds there are no batches: every standard
    # error is that of i.i.d. draws, sqrt(sample variance / n)
    config = SimConfig(params=base_params, p=ProviderStrategy(0.8, 0.4, 0.6, 0.2),
                       q=CollectorStrategy(0.7, 0.3), rounds=rounds, seed=5,
                       burn_in=burn_in)
    result, trace = play_rounds(config, collect_trace=True)
    used = trace.states[1 + burn_in:].tolist()

    def iid_se(x):
        n = len(x)
        if n < 2:
            return 0.0
        mean = sum(x) / n
        return math.sqrt(sum((v - mean) ** 2 for v in x) / (n - 1) / n)
    want = [iid_se(trace.u_p[burn_in:].tolist()),
            iid_se(trace.u_c[burn_in:].tolist()),
            *(iid_se([float(s == k) for s in used]) for k in range(4))]
    got = [result.se_s_p, result.se_s_c, *result.se_frequencies.tolist()]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_peak_memory_per_round(base_params, tmp_path):
    config = SimConfig(params=base_params, p=ProviderStrategy(0.8, 0.4, 0.6, 0.2),
                       q=CollectorStrategy(0.7, 0.3), rounds=1_000_000, seed=1,
                       burn_in=1000)
    simulate._tables()          # built once per process
    tracemalloc.start()
    try:
        play_rounds(config)
        bare = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result, trace = play_rounds(config, collect_trace=True)
        with open(tmp_path / "trace.csv", "wb") as out:
            trace.to_csv(out)
        del result, trace
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bare < 12 * config.rounds
    assert traced < 29 * config.rounds


def test_traced_peak_memory_per_round(base_params, tmp_path):
    # a trace keeps the run's state bytes and two observation columns:
    # ~12 B per round at 1e6 rounds with its CSV written to a file (~25 B
    # when it stored all seven columns); 16 B leaves ~30% headroom
    config = SimConfig(params=base_params, p=ProviderStrategy(0.8, 0.4, 0.6, 0.2),
                       q=CollectorStrategy(0.7, 0.3), rounds=1_000_000, seed=2)
    simulate._tables()          # built once per process
    tracemalloc.start()
    try:
        result, trace = play_rounds(config, collect_trace=True)
        with open(tmp_path / "trace.csv", "wb") as out:
            trace.to_csv(out)
        del result, trace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * config.rounds
