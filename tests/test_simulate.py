import numpy as np
import pytest

from zdtrade import (CollectorStrategy, GameParams, InvalidParameterError,
                     NonUniqueStationaryError, ProviderStrategy, SimConfig,
                     StateIndex, build_payoffs, build_transition_matrix,
                     compare_to_analytic, expected_payoffs, play_rounds,
                     solve_pinning)


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
    assert trace_a.to_csv() == trace_b.to_csv()
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
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("round,prev_state,provider_obs,provider_action,"
                        "collector_obs,collector_action,u_p,u_c")
    assert len(lines) == 1 + mixed_config.rounds
    assert lines[1].startswith("1,CC,g,")
    records = trace.records()
    first = next(records)
    assert first.round_index == 1
    assert first.prev_state == StateIndex.CC
    assert first.provider_observation == "g"
    payoff = build_payoffs(mixed_config.params)
    state = 2 * (first.provider_action == "D") + (first.collector_action == "D")
    assert first.provider_payoff == payoff.u_p[state]


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


def test_payoff_average_agrees_with_dot_product(mixed_config):
    # empirical mean payoff must equal freq . u exactly (same data)
    result = play_rounds(mixed_config)
    payoff = build_payoffs(mixed_config.params)
    assert result.s_p == pytest.approx(
        float(result.state_frequencies @ payoff.u_p), abs=1e-12)
    assert result.s_c == pytest.approx(
        float(result.state_frequencies @ payoff.u_c), abs=1e-12)
