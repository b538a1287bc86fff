import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdtrade import (CollectorStrategy, GameParams, InvalidParameterError,
                     NonUniqueStationaryError, ProviderStrategy,
                     build_payoffs, build_transition_matrices,
                     build_transition_matrix, collector_zd_column,
                     expected_payoffs, expected_payoffs_many,
                     provider_zd_column, reducible_mask,
                     stationary_distribution, stationary_distributions,
                     zd_columns, zd_determinant)

from zdtrade.markov import (REDUCIBLE_TOL, _REST, _cofactors, _minor3,
                            _reducible, irreducible_payoffs)

from conftest import (power_stationary, reference_irreducible_payoffs,
                      reference_matrix)


# --- matrix construction ---------------------------------------------------

# the factor formulas' edge noise levels (no mask, exact and inverted data
# noise) as (e1, e2), then 200 random pairs
EDGE_NOISE = [(0.0, 0.0), (1.0, 0.0), (0.25, 0.0), (0.0, 0.37), (1.0, 0.9)]


def test_matrix_matches_independent_entries():
    rng = np.random.default_rng(21)
    noise = EDGE_NOISE + [tuple(rng.random(2)) for _ in range(200)]
    for e1, e2 in noise:
        p = rng.random(4)
        q = rng.random(2)
        params = GameParams(5, 5, 2, 2, 3, 3, e1, e2)
        m = build_transition_matrix(p, q, params)
        np.testing.assert_allclose(m, reference_matrix(p, q, e1, e2), atol=1e-15)
        # the batched kernel must reproduce the entry-by-entry arithmetic
        # exactly: artifacts print full reprs of its results
        np.testing.assert_array_equal(build_transition_matrices(p, q[None], params)[0],
                                      reference_matrix(p, q, e1, e2))


def test_all_cooperate_absorbs_into_cc(base_params):
    m = build_transition_matrix((1, 1, 1, 1), (1, 1), base_params)
    np.testing.assert_array_equal(m, np.tile([1.0, 0, 0, 0], (4, 1)))


def test_all_defect_no_noise_absorbs_into_dd():
    params = GameParams(5, 5, 2, 2, 3, 3, 0.0, 0.0)
    m = build_transition_matrix((0, 0, 0, 0), (0, 0), params)
    np.testing.assert_array_equal(m, np.tile([0.0, 0, 0, 1.0], (4, 1)))


def test_mixed_matrix_cell_and_row_sums(base_params):
    p = (0.9, 0.78235, 0.07647, 0.1)
    q = (0.3, 0.7)
    m = build_transition_matrix(p, q, base_params)
    assert m[0, 0] == pytest.approx(0.9 * 0.3, abs=1e-15)
    np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_row_stochastic_random_sweep():
    # 1e5 random (p, q, e1, e2): rows sum to 1 within 1e-12, entries in [0,1]
    rng = np.random.default_rng(22)
    for _ in range(1000):
        p = rng.random(4)
        e1, e2 = rng.random(2)
        params = GameParams(5, 5, 2, 2, 3, 3, e1, e2)
        ms = build_transition_matrices(p, rng.random((100, 2)), params)
        assert ms.min() >= 0.0 and ms.max() <= 1.0
        np.testing.assert_allclose(ms.sum(axis=2), 1.0, rtol=0, atol=1e-12)


def test_batch_matches_scalar_builder(base_params):
    rng = np.random.default_rng(23)
    p = rng.random(4)
    qs = rng.random((50, 2))
    ms = build_transition_matrices(p, qs, base_params)
    for k in range(50):
        np.testing.assert_allclose(ms[k], build_transition_matrix(p, qs[k], base_params),
                                   atol=1e-15)


def test_noiseless_degeneracy_matches_separate_builder():
    # with e1 = e2 = 0 the game is the plain sequential one: the provider
    # reacts to the true previous outcome (p2/p4 on rows CD/DD) and the
    # collector to the true current action (q1 on columns DC/DD via 1-q1).
    def noiseless(p, q):
        p1, p2, p3, p4 = p
        q1, _ = q
        rows = []
        for coop in (p1, p2, p3, p4):
            rows.append([coop * q1, coop * (1 - q1),
                         (1 - coop) * q1, (1 - coop) * (1 - q1)])
        return np.array(rows)

    rng = np.random.default_rng(24)
    params = GameParams(5, 5, 2, 2, 3, 3, 0.0, 0.0)
    for _ in range(100):
        p, q = rng.random(4), rng.random(2)
        np.testing.assert_allclose(build_transition_matrix(p, q, params),
                                   noiseless(p, q), atol=1e-15)


def test_swap_q_with_full_noise_equals_no_noise_in_mixture_columns():
    # the observation mixture (1-e1) q1 + e1 q2 is symmetric under
    # swapping q1/q2 together with e1 -> 1-e1; that symmetry lives in the
    # defecting-provider columns DC/DD (CC/CD read q1 directly and are
    # deliberately excluded)
    rng = np.random.default_rng(25)
    for _ in range(100):
        p, q = rng.random(4), rng.random(2)
        m_zero = build_transition_matrix(p, q, GameParams(5, 5, 2, 2, 3, 3, 0.0, 0.4))
        m_swap = build_transition_matrix(p, q[::-1],
                                         GameParams(5, 5, 2, 2, 3, 3, 1.0, 0.4))
        np.testing.assert_allclose(m_zero[:, 2:], m_swap[:, 2:], atol=1e-15)


# --- stationary distribution ----------------------------------------------

def test_stationary_all_cooperate(base_params):
    m = build_transition_matrix((1, 1, 1, 1), (1, 1), base_params)
    np.testing.assert_allclose(stationary_distribution(m), [1, 0, 0, 0],
                               atol=1e-14)


def test_stationary_uniform_for_doubly_stochastic():
    m = np.full((4, 4), 0.25)
    np.testing.assert_allclose(stationary_distribution(m), np.full(4, 0.25),
                               atol=1e-14)


def test_stationary_matches_power_iteration(base_params):
    m = build_transition_matrix((0.9, 0.78235, 0.07647, 0.1), (0.3, 0.7), base_params)
    v = stationary_distribution(m)
    assert np.max(np.abs(v @ m - v)) < 1e-10
    assert abs(v.sum() - 1) < 1e-10 and v.min() >= 0
    np.testing.assert_allclose(v, power_stationary(m), atol=1e-10)


def test_stationary_reducible_raises():
    # CC and DD both absorbing: q1 = 1 keeps CC, and with e1 = 1 the
    # defecting provider is always seen as defecting, so q2 = 0 keeps DD.
    params = GameParams(5, 5, 2, 2, 3, 3, 1.0, 0.5)
    m = build_transition_matrix((1, 1, 0, 0), (1, 0), params)
    with pytest.raises(NonUniqueStationaryError):
        stationary_distribution(m)
    with pytest.raises(NonUniqueStationaryError):
        stationary_distributions(m[None])


def test_stationary_input_validation():
    with pytest.raises(InvalidParameterError):
        stationary_distribution(np.eye(3))
    bad = np.full((4, 4), 0.3)
    with pytest.raises(InvalidParameterError):
        stationary_distribution(bad)
    nan_entry = np.full((4, 4), 0.25)
    nan_entry[1, 2] = np.nan
    with pytest.raises(InvalidParameterError):
        stationary_distribution(nan_entry)


def stack_with_last(bad):
    """Two valid chains followed by `bad`."""
    good = build_transition_matrix((0.6, 0.4, 0.5, 0.3), (0.3, 0.7),
                                   GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5))
    return np.stack([good, good, bad])


def with_entry(value, row=1, col=2):
    m = np.full((4, 4), 0.25)
    m[row, col] = value
    return m


@pytest.mark.parametrize("ms, message", [
    (stack_with_last(with_entry(np.nan)), "must be finite and lie in"),
    (stack_with_last(with_entry(np.inf)), "must be finite and lie in"),
    (stack_with_last(with_entry(-np.inf)), "must be finite and lie in"),
    (stack_with_last(np.full((4, 4), 0.3)), "rows must sum to 1"),
    (stack_with_last(with_entry(0.26)), "rows must sum to 1"),
    (np.full((2, 3, 3), 1 / 3), "must be 4x4"),
    (np.full((4, 4), 0.25), "must be 4x4"),
    (np.full((1, 1, 4, 4), 0.25), "must be 4x4"),
])
def test_stationary_distributions_validates_every_matrix(ms, message):
    with pytest.raises(InvalidParameterError, match=message):
        stationary_distributions(ms)
    if ms.shape[1:] == (4, 4):   # the scalar call gives the same message
        with pytest.raises(InvalidParameterError, match=message):
            stationary_distribution(ms[-1])


# --- the one-pass engine ------------------------------------------------------

CORNER_OR_INTERIOR = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))


def assert_engine_matches_mask_filter_and_solve(p, qs, params):
    """`irreducible_payoffs` against reducible_mask and the cofactor test of
    the built stack (the same verdicts), a solve of the kept chains (within
    the 1e-12 of the tree identities: the engine is a closed form, not the
    solve) and bit for bit against the strict call."""
    reducible, s_p, s_c = irreducible_payoffs(p, qs, params)
    mask = reducible_mask(p, qs, params)
    ms = build_transition_matrices(p, qs, params)
    assert reducible.dtype == bool and np.array_equal(reducible, mask)
    assert np.array_equal(mask, _reducible(ms))
    vs = stationary_distributions(ms[~mask])
    pv = build_payoffs(params)
    want_p, want_c = vs @ pv.u_p, vs @ pv.u_c
    assert s_p.shape == want_p.shape == (int((~mask).sum()),)
    assert np.max(np.abs(s_p - want_p), initial=0.0) <= 1e-12
    assert np.max(np.abs(s_c - want_c), initial=0.0) <= 1e-12
    strict_p, strict_c = expected_payoffs_many(p, qs[~mask], params)
    assert strict_p.tobytes() == s_p.tobytes()
    assert strict_c.tobytes() == s_c.tobytes()
    return reducible


def test_engine_on_mixed_batches(base_params):
    rng = np.random.default_rng(32)
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=2)))
    qs = np.concatenate([corners, rng.random((60, 2)), corners])[
        rng.permutation(68)]
    interior = (0.9166666666666666, 0.5, 0.041666666666666664, 0.125)
    flagged = {p: assert_engine_matches_mask_filter_and_solve(
        p, qs, base_params).sum() for p in
        [interior, (1.0, 0.5, 0.0, 0.5), (1.0, 1.0, 0.0, 0.0)]}
    # none, some (the q = (1, 1) draws: CC and DC absorb) and all flagged
    assert flagged == {interior: 0, (1.0, 0.5, 0.0, 0.5): 2,
                       (1.0, 1.0, 0.0, 0.0): 68}
    with pytest.raises(NonUniqueStationaryError, match="reducible at tolerance"):
        expected_payoffs_many((1.0, 0.5, 0.0, 0.5), qs, base_params)


@settings(max_examples=100, deadline=None)
@given(p=st.tuples(*[CORNER_OR_INTERIOR] * 4),
       qs=st.lists(st.tuples(CORNER_OR_INTERIOR, CORNER_OR_INTERIOR),
                   min_size=1, max_size=32).map(np.array),
       noise=st.tuples(CORNER_OR_INTERIOR, CORNER_OR_INTERIOR))
def test_engine_matches_mask_filter_and_solve(p, qs, noise):
    assert_engine_matches_mask_filter_and_solve(
        p, qs, GameParams(5, 5, 2, 2, 3, 3, *noise))


# --- reducibility and the Markov chain tree theorem -------------------------

def third_singular_value(ms):
    return np.linalg.svd(ms - np.eye(4), compute_uv=False)[:, 2]


def reference_reducible(ms):
    """The singular-value test the cofactor test replaced: the two smallest
    singular values of M - I both below REDUCIBLE_TOL."""
    return third_singular_value(ms) < REDUCIBLE_TOL


def diagonal_cofactors(ms):
    a = np.eye(4) - ms
    return np.stack([_minor3(a, rest, rest) for rest in _REST], axis=-1)


def chain_stack(draws):
    """Transition matrices of (p1..p4, q1, q2, e1, e2) draws."""
    return np.array([build_transition_matrix(
        d[:4], d[4:6], GameParams(5, 5, 2, 2, 3, 3, *d[6:])) for d in draws])


EPS = st.floats(-14, -2).map(lambda k: 10.0 ** k)
INTERIOR = st.floats(0.05, 0.95)
NEAR_CORNER = st.one_of(st.sampled_from([0.0, 1.0]), EPS,
                        EPS.map(lambda e: 1.0 - e), INTERIOR)


def chains(values):
    return st.lists(st.tuples(*[values] * 8), min_size=1,
                    max_size=64).map(chain_stack)


def test_cofactor_reducibility_matches_svd_at_exact_corners():
    ms = chain_stack(itertools.product([0.0, 1.0], repeat=8))
    flagged = _reducible(ms)
    assert np.array_equal(flagged, reference_reducible(ms))
    assert flagged.any() and not flagged.all()


@settings(max_examples=100, deadline=None)
@given(ms=chains(INTERIOR))
def test_cofactor_reducibility_matches_svd_on_interior_chains(ms):
    assert np.array_equal(_reducible(ms), reference_reducible(ms))


@settings(max_examples=100, deadline=None)
@given(ms=chains(NEAR_CORNER))
def test_cofactor_reducibility_matches_svd_outside_the_tolerance_band(ms):
    # near a reducible chain the cofactor sum stays within 0.5x-1.5x of the
    # third singular value, so the tests may disagree only where both are ~1e-9
    s = third_singular_value(ms)
    clear = (s < REDUCIBLE_TOL / 2) | (s > 2 * REDUCIBLE_TOL)
    assert np.array_equal(_reducible(ms)[clear], reference_reducible(ms)[clear])


@settings(max_examples=100, deadline=None)
@given(ms=chains(INTERIOR))
def test_markov_chain_tree_identities(ms):
    v = stationary_distributions(ms)
    cof = diagonal_cofactors(ms)
    total = cof.sum(axis=1)
    assert np.max(np.abs(v - cof / total[:, None])) <= 1e-12
    assert np.max(np.abs(v.sum(axis=1) - 1)) <= 1e-12
    assert np.max(np.abs(np.einsum("ki,kij->kj", v, ms) - v)) <= 1e-12
    eig = np.linalg.eigvals(np.eye(4) - ms)
    eig = np.take_along_axis(eig, np.argsort(np.abs(eig), axis=1), axis=1)
    nonzero = np.prod(eig[:, 1:], axis=1)
    assert np.max(np.abs(nonzero.imag) / total) <= 1e-12
    assert np.max(np.abs(nonzero.real - total) / total) <= 1e-12


# --- the closed form ----------------------------------------------------------

def rank_two_terms(p, q, e1, e2):
    """(w, cc, dc): the closed-form cofactors dc g_C + (1 - cc) g_D and the
    two mixing weights, written out from the factor formulas; exact when the
    inputs are Fractions."""
    p1, p2, p3, p4 = p
    q1, q2 = q
    a = (p1, e2 * p1 + (1 - e2) * p2, p3, e2 * p3 + (1 - e2) * p4)
    s = (1 - e1) * q1 + e1 * q2
    cc = q1 * a[0] + (1 - q1) * a[1]
    dc = s * a[2] + (1 - s) * a[3]
    return (dc * q1, dc * (1 - q1), (1 - cc) * s, (1 - cc) * (1 - s)), cc, dc


def opponent_batches(values):
    return dict(p=st.tuples(*[values] * 4),
                qs=st.lists(st.tuples(values, values), min_size=1,
                            max_size=64).map(np.array),
                noise=st.tuples(values, values))


@settings(max_examples=60, deadline=None)
@given(**opponent_batches(NEAR_CORNER))
def test_closed_form_cofactors_are_the_diagonal_cofactors(p, qs, noise):
    # I - M has entries in [-1, 1]: its cofactors to ~1e-15 of that scale
    # (measured: 4e-16 on 40,000 interior and near-corner draws)
    params = GameParams(5, 5, 2, 2, 3, 3, *noise)
    w = _cofactors(p, qs, params)
    cof = diagonal_cofactors(build_transition_matrices(p, qs, params))
    assert np.max(np.abs(w - cof)) <= 1e-15
    _, cc, dc = rank_two_terms(p, qs.T, *noise)
    assert np.max(np.abs(w.sum(axis=1) - (1 - cc + dc))) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(**opponent_batches(INTERIOR))
def test_closed_form_cofactors_relative_on_interior_chains(p, qs, noise):
    params = GameParams(5, 5, 2, 2, 3, 3, *noise)
    w = _cofactors(p, qs, params)
    cof = diagonal_cofactors(build_transition_matrices(p, qs, params))
    assert np.all(np.abs(w - cof).max(axis=1) <= 2e-15 * w.sum(axis=1))


def corners(rng, shape, share):
    """Uniform draws with about `share` of the entries set to 0 or 1."""
    x = rng.random(shape)
    return np.where(rng.random(shape) < share, rng.integers(0, 2, shape), x)


def test_engine_matches_stacked_evaluation_bit_for_bit():
    # the verification artifacts print full reprs of these values; 87,072
    # draws, 2,897 of them reducible
    rng = np.random.default_rng(8)
    reducible_seen = 0
    for case in range(60):
        n = int(rng.integers(1, 3000))
        noise, p, qs = (corners(rng, shape, share) for shape, share in
                        [(2, 0.5), (4, 0.6), ((n, 2), 0.3)])
        params = GameParams(*(rng.random(6) * 9 + 1), *noise)
        want = reference_irreducible_payoffs(p, qs, params)
        got = irreducible_payoffs(p, qs, params)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        assert np.array_equal(reducible_mask(p, qs, params), want[0])
        reducible_seen += int(want[0].sum())
    assert reducible_seen > 0


# Worst error of the batched payoffs against exact arithmetic, over the
# payoff scale max |u|: 1.6e-15 on 40,000 draws of the rational points below
# (the linear solve of `expected_payoffs`: 7.2e-16 on the same draws).
EXACT_PAYOFF_TOL = 4e-15


def test_engine_against_exact_payoffs_at_rational_points():
    rng = np.random.default_rng(33)
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=8)))
    dens = rng.integers(1, 65, (300, 8))
    draws = np.concatenate([rng.integers(0, dens + 1) / dens, corners[::7]])
    checked = 0
    for d in draws:
        params = GameParams(5, 5, 2, 2, 3, 3, *d[6:])
        pv = build_payoffs(params)
        x = [Fraction(t) for t in d]     # the exact values of the float inputs
        w, _, _ = rank_two_terms(x[:4], x[4:6], *x[6:])
        reducible, s_p, s_c = irreducible_payoffs(d[:4], d[None, 4:6], params)
        assert reducible[0] == (sum(w) == 0)   # no rational chain near 1e-9
        if reducible[0]:
            continue
        v = [wi / sum(w) for wi in w]
        m = reference_matrix(x[:4], x[4:6], *x[6:])
        assert list(np.array(v, dtype=object) @ m) == v   # stationary, exactly
        scale = max(np.abs(pv.u_p).max(), np.abs(pv.u_c).max())
        for got, u in ((s_p[0], pv.u_p), (s_c[0], pv.u_c)):
            exact = sum(vi * Fraction(ui) for vi, ui in zip(v, u.tolist()))
            assert abs(float(Fraction(got) - exact)) <= EXACT_PAYOFF_TOL * scale
        checked += 1
    assert checked >= 250


# --- determinant form ------------------------------------------------------

def test_zd_columns_depend_only_on_own_noise():
    rng = np.random.default_rng(26)
    p, q = rng.random(4), rng.random(2)
    assert np.array_equal(provider_zd_column(p, 0.4), provider_zd_column(p, 0.4))
    assert not np.array_equal(provider_zd_column(p, 0.4),
                              provider_zd_column(p, 0.5))
    assert np.array_equal(collector_zd_column(q, 0.3), collector_zd_column(q, 0.3))
    expected = np.array([p[0] - 1, 0.4 * p[0] + 0.6 * p[1] - 1, p[2],
                         0.4 * p[2] + 0.6 * p[3]])
    np.testing.assert_allclose(provider_zd_column(p, 0.4), expected, atol=1e-15)
    s = 0.7 * q[0] + 0.3 * q[1]
    np.testing.assert_allclose(collector_zd_column(q, 0.3),
                               [0, 0, s - 1, s], atol=1e-15)


def test_normalization_determinant_nonzero_for_mixing_chain(base_params):
    cols = zd_columns((0.6, 0.4, 0.5, 0.3), (0.3, 0.7), base_params)
    assert abs(zd_determinant(cols, np.ones(4))) > 1e-8


def test_determinant_ratio_equals_stationary_average():
    # 1000 random instances: D(f)/D(1) == v.f within 1e-9
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 1000:
        p = rng.uniform(0.05, 0.95, 4)
        q = rng.uniform(0.05, 0.95, 2)
        e1, e2 = rng.uniform(0, 0.9, 2)
        params = GameParams(5, 5, 2, 2, 3, 3, e1, e2)
        cols = zd_columns(p, q, params)
        d_norm = zd_determinant(cols, np.ones(4))
        if abs(d_norm) <= 1e-8:
            continue
        f = rng.uniform(-10, 10, 4)
        v = stationary_distribution(build_transition_matrix(p, q, params))
        assert zd_determinant(cols, f) / d_norm == pytest.approx(
            float(v @ f), abs=1e-9)
        checked += 1


def test_zd_determinant_is_the_4x4_determinant():
    rng = np.random.default_rng(28)
    for _ in range(200):
        params = GameParams(5, 5, 2, 2, 3, 3, *rng.uniform(0, 0.9, 2))
        cols = zd_columns(rng.random(4), rng.random(2), params)
        f = rng.uniform(-10, 10, 4)
        full = np.stack([cols.first_col, cols.p_hat, cols.q_hat, f], axis=1)
        assert zd_determinant(cols, f) == pytest.approx(np.linalg.det(full),
                                                        rel=1e-9, abs=1e-12)


def test_pinning_column_choice_zeroes_determinant(base_params):
    # setting the provider column to beta*u_c + gamma*1 kills the
    # determinant with f = beta*u_c + gamma*1, for every opponent strategy
    u_c = build_payoffs(base_params).u_c
    rng = np.random.default_rng(28)
    from zdtrade import solve_pinning
    sol = solve_pinning(0.9, 0.1, base_params)
    f_star = None
    for _ in range(50):
        q = rng.random(2)
        cols = zd_columns(sol.strategy, q, base_params)
        # p_hat must be a combination of u_c and ones; recover beta, gamma
        a = np.stack([u_c, np.ones(4)], axis=1)
        coef, *_ = np.linalg.lstsq(a, cols.p_hat, rcond=None)
        f_star = a @ coef
        np.testing.assert_allclose(cols.p_hat, f_star, atol=1e-12)
        assert zd_determinant(cols, f_star) == pytest.approx(0.0, abs=1e-12)


# --- expected payoffs -------------------------------------------------------

def test_expected_payoffs_all_cooperate(base_params):
    r = expected_payoffs((1, 1, 1, 1), (1, 1), base_params)
    assert r.s_p == pytest.approx(5.0, abs=1e-12)
    assert r.s_c == pytest.approx(5.0, abs=1e-12)


def test_expected_payoffs_rounded_pinning_strategy(base_params):
    # strategy entries rounded to ~5 digits still pin within 1e-4
    rng = np.random.default_rng(29)
    for _ in range(100):
        q = rng.random(2)
        r = expected_payoffs((0.9, 0.78235, 0.07647, 0.1), q, base_params)
        assert r.s_c == pytest.approx(4.15, abs=1e-4)


def test_expected_payoffs_inside_hull(base_params):
    pv = build_payoffs(base_params)
    rng = np.random.default_rng(30)
    for _ in range(200):
        r = expected_payoffs(rng.uniform(0.02, 0.98, 4),
                             rng.uniform(0.02, 0.98, 2), base_params)
        assert pv.u_p.min() - 1e-12 <= r.s_p <= pv.u_p.max() + 1e-12
        assert pv.u_c.min() - 1e-12 <= r.s_c <= pv.u_c.max() + 1e-12


def test_expected_payoffs_many_matches_scalar(base_params):
    rng = np.random.default_rng(31)
    p = rng.uniform(0.05, 0.95, 4)
    qs = rng.uniform(0.05, 0.95, (64, 2))
    sp, sc = expected_payoffs_many(p, qs, base_params)
    for k in range(64):
        r = expected_payoffs(p, qs[k], base_params)
        assert sp[k] == pytest.approx(r.s_p, abs=1e-12)
        assert sc[k] == pytest.approx(r.s_c, abs=1e-12)


# --- strategy types ---------------------------------------------------------

def test_strategy_validation(base_params):
    with pytest.raises(InvalidParameterError):
        ProviderStrategy(0.5, 1.2, 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        CollectorStrategy(-0.1, 0.5)
    with pytest.raises(InvalidParameterError):
        ProviderStrategy.from_vector([0.1, 0.2, 0.3])
    for qs in ([[1.2, 0.5]], [[np.nan, 0.5]], [[0.5, np.inf]]):
        with pytest.raises(InvalidParameterError):
            reducible_mask((0.5, 0.5, 0.5, 0.5), qs, base_params)
    with pytest.raises(InvalidParameterError, match="2 probabilities"):
        CollectorStrategy.from_vector([0.5])
    with pytest.raises(InvalidParameterError,
                       match=r"^qs must have shape \(n, 2\)$"):
        reducible_mask((0.5, 0.5, 0.5, 0.5), [0.5, 0.5], base_params)
    cols = zd_columns((0.5, 0.5, 0.5, 0.5), (0.5, 0.5), base_params)
    with pytest.raises(InvalidParameterError, match="4-vector"):
        zd_determinant(cols, [1, 2, 3])


@pytest.mark.parametrize("x, valid", [
    (np.nan, False), (np.inf, False), (-np.inf, False), (-0.0, True),
    (1.0, True), (np.nextafter(1.0, 2.0), False)])
def test_draw_check_verdicts(base_params, x, valid):
    for qs in ([[x, 0.5]], [[0.5, x]]):
        if valid:
            irreducible_payoffs((0.5, 0.5, 0.5, 0.5), qs, base_params)
            build_transition_matrices((0.5, 0.5, 0.5, 0.5), qs, base_params)
            continue
        for call in (irreducible_payoffs, build_transition_matrices):
            with pytest.raises(InvalidParameterError,
                               match=r"^collector strategies must be finite "
                                     r"and lie in \[0, 1\]$"):
                call((0.5, 0.5, 0.5, 0.5), qs, base_params)
