"""Exact checks of the paper's identities in rational arithmetic, with the
collector's strategy (q1, q2) left symbolic, so each holds for every
opponent rather than for sampled ones."""

import numpy as np
import sympy as sp

from zdtrade import (ExtortionParams, GameParams, build_extortion_strategy,
                     build_payoffs, solve_pinning, zd_columns)

from conftest import reference_matrix

R = sp.Rational
E1, E2 = R(3, 10), R(1, 2)
C_P, C_P1, C_P2 = 5, 2, 3          # the provider's side of 5/5/2/2/3/3
C_C, C_C1, C_C2 = 5, 2, 3          # the collector's side
Q1, Q2 = sp.symbols("q1 q2")


def exact_u_p():
    """u_p of the test game, written out from `payoff_arrays`' formulas."""
    return [C_P, C_P - C_P1 + (1 - E2) * C_P2, (1 - E1) * C_P,
            (1 - E1) * C_P - (1 - E1) * C_P1 + (1 - E2) * C_P2]


def exact_u_c():
    """u_c of the test game, written out from `payoff_arrays`' formulas."""
    return [C_C, C_C + C_C1 - (1 - E2) * C_C2, (1 - E1) * C_C,
            (1 - E1) * C_C + (1 - E1) * C_C1 - (1 - E2) * C_C2]


def exact_pinning(p1, p4, u_c):
    """p2, p3 from `solve_pinning`'s formulas, in rationals."""
    d1 = u_c[0] - u_c[3] - E2 * (u_c[0] - u_c[2])
    p2 = ((u_c[1] - u_c[3] + E2 * (u_c[2] - u_c[0])) * p1
          + (u_c[0] - u_c[1]) * (1 + p4)) / d1
    p3 = ((u_c[3] - u_c[2]) * (1 - p1) + (u_c[0] - u_c[2]) * (1 - E2) * p4) / d1
    return p2, p3


def cofactor_stationary(p):
    """(v, M): v_i the i-th diagonal 3x3 minor of I - M, which the Markov
    chain tree theorem makes proportional to the stationary vector."""
    m = sp.Matrix(reference_matrix(p, (Q1, Q2), E1, E2).tolist())
    a = sp.eye(4) - m
    return [a.minor_submatrix(i, i).det() for i in range(4)], m


def test_pinning_and_determinant_identity_hold_for_every_collector():
    params = GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)
    u_c = exact_u_c()
    np.testing.assert_allclose(build_payoffs(params).u_c,
                               [float(x) for x in u_c], rtol=0, atol=1e-15)
    p1, p4 = R(9, 10), R(1, 10)
    p2, p3 = exact_pinning(p1, p4, u_c)
    sol = solve_pinning(0.9, 0.1, params)
    assert abs(sol.p2 - float(p2)) <= 1e-15 and abs(sol.p3 - float(p3)) <= 1e-15

    v, m = cofactor_stationary((p1, p2, p3, p4))
    s_c = sp.cancel(sum(vi * ui for vi, ui in zip(v, u_c)) / sum(v))
    assert s_c == R(83, 20) and not s_c.free_symbols
    assert abs(float(s_c) - sol.pinned_s_c) <= 1e-12

    # v . f = -det[c1, p_hat, q_hat, f] as polynomials in q1, q2 and f
    f = sp.symbols("f1:5")
    s = (1 - E1) * Q1 + E1 * Q2
    c1 = m[:, 0] - sp.Matrix([1, 0, 0, 0])
    p_hat = sp.Matrix([p1 - 1, E2 * p1 + (1 - E2) * p2 - 1, p3,
                       E2 * p3 + (1 - E2) * p4])
    q_hat = sp.Matrix([0, 0, s - 1, s])
    det = sp.Matrix.hstack(c1, p_hat, q_hat, sp.Matrix(f)).det()
    assert sp.expand(sum(vi * fi for vi, fi in zip(v, f)) + det) == 0

    # the library's float columns are these columns at a sample opponent
    at = {Q1: R(3, 10), Q2: R(7, 10)}
    cols = zd_columns(sol.strategy, (0.3, 0.7), params)
    for exact, got in ((c1, cols.first_col), (p_hat, cols.p_hat),
                       (q_hat, cols.q_hat)):
        np.testing.assert_allclose(got, [float(x.subs(at)) for x in exact],
                                   rtol=0, atol=1e-15)


def test_extortion_relation_holds_for_every_collector():
    # the extort-verify inputs: l1 = 1, l2 = 2, chi = 3/2, phi = 1/6
    l1, l2, chi, phi = 1, 2, R(3, 2), R(1, 6)
    u_p, u_c = exact_u_p(), exact_u_c()
    x = [(up - l1) - chi * (uc - l2) for up, uc in zip(u_p, u_c)]
    p1 = phi * x[0] + 1                     # build_extortion_strategy's rows
    p2 = (phi * x[1] + 1 - E2 * p1) / (1 - E2)
    p3 = phi * x[2]
    p4 = (phi * x[3] - E2 * p3) / (1 - E2)
    assert (p1, p2, p3, p4) == (R(11, 12), R(1, 2), R(1, 24), R(1, 8))

    v, _ = cofactor_stationary((p1, p2, p3, p4))
    dot = lambda u: sum(vi * ui for vi, ui in zip(v, u))  # noqa: E731
    assert sp.expand((dot(u_p) - l1 * sum(v))
                     - chi * (dot(u_c) - l2 * sum(v))) == 0

    sol = build_extortion_strategy(GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5),
                                   ExtortionParams(1.0, 2.0, 1.5, 1 / 6))
    np.testing.assert_allclose(sol.p, [float(p1), float(p2), float(p3),
                                       float(p4)], rtol=0, atol=1e-15)
