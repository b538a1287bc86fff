import io

import numpy as np
import pytest

from zdtrade import GameParams


@pytest.fixture
def base_params():
    """Baseline parameter set used throughout: C=5/2/3, e1=0.3, e2=0.5."""
    return GameParams(5, 5, 2, 2, 3, 3, 0.3, 0.5)


@pytest.fixture
def family_small():
    def make(e1, e2):
        return GameParams(5, 5, 2, 2, 3, 3, e1, e2)
    return make


@pytest.fixture
def family_large():
    def make(e1, e2):
        return GameParams(10, 10, 2, 2, 5, 5, e1, e2)
    return make


def csv_of(artifact) -> str:
    """The CSV text that `artifact.to_csv` writes into a binary file."""
    out = io.BytesIO()
    artifact.to_csv(out)
    return out.getvalue().decode()


def power_stationary(m, iters=500_000, tol=1e-15):
    """Independent stationary oracle: plain power iteration to a fixed point."""
    v = np.full(4, 0.25)
    for _ in range(iters):
        nv = v @ m
        if np.max(np.abs(nv - v)) < tol:
            v = nv
            break
        v = nv
    return v / v.sum()


def reference_matrix(p, q, e1, e2):
    """Transition matrix written out entry by entry, as an independent
    cross-check against the composed factor implementation."""
    p1, p2, p3, p4 = p
    q1, q2 = q
    s = (1 - e1) * q1 + e1 * q2
    t = (1 - e1) * (1 - q1) + e1 * (1 - q2)
    return np.array([
        [p1 * q1, p1 * (1 - q1), (1 - p1) * s, (1 - p1) * t],
        [(e2 * p1 + (1 - e2) * p2) * q1,
         (e2 * p1 + (1 - e2) * p2) * (1 - q1),
         (e2 * (1 - p1) + (1 - e2) * (1 - p2)) * s,
         (e2 * (1 - p1) + (1 - e2) * (1 - p2)) * t],
        [p3 * q1, p3 * (1 - q1), (1 - p3) * s, (1 - p3) * t],
        [(e2 * p3 + (1 - e2) * p4) * q1,
         (e2 * p3 + (1 - e2) * p4) * (1 - q1),
         (e2 * (1 - p3) + (1 - e2) * (1 - p4)) * s,
         (e2 * (1 - p3) + (1 - e2) * (1 - p4)) * t],
    ])


def reference_irreducible_payoffs(p, qs, params):
    """The stacked (n, 4) evaluation of the closed-form cofactors that the
    batched engine must reproduce bit for bit: the G stack, the cofactor
    stack, w.sum(axis=1), w / total and vs @ u.  Returns (reducible, s_p,
    s_c) as `markov.irreducible_payoffs` does."""
    from zdtrade import build_payoffs
    p1, p2, p3, p4 = np.asarray(p, dtype=float)
    e1, e2 = params.e1, params.e2
    a = (p1, e2 * p1 + (1 - e2) * p2, p3, e2 * p3 + (1 - e2) * p4)
    q1, q2 = qs[:, 0], qs[:, 1]
    g = np.stack([q1, 1 - q1, (1 - e1) * q1 + e1 * q2,
                  (1 - e1) * (1 - q1) + e1 * (1 - q2)], axis=1)
    q1, s = g[:, 0], g[:, 2]
    cc = q1 * a[0] + (1 - q1) * a[1]
    dc = s * a[2] + (1 - s) * a[3]
    w = np.stack([dc * q1, dc * (1 - q1), (1 - cc) * s, (1 - cc) * (1 - s)],
                 axis=1)
    total = w.sum(axis=1, keepdims=True)
    reducible = total[:, 0] < 1e-9
    vs = w[~reducible] / total[~reducible]
    pv = build_payoffs(params)
    return reducible, vs @ pv.u_p, vs @ pv.u_c


def reference_verification(sol, params, ext, trials, seed, pass_size):
    """The allocate-per-pass verification loop that `verify_extortion_relation`
    must reproduce bit for bit: every pass draws a fresh (k, 2) array, runs
    the stacked `reference_irreducible_payoffs` and builds a fresh residual.
    Returns a VerificationReport."""
    from zdtrade.extortion import VerificationReport
    rng = np.random.default_rng(seed)
    max_residual, discarded, remaining = 0.0, 0, trials
    while remaining > 0:
        qs = rng.random((min(remaining, pass_size), 2))
        bad, s_p, s_c = reference_irreducible_payoffs(sol.strategy.vector, qs,
                                                      params)
        discarded += int(bad.sum())
        residual = np.abs((s_p - ext.l1) - ext.chi * (s_c - ext.l2))
        max_residual = float(np.max(residual, initial=max_residual))
        remaining -= s_p.size
    return VerificationReport(trials, max_residual, discarded)


def reference_solve_cells(p1, p4, u_c, a, b, d1, e2):
    """The pinning kernel written with a fresh array per step and np.where
    for the corner and the clamp: `pinning._solve_cells` must reproduce its
    (p2, p3, pinned, feasible, reason code) bit for bit."""
    from zdtrade.payoffs import BOUNDARY_TOL
    p2 = ((u_c[1] - u_c[3] + e2 * (u_c[2] - u_c[0])) * p1
          + (u_c[0] - u_c[1]) * (1 + p4)) / d1
    p3 = ((u_c[3] - u_c[2]) * (1 - p1)
          + (u_c[0] - u_c[2]) * (1 - e2) * p4) / d1
    p2_ok = (p2 >= -BOUNDARY_TOL) & (p2 <= 1 + BOUNDARY_TOL)
    p3_ok = (p3 >= -BOUNDARY_TOL) & (p3 <= 1 + BOUNDARY_TOL)
    corner = (p1 == 1.0) & (p4 == 0.0)
    feasible = p2_ok & p3_ok & ~corner
    code = np.where(corner, 4, ~p2_ok + 2 * ~p3_ok).astype(np.int8)
    with np.errstate(invalid="ignore", divide="ignore"):
        pinned = (a * (1 - p1) + b * p4) / (1 - p1 + p4)
    pinned = np.where(corner, np.nan, pinned)
    p2 = np.where(feasible, np.clip(p2, 0.0, 1.0) + 0.0, p2)
    p3 = np.where(feasible, np.clip(p3, 0.0, 1.0) + 0.0, p3)
    return p2, p3, pinned, feasible, code
