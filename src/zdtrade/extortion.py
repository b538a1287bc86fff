"""Extortionate strategies: the provider enforces (s_p - l1) = chi (s_c - l2).

She sets her determinant column proportional to
phi [(u_p - l1) - chi (u_c - l2)], which ties the two long-run payoffs
together with slope chi regardless of the collector's play.  Feasibility
of the solved strategy depends on chi, phi and the payoff landscape:

* ratio bounds: the classical interval form, derived from the CC and DD
  rows alone,
      (u_p(CC)-l1)/(u_c(CC)-l2) <= chi <= (u_p(DD)-l1)/(u_c(DD)-l2)
  for phi > 0 (DC/CD in that order for phi < 0).  Necessary, not
  sufficient, and only meaningful while both denominators are positive;
* exact interval: intersecting all four per-row constraints, which is
  generally tighter and stays valid when a baseline exceeds a payoff
  entry and the ratios above flip sign.

`chi_bounds` reports the former; `chi_feasible_interval` and the region
scan decide feasibility with the latter so the verdict matches
brute-force strategy construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._record import record
from ._text import csv_blocks, grid_axes, plain
from .errors import BaselineDegenerateError, InvalidParameterError
from .markov import ProviderStrategy, irreducible_payoffs, reducible_mask
from .payoffs import (BOUNDARY_TOL, DENOM_TOL, GameParams, STATE_NAMES,
                      build_payoffs, check_count, check_e2_below_one,
                      check_finite, check_seed, payoff_arrays)

# Verification draws at most VERIFY_PASS opponents per pass and frees the
# pass's arrays before the next: ~101 bytes per pass opponent at peak
# (tracemalloc, 1e5 trials), so memory is O(pass) and flat in trials; the
# ceiling bounds run time.
VERIFY_PASS = 16384
MAX_TRIALS = 5_000_000
# The reducibility test's cofactor sum den = 1 - cc + dc is affine in the
# opponent q (cc in q1, dc in s = (1-e1) q1 + e1 q2), so a strategy whose
# chain is reducible at these four corners is at every q.
_CORNERS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

# A scan peaks at ~70 bytes per (e1, e2) cell, and its CSV, written block by
# block, does not raise that peak from 400^2 cells up (tracemalloc, 400^2 to
# 1600^2; at 200^2 the CSV's fixed block buffer lifts it to 122-127):
# MAX_GRID_NUM points per axis keep one scan under ~0.5 GB.
MAX_GRID_NUM = 2700


def _check_phi_sign(phi_sign) -> None:
    if (isinstance(phi_sign, bool)
            or not isinstance(phi_sign, (int, np.integer))
            or phi_sign not in (1, -1)):
        raise InvalidParameterError(f"phi_sign must be +1 or -1, got {phi_sign!r}")


def _phi_side(phi, phi_sign) -> int:
    """+1 or -1 as an int: phi_sign if given (it must agree with the sign of
    phi), else the sign of phi, else +1.  A given phi must be finite and
    nonzero."""
    if phi is not None and (not np.isfinite(phi) or phi == 0):
        raise InvalidParameterError(f"phi must be nonzero, got {phi!r}")
    if phi_sign is not None:
        _check_phi_sign(phi_sign)
        phi_sign = int(phi_sign)
    sign = (phi_sign or 1) if phi is None else (1 if phi > 0 else -1)
    if phi_sign not in (None, sign):
        raise InvalidParameterError(
            "phi_sign %+d contradicts the sign of phi %r" % (phi_sign, phi))
    return sign


@record
class ExtortionParams:
    """Baselines and shape of the enforced payoff relation.

    chi > 1 is the extortion factor; l1, l2 > 0 the payoff baselines.
    phi scales the strategy column and may take either sign; leave it
    None to let the constructor pick the midpoint of the admissible
    range on the side given by phi_sign.  phi_sign None means "not
    given"; the constructor sets it to the side of phi (`_phi_side`).
    """

    l1: float
    l2: float
    chi: float
    phi: float | None = None
    phi_sign: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.l1) or self.l1 <= 0:
            raise InvalidParameterError(f"l1 must be > 0, got {self.l1!r}")
        if not np.isfinite(self.l2) or self.l2 <= 0:
            raise InvalidParameterError(f"l2 must be > 0, got {self.l2!r}")
        if not np.isfinite(self.chi) or self.chi <= 1:
            raise InvalidParameterError(f"chi must be > 1, got {self.chi!r}")
        object.__setattr__(self, "phi_sign", _phi_side(self.phi, self.phi_sign))


class ChiBounds(NamedTuple):
    lower: float
    upper: float
    nonempty_above_1: bool


_RATIO_STATES = {1: [0, 3], -1: [2, 1]}   # (lower, upper) per phi sign


def baseline_gap(u_c, l2, state) -> float:
    """u_c(state) - l2 as a Python float; raises BaselineDegenerateError
    when it is within DENOM_TOL of zero."""
    gap = float(u_c[state] - l2)
    if abs(gap) <= DENOM_TOL:
        raise BaselineDegenerateError(
            f"u_c({STATE_NAMES[state]}) - l2 = {gap!r} is degenerate; "
            "move the baseline")
    return gap


def _ratio_bounds(u_p, u_c, l1, l2, phi_sign):
    """Ratio bounds (lower, upper) from per-state payoffs (four broadcastable
    entries each, see `payoff_arrays`), both NaN where a denominator
    u_c(state) - l2 is within DENOM_TOL of 0."""
    _check_phi_sign(phi_sign)
    states = _RATIO_STATES[phi_sign]
    denom = [u_c[s] - l2 for s in states]
    flat = (np.abs(denom[0]) <= DENOM_TOL) | (np.abs(denom[1]) <= DENOM_TOL)
    with np.errstate(all="ignore"):
        lower, upper = (np.divide(u_p[s] - l1, d, where=~flat,
                                  out=np.full(np.shape(flat), np.nan))
                        for s, d in zip(states, denom))
    return lower, upper


def chi_bounds(params: GameParams, l1: float, l2: float,
               phi_sign: int = 1) -> ChiBounds:
    """Classical ratio bounds on the extortion factor (necessary only).

    phi > 0 uses states (CC, DD) as (lower, upper); phi < 0 uses (DC, CD).
    Raises BaselineDegenerateError when a needed denominator u_c(state) - l2
    is within DENOM_TOL of zero.
    """
    check_finite(l1=l1, l2=l2)
    pv = build_payoffs(params)
    lower, upper = _ratio_bounds(pv.u_p, pv.u_c, l1, l2, phi_sign)
    for state in _RATIO_STATES[phi_sign]:
        baseline_gap(pv.u_c, l2, state)
    return ChiBounds(float(lower), float(upper), bool(lower <= upper and upper > 1))


class ChiInterval(NamedTuple):
    lower: float
    upper: float
    nonempty: bool


def _row_constraints(u_p, u_c, l1, l2, e2, phi_sign):
    """Per-row feasibility as linear conditions  alpha - chi*beta (sign) 0.

    Rows CC/DC constrain their own strategy entries directly; rows CD/DD
    constrain p2/p4 after removing the e2-weighted share of p1/p3, hence
    the mixed coefficients.  sign=-1 means 'must be <= 0' for phi > 0;
    everything flips for phi < 0.  Returns alpha, beta and sign, one entry
    per row in the order CC, CD, DC, DD, each row at the shape of the
    payoffs it reads.  Raises for e2 = 1, where the mixed rows leave p2/p4
    undetermined.
    """
    _check_phi_sign(phi_sign)
    check_e2_below_one(e2)

    def rows(x):  # CC, CD - e2 CC, DC, DD - e2 DC
        return x[0], x[1] - e2 * x[0], x[2], x[3] - e2 * x[2]
    return (rows([u - l1 for u in u_p]), rows([u - l2 for u in u_c]),
            (-phi_sign, -phi_sign, phi_sign, phi_sign))


def _chi_interval(alpha, beta, sign):
    """Exact chi interval (lower, upper, nonempty) per cell, NaN if empty.
    A row with beta != 0 caps chi from above when sign and beta agree and
    from below otherwise; a row with beta == 0 holds for all chi or none.
    Rows fold in order (strict comparisons keep the first of equal bounds,
    so signed zeros match) into lo/hi, which grow by copy to the shape of
    the rows folded so far."""
    lo, hi, empty = np.array(-np.inf), np.array(np.inf), np.array(False)
    for a, b, s in zip(alpha, beta, sign):
        flat = b == 0.0
        caps = (s > 0) == (b > 0)
        with np.errstate(all="ignore"):   # NaN never wins min/max
            bound = np.divide(a, b, out=np.full(np.shape(b), np.nan), where=~flat)
        shape = np.broadcast_shapes(hi.shape, bound.shape)
        if hi.shape != shape:
            lo, hi, empty = (np.broadcast_to(x, shape).copy()
                             for x in (lo, hi, empty))
        np.copyto(hi, bound, where=caps & (bound < hi))
        np.copyto(lo, bound, where=~caps & (bound > lo))
        empty |= flat & (s * a < 0)
    empty |= lo > hi
    np.copyto(lo, np.nan, where=empty)
    np.copyto(hi, np.nan, where=empty)
    return lo, hi, ~empty


def _admissible(alpha, beta, sign, chi):
    """True per cell where some phi of the rows' sign works at a fixed chi:
    no row value alpha - chi*beta has the wrong sign."""
    wrong = np.array(False)
    with np.errstate(all="ignore"):
        for a, b, s in zip(alpha, beta, sign):
            wrong = wrong | (s * (a - chi * b) < 0)
    return ~wrong


def _phi_max(alpha, beta, chi, e2):
    """Largest admissible |phi| per cell at a fixed chi: a nonzero row value
    alpha - chi*beta caps |phi| at its row's slack budget over |value|
    (mixed rows CD, DD move p2/p4 by 1 - e2 per unit); inf if none binds."""
    phi_max = np.inf
    with np.errstate(all="ignore"):
        for a, b, budget in zip(alpha, beta, (1.0, 1 - e2, 1.0, 1 - e2)):
            v = a - chi * b
            cap = budget / np.abs(v)
            phi_max = np.where((v != 0.0) & (cap < phi_max), cap, phi_max)
    return phi_max


def chi_feasible_interval(params: GameParams, l1: float, l2: float,
                          phi_sign: int = 1) -> ChiInterval:
    """Exact chi interval for which some phi of the given sign yields a
    strategy with all four entries in [0, 1].

    Division-free in spirit: each row contributes one half-line in chi,
    with the inequality direction flipping when its payoff gap changes
    sign, so the interval stays correct where the printed ratio bounds do
    not apply.  Returns (nan, nan, False) when empty; endpoints may be
    +/-inf.
    """
    check_finite(l1=l1, l2=l2)
    pv = build_payoffs(params)
    lo, hi, nonempty = _chi_interval(
        *_row_constraints(pv.u_p, pv.u_c, l1, l2, params.e2, phi_sign))
    return ChiInterval(float(lo), float(hi), bool(nonempty))


def phi_feasible_interval(params: GameParams, l1: float, l2: float,
                          chi: float, phi_sign: int = 1):
    """Admissible phi interval at a fixed chi, or None when empty.

    For phi > 0 the interval is (0, phi_max]; for phi < 0 it is
    [-phi_max, 0).  phi_max may be inf when no row binds.
    """
    check_finite(l1=l1, l2=l2, chi=chi)
    pv = build_payoffs(params)
    alpha, beta, sign = _row_constraints(pv.u_p, pv.u_c, l1, l2, params.e2,
                                         phi_sign)
    if not _admissible(alpha, beta, sign, chi):
        return None
    phi_max = _phi_max(alpha, beta, chi, params.e2)
    return (0.0, float(phi_max)) if phi_sign > 0 else (-float(phi_max), 0.0)


@record
class ExtortionSolution:
    """A solved extortionate strategy candidate (entries never clamped)."""

    p: tuple[float, float, float, float]
    feasible: bool
    chi: float
    phi: float
    chi_lower: float
    chi_upper: float
    phi_range: tuple[float, float] | None

    @property
    def strategy(self) -> ProviderStrategy:
        if not self.feasible:
            raise InvalidParameterError("infeasible extortion solution has no strategy")
        return ProviderStrategy(*(min(1.0, max(0.0, x)) for x in self.p))

    as_dict = plain


def build_extortion_strategy(params: GameParams,
                             ext: ExtortionParams) -> ExtortionSolution:
    """Solve the four strategy entries row by row.

    p1 = phi X_cc + 1
    p2 = (phi X_cd + 1 - e2 p1) / (1 - e2)
    p3 = phi X_dc
    p4 = (phi X_dd - e2 p3) / (1 - e2)

    with X_s = (u_p(s) - l1) - chi (u_c(s) - l2).  Entries are reported
    raw; the solution is feasible when all four lie in [0, 1] within
    BOUNDARY_TOL.  When ext.phi is None the midpoint of the admissible phi
    range is used (falling back to phi_sign * 1.0 if that range is empty,
    so the caller still sees the infeasible row values).
    """
    phi = ext.phi
    phi_range = phi_feasible_interval(params, ext.l1, ext.l2, ext.chi,
                                      ext.phi_sign)
    if phi is None:
        if phi_range is None or math.isinf(phi_range[0] - phi_range[1]):
            phi = float(ext.phi_sign)  # empty, or unbounded: any phi works
        else:
            phi = (phi_range[0] + phi_range[1]) / 2
    pv = build_payoffs(params)
    e2 = params.e2
    with np.errstate(all="ignore"):     # finite chi or phi near float max
        x = (pv.u_p - ext.l1) - ext.chi * (pv.u_c - ext.l2)
        p1 = phi * x[0] + 1
        p2 = (phi * x[1] + 1 - e2 * p1) / (1 - e2)
        p3 = phi * x[2]
        p4 = (phi * x[3] - e2 * p3) / (1 - e2)
    p = (float(p1), float(p2), float(p3), float(p4))
    feasible = all(-BOUNDARY_TOL <= v <= 1 + BOUNDARY_TOL for v in p)
    lower, upper = _ratio_bounds(pv.u_p, pv.u_c, ext.l1, ext.l2, ext.phi_sign)
    return ExtortionSolution(
        p=p, feasible=feasible, chi=ext.chi, phi=float(phi),
        chi_lower=float(lower), chi_upper=float(upper), phi_range=phi_range,
    )


@record
class VerificationReport:
    """Empirical check of the enforced relation over random opponents."""

    trials: int
    max_residual: float
    discarded: int

    as_dict = plain


def verify_extortion_relation(sol: ExtortionSolution, params: GameParams,
                              ext: ExtortionParams, trials: int = 1000,
                              rng=None) -> VerificationReport:
    """Max over random collector strategies of |(s_p - l1) - chi (s_c - l2)|.

    Draws producing a reducible chain are discarded and redrawn (passes of
    at most VERIFY_PASS; the first `trials` non-reducible draws count).
    Refused when more than 100 x trials draws are discarded, or at once
    when a pass keeps no draw and the chain is reducible at every corner
    opponent, hence at every opponent.  The caller controls
    reproducibility by passing a seed (an integer >= 0) or a Generator;
    None draws from fresh entropy.
    """
    if not sol.feasible:
        raise InvalidParameterError("cannot verify an infeasible solution")
    check_count("trials", trials, 1, MAX_TRIALS)
    if not (rng is None or isinstance(rng, np.random.Generator)):
        check_seed(rng)
    rng = np.random.default_rng(rng)
    strategy = sol.strategy
    max_residual = 0.0
    discarded = 0
    remaining = trials
    while remaining > 0:
        qs = rng.random((min(remaining, VERIFY_PASS), 2))
        bad, s_p, s_c = irreducible_payoffs(strategy, qs, params)
        discarded += int(bad.sum())
        kept = s_p.size
        s_p -= ext.l1   # |(s_p - l1) - chi (s_c - l2)|, in place
        s_c -= ext.l2
        s_c *= ext.chi
        s_p -= s_c
        max_residual = float(np.max(np.abs(s_p, out=s_p), initial=max_residual))
        del qs, bad, s_p, s_c   # s_p, s_c hold the engine's block: free it
        remaining -= kept
        if not kept and reducible_mask(strategy, _CORNERS, params).all():
            raise InvalidParameterError(
                "the strategy pins the chain for every opponent: it is "
                "reducible at all four corner opponents q in {0, 1}^2")
        if discarded > 100 * trials:
            raise InvalidParameterError(
                f"too many reducible draws ({discarded} discarded for "
                f"{trials} trials, limit 100 x trials = {100 * trials}); "
                f"the strategy pins the chain")
    return VerificationReport(trials, max_residual, discarded)


@record(eq=False)
class ExtortionGrid:
    """Noise-space scan of chi bounds and feasibility, indexed [i_e1, i_e2];
    a bound is NaN where its ratio denominator degenerates."""

    e1_axis: np.ndarray
    e2_axis: np.ndarray
    chi_lower: np.ndarray
    chi_upper: np.ndarray
    feasible: np.ndarray
    probe_feasible: np.ndarray | None
    chi_probe: float | None

    @property
    def feasible_count(self) -> int:
        return int(self.feasible.sum())

    def to_csv(self, out) -> None:
        """Write the CSV into the binary file `out` block by block."""
        out.writelines(csv_blocks(
            ["e1", "e2", "chi_lower", "chi_upper", "feasible"],
            [*grid_axes(self.e1_axis, self.e2_axis), self.chi_lower.ravel(),
             self.chi_upper.ravel(), self.feasible.ravel()]))

    def summary(self) -> dict:
        feas = self.feasible
        lo = self.chi_lower[feas & np.isfinite(self.chi_lower)]
        return {
            "cells": int(feas.size),
            "feasible_cells": self.feasible_count,
            "chi_lower_min": float(lo.min()) if lo.size else None,
            "chi_probe": self.chi_probe,
            "probe_feasible_cells": (int(self.probe_feasible.sum())
                                     if self.probe_feasible is not None else None),
        }


def scan_extortion_region(params_base: GameParams, l1: float, l2: float,
                          e1_grid, e2_grid, phi_sign: int = 1,
                          chi_probe: float | None = None,
                          jobs: int = 1) -> ExtortionGrid:
    """Scan noise space for where an extortionate strategy exists.

    One batched evaluation over the whole (e1, e2) grid: payoffs at every
    cell, the printed ratio bounds (NaN where a ratio denominator
    degenerates), and `feasible` from the exact chi interval
    intersected with chi > 1.  With chi_probe set, also report per cell
    whether that specific factor admits an admissible phi.  Cells match
    the scalar functions at their noise levels.  `jobs` is accepted for
    compatibility only: the output does not depend on it.

    The evaluation follows the noise's rank structure: the CC, CD, DC and
    DD payoffs and row constraints are a scalar, a (1, n2) row, an (n1, 1)
    column and one (n1, n2) grid, each evaluated at its own shape; only the
    chi-interval fold and the outputs are grid-sized (~70 bytes per cell at
    peak, see MAX_GRID_NUM).
    """
    check_finite(l1=l1, l2=l2, chi_probe=chi_probe)
    e1_axis = np.asarray(e1_grid, dtype=float)
    e2_axis = np.asarray(e2_grid, dtype=float)
    for name, axis in (("e1_grid", e1_axis), ("e2_grid", e2_axis)):
        if axis.ndim != 1 or axis.size < 2:
            raise InvalidParameterError(f"{name} must be 1-D with >= 2 points")
        check_count(f"{name} size", axis.size, 2, MAX_GRID_NUM)
        if not np.all((axis >= 0) & (axis < 1)):
            raise InvalidParameterError(
                f"{name} values must be finite and lie in [0, 1)")
    e2 = e2_axis[None, :]
    u_p, u_c = payoff_arrays(params_base, e1_axis[:, None], e2)
    chi_lo, chi_hi = _ratio_bounds(u_p, u_c, l1, l2, phi_sign)
    rows = _row_constraints(u_p, u_c, l1, l2, e2, phi_sign)
    del u_p, u_c   # frees the DD payoff grids: only the rows are read on
    lo, hi, nonempty = _chi_interval(*rows)
    feasible = nonempty & (hi > 1)
    probe = None if chi_probe is None else (
        feasible & (lo <= chi_probe) & (chi_probe <= hi) & (chi_probe > 1)
        & _admissible(*rows, chi_probe))
    return ExtortionGrid(
        e1_axis=e1_axis, e2_axis=e2_axis, chi_lower=chi_lo, chi_upper=chi_hi,
        feasible=feasible, probe_feasible=probe, chi_probe=chi_probe,
    )
