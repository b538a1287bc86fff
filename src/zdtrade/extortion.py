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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._text import csv_text
from .errors import (BaselineDegenerateError, DegenerateParameterError,
                     InvalidParameterError)
from .markov import ProviderStrategy, expected_payoffs_many, reducible_mask
from .payoffs import GameParams, build_payoffs

DENOM_TOL = 1e-12
FEAS_TOL = 1e-9

REASON_DEGENERATE_DENOM = "baseline_equals_payoff_entry"
REASON_NO_CHI = "no_chi_above_1"


def _check_phi_sign(phi_sign) -> None:
    if phi_sign not in (1, -1):
        raise InvalidParameterError(f"phi_sign must be +1 or -1, got {phi_sign!r}")


@dataclass(frozen=True)
class ExtortionParams:
    """Baselines and shape of the enforced payoff relation.

    chi > 1 is the extortion factor; l1, l2 > 0 the payoff baselines.
    phi scales the strategy column and may take either sign; leave it
    None to let the constructor pick the midpoint of the admissible
    range on the side given by phi_sign.
    """

    l1: float
    l2: float
    chi: float
    phi: float | None = None
    phi_sign: int = 1

    def __post_init__(self):
        if not np.isfinite(self.l1) or self.l1 <= 0:
            raise InvalidParameterError(f"l1 must be > 0, got {self.l1!r}")
        if not np.isfinite(self.l2) or self.l2 <= 0:
            raise InvalidParameterError(f"l2 must be > 0, got {self.l2!r}")
        if not np.isfinite(self.chi) or self.chi <= 1:
            raise InvalidParameterError(f"chi must be > 1, got {self.chi!r}")
        if self.phi is not None:
            if not np.isfinite(self.phi) or self.phi == 0:
                raise InvalidParameterError(f"phi must be nonzero, got {self.phi!r}")
            object.__setattr__(self, "phi_sign", 1 if self.phi > 0 else -1)
        else:
            _check_phi_sign(self.phi_sign)


class ChiBounds(NamedTuple):
    lower: float
    upper: float
    nonempty_above_1: bool


def chi_bounds(params: GameParams, l1: float, l2: float,
               phi_sign: int = 1) -> ChiBounds:
    """Classical ratio bounds on the extortion factor (necessary only).

    phi > 0 uses states (CC, DD) as (lower, upper); phi < 0 uses (DC, CD).
    Raises BaselineDegenerateError when a needed denominator u_c(state) - l2
    is within 1e-12 of zero.
    """
    _check_phi_sign(phi_sign)
    pv = build_payoffs(params)
    lo_state, hi_state = (0, 3) if phi_sign > 0 else (2, 1)
    out = []
    for s in (lo_state, hi_state):
        denom = pv.u_c[s] - l2
        if abs(denom) <= DENOM_TOL:
            raise BaselineDegenerateError(
                f"u_c({s}) - l2 = {denom!r} is degenerate; move the baseline"
            )
        out.append(float((pv.u_p[s] - l1) / denom))
    lower, upper = out
    return ChiBounds(lower, upper, bool(lower <= upper and upper > 1))


class ChiInterval(NamedTuple):
    lower: float
    upper: float
    nonempty: bool


def _row_constraints(u_p, u_c, l1, l2, e2, phi_sign):
    """Per-row feasibility as linear conditions  alpha - chi*beta (sign) 0.

    Rows CC/DC constrain their own strategy entries directly; rows CD/DD
    constrain p2/p4 after removing the e2-weighted share of p1/p3, hence
    the mixed coefficients.  sign=-1 means 'must be <= 0' for phi > 0;
    everything flips for phi < 0.  Raises for e2 = 1, where the mixed rows
    leave p2/p4 undetermined.
    """
    _check_phi_sign(phi_sign)
    if e2 >= 1.0:
        raise DegenerateParameterError("e2 = 1 is degenerate")
    a = u_p - l1
    b = u_c - l2
    conds = [
        (a[0], b[0], -1),                          # row CC: X_cc <= 0
        (a[1] - e2 * a[0], b[1] - e2 * b[0], -1),  # row CD: X_cd - e2 X_cc <= 0
        (a[2], b[2], +1),                          # row DC: X_dc >= 0
        (a[3] - e2 * a[2], b[3] - e2 * b[2], +1),  # row DD: X_dd - e2 X_dc >= 0
    ]
    if phi_sign < 0:
        conds = [(al, be, -s) for al, be, s in conds]
    return conds


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
    pv = build_payoffs(params)
    lo, hi = -math.inf, math.inf
    for alpha, beta, sign in _row_constraints(pv.u_p, pv.u_c, l1, l2,
                                              params.e2, phi_sign):
        if beta == 0.0:
            if sign * alpha < 0:
                return ChiInterval(math.nan, math.nan, False)
            continue
        bound = alpha / beta
        if (sign > 0) == (beta > 0):
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    if lo > hi:
        return ChiInterval(math.nan, math.nan, False)
    return ChiInterval(lo, hi, True)


def phi_feasible_interval(params: GameParams, l1: float, l2: float,
                          chi: float, phi_sign: int = 1):
    """Admissible phi interval at a fixed chi, or None when empty.

    For phi > 0 the interval is (0, phi_max]; for phi < 0 it is
    [-phi_max, 0).  phi_max may be inf when no row binds.
    """
    pv = build_payoffs(params)
    e2 = params.e2
    # Slack budget of each row: mixed rows (CD, DD) only move p2/p4 by
    # (1 - e2) per unit of row value.
    budgets = (1.0, 1 - e2, 1.0, 1 - e2)
    phi_max = math.inf
    for (alpha, beta, sign), budget in zip(
            _row_constraints(pv.u_p, pv.u_c, l1, l2, e2, phi_sign), budgets):
        value = alpha - chi * beta
        if sign * value < 0:
            return None  # wrong sign: this row fails for every phi
        if value != 0.0:
            phi_max = min(phi_max, budget / abs(value))
    if phi_sign > 0:
        return (0.0, phi_max)
    return (-phi_max, 0.0)


@dataclass(frozen=True)
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

    def as_dict(self) -> dict:
        return {
            "p": list(self.p), "feasible": self.feasible,
            "chi": self.chi, "phi": self.phi,
            "chi_lower": self.chi_lower, "chi_upper": self.chi_upper,
            "phi_range": list(self.phi_range) if self.phi_range else None,
        }


def build_extortion_strategy(params: GameParams,
                             ext: ExtortionParams) -> ExtortionSolution:
    """Solve the four strategy entries row by row.

    p1 = phi X_cc + 1
    p2 = (phi X_cd + 1 - e2 p1) / (1 - e2)
    p3 = phi X_dc
    p4 = (phi X_dd - e2 p3) / (1 - e2)

    with X_s = (u_p(s) - l1) - chi (u_c(s) - l2).  Entries are reported
    raw; the solution is feasible when all four lie in [0, 1] within
    1e-9.  When ext.phi is None the midpoint of the admissible phi range
    is used (falling back to phi_sign * 1.0 if that range is empty, so
    the caller still sees the infeasible row values).
    """
    phi = ext.phi
    phi_range = phi_feasible_interval(params, ext.l1, ext.l2, ext.chi,
                                      ext.phi_sign)
    if phi is None:
        if phi_range is None:
            phi = float(ext.phi_sign)
        elif math.isinf(phi_range[0]) or math.isinf(phi_range[1]):
            phi = float(ext.phi_sign)  # unbounded range: any phi works
        else:
            phi = (phi_range[0] + phi_range[1]) / 2
    pv = build_payoffs(params)
    x = (pv.u_p - ext.l1) - ext.chi * (pv.u_c - ext.l2)
    e2 = params.e2
    p1 = phi * x[0] + 1
    p2 = (phi * x[1] + 1 - e2 * p1) / (1 - e2)
    p3 = phi * x[2]
    p4 = (phi * x[3] - e2 * p3) / (1 - e2)
    p = (float(p1), float(p2), float(p3), float(p4))
    feasible = all(-FEAS_TOL <= v <= 1 + FEAS_TOL for v in p)
    try:
        bounds = chi_bounds(params, ext.l1, ext.l2, ext.phi_sign)
        lower, upper = bounds.lower, bounds.upper
    except BaselineDegenerateError:
        lower = upper = math.nan
    return ExtortionSolution(
        p=p, feasible=feasible, chi=ext.chi, phi=float(phi),
        chi_lower=lower, chi_upper=upper, phi_range=phi_range,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Empirical check of the enforced relation over random opponents."""

    trials: int
    max_residual: float
    discarded: int

    def as_dict(self) -> dict:
        return {"trials": self.trials, "max_residual": self.max_residual,
                "discarded": self.discarded}


def verify_extortion_relation(sol: ExtortionSolution, params: GameParams,
                              ext: ExtortionParams, trials: int = 1000,
                              rng=None) -> VerificationReport:
    """Max over random collector strategies of |(s_p - l1) - chi (s_c - l2)|.

    Draws producing a reducible chain are discarded and redrawn.  The
    caller controls reproducibility by passing a seed or Generator.
    """
    if not sol.feasible:
        raise InvalidParameterError("cannot verify an infeasible solution")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if isinstance(rng, (int, np.integer)) and rng < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {rng!r}")
    rng = np.random.default_rng(rng)
    strategy = sol.strategy
    max_residual = 0.0
    discarded = 0
    remaining = trials
    while remaining > 0:
        qs = rng.random((remaining, 2))
        bad = reducible_mask(strategy, qs, params)
        discarded += int(bad.sum())
        qs = qs[~bad]
        if qs.shape[0]:
            s_p, s_c = expected_payoffs_many(strategy, qs, params)
            residual = np.abs((s_p - ext.l1) - ext.chi * (s_c - ext.l2))
            max_residual = max(max_residual, float(residual.max()))
            remaining -= qs.shape[0]
        if discarded > 100 * trials:
            raise InvalidParameterError(
                "too many reducible draws; the strategy pins the chain"
            )
    return VerificationReport(trials, max_residual, discarded)


@dataclass(frozen=True)
class ExtortionGrid:
    """Noise-space scan of chi bounds and feasibility, indexed [i_e1, i_e2]."""

    e1_axis: np.ndarray
    e2_axis: np.ndarray
    chi_lower: np.ndarray
    chi_upper: np.ndarray
    feasible: np.ndarray
    reason_code: np.ndarray        # 0 ok, 1 degenerate ratio denom, 2 no chi
    probe_feasible: np.ndarray | None
    chi_probe: float | None

    @property
    def feasible_count(self) -> int:
        return int(self.feasible.sum())

    def rows(self):
        for i, e1 in enumerate(self.e1_axis):
            for j, e2 in enumerate(self.e2_axis):
                yield (float(e1), float(e2), float(self.chi_lower[i, j]),
                       float(self.chi_upper[i, j]), bool(self.feasible[i, j]))

    def to_csv(self) -> str:
        return csv_text(["e1", "e2", "chi_lower", "chi_upper", "feasible"],
                        self.rows())

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

    Per cell: rebuild payoffs at (e1, e2), report the printed ratio
    bounds (nan + reason code when a ratio denominator degenerates), and
    decide `feasible` from the exact chi interval intersected with
    chi > 1.  With chi_probe set, also report per cell whether that
    specific factor admits an admissible phi.  `jobs` is accepted for
    compatibility only: the scan runs in one thread and its output does
    not depend on it.
    """
    for name, v in (("l1", l1), ("l2", l2), ("chi_probe", chi_probe)):
        if v is not None and not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v!r}")
    e1_axis = np.asarray(e1_grid, dtype=float)
    e2_axis = np.asarray(e2_grid, dtype=float)
    for name, axis in (("e1_grid", e1_axis), ("e2_grid", e2_axis)):
        if axis.ndim != 1 or axis.size < 2:
            raise InvalidParameterError(f"{name} must be 1-D with >= 2 points")
        if axis.min() < 0 or axis.max() >= 1:
            raise InvalidParameterError(f"{name} values must lie in [0, 1)")
    n1, n2 = e1_axis.size, e2_axis.size
    chi_lo = np.full((n1, n2), np.nan)
    chi_hi = np.full((n1, n2), np.nan)
    feasible = np.zeros((n1, n2), dtype=bool)
    code = np.zeros((n1, n2), dtype=np.int8)
    probe = np.zeros((n1, n2), dtype=bool) if chi_probe is not None else None

    for i in range(n1):
        e1 = float(e1_axis[i])
        for j in range(n2):
            cell = params_base.replace_noise(e1=e1, e2=float(e2_axis[j]))
            try:
                bounds = chi_bounds(cell, l1, l2, phi_sign)
                chi_lo[i, j], chi_hi[i, j] = bounds.lower, bounds.upper
            except BaselineDegenerateError:
                code[i, j] = 1
            interval = chi_feasible_interval(cell, l1, l2, phi_sign)
            ok = interval.nonempty and interval.upper > 1
            feasible[i, j] = ok
            if not ok and code[i, j] == 0:
                code[i, j] = 2
            if probe is not None and ok:
                if interval.lower <= chi_probe <= interval.upper and chi_probe > 1:
                    probe[i, j] = (phi_feasible_interval(
                        cell, l1, l2, chi_probe, phi_sign) is not None)

    return ExtortionGrid(
        e1_axis=e1_axis, e2_axis=e2_axis, chi_lower=chi_lo, chi_upper=chi_hi,
        feasible=feasible, reason_code=code, probe_feasible=probe,
        chi_probe=chi_probe,
    )
