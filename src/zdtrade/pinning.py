"""Pinning strategies: the provider unilaterally fixes the collector's
long-run expected payoff.

Choosing the provider-controlled determinant column proportional to
(u_c, 1) forces the collector's stationary payoff to a constant that only
the free entries p1, p4 (and the payoff/noise parameters) determine:

    s_c = (A (1 - p1) + B p4) / (1 - p1 + p4)

with B = u_c(CC) and A = (u_c(DD) - e2 u_c(DC)) / (1 - e2).  The remaining
strategy entries p2, p3 are then fully determined; the strategy exists
only when both land in [0, 1].
"""

from __future__ import annotations


import numpy as np

from ._record import record
from ._text import csv_blocks, grid_axes, plain
from .errors import DegenerateParameterError, InvalidParameterError
from .markov import ProviderStrategy
from .payoffs import (BOUNDARY_TOL, DENOM_TOL, GameParams, build_payoffs,
                      check_count, check_e2_below_one, check_unit_interval)

# A scan peaks at ~29 bytes per (p1, p4) cell and keeps ~27 of them, and
# its CSV, written block by block, adds a few MB of block buffers
# (tracemalloc, resolution 1001 and 2001; ~86 bytes per cell at 301): at most
# MAX_RESOLUTION keeps one scan under ~0.3 GB.
MAX_RESOLUTION = 3000

# The reason attached to a cell, indexed by its reason code (0: feasible).
_REASONS = (None, "p2_out_of_range", "p3_out_of_range",
            "p2_and_p3_out_of_range", "pinned_value_undefined_at_p1_1_p4_0")


def _pinning_constants(params: GameParams):
    check_e2_below_one(params.e2)
    u_c = build_payoffs(params).u_c
    b = float(u_c[0])
    with np.errstate(all="ignore"):     # amounts near float max: inf or NaN
        a = float((u_c[3] - params.e2 * u_c[2]) / (1 - params.e2))
        d1 = float(u_c[0] - u_c[3] - params.e2 * (u_c[0] - u_c[2]))
    if abs(d1) <= DENOM_TOL:
        raise DegenerateParameterError(
            f"pinning denominator D1 = {d1!r} is degenerate for these parameters"
        )
    return u_c, a, b, d1


def _solve_cells(p1, p4, u_c, a, b, d1, e2):
    """The pinning solution broadcast over p1 and p4: (p2, p3, pinned,
    feasible, reason code).  A feasible cell's p2, p3 are clamped to [0, 1]
    (a -0.0 becomes 0.0); the p1 = 1, p4 = 0 corner is infeasible with a NaN
    pinned value.  The outputs are allocated once at the broadcast shape (p2
    and p3 as the two halves of one stack) and written in place; every
    formula keeps its operands and order of operations, so the result is
    that of evaluating it into fresh arrays.  0-d inputs give 0-d arrays,
    and `solve_pinning` is this kernel at one cell."""
    shape = np.broadcast(p1, p4).shape
    corner = (p1 == 1.0) & (p4 == 0.0)
    pinned = np.empty(shape)
    p23 = np.empty((2, *shape))
    p2, p3 = p23[0, ...], p23[1, ...]     # `...` keeps 0-d halves arrays
    with np.errstate(all="ignore"):   # 0/0 at the corner; inf or NaN near float max
        np.add(a * (1 - p1), b * p4, out=pinned)
        pinned /= 1 - p1 + p4
        np.add((u_c[1] - u_c[3] + e2 * (u_c[2] - u_c[0])) * p1,
               (u_c[0] - u_c[1]) * (1 + p4), out=p2)
        np.add((u_c[3] - u_c[2]) * (1 - p1),
               (u_c[0] - u_c[2]) * (1 - e2) * p4, out=p3)
        p23 /= d1
    np.copyto(pinned, np.nan, where=corner)
    ok = p23 >= -BOUNDARY_TOL
    ok &= p23 <= 1 + BOUNDARY_TOL
    feasible = ok[0] & ok[1]
    feasible &= ~corner
    p23.clip(0.0, 1.0, out=p23, where=feasible)
    np.add(p23, 0.0, out=p23, where=feasible)
    # reason code: 2 if p3 is out of range, + 1 if p2 is; 4 at the corner
    bad = np.invert(ok, out=ok).view(np.int8)
    code = bad[1, ...]
    code <<= 1
    code += bad[0]
    np.copyto(code, 4, where=corner)
    return p2, p3, pinned, feasible, code


@record
class PinningSolution:
    """A solved pinning strategy candidate.

    p1, p4 are the free entries; p2, p3 are the solved ones (clamped to
    [0, 1] when within BOUNDARY_TOL of it).  `feasible` is False when a
    solved entry falls outside [0, 1], or at the p1 = 1, p4 = 0 corner
    where the pinned value is 0/0.  Infeasible solutions are data, not
    errors: region scans need them.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    a_const: float
    b_const: float
    d1_const: float
    pinned_s_c: float
    feasible: bool
    reason: str | None = None

    @property
    def strategy(self) -> ProviderStrategy:
        if not self.feasible:
            raise InvalidParameterError(
                f"infeasible pinning solution has no strategy ({self.reason})"
            )
        return ProviderStrategy(self.p1, self.p2, self.p3, self.p4)

    as_dict = plain


def solve_pinning(p1: float, p4: float, params: GameParams) -> PinningSolution:
    """Solve the dependent entries p2, p3 for given free entries p1, p4.

    p2 = { [u_c(CD) - u_c(DD) + e2 (u_c(DC) - u_c(CC))] p1
           + [u_c(CC) - u_c(CD)] (1 + p4) } / D1
    p3 = { [u_c(DD) - u_c(DC)] (1 - p1)
           + [u_c(CC) - u_c(DC)] (1 - e2) p4 } / D1
    D1 = u_c(CC) - u_c(DD) - e2 [u_c(CC) - u_c(DC)]

    Raises DegenerateParameterError when e2 = 1 or |D1| <= DENOM_TOL.  This
    is the one-cell evaluation of the region scan's kernel.
    """
    check_unit_interval(p1=p1, p4=p4)
    u_c, a, b, d1 = _pinning_constants(params)
    p2, p3, pinned, feasible, code = _solve_cells(
        np.float64(p1), np.float64(p4), u_c, a, b, d1, params.e2)
    return PinningSolution(
        p1=float(p1), p4=float(p4), p2=float(p2), p3=float(p3),
        a_const=a, b_const=b, d1_const=d1, pinned_s_c=float(pinned),
        feasible=bool(feasible), reason=_REASONS[int(code)],
    )


def pinning_sensitivity_strategy(sol: PinningSolution) -> tuple[float, float]:
    """Partial derivatives of the pinned payoff in the free entries:

    ds/dp1 = (B - A) p4 / (1 - p1 + p4)^2
    ds/dp4 = (B - A) (1 - p1) / (1 - p1 + p4)^2

    Both are nonnegative when A < B, so raising p1 or p4 raises the
    collector's pinned payoff.
    """
    if not sol.feasible:
        raise InvalidParameterError("sensitivities require a feasible solution")
    denom = (1 - sol.p1 + sol.p4) ** 2
    if denom == 0.0:
        raise DegenerateParameterError(
            "pinned payoff is undefined at p1 = 1, p4 = 0"
        )
    diff = sol.b_const - sol.a_const
    return (diff * sol.p4 / denom, diff * (1 - sol.p1) / denom)


def pinning_sensitivity_noise(p1: float, p4: float,
                              params: GameParams) -> tuple[float, float]:
    """Partial derivatives of the pinned payoff in the noise levels:

    ds/de1 = - w ((1-e2) c_c + c_c1) / (1-e2)      <= 0
    ds/de2 =   w (1-e1) c_c1 / (1-e2)^2            >= 0

    with w = (1 - p1) / (1 - p1 + p4).  More data noise always hurts the
    collector; more identity masking always helps him.
    """
    check_unit_interval(p1=p1, p4=p4)
    check_e2_below_one(params.e2)
    denom = 1 - p1 + p4
    if denom == 0.0:
        raise DegenerateParameterError(
            "pinned payoff is undefined at p1 = 1, p4 = 0"
        )
    w = (1 - p1) / denom
    e1, e2 = params.e1, params.e2
    ds_de1 = -w * ((1 - e2) * params.c_c + params.c_c1) / (1 - e2)
    ds_de2 = w * (1 - e1) * params.c_c1 / (1 - e2) ** 2
    return (ds_de1, ds_de2)


@record(eq=False)
class PinningGrid:
    """Uniform inclusive grid over (p1, p4) in [0, 1]^2 with the solved
    pinning data per cell.  2-D arrays are indexed [i_p1, i_p4]."""

    p1_axis: np.ndarray
    p4_axis: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    pinned_s_c: np.ndarray
    feasible: np.ndarray
    reason_code: np.ndarray
    a_const: float
    b_const: float
    d1_const: float

    @property
    def feasible_count(self) -> int:
        return int(self.feasible.sum())

    def reason(self, i: int, j: int) -> str | None:
        return _REASONS[int(self.reason_code[i, j])]

    def to_csv(self, out) -> None:
        """Write the CSV into the binary file `out` block by block."""
        out.writelines(csv_blocks(
            ["p1", "p4", "feasible", "p2", "p3", "s_c_pinned"],
            [*grid_axes(self.p1_axis, self.p4_axis), self.feasible.ravel(),
             self.p2.ravel(), self.p3.ravel(), self.pinned_s_c.ravel()]))

    def summary(self) -> dict:
        # reduced under the mask: a copy of the feasible cells would be a
        # fresh 8 bytes per cell, first touched here
        feas, sc, count = self.feasible, self.pinned_s_c, self.feasible_count
        lo = float(sc.min(where=feas, initial=np.inf)) if count else None
        hi = float(sc.max(where=feas, initial=-np.inf)) if count else None
        return {
            "cells": int(feas.size),
            "feasible_cells": count,
            "s_c_min": lo,
            "s_c_max": hi,
            "a_const": self.a_const,
            "b_const": self.b_const,
        }


def scan_pinning_region(params: GameParams,
                        resolution: int = 101) -> PinningGrid:
    """Evaluate solve_pinning over an inclusive uniform grid.

    Cells the solver would reject (the 0/0 corner) are marked infeasible
    with a reason code instead of raising.
    """
    check_count("resolution", resolution, 2, MAX_RESOLUTION)
    u_c, a, b, d1 = _pinning_constants(params)
    axis = np.linspace(0.0, 1.0, resolution)
    p2, p3, pinned, feasible, code = _solve_cells(
        axis[:, None], axis[None, :], u_c, a, b, d1, params.e2)
    return PinningGrid(
        p1_axis=axis, p4_axis=axis.copy(), p2=p2, p3=p3, pinned_s_c=pinned,
        feasible=feasible, reason_code=code, a_const=a, b_const=b, d1_const=d1,
    )
