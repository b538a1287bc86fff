"""Payoff model of the two-player data-trading game.

The data provider (X) chooses between submitting authentic data (C) or
noise-injected data (D); the data collector (Y) chooses between protecting
the data (C) or reselling it (D).  A joint state is the pair of actions, in
the fixed order CC, CD, DC, DD with the provider's action first.

Payoffs are linear in the trading parameters: the base trading profits
c_p / c_c (scaled by 1 - e1 when the provider defects, because noisy data
is worth less), the resale gain/loss pair c_c1 / c_p1 (scaled by 1 - e1 on
noisy data), and the detection pair c_p2 / c_c2 (scaled by 1 - e2, the
probability that the collector's resale is detected through his identity
mask).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from ._record import record
from ._text import plain
from .errors import DegenerateParameterError, InvalidParameterError


class StateIndex(IntEnum):
    """Joint states of one round, provider action first."""

    CC = 0
    CD = 1
    DC = 2
    DD = 3


STATE_NAMES = ("CC", "CD", "DC", "DD")

_CURRENCY_FIELDS = ("c_p", "c_c", "c_p1", "c_c1", "c_p2", "c_c2")

# A solved strategy entry may overshoot [0, 1] by this much and still count
# as feasible (pinning then clamps it); region boundaries are
# rounding-sensitive.
BOUNDARY_TOL = 1e-9
# A denominator within this much of 0 is degenerate.
DENOM_TOL = 1e-12


def check_unit_interval(**values) -> None:
    """Raise InvalidParameterError naming the first value outside [0, 1]
    (NaN included)."""
    for name, v in values.items():
        if not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {v!r}")


def check_count(name, value, low, high) -> None:
    """Raise InvalidParameterError unless value is an integer (not a bool)
    with low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise InvalidParameterError(f"{name} must be in [{low}, {high}], got {value}")


def check_seed(seed) -> None:
    """Raise InvalidParameterError unless seed is an integer (not a bool)
    >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed!r}")


def check_e2_below_one(e2) -> None:
    """Raise DegenerateParameterError when e2 (a float or an array) reaches
    1: the pinning constants and the extortion rows divide by 1 - e2."""
    if np.any(np.asarray(e2) >= 1.0):
        raise DegenerateParameterError(
            "e2 = 1 makes the pinning constants undefined (division by 1 - e2)"
        )


@record
class GameParams:
    """Trading parameters of the game.

    Attributes:
        c_p, c_c: trading profits of provider / collector (currency, > 0).
        c_p1: provider's privacy-leakage loss when the collector resells.
        c_c1: collector's resale gain.
        c_p2: provider's compensation when the resale is detected.
        c_c2: collector's reputation loss when the resale is detected.
        e1: provider's data-perturbation noise level, in [0, 1].
        e2: collector's identity-masking noise level, in [0, 1].
    """

    c_p: float
    c_c: float
    c_p1: float
    c_c1: float
    c_p2: float
    c_c2: float
    e1: float
    e2: float

    def __post_init__(self):
        for name in _CURRENCY_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise InvalidParameterError(
                    f"{name} must be a finite positive amount, got {value!r}"
                )
        check_unit_interval(e1=self.e1, e2=self.e2)

    as_dict = plain

    def replace_noise(self, e1=None, e2=None) -> "GameParams":
        """Copy with one or both noise levels replaced, built positionally:
        `dataclasses.replace` passes keywords, the records' slow path."""
        return GameParams(self.c_p, self.c_c, self.c_p1, self.c_c1, self.c_p2,
                          self.c_c2, self.e1 if e1 is None else e1,
                          self.e2 if e2 is None else e2)


@record(eq=False)
class PayoffVectors:
    """Per-state payoff 4-vectors, indexed by StateIndex order.

    u_p[s] / u_c[s] are the provider's / collector's payoffs in joint
    state s.  Carries the originating parameters so downstream analyses
    can recover the noise levels and classify the provider.
    """

    params: GameParams
    u_p: np.ndarray
    u_c: np.ndarray

    def as_dict(self) -> dict:
        # not plain(self): the record names the states and leaves out params
        return {"states": list(STATE_NAMES),
                "u_p": plain(self.u_p), "u_c": plain(self.u_c)}


def payoff_arrays(params: GameParams, e1, e2):
    """The eight per-state payoff expressions as (u_p, u_c), two tuples in
    state order CC, CD, DC, DD.  The noise enters separably, so each entry
    keeps the shape of the noise it reads: over e1[:, None] and e2[None, :]
    CC is a scalar, CD a (1, n2) row, DC an (n1, 1) column and only DD the
    full (n1, n2) grid.

    Provider:  u_p(CC) = c_p
               u_p(CD) = c_p - c_p1 + (1-e2) c_p2
               u_p(DC) = (1-e1) c_p
               u_p(DD) = (1-e1) c_p - (1-e1) c_p1 + (1-e2) c_p2
    Collector: u_c(CC) = c_c
               u_c(CD) = c_c + c_c1 - (1-e2) c_c2
               u_c(DC) = (1-e1) c_c
               u_c(DD) = (1-e1) c_c + (1-e1) c_c1 - (1-e2) c_c2
    """
    g, one1, one2 = params, 1 - e1, 1 - e2
    with np.errstate(all="ignore"):     # amounts near float max: inf, quietly
        u_p = (np.float64(g.c_p), g.c_p - g.c_p1 + one2 * g.c_p2, one1 * g.c_p,
               one1 * g.c_p - one1 * g.c_p1 + one2 * g.c_p2)
        u_c = (np.float64(g.c_c), g.c_c + g.c_c1 - one2 * g.c_c2, one1 * g.c_c,
               one1 * g.c_c + one1 * g.c_c1 - one2 * g.c_c2)
    return u_p, u_c


def build_payoffs(params: GameParams) -> PayoffVectors:
    """Payoff 4-vectors at the game's own noise levels (see `payoff_arrays`)."""
    return PayoffVectors(params, *(np.array(u, dtype=float) for u in
                                   payoff_arrays(params, params.e1, params.e2)))


@record
class OrderingReport:
    """Truth values of the four strict payoff-ordering chains.

    Each flag is the exact (tolerance-free) truth value of its chain;
    ties count as violations.  The provider classification compares the
    value of her data against the value of her privacy.
    """

    u_p_cc_gt_cd: bool      # u_p(CC) > u_p(CD)
    u_p_cc_dc_dd: bool      # u_p(CC) > u_p(DC) > u_p(DD)
    u_c_cd_cc_dc: bool      # u_c(CD) > u_c(CC) > u_c(DC)
    u_c_cd_dd_dc: bool      # u_c(CD) > u_c(DD) > u_c(DC)
    data_valued: bool       # c_p > c_p1
    privacy_sensitive: bool  # c_p < c_p1

    @property
    def all_hold(self) -> bool:
        return (self.u_p_cc_gt_cd and self.u_p_cc_dc_dd
                and self.u_c_cd_cc_dc and self.u_c_cd_dd_dc)

    as_dict = plain


def validate_ordering(payoffs: PayoffVectors) -> OrderingReport:
    """Report which ordering chains the payoff vectors satisfy.

    Lenient by design: violations are reported, never raised, because
    perfectly reasonable noise settings break some chains (e.g. high e2
    making detection unlikely flips the provider's DC/DD ranking).
    """
    u_p, u_c = payoffs.u_p, payoffs.u_c
    cc, cd, dc, dd = StateIndex.CC, StateIndex.CD, StateIndex.DC, StateIndex.DD
    return OrderingReport(      # one argument per field: the fast path
        bool(u_p[cc] > u_p[cd]),
        bool(u_p[cc] > u_p[dc] and u_p[dc] > u_p[dd]),
        bool(u_c[cd] > u_c[cc] and u_c[cc] > u_c[dc]),
        bool(u_c[cd] > u_c[dd] and u_c[dd] > u_c[dc]),
        bool(payoffs.params.c_p > payoffs.params.c_p1),
        bool(payoffs.params.c_p < payoffs.params.c_p1),
    )
