"""Why the data collector cannot run the determinant-pinning strategies.

The collector-controlled column of the transformed balance matrix has
zero first and second components (his response never depends on his own
previous action once the provider's move is observed).  Any pinning or
extortionate choice of that column therefore forces two equations whose
only solution needs two provider payoffs (or two baseline-shifted payoff
ratios) to coincide.  These checks turn that argument into per-parameter
certificates instead of taking it on faith.
"""

from __future__ import annotations

import math

from ._record import record
from ._text import plain
from .extortion import baseline_gap, check_extortion_inputs
from .payoffs import GameParams, StateIndex, build_payoffs, validate_ordering


def _holds(gap: float) -> bool:
    """A forced equality fails only by a finite, nonzero gap; a NaN gap
    certifies nothing."""
    return bool(math.isfinite(gap) and gap != 0.0)


@record
class InfeasibilityCertificate:
    """Machine-checkable verdict that a collector-side strategy cannot exist.

    holds=True means the forced equality fails by a finite, nonzero gap
    (the strategy is impossible, as claimed); holds=False flags the
    degenerate payoff configurations where the argument's premise breaks
    down, and any gap that is not finite.  ordering_violations lists
    which assumed payoff chains the inputs do not satisfy, since the
    impossibility argument is conditional on them.
    """

    kind: str                       # "pinning" | "extortion"
    conflicting_states: tuple[str, str]
    lhs: float
    rhs: float
    gap: float
    holds: bool
    ordering_violations: tuple[str, ...] = ()
    baselines: tuple[float, float] | None = None

    as_dict = plain


def _certificate(kind, lhs, rhs, violations, baselines=None):
    """The certificate that the CC and CD sides, lhs and rhs, differ.  It
    passes one argument per field, the records' fast path: the
    impossibility sweeps build one per parameter draw."""
    gap = lhs - rhs
    return InfeasibilityCertificate(kind, ("CC", "CD"), lhs, rhs, gap,
                                    _holds(gap), violations, baselines)


def check_collector_pinning(params: GameParams) -> InfeasibilityCertificate:
    """Certificate that the collector cannot pin the provider's payoff.

    The two zero components force alpha*u_p(CC) + gamma = 0 and
    alpha*u_p(CD) + gamma = 0 simultaneously, impossible unless
    u_p(CC) = u_p(CD).
    """
    pv = build_payoffs(params)
    lhs = float(pv.u_p[StateIndex.CC])
    rhs = float(pv.u_p[StateIndex.CD])
    report = validate_ordering(pv)
    violations = () if report.u_p_cc_gt_cd else ("u_p_cc_gt_cd",)
    return _certificate("pinning", lhs, rhs, violations)


def check_collector_extortion(params: GameParams, l1: float,
                              l2: float) -> InfeasibilityCertificate:
    """Certificate that the collector cannot enforce an extortionate share.

    His zero components force (u_p(CC) - l1)/(u_c(CC) - l2) and
    (u_p(CD) - l1)/(u_c(CD) - l2) to both equal the extortion factor,
    impossible when the ratios differ - and they always do when the
    provider prefers a cooperative collector, the collector gains from
    resale, and both denominators are positive.
    """
    check_extortion_inputs(l1, l2)
    pv = build_payoffs(params)
    d_cc = baseline_gap(pv.u_c, l2, StateIndex.CC)
    d_cd = baseline_gap(pv.u_c, l2, StateIndex.CD)
    lhs = (float(pv.u_p[StateIndex.CC]) - l1) / d_cc
    rhs = (float(pv.u_p[StateIndex.CD]) - l1) / d_cd
    report = validate_ordering(pv)
    violations = tuple(
        name for name, ok in (("u_p_cc_gt_cd", report.u_p_cc_gt_cd),
                              ("u_c_cd_cc_dc", report.u_c_cd_cc_dc))
        if not ok
    )
    return _certificate("extortion", lhs, rhs, violations,
                        (float(l1), float(l2)))
