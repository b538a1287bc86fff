"""Noisy sequential-game Markov engine.

One round works as follows: the provider observes the collector's previous
action through the identity mask (a defecting collector looks cooperative
with probability e2), then plays C with the probability her strategy
assigns to the observed previous outcome; the collector then observes the
provider's current action through the data noise (a defecting provider
looks cooperative with probability 1 - e1) and plays C with probability q1
on a good observation, q2 on a bad one.

The round-to-round transition factorises as M[v, w] = F[v, w] * G[v, w]
where F is the provider's action probability given previous state v and
G is the collector's response probability forming next state w.  The
expected long-run payoffs follow from the stationary distribution of M,
and equivalently from a 4x4 determinant whose last column can be any
payoff vector - the identity that makes zero-determinant strategies work.

F depends on w only through the provider's action in w (C for CC/CD, D for
DC/DD).  When the collector cooperated in v the observation is exact, so
rows CC and DC use p1 and p3 directly; when he defected, the mask hides it
with probability e2, mixing the g- and b-conditioned entries:

    F(v=CC) = f(1)                    F(v=CD) = e2 f(1) + (1-e2) f(2)
    F(v=DC) = f(3)                    F(v=DD) = e2 f(3) + (1-e2) f(4)

with f(i) = p_i for action C and 1 - p_i for action D.  G depends on w
only: a cooperating provider is observed exactly (columns CC, CD use q1),
while a defecting one is seen as cooperative with probability 1 - e1, so
columns DC, DD mix the two observation branches:

    G(w=CC) = q1                      G(w=CD) = 1 - q1
    G(w=DC) = (1-e1) q1 + e1 q2
    G(w=DD) = (1-e1)(1-q1) + e1 (1-q2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._text import plain
from .errors import InvalidParameterError, NonUniqueStationaryError
from .payoffs import GameParams, StateIndex, build_payoffs, check_unit_interval

# Tolerance on the sum of the diagonal 3x3 cofactors of I - M: the product of
# its three nonzero eigenvalues, 0 when the chain has more than one closed
# class.  Near such a chain the sum is 0.5x-1.5x the third singular value of
# I - M, so a 1e-9 test on either agrees unless that value is within 2x of 1e-9.
REDUCIBLE_TOL = 1e-9
_REST = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # _REST[i]: states but i


@dataclass(frozen=True)
class ProviderStrategy:
    """Cooperation probabilities conditioned on the previous observed
    outcome, in the order Cg, Cb, Dg, Db (own action, then observation
    of the collector)."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        check_unit_interval(p1=self.p1, p2=self.p2, p3=self.p3, p4=self.p4)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4])

    @classmethod
    def from_vector(cls, p) -> "ProviderStrategy":
        p = np.asarray(p, dtype=float)
        if p.shape != (4,):
            raise InvalidParameterError("provider strategy needs 4 probabilities")
        return cls(*p)


@dataclass(frozen=True)
class CollectorStrategy:
    """Cooperation probabilities conditioned on the current observation
    of the provider: q1 on g (looks cooperative), q2 on b."""

    q1: float
    q2: float

    def __post_init__(self):
        check_unit_interval(q1=self.q1, q2=self.q2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.q1, self.q2])

    @classmethod
    def from_vector(cls, q) -> "CollectorStrategy":
        q = np.asarray(q, dtype=float)
        if q.shape != (2,):
            raise InvalidParameterError("collector strategy needs 2 probabilities")
        return cls(*q)


def _vector(cls, x) -> np.ndarray:
    """The probabilities of x, a `cls` strategy or a sequence checked as one."""
    return (x if isinstance(x, cls) else cls.from_vector(x)).vector


def _provider_factors(p, e2: float) -> np.ndarray:
    """F[v, w]: probability that the provider plays the action of next
    state w (C for CC/CD, D for DC/DD) after previous state v."""
    pv = _vector(ProviderStrategy, p)

    def masked(f):
        return np.array([f[0], e2 * f[0] + (1 - e2) * f[1],
                         f[2], e2 * f[2] + (1 - e2) * f[3]])

    coop, defect = masked(pv), masked(1.0 - pv)
    return np.stack([coop, coop, defect, defect], axis=1)


def _collector_factors(qs, e1: float) -> np.ndarray:
    """G[k, w]: probability of collector k's response forming next state w."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise InvalidParameterError("qs must have shape (n, 2)")
    if not np.all(np.isfinite(qs) & (qs >= 0) & (qs <= 1)):
        raise InvalidParameterError(
            "collector strategies must be finite and lie in [0, 1]")
    q1, q2 = qs[:, 0], qs[:, 1]
    return np.stack([q1, 1 - q1,
                     (1 - e1) * q1 + e1 * q2,
                     (1 - e1) * (1 - q1) + e1 * (1 - q2)], axis=1)


def build_transition_matrix(p, q, params: GameParams) -> np.ndarray:
    """4x4 row-stochastic transition matrix, rows = previous state."""
    return build_transition_matrices(
        p, _vector(CollectorStrategy, q)[None], params)[0]


def build_transition_matrices(p, qs, params: GameParams) -> np.ndarray:
    """Stacked matrices M[k, v, w] = F[v, w] G[k, w] for one provider
    strategy against many collector strategies: qs has shape (n, 2),
    result has shape (n, 4, 4)."""
    g = _collector_factors(qs, params.e1)
    return _provider_factors(p, params.e2)[None] * g[:, None, :]


def _minor3(a, rows, cols) -> np.ndarray:
    """3x3 minors of a (..., 4, k) stack on a row and a column triple,
    expanded along the first row over strided views (no fancy-index copy)."""
    x, y, z = ([a[..., r, c] for c in cols] for r in rows)
    return (x[0] * (y[1] * z[2] - y[2] * z[1])
            - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0]))


def _reducible(ms: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, 4, 4) stack: True when the diagonal 3x3
    cofactors of I - M, each >= 0 and proportional to one stationary entry
    (Markov chain tree theorem), sum to less than REDUCIBLE_TOL."""
    a = np.eye(4) - ms
    return sum(_minor3(a, rest, rest) for rest in _REST) < REDUCIBLE_TOL


def stationary_distribution(m) -> np.ndarray:
    """Stationary row vector v with v M = v, sum(v) = 1, v >= 0 (n = 1)."""
    return stationary_distributions(np.asarray(m, dtype=float)[None])[0]


def stationary_distributions(ms) -> np.ndarray:
    """Stationary row vectors of an (n, 4, 4) stack of row-stochastic
    matrices.  Raises NonUniqueStationaryError for chains `_reducible`
    flags instead of silently picking one of many stationary vectors."""
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1:] != (4, 4):
        raise InvalidParameterError("transition matrix must be 4x4")
    if not np.all((ms >= -1e-12) & (ms <= 1 + 1e-12)):
        raise InvalidParameterError(
            "transition probabilities must be finite and lie in [0, 1]")
    if np.any(np.abs(ms.sum(axis=2) - 1.0) > 1e-9):
        raise InvalidParameterError("transition matrix rows must sum to 1")
    _refuse_reducible(_reducible(ms))
    return _solve(ms)


def _refuse_reducible(reducible: np.ndarray) -> None:
    if reducible.any():
        raise NonUniqueStationaryError(
            "transition matrix is reducible at tolerance; the stationary "
            "distribution is not unique (perturb strategy entries away "
            "from 0/1 corners)"
        )


def _solve(ms: np.ndarray) -> np.ndarray:
    """Solves each irreducible balance system with the normalisation
    constraint appended (one redundant balance row is dropped, since the
    balance rows always sum to zero)."""
    a = np.transpose(ms, (0, 2, 1)) - np.eye(4)
    a[:, 3, :] = 1.0
    v = np.linalg.solve(a, np.eye(4)[None, :, 3:])[..., 0]  # a v = (0, 0, 0, 1)
    del a  # free the balance stack before the scrub allocates: a lower peak
    v = np.where(np.abs(v) < 1e-14, 0.0, v)  # scrub solver dust at corners
    return v / v.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class StationaryResult:
    """Stationary distribution with the long-run expected payoffs."""

    v: np.ndarray
    s_p: float
    s_c: float

    as_dict = plain


def expected_payoffs(p, q, params: GameParams) -> StationaryResult:
    """Long-run expected payoffs s_p = v . u_p and s_c = v . u_c."""
    m = build_transition_matrix(p, q, params)
    v = stationary_distribution(m)
    pv = build_payoffs(params)
    return StationaryResult(v, float(v @ pv.u_p), float(v @ pv.u_c))


def irreducible_payoffs(p, qs, params: GameParams):
    """(reducible, s_p, s_c): each draw's chain built and tested once, and
    the long-run payoffs of the irreducible ones in draw order."""
    ms = build_transition_matrices(p, qs, params)
    reducible = _reducible(ms)
    vs = _solve(ms[~reducible] if reducible.any() else ms)  # copy only if needed
    pv = build_payoffs(params)
    return reducible, vs @ pv.u_p, vs @ pv.u_c


def expected_payoffs_many(p, qs, params: GameParams):
    """Batched expected payoffs (s_p, s_c) against many collector strategies;
    raises if any chain is reducible (`irreducible_payoffs` drops those)."""
    reducible, s_p, s_c = irreducible_payoffs(p, qs, params)
    _refuse_reducible(reducible)
    return s_p, s_c


def reducible_mask(p, qs, params: GameParams) -> np.ndarray:
    """Boolean mask of collector strategies producing a reducible chain."""
    return _reducible(build_transition_matrices(p, qs, params))


# --------------------------------------------------------------------------
# Determinant form of the stationary payoffs
# --------------------------------------------------------------------------

def provider_zd_column(p, e2: float) -> np.ndarray:
    """The provider-controlled column of the transformed balance matrix:
    (p1 - 1, e2 p1 + (1-e2) p2 - 1, p3, e2 p3 + (1-e2) p4).

    Obtained by adding the first balance column to the second; depends
    only on the provider's strategy and the collector's noise e2.
    """
    return _provider_factors(p, e2)[:, StateIndex.CC] - np.array([1.0, 1.0, 0.0, 0.0])


def collector_zd_column(q, e1: float) -> np.ndarray:
    """The collector-controlled column: (0, 0, s - 1, s) with
    s = (1-e1) q1 + e1 q2, the probability the collector cooperates
    against a defecting provider."""
    s = _collector_factors(_vector(CollectorStrategy, q)[None], e1)[0, StateIndex.DC]
    return np.array([0.0, 0.0, s - 1.0, s])


@dataclass(frozen=True)
class ZdColumns:
    """First three columns of the transformed balance matrix M - I.

    first_col is the untransformed first column of M - I (it depends on
    both strategies); p_hat and q_hat are the single-player columns after
    the two determinant-preserving column additions.  Appending a payoff
    vector f as the fourth column gives a determinant proportional to the
    stationary average of f.
    """

    first_col: np.ndarray
    p_hat: np.ndarray
    q_hat: np.ndarray


def zd_columns(p, q, params: GameParams) -> ZdColumns:
    first = build_transition_matrix(p, q, params)[:, StateIndex.CC]
    return ZdColumns(first - np.array([1.0, 0.0, 0.0, 0.0]),
                     provider_zd_column(p, params.e2),
                     collector_zd_column(q, params.e1))


def zd_determinant(cols: ZdColumns, f) -> float:
    """det[first_col, p_hat, q_hat, f], expanded by minors on the last
    column.  Proportional to v . f, so ratios of determinants sharing the
    same strategy columns equal ratios of stationary averages."""
    f = np.asarray(f, dtype=float)
    if f.shape != (4,):
        raise InvalidParameterError("f must be a 4-vector")
    base = np.stack([cols.first_col, cols.p_hat, cols.q_hat], axis=1)
    return float(sum((-1) ** (r + 3) * f[r] * _minor3(base, rest, (0, 1, 2))
                     for r, rest in enumerate(_REST)))
