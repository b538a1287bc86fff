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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._text import csv_text, table
from .errors import InvalidParameterError, NonUniqueStationaryError
from .payoffs import GameParams, STATE_NAMES, StateIndex, build_payoffs

# Reducibility tolerance: the chain is declared non-unique when the two
# smallest singular values of M - I are both below this.
REDUCIBLE_TOL = 1e-9


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
        for name in ("p1", "p2", "p3", "p4"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {v!r}")

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
        for name in ("q1", "q2"):
            v = getattr(self, name)
            if not np.isfinite(v) or not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {v!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.q1, self.q2])

    @classmethod
    def from_vector(cls, q) -> "CollectorStrategy":
        q = np.asarray(q, dtype=float)
        if q.shape != (2,):
            raise InvalidParameterError("collector strategy needs 2 probabilities")
        return cls(*q)


def _pvec(p) -> np.ndarray:
    if isinstance(p, ProviderStrategy):
        return p.vector
    return ProviderStrategy.from_vector(p).vector


def _qvec(q) -> np.ndarray:
    if isinstance(q, CollectorStrategy):
        return q.vector
    return CollectorStrategy.from_vector(q).vector


def _provider_factors(p, e2: float) -> np.ndarray:
    """F[v, w]: probability that the provider plays the action of next
    state w (C for CC/CD, D for DC/DD) after previous state v."""
    pv = _pvec(p)

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


def provider_transition_factor(v: StateIndex, p, e2: float, action: str) -> float:
    """Probability that the provider plays `action` after previous state v.

    When the collector cooperated in v the observation is exact, so rows
    CC and DC use p1 and p3 directly; when he defected, the mask hides it
    with probability e2, mixing the g- and b-conditioned entries:

        F(v=CC) = f(1)                    F(v=CD) = e2 f(1) + (1-e2) f(2)
        F(v=DC) = f(3)                    F(v=DD) = e2 f(3) + (1-e2) f(4)

    with f(i) = p_i for action C and 1 - p_i for action D.
    """
    if action not in ("C", "D"):
        raise InvalidParameterError(f"action must be 'C' or 'D', got {action!r}")
    w = StateIndex.CC if action == "C" else StateIndex.DC
    return float(_provider_factors(p, e2)[StateIndex(v), w])


def collector_transition_factor(w: StateIndex, q, e1: float) -> float:
    """Probability of the collector response that forms next state w.

    A cooperating provider is observed exactly (columns CC, CD use q1);
    a defecting provider is seen as cooperative with probability 1 - e1,
    so columns DC, DD mix the two observation branches:

        G(w=CC) = q1                      G(w=CD) = 1 - q1
        G(w=DC) = (1-e1) q1 + e1 q2
        G(w=DD) = (1-e1)(1-q1) + e1 (1-q2)
    """
    return float(_collector_factors(_qvec(q)[None], e1)[0, StateIndex(w)])


def build_transition_matrix(p, q, params: GameParams) -> np.ndarray:
    """4x4 row-stochastic transition matrix, rows = previous state."""
    return build_transition_matrices(p, _qvec(q)[None], params)[0]


def build_transition_matrices(p, qs, params: GameParams) -> np.ndarray:
    """Stacked matrices M[k, v, w] = F[v, w] G[k, w] for one provider
    strategy against many collector strategies: qs has shape (n, 2),
    result has shape (n, 4, 4)."""
    g = _collector_factors(qs, params.e1)
    return _provider_factors(p, params.e2)[None] * g[:, None, :]


def _reducible(ms: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, 4, 4) stack: True when the two smallest
    singular values of M - I are both below REDUCIBLE_TOL."""
    s = np.linalg.svd(ms - np.eye(4), compute_uv=False)
    return s[:, 2] < REDUCIBLE_TOL


def stationary_distribution(m) -> np.ndarray:
    """Stationary row vector v with v M = v, sum(v) = 1, v >= 0.

    Checks that m is a 4x4 row-stochastic matrix, then solves it as a
    batch of one with `stationary_distributions`.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise InvalidParameterError("transition matrix must be 4x4")
    if not np.all((m >= -1e-12) & (m <= 1 + 1e-12)):
        raise InvalidParameterError(
            "transition probabilities must be finite and lie in [0, 1]")
    if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-9:
        raise InvalidParameterError("transition matrix rows must sum to 1")
    return stationary_distributions(m[None])[0]


def stationary_distributions(ms: np.ndarray) -> np.ndarray:
    """Stationary row vectors of an (n, 4, 4) stack of transition matrices.

    Solves each singular balance system with the normalisation constraint
    appended (one redundant balance row is dropped, since the balance rows
    always sum to zero).  Raises NonUniqueStationaryError for reducible
    chains instead of silently picking one of many stationary vectors.
    """
    ms = np.asarray(ms, dtype=float)
    if np.any(_reducible(ms)):
        raise NonUniqueStationaryError(
            "transition matrix is reducible at tolerance; the stationary "
            "distribution is not unique (perturb strategy entries away "
            "from 0/1 corners)"
        )
    a = np.transpose(ms, (0, 2, 1)) - np.eye(4)
    a[:, 3, :] = 1.0
    b = np.zeros((ms.shape[0], 4, 1))
    b[:, 3, 0] = 1.0
    v = np.linalg.solve(a, b)[..., 0]
    v = np.where(np.abs(v) < 1e-14, 0.0, v)  # scrub solver dust at corners
    return v / v.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class StationaryResult:
    """Stationary distribution with the long-run expected payoffs."""

    v: np.ndarray
    s_p: float
    s_c: float

    def as_dict(self) -> dict:
        return {"v": [float(x) for x in self.v],
                "s_p": self.s_p, "s_c": self.s_c}


def expected_payoffs(p, q, params: GameParams) -> StationaryResult:
    """Long-run expected payoffs s_p = v . u_p and s_c = v . u_c."""
    m = build_transition_matrix(p, q, params)
    v = stationary_distribution(m)
    pv = build_payoffs(params)
    return StationaryResult(v, float(v @ pv.u_p), float(v @ pv.u_c))


def expected_payoffs_many(p, qs, params: GameParams):
    """Batched expected payoffs against many collector strategies.

    Returns (s_p, s_c) arrays of length n.  Raises if any matrix in the
    batch is reducible; callers that tolerate reducible draws should
    filter via `reducible_mask` first.
    """
    ms = build_transition_matrices(p, qs, params)
    vs = stationary_distributions(ms)
    pv = build_payoffs(params)
    return vs @ pv.u_p, vs @ pv.u_c


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
    s = collector_transition_factor(StateIndex.DC, q, e1)
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


def _det3(a) -> float:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def zd_determinant(cols: ZdColumns, f) -> float:
    """det[first_col, p_hat, q_hat, f], expanded by minors on the last
    column.  Proportional to v . f, so ratios of determinants sharing the
    same strategy columns equal ratios of stationary averages."""
    f = np.asarray(f, dtype=float)
    if f.shape != (4,):
        raise InvalidParameterError("f must be a 4-vector")
    base = np.stack([cols.first_col, cols.p_hat, cols.q_hat], axis=1)
    det = 0.0
    sign = -1.0  # (-1)**(row+col) for row 0, col 3
    for r in range(4):
        rows = [base[i] for i in range(4) if i != r]
        det += sign * f[r] * _det3(rows)
        sign = -sign
    return float(det)


# --------------------------------------------------------------------------
# Serialization helpers
# --------------------------------------------------------------------------

def matrix_to_csv(m) -> str:
    """CSV with one row per previous state: header state,CC,CD,DC,DD."""
    m = np.asarray(m, dtype=float)
    return csv_text(["state"] + list(STATE_NAMES), [table(STATE_NAMES), *m.T])


def matrix_to_json(m) -> list:
    """Row-major nested lists, ready for json.dumps."""
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]
