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

So every row of M mixes the same two distributions: with a_v = F(v) for
action C, g_C = (q1, 1-q1, 0, 0) and g_D = (0, 0, s, 1-s), s = G(w=DC),

    M[v, .] = a_v g_C + (1 - a_v) g_D,

and M has rank 2.  With cc = g_C . a and dc = g_D . a, the four diagonal 3x3
cofactors of I - M are dc g_C + (1 - cc) g_D.  They sum to den = 1 - cc + dc,
the product of the nonzero eigenvalues of I - M, so the stationary vector is

    v = (dc g_C + (1 - cc) g_D) / den,

the cofactors behind v . f proportional to det[c1, p_hat, q_hat, f] (Press
& Dyson, PNAS 2012).  The batched engine (`irreducible_payoffs`,
`reducible_mask`) evaluates this closed form and builds no matrix; the
matrix-level `stationary_distribution(s)`, and `expected_payoffs` through
it, serve general 4x4 chains by the cofactor test and a linear solve.
The engine writes the cofactors column by column into a C-ordered (n, 4)
`vs` and divides them there, so that `vs @ u` makes the same BLAS call,
with the same bits, as on a freshly divided array; a transposed `vs` or a
4-term dot would round differently.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from ._text import plain
from .errors import InvalidParameterError, NonUniqueStationaryError
from .payoffs import GameParams, StateIndex, build_payoffs, check_unit_interval

# Tolerance on the sum of the diagonal 3x3 cofactors of I - M: the product of
# its three nonzero eigenvalues, 0 when the chain has more than one closed
# class.  Near such a chain the sum is 0.5x-1.5x the third singular value of
# I - M, so a 1e-9 test on either agrees unless that value is within 2x of 1e-9.
REDUCIBLE_TOL = 1e-9
_REST = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # _REST[i]: states but i


@record
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


@record
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


def _draws(qs, e1: float):
    """(q1, q2, s, rows) of collector strategies qs, shape (n, 2), checked
    once.  `rows` is a new C-ordered (10, n) float64 block, the batched
    engine's one scratch allocation per call: q1 and s = (1-e1) q1 + e1 q2
    = G(w=DC) are its rows 4 and 5, and q2 is the column of qs."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise InvalidParameterError("qs must have shape (n, 2)")
    if not np.all((qs >= 0) & (qs <= 1)):   # NaN and +-inf fail one of them
        raise InvalidParameterError(
            "collector strategies must be finite and lie in [0, 1]")
    rows = np.empty((10, len(qs)))
    q1, s = rows[4], rows[5]
    q2 = qs[:, 1]
    np.multiply(qs[:, 0], 1 - e1, out=q1)   # q1's row holds (1-e1) q1 first
    np.multiply(q2, e1, out=s)
    np.add(q1, s, out=s)
    np.copyto(q1, qs[:, 0])
    return q1, q2, s, rows


def _collector_factors(qs, e1: float) -> np.ndarray:
    """G[k, w]: probability of collector k's response forming next state w."""
    q1, q2, s, _ = _draws(qs, e1)
    return np.stack([q1, 1 - q1, s, (1 - e1) * (1 - q1) + e1 * (1 - q2)],
                    axis=1)


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


@record(eq=False)
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
    with np.errstate(all="ignore"):     # 0 * inf is NaN near float max
        return StationaryResult(v, float(v @ pv.u_p), float(v @ pv.u_c))


def _cofactors(p, qs, params: GameParams) -> np.ndarray:
    """(n, 4): the diagonal 3x3 cofactors of I - M for one provider strategy
    against each collector strategy of qs, dc g_C + (1 - cc) g_D in closed
    form (module docstring); no matrix is built.  Every vector is a row of
    the block of `_draws`, and the cofactors are written column by column
    into its C-ordered (n, 4) head, which is returned."""
    a = _provider_factors(p, params.e2)[:, StateIndex.CC]
    q1, _, s, rows = _draws(qs, params.e1)
    w = rows[:4].reshape(-1, 4)
    cc, dc, omq1, oms = rows[6:]
    np.subtract(1, q1, out=omq1)
    np.subtract(1, s, out=oms)
    np.multiply(q1, a[0], out=cc)
    np.multiply(omq1, a[1], out=w[:, 0])   # w's columns are scratch until set
    np.add(cc, w[:, 0], out=cc)            # cc = q1 a0 + (1 - q1) a1
    np.multiply(s, a[2], out=dc)
    np.multiply(oms, a[3], out=w[:, 0])
    np.add(dc, w[:, 0], out=dc)            # dc = s a2 + (1 - s) a3
    np.subtract(1, cc, out=cc)
    np.multiply(dc, q1, out=w[:, 0])
    np.multiply(dc, omq1, out=w[:, 1])
    np.multiply(cc, s, out=w[:, 2])
    np.multiply(cc, oms, out=w[:, 3])
    return w


def _cofactor_sum(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((w0 + w1) + w2) + w3 per row of the (n, 4) cofactors, into out: the
    bits of a sum over either axis order, at a column loop's speed (a
    reduction over a C-ordered row of four runs ~9x slower)."""
    np.add(w[:, 0], w[:, 1], out=out)
    np.add(out, w[:, 2], out=out)
    return np.add(out, w[:, 3], out=out)


def irreducible_payoffs(p, qs, params: GameParams):
    """(reducible, s_p, s_c): each draw's cofactors computed and tested once,
    and the long-run payoffs of the irreducible ones in draw order.  The
    kept cofactors move to the front of `vs` and are divided there.  The
    sums, s_p and s_c go into rows 4-6 of the block behind `vs`, dead once
    the cofactors are written, so s_p and s_c are views that keep the
    whole block (80 bytes per draw) alive."""
    vs = _cofactors(p, qs, params)
    total, s_p, s_c = vs.base[4:7]
    reducible = _cofactor_sum(vs, total) < REDUCIBLE_TOL
    if reducible.any():
        keep = ~reducible
        m = np.count_nonzero(keep)
        vs[:m], total[:m] = vs[keep], total[keep]
        vs, total = vs[:m], total[:m]
    for col in vs.T:
        np.divide(col, total, out=col)
    pv = build_payoffs(params)
    m = len(vs)
    return (reducible, np.matmul(vs, pv.u_p, out=s_p[:m]),
            np.matmul(vs, pv.u_c, out=s_c[:m]))


def expected_payoffs_many(p, qs, params: GameParams):
    """Batched expected payoffs (s_p, s_c) against many collector strategies;
    raises if any chain is reducible (`irreducible_payoffs` drops those).
    Both are copies, so the scratch block is freed on return."""
    reducible, s_p, s_c = irreducible_payoffs(p, qs, params)
    _refuse_reducible(reducible)
    return s_p.copy(), s_c.copy()


def reducible_mask(p, qs, params: GameParams) -> np.ndarray:
    """Boolean mask of collector strategies producing a reducible chain."""
    w = _cofactors(p, qs, params)
    return _cofactor_sum(w, np.empty(len(w))) < REDUCIBLE_TOL


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
    s = _draws(_vector(CollectorStrategy, q)[None], e1)[2][0]
    return np.array([0.0, 0.0, s - 1.0, s])


@record(eq=False)
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
