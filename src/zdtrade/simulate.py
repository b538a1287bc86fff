"""Monte-Carlo round-by-round play of the noisy sequential game.

This is the empirical oracle for the closed-form machinery: it never looks
at the transition matrix, only at the per-round observation and action
rules, so agreement with the stationary analysis is a real check.

Per round, in fixed order:
  1. the provider observes the collector's previous action (a defection
     is masked to look cooperative with probability e2);
  2. she cooperates with the probability her strategy assigns to the
     observed previous outcome (Cg, Cb, Dg, Db);
  3. the collector observes her current action (a defection looks
     cooperative with probability 1 - e1);
  4. he cooperates with probability q1 on g, q2 on b.

One pseudo-random stream per run, consuming exactly four uniforms per
round in the order above, so traces are reproducible and independent of
implementation details.  Round 1 uses the fictitious previous outcome
(initial provider action, g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._text import csv_text
from .errors import InvalidParameterError
from .markov import CollectorStrategy, ProviderStrategy, expected_payoffs
from .payoffs import GameParams, STATE_NAMES, StateIndex, build_payoffs

# Batches used for the batch-means standard errors (round averages of a
# Markov chain are autocorrelated, so naive i.i.d. errors would lie).
BATCH_COUNT = 100


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; equal configs give bit-identical traces."""

    params: GameParams
    p: ProviderStrategy
    q: CollectorStrategy
    rounds: int
    seed: int
    burn_in: int = 0
    initial_state: StateIndex = StateIndex.CC

    def __post_init__(self):
        if self.rounds < 1:
            raise InvalidParameterError("rounds must be >= 1")
        if not 0 <= self.burn_in < self.rounds:
            raise InvalidParameterError("burn_in must satisfy 0 <= burn_in < rounds")
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    prev_state: StateIndex
    provider_observation: str   # g | b, of the collector's previous action
    provider_action: str        # C | D
    collector_observation: str  # g | b, of the provider's current action
    collector_action: str
    provider_payoff: float
    collector_payoff: float


@dataclass(frozen=True)
class Trace:
    """Column-oriented full trace of a run."""

    prev_state: np.ndarray          # int, StateIndex codes
    provider_obs_g: np.ndarray      # bool
    provider_coop: np.ndarray       # bool
    collector_obs_g: np.ndarray     # bool
    collector_coop: np.ndarray      # bool
    u_p: np.ndarray
    u_c: np.ndarray

    def __len__(self) -> int:
        return int(self.prev_state.size)

    def records(self) -> Iterator[RoundRecord]:
        for t in range(len(self)):
            yield RoundRecord(
                round_index=t + 1,
                prev_state=StateIndex(int(self.prev_state[t])),
                provider_observation="g" if self.provider_obs_g[t] else "b",
                provider_action="C" if self.provider_coop[t] else "D",
                collector_observation="g" if self.collector_obs_g[t] else "b",
                collector_action="C" if self.collector_coop[t] else "D",
                provider_payoff=float(self.u_p[t]),
                collector_payoff=float(self.u_c[t]),
            )

    def rows(self):
        ob = np.where(self.provider_obs_g, "g", "b")
        ac = np.where(self.provider_coop, "C", "D")
        cob = np.where(self.collector_obs_g, "g", "b")
        cac = np.where(self.collector_coop, "C", "D")
        for t in range(len(self)):
            yield (t + 1, STATE_NAMES[int(self.prev_state[t])], ob[t], ac[t],
                   cob[t], cac[t], float(self.u_p[t]), float(self.u_c[t]))

    def to_csv(self) -> str:
        return csv_text(
            ["round", "prev_state", "provider_obs", "provider_action",
             "collector_obs", "collector_action", "u_p", "u_c"],
            self.rows(),
        )


@dataclass(frozen=True)
class SimResult:
    """Post-burn-in averages with batch-means standard errors."""

    state_frequencies: np.ndarray
    s_p: float
    s_c: float
    se_s_p: float
    se_s_c: float
    se_frequencies: np.ndarray
    rounds_used: int

    def as_dict(self) -> dict:
        return {
            "state_frequencies": [float(x) for x in self.state_frequencies],
            "s_p": self.s_p, "s_c": self.s_c,
            "se_s_p": self.se_s_p, "se_s_c": self.se_s_c,
            "se_frequencies": [float(x) for x in self.se_frequencies],
            "rounds_used": self.rounds_used,
        }


def _batch_se(x: np.ndarray) -> float:
    """Standard error of the mean of x via non-overlapping batch means."""
    n = x.size
    if n < 2 * BATCH_COUNT:
        return float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    size = n // BATCH_COUNT
    means = x[:BATCH_COUNT * size].reshape(BATCH_COUNT, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(BATCH_COUNT))


def play_rounds(config: SimConfig, collect_trace: bool = False):
    """Run the game for config.rounds rounds.

    Returns a SimResult, or (SimResult, Trace) when collect_trace is set.
    Deterministic given the seed: the uniform stream is consumed in the
    fixed order (provider obs, provider action, collector obs, collector
    action), one quadruple per round, whether or not a step needs
    randomness.
    """
    params, rounds = config.params, config.rounds
    pvec = config.p.vector
    q1, q2 = config.q.q1, config.q.q2
    e1, e2 = params.e1, params.e2
    payoff = build_payoffs(params)

    rng = np.random.default_rng(config.seed)
    u = rng.random((rounds, 4))

    # Evaluate the round for every possible previous state, then fold the
    # actual trajectory through the per-round lookup tables.  This is
    # draw-for-draw identical to a plain sequential loop.
    prev_y_coop = np.array([True, False, True, False])   # per StateIndex
    prev_x_coop = np.array([True, True, False, False])
    obs_g = prev_y_coop[None, :] | (u[:, 0:1] < e2)      # (rounds, 4)
    obs_g[0, :] = True  # fictitious round-1 outcome: initial action + g
    # outcome index: Cg=0, Cb=1, Dg=2, Db=3
    outcome = np.where(prev_x_coop[None, :], 0, 2) + np.where(obs_g, 0, 1)
    x_coop = u[:, 1:2] < pvec[outcome]                   # provider plays C
    col_obs_g = x_coop | (u[:, 2:3] >= e1)               # defection seen b w.p. e1
    y_coop = u[:, 3:4] < np.where(col_obs_g, q1, q2)
    next_state = np.where(x_coop, 0, 2) + np.where(y_coop, 0, 1)

    flat = next_state.astype(np.int8).ravel().tolist()
    state = int(config.initial_state)
    states = [state]
    append = states.append
    for t in range(rounds):
        state = flat[4 * t + state]
        append(state)
    seq = np.asarray(states, dtype=np.intp)

    realized = seq[1:]
    used = realized[config.burn_in:]
    counts = np.bincount(used, minlength=4)
    freq = counts / used.size
    up_seq = payoff.u_p[used]
    uc_seq = payoff.u_c[used]
    ind = (used[:, None] == np.arange(4)[None, :]).astype(float)
    result = SimResult(
        state_frequencies=freq,
        s_p=float(up_seq.mean()), s_c=float(uc_seq.mean()),
        se_s_p=_batch_se(up_seq), se_s_c=_batch_se(uc_seq),
        se_frequencies=np.array([_batch_se(ind[:, k]) for k in range(4)]),
        rounds_used=int(used.size),
    )
    if not collect_trace:
        return result

    rows = np.arange(rounds)
    prev = seq[:-1]
    trace = Trace(
        prev_state=prev.astype(np.int8),
        provider_obs_g=obs_g[rows, prev],
        provider_coop=x_coop[rows, prev],
        collector_obs_g=col_obs_g[rows, prev],
        collector_coop=y_coop[rows, prev],
        u_p=payoff.u_p[realized],
        u_c=payoff.u_c[realized],
    )
    return result, trace


@dataclass(frozen=True)
class ComparisonReport:
    """z-scores of a simulation against the closed-form stationary values."""

    z_frequencies: np.ndarray
    z_s_p: float
    z_s_c: float
    max_abs_z: float
    flagged: bool              # any |z| > 4

    def as_dict(self) -> dict:
        return {
            "z_frequencies": [float(x) for x in self.z_frequencies],
            "z_s_p": self.z_s_p, "z_s_c": self.z_s_c,
            "max_abs_z": self.max_abs_z, "flagged": self.flagged,
        }


def _z(diff: float, se: float) -> float:
    if diff == 0.0:
        return 0.0
    if se == 0.0:
        return float("inf") if diff > 0 else float("-inf")
    return diff / se


def compare_to_analytic(result: SimResult, p, q,
                        params: GameParams) -> ComparisonReport:
    """Compare empirical frequencies and payoffs against the stationary
    solve for the same strategies.  Propagates the reducible-chain error
    when the analytic side is undefined."""
    analytic = expected_payoffs(p, q, params)
    zf = np.array([
        _z(float(result.state_frequencies[k] - analytic.v[k]),
           float(result.se_frequencies[k]))
        for k in range(4)
    ])
    zp = _z(result.s_p - analytic.s_p, result.se_s_p)
    zc = _z(result.s_c - analytic.s_c, result.se_s_c)
    finite = np.concatenate([zf, [zp, zc]])
    max_abs = float(np.max(np.abs(finite)))
    return ComparisonReport(
        z_frequencies=zf, z_s_p=float(zp), z_s_c=float(zc),
        max_abs_z=max_abs, flagged=bool(max_abs > 4.0),
    )
