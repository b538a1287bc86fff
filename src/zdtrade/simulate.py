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

from ._text import plain, table, write_csv
from .markov import CollectorStrategy, ProviderStrategy, expected_payoffs
from .payoffs import (GameParams, STATE_NAMES, StateIndex, build_payoffs,
                      check_count, check_seed)

# Batches used for the batch-means standard errors (round averages of a
# Markov chain are autocorrelated, so naive i.i.d. errors would lie).
BATCH_COUNT = 100

# play_rounds draws _BLOCK rounds at a time and folds them in chunks of
# _CHUNK rounds; neither changes a result.
_BLOCK = 1 << 16
_CHUNK = 128

# A run peaks at ~38-44 bytes per round with collect_trace and Trace.to_csv
# into a file (tracemalloc, 1e6 and 2e5 rounds; ~27 bytes at 1e6 without
# the trace): the ceiling keeps one call under ~0.7 GB.
MAX_ROUNDS = 16_000_000


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
        check_count("rounds", self.rounds, 1, MAX_ROUNDS)
        check_count("burn_in", self.burn_in, 0, self.rounds - 1)
        check_seed(self.seed)


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

    def to_csv(self, out=None) -> str | None:
        """The CSV text, or None after writing it into the binary file
        `out` block by block."""
        # u_p and u_c depend only on the state a round forms: each is a
        # column of the four states' values, coded by that state
        state = (~self.provider_coop).view(np.int8) * 2 + ~self.collector_coop
        at = [int(np.argmax(state == s)) for s in range(4)] if len(self) else []
        return write_csv(
            ["round", "prev_state", "provider_obs", "provider_action",
             "collector_obs", "collector_action", "u_p", "u_c"],
            [range(1, len(self) + 1), table(STATE_NAMES, self.prev_state),
             table("bg", self.provider_obs_g), table("DC", self.provider_coop),
             table("bg", self.collector_obs_g), table("DC", self.collector_coop),
             table(self.u_p[at], state), table(self.u_c[at], state)],
            out)


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
        return plain(self)


def _batch_se(x: np.ndarray) -> float:
    """Standard error of the mean of x via non-overlapping batch means."""
    n = x.size
    if n < 2 * BATCH_COUNT:
        return float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    size = n // BATCH_COUNT
    means = x[:BATCH_COUNT * size].reshape(BATCH_COUNT, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(BATCH_COUNT))


def _fold(table: np.ndarray, state: int) -> np.ndarray:
    """The states reached from `state` through the next-state table
    (rows, 4), rows a multiple of _CHUNK: row t maps the state before
    round t+1 to the state after it.

    A chunked prefix composition (Blelloch 1990): all chunks advance all
    four start states at once, one row per numpy step, then one loop over
    the chunks picks each chunk's real start state and its path.
    """
    chunks = table.shape[0] // _CHUNK
    flat = table.ravel()
    at = np.arange(0, flat.size, 4 * _CHUNK)[:, None]
    # paths[j, c, k]: the state after row j of chunk c entered in state k
    paths = np.empty((_CHUNK, chunks, 4), dtype=np.int8)
    ends = np.broadcast_to(np.arange(4, dtype=np.int8), (chunks, 4))
    for j in range(_CHUNK):
        ends = paths[j] = np.take(flat, at + ends)
        at += 4
    starts = []
    for row in ends.tolist():
        starts.append(state)
        state = row[state]
    return paths[:, np.arange(chunks), starts].T.ravel()


def play_rounds(config: SimConfig, collect_trace: bool = False):
    """Run the game for config.rounds rounds.

    Returns a SimResult, or (SimResult, Trace) when collect_trace is set.
    Deterministic given the seed: the uniform stream is consumed in the
    fixed order (provider obs, provider action, collector obs, collector
    action), one quadruple per round, whether or not a step needs
    randomness.

    The quadruples are drawn _BLOCK rounds at a time (PCG64 block draws
    continue the one stream exactly).  Each block becomes a table of the
    next state for every round and previous state, and _fold walks the
    actual trajectory through it.  This is draw-for-draw identical to a
    plain sequential loop.
    """
    params, rounds = config.params, config.rounds
    p1, p2, p3, p4 = config.p.vector
    q1, q2 = config.q.q1, config.q.q2
    e1, e2 = params.e1, params.e2
    payoff = build_payoffs(params)
    rng = np.random.default_rng(config.seed)

    # seq[t]: the state before round t+1
    seq = np.empty(rounds + 1, dtype=np.int8)
    seq[0] = int(config.initial_state)
    if collect_trace:
        provider_obs_g = np.empty(rounds, dtype=bool)
        collector_obs_g = np.empty(rounds, dtype=bool)
    for start in range(0, rounds, _BLOCK):
        n = min(_BLOCK, rounds - start)
        u_obs, u_act, u_cobs, u_cact = rng.random((n, 4)).T.copy()
        g = u_obs < e2                  # the collector's defection seen as g
        if start == 0:
            g[0] = True                 # fictitious round-1 outcome: g
        c1, c2, c3, c4 = (u_act < p for p in (p1, p2, p3, p4))
        seen_g = u_cobs >= e1           # the provider's defection seen as g
        # the collector defects after the provider played C, or D
        d_after_c = u_cact >= q1
        d_after_d = (seen_g & d_after_c) | (~seen_g & (u_cact >= q2))
        # the provider cooperates after CC, CD, DC, DD
        x = np.stack([c1, (g & c1) | (~g & c2), c3, (g & c3) | (~g & c4)],
                     axis=1)
        table = np.empty((-(-n // _CHUNK) * _CHUNK, 4), dtype=np.int8)
        table[:n] = ((~x).view(np.int8) << 1) | (
            (x & d_after_c[:, None]) | (~x & d_after_d[:, None])).view(np.int8)
        table[n:] = np.arange(4)        # identity rows pad the last chunk
        path = _fold(table, int(seq[start]))[:n]
        seq[start + 1:start + n + 1] = path
        if collect_trace:
            prev = seq[start:start + n]
            provider_obs_g[start:start + n] = g | (prev % 2 == 0)
            collector_obs_g[start:start + n] = seen_g | (path < 2)

    realized = seq[1:]
    used = realized[config.burn_in:]
    counts = np.bincount(used, minlength=4)
    freq = counts / used.size
    up_seq = payoff.u_p[used]
    uc_seq = payoff.u_c[used]
    result = SimResult(
        state_frequencies=freq,
        s_p=float(up_seq.mean()), s_c=float(uc_seq.mean()),
        se_s_p=_batch_se(up_seq), se_s_c=_batch_se(uc_seq),
        se_frequencies=np.array([_batch_se((used == k).astype(float))
                                 for k in range(4)]),
        rounds_used=int(used.size),
    )
    if not collect_trace:
        return result

    trace = Trace(
        prev_state=seq[:-1],
        provider_obs_g=provider_obs_g,
        provider_coop=realized < 2,
        collector_obs_g=collector_obs_g,
        collector_coop=realized % 2 == 0,
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
        return plain(self)


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
