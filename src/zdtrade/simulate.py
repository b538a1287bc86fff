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

A round's play is a function of the state before it, {0..3} -> {0..3},
fixed by its four uniforms: one byte, whose bits 2k..2k+1 hold the state
after the round when the state before it was k.  The uniforms' eight
comparisons make the round's draw code, and a 256-entry table turns the
code into the byte.  Two rounds compose by one lookup in a 65,536-entry
table, so the trajectory is a prefix composition (Blelloch 1990) of the
run's bytes, folded in place: a run keeps one byte per round for its
states and peaks at ~10 bytes per round (tracemalloc, 1e6 rounds), ~24
with its trace and the trace's CSV written to a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._text import plain, table, write_csv
from .markov import CollectorStrategy, ProviderStrategy, expected_payoffs
from .payoffs import (GameParams, STATE_NAMES, StateIndex, build_payoffs,
                      check_count, check_seed)

# Batches used for the batch-means standard errors (round averages of a
# Markov chain are autocorrelated, so naive i.i.d. errors would lie).
BATCH_COUNT = 100

# play_rounds draws _BLOCK rounds at a time and folds the run in chunks of
# _CHUNK rounds; neither changes a result.
_BLOCK = 1 << 16
_CHUNK = 128

# A next-state function of {0..3} as a byte: bits 2k..2k+1 hold the image of
# state k.  This one maps every state to itself.
_IDENTITY = 0b11100100

# A run peaks at ~10 bytes per round without a trace and ~24 with
# collect_trace and Trace.to_csv into a file (tracemalloc at 1e6 rounds;
# ~20 and ~33 at 2e5, where the fixed block buffers weigh more): the
# ceiling keeps one call under ~0.4 GB.
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

    as_dict = plain


def _batch_se(x: np.ndarray) -> float:
    """Standard error of the mean of x via non-overlapping batch means."""
    n = x.size
    if n < 2 * BATCH_COUNT:
        return float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    size = n // BATCH_COUNT
    means = x[:BATCH_COUNT * size].reshape(BATCH_COUNT, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(BATCH_COUNT))


def _state_frequencies(used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frequency of each state in `used` and its batch-means standard
    error, bit for bit _batch_se of the state's 0/1 series.

    A batch of 0/1 floats sums to an exact integer, so each batch mean is
    the state's count in the batch over the batch size, and the series is
    never made as floats.
    """
    n = used.size
    size = n // BATCH_COUNT
    counts, se = [], []
    for k in range(4):
        hit = used == k
        counts.append(np.count_nonzero(hit))
        if size < 2:
            se.append(_batch_se(hit.astype(float)))
            continue
        batches = hit[:BATCH_COUNT * size].reshape(BATCH_COUNT, size)
        means = np.array([np.count_nonzero(b) for b in batches]) / size
        se.append(float(means.std(ddof=1) / np.sqrt(BATCH_COUNT)))
    return np.array(counts) / n, np.array(se)


def _gather(values: np.ndarray, states: np.ndarray) -> np.ndarray:
    """values[states], in ~40% of the time of fancy indexing.

    np.take casts its whole index array to intp first, so it runs over
    _BLOCK states at a time.  The states are in range: mode "clip" only
    skips the bounds check and buffered output that took the default mode
    ~6x as long as the gather itself.
    """
    out = np.empty(states.size, dtype=values.dtype)
    for at in range(0, states.size, _BLOCK):
        np.take(values, states[at:at + _BLOCK], out=out[at:at + _BLOCK],
                mode="clip")
    return out


def _mean_se(values: np.ndarray, states: np.ndarray) -> tuple[float, float]:
    """Mean and batch-means standard error of the series values[states],
    which lives only for this call."""
    x = _gather(values, states)
    return float(x.mean()), _batch_se(x)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """(step, compose), built on first use.

    step[code] is the next-state function byte of a round with draw code
    `code` (see _draw_codes).  compose[f * 256 + g] is the byte of the
    function f followed by g.
    """
    bit = [np.arange(256) >> i & 1 for i in range(8)]
    step = 0
    for k in range(4):
        # the provider sees the collector's last action as g after a C, or
        # after a D masked by noise, and plays the entry for (the
        # provider's last action, what was seen): p1 or p2 after C, p3 or
        # p4 after D
        seen_g = 1 if k % 2 == 0 else bit[0]
        x = np.where(seen_g, bit[2 + (k & 2)], bit[3 + (k & 2)])
        # the collector sees g after a C, or after a D masked by noise
        y = np.where(x | bit[1], bit[6], bit[7])
        step = step | (2 * (1 - x) + 1 - y) << 2 * k
    f = np.arange(256, dtype=np.uint8)
    image = np.stack([f >> 2 * s & 3 for s in range(4)])  # image[s, g] = g(s)
    compose = np.zeros((256, 256), dtype=np.uint8)
    for k in range(4):
        compose |= image[f >> 2 * k & 3] << 2 * k
    return step.astype(np.uint8), compose.ravel()


def _draw_codes(u: np.ndarray, config: SimConfig) -> np.ndarray:
    """The uint8 draw code of each round of the uniforms u (rounds, 4).

    From bit 0 up, its bits are u_obs < e2, u_cobs >= e1, u_act < p1..p4,
    u_cact < q1 and u_cact < q2: every comparison a round's play can need.
    """
    u_obs, u_act, u_cobs, u_cact = u.T
    # u_act and u_cact meet four and two thresholds: compare them from
    # contiguous copies, not through the 4-float stride each time
    u_act, u_cact = u_act.copy(), u_cact.copy()
    code = (u_obs < config.params.e2).view(np.uint8)
    bits = [u_cobs >= config.params.e1, *(u_act < p for p in config.p.vector),
            u_cact < config.q.q1, u_cact < config.q.q2]
    for i, b in enumerate(bits, start=1):
        code |= b.view(np.uint8) * (1 << i)
    return code


def _fold(fns: np.ndarray, state: int) -> None:
    """Turn `fns`, the function bytes of consecutive rounds (a multiple of
    _CHUNK of them), in place into the states after each round, entered in
    `state`.

    A chunked prefix composition (Blelloch 1990): _CHUNK array steps over
    every chunk of the run compose each chunk's bytes up to each of its
    rounds through the compose table; one loop over the chunk ends gives
    each chunk's start state; and each prefix, applied to its chunk's start
    state by a shift and a mask, is the state after its round.
    """
    compose = _tables()[1]
    chunks = fns.reshape(-1, _CHUNK)
    # rows[j, c]: the byte of round j of chunk c, then of rounds 0..j of it
    rows = chunks.T.copy()
    for j in range(1, _CHUNK):
        at = np.multiply(rows[j - 1], 256, dtype=np.intp)
        at += rows[j]
        np.take(compose, at, out=rows[j], mode="clip")
    starts = []
    for end in rows[-1].tolist():
        starts.append(state)
        state = end >> 2 * state & 3
    np.right_shift(rows, 2 * np.array(starts, dtype=np.uint8), out=rows)
    rows &= 3
    chunks[...] = rows.T


def play_rounds(config: SimConfig, collect_trace: bool = False):
    """Run the game for config.rounds rounds.

    Returns a SimResult, or (SimResult, Trace) when collect_trace is set.
    Deterministic given the seed: the uniform stream is consumed in the
    fixed order (provider obs, provider action, collector obs, collector
    action), one quadruple per round, whether or not a step needs
    randomness.

    The quadruples are drawn _BLOCK rounds at a time (PCG64 block draws
    continue the one stream exactly).  A round's comparisons make its draw
    code, and a 256-entry table turns the code into the round's next-state
    function: one byte, the state after the round for each state before
    it.  _fold composes the whole run's bytes into the trajectory, in
    place.  This is draw-for-draw identical to a plain sequential loop.
    """
    rounds = config.rounds
    step = _tables()[0]
    payoff = build_payoffs(config.params)
    rng = np.random.default_rng(config.seed)

    # seq[t]: the state before round t+1.  seq[1:] first holds the rounds'
    # function bytes, identity bytes padding the last chunk.
    seq = np.empty(1 + -(-rounds // _CHUNK) * _CHUNK, dtype=np.uint8)
    seq[0] = int(config.initial_state)
    seq[1 + rounds:] = _IDENTITY
    if collect_trace:
        provider_obs_g = np.empty(rounds, dtype=bool)
        collector_obs_g = np.empty(rounds, dtype=bool)
    for start in range(0, rounds, _BLOCK):
        n = min(_BLOCK, rounds - start)
        code = _draw_codes(rng.random((n, 4)), config)
        if start == 0:
            code[0] |= 1                # fictitious round-1 outcome: g
        np.take(step, code, out=seq[1 + start:1 + start + n], mode="clip")
        if collect_trace:
            # a defection seen as g, by the provider and by the collector
            provider_obs_g[start:start + n] = code & 1
            collector_obs_g[start:start + n] = code & 2
    _fold(seq[1:], int(config.initial_state))

    seq = seq[:rounds + 1].view(np.int8)
    realized = seq[1:]
    used = realized[config.burn_in:]
    freq, se_freq = _state_frequencies(used)
    s_p, se_s_p = _mean_se(payoff.u_p, used)
    s_c, se_s_c = _mean_se(payoff.u_c, used)
    result = SimResult(
        state_frequencies=freq, s_p=s_p, s_c=s_c, se_s_p=se_s_p,
        se_s_c=se_s_c, se_frequencies=se_freq, rounds_used=int(used.size),
    )
    if not collect_trace:
        return result

    provider_obs_g |= seq[:-1] % 2 == 0
    collector_obs_g |= realized < 2
    trace = Trace(
        prev_state=seq[:-1],
        provider_obs_g=provider_obs_g,
        provider_coop=realized < 2,
        collector_obs_g=collector_obs_g,
        collector_coop=realized % 2 == 0,
        u_p=_gather(payoff.u_p, realized),
        u_c=_gather(payoff.u_c, realized),
    )
    return result, trace


@dataclass(frozen=True)
class ComparisonReport:
    """z-scores of a simulation against the closed-form stationary values."""

    z_frequencies: np.ndarray
    z_s_p: float
    z_s_c: float
    max_abs_z: float
    flagged: bool              # any |z| > 4, or a NaN z

    as_dict = plain


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
        max_abs_z=max_abs, flagged=not max_abs <= 4.0,   # NaN flags too
    )
