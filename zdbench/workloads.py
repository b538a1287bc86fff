"""Seeded inputs, operations and output checks of the four workloads.

Every workload draws its varied inputs from the benchmark seed, writes them
as CLI config files (the program sees nothing else) and lists its
operations.  Each operation is one `zdtrade.cli.main(argv)` call; a round is
the workload's operations run once in order.  `check` returns the problems
found in one operation's artifacts (an empty list means it passed).

Checks, in addition to the exit code:
* at DEFAULT_SEED every artifact must match the sha256 in golden.json;
* on every seed a seeded sample of rows is recomputed with the scalar
  library references (`solve_pinning`, `chi_bounds`,
  `chi_feasible_interval`, `build_payoffs`), the verification report must
  have max_residual <= 1e-9 and the requested trial count, and simulator
  comparisons must not be flagged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
SAMPLE_ROWS = 256
RESIDUAL_LIMIT = 1e-9
REL_TOL = 1e-9          # artifacts print 12 significant digits

SIZES = {
    "full": {"pin_resolution": 1001, "extort_grid": 200, "trials": 100_000,
             "sim_rounds": 1_000_000, "sim_pairs": 5, "trace_rounds": 200_000},
    "tiny": {"pin_resolution": 41, "extort_grid": 20, "trials": 2_000,
             "sim_rounds": 20_000, "sim_pairs": 2, "trace_rounds": 5_000},
}

# What one item of work is, per workload (throughput is items per second).
ITEMS = {"pin-grid": "cells", "extort-scan": "cells",
         "extort-verify": "opponents", "sim-sweep": "rounds"}

# Layer expected to have the largest self-time share on each workload.
PREDICTED_TOP_LAYER = {"pin-grid": ("text",),
                       "extort-scan": ("extortion", "payoffs"),
                       "extort-verify": ("markov",),
                       "sim-sweep": ("simulate",)}

# Game of the workloads whose issue-given varied inputs leave it fixed
# (the test suite's baseline parameter set).
BASE_GAME = {"c_p": 5.0, "c_c": 5.0, "c_p1": 2.0, "c_c1": 2.0, "c_p2": 3.0,
             "c_c2": 3.0, "e1": 0.3, "e2": 0.5}

_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden.json")


@dataclass
class Op:
    label: str
    argv: list
    artifacts: list
    work: int
    checks: list = field(default_factory=list)   # callables(op) -> problems


@dataclass
class Workload:
    inputs: dict
    ops: list


def _draw_game(rng) -> dict:
    """Trading parameters to three decimals, with noise levels away from
    the degenerate e = 1 edge."""
    r = lambda lo, hi: round(float(rng.uniform(lo, hi)), 3)  # noqa: E731
    return {"c_p": r(3, 10), "c_c": r(3, 10), "c_p1": r(0.5, 4),
            "c_c1": r(0.5, 4), "c_p2": r(0.5, 5), "c_c2": r(0.5, 5),
            "e1": r(0.05, 0.8), "e2": r(0.05, 0.8)}


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sample(rng, n: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


# -- pin-grid ---------------------------------------------------------------

def _pin_grid(rng, sizes, workdir):
    from zdtrade import GameParams, scan_pinning_region, solve_pinning
    while True:
        game = _draw_game(rng)
        params = GameParams(**game)
        if (abs(solve_pinning(0.5, 0.5, params).d1_const) >= 1e-3
                and scan_pinning_region(params, 21).feasible.any()):
            break
    res = sizes["pin_resolution"]
    cfg = _write_config(os.path.join(workdir, "pin.json"),
                        {"game": game, "pinning": {"resolution": res}})
    out = os.path.join(workdir, "pin.csv")
    cells = _sample(rng, res * res, SAMPLE_ROWS).tolist() + [(res - 1) * res]
    op = Op("scan-pin", ["scan-pin", "--config", cfg, "--out", out], [out],
            res * res, [lambda op: _check_pin(op, params, res, cells)])
    return {"game": game, "resolution": res}, [op]


def _check_pin(op, params, res, cells):
    from zdtrade import solve_pinning
    lines = _read(op.artifacts[0]).split(b"\n")
    if lines[0] != b"p1,p4,feasible,p2,p3,s_c_pinned":
        return [f"pin-grid header is {lines[0][:80]!r}"]
    if len(lines) != res * res + 2 or lines[-1] != b"":
        return [f"pin-grid has {len(lines) - 2} rows, expected {res * res}"]
    axis = np.linspace(0.0, 1.0, res)
    problems = []
    for cell in cells:
        i, j = divmod(cell, res)
        fields = lines[1 + cell].decode().split(",")
        sol = solve_pinning(float(axis[i]), float(axis[j]), params)
        want = (sol.p1, sol.p4, sol.feasible, sol.p2, sol.p3, sol.pinned_s_c)
        got = ([float(fields[0]), float(fields[1]), fields[2] == "true"]
               + [float(x) for x in fields[3:]])
        if got[2] != want[2] or not all(
                _close(g, w) for g, w in zip(got[:2] + got[3:],
                                            want[:2] + want[3:])):
            problems.append(f"pin-grid cell ({i}, {j}) reads {fields}, "
                            f"solve_pinning gives {want}")
    return problems[:5]


# -- extort-scan ------------------------------------------------------------

def _extort_scan(rng, sizes, workdir):
    from zdtrade import GameParams, scan_extortion_region
    axis = {"num": sizes["extort_grid"], "min": 0.0, "max": 0.9}
    game = BASE_GAME
    # Scans whose coarse feasible share is below 0.2 cost ~9% less per cell
    # than those at 0.3-0.6 (README); a band on the share keeps the work per
    # cell alike across seeds.
    coarse = np.linspace(0.0, 0.9, 10)
    while True:
        l1 = round(float(rng.uniform(0.2, 3.0)), 3)
        l2 = round(float(rng.uniform(0.2, 3.0)), 3)
        chi_probe = round(float(rng.uniform(1.1, 3.0)), 3)
        share = scan_extortion_region(GameParams(**game), l1, l2, coarse,
                                      coarse).feasible.mean()
        if 0.3 <= share <= 0.7:
            break
    cfg = _write_config(os.path.join(workdir, "extort-scan.json"),
                        {"game": game,
                         "extortion": {"l1": l1, "l2": l2,
                                       "chi_probe": chi_probe,
                                       "e1_grid": axis, "e2_grid": axis}})
    n = sizes["extort_grid"]
    params = GameParams(**game)
    cells = _sample(rng, n * n, SAMPLE_ROWS).tolist()
    ops = []
    for jobs in (1, 2):
        out = os.path.join(workdir, f"extort-jobs{jobs}.csv")
        ops.append(Op(f"scan-extort-jobs{jobs}",
                      ["scan-extort", "--config", cfg, "--out", out,
                       "--jobs", str(jobs)], [out], n * n,
                      [lambda op: _check_extort_scan(op, params, l1, l2, n,
                                                     cells)]))
    first = ops[0].artifacts[0]
    ops[1].checks.append(
        lambda op: [] if _read(op.artifacts[0]) == _read(first)
        else ["scan-extort --jobs 2 CSV differs from --jobs 1"])
    return ({"game": game, "l1": l1, "l2": l2, "chi_probe": chi_probe,
             "grid": n}, ops)


def _check_extort_scan(op, params, l1, l2, n, cells):
    from zdtrade import chi_bounds, chi_feasible_interval
    from zdtrade.errors import BaselineDegenerateError
    lines = _read(op.artifacts[0]).split(b"\n")
    if lines[0] != b"e1,e2,chi_lower,chi_upper,feasible":
        return [f"extort-scan header is {lines[0][:80]!r}"]
    if len(lines) != n * n + 2:
        return [f"extort-scan has {len(lines) - 2} rows, expected {n * n}"]
    axis = np.linspace(0.0, 0.9, n)
    problems = []
    for cell in cells:
        i, j = divmod(cell, n)
        fields = lines[1 + cell].decode().split(",")
        p = params.replace_noise(e1=float(axis[i]), e2=float(axis[j]))
        try:
            lo, hi, _ = chi_bounds(p, l1, l2)
        except BaselineDegenerateError:
            lo = hi = math.nan
        interval = chi_feasible_interval(p, l1, l2)
        feasible = interval.nonempty and interval.upper > 1
        got = [float(x) for x in fields[:4]]
        want = [float(axis[i]), float(axis[j]), lo, hi]
        if (fields[4] != ("true" if feasible else "false")
                or not all(_close(g, w) for g, w in zip(got, want))):
            problems.append(f"extort-scan cell ({i}, {j}) reads {fields}, "
                            f"references give {want + [feasible]}")
    return problems[:5]


# -- extort-verify ----------------------------------------------------------

def _extort_verify(rng, sizes, workdir):
    # Fixed strategy (feasible at chi 1.5, entries inside (0, 1), so random
    # opponents' chains are irreducible); the seed draws the opponents.
    game, l1, l2 = BASE_GAME, 1.0, 2.0
    trials = sizes["trials"]
    opponent_seed = int(rng.integers(2**31))
    cfg = _write_config(os.path.join(workdir, "extort-verify.json"),
                        {"game": game, "extortion": {"l1": l1, "l2": l2,
                                                     "chi": 1.5,
                                                     "trials": trials}})
    out = os.path.join(workdir, "extort-verify.json.out")
    op = Op("extort", ["extort", "--config", cfg, "--out", out, "--format",
                       "json", "--seed", str(opponent_seed)], [out], trials,
            [lambda op: _check_verify(op, trials)])
    return ({"game": game, "l1": l1, "l2": l2, "chi": 1.5, "trials": trials,
             "opponent_seed": opponent_seed}, [op])


def _check_verify(op, trials):
    report = json.loads(_read(op.artifacts[0])).get("verification")
    if report is None:
        return ["extort artifact has no verification report"]
    problems = []
    if report["trials"] != trials:
        problems.append(f"verification ran {report['trials']} trials, "
                        f"expected {trials}")
    if not report["max_residual"] <= RESIDUAL_LIMIT:
        problems.append(f"verification max_residual {report['max_residual']} "
                        f"exceeds {RESIDUAL_LIMIT}")
    return problems


# -- sim-sweep --------------------------------------------------------------

_TRACE_HEADER = (b"round,prev_state,provider_obs,provider_action,"
                 b"collector_obs,collector_action,u_p,u_c")


def _sim_sweep(rng, sizes, workdir):
    from zdtrade import GameParams, build_payoffs
    game = BASE_GAME
    payoffs = build_payoffs(GameParams(**game))
    runs = [sizes["sim_rounds"]] * sizes["sim_pairs"] + [sizes["trace_rounds"]]
    ops, pairs = [], []
    for k, rounds in enumerate(runs):
        p = [round(float(x), 3) for x in rng.uniform(0.1, 0.9, 4)]
        q = [round(float(x), 3) for x in rng.uniform(0.1, 0.9, 2)]
        sim = {"rounds": rounds, "seed": int(rng.integers(2**31)),
               "p": p, "q": q}
        out = os.path.join(workdir, f"sim{k}.json.out")
        artifacts = [out]
        checks = [lambda op, rounds=rounds: _check_sim(op, rounds)]
        if k == len(runs) - 1:
            sim["trace_path"] = os.path.join(workdir, "trace.csv")
            artifacts.append(sim["trace_path"])
            rows = _sample(rng, rounds - 1, SAMPLE_ROWS // 4).tolist()
            checks.append(lambda op, rounds=rounds, rows=rows:
                          _check_trace(op, payoffs, rounds, rows))
        cfg = _write_config(os.path.join(workdir, f"sim{k}.json"),
                            {"game": game, "simulation": sim})
        label = "simulate-trace" if "trace_path" in sim else f"simulate-{k}"
        ops.append(Op(label, ["simulate", "--config", cfg, "--out", out,
                              "--format", "json"], artifacts, rounds, checks))
        pairs.append({key: v for key, v in sim.items() if key != "trace_path"})
    return {"game": game, "runs": pairs}, ops


def _check_sim(op, rounds):
    payload = json.loads(_read(op.artifacts[0]))
    comparison = payload.get("comparison")
    problems = []
    if payload["result"]["rounds_used"] != rounds:
        problems.append(f"simulate used {payload['result']['rounds_used']} "
                        f"rounds, expected {rounds}")
    if comparison is None:
        problems.append("simulate skipped the analytic comparison")
    elif comparison["flagged"]:
        problems.append(f"simulate comparison flagged: max |z| = "
                        f"{comparison['max_abs_z']}")
    return problems


def _check_trace(op, payoffs, rounds, rows):
    """Each sampled round's payoffs belong to the state its actions form,
    and that state is the next round's previous state."""
    lines = _read(op.artifacts[1]).split(b"\n")
    if lines[0] != _TRACE_HEADER or len(lines) != rounds + 2:
        return [f"trace has header {lines[0][:80]!r} and {len(lines) - 2} "
                f"rows, expected {rounds}"]
    names = ("CC", "CD", "DC", "DD")
    problems = []
    for t in rows:
        row = lines[1 + t].decode().split(",")
        nxt = lines[2 + t].decode().split(",")
        state = names.index(row[3] + row[5])
        ok = (row[0] == str(t + 1) and nxt[1] == names[state]
              and _close(float(row[6]), float(payoffs.u_p[state]))
              and _close(float(row[7]), float(payoffs.u_c[state])))
        if not ok:
            problems.append(f"trace round {t + 1} reads {row}, next {nxt}")
    return problems[:5]


_GENERATORS = {"pin-grid": _pin_grid, "extort-scan": _extort_scan,
             "extort-verify": _extort_verify, "sim-sweep": _sim_sweep}
NAMES = tuple(_GENERATORS)


def build(name: str, seed: int, scale: str, workdir: str) -> Workload:
    """Draw the workload's inputs from `seed` and write its config files."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    inputs, ops = _GENERATORS[name](rng, SIZES[scale], workdir)
    if seed == DEFAULT_SEED:
        golden = load_golden().get(scale, {}).get(name, {})
        for op in ops:
            op.checks.append(lambda op, golden=golden:
                             _check_golden(op, golden))
    return Workload(inputs, ops)


def load_golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path: str) -> str:
    return hashlib.sha256(_read(path)).hexdigest()


def _check_golden(op, golden):
    problems = []
    for path in op.artifacts:
        name = os.path.basename(path)
        want = golden.get(name)
        got = sha256(path)
        if got != want:
            problems.append(f"{name} sha256 {got} differs from golden {want}")
    return problems


def check(op: Op) -> list:
    """All problems with one finished operation's artifacts."""
    for path in op.artifacts:
        if not os.path.isfile(path):
            return [f"{op.label} wrote no {os.path.basename(path)}"]
    problems = []
    for fn in op.checks:
        problems.extend(fn(op))
    return problems
