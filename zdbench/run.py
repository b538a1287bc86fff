"""zdtrade CLI benchmark.

    python3 zdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  Each operation is `zdtrade.cli.main(argv)` in a fresh Python
process (child.py), timed from outside the call; operations run one after
another (a closed loop with one caller).  Rounds of the workload's
operations repeat while one more round can still end within S seconds.

With --trace 0 the last stdout line holds the end-to-end metrics:
throughput (items of work per second of operation time, median over
rounds), setup_s (spawn until `import zdtrade` returns, median) and
peak_rss_mb (largest peak resident memory of any operation process).
Times in the metrics are scaled to a reference host speed: the vCPUs of a
shared host slow down by up to ~70% for spells of a second or more, so
while an operation runs the benchmark times a fixed probe on the same vCPU
every 50 ms and scales the operation's wall time by the mean speed the
probe saw (see _scaled).  The unscaled wall-clock figures are printed on
the `wall` and `timing` lines.  With
--trace 1 untraced and traced rounds alternate and the last line holds the
per-layer metrics from the traced rounds' spans.  Every operation's
artifacts are checked; a failed check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".zdbench_work")

# Same environment for every operation process on every commit: one BLAS
# thread (the benchmark starts at most nproc = 2 threads), fixed hashing.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "LC_ALL": "C"}
MIN_SETUP_SAMPLES = 15
# Host speed probe: while an operation process runs, the benchmark (on the
# same vCPU) times PROBE_LOOPS steps of _probe every PROBE_INTERVAL_S.
# Reported times are scaled to a host on which they take PROBE_REFERENCE_S.
PROBE_LOOPS = 400
PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 1.5e-4
OP_TIMEOUT_S = 150
LAYERS = ("cli", "text", "payoffs", "pinning", "extortion", "markov",
          "simulate")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--corrupt", choices=("byte", "rows"),
                        help="before the checks, flip one byte of every "
                             "artifact (byte) or the first byte of every "
                             "CSV data row (rows); self-test of the checks")
    return parser.parse_args(argv)


# -- operation processes ----------------------------------------------------

def _probe():
    """Seconds a fixed piece of interpreter work (float formatting, tuple,
    list and dict building) takes right now."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        table[i] = ("%.12g" % (i * 0.7071067811865476), [i])
    return time.perf_counter() - start


def _scaled(seconds, probes, start, end):
    """`seconds` of wall time spent between `start` and `end`, scaled to
    the reference speed by the mean speed the probes saw in that span."""
    inside = [d for t, d in probes if start <= t <= end]
    if not inside:          # a span shorter than the probe interval
        inside = [min(probes, key=lambda p: abs(p[0] - start))[1]]
    return seconds * statistics.mean(PROBE_REFERENCE_S / d for d in inside)


def _spawn(argv, workdir, op_id, trace):
    """Run one operation process; returns its result dict plus set-up time
    and, for an operation, its time at reference speed."""
    spec_path = os.path.join(workdir, f"op{op_id}.spec.json")
    result_path = os.path.join(workdir, f"op{op_id}.result.json")
    err_path = os.path.join(workdir, f"op{op_id}.stderr")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv, "result": result_path, "trace": trace,
                   "op": op_id}, fh)
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC, **CHILD_ENV}
    probes = []          # (CLOCK_MONOTONIC start, seconds)
    with open(err_path, "wb") as err_fh:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path],
                                cwd=workdir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        try:
            while proc.poll() is None:
                now = time.monotonic()
                if now - spawned > OP_TIMEOUT_S:
                    proc.kill()
                    proc.wait()
                    return {"error": f"timed out after {OP_TIMEOUT_S} s"}
                probes.append((now, _probe()))
                time.sleep(PROBE_INTERVAL_S)
        except BaseException:   # interrupted: leave no operation running
            proc.kill()
            proc.wait()
            raise
    with open(err_path, "rb") as fh:
        err = fh.read()[-500:].decode(errors="replace")
    os.remove(err_path)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"error": f"process exited {proc.returncode}: {err}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    os.remove(spec_path)
    result["setup_s"] = result["ready"] - spawned
    result["setup_ref_s"] = _scaled(result["setup_s"], probes, spawned,
                                    result["ready"])
    if "op_s" in result:
        result["op_ref_s"] = _scaled(result["op_s"], probes,
                                     result["op_start"], result["op_end"])
    if not os.path.abspath(result["zdtrade_file"]).startswith(SRC + os.sep):
        result["error"] = f"imported zdtrade from {result['zdtrade_file']}"
    elif argv is not None and result["rc"] != 0:
        result["error"] = f"exit code {result['rc']}: {err}"
    return result


def _corrupt(path, mode):
    """Flip the lowest bit of the middle byte (byte), or of the first byte
    of every row after a CSV header (rows: a digit becomes another digit,
    so every row the checks sample reads a different value)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if mode == "byte":
        middle = len(data) // 2
        data = (data[:middle] + bytes([data[middle] ^ 0x01])
                + data[middle + 1:])
    elif path.endswith(".csv"):
        header, *rows = data.split(b"\n")
        data = b"\n".join([header] + [bytes([r[0] ^ 0x01]) + r[1:] if r
                                      else r for r in rows])
    with open(path, "wb") as fh:
        fh.write(data)


def _run_round(workload, workdir, next_id, traced, corrupt):
    """Run every operation once; returns per-operation records."""
    records = []
    for op in workload.ops:
        res = _spawn(op.argv, workdir, next_id(), traced)
        rec = {"label": op.label, "work": op.work, "problems": [],
               **{key: res.get(key) for key in (
                   "setup_s", "setup_ref_s", "op_s", "op_ref_s", "cpu_s",
                   "maxrss_kb", "trace")}}
        if "error" in res:
            rec["problems"].append(f"{op.label}: {res['error']}")
        else:
            if corrupt:
                for path in op.artifacts:
                    _corrupt(path, corrupt)
            try:
                rec["problems"].extend(workloads.check(op))
            except Exception as exc:  # a crashing check is a failed check
                rec["problems"].append(f"{op.label}: check raised {exc!r}")
            rec["artifact_bytes"] = sum(os.path.getsize(p)
                                        for p in op.artifacts
                                        if os.path.isfile(p))
            rec["sha256"] = {os.path.basename(p): workloads.sha256(p)
                             for p in op.artifacts if os.path.isfile(p)}
        records.append(rec)
    for op in workload.ops:
        for path in op.artifacts:
            if os.path.isfile(path):
                os.remove(path)
    return records


# -- statistics -------------------------------------------------------------

def tail_percentile(values):
    """(p, value) for the highest listed percentile with >= 10 samples
    above it, or None when the sample is too small."""
    ordered = sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        value = _percentile(ordered, p)
        if sum(1 for v in ordered if v > value) >= 10:
            best = (p, value)
    return best


def _percentile(ordered, p):
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _timing_line(name, values, unit="s"):
    tail = tail_percentile(values)
    tail_text = (f", p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
                 else ", no percentile with 10 samples beyond it")
    return (f"timing {name}: median {statistics.median(values):.6g} {unit}"
            f"{tail_text}, n={len(values)}")


# -- per-layer metrics from spans -------------------------------------------

def layer_metrics(records):
    """Per-layer numbers of one traced round (one record per operation)."""
    spans = [s for r in records for s in r["trace"]["spans"]]
    folds = [f for r in records for f in r["trace"]["folds"]]
    by_key = {(s["op"], s["id"]): s for s in spans}

    def under(item, name):
        parent = item["parent"]
        while parent is not None:
            span = by_key[(item["op"], parent)]
            if span["name"] == name:
                return True
            parent = span["parent"]
        return False

    self_time = dict.fromkeys(LAYERS, 0.0)
    for item in spans + folds:
        self_time[item["layer"]] += item["self"]
    main_total = sum(s["end"] - s["start"] for s in spans
                     if s["name"] == "main")

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(items, key):
        return sum(s["counts"].get(key, 0) for s in items)

    csv = named("csv_text")
    rows = total(csv, "rows")
    pin = named("scan_pinning_region")
    scans = named("scan_extortion_region")
    verify = named("verify_extortion_relation")
    markov = [s for s in spans if s["layer"] == "markov"]
    plays = named("play_rounds")
    trials, discarded = total(verify, "trials"), total(verify, "discarded")
    scan_time = {s["counts"]["jobs"]: s["end"] - s["start"] for s in scans}
    rounds = total(plays, "rounds")
    play_self = sum(s["self"] for s in plays)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "text.busy_s": (self_time["text"], "s"),
        "text.rows": (rows, "count"),
        "text.bytes": (total(csv, "bytes"), "bytes"),
        "text.rows_per_s": (ratio(rows, self_time["text"]), "rows/s"),
        "pinning.busy_s": (self_time["pinning"], "s"),
        "pinning.cells": (total(pin, "cells"), "count"),
        "pinning.feasible_ratio": (ratio(total(pin, "feasible"),
                                         total(pin, "cells")), "ratio"),
        "extortion.scan_busy_s": (sum(
            i["self"] for i in spans + folds if i["layer"] == "extortion"
            and (i.get("name") == "scan_extortion_region"
                 or under(i, "scan_extortion_region"))), "s"),
        "extortion.cells": (total(scans, "cells"), "count"),
        "extortion.feasible_ratio": (ratio(total(scans, "feasible"),
                                           total(scans, "cells")), "ratio"),
        "extortion.jobs_speedup": (ratio(scan_time.get(1, 0.0),
                                         scan_time.get(2, 0.0)), "ratio"),
        "extortion.verify_busy_s": (sum(s["self"] for s in verify), "s"),
        "extortion.draws": (trials + discarded, "count"),
        "extortion.draw_yield": (ratio(trials, trials + discarded), "ratio"),
        "payoffs.calls": (sum(f["calls"] for f in folds
                              if f["layer"] == "payoffs"), "count"),
        "payoffs.busy_s": (self_time["payoffs"], "s"),
        "markov.busy_s": (self_time["markov"], "s"),
        "markov.calls": (len(markov), "count"),
        "markov.chains": (total(markov, "chains"), "count"),
        "markov.svd_chains": (total(markov, "svd_chains"), "count"),
        "simulate.busy_s": (self_time["simulate"], "s"),
        "simulate.rounds": (rounds, "count"),
        "simulate.rounds_per_s": (ratio(rounds, play_self), "rounds/s"),
        "simulate.compare_busy_s": (sum(s["end"] - s["start"] for s in
                                        named("compare_to_analytic")), "s"),
        "cli.self_s": (self_time["cli"], "s"),
        "cli.artifact_bytes": (sum(r["artifact_bytes"] for r in records),
                               "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (ratio(self_time[layer], main_total),
                                          "ratio")
    return metrics


COUNT_METRICS = ("text.rows", "text.bytes", "pinning.cells",
                 "pinning.feasible_ratio", "extortion.cells",
                 "extortion.feasible_ratio", "extortion.draws",
                 "extortion.draw_yield", "payoffs.calls", "markov.calls",
                 "markov.chains", "markov.svd_chains", "simulate.rounds",
                 "cli.artifact_bytes")


# -- environment ------------------------------------------------------------

def environment():
    import numpy
    import zdtrade
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "zdtrade": zdtrade.__version__, "nproc": os.cpu_count(),
            "cpu": cpu,
            "loadavg_start": [round(x, 2) for x in os.getloadavg()],
            "child_env": CHILD_ENV}


# -- main -------------------------------------------------------------------

def run(args):
    if args.workload not in workloads.NAMES:
        print(f"zdbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    # The speed probe must run on the vCPU the operation runs on: every
    # process of the run (operations inherit it) is confined to one vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:      # another run is using it
            pass


def _measure(args, workdir):
    workload = workloads.build(args.workload, args.seed, args.scale, workdir)
    print("inputs " + json.dumps(workload.inputs, sort_keys=True))
    ids = iter(range(1, 1 << 30))
    next_id = lambda: next(ids)  # noqa: E731
    warm = _spawn(None, workdir, next_id(), False)   # compiles bytecode
    if "error" in warm:
        print(f"zdbench: cannot start an operation process: {warm['error']}",
              file=sys.stderr)
        return 1

    # Rounds repeat while the next one, as long as the longest so far, can
    # still end within the run time.
    rounds = []          # (traced, records)
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        started = time.monotonic()
        rounds.append((traced, _run_round(workload, workdir, next_id, traced,
                                          args.corrupt)))
        now = time.monotonic()
        longest = max(longest, now - started)
        if len(rounds) >= 1 + args.trace and now + longest > deadline:
            break

    records = [r for _, recs in rounds for r in recs]
    setup = [(r["setup_s"], r["setup_ref_s"]) for r in records
             if r["setup_s"] is not None]
    while len(setup) < MIN_SETUP_SAMPLES:
        probe = _spawn(None, workdir, next_id(), False)
        if "error" in probe:
            break
        setup.append((probe["setup_s"], probe["setup_ref_s"]))

    failed = [r for r in records if r["problems"]]
    problems = collections.Counter(p for r in failed for p in r["problems"])
    for problem, times in problems.items():
        print(f"FAILED ({times}x) {problem}")
    # Rounds in which every operation ran to completion count for timing,
    # also when an output check failed: correctness is reported apart.
    timed = [(t, recs) for t, recs in rounds
             if all(r["op_s"] is not None for r in recs)]
    untraced = [recs for t, recs in timed if not t]
    traced = [recs for t, recs in timed if t]
    items = workloads.ITEMS[args.workload]
    round_s = [sum(r["op_ref_s"] for r in recs) for recs in untraced]
    throughput = [sum(r["work"] for r in recs) / s
                  for recs, s in zip(untraced, round_s)]
    wall_throughput = [sum(r["work"] for r in recs)
                       / sum(r["op_s"] for r in recs) for recs in untraced]

    for label in dict.fromkeys(r["label"] for r in records):
        ops = [r for recs in untraced for r in recs if r["label"] == label]
        if ops:
            cpu = statistics.median(r["cpu_s"] / r["op_s"] for r in ops)
            print(_timing_line(f"{label} operation",
                               [r["op_ref_s"] for r in ops])
                  + "; " + _timing_line("wall", [r["op_s"] for r in ops])
                  + f", CPU/wall {cpu:.3f}")
    if setup:
        print(_timing_line("setup", [ref for _, ref in setup]) + "; "
              + _timing_line("wall", [wall for wall, _ in setup]))
    print(f"error_rate: {len(failed) / len(records):.6g} ratio "
          f"({len(failed)} of {len(records)} operations failed)")
    last = rounds[-1][1]
    print("artifact_sha256 " + json.dumps(
        {k: v for r in last for k, v in r.get("sha256", {}).items()},
        sort_keys=True))

    metrics = {}
    if not args.trace:
        if throughput and setup:
            metrics["throughput"] = {"value": statistics.median(throughput),
                                     "unit": "items/s"}
            metrics["setup_s"] = {"value": statistics.median(
                ref for _, ref in setup), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": max(r["maxrss_kb"]
                                                   for r in records
                                                   if r["maxrss_kb"]) / 1024,
                                      "unit": "MB"}
            print(f"throughput: {statistics.median(throughput):.6g} "
                  f"{items}/s over {len(throughput)} rounds")
            print("wall " + json.dumps({
                "throughput": statistics.median(wall_throughput),
                "setup_s": statistics.median(wall for wall, _ in setup)}))
    elif traced and untraced:
        per_round = [layer_metrics(recs) for recs in traced]
        for name in COUNT_METRICS:
            if len({m[name][0] for m in per_round}) != 1:
                print(f"WARNING count {name} differs between traced rounds: "
                      f"{[m[name][0] for m in per_round]}")
        for name, (value, unit) in per_round[0].items():
            if name not in COUNT_METRICS:
                value = statistics.median(m[name][0] for m in per_round)
            metrics[name] = {"value": value, "unit": unit}
        traced_s = statistics.median(sum(r["op_ref_s"] for r in recs)
                                     for recs in traced)
        metrics["trace.overhead"] = {"value": traced_s /
                                     statistics.median(round_s),
                                     "unit": "ratio"}
        shares = {layer: metrics[f"{layer}.self_share"]["value"]
                  for layer in LAYERS}
        top = max(shares, key=shares.get)
        predicted = workloads.PREDICTED_TOP_LAYER[args.workload]
        combined = sum(shares[layer] for layer in predicted)
        held = all(combined >= v for k, v in shares.items()
                   if k not in predicted)
        print("self_share " + json.dumps({k: round(v, 4)
                                          for k, v in shares.items()}))
        print(f"prediction: largest self-time share is {top}; predicted "
              f"{'+'.join(predicted)} ({combined:.4f}) "
              f"{'HOLDS' if held else 'DOES NOT HOLD'}")
        spans_path = os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([[dict(r["trace"], label=r["label"]) for r in recs]
                       for recs in traced], fh)
        print("spans of the traced rounds: "
              + os.path.relpath(spans_path, ROOT))

    if not metrics:
        print("zdbench: no round completed; nothing to report",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "zdtrade", "__init__.py")):
        print(f"zdbench: no zdtrade sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
