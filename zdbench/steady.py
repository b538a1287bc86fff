"""Run-to-run steadiness of the end-to-end metrics.

    python3 zdbench/steady.py --runs 10 [--same-seed N] [--workloads ...]
                              [--against SET.json] [--out SET.json]

Runs the benchmark (--trace 0, run_seconds from BENCHMARK.json) `runs`
times on each workload, interleaving the workloads so that a slow spell of
the host touches all of them alike.  Run i uses seed i (1..runs), or seed N
every time with --same-seed, which leaves only host noise.  For every
end-to-end metric it reports the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median.  A metric is steady when its spread is below a
third of its bound.  With --against, each median is also compared with the
same metric's median in an earlier set, and the shift must stay within
the bound.  The unscaled wall-clock figures (run.py's `wall` line) are
reported alongside but not judged.  With --out the raw results and the
table are written as JSON.  Exits 1 when a run fails or a check does not
hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def _run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return next((json.loads(line[len(tag) + 1:]) for line in lines
                     if line.startswith(tag + " ")), None)

    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed}: FAILED\n{proc.stdout[-2000:]}"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return {"seed": seed, "env": tagged("env"), "wall": tagged("wall"),
            "result": result}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--same-seed", type=int)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--against")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    runs = {w: [] for w in args.workloads}
    for i in range(1, args.runs + 1):
        seed = i if args.same_seed is None else args.same_seed
        for workload in args.workloads:
            runs[workload].append(_run(workload, seed, spec["run_seconds"]))

    ok = all(r["result"] and r["result"]["correct"]
             for rs in runs.values() for r in rs)
    report = {"run_seconds": spec["run_seconds"], "same_seed": args.same_seed,
              "workloads": {}}
    for workload in args.workloads:
        done = [r for r in runs[workload] if r["result"]]
        table, wall = {}, {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["result"]["metrics"][name]["value"] for r in done]
            if len(values) < 2:
                ok = False
                continue
            q1, q3, s = spread(values)
            median = statistics.median(values)
            row = {"median": median, "q1": q1, "q3": q3, "spread": s,
                   "bound": bound, "steady": s < bound / 3}
            line = (f"{workload:14s} {name:12s} median {median:12.6g} "
                    f"spread {s:7.4f} (bound/3 {bound / 3:.4f}) "
                    f"{'steady' if row['steady'] else 'NOT STEADY'}")
            before = (earlier or {}).get(workload, {}).get(
                "metrics", {}).get(name)
            if before:
                worse = 1 if metric["better"] == "lower" else -1
                shift = worse * (median - before["median"]) / before["median"]
                row["shift_vs_earlier"] = shift
                row["within_bound_vs_earlier"] = abs(shift) <= bound
                line += (f"; vs earlier set {shift:+.4f} "
                         f"{'ok' if abs(shift) <= bound else 'OUT OF BOUND'}")
                ok = ok and row["within_bound_vs_earlier"]
            ok = ok and row["steady"]
            table[name] = row
            print(line, flush=True)
        for name in (done[0]["wall"] or {}) if done else ():
            values = [r["wall"][name] for r in done]
            q1, q3, s = spread(values)
            wall[name] = {"median": statistics.median(values), "q1": q1,
                          "q3": q3, "spread": s}
            print(f"{workload:14s} {name:12s} (wall, unscaled) median "
                  f"{wall[name]['median']:12.6g} spread {s:7.4f}")
        report["workloads"][workload] = {"runs": runs[workload],
                                         "metrics": table, "wall": wall}
    report["all_checks_hold"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
