"""Self-test of the benchmark at tiny input sizes.

    python3 zdbench/selftest.py
    python -m pytest zdbench/selftest.py      (the same tests)

Runs every workload and asserts that
* every metric named in BENCHMARK.json is printed with its unit, and the
  untouched artifacts pass every check;
* one flipped byte in each artifact raises the error rate above 0;
* at a seed without golden hashes, a changed value in every CSV row fails
  the sampled row checks (`solve_pinning`, `chi_bounds`, trace rows);
* per-layer counts repeat exactly across two traced runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import COUNT_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, NAMES  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, *extra, seed=DEFAULT_SEED, stdout=False):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result, proc.stdout) if stdout else result


def _assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], (m["name"], printed)
        assert isinstance(printed["value"], (int, float))


def test_every_metric_printed_with_unit():
    spec = _spec()
    for workload in NAMES:
        result = _run(workload, 0)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        _assert_metrics(result, spec["end_to_end"])


def test_flipped_byte_counts_as_failure():
    for workload in NAMES:
        result = _run(workload, 0, "--corrupt", "byte")
        assert result["attempted"] >= 1
        assert result["failed"] / result["attempted"] > 0, workload
        assert result["correct"] is False


# The sampled check that each CSV-writing workload must fail on.
SAMPLED_PROBLEM = {"pin-grid": "pin-grid cell", "extort-scan":
                   "extort-scan cell", "sim-sweep": "trace round"}


def test_changed_rows_fail_sampled_checks():
    seed = DEFAULT_SEED + 1
    for workload, problem in SAMPLED_PROBLEM.items():
        clean = _run(workload, 0, seed=seed)
        assert clean["correct"], (workload, clean)
        result, stdout = _run(workload, 0, "--corrupt", "rows", seed=seed,
                              stdout=True)
        assert result["failed"] > 0 and not result["correct"], workload
        failures = [line for line in stdout.splitlines()
                    if line.startswith("FAILED")]
        assert failures and all(problem in line for line in failures), (
            workload, failures)


def test_layer_counts_repeat():
    spec = _spec()
    for workload in NAMES:
        first, second = _run(workload, 1), _run(workload, 1)
        _assert_metrics(first, spec["per_layer"])
        for name in COUNT_METRICS:
            assert (first["metrics"][name]["value"]
                    == second["metrics"][name]["value"]), (workload, name)


if __name__ == "__main__":
    for test in (test_every_metric_printed_with_unit,
                 test_flipped_byte_counts_as_failure,
                 test_changed_rows_fail_sampled_checks,
                 test_layer_counts_repeat):
        test()
        print(f"ok {test.__name__}")
