"""One benchmark operation in its own process, the way a shell user runs it.

    python3 child.py SPEC.json

SPEC holds "argv" (arguments of `zdtrade.cli.main`, or null to only import
the package), "result" (where to write the JSON result), "trace" and "op".
The result gives the CLOCK_MONOTONIC time at which `import zdtrade`
returned (the parent subtracts its spawn time to get set-up time), the
wall and CPU time of the operation (`import zdtrade.cli` and the `main`
call) with its CLOCK_MONOTONIC start and end, its return code, the
process's peak resident memory and, when traced, the recorded spans.
"""

import time
import zdtrade

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"ready": READY, "zdtrade_file": zdtrade.__file__}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(spec["op"])
        result["op_start"] = time.monotonic()
        start, cpu = time.perf_counter(), time.process_time()
        import zdtrade.cli as cli
        if tracer is not None:
            tracer.install()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        result["op_s"] = time.perf_counter() - start
        result["op_end"] = time.monotonic()
        result["cpu_s"] = time.process_time() - cpu
        result["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.records()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
