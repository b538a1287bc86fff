"""Batch command-line front end.

Subcommands: payoffs, pin, scan-pin, extort, scan-extort, check-collector,
simulate.  All read a JSON config file with a mandatory "game" section
(flat trading-parameter keys) plus per-command sections.  `_SCHEMA` gives
each key's JSON type (README "CLI" lists them).  The whole config is typed
once, on load: an unknown or wrongly typed key fails in any section, used
by the command or not, so typos fail loudly.  A section set to null counts
as absent.  Ranges, signs and finiteness are checked by the library.  JSON
artifacts are strict JSON: an undefined (NaN) or infinite value is null.

Options may come before or after the command, whether or not
POSIXLY_CORRECT is set.  A long option may be written as any unique prefix
of its name, with its value as the next token or after `=`; `--` ends the
options, so every token after it is positional.  A usage error is returned
as exit code 2, with the usage text on stderr, not raised as SystemExit.

Exit codes: 0 success, 2 config/usage error (also an artifact or trace file
that cannot be written), 3 any other library error: invalid or degenerate
parameters (also a negative seed), 4 a scan produced an empty feasible set.

`main` first fixes glibc's heap thresholds for its whole process
(`_settle_heap`); importing this module sets nothing.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import sys
from types import SimpleNamespace

import numpy as np

from ._text import csv_blocks, fmt_float, plain, table
from .collector import check_collector_extortion, check_collector_pinning
from .errors import (ConfigError, InvalidParameterError,
                     NonUniqueStationaryError, ZdTradeError)
from .extortion import (MAX_GRID_NUM, ExtortionParams,
                        build_extortion_strategy, check_extortion_inputs,
                        scan_extortion_region, verify_extortion_relation)
from .markov import CollectorStrategy, ProviderStrategy
from .payoffs import (GameParams, STATE_NAMES, StateIndex, build_payoffs,
                      check_count, validate_ordering)
from .pinning import (pinning_sensitivity_noise, pinning_sensitivity_strategy,
                      scan_pinning_region, solve_pinning)
from .simulate import SimConfig, compare_to_analytic, play_rounds


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A JSON number that converts to float (NaN and infinity included)."""
    return isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max


def _is_grid(v) -> bool:
    if isinstance(v, list):
        return len(v) >= 2 and all(map(_is_real, v))
    return (isinstance(v, dict) and set(v) <= {"num", "min", "max"}
            and _is_int(v.get("num")) and v["num"] >= 2 and "max" in v
            and _is_real(v["max"]) and _is_real(v.get("min", 0.0)))


def _real_list(n: int):
    return (lambda v: isinstance(v, list) and len(v) == n
            and all(map(_is_real, v)), f"a list of {n} numbers")


_NUMBER = (_is_real, "a number")
_INTEGER = (_is_int, "an integer")
_GRID = (lambda v: v is None or _is_grid(v),
         "a list of >= 2 numbers, an object {num: integer >= 2, "
         "min: number, max: number}, or null")
_PATH = (lambda v: v is None or isinstance(v, str), "a string or null")

# section -> key -> (predicate, expected JSON type), applied by _load_config.
_SCHEMA = {
    "game": {f.name: _NUMBER for f in dataclasses.fields(GameParams)},
    "pinning": {"p1": _NUMBER, "p4": _NUMBER, "resolution": _INTEGER},
    "extortion": {
        "l1": _NUMBER, "l2": _NUMBER, "chi": _NUMBER, "phi": _NUMBER,
        "phi_sign": (lambda v: _is_int(v) and v in (1, -1),
                     "the integer 1 or -1"),
        "trials": _INTEGER, "e1_grid": _GRID, "e2_grid": _GRID,
        "chi_probe": _NUMBER,
    },
    "simulation": {
        "rounds": _INTEGER, "burn_in": _INTEGER, "seed": _INTEGER,
        "initial_state": (lambda v: v in STATE_NAMES,
                          "one of " + ", ".join(STATE_NAMES)),
        "p": _real_list(4), "q": _real_list(2), "trace_path": _PATH,
    },
    "output": {"path": _PATH,
               "format": (lambda v: v in (None, "csv", "json"),
                          '"csv", "json" or null')},
}


def _load_config(path: str) -> dict:
    """Read the config and type every key in it against `_SCHEMA`.

    Sections set to null are dropped, so handlers see them as absent.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    cfg = {name: section for name, section in cfg.items()
           if section is not None}
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        bad = set(section) - set(_SCHEMA[name])
        if bad:
            raise ConfigError(f"unknown keys in section '{name}': {sorted(bad)}")
        for key, value in section.items():
            check, expected = _SCHEMA[name][key]
            if not check(value):
                raise ConfigError(f"{name}.{key} must be {expected}, "
                                  f"got {value!r}")
    return cfg


def _require(cfg: dict, name: str, *keys: str) -> dict:
    """Section `name` of a loaded config, holding every one of `keys`."""
    section = cfg.get(name)
    if section is None:
        raise ConfigError(f"command requires config section '{name}'")
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"missing keys in section '{name}': {missing}")
    return section


def _grid(section: dict, key: str) -> np.ndarray:
    """Noise axis from a typed e1_grid/e2_grid value, 10 points over [0, 0.9]
    when absent; `num` is refused above its ceiling before linspace allocates,
    and the scan judges the values (a non-finite bound gives NaN, quietly)."""
    spec = section.get(key) or {"num": 10, "max": 0.9}
    if isinstance(spec, list):
        return np.asarray([float(x) for x in spec])
    check_count(f"{key}.num", spec["num"], 2, MAX_GRID_NUM)
    with np.errstate(all="ignore"):
        return np.linspace(float(spec.get("min", 0.0)), float(spec["max"]),
                           spec["num"])


def _write(path: str, write) -> None:
    """Call the byte writer `write` with `path` opened as a binary file."""
    try:
        with open(path, "wb") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _enforce_ordering(params: GameParams) -> None:
    report = validate_ordering(build_payoffs(params))
    if not report.all_hold:
        failed = [k for k, v in report.as_dict().items()
                  if k.startswith("u_") and not v]
        raise InvalidParameterError(
            f"strict ordering requested but violated: {failed}"
        )


# --------------------------------------------------------------------------
# Command handlers: each returns (summary, payload, writer, exit_code), where
# writer is the byte writer of the CSV artifact (a grid's `to_csv`), or None
# for a record, whose CSV is the key/value flattening of payload (`_flat`).
# --------------------------------------------------------------------------

def _cmd_payoffs(args, cfg, params):
    pv = build_payoffs(params)
    report = validate_ordering(pv)
    lines = ["state  u_p             u_c"]
    for s in StateIndex:
        lines.append(f"{STATE_NAMES[s]:5s}  {fmt_float(pv.u_p[s]):<15s} "
                     f"{fmt_float(pv.u_c[s])}")
    lines.append("ordering: " + "  ".join(
        f"{k}={'ok' if v else 'VIOLATED'}"
        for k, v in report.as_dict().items() if k.startswith("u_")))
    lines.append("provider is "
                 + ("data-valued" if report.data_valued else
                    "privacy-sensitive" if report.privacy_sensitive else
                    "balanced"))
    payload = {"payoffs": pv.as_dict(), "ordering": report.as_dict()}
    return "\n".join(lines), payload, None, 0


def _cmd_pin(args, cfg, params):
    section = _require(cfg, "pinning", "p1", "p4")
    p1, p4 = float(section["p1"]), float(section["p4"])
    sol = solve_pinning(p1, p4, params)
    payload = sol.as_dict()
    if sol.feasible:
        ds1, ds4 = pinning_sensitivity_strategy(sol)
        de1, de2 = pinning_sensitivity_noise(p1, p4, params)
        payload["ds_dp1"], payload["ds_dp4"] = ds1, ds4
        payload["ds_de1"], payload["ds_de2"] = de1, de2
        summary = (f"pinning at p1={fmt_float(p1)}, p4={fmt_float(p4)}: feasible; "
                   f"collector payoff pinned at {fmt_float(sol.pinned_s_c)} "
                   f"(A={fmt_float(sol.a_const)}, B={fmt_float(sol.b_const)}); "
                   f"gradients dp1={fmt_float(ds1)}, dp4={fmt_float(ds4)}, "
                   f"de1={fmt_float(de1)}, de2={fmt_float(de2)}.")
    else:
        summary = (f"pinning at p1={fmt_float(p1)}, p4={fmt_float(p4)}: "
                   f"INFEASIBLE ({sol.reason}); solved p2={fmt_float(sol.p2)}, "
                   f"p3={fmt_float(sol.p3)}.")
    return summary, payload, None, 0


def _cmd_scan_pin(args, cfg, params):
    resolution = cfg.get("pinning", {}).get("resolution", 101)
    grid = scan_pinning_region(params, resolution=resolution)
    info = grid.summary()
    summary = (f"pinning scan {resolution}x{resolution}: "
               f"{info['feasible_cells']} of {info['cells']} cells feasible; "
               + (f"pinned payoff range [{fmt_float(info['s_c_min'])}, "
                  f"{fmt_float(info['s_c_max'])}] within "
                  f"[A={fmt_float(info['a_const'])}, B={fmt_float(info['b_const'])}]."
                  if info["feasible_cells"] else "feasible region is empty."))
    return summary, info, grid.to_csv, 0 if info["feasible_cells"] else 4


def _cmd_extort(args, cfg, params):
    section = _require(cfg, "extortion", "l1", "l2", "chi")
    phi = section.get("phi")
    ext = ExtortionParams(l1=float(section["l1"]), l2=float(section["l2"]),
                          chi=float(section["chi"]),
                          phi=None if phi is None else float(phi),
                          phi_sign=section.get("phi_sign"))
    sol = build_extortion_strategy(params, ext)
    payload = sol.as_dict()
    trials = section.get("trials", 0)
    if sol.feasible and trials:
        seed = args.seed if args.seed is not None else 0
        report = verify_extortion_relation(sol, params, ext, trials=trials,
                                           rng=seed)
        payload["verification"] = report.as_dict()
        verified = (f"; relation verified over {report.trials} opponents, "
                    f"max residual {fmt_float(report.max_residual)}, "
                    f"{report.discarded} reducible draws discarded")
    else:
        verified = ""
    verdict = "feasible" if sol.feasible else "INFEASIBLE"
    summary = (f"extortion chi={fmt_float(sol.chi)}, phi={fmt_float(sol.phi)}: "
               f"{verdict}; p=({', '.join(fmt_float(x) for x in sol.p)}); "
               f"chi bounds [{fmt_float(sol.chi_lower)}, "
               f"{fmt_float(sol.chi_upper)}]{verified}.")
    return summary, payload, None, 0


def _cmd_scan_extort(args, cfg, params):
    section = _require(cfg, "extortion", "l1", "l2")
    l1, l2 = float(section["l1"]), float(section["l2"])
    phi = section.get("phi")
    phi_sign = check_extortion_inputs(l1, l2, section.get("phi_sign"),
                                      phi=None if phi is None else float(phi))
    chi_probe = section.get("chi_probe")
    e1_grid, e2_grid = _grid(section, "e1_grid"), _grid(section, "e2_grid")
    grid = scan_extortion_region(params, l1, l2, e1_grid, e2_grid,
                                 phi_sign=phi_sign,
                                 chi_probe=None if chi_probe is None
                                 else float(chi_probe),
                                 jobs=args.jobs)
    info = grid.summary()
    summary = (f"extortion scan {e1_grid.size}x{e2_grid.size} "
               f"(l1={fmt_float(l1)}, l2={fmt_float(l2)}, phi_sign={phi_sign:+d}): "
               f"{info['feasible_cells']} of {info['cells']} cells admit a "
               f"feasible extortion factor.")
    return summary, info, grid.to_csv, 0 if info["feasible_cells"] else 4


def _cmd_check_collector(args, cfg, params):
    pin_cert = check_collector_pinning(params)
    payload = {"pinning": pin_cert.as_dict()}
    lines = [f"collector pinning: "
             f"{'infeasible for collector' if pin_cert.holds else 'NOT RULED OUT'} "
             f"(u_p(CC)={fmt_float(pin_cert.lhs)} vs "
             f"u_p(CD)={fmt_float(pin_cert.rhs)}, gap {fmt_float(pin_cert.gap)})"]
    if "extortion" in cfg:
        section = _require(cfg, "extortion", "l1", "l2")
        ext_cert = check_collector_extortion(params, float(section["l1"]),
                                             float(section["l2"]))
        payload["extortion"] = ext_cert.as_dict()
        lines.append(
            f"collector extortion: "
            f"{'infeasible for collector' if ext_cert.holds else 'NOT RULED OUT'} "
            f"(ratio {fmt_float(ext_cert.lhs)} vs {fmt_float(ext_cert.rhs)}, "
            f"gap {fmt_float(ext_cert.gap)})")
    return "\n".join(lines), payload, None, 0


def _cmd_simulate(args, cfg, params):
    section = _require(cfg, "simulation", "rounds", "p", "q")
    rounds = section["rounds"]
    burn_in = section.get("burn_in", 0)
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    initial = section.get("initial_state", "CC")
    p = ProviderStrategy(*map(float, section["p"]))
    q = CollectorStrategy(*map(float, section["q"]))
    config = SimConfig(params=params, p=p, q=q, rounds=rounds,
                       burn_in=burn_in, seed=seed,
                       initial_state=StateIndex[initial])
    trace_path = section.get("trace_path")
    if trace_path:
        result, trace = play_rounds(config, collect_trace=True)
        _write(trace_path, trace.to_csv)
    else:
        result = play_rounds(config)
    payload = {"config": {"rounds": rounds, "burn_in": burn_in, "seed": seed,
                          "initial_state": initial},
               "result": result.as_dict()}
    try:
        comparison = compare_to_analytic(result, p, q, params)
        payload["comparison"] = comparison.as_dict()
        compared = (f"; max |z| vs analytic = "
                    f"{fmt_float(comparison.max_abs_z)}"
                    + (" (FLAGGED)" if comparison.flagged else ""))
    except NonUniqueStationaryError:
        payload["comparison"] = None
        compared = "; analytic comparison skipped (reducible chain)"
    freqs = ", ".join(f"{STATE_NAMES[k]}={fmt_float(result.state_frequencies[k])}"
                      for k in range(4))
    summary = (f"simulated {rounds} rounds (seed {seed}): "
               f"s_p={fmt_float(result.s_p)} +/- {fmt_float(result.se_s_p)}, "
               f"s_c={fmt_float(result.s_c)} +/- {fmt_float(result.se_s_c)}; "
               f"frequencies {freqs}{compared}.")
    return summary, payload, None, 0


_HANDLERS = {
    "payoffs": _cmd_payoffs,
    "pin": _cmd_pin,
    "scan-pin": _cmd_scan_pin,
    "extort": _cmd_extort,
    "scan-extort": _cmd_scan_extort,
    "check-collector": _cmd_check_collector,
    "simulate": _cmd_simulate,
}


_USAGE = """\
usage: zdtrade COMMAND --config PATH [--out PATH] [--format csv|json]
               [--seed N] [--strict-ordering] [--jobs N]
"""
_HELP = _USAGE + """
Zero-determinant strategy analysis for the noisy sequential data-trading
game.  Options may come before or after the command.  --out defaults to
stdout, --format to the config's output.format, else csv; --seed overrides
the run seed; --strict-ordering rejects parameter sets violating any payoff
ordering chain; --jobs is accepted for compatibility and changes nothing.

commands:
  payoffs          print the per-state payoff table and ordering report
  pin              solve one pinning strategy at pinning.p1/p4
  scan-pin         scan the (p1, p4) square for feasible pinning cells
  extort           build (and optionally verify) an extortionate strategy
  scan-extort      scan noise space for feasible extortion factors
  check-collector  emit collector-side infeasibility certificates
  simulate         play the game round by round and compare to analytics
"""
# long option -> whether it takes a value; no name is a prefix of another
_LONG = {"help": False, "strict-ordering": False, "config": True, "out": True,
         "format": True, "seed": True, "jobs": True}


class _UsageError(Exception):
    """A malformed command line, reported as exit code 2."""


def _long_option(token: str, tokens) -> tuple:
    """(name, value) of the long option `token`, written as its name or a
    unique prefix of it, with `=value` or, for an option that takes one,
    the value from the next of `tokens`."""
    name, eq, value = token[2:].partition("=")
    matches = [o for o in _LONG if o.startswith(name)]
    if len(matches) != 1:
        raise _UsageError(f"option --{name} not "
                          + ("a unique prefix" if matches else "recognized"))
    name = matches[0]
    if not _LONG[name]:
        if eq:
            raise _UsageError(f"option --{name} must not have an argument")
    elif not eq:
        value = next(tokens, None)
        if value is None:
            raise _UsageError(f"option --{name} requires argument")
    return name, value


def _parse_args(argv):
    """The command and options of argv, or None for -h/--help.  Options
    are read on both sides of the command, up to a `--`; a usage error
    raises _UsageError naming the offending token."""
    tokens, given, rest = iter(argv), {}, []
    for token in tokens:
        if token == "--":
            rest += tokens                      # the rest are positional
        elif token.startswith("--"):
            name, value = _long_option(token, tokens)
            given[name] = value                 # the last one wins
        elif token.startswith("-") and token != "-":
            for flag in token[1:]:
                if flag != "h":
                    raise _UsageError(f"option -{flag} not recognized")
            given["help"] = ""
        else:
            rest.append(token)
    if "help" in given:
        return None
    if len(rest) != 1 or rest[0] not in _HANDLERS:
        raise _UsageError(
            f"expected one command of {', '.join(_HANDLERS)}, "
            f"got {' '.join(map(repr, rest)) or 'none'}")
    if "config" not in given:
        raise _UsageError("--config is required")
    if given.get("format", "csv") not in ("csv", "json"):
        raise _UsageError(
            f"--format must be csv or json, got {given['format']!r}")
    for name in {"seed", "jobs"} & given.keys():
        try:
            given[name] = int(given[name])
        except ValueError:
            raise _UsageError(f"--{name} must be an integer, "
                              f"got {given[name]!r}") from None
    return SimpleNamespace(
        command=rest[0], config=given["config"], out=given.get("out"),
        format=given.get("format"), seed=given.get("seed"),
        jobs=given.get("jobs", 1), strict_ordering="strict-ordering" in given)


def _settle_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    These are the values glibc's dynamic rule reaches in a long-running
    process (its 64-bit ceiling, and twice that), so a short run starts
    where a long one ends.  At glibc's 128 KiB start values every freed
    block buffer of a few MB goes back to the kernel and the next block
    faults it in again; at these it is reused from the heap.  The setting
    holds for the whole process.  Off glibc (no `mallopt`) it is a no-op.
    `ctypes` is already loaded by numpy; `ctypes.pythonapi` looks `mallopt`
    up in the process's global symbols, as `dlopen(NULL)` does, and caches
    the function.  `ctypes.util` is not used because it can spawn `ldconfig`.
    """
    try:
        mallopt = ctypes.pythonapi.mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)               # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)               # M_TRIM_THRESHOLD
    except (OSError, TypeError, AttributeError):
        pass


def _flat(data, key=""):
    """(key, value) of each leaf of the JSON data `data` that is not None,
    in order; nested dict keys and 0-based list indices are joined by `_`."""
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for k, v in items:
            yield from _flat(v, f"{key}_{k}" if key else str(k))
    elif data is not None:
        yield key, data


def main(argv=None) -> int:
    _settle_heap()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_HELP)
            return 0
        cfg = _load_config(args.config)
        game = _require(cfg, "game", *_SCHEMA["game"])
        params = GameParams(**{k: float(v) for k, v in game.items()})
        if args.strict_ordering:
            _enforce_ordering(params)
        summary, payload, write, code = _HANDLERS[args.command](
            args, cfg, params)
        output = cfg.get("output", {})
        if (args.format or output.get("format") or "csv") == "json":
            data = (json.dumps(plain(payload, strict=True), indent=2,
                               allow_nan=False) + "\n").encode()
            write = lambda out: out.write(data)  # noqa: E731
        elif write is None:
            keys, values = zip(*_flat(plain(payload)))
            write = lambda out: out.writelines(csv_blocks(  # noqa: E731
                ["key", "value"], [table(keys), table(values)]))
        path = args.out or output.get("path")
        if path:
            _write(path, write)
            print(summary)
        else:
            sys.stderr.write(summary + "\n")
            sys.stdout.flush()
            try:
                write(sys.stdout.buffer)
                sys.stdout.buffer.flush()
            except BrokenPipeError:
                pass    # the reader stopped early, as `head` does: end quietly
        return code
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}zdtrade: error: {exc}\n")
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ZdTradeError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
