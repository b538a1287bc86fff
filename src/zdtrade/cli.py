"""Batch command-line front end.

Subcommands: payoffs, pin, scan-pin, extort, scan-extort, check-collector,
simulate.  All read a JSON config file with a mandatory "game" section
(flat trading-parameter keys) plus per-command sections; unknown keys are
rejected so typos fail loudly.

Exit codes: 0 success, 2 config/usage error, 3 invalid or degenerate
parameters, 4 a scan produced an empty feasible set.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._text import csv_text, fmt_float
from .collector import check_collector_extortion, check_collector_pinning
from .errors import (BaselineDegenerateError, ConfigError,
                     DegenerateParameterError, InvalidParameterError,
                     NonUniqueStationaryError)
from .extortion import (ExtortionParams, build_extortion_strategy,
                        scan_extortion_region, verify_extortion_relation)
from .markov import CollectorStrategy, ProviderStrategy, expected_payoffs
from .payoffs import (GameParams, STATE_NAMES, StateIndex, build_payoffs,
                      validate_ordering)
from .pinning import (pinning_sensitivity_noise, pinning_sensitivity_strategy,
                      scan_pinning_region, solve_pinning)
from .simulate import SimConfig, compare_to_analytic, play_rounds

_GAME_KEYS = ("c_p", "c_c", "c_p1", "c_c1", "c_p2", "c_c2", "e1", "e2")
_SECTIONS = {
    "game": set(_GAME_KEYS),
    "pinning": {"p1", "p4", "resolution"},
    "extortion": {"l1", "l2", "chi", "phi", "phi_sign", "trials",
                  "e1_grid", "e2_grid", "chi_probe"},
    "simulation": {"rounds", "burn_in", "seed", "initial_state", "p", "q",
                   "trace_path"},
    "output": {"path", "format"},
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, keys in _SECTIONS.items():
        section = cfg.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        bad = set(section) - keys
        if bad:
            raise ConfigError(f"unknown keys in section '{name}': {sorted(bad)}")
    if "game" not in cfg:
        raise ConfigError("missing required section 'game'")
    missing = set(_GAME_KEYS) - set(cfg["game"])
    if missing:
        raise ConfigError(f"missing game parameter keys: {sorted(missing)}")
    return cfg


def _number(section: dict, key: str, where: str, required: bool = True,
            default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in section '{where}'")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in section '{where}' must be a number")
    return value


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name)
    if section is None:
        raise ConfigError(f"command requires config section '{name}'")
    return section


def _prob_vector(section: dict, key: str, where: str, length: int):
    value = section.get(key)
    if value is None:
        raise ConfigError(f"missing key '{key}' in section '{where}'")
    if (not isinstance(value, list) or len(value) != length
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in value)):
        raise ConfigError(
            f"key '{key}' in section '{where}' must be a list of "
            f"{length} numbers"
        )
    return [float(x) for x in value]


def _grid(section: dict, key: str):
    value = section.get(key)
    if value is None:
        return np.linspace(0.0, 0.9, 10)
    if isinstance(value, list):
        if len(value) < 2 or any(isinstance(x, bool)
                                 or not isinstance(x, (int, float))
                                 for x in value):
            raise ConfigError(f"'{key}' must be a list of >= 2 numbers")
        return np.asarray([float(x) for x in value])
    if isinstance(value, dict):
        bad = set(value) - {"num", "min", "max"}
        if bad:
            raise ConfigError(f"unknown keys in '{key}': {sorted(bad)}")
        num = value.get("num")
        if not isinstance(num, int) or isinstance(num, bool) or num < 2:
            raise ConfigError(f"'{key}.num' must be an integer >= 2")
        lo = _number(value, "min", key, required=False, default=0.0)
        hi = _number(value, "max", key, required=True)
        return np.linspace(float(lo), float(hi), num)
    raise ConfigError(f"'{key}' must be a list or a {{num, min, max}} object")


def _parse_game(cfg: dict) -> GameParams:
    game = cfg["game"]
    for key in _GAME_KEYS:
        _number(game, key, "game")
    return GameParams(**{k: float(game[k]) for k in _GAME_KEYS})


def _output_target(args, cfg: dict):
    out = cfg.get("output", {})
    path = args.out or out.get("path")
    fmt = args.format or out.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return path, fmt


def _emit(artifact: str, path, summary: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(artifact)
        print(summary)
    else:
        sys.stderr.write(summary + "\n")
        sys.stdout.write(artifact)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


def _kv_csv(pairs) -> str:
    return csv_text(["key", "value"], pairs)


def _enforce_ordering(params: GameParams) -> None:
    report = validate_ordering(build_payoffs(params))
    if not report.all_hold:
        failed = [k for k, v in report.as_dict().items()
                  if k.startswith("u_") and not v]
        raise InvalidParameterError(
            f"strict ordering requested but violated: {failed}"
        )


# --------------------------------------------------------------------------
# Command handlers
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
    summary = "\n".join(lines)
    path, fmt = _output_target(args, cfg)
    if fmt == "json":
        artifact = _json_text({"payoffs": pv.as_dict(),
                               "ordering": report.as_dict()})
    else:
        pairs = [(f"u_p_{STATE_NAMES[s]}", float(pv.u_p[s])) for s in StateIndex]
        pairs += [(f"u_c_{STATE_NAMES[s]}", float(pv.u_c[s])) for s in StateIndex]
        pairs += list(report.as_dict().items())
        artifact = _kv_csv(pairs)
    _emit(artifact, path, summary)
    return 0


def _cmd_pin(args, cfg, params):
    section = _section(cfg, "pinning")
    p1 = float(_number(section, "p1", "pinning"))
    p4 = float(_number(section, "p4", "pinning"))
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
    path, fmt = _output_target(args, cfg)
    if fmt == "json":
        artifact = _json_text(payload)
    else:
        artifact = _kv_csv(sorted(payload.items()))
    _emit(artifact, path, summary)
    return 0


def _cmd_scan_pin(args, cfg, params):
    section = cfg.get("pinning", {})
    resolution = _number(section, "resolution", "pinning", required=False,
                         default=101)
    if not isinstance(resolution, int):
        raise ConfigError("pinning.resolution must be an integer")
    grid = scan_pinning_region(params, resolution=resolution, jobs=args.jobs)
    info = grid.summary()
    summary = (f"pinning scan {resolution}x{resolution}: "
               f"{info['feasible_cells']} of {info['cells']} cells feasible; "
               + (f"pinned payoff range [{fmt_float(info['s_c_min'])}, "
                  f"{fmt_float(info['s_c_max'])}] within "
                  f"[A={fmt_float(info['a_const'])}, B={fmt_float(info['b_const'])}]."
                  if info["feasible_cells"] else "feasible region is empty."))
    path, fmt = _output_target(args, cfg)
    artifact = grid.to_csv() if fmt == "csv" else _json_text(info)
    _emit(artifact, path, summary)
    return 0 if info["feasible_cells"] else 4


def _parse_extortion(section, args, need_chi: bool):
    l1 = float(_number(section, "l1", "extortion"))
    l2 = float(_number(section, "l2", "extortion"))
    chi = _number(section, "chi", "extortion", required=need_chi)
    phi = _number(section, "phi", "extortion", required=False)
    phi_sign = section.get("phi_sign", 1)
    if phi_sign not in (1, -1):
        raise ConfigError("extortion.phi_sign must be 1 or -1")
    return l1, l2, chi, phi, phi_sign


def _cmd_extort(args, cfg, params):
    section = _section(cfg, "extortion")
    l1, l2, chi, phi, phi_sign = _parse_extortion(section, args, need_chi=True)
    ext = ExtortionParams(l1=l1, l2=l2, chi=float(chi),
                          phi=None if phi is None else float(phi),
                          phi_sign=phi_sign)
    sol = build_extortion_strategy(params, ext)
    payload = sol.as_dict()
    trials = _number(section, "trials", "extortion", required=False, default=0)
    if sol.feasible and trials:
        seed = args.seed if args.seed is not None else 0
        report = verify_extortion_relation(sol, params, ext, trials=int(trials),
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
    path, fmt = _output_target(args, cfg)
    if fmt == "json":
        artifact = _json_text(payload)
    else:
        flat = {k: v for k, v in payload.items() if not isinstance(v, (list, dict))}
        flat.update({f"p{i+1}": x for i, x in enumerate(sol.p)})
        artifact = _kv_csv(sorted(flat.items()))
    _emit(artifact, path, summary)
    return 0


def _cmd_scan_extort(args, cfg, params):
    section = _section(cfg, "extortion")
    l1, l2, _, _, phi_sign = _parse_extortion(section, args, need_chi=False)
    chi_probe = _number(section, "chi_probe", "extortion", required=False)
    e1_grid = _grid(section, "e1_grid")
    e2_grid = _grid(section, "e2_grid")
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
    path, fmt = _output_target(args, cfg)
    artifact = grid.to_csv() if fmt == "csv" else _json_text(info)
    _emit(artifact, path, summary)
    return 0 if info["feasible_cells"] else 4


def _cmd_check_collector(args, cfg, params):
    pin_cert = check_collector_pinning(params)
    payload = {"pinning": pin_cert.as_dict()}
    lines = [f"collector pinning: "
             f"{'infeasible for collector' if pin_cert.holds else 'NOT RULED OUT'} "
             f"(u_p(CC)={fmt_float(pin_cert.lhs)} vs "
             f"u_p(CD)={fmt_float(pin_cert.rhs)}, gap {fmt_float(pin_cert.gap)})"]
    section = cfg.get("extortion")
    if section is not None:
        l1 = float(_number(section, "l1", "extortion"))
        l2 = float(_number(section, "l2", "extortion"))
        ext_cert = check_collector_extortion(params, l1, l2)
        payload["extortion"] = ext_cert.as_dict()
        lines.append(
            f"collector extortion: "
            f"{'infeasible for collector' if ext_cert.holds else 'NOT RULED OUT'} "
            f"(ratio {fmt_float(ext_cert.lhs)} vs {fmt_float(ext_cert.rhs)}, "
            f"gap {fmt_float(ext_cert.gap)})")
    summary = "\n".join(lines)
    path, fmt = _output_target(args, cfg)
    if fmt == "json":
        artifact = _json_text(payload)
    else:
        pairs = []
        for kind, cert in payload.items():
            pairs += [(f"{kind}_{k}", v) for k, v in cert.items()
                      if not isinstance(v, (list, dict)) and v is not None]
        artifact = _kv_csv(pairs)
    _emit(artifact, path, summary)
    return 0


def _cmd_simulate(args, cfg, params):
    section = _section(cfg, "simulation")
    rounds = _number(section, "rounds", "simulation")
    if not isinstance(rounds, int):
        raise ConfigError("simulation.rounds must be an integer")
    burn_in = _number(section, "burn_in", "simulation", required=False, default=0)
    if not isinstance(burn_in, int):
        raise ConfigError("simulation.burn_in must be an integer")
    seed = args.seed if args.seed is not None else _number(
        section, "seed", "simulation", required=False, default=0)
    if not isinstance(seed, int):
        raise ConfigError("simulation.seed must be an integer")
    initial = section.get("initial_state", "CC")
    if initial not in STATE_NAMES:
        raise ConfigError(f"simulation.initial_state must be one of {STATE_NAMES}")
    p = ProviderStrategy(*_prob_vector(section, "p", "simulation", 4))
    q = CollectorStrategy(*_prob_vector(section, "q", "simulation", 2))
    config = SimConfig(params=params, p=p, q=q, rounds=rounds,
                       burn_in=burn_in, seed=seed,
                       initial_state=StateIndex[initial])
    trace_path = section.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise ConfigError("simulation.trace_path must be a string")
    if trace_path:
        result, trace = play_rounds(config, collect_trace=True)
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(trace.to_csv())
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
    path, fmt = _output_target(args, cfg)
    if fmt == "json":
        artifact = _json_text(payload)
    else:
        pairs = [("s_p", result.s_p), ("se_s_p", result.se_s_p),
                 ("s_c", result.s_c), ("se_s_c", result.se_s_c)]
        pairs += [(f"freq_{STATE_NAMES[k]}", float(result.state_frequencies[k]))
                  for k in range(4)]
        pairs.append(("rounds_used", result.rounds_used))
        artifact = _kv_csv(pairs)
    _emit(artifact, path, summary)
    return 0


_HANDLERS = {
    "payoffs": _cmd_payoffs,
    "pin": _cmd_pin,
    "scan-pin": _cmd_scan_pin,
    "extort": _cmd_extort,
    "scan-extort": _cmd_scan_extort,
    "check-collector": _cmd_check_collector,
    "simulate": _cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON run configuration")
    common.add_argument("--out", metavar="PATH",
                        help="artifact file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="artifact format (default from config, else csv)")
    common.add_argument("--seed", type=int,
                        help="override the run seed")
    common.add_argument("--strict-ordering", action="store_true",
                        help="reject parameter sets violating any payoff "
                             "ordering chain")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; scans run in one "
                             "thread and output does not depend on it")
    parser = argparse.ArgumentParser(
        prog="zdtrade",
        description="Zero-determinant strategy analysis for the noisy "
                    "sequential data-trading game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "payoffs": "print the per-state payoff table and ordering report",
        "pin": "solve one pinning strategy at pinning.p1/p4",
        "scan-pin": "scan the (p1, p4) square for feasible pinning cells",
        "extort": "build (and optionally verify) an extortionate strategy",
        "scan-extort": "scan noise space for feasible extortion factors",
        "check-collector": "emit collector-side infeasibility certificates",
        "simulate": "play the game round by round and compare to analytics",
    }
    for name, handler in _HANDLERS.items():
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        params = _parse_game(cfg)
        if args.strict_ordering:
            _enforce_ordering(params)
        return _HANDLERS[args.command](args, cfg, params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, DegenerateParameterError,
            BaselineDegenerateError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 3
    except NonUniqueStationaryError as exc:
        print(f"degenerate chain: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
