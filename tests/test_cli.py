import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import zdtrade
from zdtrade import cli
from zdtrade.cli import _SCHEMA, main
from zdtrade.extortion import MAX_GRID_NUM, scan_extortion_region
from zdtrade.markov import CollectorStrategy, ProviderStrategy
from zdtrade.pinning import MAX_RESOLUTION, scan_pinning_region
from zdtrade.simulate import SimConfig, play_rounds

from conftest import csv_of


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "game": {"c_p": 5, "c_c": 5, "c_p1": 2, "c_c1": 2, "c_p2": 3,
                 "c_c2": 3, "e1": 0.3, "e2": 0.5},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_payoffs_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["payoffs", "--config", cfg]) == 0
    out = capsys.readouterr()
    assert "CC     5" in out.err or "CC     5" in out.out
    text = out.err + out.out
    assert "u_p_cc_dc_dd=VIOLATED" in text
    assert "data-valued" in text


def test_payoffs_json_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_file = tmp_path / "payoffs.json"
    assert main(["payoffs", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["payoffs"]["u_p"] == [5.0, 4.5, 3.5, 3.6]
    assert payload["ordering"]["u_c_cd_dd_dc"] is False


@pytest.mark.parametrize("c_p1, kind, flags", [
    (6, "privacy-sensitive", (False, True)),    # c_p < c_p1
    (5, "balanced", (False, False)),            # c_p == c_p1
])
def test_payoffs_classifies_the_provider(tmp_path, capsys, c_p1, kind, flags):
    cfg = write_config(tmp_path, game={"c_p": 5, "c_c": 5, "c_p1": c_p1,
                                       "c_c1": 2, "c_p2": 3, "c_c2": 3,
                                       "e1": 0.3, "e2": 0.5})
    assert main(["payoffs", "--config", cfg, "--format", "json"]) == 0
    out = capsys.readouterr()
    assert out.err.endswith(f"\nprovider is {kind}\n")
    ordering = json.loads(out.out)["ordering"]
    assert (ordering["data_valued"], ordering["privacy_sensitive"]) == flags


def test_missing_key_exit_2(tmp_path, capsys):
    cfg = {"game": {"c_p": 5, "c_c": 5, "c_p1": 2, "c_c1": 2, "c_p2": 3,
                    "c_c2": 3, "e1": 0.3}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["payoffs", "--config", str(path)]) == 2
    assert "e2" in capsys.readouterr().err


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"p1": 0.5, "p4": 0.5, "bogus": 1})
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"]["bogus"] = raw["pinning"].pop("bogus")
    game_cfg = tmp_path / "game.json"
    game_cfg.write_text(json.dumps(raw))
    for path, section in [(cfg, "pinning"), (str(game_cfg), "game")]:
        assert main(["pin", "--config", path]) == 2
        assert (f"unknown keys in section '{section}': ['bogus']"
                in capsys.readouterr().err)


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["payoffs", "--config", str(path)]) == 2


def test_invalid_value_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"]["c_p"] = -1
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["payoffs", "--config", cfg]) == 3


def test_degenerate_e2_pinning_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"p1": 0.5, "p4": 0.5})
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"]["e2"] = 1.0
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["pin", "--config", cfg]) == 3
    assert "e2" in capsys.readouterr().err


def test_strict_ordering_rejects_baseline(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["payoffs", "--config", cfg, "--strict-ordering"]) == 3
    err = capsys.readouterr().err
    assert "u_p_cc_dc_dd" in err


def test_strict_ordering_accepts_conforming(tmp_path, capsys):
    cfg = write_config(tmp_path)
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"].update({"e1": 0.5, "e2": 0.9})
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["payoffs", "--config", cfg, "--strict-ordering"]) == 0


def test_pin_json_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"p1": 0.9, "p4": 0.1})
    out_file = tmp_path / "pin.json"
    assert main(["pin", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["feasible"] is True
    assert payload["pinned_s_c"] == pytest.approx(4.15, abs=1e-12)
    assert payload["ds_de1"] == pytest.approx(-4.5, abs=1e-12)
    summary = capsys.readouterr().out
    assert "feasible" in summary


def test_pin_csv_omits_undefined_values(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"p1": 0.9, "p4": 0.1})
    assert main(["pin", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "None" not in text
    assert "feasible,true" in text.splitlines()
    assert not any(line.startswith("reason,") for line in text.splitlines())
    cfg = write_config(tmp_path, pinning={"p1": 1, "p4": 0})
    assert main(["pin", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "reason,pinned_value_undefined_at_p1_1_p4_0" in lines
    assert "feasible,false" in lines


def test_scan_pin_csv_rows_and_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"resolution": 101})
    out_file = tmp_path / "grid.csv"
    assert main(["scan-pin", "--config", cfg, "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "p1,p4,feasible,p2,p3,s_c_pinned"
    assert len(lines) == 1 + 101 * 101
    summary = capsys.readouterr().out
    assert "feasible" in summary
    # summary reports a pinned range inside [A, B] = [3.3, 5]
    assert "[A=3.3, B=5]" in summary


def test_scan_pin_golden_determinism_across_jobs(tmp_path):
    cfg = write_config(tmp_path, pinning={"resolution": 41})
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["scan-pin", "--config", cfg, "--out", str(a)]) == 0
    assert main(["scan-pin", "--config", cfg, "--out", str(b)]) == 0
    assert main(["scan-pin", "--config", cfg, "--out", str(c), "--jobs", "7"]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_scan_pin_empty_region_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"resolution": 31})
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"]["e2"] = 0.99
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    out_file = tmp_path / "grid.csv"
    assert main(["scan-pin", "--config", cfg, "--out", str(out_file)]) == 4
    assert "0 of 961" in capsys.readouterr().out


def test_extort_verified_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       extortion={"l1": 1, "l2": 2, "chi": 1.5, "trials": 300})
    out_file = tmp_path / "ext.json"
    assert main(["extort", "--config", cfg, "--format", "json",
                 "--out", str(out_file), "--seed", "5"]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["feasible"] is True
    assert payload["verification"]["trials"] == 300
    assert payload["verification"]["max_residual"] < 1e-9
    # seeded: identical rerun gives identical artifact
    out2 = tmp_path / "ext2.json"
    assert main(["extort", "--config", cfg, "--format", "json",
                 "--out", str(out2), "--seed", "5"]) == 0
    assert out_file.read_bytes() == out2.read_bytes()


def test_scan_extort_csv_and_empty_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2,
                                            "e1_grid": {"num": 6, "max": 0.8},
                                            "e2_grid": {"num": 5, "max": 0.8}})
    out_file = tmp_path / "escan.csv"
    assert main(["scan-extort", "--config", cfg, "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "e1,e2,chi_lower,chi_upper,feasible"
    assert len(lines) == 1 + 6 * 5

    hostile = write_config(tmp_path, name="hostile.json",
                           extortion={"l1": 6, "l2": 10,
                                      "e1_grid": {"num": 4, "max": 0.6},
                                      "e2_grid": {"num": 4, "max": 0.6}})
    assert main(["scan-extort", "--config", hostile,
                 "--out", str(tmp_path / "h.csv")]) == 4


def test_check_collector_verdicts(tmp_path, capsys):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2})
    assert main(["check-collector", "--config", cfg]) == 0
    out = capsys.readouterr()
    text = out.out + out.err
    assert "infeasible for collector" in text
    out_file = tmp_path / "certs.json"
    assert main(["check-collector", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["pinning"]["holds"] is True
    assert payload["extortion"]["holds"] is True


def test_non_finite_baselines_exit_3(tmp_path, capsys):
    # json.dumps writes NaN and json.loads reads it back: the library must
    # reject it instead of reporting a feasible scan or a certificate
    grid = {"e1_grid": {"num": 10, "max": 0.8}, "e2_grid": {"num": 10, "max": 0.8}}
    cfg = write_config(tmp_path, extortion={"l1": float("nan"), "l2": -2, **grid})
    assert main(["scan-extort", "--config", cfg,
                 "--out", str(tmp_path / "e.csv")]) == 3
    assert main(["check-collector", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert "l1 must be finite" in out.err
    assert "infeasible for collector" not in out.out + out.err


@pytest.mark.parametrize("command", ["extort", "scan-extort",
                                     "check-collector"])
def test_negative_baseline_exits_3_from_every_command(tmp_path, capsys,
                                                      command):
    cfg = write_config(tmp_path, extortion={
        "l1": -1, "l2": 2, "chi": 1.5,
        "e1_grid": {"num": 5, "max": 0.8}, "e2_grid": {"num": 5, "max": 0.8}})
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "artifact")]) == 3
    out = capsys.readouterr()
    assert out.err == "invalid parameters: l1 must be > 0, got -1.0\n"
    assert out.out == ""
    assert not (tmp_path / "artifact").exists()


def test_non_finite_noise_axis_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2,
                                            "e1_grid": [0.1, float("nan")]})
    assert main(["scan-extort", "--config", cfg,
                 "--out", str(tmp_path / "e.csv")]) == 3
    assert "e1_grid values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("command,section,message", [
    ("scan-pin", {"pinning": {"resolution": 10**12}},
     f"resolution must be in [2, {MAX_RESOLUTION}], got {10**12}"),
    ("scan-extort", {"extortion": {"l1": 1, "l2": 2,
                                   "e1_grid": {"num": 10**12, "max": 0.9}}},
     f"e1_grid.num must be in [2, {MAX_GRID_NUM}], got {10**12}"),
    ("scan-extort", {"extortion": {"l1": 1, "l2": 2,
                                   "e2_grid": {"num": MAX_GRID_NUM + 1,
                                               "max": 0.9}}},
     f"e2_grid.num must be in [2, {MAX_GRID_NUM}], got {MAX_GRID_NUM + 1}"),
])
def test_oversized_scan_exit_3_before_allocating(tmp_path, capsys, command,
                                                 section, message):
    cfg = write_config(tmp_path, **section)
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"invalid parameters: {message}\n"
    assert peak < 1_000_000
    assert not out.exists()


def test_simulate_all_cooperate_summary(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       simulation={"rounds": 5000, "seed": 2, "burn_in": 100,
                                   "p": [1, 1, 1, 1], "q": [1, 1]})
    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr()
    text = out.out + out.err
    assert "s_p=5 " in text or "s_p=5," in text or "s_p=5 +/-" in text
    assert "s_c=5" in text


def test_simulate_trace_and_seed_override(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    cfg = write_config(tmp_path,
                       simulation={"rounds": 200, "seed": 2,
                                   "p": [0.7, 0.4, 0.6, 0.3], "q": [0.6, 0.4],
                                   "trace_path": str(trace_path)})
    out_file = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    lines = trace_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 200
    payload = json.loads(out_file.read_text())
    assert payload["config"]["seed"] == 2
    assert main(["simulate", "--config", cfg, "--format", "json",
                 "--out", str(out_file), "--seed", "3"]) == 0
    assert json.loads(out_file.read_text())["config"]["seed"] == 3


def test_simulate_requires_section(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 2
    assert "simulation" in capsys.readouterr().err


def test_probability_range_checked_at_parse(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       simulation={"rounds": 100, "seed": 1,
                                   "p": [1.5, 0.5, 0.5, 0.5], "q": [1, 1]})
    assert main(["simulate", "--config", cfg]) == 3


def test_artifact_to_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"resolution": 5})
    assert main(["scan-pin", "--config", cfg]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("p1,p4,feasible")   # artifact on stdout
    assert "pinning scan" in out.err              # summary on stderr


def test_scan_json_summaries(tmp_path, capsys):
    cfg = write_config(tmp_path, pinning={"resolution": 21},
                       extortion={"l1": 1, "l2": 2,
                                  "e1_grid": {"num": 4, "max": 0.6},
                                  "e2_grid": {"num": 4, "max": 0.6},
                                  "chi_probe": 1.5})
    pin_out = tmp_path / "pin_summary.json"
    assert main(["scan-pin", "--config", cfg, "--format", "json",
                 "--out", str(pin_out)]) == 0
    info = json.loads(pin_out.read_text())
    assert info["cells"] == 441
    assert info["feasible_cells"] > 0
    assert 3.3 <= info["s_c_min"] <= info["s_c_max"] <= 5.0 + 1e-9

    ext_out = tmp_path / "ext_summary.json"
    assert main(["scan-extort", "--config", cfg, "--format", "json",
                 "--out", str(ext_out)]) == 0
    info = json.loads(ext_out.read_text())
    assert info["cells"] == 16
    assert info["chi_probe"] == 1.5
    assert info["probe_feasible_cells"] >= 1


def test_extort_infeasible_still_reports(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       extortion={"l1": 1, "l2": 2, "chi": 5.0, "trials": 100})
    out_file = tmp_path / "ext.json"
    assert main(["extort", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["feasible"] is False
    assert "verification" not in payload
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("extortion", [
    {"l1": 1, "l2": 2, "chi": 1e308},
    {"l1": 1, "l2": 2, "chi": 1.5, "phi": 1e308},
])
def test_extort_near_float_max_is_quietly_infeasible(tmp_path, capsys,
                                                     extortion):
    # the rows overflow to inf and NaN: no RuntimeWarning (an error under
    # this suite's filterwarnings), a strict JSON artifact
    cfg = write_config(tmp_path, extortion={**extortion, "trials": 100})
    assert main(["extort", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    assert payload["feasible"] is False and None in payload["p"]


def test_check_collector_without_extortion_section(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_file = tmp_path / "certs.json"
    assert main(["check-collector", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["pinning"]["holds"] is True
    assert "extortion" not in payload


def test_simulate_initial_state_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       simulation={"rounds": 300, "seed": 4,
                                   "initial_state": "DD",
                                   "p": [0.6, 0.5, 0.4, 0.3], "q": [0.5, 0.5]})
    out_file = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["config"]["initial_state"] == "DD"
    bad = write_config(tmp_path, name="bad_state.json",
                       simulation={"rounds": 300, "seed": 4,
                                   "initial_state": "XX",
                                   "p": [0.6, 0.5, 0.4, 0.3], "q": [0.5, 0.5]})
    assert main(["simulate", "--config", bad]) == 2


def test_unwritable_output_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "dir"
    cfg = write_config(tmp_path, pinning={"resolution": 5})
    out_file = missing / "x.csv"
    assert main(["scan-pin", "--config", cfg, "--out", str(out_file)]) == 2
    assert f"cannot write {out_file}" in capsys.readouterr().err
    trace = missing / "t.csv"
    cfg = write_config(tmp_path, name="sim.json",
                       simulation={"rounds": 100, "p": [0.5] * 4, "q": [0.5] * 2,
                                   "trace_path": str(trace)})
    assert main(["simulate", "--config", cfg]) == 2
    assert f"cannot write {trace}" in capsys.readouterr().err


def test_negative_seed_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       simulation={"rounds": 100, "p": [0.5] * 4, "q": [0.5] * 2},
                       extortion={"l1": 1, "l2": 2, "chi": 1.5, "trials": 10})
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 3
    assert "seed" in capsys.readouterr().err
    assert main(["extort", "--config", cfg, "--seed", "-1"]) == 3
    assert "seed" in capsys.readouterr().err


def test_extort_trials_beyond_ceiling_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2, "chi": 1.5,
                                            "trials": 10**30})
    assert main(["extort", "--config", cfg]) == 3
    assert "trials" in capsys.readouterr().err


def test_simulate_rounds_beyond_ceiling_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       simulation={"rounds": 10**12, "p": [0.5] * 4,
                                   "q": [0.5] * 2})
    assert main(["simulate", "--config", cfg]) == 3
    assert "rounds must be in [1, " in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command, section", [
    ("pin", {"pinning": {"p1": 1, "p4": 0}}),              # pinned value 0/0
    ("extort", {"extortion": {"l1": 1, "l2": 5, "chi": 1.5}}),  # l2 = u_c(CC)
])
def test_json_artifacts_are_strict(tmp_path, capsys, command, section):
    cfg = write_config(tmp_path, **section)
    out_file = tmp_path / "artifact.json"
    assert main([command, "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    undefined = "pinned_s_c" if command == "pin" else "chi_lower"
    assert payload[undefined] is None


_WRONG_TYPES = [(section, key, True) for section, keys in _SCHEMA.items()
                for key in keys]
_WRONG_TYPES += [("output", "path", 2), ("extortion", "trials", 2.7),
                 ("extortion", "trials", float("nan")),
                 ("extortion", "phi_sign", 1.0),
                 pytest.param("game", "c_p", 10 ** 400, id="beyond-float-range")]


@pytest.mark.parametrize("section, key, value", _WRONG_TYPES)
def test_schema_rejects_wrong_type_in_any_section(tmp_path, capsys, section,
                                                  key, value):
    # payoffs reads only the game section: a wrongly typed key fails anyway
    cfg = write_config(tmp_path)
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw.setdefault(section, {})[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["payoffs", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err


@pytest.mark.parametrize("text, message", [
    (None, "config error: cannot read config "),
    ("[]", "config error: config root must be a JSON object"),
    ('{"bogus": {}}', "config error: unknown config sections: ['bogus']"),
    ('{"pinning": 3}', "config error: section 'pinning' must be a JSON object"),
], ids=["missing-file", "list-root", "unknown-section", "number-section"])
def test_config_shape_errors_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["payoffs", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_simulate_reducible_chain_skips_comparison(tmp_path, capsys):
    # CC and DC both absorb: two closed classes, no unique stationary vector
    cfg = write_config(tmp_path, simulation={"rounds": 500, "p": [1, 1, 0, 0],
                                             "q": [1, 1]})
    out_file = tmp_path / "sim.json"
    assert main(["simulate", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["comparison"] is None
    summary = capsys.readouterr().out.strip()
    assert summary.endswith("analytic comparison skipped (reducible chain).")


@pytest.mark.parametrize("command, section, streamed", [
    ("scan-pin", {"pinning": {"resolution": 7}},
     lambda params: scan_pinning_region(params, resolution=7)),
    ("scan-extort", {"extortion": {"l1": 1, "l2": 2, "chi_probe": 1.5,
                                   "e1_grid": {"num": 5, "max": 0.8},
                                   "e2_grid": {"num": 4, "max": 0.8}}},
     lambda params: scan_extortion_region(
         params, 1.0, 2.0, np.linspace(0, 0.8, 5), np.linspace(0, 0.8, 4),
         chi_probe=1.5)),
    ("simulate", {"simulation": {"rounds": 300, "seed": 2,
                                 "p": [0.7, 0.4, 0.6, 0.3], "q": [0.6, 0.4]}},
     lambda params: play_rounds(
         SimConfig(params=params, p=ProviderStrategy(0.7, 0.4, 0.6, 0.3),
                   q=CollectorStrategy(0.6, 0.4), rounds=300, seed=2),
         collect_trace=True)[1]),
], ids=["scan-pin", "scan-extort", "simulate-trace"])
def test_streamed_artifact_bytes(tmp_path, capsysbinary, base_params,
                                 command, section, streamed):
    trace = tmp_path / "trace.csv"
    if command == "simulate":
        section = {"simulation": dict(section["simulation"],
                                      trace_path=str(trace))}
    cfg = write_config(tmp_path, **section)
    out = tmp_path / "artifact.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main([command, "--config", cfg]) == 0
    assert out.read_bytes() == capsysbinary.readouterr().out
    # the trace of simulate, the artifact itself of a scan
    written = trace if command == "simulate" else out
    assert written.read_bytes() == csv_of(streamed(base_params)).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["payoffs", "pin", "extort",
                                     "check-collector", "simulate"])
def test_key_value_artifact_bytes(tmp_path, capsysbinary, command, fmt):
    cfg = write_config(
        tmp_path, pinning={"p1": 0.9, "p4": 0.1},
        extortion={"l1": 1, "l2": 2, "chi": 1.5, "trials": 50},
        simulation={"rounds": 2000, "seed": 7, "p": [0.9, 0.78, 0.08, 0.1],
                    "q": [0.3, 0.7]})
    out = tmp_path / f"artifact.{fmt}"
    assert main([command, "--config", cfg, "--format", fmt,
                 "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main([command, "--config", cfg, "--format", fmt]) == 0
    data = capsysbinary.readouterr().out
    assert data == out.read_bytes()
    if fmt == "csv":
        assert data.startswith(b"key,value\n")
    else:
        assert isinstance(json.loads(data), dict)


def _scalar_cells(value) -> list:
    """The key/value CSV cells that print the JSON value `value` by the
    scalar rule; strict JSON writes NaN and the infinities as null."""
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, int):
        return ["%d" % value]
    if isinstance(value, float):
        return ["%.12g" % value]
    return ["nan", "inf", "-inf"] if value is None else [value]


def _flat_json(data, key="") -> list:
    """(key, value) of every leaf of the JSON value `data`, null ones too,
    in order, by the README rule: nested keys and 0-based list indices
    joined by `_`."""
    if isinstance(data, dict):
        entries = list(data.items())
    elif isinstance(data, list):
        entries = list(enumerate(data))
    else:
        return [(key, data)]
    return [leaf for k, v in entries
            for leaf in _flat_json(v, f"{key}_{k}" if key else f"{k}")]


_KV_CONFIG = {
    "pinning": {"p1": 0.9, "p4": 0.1},
    "extortion": {"l1": 1, "l2": 2, "chi": 1.5, "trials": 50},
    "simulation": {"rounds": 2000, "seed": 7, "p": [0.9, 0.78, 0.08, 0.1],
                   "q": [0.3, 0.7]},
}


# the last item of each case: keys the CSV must print, most of them nested
@pytest.mark.parametrize("command, section, nested", [
    ("extort", {}, {"p_0", "p_3", "phi_range_1", "verification_trials"}),
    ("extort", {"extortion": {"l1": 1, "l2": 2, "chi": 5.0, "trials": 50}},
     {"p_0", "chi_lower"}),                                 # infeasible
    ("simulate", {}, {"config_seed", "result_se_frequencies_3",
                      "comparison_z_frequencies_0", "comparison_max_abs_z"}),
    ("simulate", {"simulation": {"rounds": 500, "p": [1, 1, 0, 0],
                                 "q": [1, 1]}},             # no comparison
     {"config_seed", "result_state_frequencies_0"}),
    ("payoffs", {}, {"payoffs_states_3", "payoffs_u_c_0",
                     "ordering_u_p_cc_gt_cd"}),
    ("pin", {}, {"p1", "ds_de2"}),
    ("pin", {"pinning": {"p1": 1, "p4": 0}}, {"reason"}),   # infeasible
    ("check-collector", {}, {"pinning_conflicting_states_1",
                             "extortion_baselines_0"}),
])
def test_key_value_cells_equal_their_json_values(tmp_path, capsys, command,
                                                 section, nested):
    cfg = write_config(tmp_path, **dict(_KV_CONFIG, **section))
    kv, js = tmp_path / "kv.csv", tmp_path / "kv.json"
    assert main([command, "--config", cfg, "--out", str(kv)]) == 0
    assert main([command, "--config", cfg, "--format", "json",
                 "--out", str(js)]) == 0
    data = json.loads(js.read_text())
    rows = [line.split(",") for line in kv.read_text().splitlines()]
    assert rows[0] == ["key", "value"]
    cells = dict(rows[1:])
    assert len(cells) == len(rows) - 1
    # a null leaf prints only where it was a non-finite float, which strict
    # JSON also writes as null; every other leaf prints, in record order
    flat = [(k, v) for k, v in _flat_json(data) if v is not None or k in cells]
    assert [k for k, _ in flat] == list(cells)
    assert [(k, cells[k]) for k, v in flat
            if cells[k] not in _scalar_cells(v)] == []
    assert nested <= cells.keys()
    # a null record (simulate's comparison on a reducible chain) prints
    # nothing under its name
    assert not [k for k in cells for name, v in data.items()
                if v is None and k.startswith(f"{name}_")]


@pytest.mark.parametrize("command, options, lines", [
    ("check-collector", [], ["pinning_conflicting_states_0,CC",
                             "extortion_baselines_1,2"]),
    ("simulate", ["--seed", "11"], ["config_seed,11"]),
])
def test_key_value_csv_keeps_lists_and_config(tmp_path, capsys, command,
                                              options, lines):
    cfg = write_config(tmp_path, **_KV_CONFIG)
    assert main([command, "--config", cfg, *options]) == 0
    text = capsys.readouterr().out.splitlines()
    assert set(lines) <= set(text)
    assert main([command, "--config", cfg, *options, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert text == ["key,value"] + [f"{k},{_scalar_cells(v)[0]}"
                                    for k, v in _flat_json(data)
                                    if v is not None]


# resolution 5 fails when the file is closed, 101 (~600 kB) on a write
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("resolution", [5, 101])
def test_failed_write_exit_2(tmp_path, capsys, resolution):
    cfg = write_config(tmp_path, pinning={"resolution": resolution})
    assert main(["scan-pin", "--config", cfg, "--out", "/dev/full"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("config error: cannot write /dev/full: ")
    assert out.out == ""


def test_extort_contradicting_phi_sign_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2, "chi": 1.5,
                                            "phi": 0.1, "phi_sign": -1})
    assert main(["extort", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.err == ("invalid parameters: phi_sign -1 contradicts the "
                       "sign of phi 0.1\n")
    assert out.out == ""
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2, "chi": 1.5,
                                            "phi": -0.1, "phi_sign": -1})
    assert main(["extort", "--config", cfg]) == 0


def test_phi_without_phi_sign_picks_one_side_in_every_command(tmp_path,
                                                              capsys):
    ext = {"l1": 1, "l2": 2, "chi": 1.5, "phi": -0.1}
    implicit = write_config(tmp_path, "implicit.json", extortion=ext)
    explicit = write_config(tmp_path, "explicit.json",
                            extortion=dict(ext, phi_sign=-1))
    artifacts = {}
    for command in ("extort", "scan-extort"):
        for name, cfg in (("implicit", implicit), ("explicit", explicit)):
            out = tmp_path / f"{command}-{name}.csv"
            assert main([command, "--config", cfg, "--out", str(out)]) in (0, 4)
            artifacts[command, name] = out.read_bytes()
        assert artifacts[command, "implicit"] == artifacts[command, "explicit"]
    summaries = capsys.readouterr().out.splitlines()
    assert "phi_sign=-1" in summaries[2] and "phi_sign=-1" in summaries[3]


@pytest.mark.parametrize("command", ["extort", "scan-extort"])
@pytest.mark.parametrize("phi, phi_sign, message", [
    (-0.1, 1, "phi_sign +1 contradicts the sign of phi -0.1"),
    (0.1, -1, "phi_sign -1 contradicts the sign of phi 0.1"),
    (0, None, "phi must be nonzero, got 0.0"),
])
def test_phi_side_errors_exit_3_in_every_command(tmp_path, capsys, command,
                                                 phi, phi_sign, message):
    ext = {"l1": 1, "l2": 2, "chi": 1.5, "phi": phi}
    if phi_sign is not None:
        ext["phi_sign"] = phi_sign
    cfg = write_config(tmp_path, extortion=ext)
    assert main([command, "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.err == f"invalid parameters: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize("axis", [{"num": 5, "max": float("inf")},
                                  {"num": 5, "min": -1e308, "max": 1e308}])
def test_non_finite_grid_bound_exit_3_quietly(tmp_path, capsys, axis):
    cfg = write_config(tmp_path, extortion={"l1": 1, "l2": 2, "e1_grid": axis})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan-extort", "--config", cfg]) == 3
    out = capsys.readouterr()
    assert out.err == ("invalid parameters: e1_grid values must be finite "
                       "and lie in [0, 1]\n")


_HUGE = {"c_c": 1e308, "c_c1": 1e308, "c_c2": 1e308, "e1": 0, "e2": 0}


@pytest.mark.parametrize("command, game, section", [
    ("pin", {"c_c1": 1e308}, {"pinning": {"p1": 0, "p4": 1}}),
    ("pin", {"c_c1": 1e308, "e1": 0}, {"pinning": {"p1": 0.5, "p4": 0.5}}),
    ("scan-pin", {"c_c1": 1e308}, {"pinning": {"resolution": 11}}),
    ("scan-extort", _HUGE, {"extortion": {"l1": 1, "l2": 2}}),
    ("simulate", _HUGE, {"simulation": {"rounds": 1000, "p": [0, 0, 0, 0],
                                        "q": [0.3, 0.7]}}),
], ids=["pin-solve", "pin-constants", "scan-pin", "scan-extort", "simulate"])
def test_games_near_float_max_run_without_warnings(tmp_path, command, game,
                                                   section):
    # inf and NaN flow into the verdicts: infeasible cells, null, a flag
    base = json.loads(open(write_config(tmp_path)).read())["game"]
    cfg = write_config(tmp_path, game=dict(base, **game), **section)
    out = tmp_path / "artifact.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--format", "json",
                     "--out", str(out)]) in (0, 4)
    json.loads(out.read_text(), parse_constant=_reject_constant)


def test_closed_stdout_pipe_ends_quietly(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, pinning={"resolution": 5})
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = io.TextIOWrapper(io.FileIO(write_end, "wb"))
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["scan-pin", "--config", cfg]) == 0
    finally:
        stdout.close()
    # the summary alone: the artifact's BrokenPipeError is not reported
    assert capsys.readouterr().err == (
        "pinning scan 5x5: 9 of 25 cells feasible; pinned payoff range "
        "[3.86666666667, 5] within [A=3.3, B=5].\n")


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stdout_artifact_streams_like_out(tmp_path, capfd):
    # a CSV built whole on stdout would double the --out peak at this size
    cfg = write_config(tmp_path, pinning={"resolution": 301})
    out = tmp_path / "grid.csv"
    main(["scan-pin", "--config", cfg, "--out", str(out)])  # build tables
    to_file = _peak(["scan-pin", "--config", cfg, "--out", str(out)])
    capfd.readouterr()
    to_stdout = _peak(["scan-pin", "--config", cfg])
    assert capfd.readouterr().out.encode() == out.read_bytes()
    assert to_stdout / 301**2 < 1.05 * to_file / 301**2


def test_closed_pipe_ends_quietly(tmp_path):
    cfg = write_config(tmp_path, pinning={"resolution": 301})   # ~5 MB CSV
    src = os.path.dirname(os.path.dirname(zdtrade.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zdtrade.cli", "scan-pin", "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert len(proc.stdout.read(64)) == 64
    proc.stdout.close()                 # the reader stops, as `head -c 64` does
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "Error" not in err
    assert "Exception ignored" not in err
    # the summary line alone: nothing is reported about the closed pipe
    assert err.startswith("pinning scan 301x301: ")
    assert err.count("\n") == 1 and err.endswith("\n"), err


# --- front end ----------------------------------------------------------

@pytest.mark.parametrize("argv, token", [
    (["payoffs", "--config", "CFG", "--bogus"], "--bogus"),
    (["payoffs"], "--config"),
    (["payoffs", "--config"], "--config"),
    (["bogus", "--config", "CFG"], "'bogus'"),
    (["--config", "CFG"], "got none"),
    (["payoffs", "extra", "--config", "CFG"], "'extra'"),
    (["payoffs", "--config", "CFG", "--format", "xml"], "'xml'"),
    (["payoffs", "--config", "CFG", "--seed", "abc"], "--seed"),
    (["payoffs", "--config", "CFG", "--jobs", "x"], "--jobs"),
    (["payoffs", "--config", "CFG", "--strict-ordering=1"], "--strict-ordering"),
])
def test_usage_error_returns_2(tmp_path, capsys, argv, token):
    cfg = write_config(tmp_path)
    assert main([cfg if a == "CFG" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: zdtrade COMMAND --config PATH")
    assert token in out.err.splitlines()[-1]
    assert "Traceback" not in out.err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    assert main([flag]) == 0
    assert main(["scan-pin", flag]) == 0   # with a command, and no --config
    out = capsys.readouterr()
    assert out.err == "" and out.out == cli._HELP * 2
    commands = cli._HELP.split("\ncommands:\n")[1].splitlines()
    assert [line.split()[0] for line in commands] == list(cli._HANDLERS)


def test_option_spellings_give_the_same_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       extortion={"l1": 1, "l2": 2, "chi": 1.5, "trials": 50})
    spellings = [
        ["extort", "--config", cfg, "--format", "json", "--seed", "5"],
        ["extort", f"--config={cfg}", "--format=json", "--seed=5"],
        ["--config", cfg, "--format", "json", "--seed", "5", "extort"],
        ["--seed=5", "--format", "json", "extort", "--config", cfg],
    ]
    artifacts = []
    for k, argv in enumerate(spellings):
        out = tmp_path / f"ext{k}.json"
        assert main(argv + ["--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
    assert b'"verification"' in artifacts[0]
    assert artifacts == artifacts[:1] * len(spellings)


def test_option_prefixes_give_the_same_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path)
    raw = json.loads((tmp_path / "cfg.json").read_text())
    raw["game"].update({"e1": 0.5, "e2": 0.9})   # meets --strict-ordering
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    spellings = [
        ["payoffs", "--config", cfg, "--format", "json", "--strict-ordering"],
        ["payoffs", "--conf", cfg, "--form=json", "--strict"],
    ]
    artifacts, summaries = [], []
    for k, argv in enumerate(spellings):
        out = tmp_path / f"payoffs{k}.json"
        assert main(argv + ["--out", str(out)]) == 0
        artifacts.append(out.read_bytes())
        summaries.append(capsys.readouterr())
    assert b'"ordering"' in artifacts[0]
    assert artifacts[1] == artifacts[0] and summaries[1] == summaries[0]


@pytest.mark.parametrize("argv, message", [
    (["payoffs", "--config", "CFG", "--s"], "option --s not a unique prefix"),
    (["payoffs", "--config", "CFG", "--help=x"],
     "option --help must not have an argument"),
    (["payoffs", "--config", "CFG", "-x"], "option -x not recognized"),
    (["payoffs", "--config", "CFG", "--config"],
     "option --config requires argument"),
])
def test_usage_error_messages(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path)
    assert main([cfg if a == "CFG" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == cli._USAGE + f"zdtrade: error: {message}\n"


@pytest.mark.parametrize("posixly_correct", [False, True])
def test_double_dash_ends_the_options(tmp_path, capsys, monkeypatch,
                                      posixly_correct):
    if posixly_correct:
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
    cfg = write_config(tmp_path)
    assert main(["payoffs", "--", "--config", cfg]) == 2
    assert "got 'payoffs' '--config'" in capsys.readouterr().err
    out = tmp_path / "payoffs.csv"
    assert main(["--config", cfg, "--out", str(out), "--", "payoffs"]) == 0
    assert out.read_text().startswith("key,value\n")


def test_options_after_the_command_under_posixly_correct(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    cfg = write_config(tmp_path)
    out = tmp_path / "payoffs.json"
    assert main(["payoffs", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payoffs"]["u_p"] == [5, 4.5, 3.5, 3.6]


def test_front_end_imports_no_argparse(tmp_path):
    cfg = write_config(tmp_path)
    src = os.path.dirname(os.path.dirname(zdtrade.__file__))
    code = ("import sys, zdtrade; before = set(sys.modules); "
            "import zdtrade.cli as cli; "
            "added = sorted(set(sys.modules) - before); "
            f"code = cli.main(['payoffs', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'payoffs.csv')!r}]); "
            "print(code, 'argparse' in sys.modules); print(*added); "
            "print(*(m for m in ('argparse', 'getopt', 'gettext') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    status, added, front_ends = proc.stdout.splitlines()[-3:]
    assert status == "0 False", proc.stderr
    # importing the front end adds the json package and itself, nothing else
    assert "zdtrade.cli" in added.split()
    assert [m for m in added.split() if m != "zdtrade.cli" and m != "_json"
            and m.split(".")[0] != "json"] == []
    assert front_ends == ""


def test_main_fixes_the_heap_thresholds(tmp_path, capsys, monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda *args: calls.append(args))
    monkeypatch.setattr(cli.ctypes, "pythonapi", libc)
    assert main(["payoffs", "--config", write_config(tmp_path)]) == 0
    # M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at 64 MiB
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def _no_libc(exc):
    class NoLibc:
        @property
        def mallopt(self):
            raise exc("no C library")
    return NoLibc()


@pytest.mark.parametrize("pythonapi", [_no_libc(OSError), _no_libc(TypeError),
                                       object()],
                         ids=["OSError", "TypeError", "no-mallopt"])
def test_heap_policy_is_a_no_op_without_mallopt(tmp_path, capsys,
                                                monkeypatch, pythonapi):
    cfg = write_config(tmp_path, extortion={
        "l1": 1, "l2": 2, "chi_probe": 1.5,
        "e1_grid": {"num": 20, "max": 0.9}, "e2_grid": {"num": 20, "max": 0.9}})
    normal, bare = tmp_path / "normal.csv", tmp_path / "bare.csv"
    assert main(["scan-extort", "--config", cfg, "--out", str(normal)]) == 0
    monkeypatch.setattr(cli.ctypes, "pythonapi", pythonapi)
    assert main(["scan-extort", "--config", cfg, "--out", str(bare)]) == 0
    assert bare.read_bytes() == normal.read_bytes()
    assert len(bare.read_text().splitlines()) == 1 + 20 * 20
