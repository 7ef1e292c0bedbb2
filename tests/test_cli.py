"""CLI subcommands end to end: artifacts, exit codes, determinism."""

import json
import math
import os
import pickle
import subprocess
import sys

import pytest

from paratori import cli, errors
from paratori.benchmark import benchmark_map_model
from paratori.cli import main
from paratori.model import validate
from paratori import serialize as ser
from conftest import src_env, torus2_model


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_map_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main([
        "solve-map", "--model", "builtin:benchmark-map", "--order", "3",
        "--outdir", str(out), "--checkpoint",
    ])
    assert code == 0
    summary = _read(out / "summary.json")
    assert summary["status"] == "ok"
    assert summary["order_report"]["all_pass"]
    assert (out / "solution.json").exists()
    assert (out / "solution_j02.json").exists()
    assert (out / "order_report.csv").read_text().startswith("component,")


def test_solve_flow(tmp_path):
    out = tmp_path / "runf"
    code = main([
        "solve-flow", "--model", "builtin:benchmark-flow", "--order", "2",
        "--outdir", str(out),
    ])
    assert code == 0
    assert _read(out / "summary.json")["command"] == "solve-flow"


def test_solve_kind_mismatch_exits_2(tmp_path):
    code = main([
        "solve-flow", "--model", "builtin:benchmark-map", "--order", "2",
        "--outdir", str(tmp_path / "bad"),
    ])
    assert code == 2
    assert _read(tmp_path / "bad" / "summary.json")["error_code"] == 2


def test_verify_command(tmp_path):
    out = tmp_path / "solve"
    main(["solve-map", "--model", "builtin:benchmark-map", "--order", "3",
          "--outdir", str(out)])
    code = main([
        "verify", "--model", "builtin:benchmark-map",
        "--solution", str(out / "solution.json"),
        "--outdir", str(tmp_path / "verify"),
    ])
    assert code == 0
    assert _read(tmp_path / "verify" / "summary.json")["all_pass"]


def test_resonant_model_exits_3(tmp_path):
    code = main([
        "scan-diophantine", "--omega", "0.5", "--tau", "1", "--k-max", "10",
        "--outdir", str(tmp_path / "scan"),
    ])
    assert code == 3
    rec = _read(tmp_path / "scan" / "summary.json")
    assert rec["error_code"] == 3 and rec["error_kind"] == "ZeroDivisor"


def test_scan_golden(tmp_path):
    code = main([
        "scan-diophantine", "--omega", "0.6180339887498949", "--tau", "1",
        "--k-max", "100", "--outdir", str(tmp_path / "scan"),
    ])
    assert code == 0
    rec = _read(tmp_path / "scan" / "scan.json")
    assert rec["c_estimate"] > 0.38


@pytest.mark.parametrize("sense,args,bad", [
    ("map", ["--omega", "nan"], "omega has a non-finite entry: [nan]"),
    ("flow", ["--omega", "0.618", "--nu", "inf"], "nu has a non-finite entry: [inf]"),
    ("map", ["--omega", "0.618", "--tau", "inf"], "tau must be finite, not inf"),
], ids=["map", "flow", "tau"])
def test_scan_refuses_a_non_finite_frequency(tmp_path, sense, args, bad):
    # a NaN or an infinity gives no certificate: the flow scan took it for
    # c_estimate = inf, the map scan died in round(), and an infinite tau
    # certified c = 1 - omega
    out = tmp_path / "scan"
    code = main(["scan-diophantine", *args, "--sense", sense, "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == bad
    assert not (out / "scan.json").exists()


def test_conjugate_command(tmp_path):
    code = main([
        "conjugate", "--model", "builtin:conjugacy", "--order", "4",
        "--outdir", str(tmp_path / "conj"),
    ])
    assert code == 0
    assert abs(_read(tmp_path / "conj" / "summary.json")["b"] - 0.7) < 1e-8


def test_iterate_command(tmp_path):
    code = main([
        "iterate", "--model", "builtin:benchmark-map", "--steps", "20",
        "--state", "0.05", "0.0", "0.2", "--outdir", str(tmp_path / "it"),
    ])
    assert code == 0
    lines = (tmp_path / "it" / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "k,x,y1,theta1"
    assert len(lines) == 22


def test_order_9_passes_at_the_default_window(tmp_path):
    # the default window sits at the rounding floor for most samples at order
    # 9; the retries shift it upward until the fit has enough points
    out = tmp_path / "deep"
    code = main(["solve-map", "--model", "builtin:benchmark-map", "--order", "9",
                 "--outdir", str(out)])
    assert code == 0
    report = _read(out / "summary.json")["order_report"]
    assert report["all_pass"]
    assert report["x_window"][0] > 1e-3


def test_solve_with_a_failed_order_report_exits_4(tmp_path):
    # time1-toy at order 9 fits an x slope of 10.85 against a target of 11:
    # every artifact is written, the report fails, and the exit code says so
    out = tmp_path / "toy"
    code = main(["solve-map", "--model", "builtin:time1-toy", "--order", "9",
                 "--outdir", str(out)])
    assert code == 4
    summary = _read(out / "summary.json")
    assert summary["status"] == "ok"
    assert summary["order_report"]["all_pass"] is False
    assert (out / "solution.json").exists()
    assert (out / "order_report.csv").read_text().startswith("component,")
    assert (out / "residuals.csv").read_text().startswith("x,")


def test_model_file_roundtrip_through_cli(tmp_path):
    model = benchmark_map_model()
    path = tmp_path / "model.json"
    ser.dump_json(ser.model_to_obj(model), path)
    code = main(["solve-map", "--model", str(path), "--order", "2",
                 "--outdir", str(tmp_path / "out")])
    assert code == 0


def _recap_a(obj):
    obj["a"]["order_cap"] = 30
    return "a (T^1, cap 30)"


def _recap_f_term(obj):
    obj["f"]["terms"][0]["series"]["order_cap"] = 6
    return "f.terms[0].series (T^1, cap 6)"


def _recap_f(obj):
    obj["f"]["order_cap"] = 10
    return "f (T^1, cap 10)"


@pytest.mark.parametrize("edit", [_recap_a, _recap_f_term, _recap_f], ids=["a", "f-term", "f"])
def test_model_record_off_its_cap_exits_2(tmp_path, edit):
    # every series and jet of a model lives on the torus of a at the model's cap
    obj = ser.model_to_obj(benchmark_map_model())
    field = edit(obj)
    path = tmp_path / "model.json"
    ser.dump_json(obj, path)
    out = tmp_path / "out"
    code = main(["solve-map", "--model", str(path), "--order", "2", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"] == f"model holds series off its torus T^1 at cap 24: {field}"
    assert not (out / "solution.json").exists()


def test_solution_record_off_its_cap_exits_2(tmp_path):
    solution = _solve(tmp_path, "solve-map", "builtin:benchmark-map")
    obj = _read(solution)
    order = min(obj["ktil_y"], key=int)
    obj["ktil_y"][order][0]["order_cap"] = 6
    ser.dump_json(obj, solution)
    out = tmp_path / "verify"
    code = main(["verify", "--model", "builtin:benchmark-map", "--solution", solution,
                 "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"] == f"solution holds series off its torus T^1 at cap 24: ktil_y.{order}[0] (T^1, cap 6)"


@pytest.mark.parametrize("command", ["solve-map", "solve-flow"])
def test_model_record_of_an_unknown_kind_exits_2(tmp_path, command):
    # "flow " is no kind; it was read as a map, and solve-map ran a flow model
    from paratori.benchmark import toy_x2_flow_model

    obj = {**ser.model_to_obj(toy_x2_flow_model()), "kind": "flow "}
    path = tmp_path / "model.json"
    ser.dump_json(obj, path)
    out = tmp_path / "out"
    code = main([command, "--model", str(path), "--order", "2", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert (rec["error_kind"], rec["error"]) == (
        "HypothesisViolation", "model kind 'flow ' is neither 'map' nor 'flow'")
    assert not (out / "solution.json").exists()


def test_model_record_whose_d_is_not_omega_s_exits_2(tmp_path):
    # the record's "d" was written but never read
    obj = {**ser.model_to_obj(benchmark_map_model()), "d": 2}
    path = tmp_path / "model.json"
    ser.dump_json(obj, path)
    out = tmp_path / "out"
    code = main(["solve-map", "--model", str(path), "--order", "2", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert (rec["error_kind"], rec["error"]) == (
        "HypothesisViolation", "model record has d = 2 but len(omega) = 1")
    assert not (out / "solution.json").exists()


def test_missing_model_exits_5(tmp_path):
    code = main(["solve-map", "--model", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path / "out")])
    assert code == 5


@pytest.mark.parametrize("argv", [
    ["solve-map", "--model", "builtin:benchmark-map", "--order", "3"],
    ["solve-flow", "--model", "builtin:benchmark-flow", "--order", "2"],
    ["verify", "--model", "builtin:benchmark-map"],
    ["iterate", "--model", "builtin:benchmark-map", "--steps", "20"],
    ["conjugate", "--model", "builtin:conjugacy", "--order", "4"],
    ["scan-diophantine", "--omega", "0.6180339887498949", "--tau", "1", "--k-max", "100"],
    ["restricted-demo", "--system", "single", "--order", "3"],
], ids=lambda argv: argv[0])
def test_determinism_byte_identical(tmp_path, argv):
    # every subcommand writes the same bytes twice, and its summary.json says
    # that it ran and which command it was
    if argv[0] == "verify":
        argv = [*argv, "--solution", _solve(tmp_path, "solve-map", "builtin:benchmark-map")]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*argv, "--outdir", str(out)]) == 0
        outs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
        summary = _read(out / "summary.json")
        assert (summary["status"], summary["command"]) == ("ok", argv[0])
    assert outs[0] == outs[1]


def test_sweep_merged_summary(tmp_path):
    model = benchmark_map_model()
    mpath = tmp_path / "m.json"
    ser.dump_json(ser.model_to_obj(model), mpath)
    cfg = {
        "sweep": [
            {"label": "lam0", "model": "builtin:benchmark-map"},
            {"label": "lam1", "model": str(mpath)},
        ],
        "order": 2,
        "outdir": str(tmp_path / "sweep"),
        "workers": 2,
    }
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    code = main(["solve-map", "--config", str(cpath)])
    assert code == 0
    merged = _read(tmp_path / "sweep" / "summary.json")
    assert set(merged["entries"]) == {"lam0", "lam1"}
    assert all(e["exit"] == 0 for e in merged["entries"].values())
    assert (tmp_path / "sweep" / "lam0" / "solution.json").exists()



def test_sweep_refuses_rows_of_one_label(tmp_path):
    # unlabelled rows take their model's file name, so two rows on one model
    # would write one directory and one entry of the merged record
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"sweep": [{"model": "builtin:benchmark-map", "order": order} for order in (2, 3)]},
                  cfg)
    out = tmp_path / "sweep"
    code = main(["solve-map", "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    rec = _read(out / "summary.json")
    assert rec["error"] == ("sweep rows share the label(s) 'builtin:benchmark-map'; "
                            "give each row its own label")
    assert [p.name for p in out.iterdir()] == ["summary.json"]


def test_sweep_records_a_failed_order_report(tmp_path):
    cfg = {
        "sweep": [
            {"label": "ok", "model": "builtin:benchmark-map", "order": 2},
            {"label": "toy", "model": "builtin:time1-toy", "order": 9},
        ],
        "outdir": str(tmp_path / "sweep"),
    }
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    assert main(["solve-map", "--config", str(cpath)]) == 4
    merged = _read(tmp_path / "sweep" / "summary.json")
    assert merged["status"] == "error"
    assert {label: e["exit"] for label, e in merged["entries"].items()} == {"ok": 0, "toy": 4}
    assert merged["entries"]["toy"]["summary"]["order_report"]["all_pass"] is False


def test_sweep_failed_entry_writes_its_own_record(tmp_path):
    cfg = {
        "sweep": [
            {"label": "good", "model": "builtin:benchmark-map"},
            {"label": "bad", "model": str(tmp_path / "nonexistent.json")},
        ],
        "order": 2,
        "outdir": str(tmp_path / "sweep"),
    }
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    assert main(["solve-map", "--config", str(cpath)]) == 4
    own = _read(tmp_path / "sweep" / "bad" / "summary.json")
    assert own["status"] == "error"
    assert (own["error_code"], own["error_kind"]) == (5, "ParatoriError")
    assert "nonexistent.json" in own["error"]
    merged = _read(tmp_path / "sweep" / "summary.json")
    assert merged["entries"]["bad"] == {"exit": 5, "summary": own}
    assert merged["entries"]["good"]["exit"] == 0


def test_sweep_rows_are_checked_like_the_config(tmp_path):
    # each row is merged into the config and refused by the same checks,
    # with its own exit-5 record
    cfg = {
        "sweep": [
            {"label": "few_x", "model": "builtin:benchmark-map", "n_samples": 2},
            {"label": "no_theta", "model": "builtin:benchmark-map", "theta_samples": 0},
        ],
        "order": 2,
        "outdir": str(tmp_path / "sweep"),
    }
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    assert main(["solve-map", "--config", str(cpath)]) == 4
    merged = _read(tmp_path / "sweep" / "summary.json")
    for label, field, least in (("few_x", "n_samples", 4), ("no_theta", "theta_samples", 1)):
        own = _read(tmp_path / "sweep" / label / "summary.json")
        assert (own["error_code"], own["error"]) == (5, f"config field {field} must be >= {least}")
        assert merged["entries"][label] == {"exit": 5, "summary": own}
        assert not (tmp_path / "sweep" / label / "solution.json").exists()


def test_sweep_is_refused_outside_solve(tmp_path):
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"sweep": [{"label": "a", "model": "builtin:benchmark-map"}]}, cfg)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == "verify takes no sweep; only solve-map and solve-flow do"
    assert not (out / "a").exists()


def test_failure_record_goes_to_the_config_outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ser.dump_json({"outdir": "cfgout", "model": "nonexistent.json"}, tmp_path / "c.json")
    assert main(["solve-map", "--config", "c.json"]) == 5
    rec = _read(tmp_path / "cfgout" / "summary.json")
    assert (rec["status"], rec["error_code"]) == ("error", 5)
    assert "nonexistent.json" in rec["error"]


@pytest.mark.parametrize("config", [None, {"outdir": None}], ids=["no-config", "null-outdir"])
def test_failure_record_goes_to_the_default_outdir(tmp_path, monkeypatch, config):
    # with no --outdir and no config outdir, a failure leaves its record where
    # a success would leave its artifacts
    monkeypatch.chdir(tmp_path)
    argv = ["solve-map", "--model", "nonexistent.json"]
    if config is not None:
        ser.dump_json(config, tmp_path / "c.json")
        argv += ["--config", "c.json"]
    assert main(argv) == 5
    rec = _read(tmp_path / "paratori-run" / "summary.json")
    assert (rec["status"], rec["error_code"]) == ("error", 5)
    assert "nonexistent.json" in rec["error"]


@pytest.mark.parametrize("order,code", [(2.7, 5), (2.0, 0), (2, 0)])
def test_config_int_field_takes_whole_numbers_only(tmp_path, order, code):
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"order": order}, cfg)
    out = tmp_path / "out"
    assert main(["solve-map", "--model", "builtin:benchmark-map", "--config", str(cfg),
                 "--outdir", str(out)]) == code
    rec = _read(out / "summary.json")
    if code:
        assert rec["error"] == "config field order must be a whole number, not 2.7"
        assert not (out / "solution.json").exists()
    else:
        assert _read(out / "solution.json")["j"] == 2


def test_sweep_row_int_field_takes_whole_numbers_only(tmp_path):
    cfg = {
        "sweep": [
            {"label": "frac", "model": "builtin:benchmark-map", "order": 2.7},
            {"label": "whole", "model": "builtin:benchmark-map", "order": 2.0},
        ],
        "outdir": str(tmp_path / "sweep"),
    }
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    assert main(["solve-map", "--config", str(cpath)]) == 4
    merged = _read(tmp_path / "sweep" / "summary.json")
    own = _read(tmp_path / "sweep" / "frac" / "summary.json")
    assert (own["error_code"], own["error"]) == (5, "config field order must be a whole number, not 2.7")
    assert merged["entries"]["frac"] == {"exit": 5, "summary": own}
    assert not (tmp_path / "sweep" / "frac" / "solution.json").exists()
    assert merged["entries"]["whole"]["exit"] == 0
    assert merged["entries"]["whole"]["summary"]["j"] == 2


def test_restricted_demo_short(tmp_path):
    code = main([
        "restricted-demo", "--system", "single", "--order", "3",
        "--x0", "0.05", "--outdir", str(tmp_path / "demo"),
    ])
    assert code == 0
    summary = _read(tmp_path / "demo" / "summary.json")
    assert summary["all_pass"]
    assert summary["chart"]["a"] == 0.25
    header = (tmp_path / "demo" / "demo.csv").read_text().splitlines()[0]
    assert header == "t,r,y,energy,law_ratio"


def _strict_json(path):
    """The JSON record at ``path``; NaN and the infinities are not JSON."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


@pytest.mark.parametrize("horizon", ["100", "0", "-1", "inf"])
def test_restricted_demo_refuses_a_horizon_short_of_the_law_window(tmp_path, horizon):
    # below the window no sample fell in it and the range was [NaN, NaN];
    # at zero or below the time grid's logarithm failed; at inf t_eval did
    out = tmp_path / "demo"
    code = main(["restricted-demo", "--system", "single", "--order", "3",
                 f"--horizon={horizon}", "--outdir", str(out)])
    assert code == 5
    rec = _strict_json(out / "summary.json")
    assert rec["error"] == (f"horizon {float(horizon)!r} must be finite and reach the end "
                            "of the law window [1000.0, 10000.0]")


def test_restricted_demo_horizon_at_the_window_end_writes_json(tmp_path):
    out = tmp_path / "demo"
    code = main(["restricted-demo", "--system", "single", "--order", "3",
                 "--horizon", "1e4", "--outdir", str(out)])
    rec = _strict_json(out / "summary.json")
    assert code == (0 if rec["all_pass"] else 4)
    assert rec["law_ok"] and all(map(math.isfinite, rec["law_ratio_range"]))


def test_restricted_demo_at_x0_zero_exits_within_seconds(tmp_path):
    # x0 = 0 puts the body at r0 = 2/x0^2 = inf: both orbits stepped
    # forever on a NaN step; now the integrator refuses the start
    out = tmp_path / "demo"
    env = src_env()
    proc = subprocess.run(
        [sys.executable, "-m", "paratori.cli", "restricted-demo", "--system", "single",
         "--order", "3", "--x0", "0", "--outdir", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 5, proc.stderr
    rec = _strict_json(out / "summary.json")
    assert rec["error_kind"] == "ValueError"
    assert "finite state0" in rec["error"]


def test_restricted_demo_refuses_primaries_at_two_caps(tmp_path):
    # the second primary carries a mode beyond the first's cap that breaks
    # the centre of mass; summed at the smaller cap it would go unseen
    from paratori.celestial import PrimarySystem

    obj = ser.primary_system_to_obj(PrimarySystem.circular_binary())
    obj["qx"][1]["order_cap"] = 10
    obj["qx"][1]["modes"] += [[[-9], 0.01, 0.0], [[9], 0.01, 0.0]]
    path = tmp_path / "system.json"
    ser.dump_json(obj, path)
    out = tmp_path / "demo"
    code = main(["restricted-demo", "--system", str(path), "--order", "3", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"] == "primary positions off the torus and cap of qx[0] (T^1, cap 8): qx[1] (T^1, cap 10)"


def _drop_qy(obj):
    del obj["qy"][1]
    return "masses, qx and qy count different primaries: masses 2, qx 2, qy 1"


def _two_frequencies(obj):
    obj["omega"].append(0.1)
    return "omega has 2 frequencies for primary positions on T^1"


def _no_primaries(obj):
    obj.update(masses=[], qx=[], qy=[])
    return "the system has no primaries"


@pytest.mark.parametrize("edit", [_drop_qy, _two_frequencies, _no_primaries],
                         ids=["lengths", "omega", "empty"])
def test_restricted_demo_names_a_malformed_system(tmp_path, edit):
    from paratori.celestial import PrimarySystem

    obj = ser.primary_system_to_obj(PrimarySystem.circular_binary())
    message = edit(obj)
    path = tmp_path / "system.json"
    ser.dump_json(obj, path)
    out = tmp_path / "demo"
    code = main(["restricted-demo", "--system", str(path), "--order", "3", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert (rec["error_kind"], rec["error"]) == ("HypothesisViolation", message)


def test_restricted_demo_validates_its_model_once(tmp_path, monkeypatch):
    # the solve's base step is the one place the hypotheses are checked
    from paratori import cli, cohomology

    calls = []

    def counting(model):
        calls.append(model)
        return validate(model)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(cohomology, "validate", counting)
    code = main(["restricted-demo", "--system", "single", "--order", "3",
                 "--outdir", str(tmp_path / "demo")])
    assert code == 0
    assert len(calls) == 1


def test_restricted_demo_leaves_scipy_unloaded(tmp_path):
    # the escape orbit runs on the in-house stepper, so the demo never
    # imports scipy; its summary counts the evaluations of both orbits
    out = tmp_path / "demo"
    env = src_env()
    code = (
        "import sys; from paratori.cli import main; "
        f"assert main(['restricted-demo', '--system', 'single', '--order', '3', '--outdir', {str(out)!r}]) == 0; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    nfev = _read(out / "summary.json")["orbit_nfev"]
    assert set(nfev) == {"main", "control"}
    assert all(isinstance(v, int) and v > 0 for v in nfev.values())


# the modules that some command does not run; a bare import loads none of them
_PER_COMMAND = {"paratori.benchmark", "paratori.celestial", "paratori.dynamics", "paratori.verify"}


@pytest.mark.parametrize("argv, loaded", [
    (None, set()),
    (["solve-map", "--model", "MODEL", "--order", "2"], {"paratori.verify"}),
    (["restricted-demo", "--system", "single", "--order", "3"],
     {"paratori.celestial", "paratori.dynamics"}),
], ids=["import", "solve-map", "restricted-demo"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # every module is compiled afresh on each run without a bytecode cache,
    # so one that a command does not run costs it start-up time
    code = "import sys, paratori.cli\n"
    if argv is not None:
        model = tmp_path / "model.json"
        ser.dump_json(ser.model_to_obj(benchmark_map_model()), model)
        argv = [str(model) if a == "MODEL" else a for a in argv] + ["--outdir", str(tmp_path / "out")]
        code += f"assert paratori.cli.main({argv!r}) == 0\n"
    code += "print(*sorted(m for m in sys.modules if m.startswith('paratori.')))\n"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert set(out.splitlines()[-1].split()) & _PER_COMMAND == loaded


def _python_m_cli(*args):
    """``python -m paratori.cli`` on ``args`` with block-buffered stdio; the run
    ends only once every process holding its stdout or stderr is gone."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "paratori.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_exit_path_delivers_output_and_exit_code(tmp_path, capsys):
    # the __main__ entry leaves through os._exit, so it flushes stdio itself
    scan = ["scan-diophantine", "--omega", "0.618", "--k-max", "10"]
    assert main([*scan, "--outdir", str(tmp_path / "in-process")]) == 0
    proc = _python_m_cli(*scan, "--outdir", tmp_path / "scan")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    model = tmp_path / "model.json"
    ser.dump_json({**ser.model_to_obj(benchmark_map_model()), "kind": "flow "}, model)
    proc = _python_m_cli("solve-map", "--model", model, "--order", "2", "--outdir", tmp_path / "kind")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error[2] HypothesisViolation: model kind 'flow ' is neither 'map' nor 'flow'\n")

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tau": NaN}')
    proc = _python_m_cli(*scan, "--config", cfg, "--outdir", tmp_path / "nan")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        5, "", "error[5] ParatoriError: config field tau is NaN\n")

    proc = _python_m_cli("solve-map", "--no-such-flag")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: paratori ")
    assert proc.stderr.endswith("paratori: error: unrecognized arguments: --no-such-flag\n")


def test_exit_path_after_a_pooled_sweep(tmp_path):
    # the pool's workers inherit stdout: the run returns once they are gone
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"sweep": [{"label": "a", "model": "builtin:benchmark-map"},
                             {"label": "b", "model": "builtin:benchmark-map"}],
                   "order": 2, "workers": 2, "outdir": str(tmp_path / "sweep")}, cfg)
    proc = _python_m_cli("solve-map", "--config", cfg)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _read(tmp_path / "sweep" / "summary.json")["status"] == "ok"


def test_solve_resonant_omega_names_resonant_mode(tmp_path):
    # omega = 1/2 with constant a passes validation (no certificate needed)
    # but the engine hits an exactly resonant divisor in the theta block
    from paratori.fourier import FourierSeries, FrequencyVector
    from paratori.jet import Jet
    from paratori.model import MapModel

    cap, deg = 8, 8
    freq = FrequencyVector(omega=(0.5,), tau=1.0, sense="map")
    h = [Jet.monomial(2, (), FourierSeries.cosine((2,), 1, cap, 0.3), 0, deg, 1, cap)]
    model = MapModel.build(N=2, P=2, freq=freq,
                           a=FourierSeries.constant(1.0, 1, cap), m=0,
                           order_cap=cap, h=h, deg=deg)
    path = tmp_path / "resonant.json"
    ser.dump_json(ser.model_to_obj(model), path)
    code = main(["solve-map", "--model", str(path), "--order", "3",
                 "--outdir", str(tmp_path / "out")])
    assert code == 3
    rec = _read(tmp_path / "out" / "summary.json")
    assert rec["error_kind"] == "ResonantMode"
    assert "k=(2,)" in rec["error"] or "k=(-2,)" in rec["error"]


def test_solve_j1_constant_model_has_no_b(tmp_path):
    from paratori.fourier import FourierSeries, diophantine_scan
    from paratori.model import MapModel

    freq = diophantine_scan([0.6180339887498949], tau=1.0, k_max=40)
    model = MapModel.build(N=2, P=2, freq=freq,
                           a=FourierSeries.constant(1.0, 1, 8), m=0, order_cap=8)
    path = tmp_path / "const.json"
    ser.dump_json(ser.model_to_obj(model), path)
    code = main(["solve-map", "--model", str(path), "--order", "1",
                 "--outdir", str(tmp_path / "out")])
    assert code == 0
    rec = _read(tmp_path / "out" / "summary.json")
    assert rec["b"] is None  # j < N: R_x = x - a_bar x^N only


@pytest.mark.parametrize("argv", [
    ["iterate", "--steps", "5"],
    ["solve-map", "--order", "2"],
], ids=["iterate", "solve-map"])
def test_map_commands_on_a_flow_model_exit_2(tmp_path, argv):
    out = tmp_path / "bad"
    code = main([*argv, "--model", "builtin:benchmark-flow", "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"] == f"{argv[0]} invoked on a flow model"


def _solve(tmp_path, command, model):
    out = tmp_path / model.split(":")[1]
    assert main([command, "--model", model, "--order", "2", "--outdir", str(out)]) == 0
    return str(out / "solution.json")


@pytest.mark.parametrize("command, solved, model, differ", [
    ("solve-flow", "builtin:benchmark-flow", "builtin:benchmark-map", "kind flow (model map)"),
    ("solve-map", "builtin:benchmark-map", "builtin:time1-toy", "order_cap 24 (model 8)"),
], ids=["kind", "order_cap"])
def test_verify_against_another_model_exits_2(tmp_path, command, solved, model, differ):
    solution = _solve(tmp_path, command, solved)
    out = tmp_path / "verify"
    code = main(["verify", "--model", model, "--solution", solution, "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"].startswith("solution was solved for another model: ")
    assert differ in rec["error"]


def test_verify_against_a_model_with_another_a_bar_exits_2(tmp_path):
    # same shape and rotation, so only the record's reduced a_bar tells the
    # two models apart
    from paratori.benchmark import GOLDEN
    from paratori.fourier import FourierSeries, diophantine_scan
    from paratori.model import MapModel

    paths = {}
    for a_bar in (1.0, 0.5):
        model = MapModel.build(N=2, P=2, freq=diophantine_scan([GOLDEN], tau=1.0, k_max=40),
                               a=FourierSeries.constant(a_bar, 1, 8), m=0, order_cap=8)
        paths[a_bar] = str(tmp_path / f"model_{a_bar}.json")
        ser.dump_json(ser.model_to_obj(model), paths[a_bar])
    solved = tmp_path / "solved"
    assert main(["solve-map", "--model", paths[1.0], "--order", "3", "--outdir", str(solved)]) == 0
    out = tmp_path / "verify"
    code = main(["verify", "--model", paths[0.5], "--solution", str(solved / "solution.json"),
                 "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"] == "solution was solved for another model: reduced.a_bar 1.0 (model 0.5)"


def test_verify_against_a_model_of_the_same_shape_exits_2(tmp_path):
    # two seeds of torus2 share shape, rotation and a_bar; only the model
    # fingerprint in the record tells them apart
    paths = {}
    for seed in (1, 2):
        paths[seed] = str(tmp_path / f"torus2_{seed}.json")
        ser.dump_json(ser.model_to_obj(torus2_model(seed)), paths[seed])
    solved = tmp_path / "solved"
    assert main(["solve-map", "--model", paths[1], "--order", "2", "--outdir", str(solved)]) == 0
    out = tmp_path / "verify"
    code = main(["verify", "--model", paths[2], "--solution", str(solved / "solution.json"),
                 "--outdir", str(out)])
    assert code == 2
    rec = _read(out / "summary.json")
    assert rec["error_kind"] == "HypothesisViolation"
    assert rec["error"].startswith("solution was solved for another model: model_sha256 ")


def test_verify_against_the_written_model_file_passes(tmp_path):
    # a builtin model and its model.json record have one fingerprint
    solution = _solve(tmp_path, "solve-map", "builtin:benchmark-map")
    path = tmp_path / "model.json"
    ser.dump_json(ser.model_to_obj(benchmark_map_model()), path)
    out = tmp_path / "verify"
    assert main(["verify", "--model", str(path), "--solution", solution,
                 "--outdir", str(out)]) == 0
    assert _read(out / "summary.json")["all_pass"]


@pytest.mark.parametrize("field, value, least", [
    ("theta_samples", 0, 1),
    ("n_samples", 3, 4),
])
def test_config_rejects_too_few_samples(tmp_path, field, value, least):
    cfg = tmp_path / "cfg.json"
    ser.dump_json({field: value}, cfg)
    out = tmp_path / "out"
    code = main(["solve-map", "--model", "builtin:benchmark-map", "--order", "2",
                 "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == f"config field {field} must be >= {least}"
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("field,flag", [("tau", True), ("tau", False), ("slope_slack", False),
                                        ("domain_radius", False)])
def test_config_refuses_nan_in_a_float_field(tmp_path, field, flag):
    # NaN differs from itself, so it was refused as "not a whole number"
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}" if flag else f'{{"{field}": NaN}}')
    out = tmp_path / "out"
    code = main(["scan-diophantine", "--omega", "0.618", *(["--tau", "nan"] if flag else []),
                 "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == f"config field {field} is NaN"
    assert not (out / "scan.json").exists()


def test_iterate_refuses_a_negative_step_count(tmp_path):
    out = tmp_path / "it"
    code = main(["iterate", "--model", "builtin:benchmark-map", "--steps", "-2", "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == "config field steps must be >= 0"
    assert not (out / "orbit.csv").exists()


def test_config_refuses_a_numeric_field_that_does_not_convert(tmp_path):
    # every numeric field is converted before the command runs, even one
    # that the command does not read
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"gtilde0": "high"}, cfg)
    out = tmp_path / "out"
    code = main(["scan-diophantine", "--omega", "0.618", "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"].startswith("config field gtilde0 must be a number: ")
    assert not (out / "scan.json").exists()


@pytest.mark.parametrize("field,value", [("order", True), ("tau", False), ("domain_radius", True)])
def test_config_refuses_a_boolean_in_a_numeric_field(tmp_path, field, value):
    # JSON true/false would pass int() and float() as 1 and 0
    cfg = tmp_path / "cfg.json"
    ser.dump_json({field: value}, cfg)
    out = tmp_path / "out"
    code = main(["solve-map", "--model", "builtin:benchmark-map", "--config", str(cfg),
                 "--outdir", str(out)])
    assert code == 5
    assert _read(out / "summary.json")["error"] == f"config field {field} must be a number, not {value!r}"
    assert not (out / "solution.json").exists()


def test_sweep_row_refuses_a_boolean_in_a_numeric_field(tmp_path):
    cfg = {"sweep": [{"label": "flag", "model": "builtin:benchmark-map", "order": True}],
           "outdir": str(tmp_path / "sweep")}
    cpath = tmp_path / "cfg.json"
    ser.dump_json(cfg, cpath)
    assert main(["solve-map", "--config", str(cpath)]) == 4
    own = _read(tmp_path / "sweep" / "flag" / "summary.json")
    assert (own["error_code"], own["error"]) == (5, "config field order must be a number, not True")
    assert _read(tmp_path / "sweep" / "summary.json")["entries"]["flag"] == {"exit": 5, "summary": own}
    assert not (tmp_path / "sweep" / "flag" / "solution.json").exists()


def test_config_refuses_an_undeclared_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"n_sample": 4, "orderr": 2}, cfg)
    out = tmp_path / "out"
    code = main(["solve-map", "--model", "builtin:benchmark-map", "--order", "2",
                 "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    message = _read(out / "summary.json")["error"]
    assert "'n_sample'" in message and "'orderr'" in message
    assert not (out / "solution.json").exists()


def test_sweep_row_refuses_an_undeclared_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    ser.dump_json({"sweep": [{"label": "a", "model": "builtin:benchmark-map", "orderr": 2}]}, cfg)
    out = tmp_path / "out"
    code = main(["solve-map", "--order", "2", "--config", str(cfg), "--outdir", str(out)])
    assert code == 5
    message = _read(out / "summary.json")["error"]
    assert "'orderr'" in message and "sweep row 'a'" in message
    assert not (out / "a").exists()


# Every error class with arguments for its constructor and the exit code the
# CLI returns for it; an exception that is not a ParatoriError exits 5.
_ERROR_CODES = {
    errors.ParatoriError: ((), 5),
    errors.HypothesisViolation: ((), 2),
    errors.NonzeroAverage: ((), 2),
    errors.SingularB: ((), 2),
    errors.ResonantMode: (((1,),), 3),
    errors.ZeroDivisor: (((1,),), 3),
    errors.OrderRegression: (("x", 3, 1.0, 1e-9), 4),
    errors.SingularBlock: ((), 4),
    errors.WindowTooWide: ((), 4),
    errors.BoundViolated: ((2, 1.0, 0.5), 4),
    errors.EscapedSector: ((2, 0.1j), 4),
    errors.StepUnderflow: ((), 4),
    errors.OrbitLeftDomain: ((2,), 4),
    errors.DimensionMismatch: ((), 5),
    errors.DegreeOverflow: ((), 5),
    errors.InsufficientTorusData: ((), 5),
    ValueError: ((), 5),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_table_names_every_error_class():
    assert set(_subclasses(errors.ParatoriError)) <= set(_ERROR_CODES)


@pytest.mark.parametrize("cls", list(_ERROR_CODES), ids=lambda c: c.__name__)
def test_each_error_class_survives_pickling(cls):
    # a forked child hands its errors back pickled
    err = cls(*_ERROR_CODES[cls][0])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (str(back), back.args, vars(back)) == (str(err), err.args, vars(err))


@pytest.mark.parametrize("cls", list(_ERROR_CODES), ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_code(tmp_path, monkeypatch, cls):
    args, want = _ERROR_CODES[cls]

    def failing(*a, **kw):
        raise cls(*args)

    monkeypatch.setattr(cli, "diophantine_scan", failing)
    out = tmp_path / "scan"
    assert main(["scan-diophantine", "--omega", "0.618", "--outdir", str(out)]) == want
    rec = _read(out / "summary.json")
    assert (rec["status"], rec["error_code"], rec["error_kind"]) == ("error", want, cls.__name__)


@pytest.mark.parametrize("argv, key", [
    (["solve-map", "--order", "2"], "model"),
    (["solve-flow", "--order", "2"], "model"),
    (["iterate", "--steps", "5"], "model"),
    (["conjugate", "--order", "4"], "model"),
    (["verify", "--model", "builtin:benchmark-map"], "solution"),
    (["scan-diophantine", "--tau", "1.0"], "omega"),
], ids=["solve-map", "solve-flow", "iterate", "conjugate", "verify", "scan-diophantine"])
def test_missing_required_field_names_flag_and_field(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert main([*argv, "--outdir", str(out)]) == 5
    message = f"--{key} is required (or the config field '{key}')"
    rec = _read(out / "summary.json")
    assert (rec["error_code"], rec["error_kind"], rec["error"]) == (5, "ParatoriError", message)
    assert capsys.readouterr().err == f"error[5] ParatoriError: {message}\n"


_CSV_RUNS = {
    "solve-map": ["solve-map", "--model", "builtin:benchmark-map", "--order", "3"],
    "solve-flow": ["solve-flow", "--model", "builtin:benchmark-flow", "--order", "3"],
    "verify": ["verify", "--model", "builtin:benchmark-map"],
    "iterate": ["iterate", "--model", "builtin:benchmark-map", "--steps", "3"],
    "conjugate": ["conjugate", "--model", "builtin:conjugacy", "--order", "4"],
    "scan-diophantine": ["scan-diophantine", "--omega", "0.618", "--k-max", "10"],
    "restricted-demo": ["restricted-demo", "--system", "single", "--order", "3"],
}


@pytest.mark.parametrize("command", sorted(_CSV_RUNS))
def test_every_csv_cell_is_a_number(tmp_path, command):
    """Each command's CSV files hold one header line and then numbers only,
    but for the component names of the order report (``iterate`` wrote
    numpy's ``np.float64(0.05)`` for the states of its orbit)."""
    argv = _CSV_RUNS[command]
    if command == "verify":
        assert main(["solve-map", "--model", "builtin:benchmark-map", "--order", "3",
                     "--outdir", str(tmp_path / "solved")]) == 0
        argv = [*argv, "--solution", str(tmp_path / "solved" / "solution.json")]
    out = tmp_path / "out"
    assert main([*argv, "--outdir", str(out)]) == 0
    for path in out.glob("*.csv"):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header)
            for name, cell in zip(header, row):
                if name != "component":
                    float(cell)
