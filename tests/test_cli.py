"""CLI subcommands end to end: artifacts, exit codes, determinism."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import paratori
from paratori import cli, errors
from paratori.benchmark import benchmark_map_model
from paratori.cli import main
from paratori.model import validate
from paratori import serialize as ser
from conftest import torus2_model


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


def test_missing_model_exits_5(tmp_path):
    code = main(["solve-map", "--model", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path / "out")])
    assert code == 5


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["solve-map", "--model", "builtin:benchmark-map", "--order", "3",
              "--outdir", str(out)])
        outs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
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
    src = os.path.dirname(os.path.dirname(paratori.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from paratori.cli import main; "
        f"assert main(['restricted-demo', '--system', 'single', '--order', '3', '--outdir', {str(out)!r}]) == 0; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    nfev = _read(out / "summary.json")["orbit_nfev"]
    assert set(nfev) == {"main", "control"}
    assert all(isinstance(v, int) and v > 0 for v in nfev.values())


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
