"""Command-line front end: reproducible batch runs over model files.

One command writes one artifact directory.  Config is a single JSON file
whose fields are overridden by flags; identical config and model files
produce byte-identical records.  Exit codes: 0 ok, 2 hypothesis violation,
3 resonance, 4 numerical regression / failed check, 5 I/O.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .cohomology import FreeChoicePolicy, conjugate_normal_form, solve_manifold
from .errors import HypothesisViolation, ParatoriError
from .fourier import diophantine_scan
from .model import validate  # noqa: F401 - the benchmark's set-up probe calls cli.validate
from . import serialize as ser


def __getattr__(name):
    # the set-up probe also reads these three from here; a command imports the
    # modules it runs inside its own function, so they load only on that read
    # (ROADMAP item 1 retires these names and ``validate``)
    if name == "benchmark":
        from . import benchmark
        return benchmark
    if name in ("PrimarySystem", "build_restricted_field"):
        from . import celestial
        return getattr(celestial, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# every config field, declared once with its default (None where only a flag
# or the config gives it); any other field is refused
_DEFAULTS = {
    "model": None,
    "solution": None,
    "outdir": "paratori-run",
    "kind": None,
    "order": 5,
    "k_max": 50,
    "tau": 1.0,
    "divisor_floor": 1e-12,
    "order_tolerance": 1e-9,
    "slope_slack": 0.1,
    "x_window": [1e-3, 1e-2],
    "n_samples": 24,
    "theta_samples": 16,
    "checkpoint": False,
    "free_choices": {},
    "workers": 1,
    "sweep": [],
    # scan knobs
    "omega": None,
    "nu": None,
    "sense": "map",
    # demo knobs
    "system": "single",
    "degree": 8,
    "gtilde0": 0.15,
    "alpha0": 0.0,
    "x0": 0.05,
    "horizon": 3.0e9,
    "demo_tol": 1e-10,
    # iterate knobs
    "steps": 100,
    "state": None,
    "domain_radius": math.inf,
}

_EXIT_REGRESSION = 4
_EXIT_IO = 5


def _declared(fields: dict, where: str) -> dict:
    """``fields``, refused when one is not declared in ``_DEFAULTS``."""
    unknown = sorted(set(fields) - set(_DEFAULTS))
    if unknown:
        raise ParatoriError(f"unknown field(s) in {where}: {', '.join(map(repr, unknown))}")
    return fields


def _load_config(args) -> dict:
    """The defaults, overridden by the config file's fields, then by every flag given;
    a null ``outdir`` is the default one."""
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(_declared(ser.load_json(args.config), "the config"))
    cfg.update((key, val) for key, val in vars(args).items() if key != "config" and val is not None)
    cfg["outdir"] = cfg["outdir"] or _DEFAULTS["outdir"]
    return cfg


def _checked(cfg: dict) -> dict:
    """``cfg`` with each numeric field converted to the type of its default, and range-checked."""
    given, cfg = cfg, dict(cfg)
    for key, default in _DEFAULTS.items():
        if isinstance(default, (int, float)) and not isinstance(default, bool):
            if isinstance(cfg[key], bool):
                raise ParatoriError(f"config field {key} must be a number, not {cfg[key]!r}")
            try:
                cfg[key] = type(default)(cfg[key])
            except (TypeError, ValueError, OverflowError) as e:
                raise ParatoriError(f"config field {key} must be a number: {e}") from e
            if isinstance(default, float) and math.isnan(cfg[key]):
                raise ParatoriError(f"config field {key} is NaN")
            if isinstance(given[key], float) and cfg[key] != given[key]:
                raise ParatoriError(f"config field {key} must be a whole number, not {given[key]!r}")
    for key in ("divisor_floor", "order_tolerance", "slope_slack"):
        if cfg[key] <= 0:
            raise ParatoriError(f"config field {key} must be positive")
    if cfg["order"] < 1:
        raise ParatoriError("order must be >= 1")
    for key, least in (("theta_samples", 1), ("n_samples", 4), ("steps", 0)):
        if cfg[key] < least:
            raise ParatoriError(f"config field {key} must be >= {least}")
    if cfg["sweep"] and cfg["func"] is not cmd_solve:
        raise ParatoriError(f"{cfg['command']} takes no sweep; only solve-map and solve-flow do")
    return cfg


def _run(cfg) -> int:
    """Run ``cfg``'s command in its output directory; write its ``summary.json``."""
    out = cfg["outdir"]
    os.makedirs(out, exist_ok=True)
    code, fields = cfg["func"](cfg, out)
    ser.dump_json({"status": "ok", "command": cfg["command"], **fields},
                  os.path.join(out, "summary.json"))
    return code


def _failure(e: Exception, outdir) -> dict:
    """The error record of ``e``, also written as ``summary.json`` in ``outdir``."""
    rec = {"status": "error", "error_code": getattr(e, "exit_code", _EXIT_IO),
           "error_kind": type(e).__name__, "error": str(e)}
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
            ser.dump_json(rec, os.path.join(outdir, "summary.json"))
        except (OSError, TypeError, ValueError):
            pass
    return rec


def _required(cfg, key: str):
    """``cfg[key]``, which a flag or the config file must give."""
    if cfg.get(key) is None:
        raise ParatoriError(f"--{key} is required (or the config field {key!r})")
    return cfg[key]


def _load_model(cfg, kind: str | None = None):
    """The model that ``cfg`` names; the command runs only on a model of ``kind``."""
    spec = _required(cfg, "model")
    if spec.startswith("builtin:"):
        from .benchmark import builtin_model

        model = builtin_model(spec.split(":", 1)[1])
    else:
        model = ser.model_from_obj(ser.load_json(spec))
    if kind and model.kind != kind:
        raise HypothesisViolation(f"{cfg['command']} invoked on a {model.kind} model")
    return model


def _solver_kw(cfg) -> dict:
    """The free choices and tolerances of the engine's solve."""
    fc = cfg["free_choices"] or {}
    choices = FreeChoicePolicy(
        kbar_x_at_N=float(fc.get("kbar_x_at_N", 0.0)),
        kbar_theta={int(k): tuple(v) for k, v in fc.get("kbar_theta", {}).items()},
    )
    return {"choices": choices, "divisor_floor": cfg["divisor_floor"],
            "order_tolerance": cfg["order_tolerance"]}


def _order_report(cfg, out, sol, error=None):
    """Fit the decay orders of ``sol``'s residual and write both CSVs; the report and its fields."""
    from .verify import fit_error_orders_auto

    report = fit_error_orders_auto(
        sol, tuple(cfg["x_window"]), n_samples=cfg["n_samples"],
        theta_samples=cfg["theta_samples"], slope_slack=cfg["slope_slack"], error=error,
    )
    ser.write_csv(os.path.join(out, "order_report.csv"),
                  ["component", "slope", "target", "pass"], report.rows())
    ser.write_csv(os.path.join(out, "residuals.csv"), ["x", "e_x", "e_y", "e_theta"],
                  [(r["x"], r["e_x"], r["e_y"], r["e_theta"]) for r in report.samples])
    return report, {"slopes": report.fitted_slope, "targets": report.target_order,
                    "passes": report.passes, "all_pass": report.all_pass}


def _exit(all_pass: bool) -> int:
    return 0 if all_pass else _EXIT_REGRESSION


# ----------------------------------------------------------------- commands
#
# Each command takes the checked config and its output directory, writes its
# own artifacts, and returns its exit code and the fields of its summary.


def cmd_solve(cfg, out):
    if cfg["sweep"]:
        return _sweep(cfg, out)
    model = _load_model(cfg, cfg["kind"])

    def on_order(sol, err):
        if cfg["checkpoint"]:
            ser.dump_json(ser.solution_to_obj(sol), os.path.join(out, f"solution_j{sol.j:02d}.json"))

    res = solve_manifold(model, cfg["order"], **_solver_kw(cfg), callback=on_order)
    sol = res.solution
    ser.dump_json(ser.solution_to_obj(sol), os.path.join(out, "solution.json"))
    report, fields = _order_report(cfg, out, sol, res.error)
    print(f"solved to order {cfg['order']}: a_bar={sol.reduced.a_bar:.12g} "
          f"b={res.b} report_pass={report.all_pass}")
    return _exit(report.all_pass), {
        "j": sol.j, "a_bar": sol.reduced.a_bar, "b": sol.reduced.b,
        "per_order": res.per_order, "free_choices": sol.free_choices,
        "order_report": {**fields, "x_window": list(report.x_window)},
    }


def cmd_verify(cfg, out):
    model = _load_model(cfg)
    sol = ser.solution_from_obj(ser.load_json(_required(cfg, "solution")), model)
    report, fields = _order_report(cfg, out, sol)
    for comp, slope, target, ok in report.rows():
        print(f"{comp}: slope {slope:.3f} target {target} {'PASS' if ok else 'FAIL'}")
    return _exit(report.all_pass), fields


def cmd_iterate(cfg, out):
    from .dynamics import iterate_map

    model = _load_model(cfg, "map")
    state = cfg["state"]
    if state is None:
        state = [0.05] + [0.0] * (model.m + model.dim)
    orbit = iterate_map(model, state, cfg["steps"], domain_radius=cfg["domain_radius"])
    ncols = orbit.states.shape[1]
    header = ["k", "x"] + [f"y{i+1}" for i in range(model.m)] + [
        f"theta{r+1}" for r in range(ncols - 1 - model.m)
    ]
    ser.write_csv(
        os.path.join(out, "orbit.csv"), header,
        [(int(t), *row) for t, row in zip(orbit.times, orbit.states)],
    )
    print(f"iterated {len(orbit)-1} steps"
          + (f" (left domain at {orbit.early_stop})" if orbit.early_stop else ""))
    return 0, {"steps": len(orbit) - 1, "early_stop": orbit.early_stop}


def cmd_restricted_demo(cfg, out):
    from .celestial import PrimarySystem, build_restricted_field, escape_demo

    name = cfg["system"]
    builtin = {"single": PrimarySystem.single, "binary": PrimarySystem.circular_binary}
    system = builtin[name]() if name in builtin else ser.primary_system_from_obj(ser.load_json(name))
    model, chart = build_restricted_field(
        system, degree=cfg["degree"], alpha0=cfg["alpha0"], gtilde0=cfg["gtilde0"],
    )
    # the builders emit the same model format the solver commands ingest
    ser.dump_json(ser.model_to_obj(model), os.path.join(out, "model.json"))
    res = solve_manifold(model, cfg["order"], **_solver_kw(cfg))
    rep, orbit = escape_demo(
        system, res.solution, chart, x0=cfg["x0"], horizon=cfg["horizon"], tol=cfg["demo_tol"],
    )
    ser.write_csv(
        os.path.join(out, "demo.csv"),
        ["t", "r", "y", "energy", "law_ratio"],
        [(s["t"], s["r"], s["y"], s["energy"], s["law_ratio"]) for s in rep.samples],
    )
    lo, hi = rep.law_ratio_range
    print(f"law ratio within [{lo:.4f}, {hi:.4f}] on window; "
          f"|y_end|={abs(rep.y_end):.2e}; |E_end|={abs(rep.energy_end):.2e}; "
          f"{'PASS' if rep.all_pass else 'FAIL'}")
    return _exit(rep.all_pass), {
        "chart": chart.report(),
        "a_bar": model.a_bar, "b": res.b,
        "law_ratio_range": list(rep.law_ratio_range),
        "law_window": list(rep.law_window),
        "law_ok": rep.law_ok,
        "y_end": rep.y_end, "y_ok": rep.y_ok,
        "energy_end": rep.energy_end, "energy_ok": rep.energy_ok,
        "control_law_fails": rep.control_law_fails,
        "orbit_nfev": rep.orbit_nfev,
        "all_pass": rep.all_pass,
    }


def cmd_conjugate(cfg, out):
    model = _load_model(cfg)
    b, K, res = conjugate_normal_form(model, cfg["order"], **_solver_kw(cfg))
    ser.dump_json(ser.solution_to_obj(res.solution), os.path.join(out, "solution.json"))
    print(f"normal-form invariant b = {b:.12g}")
    return 0, {"b": b, "a_bar": res.solution.reduced.a_bar, "order": res.solution.j}


def cmd_scan(cfg, out):
    freq = diophantine_scan(
        _required(cfg, "omega"), cfg["nu"] or (), cfg["tau"], cfg["k_max"], sense=cfg["sense"],
    )
    rec = {
        "omega": list(freq.omega), "nu": list(freq.nu), "tau": freq.tau,
        "k_max": freq.k_max_checked, "sense": freq.sense,
        "c_estimate": freq.c_estimate,
        "worst_k": list(freq.worst_k) if freq.worst_k else None,
    }
    ser.dump_json({"status": "ok", "command": cfg["command"], **rec}, os.path.join(out, "scan.json"))
    print(f"c_estimate = {freq.c_estimate:.6g} (worst k = {freq.worst_k})")
    return 0, rec


# -------------------------------------------------------------------- sweep


def _sweep_entry(payload):
    label, cfg = payload
    try:
        code = _run(_checked(cfg))
        # read back, not kept in memory: the JSON round trip turns the int keys
        # of free_choices.kbar_theta into strings, which the merged record sorts
        return label, code, ser.load_json(os.path.join(cfg["outdir"], "summary.json"))
    except Exception as e:  # merged table records per-entry failures
        rec = _failure(e, cfg["outdir"])
        return label, rec["error_code"], rec


def _sweep(cfg, out):
    """Run each sweep row, the config with the row's fields, in its own directory."""
    entries = []
    for row in cfg["sweep"]:
        row = dict(row)
        label = row.pop("label", None) or os.path.basename(str(row.get("model", "entry")))
        _declared(row, f"sweep row {label!r}")
        entries.append((label, {**cfg, "sweep": [], **row, "outdir": os.path.join(out, label)}))
    entries.sort(key=lambda e: e[0])
    # rows of one label would write one directory and one entry of the merged record
    repeated = sorted({a for (a, _), (b, _) in zip(entries, entries[1:]) if a == b})
    if repeated:
        raise ParatoriError(f"sweep rows share the label(s) {', '.join(map(repr, repeated))}; "
                            "give each row its own label")
    if cfg["workers"] > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg["workers"]) as pool:
            results = list(pool.map(_sweep_entry, entries))
    else:
        results = [_sweep_entry(e) for e in entries]
    ok = all(code == 0 for _, code, _ in results)
    # the merged record names its command "solve" for both kinds
    return _exit(ok), {
        "status": "ok" if ok else "error", "command": "solve",
        "entries": {label: {"exit": code, "summary": summary} for label, code, summary in results},
    }


# --------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paratori",
        description="Parabolic-torus manifolds via the parameterization method",
    )
    sub = p.add_subparsers(required=True)

    def command(name, func, help, model=True, **defaults):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="JSON config file; flags override fields")
        sp.add_argument("--outdir", help="artifact directory")
        if model:
            sp.add_argument("--model", help="model file or builtin:<name>")
        sp.add_argument("--order", type=int, help="target expansion order j")
        sp.set_defaults(func=func, command=name, **defaults)
        return sp

    for kind in ("map", "flow"):
        sp = command(f"solve-{kind}", cmd_solve, f"run the {kind} engine", kind=kind)
        sp.add_argument("--checkpoint", action="store_true", default=None)

    sp = command("verify", cmd_verify, "fit error decay orders")
    sp.add_argument("--solution", help="solution record from a solve run")

    sp = command("iterate", cmd_iterate, "iterate the full map")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--state", type=float, nargs="+")

    sp = command("restricted-demo", cmd_restricted_demo,
                 "parabolic-infinity escape demonstration", model=False)
    sp.add_argument("--system", help="single | binary | system file")
    sp.add_argument("--x0", type=float)
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--gtilde0", type=float)

    command("conjugate", cmd_conjugate, "normal-form invariant b (m = 0)")

    sp = command("scan-diophantine", cmd_scan, "certify a frequency vector", model=False)
    sp.add_argument("--omega", type=float, nargs="+")
    sp.add_argument("--nu", type=float, nargs="+")
    sp.add_argument("--tau", type=float)
    sp.add_argument("--k-max", dest="k_max", type=int)
    sp.add_argument("--sense", choices=("map", "flow"))

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {"outdir": args.outdir or _DEFAULTS["outdir"]}
    try:
        cfg = _load_config(args)
        return _run(_checked(cfg))
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps errors to codes
        code = _failure(e, cfg["outdir"])["error_code"]
        print(f"error[{code}] {type(e).__name__}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    # every artifact is closed and the sweep pool shut down by the time main()
    # returns, so the process ends here without the interpreter's teardown
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
