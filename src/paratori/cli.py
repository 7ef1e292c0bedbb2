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

from . import benchmark
from .celestial import PrimarySystem, build_restricted_field, escape_demo
from .cohomology import FreeChoicePolicy, conjugate_normal_form, solve_manifold
from .dynamics import iterate_map
from .errors import HypothesisViolation, ParatoriError
from .fourier import diophantine_scan
from .model import validate  # noqa: F401 - the benchmark's set-up probe calls cli.validate
from .verify import fit_error_orders_auto
from . import serialize as ser

# every config field, declared once with its default (None where only a flag
# or the config gives it); any other field is refused
_DEFAULTS = {
    "model": None,
    "solution": None,
    "outdir": None,
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


def _declared(fields: dict, where: str, extra=()) -> dict:
    """``fields``, refused when one is declared neither in ``_DEFAULTS`` nor in ``extra``."""
    unknown = sorted(set(fields) - set(_DEFAULTS) - set(extra))
    if unknown:
        raise ParatoriError(f"unknown field(s) in {where}: {', '.join(map(repr, unknown))}")
    return fields


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_declared(ser.load_json(args.config), "the config"))
    for key, val in vars(args).items():
        if key in ("func", "config"):
            continue
        if val is not None:
            cfg[key] = val
    for key in ("divisor_floor", "order_tolerance", "slope_slack"):
        if cfg.get(key) is not None and float(cfg[key]) <= 0:
            raise ParatoriError(f"config field {key} must be positive")
    if int(cfg.get("order", 1)) < 1:
        raise ParatoriError("order must be >= 1")
    for key, least in (("theta_samples", 1), ("n_samples", 4)):
        if int(cfg[key]) < least:
            raise ParatoriError(f"config field {key} must be >= {least}")
    return cfg


def _outdir(cfg) -> str:
    out = cfg.get("outdir") or "paratori-run"
    os.makedirs(out, exist_ok=True)
    return out


def _required(cfg, key: str):
    """``cfg[key]``, which a flag or the config file must give."""
    if cfg.get(key) is None:
        raise ParatoriError(f"--{key} is required (or the config field {key!r})")
    return cfg[key]


def _load_model(cfg, kind: str | None = None, command: str = ""):
    """The model that ``cfg`` names; ``command`` runs only on a model of ``kind``."""
    spec = _required(cfg, "model")
    if spec.startswith("builtin:"):
        model = benchmark.builtin_model(spec.split(":", 1)[1])
    else:
        model = ser.model_from_obj(ser.load_json(spec))
    if kind and model.kind != kind:
        raise HypothesisViolation(f"{command} invoked on a {model.kind} model")
    return model


def _policy(cfg) -> FreeChoicePolicy:
    fc = cfg.get("free_choices") or {}
    return FreeChoicePolicy(
        kbar_x_at_N=float(fc.get("kbar_x_at_N", 0.0)),
        kbar_theta={int(k): tuple(v) for k, v in fc.get("kbar_theta", {}).items()},
    )


def _write_order_report(out, report):
    ser.write_csv(
        os.path.join(out, "order_report.csv"),
        ["component", "slope", "target", "pass"],
        report.rows(),
    )
    ser.write_csv(
        os.path.join(out, "residuals.csv"),
        ["x", "e_x", "e_y", "e_theta"],
        [(r["x"], r["e_x"], r["e_y"], r["e_theta"]) for r in report.samples],
    )


def _summarize_solution(res, report=None) -> dict:
    sol = res.solution
    out = {
        "j": sol.j,
        "a_bar": sol.reduced.a_bar,
        "b": sol.reduced.b,
        "per_order": res.per_order,
        "free_choices": sol.free_choices,
    }
    if report is not None:
        out["order_report"] = {
            "slopes": report.fitted_slope,
            "targets": report.target_order,
            "passes": report.passes,
            "x_window": list(report.x_window),
            "all_pass": report.all_pass,
        }
    return out


# ----------------------------------------------------------------- commands


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    if cfg.get("sweep"):
        return _run_sweep(cfg, "solve")
    return _solve_one(cfg)


def _solve_one(cfg) -> int:
    out = _outdir(cfg)
    model = _load_model(cfg, cfg.get("kind"), f"solve-{cfg.get('kind')}")
    order = int(cfg["order"])
    checkpoints = []

    def on_order(sol, err):
        if cfg.get("checkpoint"):
            path = os.path.join(out, f"solution_j{sol.j:02d}.json")
            ser.dump_json(ser.solution_to_obj(sol), path)
            checkpoints.append(path)

    res = solve_manifold(
        model, order, _policy(cfg),
        divisor_floor=float(cfg["divisor_floor"]),
        order_tolerance=float(cfg["order_tolerance"]),
        callback=on_order,
    )
    ser.dump_json(ser.solution_to_obj(res.solution), os.path.join(out, "solution.json"))
    report = fit_error_orders_auto(
        res.solution, tuple(cfg["x_window"]),
        n_samples=int(cfg["n_samples"]),
        theta_samples=int(cfg["theta_samples"]),
        slope_slack=float(cfg["slope_slack"]),
        error=res.error,
    )
    _write_order_report(out, report)
    summary = {"status": "ok", "command": f"solve-{model.kind}",
               **_summarize_solution(res, report)}
    ser.dump_json(summary, os.path.join(out, "summary.json"))
    print(f"solved to order {order}: a_bar={res.solution.reduced.a_bar:.12g} "
          f"b={res.b} report_pass={report.all_pass}")
    return 0 if report.all_pass else _EXIT_REGRESSION


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    model = _load_model(cfg)
    sol = ser.solution_from_obj(ser.load_json(_required(cfg, "solution")), model)
    report = fit_error_orders_auto(
        sol, tuple(cfg["x_window"]),
        n_samples=int(cfg["n_samples"]),
        theta_samples=int(cfg["theta_samples"]),
        slope_slack=float(cfg["slope_slack"]),
    )
    _write_order_report(out, report)
    ser.dump_json(
        {"status": "ok", "command": "verify",
         "slopes": report.fitted_slope, "targets": report.target_order,
         "passes": report.passes, "all_pass": report.all_pass},
        os.path.join(out, "summary.json"),
    )
    for comp, slope, target, ok in report.rows():
        print(f"{comp}: slope {slope:.3f} target {target} {'PASS' if ok else 'FAIL'}")
    return 0 if report.all_pass else _EXIT_REGRESSION


def cmd_iterate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    model = _load_model(cfg, "map", "iterate")
    state = cfg.get("state")
    if state is None:
        state = [0.05] + [0.0] * (model.m + model.dim)
    orbit = iterate_map(model, state, int(cfg["steps"]),
                        domain_radius=float(cfg["domain_radius"]))
    ncols = orbit.states.shape[1]
    header = ["k", "x"] + [f"y{i+1}" for i in range(model.m)] + [
        f"theta{r+1}" for r in range(ncols - 1 - model.m)
    ]
    ser.write_csv(
        os.path.join(out, "orbit.csv"), header,
        [(int(t), *row) for t, row in zip(orbit.times, orbit.states)],
    )
    ser.dump_json(
        {"status": "ok", "command": "iterate", "steps": len(orbit) - 1,
         "early_stop": orbit.early_stop},
        os.path.join(out, "summary.json"),
    )
    print(f"iterated {len(orbit)-1} steps"
          + (f" (left domain at {orbit.early_stop})" if orbit.early_stop else ""))
    return 0


def cmd_restricted_demo(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    name = cfg["system"]
    if name == "single":
        system = PrimarySystem.single()
    elif name == "binary":
        system = PrimarySystem.circular_binary()
    else:
        system = ser.primary_system_from_obj(ser.load_json(name))
    model, chart = build_restricted_field(
        system, degree=int(cfg["degree"]),
        alpha0=float(cfg["alpha0"]), gtilde0=float(cfg["gtilde0"]),
    )
    # the builders emit the same model format the solver commands ingest
    ser.dump_json(ser.model_to_obj(model), os.path.join(out, "model.json"))
    res = solve_manifold(model, int(cfg["order"]), _policy(cfg),
                         divisor_floor=float(cfg["divisor_floor"]),
                         order_tolerance=float(cfg["order_tolerance"]))
    rep, orbit = escape_demo(
        system, res.solution, chart, x0=float(cfg["x0"]),
        horizon=float(cfg["horizon"]), tol=float(cfg["demo_tol"]),
    )
    ser.write_csv(
        os.path.join(out, "demo.csv"),
        ["t", "r", "y", "energy", "law_ratio"],
        [(s["t"], s["r"], s["y"], s["energy"], s["law_ratio"]) for s in rep.samples],
    )
    summary = {
        "status": "ok", "command": "restricted-demo",
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
    ser.dump_json(summary, os.path.join(out, "summary.json"))
    lo, hi = rep.law_ratio_range
    print(f"law ratio within [{lo:.4f}, {hi:.4f}] on window; "
          f"|y_end|={abs(rep.y_end):.2e}; |E_end|={abs(rep.energy_end):.2e}; "
          f"{'PASS' if rep.all_pass else 'FAIL'}")
    return 0 if rep.all_pass else _EXIT_REGRESSION


def cmd_conjugate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    model = _load_model(cfg)
    b, K, res = conjugate_normal_form(
        model, int(cfg["order"]) if cfg.get("order") else None,
        _policy(cfg),
        divisor_floor=float(cfg["divisor_floor"]),
        order_tolerance=float(cfg["order_tolerance"]),
    )
    ser.dump_json(ser.solution_to_obj(res.solution), os.path.join(out, "solution.json"))
    ser.dump_json(
        {"status": "ok", "command": "conjugate", "b": b,
         "a_bar": res.solution.reduced.a_bar, "order": res.solution.j},
        os.path.join(out, "summary.json"),
    )
    print(f"normal-form invariant b = {b:.12g}")
    return 0


def cmd_scan(args) -> int:
    cfg = _load_config(args)
    out = _outdir(cfg)
    freq = diophantine_scan(
        _required(cfg, "omega"), cfg.get("nu") or (), float(cfg["tau"]),
        int(cfg["k_max"]), sense=cfg["sense"],
    )
    rec = {
        "status": "ok", "command": "scan-diophantine",
        "omega": list(freq.omega), "nu": list(freq.nu), "tau": freq.tau,
        "k_max": freq.k_max_checked, "sense": freq.sense,
        "c_estimate": freq.c_estimate,
        "worst_k": list(freq.worst_k) if freq.worst_k else None,
    }
    ser.dump_json(rec, os.path.join(out, "scan.json"))
    ser.dump_json(rec, os.path.join(out, "summary.json"))
    print(f"c_estimate = {freq.c_estimate:.6g} (worst k = {freq.worst_k})")
    return 0


# -------------------------------------------------------------------- sweep


def _failure(e: Exception, outdir) -> dict:
    """The error record of ``e``, also written as ``summary.json`` in ``outdir``."""
    rec = {"status": "error", "error_code": getattr(e, "exit_code", _EXIT_IO),
           "error_kind": type(e).__name__, "error": str(e)}
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
            ser.dump_json(rec, os.path.join(outdir, "summary.json"))
        except OSError:
            pass
    return rec


def _sweep_entry(payload):
    cfg, label = payload
    try:
        code = _solve_one(cfg)
        summary = ser.load_json(os.path.join(cfg["outdir"], "summary.json"))
        return label, code, summary
    except Exception as e:  # merged table records per-entry failures
        rec = _failure(e, cfg["outdir"])
        return label, rec["error_code"], rec


def _run_sweep(cfg, command: str) -> int:
    out = _outdir(cfg)
    entries = []
    for row in cfg["sweep"]:
        sub = dict(cfg)
        sub.pop("sweep")
        label = row.get("label") or os.path.basename(str(row.get("model", "entry")))
        sub.update(_declared(row, f"sweep row {label!r}", extra=("label",)))
        sub["outdir"] = os.path.join(out, label)
        entries.append((sub, label))
    entries.sort(key=lambda e: e[1])
    workers = int(cfg.get("workers", 1))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, entries))
    else:
        results = [_sweep_entry(e) for e in entries]
    merged = {
        "status": "ok" if all(code == 0 for _, code, _ in results) else "error",
        "command": command,
        "entries": {label: {"exit": code, "summary": summary}
                    for label, code, summary in results},
    }
    ser.dump_json(merged, os.path.join(out, "summary.json"))
    return 0 if merged["status"] == "ok" else _EXIT_REGRESSION


# --------------------------------------------------------------- entrypoint


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paratori",
        description="Parabolic-torus manifolds via the parameterization method",
    )
    sub = p.add_subparsers(required=True)

    def common(sp, model=True):
        sp.add_argument("--config", help="JSON config file; flags override fields")
        sp.add_argument("--outdir", help="artifact directory")
        if model:
            sp.add_argument("--model", help="model file or builtin:<name>")
        sp.add_argument("--order", type=int, help="target expansion order j")
        return sp

    sp = common(sub.add_parser("solve-map", help="run the map engine"))
    sp.add_argument("--checkpoint", action="store_true", default=None)
    sp.set_defaults(func=cmd_solve, kind="map")

    sp = common(sub.add_parser("solve-flow", help="run the flow engine"))
    sp.add_argument("--checkpoint", action="store_true", default=None)
    sp.set_defaults(func=cmd_solve, kind="flow")

    sp = common(sub.add_parser("verify", help="fit error decay orders"))
    sp.add_argument("--solution", help="solution record from a solve run")
    sp.set_defaults(func=cmd_verify)

    sp = common(sub.add_parser("iterate", help="iterate the full map"))
    sp.add_argument("--steps", type=int)
    sp.add_argument("--state", type=float, nargs="+")
    sp.set_defaults(func=cmd_iterate)

    sp = common(sub.add_parser("restricted-demo",
                               help="parabolic-infinity escape demonstration"),
                model=False)
    sp.add_argument("--system", help="single | binary | system file")
    sp.add_argument("--x0", type=float)
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--gtilde0", type=float)
    sp.set_defaults(func=cmd_restricted_demo)

    sp = common(sub.add_parser("conjugate", help="normal-form invariant b (m = 0)"))
    sp.set_defaults(func=cmd_conjugate)

    sp = common(sub.add_parser("scan-diophantine", help="certify a frequency vector"),
                model=False)
    sp.add_argument("--omega", type=float, nargs="+")
    sp.add_argument("--nu", type=float, nargs="+")
    sp.add_argument("--tau", type=float)
    sp.add_argument("--k-max", dest="k_max", type=int)
    sp.add_argument("--sense", choices=("map", "flow"))
    sp.set_defaults(func=cmd_scan)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps errors to codes
        code = _failure(e, getattr(args, "outdir", None))["error_code"]
        print(f"error[{code}] {type(e).__name__}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
