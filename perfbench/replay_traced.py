"""Traced in-process replay of one workload.

    python3 perfbench/replay_traced.py <out.json> <paratori CLI arguments...>

Runs ``paratori.cli.main`` on the given arguments, the same public calls
the CLI makes, with spans around the calls into each module.  The spans
are recorded only from this file: every public function is replaced by a
wrapper in each module namespace that binds it (``cohomology`` imports
``compose_skew_param`` by name, ``cli`` imports ``solve_manifold``, ...),
and methods are wrapped on their class.  Spans stay in memory as a tree
aggregated by (parent span, span) and are written out at the end together
with the per-layer metrics derived from them.

A metric ending in ``_total_s`` is the inclusive time of its span; any
other ``_s`` metric is self time, the span minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

_t0 = time.perf_counter()
import paratori.cli as cli  # noqa: E402  (the import is what cli.import_s times)

IMPORT_S = time.perf_counter() - _t0

from paratori import celestial, cohomology, dynamics, fourier, jet, serialize, verify  # noqa: E402
from paratori import benchmark as bundled  # noqa: E402

# span name -> the functions it covers, rebound wherever they are bound
FUNCTION_SPANS = {
    "cohomology.solve_total": (cohomology.solve_manifold,),
    "cohomology.extend_order": (cohomology.extend_order,),
    "cohomology.invariance_error": (cohomology.invariance_error,),
    "jet.compose": (jet.compose_skew_param, jet.compose_param_param, jet.jet_compose),
    "fourier.sd_solve": (fourier.sd_solve_map, fourier.sd_solve_flow),
    "verify.fit_total": (verify.fit_error_orders_auto,),
    "verify.fit": (verify.fit_error_orders,),
    "dynamics.integrate": (dynamics.integrate_flow,),
    "celestial.build": (celestial.build_restricted_field,),
    "serialize.dump": (serialize.dump_json, serialize.solution_to_obj, serialize.model_to_obj),
    "model.load": (bundled.builtin_model, serialize.model_from_obj, serialize.load_json),
}
METHOD_SPANS = {
    "fourier.construct": (fourier.FourierSeries, "__init__"),
    "fourier.series_mul": (fourier.FourierSeries, "series_mul"),
    "fourier.evaluate": (fourier.FourierSeries, "evaluate"),
    "jet.jet_mul": (jet.Jet, "jet_mul"),
    "jet.evaluate": (jet.Jet, "evaluate"),
    "celestial.rhs": (celestial.RestrictedField, "rhs"),
}
# spans reported as ``<name>_calls``
CALL_COUNTED = ("cohomology.invariance_error", "jet.compose", "jet.jet_mul", "jet.evaluate",
                "fourier.construct", "fourier.series_mul", "fourier.evaluate", "fourier.sd_solve")
INCLUSIVE = ("cohomology.solve_total", "verify.fit_total")

_FIT_SIG = inspect.signature(verify.fit_error_orders)


class Tracer:
    """A span stack plus the aggregated span tree and the exact counts."""

    def __init__(self):
        self.stack: list[list] = []                 # [name, child seconds]
        self.edges: dict[tuple, list] = {}          # (parent, name) -> [calls, total, self]
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` and ``after(args, out)`` count."""
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after is not None:
                after(args, out)
            return out

        return traced

    def totals(self, name: str) -> tuple[int, float, float]:
        calls = total = self_s = 0
        for (_, child), (c, t, s) in self.edges.items():
            if child == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s


def _pairs(tracer):
    def count(args, kwargs):
        tracer.add("fourier.series_mul_pairs", len(args[0].coeffs) * len(args[1].coeffs))
    return count


def _points(tracer):
    # counted before the call: a window that raises WindowTooWide was still sampled
    def count(args, kwargs):
        bound = _FIT_SIG.bind(*args, **kwargs)
        bound.apply_defaults()
        n_theta = bound.arguments["theta_samples"] ** bound.arguments["sol"].d
        tracer.add("verify.points", bound.arguments["n_samples"] * n_theta)
    return count


def _nfev(tracer):
    def count(args, out):
        tracer.add("dynamics.rhs_calls", int(out.meta["nfev"]))
    return count


def _bytes(tracer):
    def count(args, out):
        if len(args) == 2:  # dump_json(obj, path)
            tracer.add("serialize.bytes", os.path.getsize(args[1]))
    return count


def install(tracer: Tracer) -> None:
    """Wrap every traced function where it is bound and every traced method."""
    before = {"fourier.series_mul": _pairs(tracer), "verify.fit": _points(tracer)}
    after = {"dynamics.integrate": _nfev(tracer), "serialize.dump": _bytes(tracer)}
    modules = [m for n, m in sys.modules.items() if n == "paratori" or n.startswith("paratori.")]
    for name, fns in FUNCTION_SPANS.items():
        for fn in fns:
            wrapped = tracer.wrap(name, fn, before.get(name), after.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
    # ``validate`` is also called inside the solve (by ``base_step``); only
    # the CLI's own call belongs to loading the model
    cli.validate = tracer.wrap("model.load", cli.validate)
    for name, (cls, attr) in METHOD_SPANS.items():
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before.get(name), after.get(name)))


def metrics(tracer: Tracer) -> dict[str, float | int]:
    out: dict[str, float | int] = {"cli.import_s": IMPORT_S}
    for name in sorted(set(FUNCTION_SPANS) | set(METHOD_SPANS)):
        calls, total, self_s = tracer.totals(name)
        out[name + "_s"] = total if name in INCLUSIVE else self_s
        if name in CALL_COUNTED:
            out[name + "_calls"] = calls
    # fit_error_orders_auto calls fit_error_orders once per window it tries
    fits = tracer.totals("verify.fit")[0]
    autos = tracer.totals("verify.fit_total")[0]
    out["verify.attempts"] = fits / autos if autos else 0
    for key in ("fourier.series_mul_pairs", "verify.points", "dynamics.rhs_calls",
                "serialize.bytes"):
        out[key] = tracer.counts.get(key, 0)
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv)
    spans = [
        {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
        for (parent, name), (c, t, s) in sorted(tracer.edges.items(), key=lambda e: str(e[0]))
    ]
    with open(out_path, "w") as fh:
        json.dump({"exit_code": code, "metrics": metrics(tracer), "spans": spans}, fh,
                  indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
