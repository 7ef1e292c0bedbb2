"""Structured text (JSON) records and CSV emitters.

Every record is written with sorted keys and canonical float repr so that
identical inputs produce byte-identical artifacts.  Series records are
lists of (multi-index, re, im) triples; jets are lists of monomial rows;
models declare their structure plus coefficient tables; solutions store
the split averaged/oscillatory coefficient tables of the expansion.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

try:  # CPython's builtin sha256: hashlib loads OpenSSL, about 3.5 MB more resident memory
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256  # before Python 3.12
    except ImportError:
        from hashlib import sha256

from .errors import HypothesisViolation, ParatoriError
from .fourier import FourierSeries, FrequencyVector, diophantine_scan
from .jet import Jet
from .model import FlowModel, MapModel, ReducedField, ReducedMap
from .cohomology import ManifoldSolution

__all__ = [
    "series_to_obj", "series_from_obj",
    "jet_to_obj", "jet_from_obj",
    "model_to_obj", "model_from_obj",
    "solution_to_obj", "solution_from_obj",
    "primary_system_to_obj", "primary_system_from_obj",
    "torus_data_from_obj",
    "dump_json", "load_json", "write_csv",
]


def dump_json(obj: Any, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ParatoriError(f"cannot read record {path}: {e}") from e


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ------------------------------------------------------------------- series


def series_to_obj(s: FourierSeries) -> dict:
    modes = [
        [list(k), float(c.real), float(c.imag)]
        for k, c in sorted(s.coeffs.items())
    ]
    return {"dim": s.dim, "order_cap": s.order_cap, "modes": modes}


def series_from_obj(obj: dict) -> FourierSeries:
    coeffs = {tuple(k): complex(re, im) for k, re, im in obj.get("modes", [])}
    return FourierSeries(int(obj["dim"]), int(obj["order_cap"]), coeffs)


def jet_to_obj(j: Jet) -> dict:
    terms = [
        {"l": l, "k": list(k), "series": series_to_obj(s)}
        for (l, k), s in sorted(j.terms.items())
    ]
    return {
        "m": j.m, "deg": j.deg, "dim": j.dim, "order_cap": j.order_cap,
        "terms": terms,
    }


def jet_from_obj(obj: dict) -> Jet:
    terms = {
        (int(t["l"]), tuple(t["k"])): series_from_obj(t["series"])
        for t in obj.get("terms", [])
    }
    return Jet(int(obj["m"]), int(obj["deg"]), int(obj["dim"]),
               int(obj["order_cap"]), terms)


# ------------------------------------------------------------------- models


def _freq_to_obj(freq: FrequencyVector) -> dict:
    return {
        "omega": list(freq.omega),
        "nu": list(freq.nu),
        "tau": freq.tau,
        "k_max": freq.k_max_checked,
        "sense": freq.sense,
    }


def _freq_from_obj(obj: dict) -> FrequencyVector:
    k_max = int(obj.get("k_max", 0))
    if k_max >= 1:
        return diophantine_scan(
            obj["omega"], obj.get("nu", ()), float(obj.get("tau", 1.0)),
            k_max, sense=obj.get("sense", "map"),
        )
    return FrequencyVector(
        omega=tuple(obj["omega"]), nu=tuple(obj.get("nu", ())),
        tau=float(obj.get("tau", 1.0)), sense=obj.get("sense", "map"),
    )


def model_to_obj(model) -> dict:
    return {
        "kind": model.kind,
        "N": model.N,
        "P": model.declared_P if model.declared_P is not None else model.P,
        "m": model.m,
        "d": model.d,
        "order_cap": model.order_cap,
        "freq": _freq_to_obj(model.freq),
        "a": series_to_obj(model.a),
        "B": [[series_to_obj(model.B[i][j]) for j in range(model.m)]
              for i in range(model.m)],
        "f": jet_to_obj(model.f),
        "g": [jet_to_obj(j) for j in model.g],
        "h": [jet_to_obj(j) for j in model.h],
        "params": list(model.params),
    }


def _refuse_off_torus(what: str, obj: dict, dim: int, cap: int) -> None:
    """HypothesisViolation naming the path of each series or jet record in
    ``obj`` (each dict with a ``dim`` and an ``order_cap``) that is not on
    T^dim at ``cap``."""
    def walk(node, path):
        if isinstance(node, dict):
            if {"dim", "order_cap"} <= node.keys() and (node["dim"], node["order_cap"]) != (dim, cap):
                yield f"{path} (T^{node['dim']}, cap {node['order_cap']})"
            for key, v in node.items():
                if key != "modes":  # coefficients, no series below
                    yield from walk(v, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from walk(v, f"{path}[{i}]")

    differ = list(walk(obj, ""))
    if differ:
        raise HypothesisViolation(f"{what} holds series off its torus T^{dim} at cap {cap}: "
                                  + ", ".join(differ))


def model_from_obj(obj: dict):
    """The model a record holds.  Every series and jet in it must be on the
    torus of ``a`` at the record's ``order_cap``, else HypothesisViolation
    names each one that is not."""
    _refuse_off_torus("model", obj, obj["a"]["dim"], obj["order_cap"])
    kind = obj.get("kind", "map")
    freq = _freq_from_obj(obj["freq"])
    a = series_from_obj(obj["a"])
    m = int(obj["m"])
    B = [[series_from_obj(obj["B"][i][j]) for j in range(m)] for i in range(m)] if m else None
    f = jet_from_obj(obj["f"]) if "f" in obj else None
    g = [jet_from_obj(o) for o in obj.get("g", [])] or None
    h = [jet_from_obj(o) for o in obj.get("h", [])] or None
    cls = FlowModel if kind == "flow" else MapModel
    deg = f.deg if f is not None else None
    return cls.build(
        N=int(obj["N"]), P=int(obj["P"]), freq=freq, a=a, m=m,
        order_cap=int(obj["order_cap"]), B=B, f=f, g=g, h=h, deg=deg,
        params=obj.get("params", ()),
    )


# ---------------------------------------------------------------- solutions


# the model fields a solution record repeats, so that it can be checked
# against the model it is loaded with
_SHAPE = ("kind", "N", "P", "m", "d", "dim", "order_cap")


def _model_sha256(model) -> str:
    """The sha256 of the model's canonical record: tells apart two models of one shape."""
    return sha256(json.dumps(model_to_obj(model), sort_keys=True).encode()).hexdigest()


def solution_to_obj(sol: ManifoldSolution) -> dict:
    red, model = sol.reduced, sol.model
    return {
        "j": sol.j, **{key: getattr(model, key) for key in _SHAPE},
        "model_sha256": _model_sha256(model),
        "kbar_x": {str(l): v for l, v in sorted(sol.kbar_x.items())},
        "ktil_x": {str(o): series_to_obj(s) for o, s in sorted(sol.ktil_x.items())},
        "kbar_y": {str(l): list(v) for l, v in sorted(sol.kbar_y.items())},
        "ktil_y": {str(o): [series_to_obj(s) for s in r] for o, r in sorted(sol.ktil_y.items())},
        "kbar_th": {str(l): list(v) for l, v in sorted(sol.kbar_th.items())},
        "ktil_th": {str(o): [series_to_obj(s) for s in r] for o, r in sorted(sol.ktil_th.items())},
        "reduced": {
            "type": "map" if isinstance(red, ReducedMap) else "field",
            "N": red.N, "a_bar": red.a_bar, "omega": list(model.freq.omega),
            "b": red.b,
            "theta_terms": {str(o): list(v) for o, v in sorted(red.theta_terms.items())},
        },
        "free_choices": {
            k: (v if not isinstance(v, dict) else {str(a): list(b) for a, b in v.items()})
            for k, v in sol.free_choices.items()
        },
    }


def solution_from_obj(obj: dict, model: MapModel | FlowModel) -> ManifoldSolution:
    """The solution a record holds, as a solution of ``model``; the record's
    shape and rotation, then its reduced dynamics' N and a_bar, and then its
    ``model_sha256`` must be the model's, and every series it holds must be
    on the model's torus at its cap, else HypothesisViolation names each
    field that differs."""
    red_obj = obj["reduced"]
    # a_bar is the model's own float, which JSON round-trips exactly
    for stored, own in (
        ({**{key: obj[key] for key in _SHAPE}, "omega": red_obj["omega"]},
         {**{key: getattr(model, key) for key in _SHAPE}, "omega": list(model.freq.omega)}),
        ({"reduced.N": red_obj["N"], "reduced.a_bar": red_obj["a_bar"]},
         {"reduced.N": model.N, "reduced.a_bar": model.a_bar}),
        ({"model_sha256": obj.get("model_sha256")}, {"model_sha256": _model_sha256(model)}),
    ):
        differ = [f"{key} {stored[key]} (model {own[key]})" for key in stored if stored[key] != own[key]]
        if differ:
            raise HypothesisViolation("solution was solved for another model: " + ", ".join(differ))
    _refuse_off_torus("solution", obj, model.dim, model.order_cap)
    cls = ReducedMap if model.kind == "map" else ReducedField
    red = cls(
        N=int(red_obj["N"]), a_bar=float(red_obj["a_bar"]), b=red_obj["b"],
        theta_terms={int(o): tuple(v) for o, v in red_obj.get("theta_terms", {}).items()},
    )
    return ManifoldSolution(
        model=model, j=int(obj["j"]),
        kbar_x={int(l): float(v) for l, v in obj["kbar_x"].items()},
        ktil_x={int(o): series_from_obj(s) for o, s in obj["ktil_x"].items()},
        kbar_y={int(l): tuple(v) for l, v in obj["kbar_y"].items()},
        ktil_y={int(o): [series_from_obj(s) for s in r] for o, r in obj["ktil_y"].items()},
        kbar_th={int(l): tuple(v) for l, v in obj["kbar_th"].items()},
        ktil_th={int(o): [series_from_obj(s) for s in r] for o, r in obj["ktil_th"].items()},
        reduced=red,
        free_choices=obj.get("free_choices", {}),
    )


# ---------------------------------------------------------------- celestial


def primary_system_to_obj(sys) -> dict:
    return {
        "masses": list(sys.masses),
        "omega": list(sys.omega),
        "qx": [series_to_obj(s) for s in sys.qx],
        "qy": [series_to_obj(s) for s in sys.qy],
    }


def primary_system_from_obj(obj: dict):
    from .celestial import PrimarySystem

    return PrimarySystem(
        masses=tuple(float(v) for v in obj["masses"]),
        qx=tuple(series_from_obj(o) for o in obj["qx"]),
        qy=tuple(series_from_obj(o) for o in obj["qy"]),
        omega=tuple(float(v) for v in obj["omega"]),
    )


def torus_data_from_obj(obj: dict):
    from .celestial import TorusData

    c2 = obj.get("c2")
    return TorusData(
        omega0=tuple(float(v) for v in obj["omega0"]),
        n=int(obj["n"]),
        c2=None if c2 is None else np.asarray(c2, dtype=float),
        extra_tails=obj.get("extra_tails", []),
        angular_momentum_internal=float(obj.get("angular_momentum_internal", 0.0)),
    )

