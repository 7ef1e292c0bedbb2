"""Structured text (JSON) records and CSV emitters.

Every record is written with sorted keys and canonical float repr so that
identical inputs produce byte-identical artifacts.  Series records are
lists of (multi-index, re, im) triples; jets are lists of monomial rows;
models declare their structure plus coefficient tables; solutions store
the split averaged/oscillatory coefficient tables of the expansion.
"""

from __future__ import annotations

import json
import math
from typing import Any

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
    if isinstance(v, float):  # numpy's float64 too, whose repr is not a number
        return repr(float(v))
    return str(v)


# ------------------------------------------------------------------- series


def series_to_obj(s: FourierSeries) -> dict:
    modes = [
        [list(k), float(c.real), float(c.imag)]
        for k, c in sorted(s.coeffs.items())
    ]
    return {"dim": s.dim, "order_cap": s.order_cap, "modes": modes}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _index(values, path: str) -> tuple[int, ...]:
    """``values``, a list of integers, as a tuple; else HypothesisViolation
    naming ``path``."""
    if not isinstance(values, (list, tuple)) or not all(map(_is_int, values)):
        raise HypothesisViolation(f"{path}: index {values!r} is not a list of integers")
    return tuple(values)


def _integer(obj: dict, key: str, path: str) -> int:
    """``obj[key]``, an integer; else HypothesisViolation naming ``path`` and
    ``key``."""
    if not _is_int(obj[key]):
        raise HypothesisViolation(f"{path}: {key} = {obj[key]!r} is not an integer")
    return obj[key]


def _number(v, path: str) -> float:
    """``v``, a finite number, as a float; else HypothesisViolation naming ``path``."""
    if not ((_is_int(v) or isinstance(v, float)) and math.isfinite(v)):
        raise HypothesisViolation(f"{path}: {v!r} is not a finite number")
    return float(v)


def _entries(v, n: int | None, path: str, read=_number) -> list:
    """``v``, a list of ``n`` entries (of any number when ``n`` is None),
    each as ``read`` takes it; else HypothesisViolation naming ``path``."""
    if not isinstance(v, list) or n is not None and len(v) != n:
        raise HypothesisViolation(f"{path}: {v!r} is not a list" + (f" of length {n}" if n is not None else ""))
    return [read(e, f"{path}[{i}]") for i, e in enumerate(v)]


def _record(obj, path: str, kind: str, keys=()) -> dict:
    """``obj``, a JSON object holding each of ``keys``; else
    HypothesisViolation naming ``path`` (the ``kind`` record's), or the
    missing key under it."""
    if not isinstance(obj, dict):
        raise HypothesisViolation(f"{path or kind}: {obj!r} is not a {kind} record")
    for key in keys:
        if key not in obj:
            raise HypothesisViolation(f"{path + '.' if path else ''}{key}: missing from the {kind} record")
    return obj


def _by_order(table: dict, path: str, read) -> dict:
    """``table``, keyed by orders written as integers, as {order:
    read(value, path of the value)}; else HypothesisViolation naming the key."""
    for o in table:
        if not (isinstance(o, str) and o.isdecimal()):
            raise HypothesisViolation(f"{path}.{o}: order {o!r} is not an integer")
    return {int(o): read(v, f"{path}.{o}") for o, v in table.items()}


def series_from_obj(obj: dict, path: str = "series") -> FourierSeries:
    """The series a record holds.  It must be a record with integer ``dim``
    and ``order_cap``, and its ``modes`` a list of [mode, re, im] rows whose
    mode is a list of ``dim`` integers, listed once, with finite parts, else
    HypothesisViolation names the record's path (``path``, then the
    mode's)."""
    dim, cap = (_integer(_record(obj, path, "series", ("dim", "order_cap")), key, path)
                for key in ("dim", "order_cap"))
    coeffs = {}

    def mode(row, where):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise HypothesisViolation(f"{where}: row {row!r} is not a [mode, re, im] triple")
        k, re, im = row
        k = _index(k, where)
        if len(k) != dim:
            raise HypothesisViolation(f"{where}: mode {list(k)} is not a mode of T^{dim}")
        if not all((_is_int(v) or isinstance(v, float)) and math.isfinite(v) for v in (re, im)):
            raise HypothesisViolation(f"{where}: coefficient ({re!r}, {im!r}) is not a finite number")
        if k in coeffs:
            raise HypothesisViolation(f"{where}: mode {list(k)} is listed twice")
        coeffs[k] = complex(re, im)

    _entries(obj.get("modes", []), None, f"{path}.modes", mode)
    return FourierSeries(dim, cap, coeffs)


def jet_to_obj(j: Jet) -> dict:
    terms = [
        {"l": l, "k": list(k), "series": series_to_obj(s)}
        for (l, k), s in sorted(j.terms.items())
    ]
    return {
        "m": j.m, "deg": j.deg, "dim": j.dim, "order_cap": j.order_cap,
        "terms": terms,
    }


def jet_from_obj(obj: dict, path: str = "jet") -> Jet:
    """The jet a record holds.  Its ``m``, ``deg``, ``dim`` and ``order_cap``
    must be integers, every monomial (l, k) integers, listed once, and every
    series as :func:`series_from_obj` takes it, else HypothesisViolation
    names the record's path (``path``, then the term's)."""
    shape = ("m", "deg", "dim", "order_cap")
    _record(obj, path, "jet", shape)
    terms = {}

    def term(t, where):
        _record(t, where, "term", ("l", "k", "series"))
        if not _is_int(t["l"]):
            raise HypothesisViolation(f"{where}: power l = {t['l']!r} is not an integer")
        key = t["l"], _index(t["k"], where)
        if key in terms:
            raise HypothesisViolation(f"{where}: monomial l = {key[0]}, k = {list(key[1])} is listed twice")
        terms[key] = series_from_obj(t["series"], f"{where}.series")

    _entries(obj.get("terms", []), None, f"{path}.terms", term)
    return Jet(*(_integer(obj, key, path) for key in shape), terms)


# ------------------------------------------------------------------- models


def _freq_to_obj(freq: FrequencyVector) -> dict:
    return {
        "omega": list(freq.omega),
        "nu": list(freq.nu),
        "tau": freq.tau,
        "k_max": freq.k_max_checked,
        "sense": freq.sense,
    }


def _freq_from_obj(obj: dict, kind: str) -> FrequencyVector:
    """The frequency vector of a ``kind`` model's record, scanned when its
    ``k_max`` is positive.  Its ``omega`` and ``nu`` must be lists of finite
    numbers, ``tau`` a finite number, ``k_max`` an integer and ``sense``, by
    default the model's kind, that kind, else HypothesisViolation names the
    field."""
    omega = tuple(_entries(_record(obj, "freq", "frequency", ("omega",))["omega"], None, "freq.omega"))
    nu = tuple(_entries(obj.get("nu", []), None, "freq.nu"))
    tau = _number(obj.get("tau", 1.0), "freq.tau")
    sense = obj.get("sense", kind)
    if sense != kind:
        raise HypothesisViolation(f"freq.sense: {sense!r} is not the {kind} model's {kind!r}")
    k_max = _integer(obj, "k_max", "freq") if "k_max" in obj else 0
    if k_max >= 1:
        return diophantine_scan(omega, nu, tau, k_max, sense=sense)
    return FrequencyVector(omega=omega, nu=nu, tau=tau, sense=sense)


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
    """The model a record holds.  Its ``kind`` must be "map" (the default) or
    "flow", its ``N``, ``P``, ``m``, ``order_cap`` and ``freq.k_max``
    integers, its ``d``, when given, the number of entries of omega, and
    every series and jet in it must be on the torus of ``a`` at the record's
    ``order_cap``, else HypothesisViolation names what is not.  Each field
    must be a record or a list where the record holds one, else
    HypothesisViolation names its path."""
    _record(obj, "", "model", ("N", "P", "m", "order_cap", "freq", "a"))
    kind = obj.get("kind", "map")
    if kind not in ("map", "flow"):
        raise HypothesisViolation(f"model kind {kind!r} is neither 'map' nor 'flow'")
    freq = _freq_from_obj(obj["freq"], kind)
    d = len(freq.omega)
    if obj.get("d", d) != d:
        raise HypothesisViolation(f"model record has d = {obj['d']} but len(omega) = {d}")
    N, P, m, cap = (_integer(obj, key, "model") for key in ("N", "P", "m", "order_cap"))
    _refuse_off_torus("model", obj, _integer(_record(obj["a"], "a", "series", ("dim",)), "dim", "a"), cap)
    a = series_from_obj(obj["a"], "a")
    B = _entries(obj.get("B"), m, "B", lambda row, path: _entries(row, m, path, series_from_obj)) if m else None
    f = jet_from_obj(obj["f"], "f") if "f" in obj else None
    g = _entries(obj.get("g", []), None, "g", jet_from_obj) or None
    h = _entries(obj.get("h", []), None, "h", jet_from_obj) or None
    cls = FlowModel if kind == "flow" else MapModel
    deg = f.deg if f is not None else None
    return cls.build(
        N=N, P=P, freq=freq, a=a, m=m, order_cap=cap, B=B, f=f, g=g, h=h, deg=deg,
        params=_entries(obj.get("params", []), None, "params"),
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
    field that differs.  Its ``j``, ``reduced.N`` and orders must be
    integers, ``reduced.b`` null below order N and, from N on, a finite
    number as every averaged coefficient is, and each vector of length m
    (y) or d (theta), else HypothesisViolation names the field."""
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
    j, m, d = _integer(obj, "j", "solution"), model.m, model.d
    if j < model.N and red_obj["b"] is not None:
        raise HypothesisViolation(f"reduced.b = {red_obj['b']!r} is set below order N = {model.N}")
    cls = ReducedMap if model.kind == "map" else ReducedField
    red = cls(
        N=_integer(red_obj, "N", "reduced"), a_bar=float(red_obj["a_bar"]),
        b=None if j < model.N else _number(red_obj["b"], "reduced.b"),
        theta_terms=_by_order(red_obj.get("theta_terms", {}), "reduced.theta_terms",
                              lambda v, path: tuple(_entries(v, d, path))),
    )
    return ManifoldSolution(
        model=model, j=j,
        kbar_x=_by_order(obj["kbar_x"], "kbar_x", _number),
        ktil_x=_by_order(obj["ktil_x"], "ktil_x", series_from_obj),
        kbar_y=_by_order(obj["kbar_y"], "kbar_y", lambda v, path: tuple(_entries(v, m, path))),
        ktil_y=_by_order(obj["ktil_y"], "ktil_y", lambda r, path: _entries(r, m, path, series_from_obj)),
        kbar_th=_by_order(obj["kbar_th"], "kbar_th", lambda v, path: tuple(_entries(v, d, path))),
        ktil_th=_by_order(obj["ktil_th"], "ktil_th", lambda r, path: _entries(r, d, path, series_from_obj)),
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
    """The primaries a record holds.  Its ``masses`` and ``omega`` must be
    lists of finite numbers and its ``qx`` and ``qy`` lists of series
    records, else HypothesisViolation names the field."""
    from .celestial import PrimarySystem

    _record(obj, "", "system", ("masses", "qx", "qy", "omega"))

    def field(key, read):
        return tuple(_entries(obj[key], None, key, read))

    return PrimarySystem(masses=field("masses", _number), qx=field("qx", series_from_obj),
                         qy=field("qy", series_from_obj), omega=field("omega", _number))
