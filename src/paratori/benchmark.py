"""Bundled synthetic models used by the test suite and the CLI.

The map benchmark is small enough to solve in milliseconds yet exercises
every block of the engine: theta-dependent a and B (single mode each),
an x y cross term feeding the x-equation through the y-averages, pure-x
tails driving the y and theta chains, and a quadratic angle coupling.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import FourierSeries, diophantine_scan
from .jet import Jet, SkewMap, compose, invert_x_jet
from .model import MapModel, FlowModel, _x_change, model_from

__all__ = [
    "GOLDEN",
    "benchmark_map_model",
    "benchmark_flow_model",
    "toy_x2_flow_model",
    "time1_map_of_toy",
    "conjugacy_fixture",
    "builtin_model",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def benchmark_map_model(order_cap: int = 24, deg: int = 12) -> MapModel:
    """The synthetic benchmark: d = 1, m = 1, N = 2, P = 2, single modes."""
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=80)
    dim, m = 1, 1
    a = FourierSeries.constant(1.0, dim, order_cap) + FourierSeries.cosine((1,), dim, order_cap, 0.5)
    B = [[FourierSeries.constant(1.0, dim, order_cap) + FourierSeries.cosine((1,), dim, order_cap, 0.25)]]
    f = (
        Jet.monomial(1, (1,), FourierSeries.constant(0.3, dim, order_cap)
                     + FourierSeries.cosine((1,), dim, order_cap, 0.2), m, deg, dim, order_cap)
        + Jet.monomial(0, (2,), 0.15, m, deg, dim, order_cap)
        + Jet.monomial(3, (0,), FourierSeries.constant(-0.2, dim, order_cap)
                       + FourierSeries.sine((1,), dim, order_cap, 0.1), m, deg, dim, order_cap)
    )
    g = [
        Jet.monomial(0, (2,), FourierSeries.constant(0.25, dim, order_cap)
                     + FourierSeries.cosine((1,), dim, order_cap, 0.1), m, deg, dim, order_cap)
        + Jet.monomial(2, (1,), 0.2, m, deg, dim, order_cap)
        + Jet.monomial(3, (0,), FourierSeries.constant(0.3, dim, order_cap)
                       + FourierSeries.cosine((1,), dim, order_cap, 0.15), m, deg, dim, order_cap)
    ]
    h = [
        Jet.monomial(2, (0,), FourierSeries.constant(0.1, dim, order_cap)
                     + FourierSeries.sine((1,), dim, order_cap, 0.3), m, deg, dim, order_cap)
        + Jet.monomial(1, (1,), 0.12, m, deg, dim, order_cap)
        + Jet.monomial(3, (0,), 0.05, m, deg, dim, order_cap)
    ]
    return MapModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=order_cap,
                          B=B, f=f, g=g, h=h, deg=deg)


def benchmark_flow_model(order_cap: int = 24, deg: int = 12) -> FlowModel:
    """Flow twin of the map benchmark (same coefficient content)."""
    mm = benchmark_map_model(order_cap, deg)
    freq = diophantine_scan(mm.freq.omega, tau=1.0, k_max=80, sense="flow")
    return FlowModel.build(
        N=2, P=2, freq=freq, a=mm.a, m=1, order_cap=order_cap,
        B=mm.B, f=mm.f, g=mm.g, h=mm.h, deg=deg,
    )


def toy_x2_flow_model(m: int = 1, B_const: float = 1.0, order_cap: int = 8,
                      deg: int = 10) -> FlowModel:
    """xdot = -x^2 with a constant-coefficient normal block and rigid angles."""
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=40, sense="flow")
    dim = 1
    a = FourierSeries.constant(1.0, dim, order_cap)
    B = [[FourierSeries.constant(B_const if i == j else 0.0, dim, order_cap)
          for j in range(m)] for i in range(m)] if m else None
    return FlowModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=order_cap,
                           B=B, deg=deg)


def time1_map_of_toy(m: int = 1, B_const: float = 1.0, order_cap: int = 8,
                     deg: int = 10) -> MapModel:
    """Exact time-1 map of the toy field, re-expanded to the working degree.

    The x-line x/(1+x) is the closed-form time-1 flow of xdot = -x^2; the
    normal block integrates to y (1+x)^B along it.
    """
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=40)
    dim = 1
    a = FourierSeries.constant(1.0, dim, order_cap)
    f = Jet(m, deg, dim, order_cap)
    zk = (0,) * m
    for l in range(3, deg + 1):
        f = f + Jet.monomial(l, zk, (-1.0) ** (l + 1), m, deg, dim, order_cap)
    g = None
    B = None
    if m:
        B = [[FourierSeries.constant(B_const if i == j else 0.0, dim, order_cap)
              for j in range(m)] for i in range(m)]
        g = []
        for i in range(m):
            gi = Jet(m, deg, dim, order_cap)
            ki = tuple(1 if t == i else 0 for t in range(m))
            binom = B_const
            for p in range(2, deg):
                binom *= (B_const - (p - 1)) / p
                gi = gi + Jet.monomial(p, ki, binom, m, deg, dim, order_cap)
            g.append(gi)
    return MapModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=order_cap,
                          B=B, f=f, g=g, deg=deg)


def _random_tangent_change(rng, deg: int, dim: int, order_cap: int) -> Jet:
    """A random tangent-to-identity x-jet x + sum t_l(theta) x^l."""
    x = Jet.var_x(0, deg, dim, order_cap)
    for l in range(2, deg // 2 + 2):
        table = {(0,) * dim: 0.1 * rng.standard_normal() / l}
        for k in range(1, 3):
            c = 0.1 * (rng.standard_normal() + 1j * rng.standard_normal()) / (2 * l * k)
            table[(k,) + (0,) * (dim - 1)] = c
            table[(-k,) + (0,) * (dim - 1)] = c.conjugate()
        x = x + Jet.monomial(l, (), FourierSeries(dim, order_cap, table), 0, deg, dim, order_cap)
    return x


def conjugacy_fixture(
    b0: float = 0.7,
    seed: int = 7,
    order_cap: int = 16,
    deg: int = 10,
    extra_conjugation: bool = False,
) -> MapModel:
    """F = T o R_nf o T^(-1) with the normal form x - x^2 + b0 x^3.

    T is a random tangent-to-identity change with theta-dependent
    coefficients, so the engine has to undo genuine oscillatory content to
    recover b0; it starts at x^2, so N = 2 is the only order it admits.
    With ``extra_conjugation`` a second independent change is applied on
    top (the invariant must not move).
    """
    rng = np.random.default_rng(seed)
    dim = 1
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=60)
    R = SkewMap.identity(0, dim, deg, dim, order_cap, rot=(GOLDEN,))
    R.x = (
        Jet.var_x(0, deg, dim, order_cap)
        - Jet.monomial(2, (), 1.0, 0, deg, dim, order_cap)
        + Jet.monomial(3, (), b0, 0, deg, dim, order_cap)
    )
    F = R
    changes = 2 if extra_conjugation else 1
    for _ in range(changes):
        A = _random_tangent_change(rng, deg, dim, order_cap)
        T, Ti = _x_change(A, invert_x_jet(A, deg), 0)
        F = compose(T, compose(F, Ti, deg), deg)
    return model_from(F, N=2, P=2, freq=freq, order_cap=order_cap)


def builtin_model(name: str):
    """Resolve a builtin model URI used by the CLI (builtin:<name>)."""
    table = {
        "benchmark-map": benchmark_map_model,
        "benchmark-flow": benchmark_flow_model,
        "toy-x2-flow": toy_x2_flow_model,
        "time1-toy": time1_map_of_toy,
        "conjugacy": conjugacy_fixture,
    }
    if name not in table:
        raise KeyError(
            f"unknown builtin model {name!r}; available: {sorted(table)}"
        )
    return table[name]()
