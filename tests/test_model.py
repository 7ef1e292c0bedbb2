"""Model validation, the averaging normalization and model extraction (map and flow)."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from paratori.benchmark import benchmark_flow_model, benchmark_map_model
from paratori.errors import HypothesisViolation, ResonantMode
from paratori.fourier import FourierSeries, FrequencyVector, diophantine_scan
from paratori.jet import Jet, compose, jet_compose
from paratori.model import FlowModel, MapModel, model_from, normalize, validate
from conftest import random_real_series

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _simple_map_model(golden_freq, a=None, B=None, m=1, N=2, P=2, deg=6, cap=16,
                      f=None, g=None, h=None):
    dim = 1
    a = a if a is not None else FourierSeries.constant(1.0, dim, cap)
    if m and B is None:
        B = [[FourierSeries.constant(1.0 if i == j else 0.0, dim, cap)
              for j in range(m)] for i in range(m)]
    return MapModel.build(N=N, P=P, freq=golden_freq, a=a, m=m, order_cap=cap,
                          B=B, f=f, g=g, h=h, deg=deg)


# ----------------------------------------------------------------- validate


def test_validate_clean_model(bench_map):
    assert validate(bench_map) == []


def test_validate_negative_abar(golden_freq):
    model = _simple_map_model(golden_freq, a=FourierSeries.constant(-1.0, 1, 16))
    out = validate(model)
    assert any("a_bar > 0" in v for v in out)


def test_validate_gN_linear_y_slot(golden_freq):
    # an x^(N-1) y monomial in g_N breaks D_y g_N(x,0) = 0
    dim, cap, m, deg = 1, 16, 1, 6
    g_bad = [Jet.monomial(1, (1,), 0.5, m, deg, dim, cap)]
    model = _simple_map_model(golden_freq, g=g_bad)
    assert any("D_y g_N" in v for v in validate(model))


def test_validate_missing_certificate(golden_freq):
    uncertified = FrequencyVector(omega=(GOLDEN,), tau=1.0, sense="map")
    a = FourierSeries.constant(1.0, 1, 16) + FourierSeries.cosine((1,), 1, 16, 0.3)
    model = MapModel.build(N=2, P=2, freq=uncertified, a=a, m=0, order_cap=16)
    assert any("Diophantine" in v for v in validate(model))
    # constant coefficients do not need the certificate
    model2 = MapModel.build(N=2, P=2, freq=uncertified,
                            a=FourierSeries.constant(1.0, 1, 16), m=0, order_cap=16)
    assert validate(model2) == []


def test_fold_P_greater_than_N(golden_freq):
    dim, cap, m = 1, 16, 0
    h = [Jet.monomial(3, (), 0.2, m, 8, dim, cap)]
    model = MapModel.build(N=2, P=3, freq=golden_freq,
                           a=FourierSeries.constant(1.0, dim, cap), m=m,
                           order_cap=cap, h=h, deg=8)
    assert model.P == 2 and model.declared_P == 3
    assert all(j.part_of_degree(model.P).is_zero() for j in model.h)
    assert model.h[0].min_order() == 3
    assert validate(model) == []


def test_build_checks_h_against_the_declared_P(golden_freq):
    # with P = 3 > N = 2 an x^2 angle term is below the declared P, although
    # not below the folded P = N; it must raise, not vanish in the fold
    dim, cap, m = 1, 16, 0
    h = [Jet.monomial(2, (), 0.2, m, 8, dim, cap) + Jet.monomial(3, (), 0.1, m, 8, dim, cap)]
    with pytest.raises(HypothesisViolation, match=re.escape("h[0] has terms below degree P")):
        MapModel.build(N=2, P=3, freq=golden_freq, a=FourierSeries.constant(1.0, dim, cap),
                       m=m, order_cap=cap, h=h, deg=8)


def test_validate_flags_low_order_terms_of_a_constructed_model(golden_freq):
    # the dataclass constructor skips build's order checks; validate repeats them
    model = _simple_map_model(golden_freq)
    low = Jet.monomial(1, (0,), 0.1, model.m, 6, model.dim, model.order_cap)
    bad = replace(model, f=model.f + low, g=(model.g[0] + low,), h=(model.h[0] + low,))
    assert validate(model) == []
    assert {"f has terms below degree N", "g[0] has terms below degree N",
            "h[0] has terms below degree P"} <= set(validate(bad))


# ---------------------------------------------------------------- normalize


def test_normalize_constant_model_is_identity(golden_freq):
    model = _simple_map_model(golden_freq)
    out, log = normalize(model)
    assert log.T is None and log.T_inv is None
    assert (out.a - model.a).strip_norm() < 1e-14


def test_normalize_golden_single_mode(golden_freq):
    cap = 16
    a = FourierSeries.constant(1.0, 1, cap) + FourierSeries.cosine((1,), 1, cap, 0.5)
    model = _simple_map_model(golden_freq, a=a, m=0, deg=6)
    out, log = normalize(model)
    assert abs(out.a.average().real - 1.0) < 1e-12
    assert out.a.oscillatory().strip_norm() < 1e-11
    # SD residual oracle: c1(theta) - c1(theta + omega) = a_osc(theta)
    c1 = log.c1
    atil = a.oscillatory()
    for t in np.arange(64) / 64:
        r = c1.evaluate(t) - c1.evaluate(t + GOLDEN) - atil.evaluate(t)
        assert abs(r) <= 1e-12


def test_normalize_mu_exact_for_N2(golden_freq):
    a = FourierSeries.constant(1.3, 1, 16)
    model = _simple_map_model(golden_freq, a=a, m=0)
    out, log = normalize(model)
    assert log.mu == pytest.approx(1.0 / 1.3, abs=1e-15)
    assert abs(out.a.average().real - 1.0) < 1e-14


def test_normalize_is_jet_conjugation(golden_freq, rng):
    # oracle: F o T == T o F' coefficient-wise at working degree
    cap, deg, m = 16, 6, 1
    a = FourierSeries.constant(1.2, 1, cap) + FourierSeries.cosine((1,), 1, cap, 0.4)
    B = [[FourierSeries.constant(1.0, 1, cap) + FourierSeries.sine((1,), 1, cap, 0.3)]]
    f = Jet.monomial(1, (1,), random_real_series(rng, cap=cap, scale=0.2, max_mode=1), m, deg, 1, cap)
    g = [Jet.monomial(0, (2,), 0.3, m, deg, 1, cap)]
    h = [Jet.monomial(2, (0,), 0.1, m, deg, 1, cap)]
    model = _simple_map_model(golden_freq, a=a, B=B, f=f, g=g, h=h, deg=deg)
    out, log = normalize(model)
    assert validate(out) == []
    F = model.as_skew(deg)
    Fp = out.as_skew(deg)
    lhs = compose(F, log.T, deg)
    rhs = compose(log.T, Fp, deg)
    err = (lhs.x - rhs.x).norm()
    err += sum((u - v).norm() for u, v in zip(lhs.y, rhs.y))
    err += sum((u - v).norm() for u, v in zip(lhs.theta_dev, rhs.theta_dev))
    assert err < 1e-10


def test_normalize_averages_invariant_under_shears(golden_freq):
    # T1/T2 do not move the averages; only the mu-scaling rescales them
    cap = 16
    a = FourierSeries.constant(1.7, 1, cap) + FourierSeries.cosine((1,), 1, cap, 0.6)
    B = [[FourierSeries.constant(2.0, 1, cap) + FourierSeries.cosine((1,), 1, cap, 0.5)]]
    model = _simple_map_model(golden_freq, a=a, B=B)
    out, log = normalize(model)
    assert abs(out.a.average().real - 1.0) < 1e-12
    assert out.B_bar()[0, 0] == pytest.approx(2.0 / 1.7, rel=1e-12)


def test_normalize_resonant_omega_raises():
    freq = FrequencyVector(omega=(0.5,), tau=1.0, c_estimate=1.0,
                           k_max_checked=0, sense="map")
    cap = 16
    a = FourierSeries.constant(1.0, 1, cap) + FourierSeries.cosine((2,), 1, cap, 0.5)
    model = MapModel.build(N=2, P=2, freq=freq, a=a, m=0, order_cap=cap)
    with pytest.raises(ResonantMode):
        normalize(model)


# ------------------------------------------------------ normalize (flows)


def test_normalize_flow_constant_unchanged():
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=30, sense="flow")
    model = FlowModel.build(N=2, P=2, freq=freq,
                            a=FourierSeries.constant(1.0, 1, 16), m=0, order_cap=16)
    out, log = normalize(model)
    assert log.T is None and log.T_inv is None
    assert (out.a - model.a).strip_norm() < 1e-14


def test_normalize_flow_single_mode_residual():
    freq = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=40, sense="flow")
    cap = 16
    a = (FourierSeries.constant(1.0, 2, cap)
         + FourierSeries.cosine((1, 0), 2, cap, 0.4)
         + FourierSeries.cosine((1, -1), 2, cap, 0.2))
    model = FlowModel.build(N=2, P=2, freq=freq, a=a, m=0, order_cap=cap)
    out, log = normalize(model)
    assert out.a.oscillatory().strip_norm() < 1e-11
    res = log.c1.directional_derivative((1.0, math.sqrt(2))) - a.oscillatory()
    assert res.strip_norm() <= 1e-12


def test_normalize_flow_resonant_nu():
    # active mode with k.(omega, nu) = 0 exactly
    freq = FrequencyVector(omega=(1.0,), nu=(-2.0,), tau=1.0, c_estimate=1.0,
                           k_max_checked=0, sense="flow")
    cap = 16
    a = FourierSeries.constant(1.0, 2, cap) + FourierSeries.cosine((2, 1), 2, cap, 0.3)
    model = FlowModel.build(N=2, P=2, freq=freq, a=a, m=0, order_cap=cap)
    with pytest.raises(ResonantMode):
        normalize(model)


def test_normalize_flow_b_block():
    freq = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=40, sense="flow")
    cap, m, deg = 16, 1, 6
    a = FourierSeries.constant(2.0, 2, cap) + FourierSeries.cosine((1, 0), 2, cap, 0.5)
    B = [[FourierSeries.constant(1.5, 2, cap) + FourierSeries.cosine((0, 1), 2, cap, 0.4)]]
    model = FlowModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=cap, B=B, deg=deg)
    out, log = normalize(model)
    assert abs(out.a.average().real - 1.0) < 1e-11
    assert out.a.oscillatory().strip_norm() < 1e-10
    assert out.B[0][0].oscillatory().strip_norm() < 1e-10
    assert out.B_bar()[0, 0] == pytest.approx(1.5 / 2.0, rel=1e-10)
    assert validate(out) == []


def _quasiperiodic_flow(m, a, B):
    """A flow on T^(1+1) with x y, y^2, x^3 and theta-dependent x^2 angle terms."""
    freq = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=40, sense="flow")
    cap, deg, dim = 16, 6, 2

    def series(mean, *modes):
        s = FourierSeries.constant(mean, dim, cap)
        for k, amp in modes:
            s = s + FourierSeries.cosine(k, dim, cap, amp)
        return s

    e = [tuple(int(q == t) for q in range(m)) for t in range(m)]
    f = Jet.monomial(1, e[0], series(0.3, ((1, 0), 0.2)), m, deg, dim, cap)
    g = [Jet.monomial(0, tuple(2 * v for v in e[i]), 0.25, m, deg, dim, cap)
         + Jet.monomial(3, (0,) * m, 0.1, m, deg, dim, cap) for i in range(m)]
    h = [Jet.monomial(2, (0,) * m, series(0.1, ((1, 0), 0.3), ((0, 1), 0.1)), m, deg, dim, cap)]
    B = [[series(*entry) for entry in row] for row in B]
    return FlowModel.build(N=2, P=2, freq=freq, a=series(*a), m=m, order_cap=cap,
                           B=B, f=f, g=g, h=h, deg=deg)


# (m, a, B, normalize options) of flows whose normalization takes one step
_ONE_STEP_FLOWS = [
    pytest.param(1, (1.0, ((1, 0), 0.4), ((1, -1), 0.2)), [[(1.5,)]], {}, id="x-shear"),
    pytest.param(1, (1.0,), [[(1.5, ((0, 1), 0.4), ((1, 0), 0.1))]], {}, id="y-shear"),
    pytest.param(1, (1.3,), [[(1.5,)]], {}, id="mu"),
    pytest.param(2, (1.0,), [[(3.0,), (1.0,)], [(0.5,), (2.0,)]], {"jordanize": True},
                 id="jordanize"),
    pytest.param(1, (1.0,), [[(1.5,)]], {"eps": 0.1}, id="eps"),
]


@pytest.mark.parametrize("m, a, B, options", _ONE_STEP_FLOWS)
def test_normalize_flow_is_push_forward(m, a, B, options):
    # oracle: X' o W == dW/dt along X coefficient-wise at working degree, for the
    # new variables W(x, y, theta) rebuilt from the ChangeLog
    model = _quasiperiodic_flow(m, a, B)
    N, deg, dim, cap = model.N, 6, model.dim, model.order_cap
    out, log = normalize(model, deg=deg, **options)
    fired = [log.c1 is not None, log.C2 is not None, log.mu != 1.0,
             log.D is not None, log.eps != 1.0]
    assert sum(fired) == 1

    def mono(l, k, c):
        return Jet.monomial(l, k, c, m, deg, dim, cap)

    e = [tuple(int(q == t) for q in range(m)) for t in range(m)]
    zk = (0,) * m
    # a flow's shears are new = T(old); its scalings are old = T(new)
    Wx = mono(1, zk, 1.0 / log.mu)
    if log.c1 is not None:
        Wx = Wx + mono(N, zk, log.c1)
    lin = (np.linalg.inv(log.D) if log.D is not None else np.eye(m)) / log.eps
    Wy = []
    for i in range(m):
        w = Jet(m, deg, dim, cap)
        for j in range(m):
            w = w + mono(0, e[j], float(lin[i, j]))
            if log.C2 is not None:
                w = w + mono(N - 1, e[j], log.C2[i][j])
        Wy.append(w)

    X, Xp = model.as_field(deg), out.as_field(deg)

    def along_X(w):
        acc = X.x.jet_mul(w.derivative_x())
        for i in range(m):
            acc = acc + X.y[i].jet_mul(w.derivative_y(i))
        acc = acc + w.directional_theta(X.omega + X.nu)
        for r in range(len(X.theta_dev)):
            acc = acc + w.derivative_theta(r).jet_mul(X.theta_dev[r])
        return acc

    def at_W(j):
        return jet_compose(j, Wx, Wy, deg=deg)

    err = (at_W(Xp.x) - along_X(Wx)).norm()
    err += sum((at_W(u) - along_X(w)).norm() for u, w in zip(Xp.y, Wy))
    # W leaves theta alone, so the angle deviations only move by the substitution
    err += sum((at_W(u) - v).norm() for u, v in zip(Xp.theta_dev, X.theta_dev))
    assert err < 1e-10


# ------------------------------------------------------------ T4/T5 options


def _check_jordanize_and_eps(cls, freq):
    cap, m, deg = 16, 2, 6
    a = FourierSeries.constant(2.0, 1, cap)
    B = [[FourierSeries.constant(3.0, 1, cap), FourierSeries.constant(1.0, 1, cap)],
         [FourierSeries.constant(0.5, 1, cap), FourierSeries.constant(2.0, 1, cap)]]
    g = [Jet.monomial(0, (0, 2), 0.3, m, deg, 1, cap), None]
    g[1] = Jet.monomial(0, (2, 0), 0.2, m, deg, 1, cap)
    model = cls.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=cap, B=B, g=g, deg=deg)
    out, log = normalize(model, jordanize=True, eps=0.1)
    assert validate(out) == []
    Bb = out.B_bar()
    # diagonal after T4 up to roundoff, eigenvalues of B/a_bar preserved
    assert abs(Bb[0, 1]) < 1e-10 and abs(Bb[1, 0]) < 1e-10
    want = np.sort(np.linalg.eigvals(model.B_bar()).real) / 2.0
    assert np.allclose(np.sort(np.diag(Bb)), want)
    assert log.eps == 0.1


def test_normalize_jordanize_and_eps(golden_freq):
    _check_jordanize_and_eps(MapModel, golden_freq)


def test_normalize_flow_jordanize_and_eps():
    # the flow pushes the linear y-change forward instead of conjugating
    _check_jordanize_and_eps(FlowModel, diophantine_scan([GOLDEN], tau=1.0, k_max=30, sense="flow"))


def test_normalize_defective_B_raises(golden_freq):
    from paratori.errors import SingularB

    cap, m = 16, 2
    a = FourierSeries.constant(1.0, 1, cap)
    B = [[FourierSeries.constant(1.0, 1, cap), FourierSeries.constant(1.0, 1, cap)],
         [FourierSeries(1, cap), FourierSeries.constant(1.0, 1, cap)]]
    model = MapModel.build(N=2, P=2, freq=golden_freq, a=a, m=m, order_cap=cap, B=B)
    with pytest.raises(SingularB):
        normalize(model, jordanize=True)


# ------------------------------------------------ normalize (composite change)


def _fired(log):
    """The number of averaging changes a ChangeLog records."""
    return sum([log.c1 is not None, log.C2 is not None, log.mu != 1.0,
                log.D is not None, log.eps != 1.0])


def _lie_derivative(X, w):
    """dw/dt along the field X, written out term by term."""
    acc = X.x.jet_mul(w.derivative_x())
    for i, yi in enumerate(X.y):
        acc = acc + yi.jet_mul(w.derivative_y(i))
    acc = acc + w.directional_theta(X.omega + X.nu)
    for r, dev in enumerate(X.theta_dev):
        acc = acc + w.derivative_theta(r).jet_mul(dev)
    return acc


# flows whose normalization takes three or more steps
_MULTI_STEP_FLOWS = [
    pytest.param(1, (1.3, ((1, 0), 0.4), ((1, -1), 0.2)),
                 [[(1.5, ((0, 1), 0.4), ((1, 0), 0.1))]], {"eps": 0.1}, 4, id="shears-mu-eps"),
    pytest.param(2, (1.3, ((1, 0), 0.4)), [[(3.0, ((0, 1), 0.2)), (1.0,)], [(0.5,), (2.0,)]],
                 {"jordanize": True, "eps": 0.1}, 5, id="shears-mu-jordanize-eps"),
    pytest.param(1, (1.0, ((1, 0), 0.4)), [[(1.5, ((0, 1), 0.4))]], {"eps": 0.5}, 3,
                 id="shears-eps"),
]


@pytest.mark.parametrize("m, a, B, options, steps", _MULTI_STEP_FLOWS)
def test_normalize_multi_step_flow_is_push_forward(m, a, B, options, steps):
    # oracle: X' o W == DW . X coefficient-wise at working degree, with the
    # new variables W = T^-1 the ChangeLog records
    model = _quasiperiodic_flow(m, a, B)
    deg = 6
    out, log = normalize(model, deg=deg, **options)
    assert _fired(log) == steps
    W = log.T_inv
    X, Xp = model.as_field(deg), out.as_field(deg)

    def at_W(j):
        return jet_compose(j, W.x, W.y, deg=deg)

    err = (at_W(Xp.x) - _lie_derivative(X, W.x)).norm()
    err += sum((at_W(u) - _lie_derivative(X, w)).norm() for u, w in zip(Xp.y, W.y))
    err += sum((at_W(u) - v).norm() for u, v in zip(Xp.theta_dev, X.theta_dev))
    assert err < 1e-10
    # and the pushed field is the normal form: a and B constant, a_bar = 1
    assert abs(out.a_bar - 1.0) < 1e-12
    assert out.a_osc.strip_norm() < 1e-10
    assert all(s.strip_norm() < 1e-10 for row in out.B_osc() for s in row)


@pytest.mark.parametrize("kind", ["map", "flow"])
def test_normalize_composite_change_inverts(kind):
    # T o T^-1 and T^-1 o T are the identity at working degree
    if kind == "map":
        model, options = benchmark_map_model(), {"eps": 0.5}
    else:
        model, options = _quasiperiodic_flow(
            2, (1.3, ((1, 0), 0.4)), [[(3.0, ((0, 1), 0.2)), (1.0,)], [(0.5,), (2.0,)]]
        ), {"jordanize": True, "eps": 0.1}
    deg = 6
    out, log = normalize(model, deg=deg, **options)
    assert _fired(log) >= 3
    for G, H in ((log.T, log.T_inv), (log.T_inv, log.T)):
        both = compose(G, H, deg)
        m, dim, cap = model.m, model.dim, model.order_cap
        err = (both.x - Jet.var_x(m, deg, dim, cap)).norm()
        err += sum((u - Jet.var_y(i, m, deg, dim, cap)).norm() for i, u in enumerate(both.y))
        err += sum(dev.norm() for dev in both.theta_dev)
        assert err < 1e-10


def test_normalize_composes_each_change_once(monkeypatch):
    # n changes cost 2n compositions: n - 1 for T, n - 1 for T^-1 and two
    # for the conjugation (conjugating change by change took 4n - 2)
    import paratori.model as model_module

    calls = []
    real = model_module.compose

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_module, "compose", counted)
    _, log = normalize(benchmark_map_model(), eps=0.5)
    n = _fired(log)
    assert n == 3
    assert len(calls) <= 2 * n



# ----------------------------------------------------------------- model_from


def _torus2_model(cls, sense):
    """A d = 2 model with mixed modes in every coefficient slot."""
    dim, cap, m, deg = 2, 8, 1, 6
    freq = diophantine_scan([GOLDEN, math.sqrt(2.0) - 1.0], tau=2.0, k_max=16, sense=sense)

    def series(mean, *modes):
        s = FourierSeries.constant(mean, dim, cap)
        for k, amp in modes:
            s = s + FourierSeries.cosine(k, dim, cap, amp)
        return s

    a = series(1.0, ((1, 0), 0.2), ((0, 1), 0.1))
    B = [[series(0.8, ((1, -1), 0.1))]]
    f = (Jet.monomial(1, (1,), series(0.3, ((0, 1), 0.05)), m, deg, dim, cap)
         + Jet.monomial(3, (0,), series(-0.2, ((1, 1), 0.04)), m, deg, dim, cap))
    g = [Jet.monomial(0, (2,), series(0.25, ((1, 0), 0.1)), m, deg, dim, cap)
         + Jet.monomial(3, (0,), 0.3, m, deg, dim, cap)]
    h = [Jet.monomial(2, (0,), series(0.1, ((0, 1), 0.02)), m, deg, dim, cap)
         + Jet.monomial(1, (1,), 0.12, m, deg, dim, cap) for _ in range(dim)]
    return cls.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=cap,
                     B=B, f=f, g=g, h=h, deg=deg)


def _skew_or_field(model, deg):
    return model.as_skew(deg) if model.kind == "map" else model.as_field(deg)


def _coeff_tables(model):
    """Every coefficient of a model as plain mode tables, for exact comparison."""
    def jet(j):
        return {key: s.coeffs for key, s in j.terms.items()}
    return {
        "a": model.a.coeffs,
        "B": [[s.coeffs for s in row] for row in model.B],
        "f": jet(model.f), "g": [jet(j) for j in model.g], "h": [jet(j) for j in model.h],
    }


_ROUND_TRIP_MODELS = {
    "benchmark-map": benchmark_map_model,
    "benchmark-flow": benchmark_flow_model,
    "torus2-map": lambda: _torus2_model(MapModel, "map"),
    "torus2-flow": lambda: _torus2_model(FlowModel, "flow"),
}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP_MODELS))
def test_model_from_round_trip_is_exact(name):
    model = _ROUND_TRIP_MODELS[name]()
    out = model_from(_skew_or_field(model, model.native_degree()), model.N, model.P,
                     model.freq, model.order_cap, params=model.params)
    assert type(out) is type(model)
    assert (out.N, out.P, out.m, out.d) == (model.N, model.P, model.m, model.d)
    assert _coeff_tables(out) == _coeff_tables(model)


def _bumped(model, comp, l, k, amp):
    """The model's skew map or field with amp x^l y^k added to one component."""
    deg = model.native_degree()
    obj = _skew_or_field(model, deg)
    bump = Jet.monomial(l, k, amp, model.m, deg, model.dim, model.order_cap)
    if comp == "x":
        return replace(obj, x=obj.x + bump)
    if comp == "y":
        return replace(obj, y=(obj.y[0] + bump,) + tuple(obj.y[1:]))
    return replace(obj, theta_dev=(obj.theta_dev[0] + bump,) + tuple(obj.theta_dev[1:]))


# (component, l, k, amp) of the bump, and the message for a map and for a
# field; a field has no identity part, so its linear slots are low-order terms
_VIOLATIONS = [
    pytest.param("x", 1, (0,), 0.1, "x-component linear part is not x",
                 "x-component has a low-order term", id="x-linear"),
    pytest.param("y", 0, (1,), 0.1, "y-component linear part is not the identity",
                 "y[0] has a low-order term", id="y-linear"),
    # amp -1 deletes a map's y-slot: y -> 0 y + ...
    pytest.param("y", 0, (1,), -1.0, "y-component linear part is not the identity",
                 "y[0] has a low-order term", id="y-linear-missing"),
    pytest.param("x", 0, (1,), 0.1, "x-component has a low-order term",
                 "x-component has a low-order term", id="x-low-order"),
    pytest.param("y", 1, (0,), 0.1, "y[0] has a low-order term",
                 "y[0] has a low-order term", id="y-low-order"),
    pytest.param("y", 2, (0,), 0.1, "y[0] violates the structural zeros of g_N",
                 "y[0] violates the structural zeros of g_N", id="g_N-structural-zero"),
    pytest.param("theta", 1, (0,), 0.1, "theta[0] has a term below degree P",
                 "theta[0] has a term below degree P", id="theta-below-P"),
]


@pytest.mark.parametrize("kind", ["map", "flow"])
@pytest.mark.parametrize("comp, l, k, amp, map_msg, flow_msg", _VIOLATIONS)
def test_model_from_hypothesis_violations(bench_map, bench_flow, kind, comp, l, k, amp,
                                          map_msg, flow_msg):
    model = bench_map if kind == "map" else bench_flow
    obj = _bumped(model, comp, l, k, amp)
    msg = map_msg if kind == "map" else flow_msg
    with pytest.raises(HypothesisViolation, match=re.escape(msg)):
        model_from(obj, model.N, model.P, model.freq, model.order_cap)
