"""Jet algebra: products, composition, derivatives, inversion, division."""

import math
from operator import methodcaller

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.errors import DimensionMismatch
from paratori.fourier import FourierSeries
from paratori.jet import (
    Jet,
    SkewMap,
    _scaled,
    compose,
    divide_by_x_plus_y,
    invert_x_jet,
    jet_compose,
)
from conftest import random_real_series
from oracles import reference_compose, reference_jet_compose, store_bytes


def _x(m=0, deg=6, dim=1, cap=8):
    return Jet.var_x(m, deg, dim, cap)


def _random_jet(rng, m=1, deg=4, dim=1, cap=12, jet_deg=None, max_mode=2):
    """Content up to total degree ``deg`` inside a jet of cap ``jet_deg``."""
    jet_deg = 2 * deg if jet_deg is None else jet_deg
    terms = {}
    for l in range(deg + 1):
        for k in range(deg + 1 - l):
            if rng.random() < 0.5:
                terms[(l, (k,) * m if m else ())] = random_real_series(
                    rng, dim=dim, cap=cap, scale=0.5, max_mode=max_mode
                )
    return Jet(m, jet_deg, dim, cap, terms)


# ------------------------------------------------------------------- algebra


def test_mul_x_squared():
    x = _x()
    sq = x.jet_mul(x)
    assert abs(sq.coeff(2).average() - 1.0) < 1e-15
    assert len(sq.terms) == 1


def test_mul_single_series_product():
    a = FourierSeries.cosine((1,), 1, 8, 0.6)
    b = FourierSeries.sine((1,), 1, 8, 0.8)
    ja = Jet.monomial(1, (), a, 0, 6, 1, 8)
    jb = Jet.monomial(1, (), b, 0, 6, 1, 8)
    prod = ja.jet_mul(jb)
    assert (prod.coeff(2) - a.series_mul(b)).strip_norm() < 1e-15


def test_mul_pointwise_evaluation_oracle(rng):
    # content of degree <= 4 and modes <= 2 in deg-8 / cap-12 jets, so the
    # Cauchy product is exact and the oracle sees no truncation error
    a = _random_jet(rng)
    b = _random_jet(rng)
    prod = a.jet_mul(b)
    for x in (0.03, 0.08):
        for y in (0.02, -0.05):
            for th in (0.1, 0.7):
                direct = a.evaluate(x, (y,), (th,)) * b.evaluate(x, (y,), (th,))
                via = prod.evaluate(x, (y,), (th,))
                assert abs(direct - via) < 1e-11


def test_add_scale_and_mismatch(rng):
    a = _random_jet(rng)
    assert (a + -a).is_zero()
    assert (a.scale(2.0) - (a + a)).norm() <= 1e-15
    b = _random_jet(rng, m=2)
    with pytest.raises(DimensionMismatch):
        a + b


# ----------------------------------------------------------------- compose


def test_one_compose_under_every_name():
    import paratori.jet as jet

    assert jet.compose_skew_param is jet.compose_param_param is jet.compose
    assert not hasattr(jet, "compose_skew_skew")
    assert {"compose_skew_param", "compose_param_param"}.isdisjoint(jet.__all__)


def _sparse_jet(rng, m, deg, dim, cap, low, top=3, n_terms=3):
    """Up to ``n_terms`` random monomials of total degree ``low``..``top`` in a jet of degree ``deg``."""
    keys = [(l, k) for l in range(top + 1) for k in np.ndindex(*(top + 1,) * m)
            if low <= l + sum(k) <= top]
    picks = rng.choice(len(keys), size=min(n_terms, len(keys)), replace=False)
    return Jet(m, deg, dim, cap, {keys[i]: random_real_series(rng, dim=dim, cap=cap, scale=0.5)
                                  for i in picks})


def _same_bits(got: Jet, want: Jet) -> bool:
    """The same monomials in the same order, each with the same stored modes,
    coefficient bits (signs of zero included) and truncation loss."""
    return (got.deg == want.deg and list(got.terms) == list(want.terms)
            and all(store_bytes(a) == store_bytes(b) and a.trunc_loss == b.trunc_loss
                    for a, b in zip(got.terms.values(), want.terms.values())))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m_out=st.integers(0, 2), m_in=st.integers(0, 2),
       dim=st.integers(0, 2), deg=st.integers(1, 8), rot=st.sampled_from(["none", "zero", "random"]))
def test_substitution_matches_the_memo_per_job_code(seed, m_out, m_in, dim, deg, rot):
    """``compose`` and ``jet_compose`` against the substitution with one memo
    per job and every derivative taken from the rotated series: the same bits,
    with no rotation, a zero one or a random one, and some zero deviations.  At
    cap 4 on T^2 a mixed derivative meets modes such as (1, 3), whose factors
    2 pi i k_r do not differ by a power of two, so the order of the axes shows.
    Each inner jet has a degree of its own from 1 to ``deg``: a jet sum takes
    the smaller degree, so nothing above an inner jet's degree comes out."""
    rng = np.random.default_rng(seed)
    cap = 4

    def jets(m, n, low, inner=False):
        return tuple(_sparse_jet(rng, m, int(rng.integers(1, deg + 1)) if inner else deg, dim, cap, low)
                     for _ in range(n))

    outer = SkewMap(x=jets(m_out, 1, 0)[0], y=jets(m_out, m_out, 0), theta_dev=jets(m_out, dim, 1),
                    rot=tuple(rng.random(dim)))
    devs = tuple(Jet(m_in, d.deg, dim, cap) if rng.random() < 0.3 else d
                 for d in jets(m_in, dim, 1, inner=True))
    angles = None if rot == "none" else tuple(0.0 if rot == "zero" else rng.random() for _ in range(dim))
    inner = SkewMap(x=jets(m_in, 1, 1, inner=True)[0], y=jets(m_in, m_out, 1, inner=True), theta_dev=devs,
                    rot=angles or (0.0,) * dim)

    got, want = compose(outer, inner, deg), reference_compose(outer, inner, deg)
    assert got.rot == want.rot
    for a, b in zip((got.x, *got.y, *got.theta_dev), (want.x, *want.y, *want.theta_dev), strict=True):
        assert _same_bits(a, b)
    sub_deg = None if deg % 2 else deg
    assert _same_bits(jet_compose(outer.x, inner.x, inner.y, devs, angles, sub_deg),
                      reference_jet_compose(outer.x, inner.x, inner.y, devs, angles, sub_deg))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 2), dim=st.integers(0, 2),
       deg=st.integers(0, 6), data=st.data())
def test_scaled_is_the_scale_to_the_budget(seed, m, dim, deg, data):
    """A Taylor term formed to a budget is ``scale``'s jet cut at that total
    degree: the same bits, the same monomial order and the jet's own degree."""
    rng = np.random.default_rng(seed)
    budget = data.draw(st.integers(-1, deg))
    dev = _sparse_jet(rng, m, deg, dim, 4, 0, top=deg, n_terms=6)
    c = random_real_series(rng, dim=dim, cap=4, scale=0.5)
    full = dev.scale(c)
    want = Jet(m, deg, dim, 4, {key: s for key, s in full.terms.items() if key[0] + sum(key[1]) <= budget})
    assert _same_bits(_scaled(dev, c, budget), want)


def test_compose_identity_returns_k():
    K = _x(deg=6) + Jet.monomial(2, (), FourierSeries.cosine((1,), 1, 8, 0.4), 0, 6, 1, 8)
    out = jet_compose(_x(deg=6), K)
    assert (out - K).norm() < 1e-15


def test_compose_polynomial_fixed_point():
    F = _x(deg=6) - _x(deg=6).power(2)
    out = jet_compose(F, _x(deg=6))
    assert (out - F).norm() < 1e-15


def test_compose_symbolic_hand_expansion():
    # F_x = x - a(theta) x^2, K_x = x + c x^2:
    # F o K = x + (c - a) x^2 - 2 c a x^3 + O(x^4)
    a = FourierSeries.cosine((1,), 1, 8, 0.7)
    c = 0.3
    F = _x(deg=3) - Jet.monomial(2, (), a, 0, 3, 1, 8)
    K = _x(deg=3) + Jet.monomial(2, (), c, 0, 3, 1, 8)
    out = jet_compose(F, K)
    want2 = FourierSeries.constant(c, 1, 8) - a
    want3 = a.scale(-2 * c)
    assert (out.coeff(1) - FourierSeries.constant(1.0, 1, 8)).strip_norm() < 1e-15
    assert (out.coeff(2) - want2).strip_norm() < 1e-15
    assert (out.coeff(3) - want3).strip_norm() < 1e-14


def test_compose_reduced_base_case_hand_expansion(golden_freq):
    # K^(1) o R^(1) through order N: x - abar x^N + Ktil(theta + omega) x^N
    om = golden_freq.omega[0]
    N, deg, cap = 2, 4, 8
    ktil = FourierSeries.sine((1,), 1, cap, 0.37)
    K = SkewMap(
        x=_x(deg=deg, cap=cap) + Jet.monomial(N, (), ktil, 0, deg, 1, cap),
        y=(), theta_dev=(Jet(0, deg, 1, cap),), rot=(0.0,),
    )
    R = SkewMap(
        x=_x(deg=deg, cap=cap) - Jet.monomial(N, (), 1.3, 0, deg, 1, cap),
        y=(), theta_dev=(Jet(0, deg, 1, cap),), rot=(om,),
    )
    out = compose(K, R, deg)
    assert (out.x.coeff(1) - FourierSeries.constant(1.0, 1, cap)).strip_norm() < 1e-15
    want_N = FourierSeries.constant(-1.3, 1, cap) + ktil.rotate(om)
    assert (out.x.coeff(N) - want_N).strip_norm() < 1e-14
    assert out.rot == (om,)


def test_compose_reduced_identity_rotation():
    cap = 8
    series = FourierSeries.cosine((1,), 1, cap, 0.5)
    K = SkewMap(
        x=_x(deg=4, cap=cap) + Jet.monomial(2, (), series, 0, 4, 1, cap),
        y=(), theta_dev=(Jet(0, 4, 1, cap),), rot=(0.0,),
    )
    R = SkewMap.identity(0, 4, 1, cap, rot=(0.25,))
    out = compose(K, R, 4)
    # pure rotation: coefficients rotate, no mixing of orders
    assert (out.x.coeff(2) - series.rotate(0.25)).strip_norm() < 1e-15


def test_compose_rx_substitution():
    # K_x = x, R_x = x - abar x^N: plain substitution
    cap, deg, N = 8, 6, 3
    K = SkewMap.identity(0, deg, 1, cap)
    R = SkewMap(
        x=_x(deg=deg, cap=cap) - Jet.monomial(N, (), 0.8, 0, deg, 1, cap),
        y=(), theta_dev=(Jet(0, deg, 1, cap),), rot=(0.1,),
    )
    out = compose(K, R, deg)
    assert (out.x - R.x).norm() < 1e-15


def test_compose_associativity(rng, golden_freq):
    om = golden_freq.omega[0]
    cap, deg = 6, 6
    m = 1
    F = SkewMap.identity(m, deg, 1, cap, rot=(om,))
    F.x = F.x - Jet.monomial(2, (0,), random_real_series(rng, cap=cap, scale=0.5), m, deg, 1, cap) \
        + Jet.monomial(1, (1,), random_real_series(rng, cap=cap, scale=0.3), m, deg, 1, cap)
    F.y = (F.y[0] + Jet.monomial(1, (1,), random_real_series(rng, cap=cap, scale=0.4), m, deg, 1, cap),)
    F.theta_dev = (Jet.monomial(2, (0,), random_real_series(rng, cap=cap, scale=0.2), m, deg, 1, cap),)

    K = SkewMap(
        x=_x(deg=deg, cap=cap) + Jet.monomial(2, (), random_real_series(rng, cap=cap, scale=0.3), 0, deg, 1, cap),
        y=(Jet.monomial(2, (), random_real_series(rng, cap=cap, scale=0.2), 0, deg, 1, cap),),
        theta_dev=(Jet.monomial(1, (), random_real_series(rng, cap=cap, scale=0.1), 0, deg, 1, cap),),
        rot=(0.0,),
    )
    R = SkewMap(
        x=_x(deg=deg, cap=cap) - Jet.monomial(2, (), 0.9, 0, deg, 1, cap),
        y=(), theta_dev=(Jet(0, deg, 1, cap),), rot=(om,),
    )
    lhs = compose(compose(F, K, deg), R, deg)
    rhs = compose(F, compose(K, R, deg), deg)
    err = (lhs.x - rhs.x).norm() + (lhs.y[0] - rhs.y[0]).norm() + (
        lhs.theta_dev[0] - rhs.theta_dev[0]
    ).norm()
    assert err < 1e-11


def test_evaluation_homomorphism_full_composition(rng, golden_freq):
    om = golden_freq.omega[0]
    cap, deg, m = 16, 6, 1
    F = SkewMap.identity(m, deg, 1, cap, rot=(om,))
    F.x = F.x - Jet.monomial(2, (0,), random_real_series(rng, cap=cap, max_mode=2), m, deg, 1, cap)
    F.y = (F.y[0] + Jet.monomial(1, (1,), random_real_series(rng, cap=cap, max_mode=2), m, deg, 1, cap),)
    F.theta_dev = (Jet.monomial(2, (0,), random_real_series(rng, cap=cap, scale=0.3, max_mode=2), m, deg, 1, cap),)
    K = SkewMap(
        x=_x(deg=deg, cap=cap) + Jet.monomial(2, (), random_real_series(rng, cap=cap, scale=0.4, max_mode=2), 0, deg, 1, cap),
        y=(Jet.monomial(2, (), random_real_series(rng, cap=cap, scale=0.5, max_mode=2), 0, deg, 1, cap),),
        theta_dev=(Jet.monomial(1, (), random_real_series(rng, cap=cap, scale=0.2, max_mode=2), 0, deg, 1, cap),),
        rot=(0.0,),
    )
    FK = compose(F, K, deg)
    for x in np.linspace(0.002, 0.02, 8):
        for th in np.arange(8) / 8:
            kx, ky, kth = K.evaluate(x, (), (th,))
            fx, fy, fth = F.evaluate(kx, ky, kth)
            gx, gy, gth = FK.evaluate(x, (), (th,))
            assert abs(fx - gx) < 1e-10
            assert abs(fy[0] - gy[0]) < 1e-10
            assert abs(fth[0] - gth[0]) < 1e-10


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_array_evaluation_equals_loop_over_points(rng, dtype):
    cap, deg, m, dim = 8, 5, 1, 2

    def series(scale=0.3):
        return random_real_series(rng, dim=dim, cap=cap, scale=scale, max_mode=2)

    F = SkewMap.identity(m, deg, dim, cap, rot=(0.3, 0.7))
    F.x = F.x - Jet.monomial(2, (0,), series(), m, deg, dim, cap)
    F.y = (F.y[0] + Jet.monomial(1, (1,), series(), m, deg, dim, cap),)
    F.theta_dev = tuple(Jet.monomial(1, (1,), series(), m, deg, dim, cap) for _ in range(dim))
    K = SkewMap(
        x=Jet.var_x(0, deg, dim, cap) + Jet.monomial(2, (), series(), 0, deg, dim, cap),
        y=(Jet.monomial(2, (), series(), 0, deg, dim, cap),),
        theta_dev=tuple(Jet.monomial(1, (), series(), 0, deg, dim, cap) for _ in range(dim)),
        rot=(0.0, 0.0),
    )
    xs = rng.uniform(0.01, 0.05, (3, 4))
    ths = [rng.random((3, 4)) for _ in range(dim)]
    kx, ky, kth = K.evaluate(xs, (), ths, dtype=dtype)
    fx, fy, fth = F.evaluate(*K.evaluate(xs, (), ths, dtype=dtype), dtype=dtype)
    jy = F.y[0].evaluate(xs, (xs,), ths, dtype=dtype)
    tol = 1e-14 if dtype is complex else 0.0
    for i in np.ndindex(xs.shape):
        th = tuple(t[i] for t in ths)
        px, py, pth = K.evaluate(xs[i], (), th, dtype=dtype)
        qx, qy, qth = F.evaluate(px, py, pth, dtype=dtype)
        for arrays, points in ((kx, px), (fx, qx)):
            assert abs(complex(arrays[i] - points)) <= tol
        for arrays, points in ((ky, py), (kth, pth), (fy, qy), (fth, qth)):
            assert all(abs(complex(a[i] - p)) <= tol for a, p in zip(arrays, points))
        assert abs(complex(jy[i] - F.y[0].evaluate(xs[i], (xs[i],), th, dtype=dtype))) <= tol


# -------------------------------------------------------------- derivatives


def test_derivative_x_cubed():
    c = _x(deg=5).power(3)
    d = c.derivative_x()
    assert abs(d.coeff(2).average() - 3.0) < 1e-15


def test_derivative_theta_of_cosine_monomial():
    a = FourierSeries.cosine((1,), 1, 8)
    j = Jet.monomial(1, (), a, 0, 4, 1, 8)
    d = j.derivative_theta(0)
    want = FourierSeries.sine((1,), 1, 8, -2 * math.pi)
    assert (d.coeff(1) - want).strip_norm() < 1e-14


def test_derivative_finite_difference_oracle(rng):
    j = _random_jet(rng, m=1, deg=4)
    dx = j.derivative_x()
    dy = j.derivative_y(0)
    step = 1e-5
    for x, y, th in ((0.05, 0.02, 0.3), (0.02, -0.04, 0.8)):
        fd_x = (j.evaluate(x + step, (y,), (th,)) - j.evaluate(x - step, (y,), (th,))) / (2 * step)
        fd_y = (j.evaluate(x, (y + step,), (th,)) - j.evaluate(x, (y - step,), (th,))) / (2 * step)
        assert abs(dx.evaluate(x, (y,), (th,)) - fd_x) <= 1e-7 * max(1.0, abs(fd_x))
        assert abs(dy.evaluate(x, (y,), (th,)) - fd_y) <= 1e-7 * max(1.0, abs(fd_y))


def test_leibniz_rule(rng):
    a = _random_jet(rng, m=1, deg=4)
    b = _random_jet(rng, m=1, deg=4)
    prod = a.jet_mul(b)
    for derivative in (methodcaller("derivative_x"), methodcaller("derivative_y", 0),
                       methodcaller("derivative_theta", 0)):
        lhs = derivative(prod)
        rhs = derivative(a).jet_mul(b) + a.jet_mul(derivative(b))
        # the product rule mixes degrees; compare below the truncation bound
        diff = (lhs - rhs).truncated(3)
        assert diff.norm() < 1e-13 * max(1.0, a.norm() * b.norm())


# ------------------------------------------------------ inversion / division


def test_invert_x_jet_roundtrip(rng):
    cap, deg = 24, 8
    A = _x(deg=deg, cap=cap)
    for l in range(2, 5):
        A = A + Jet.monomial(l, (), random_real_series(rng, cap=cap, scale=0.2, max_mode=2), 0, deg, 1, cap)
    B = invert_x_jet(A)
    assert (jet_compose(A, B) - _x(deg=deg, cap=cap)).norm() < 1e-12
    assert (jet_compose(B, A) - _x(deg=deg, cap=cap)).norm() < 1e-12


def test_divide_by_x_plus_y_exact(rng):
    m, deg, cap = 2, 7, 6
    x = Jet.var_x(m, deg, 1, cap)
    y0 = Jet.var_y(0, m, deg, 1, cap)
    y1 = Jet.var_y(1, m, deg, 1, cap)
    q = x.power(2) - 0.5 * y1 * x + Jet.monomial(
        1, (1, 1), random_real_series(rng, cap=cap), m, deg, 1, cap
    )
    N = (x + y0) * q
    got = divide_by_x_plus_y(N, 0)
    assert (got - q).norm() < 1e-12


def test_map_coeffs_checks_what_fn_returns():
    # map_coeffs is public and fn is the caller's, so its results get the
    # constructor's checks, which the jets derived inside the algebra skip
    j = Jet.monomial(1, (), FourierSeries.cosine((1,), 1, 4), 0, 3, 1, 4)
    with pytest.raises(DimensionMismatch):
        j.map_coeffs(lambda s: FourierSeries(1, 5, {(0,): 1.0}))
    assert j.map_coeffs(lambda s: 2.0).coeff(1).coeffs == {(0,): 2.0}
    assert j.map_coeffs(lambda s: s.scale(0.0)).is_zero()
