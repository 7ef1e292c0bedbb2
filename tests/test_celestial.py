"""Celestial builders: potential expansion, reduction charts, skeleton, demo."""

import itertools
import json
import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori import celestial
from paratori.celestial import (
    PrimarySystem,
    RestrictedField,
    TorusData,
    _theta_sub_jet,
    build_full_skeleton,
    build_restricted_field,
    escape_demo,
    expand_potential,
)
from paratori.cohomology import solve_manifold
from paratori.cli import main
from paratori.errors import HypothesisViolation, InsufficientTorusData, ParatoriError, StepUnderflow
from paratori.fourier import FourierSeries
from paratori.jet import Jet, _Products
from paratori.model import validate
from paratori.serialize import model_to_obj
from conftest import random_real_series
from oracles import (
    FloatSumRestrictedField,
    ReferenceRestrictedField,
    potential_direct,
    primary_positions,
    reference_expand_potential,
    reference_theta_sub_jet,
)


# ---------------------------------------------------------------- primaries


def test_center_of_mass_enforced():
    cap = 8
    one = FourierSeries.constant(1.0, 1, cap)
    zero = FourierSeries(1, cap)
    bad = PrimarySystem(masses=(1.0,), qx=(one,), qy=(zero,), omega=(0.3,))
    with pytest.raises(HypothesisViolation):
        bad.check()


@pytest.mark.parametrize("mass", [math.nan, math.inf, 0.0, -0.5])
def test_non_finite_or_non_positive_mass_is_refused(mass):
    # a NaN mass passed ``mj <= 0`` and the centre-of-mass test (its defect
    # is NaN), so the binary built and solved before the orbit refused it
    binary = PrimarySystem.circular_binary()
    with pytest.raises(HypothesisViolation, match=r"^all primary masses must be finite and positive: \["):
        PrimarySystem((mass, 0.5), binary.qx, binary.qy, binary.omega).check()


def test_binary_is_exact_two_body_solution():
    sys = PrimarySystem.circular_binary(mass=0.5, radius=1.0)
    sys.check()
    # Kepler's third law for the circular pair: Omega^2 (2R)^3 = M_total
    Omega = 2 * math.pi * sys.omega[0]
    assert Omega ** 2 * 8.0 == pytest.approx(1.0, rel=1e-12)


def _three_primaries():
    """Three primaries on T^2 with random orbits inside |q| < 1 and the centre of mass at 0."""
    rng = np.random.default_rng(11)
    masses = (0.2, 0.3, 0.5)
    qx = [random_real_series(rng, dim=2, cap=4, scale=0.1) for _ in range(2)]
    qy = [random_real_series(rng, dim=2, cap=4, scale=0.1) for _ in range(2)]
    for q in (qx, qy):
        q.append((q[0].scale(masses[0]) + q[1].scale(masses[1])).scale(-1.0 / masses[2]))
    sys = PrimarySystem(masses, tuple(qx), tuple(qy), (0.11, 0.11 * math.sqrt(2.0)))
    sys.check()
    return sys


_SYSTEMS = {
    "binary": PrimarySystem.circular_binary,
    "single": PrimarySystem.single,
    "three": _three_primaries,
}


def _reference_rhs(sys, t, state):
    """RestrictedField.rhs with the primaries evaluated one series at a time."""
    r, th, y, G = state
    e = complex(math.cos(th), math.sin(th))
    z = r * e
    dVdr = dVdth = 0.0
    for mj, qj in zip(sys.masses, primary_positions(sys, tuple(w * t for w in sys.omega))):
        D = z - qj
        dVdr -= mj * (D.conjugate() * e).real / abs(D) ** 3
        dVdth -= mj * (D.conjugate() * (1j * r * e)).real / abs(D) ** 3
    return np.array([y, G / r ** 2, G ** 2 / r ** 3 + dVdr, dVdth])


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_stacked_positions_equal_per_series(name):
    sys = _SYSTEMS[name]()
    fld = RestrictedField(sys)
    # out to the escape orbit's horizon, where k.omega t is about 1e9 turns
    for t in (0.0, 0.37, 12.5, 4.1e3, 2.7e6, 4.958e7, 1.3e9, 2.9e9, 3.0e9):
        got = fld.positions(t)
        want = primary_positions(sys, tuple(w * t for w in sys.omega))
        assert got.shape == (sys.n,)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_restricted_rhs_unchanged_by_stacking(name):
    sys = _SYSTEMS[name]()
    fld = RestrictedField(sys)
    rng = np.random.default_rng(3)
    # r >= 2 keeps the test body clear of every orbit (|q| < 1), where the
    # RHS would amplify the last-bit differences of the stacked positions
    for _ in range(20):
        state = np.array([rng.uniform(2.0, 50.0), rng.uniform(-math.pi, math.pi),
                          rng.standard_normal(), rng.standard_normal()])
        t = rng.uniform(0.0, 1e4)
        want = _reference_rhs(sys, t, state)
        for st, tt in ((state, np.float64(t)), (state.tolist(), t)):
            got = fld.rhs(tt, st)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_float_rhs_and_energy_match_reference(name):
    # rhs works on Python floats end to end and returns them; energy sums
    # its potential on its own, checked against the direct sum over the primaries
    sys = _SYSTEMS[name]()
    fld = RestrictedField(sys)
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = [rng.uniform(2.0, 50.0), rng.uniform(-math.pi, math.pi),
                 float(rng.standard_normal()), float(rng.standard_normal())]
        t = rng.uniform(0.0, 1e4)
        got = fld.rhs(t, state)
        assert type(got) is tuple and all(type(v) is float for v in got)
        want = _reference_rhs(sys, t, state)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-14 * np.max(np.abs(want))
        r, th, y, G = state
        energy = 0.5 * (y ** 2 + G ** 2 / r ** 2) - potential_direct(
            sys, r, th, tuple(w * t for w in sys.omega))
        assert fld.energy(state, t) == pytest.approx(energy, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_field_equals_matvec_reference_bit_for_bit(name):
    # the binary and one primary take the float sum, the three-primary T^2
    # system the matrix-vector product; all keep the reference's bits, near
    # the primaries and out to the escape orbit's horizon
    sys = _SYSTEMS[name]()
    fld, ref = RestrictedField(sys), ReferenceRestrictedField(sys)
    rng = np.random.default_rng(13)
    for _ in range(200):
        state = [float(10 ** rng.uniform(-1.0, 2.0)), rng.uniform(-math.pi, math.pi),
                 float(rng.standard_normal()), float(rng.standard_normal())]
        t = float(10 ** rng.uniform(-3.0, math.log10(3.0e9)))
        assert fld.rhs(t, state) == ref.rhs(t, state)
        assert fld.energy(state, t) == ref.energy(state, t)
        got, want = fld.positions(t), ref.positions(t)
        assert got.shape == want.shape == (sys.n,)
        assert np.array_equal(got, want)


def _mode_pairs_series(rng, dim, modes):
    """A real series on the given modes and their mirrors, l1 norm 0.4."""
    c = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    c *= 0.2 / np.sum(np.abs(c))
    table = {}
    for k, ck in zip(modes, c.tolist()):
        table[k] = ck
        table[tuple(-v for v in k)] = ck.conjugate()
    return FourierSeries(dim, 6, table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 2), many=st.booleans())
def test_field_matches_references_on_both_sides_of_the_threshold(seed, dim, many):
    # few terms (at most 3 primaries x 2 mode pairs) take the float sum,
    # many (at least 2 x 4 pairs) the matrix-vector product.  On T^2 the
    # float sum is held to the per-series sum: both form k.omega t axis by
    # axis from zero (at t ~ 1e4 one ulp of the phase is 1e-11 of a
    # position), and the matrix-vector product to the stacked reference
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4) if many else rng.integers(1, 4))
    half = [k for k in itertools.product(range(-6, 7), repeat=dim)
            if 0 < sum(map(abs, k)) <= 6 and k > tuple(-v for v in k)]
    n_pairs = int(rng.integers(4, 7) if many else rng.integers(1, 3))
    qx, qy = [], []
    for _ in range(n):
        modes = [half[i] for i in rng.choice(len(half), n_pairs, replace=False)]
        qx.append(_mode_pairs_series(rng, dim, modes))
        qy.append(_mode_pairs_series(rng, dim, modes))
    sys = PrimarySystem(tuple(rng.uniform(0.1, 1.0, n).tolist()), tuple(qx), tuple(qy),
                        tuple(rng.uniform(0.05, 1.0, dim).tolist()))
    fld, ref = RestrictedField(sys), ReferenceRestrictedField(sys)
    terms = int(np.count_nonzero(ref._qmat))
    assert (terms > celestial._FLOAT_SUM_MAX_TERMS) == many
    per_series = dim > 1 and not many
    for _ in range(5):
        state = [rng.uniform(2.0, 50.0), rng.uniform(-math.pi, math.pi),
                 float(rng.standard_normal()), float(rng.standard_normal())]
        t = float(10 ** rng.uniform(-2.0, math.log10(3.0e9)))
        if per_series:
            want_q = np.array(primary_positions(sys, tuple(w * t for w in sys.omega)))
            want_f = _reference_rhs(sys, t, state)
        else:
            want_q, want_f = ref.positions(t), np.array(ref.rhs(t, state))
        got_q = fld.positions(t)
        assert got_q.shape == (n,)
        assert np.max(np.abs(got_q - want_q)) <= 1e-15 * max(1.0, np.max(np.abs(want_q)))
        got_f = np.array(fld.rhs(t, state))
        assert np.max(np.abs(got_f - want_f)) <= 1e-14 * np.max(np.abs(want_f))



_FLOAT_MODES = {1: [(k,) for k in range(-4, 5)],
                2: [(a, b) for a in range(-3, 4) for b in range(-3, 4)]}
_coefficient = st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))


@st.composite
def _float_sum_systems(draw):
    """1-3 primaries on T^1 or T^2 with 0-12 nonzero terms in all, at most
    the float sum's; with ``at_origin`` the first primary has none."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 3))
    at_origin = draw(st.booleans())
    budget = celestial._FLOAT_SUM_MAX_TERMS
    qx, qy = [], []
    for j in range(n):
        ks = [] if at_origin and j == 0 else draw(
            st.lists(st.sampled_from(_FLOAT_MODES[dim]), unique=True, max_size=budget))
        budget -= len(ks)
        qx.append(FourierSeries(dim, 6, {k: draw(_coefficient) for k in ks}))
        qy.append(FourierSeries(dim, 6, {k: draw(_coefficient) for k in ks}))
    masses = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    omega = draw(st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim))
    return PrimarySystem(tuple(masses), tuple(qx), tuple(qy), tuple(omega))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sys=_float_sum_systems(), r=st.floats(0.1, 100.0), th=st.floats(-math.pi, math.pi),
       y=st.floats(-2.0, 2.0), G=st.floats(-2.0, 2.0), t=st.floats(0.0, 3.0e9),
       as_numpy=st.booleans())
def test_generated_field_equals_float_sum_reference(sys, r, th, y, G, t, as_numpy):
    # the generated rhs, energy's own potential sum and the positions keep
    # every bit of the float loops they replaced, on Python floats and on
    # numpy scalars alike
    if as_numpy:
        r, th, y, G, t = map(np.float64, (r, th, y, G, t))
    state = [r, th, y, G]
    fld, ref = RestrictedField(sys), FloatSumRestrictedField(sys)
    for call in (lambda f: f.rhs(t, state), lambda f: f.energy(state, t),
                 lambda f: f.positions(t)):
        try:
            want = call(ref)
        except (ZeroDivisionError, RuntimeWarning) as exc:  # the test body on a primary
            with pytest.raises(type(exc)):
                call(fld)
            continue
        got = call(fld)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()  # signed zeros too


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_generated_code_holds_no_values(name):
    # every value of the system enters the generated functions through
    # their namespace: their constants are those of the formulas alone
    fld = RestrictedField(_SYSTEMS[name]())
    codes, consts = [fld._rhs.__code__, fld._positions.__code__], set()
    while codes:
        for c in codes.pop().co_consts:
            if isinstance(c, types.CodeType):
                codes.append(c)
            else:
                consts.add(repr(c))
    assert consts <= {"None", "0", "2", "3", "0.0", "0j", "1j"}


# ------------------------------------------------------- potential expansion


def test_single_primary_potential_exact():
    sys = PrimarySystem.single(mass=2.0)
    V = expand_potential(sys, degree=6)
    assert V.coeff(1).average().real == pytest.approx(2.0)
    for l in range(2, 7):
        assert V.coeff(l).strip_norm() < 1e-14


def test_leading_coefficient_is_total_mass():
    sys = PrimarySystem.circular_binary(mass=0.5, radius=1.0)
    V = expand_potential(sys, degree=4)
    lead = V.coeff(1)
    assert lead.average().real == pytest.approx(1.0)
    assert lead.oscillatory().strip_norm() < 1e-14
    # 1/r^2 order cancels by the center-of-mass identity
    assert V.coeff(2).strip_norm() < 1e-14


def test_binary_r3_coefficient_vs_quadrature():
    # independent oracle: direct summed potential at large radius
    sys = PrimarySystem.circular_binary(mass=0.5, radius=1.0)
    V = expand_potential(sys, degree=5)
    c3 = V.coeff(3)
    r = 1.0e3
    for th in np.arange(6) / 6:
        for ph in np.arange(6) / 6:
            direct = potential_direct(sys, r, 2 * math.pi * th, (ph,))
            pred = c3.evaluate((th, ph)).real / r ** 3
            # the next surviving order is 1/r^5 (odd powers vanish by parity)
            assert abs((direct - 1.0 / r) - pred) * r ** 3 < 5.0 / r ** 2


def _same_bits(got, want):
    """Equal jets down to the bits: the same terms, each series byte for byte."""
    assert got.terms.keys() == want.terms.keys()
    for key, s in want.terms.items():
        assert got.terms[key].order_cap == s.order_cap
        assert got.terms[key]._data.tobytes() == s._data.tobytes(), key


def _within(got, want, rel):
    """Every coefficient of the difference within rel times the largest of want's."""
    scale = max((np.abs(s._data).max() for s in want.terms.values()), default=0.0)
    for key in got.terms.keys() | want.terms.keys():
        assert np.abs(got.coeff(*key)._data - want.coeff(*key)._data).max() <= rel * scale, key


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_generating_jet_potential_matches_term_by_term(name):
    sys = _SYSTEMS[name]()
    for degree in (3, 5):
        got, want = expand_potential(sys, degree), reference_expand_potential(sys, degree)
        if name == "three":  # masses that are not powers of 2 round differently
            _within(got, want, 1e-13)
        else:
            _same_bits(got, want)


def test_potential_cap_holds_every_mode():
    """The default cap bounds |k|_1, not the largest entry of k: a primary on
    the mode (2, 2) alone loses nothing to truncation."""
    c = FourierSeries.cosine((2, 2), 2, 4, 0.1)
    zero = FourierSeries(2, 4)
    sys = PrimarySystem((0.5, 0.5), (c, -c), (zero, zero), (0.11, 0.11 * math.sqrt(2.0)))
    V = expand_potential(sys, 3)
    wide = expand_potential(sys, 3, order_cap=V.order_cap + 2)
    for l in (1, 3):
        assert V.coeff(l).trunc_loss == 0.0
        assert V.coeff(l).coeffs == wide.coeff(l).coeffs


def _build_deviation(d, cap, deg=8, gtilde0=0.15):
    """theta - alpha0 in radians as build_restricted_field forms it, and the memo of its powers."""
    m = 3
    jv = Jet.var_x(m, deg, d, cap)
    ju, jz1, jz2 = (Jet.var_y(i, m, deg, d, cap) for i in range(m))
    xt, yt = ju + jv, jv - ju
    gt = Jet.monomial(0, (0,) * m, gtilde0, m, deg, d, cap) + xt.jet_mul(jz2)
    dev = xt.jet_mul(jz1) - gt.jet_mul(yt)
    return dev, _Products((dev,), Jet.monomial(0, (0,) * m, 1.0, m, deg, d, cap))


@pytest.mark.parametrize("alpha0", [0.0, 0.7])
@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_taylor_sum_substitution_matches_exponential_per_mode(name, alpha0):
    """The angle substitution of every potential coefficient, and of its
    theta-derivative, against the exp(i k0 dev) code at every degree (the
    sums over p and k0 run in another order, so the terms beyond the degrees
    a build keeps may differ in the last bits)."""
    sys = _SYSTEMS[name]()
    V = expand_potential(sys, degree=4)  # a smaller box than a build's degree 5, for time
    dev, dev_powers = _build_deviation(sys.d, V.order_cap)
    for series in V.terms.values():
        for s in (series, series.derivative(0).scale(1.0 / (2.0 * math.pi))):
            want = reference_theta_sub_jet(s, alpha0, dev, 3, 8, sys.d, V.order_cap)
            _within(_theta_sub_jet(s, alpha0, dev_powers, 8), want, 1e-13)
    # a potential constant in theta (one primary at the origin) needs no power of dev
    assert len(dev_powers._memo) == (1 if name == "single" else 9)


# the three-primary reference build takes seconds: it runs at alpha0 = 0.7
# only, its substitution at alpha0 = 0 being checked above
@pytest.mark.parametrize("name,alpha0", [("binary", 0.0), ("binary", 0.7), ("single", 0.0),
                                         ("single", 0.7), ("three", 0.7)])
def test_restricted_model_matches_reference_constructors(monkeypatch, name, alpha0):
    """The restricted model built with the term-by-term potential and the
    per-mode exponentials: the same bytes on one and two primaries, within
    1e-13 of each jet's coefficient scale on the three-primary T^2 system."""
    sys = _SYSTEMS[name]()
    got, _ = build_restricted_field(sys, alpha0=alpha0, gtilde0=0.15)

    def reference_sub(series, alpha0, dev_powers, budget):
        """The full expansion, whatever the budget: equal bytes show that no
        term the build leaves out reaches the model."""
        one = dev_powers((0,))
        return reference_theta_sub_jet(series, alpha0, dev_powers((1,)), one.m, one.deg,
                                       one.dim, one.order_cap)

    monkeypatch.setattr(celestial, "expand_potential", reference_expand_potential)
    monkeypatch.setattr(celestial, "_theta_sub_jet", reference_sub)
    want, _ = build_restricted_field(sys, alpha0=alpha0, gtilde0=0.15)
    if name != "three":
        assert json.dumps(model_to_obj(got)) == json.dumps(model_to_obj(want))
        return
    for g, w in zip((got.f, *got.g, *got.h), (want.f, *want.g, *want.h)):
        _within(g, w, 1e-13)
    assert got.a.coeffs == want.a.coeffs
    assert [[s.coeffs for s in row] for row in got.B] == [[s.coeffs for s in row] for row in want.B]


def test_restricted_build_product_count(monkeypatch):
    """A deterministic cost guard: series products in one restricted build at
    the CLI's torus label (the term-by-term potential and the per-mode
    exponentials took 9,777 on the binary and 198 on one primary; angle
    substitutions formed to the full degree took 2,015 on the binary)."""
    calls = []
    mul = FourierSeries.series_mul

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FourierSeries, "series_mul", counting)
    build_restricted_field(PrimarySystem.circular_binary(), gtilde0=0.15)
    assert len(calls) <= 540
    calls.clear()
    build_restricted_field(PrimarySystem.single(), gtilde0=0.15)
    assert len(calls) <= 198


# ---------------------------------------------------------- restricted model


def test_restricted_leading_data_exact():
    model, chart = build_restricted_field(PrimarySystem.single(), degree=8)
    assert model.a.coeffs == {(0,): (0.25 + 0j)}
    assert chart.a_value == 0.25
    assert chart.computed_N == 4 and chart.stated_N == 6
    assert np.allclose(np.diag(model.B_bar()), 0.25)
    assert validate(model) == []


def test_restricted_uv_decoupling_below_tail_order():
    model, _ = build_restricted_field(PrimarySystem.single(), degree=8, gtilde0=0.2)
    for jet in (model.f, model.g[0]):
        for (l, k), s in jet.terms.items():
            if l + sum(k) <= 5:
                assert k[1] == 0 and k[2] == 0, (l, k)


def test_restricted_chart_roundtrip():
    _, chart = build_restricted_field(PrimarySystem.single(), degree=6, gtilde0=0.1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = 0.03 + 0.05 * rng.random()
        u, z1, z2 = 0.01 * rng.standard_normal(3)
        r, th, y, G = chart.to_physical(v, u, z1, z2)
        back = chart.to_model(r, th, y, G)
        assert np.allclose(back, [v, u, z1, z2], atol=1e-10)


def test_restricted_field_matches_chart_pushforward():
    # finite-difference pushforward of the physical equations
    sys = PrimarySystem.circular_binary(mass=0.5, radius=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.1)
    fld = model.as_field(8)
    phys = RestrictedField(sys)
    state_m = np.array([0.05, 0.004, 0.03, -0.02])
    phys_state = np.array(chart.to_physical(*state_m))
    Xphys = phys.rhs(0.0, phys_state)
    eps = 1e-7
    J = np.zeros((4, 4))
    base = np.array(chart.to_model(*phys_state))
    for i in range(4):
        p = phys_state.copy()
        p[i] += eps
        J[:, i] = (np.array(chart.to_model(*p)) - base) / eps
    pushed = J @ Xphys
    got = fld.rhs(0.0, list(state_m) + [0.0])[:4]
    assert np.max(np.abs(got - pushed)) < 1e-6


def test_restricted_binary_solve_and_orders():
    sys = PrimarySystem.circular_binary(mass=0.5, radius=1.0)
    model, _ = build_restricted_field(sys, degree=9, gtilde0=0.1)
    assert validate(model) == []
    res = solve_manifold(model, 3)
    for entry in res.per_order:
        assert max(entry["below_order"].values()) < 1e-8


# -------------------------------------------------------------- full skeleton


def test_skeleton_declarations():
    td = TorusData(omega0=(math.sqrt(2), math.sqrt(3)), n=2,
                   c2=np.array([[0.3, 0.1], [0.1, 0.2]]),
                   angular_momentum_internal=1.5)
    model, declared = build_full_skeleton(td, G_n0=0.7)
    assert (declared["N"], declared["P"], declared["a"]) == (4, 6, 0.25)
    assert declared["total_angular_momentum"] == pytest.approx(1.5 + 0.7)
    assert model.declared_P == 6 and model.P == 4
    assert validate(model) == []


def _t4_torus():
    """n = 3, the paper's case: the base torus is T^4, and the build scans
    its frequencies to k_max 30."""
    c2 = np.array([[0.3, 0.1, 0.0, 0.05], [0.1, 0.2, 0.0, 0.0],
                   [0.0, 0.0, 0.25, 0.1], [0.05, 0.0, 0.1, 0.15]])
    return TorusData(omega0=tuple(math.sqrt(p) for p in (2, 3, 5, 7)), n=3, c2=c2)


def test_skeleton_on_t4_has_criterion_7s_reduced_field():
    model, declared = build_full_skeleton(_t4_torus())
    assert (declared["N"], declared["P"], declared["a"]) == (4, 6, 0.25)
    assert validate(model) == []
    coeffs = solve_manifold(model, 4).solution.reduced.x_poly_coeffs()
    assert set(coeffs) <= {4, 7} and coeffs[4] == -0.25


def test_skeleton_on_t4_builds_and_solves_in_little_memory():
    """The n = 3 skeleton builds and solves to order 4 under a traced peak
    of 64 MB: each of its series on T^4 at cap 8 holds the 3,649 modes under
    the cap, not the 83,521 of the box [-8, 8]^4, over which the build
    peaked at 230 MB and the solve at 327 MB."""
    tracemalloc.start()
    try:
        model, _ = build_full_skeleton(_t4_torus())
        solve_manifold(model, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_skeleton_zero_tails_pure_model():
    td = TorusData(omega0=(math.sqrt(2), math.sqrt(3)), n=2)
    model, _ = build_full_skeleton(td)
    res = solve_manifold(model, 4)
    sol = res.solution
    # pure model: Y_x = -(1/4) u^4 exactly from the base steps
    assert sol.reduced.a_bar == pytest.approx(0.25)
    assert sol.reduced.b == pytest.approx(0.0, abs=1e-14)
    assert sol.coefficient_norm() < 1e-13


def test_skeleton_extra_tails_land_in_their_components():
    zk, e1 = (0,) * 5, (0, 1, 0, 0, 0)
    rows = [["x", 6, zk, [0, 0], 0.05, 0.0], ["y1", 5, e1, [1, 0], 0.02, 0.01],
            ["theta1", 7, zk, [0, 1], 0.03, 0.0]]
    td = TorusData(omega0=(math.sqrt(2), math.sqrt(3)), n=2, extra_tails=rows)
    model, _ = build_full_skeleton(td, degree=8)
    cap = model.order_cap
    want = {
        "x": (model.f, 6, zk, FourierSeries(2, cap, {(0, 0): 0.05})),
        "y1": (model.g[1], 5, e1, FourierSeries(2, cap, {(1, 0): 0.02 + 0.01j})),
        "theta1": (model.h[1], 7, zk, FourierSeries(2, cap, {(0, 1): 0.03})),
    }
    pure, _ = build_full_skeleton(TorusData(omega0=td.omega0, n=2), degree=8)
    for comp, (jet, l, k, series) in want.items():
        assert (jet.coeff(l, k) - series).strip_norm() < 1e-15, comp
    # nothing else moved: every other component equals the tail-free model's
    for j, j0 in zip((model.f, *model.g, *model.h), (pure.f, *pure.g, *pure.h)):
        if not any(j is w[0] for w in want.values()):
            assert j.terms.keys() == j0.terms.keys()
    with pytest.raises(InsufficientTorusData, match="unknown tail component 'z'"):
        build_full_skeleton(TorusData(omega0=td.omega0, n=2,
                                      extra_tails=[["z", 6, zk, [0, 0], 0.1, 0.0]]))


def test_skeleton_reduced_field_form():
    td = TorusData(omega0=(math.sqrt(2), math.sqrt(3)), n=2,
                   c2=np.array([[0.3, 0.1], [0.1, 0.2]]),
                   extra_tails=[["x", 6, [0, 0, 0, 0, 0], [0, 0], 0.05, 0.0]])
    model, _ = build_full_skeleton(td, degree=8)
    res = solve_manifold(model, 4)
    red = res.solution.reduced
    coeffs = red.x_poly_coeffs()
    assert set(coeffs) == {4, 7}
    assert coeffs[4] == pytest.approx(-0.25)


def test_torus_data_validation():
    with pytest.raises(InsufficientTorusData):
        TorusData(omega0=(1.0,), n=2).check()
    with pytest.raises(InsufficientTorusData):
        TorusData(omega0=(1.0, 2.0), n=2, c2=np.eye(3)).check()


# --------------------------------------------------------------- escape demo


def test_escape_demo_single_primary_fast():
    sys = PrimarySystem.single(mass=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.15)
    res = solve_manifold(model, 4)
    rep, orbit = escape_demo(sys, res.solution, chart, x0=0.05, horizon=3.0e9,
                             n_samples=120)
    assert rep.law_ok, rep.law_ratio_range
    assert rep.y_ok and abs(rep.y_end) <= 1e-3
    assert rep.energy_ok and abs(rep.energy_end) <= 1e-4
    assert rep.control_law_fails
    assert rep.all_pass
    # the radial velocity decays trendwise along the escape
    ys = [s["y"] for s in rep.samples if s["t"] >= 1.0]
    assert ys[-1] < ys[0]


def _break_orbit(monkeypatch, span, error):
    """Make integrate_flow raise ``error`` on the orbit over ``span`` only
    (the control orbit runs over (0, 3e4), the main one to the horizon)."""
    import paratori.dynamics as dynamics

    real = dynamics.integrate_flow

    def broken(field, state0, t_span, *args, **kwargs):
        if tuple(t_span) == span:
            raise error
        return real(field, state0, t_span, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_flow", broken)


def _short_single_demo():
    sys = PrimarySystem.single(mass=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.15)
    res = solve_manifold(model, 3)
    return escape_demo(sys, res.solution, chart, x0=0.05, horizon=1.0e5, n_samples=20)


def test_escape_demo_control_error_is_not_a_failed_law(monkeypatch):
    # only a collapse or a collision counts as the control failing the law;
    # any other error in the control run propagates
    _break_orbit(monkeypatch, (0.0, 3.0e4), TypeError("not a collapse"))
    with pytest.raises(TypeError, match="not a collapse"):
        _short_single_demo()


def test_escape_demo_control_collapse_fails_the_law(monkeypatch):
    # the control runs in a child process; its collapse still reaches the report
    _break_orbit(monkeypatch, (0.0, 3.0e4), StepUnderflow("collapsed"))
    rep, _ = _short_single_demo()
    assert rep.control_law_fails
    assert rep.orbit_nfev["control"] is None
    assert rep.orbit_nfev["main"] > 0


def test_escape_demo_main_error_leaves_no_child(monkeypatch):
    _break_orbit(monkeypatch, (0.0, 1.0e5), TypeError("main orbit broke"))
    with pytest.raises(TypeError, match="main orbit broke"):
        _short_single_demo()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_escape_demo_off_manifold_control_is_distinct():
    sys = PrimarySystem.single(mass=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.15)
    res = solve_manifold(model, 3)
    rep, _ = escape_demo(sys, res.solution, chart, x0=0.05, horizon=1.0e5,
                         n_samples=60)
    assert rep.control_law_fails


def test_escape_demo_refuses_a_grid_that_misses_the_law_window():
    # two samples up to 1e5 sit at 1 and 1e5, outside [1e3, 1e4], so the law
    # ratio would have no range (it was [NaN, NaN], which JSON cannot hold)
    sys = PrimarySystem.single(mass=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.15)
    res = solve_manifold(model, 3)
    with pytest.raises(ParatoriError, match=r"no sample time up to the horizon 100000.0 falls in "
                                            r"the law window \[1000.0, 10000.0\]"):
        escape_demo(sys, res.solution, chart, x0=0.05, horizon=1.0e5, n_samples=2)


_DEMO_NFEV = {"binary": {"main": 105206, "control": 55976},
              "single": {"main": 1598, "control": 4706}}


@pytest.mark.parametrize("system", sorted(_DEMO_NFEV))
def test_escape_artifacts_equal_matvec_reference(tmp_path, monkeypatch, system):
    # the whole demo, once as is and once on the reference field: the same
    # bytes, and the evaluation count of both orbits.  One primary at the
    # origin runs the generated function of a system without modes
    argv = ["restricted-demo", "--system", system, "--order", "5", "--outdir"]
    assert main([*argv, str(tmp_path / "field")]) == 0
    monkeypatch.setattr(celestial, "RestrictedField", ReferenceRestrictedField)
    assert main([*argv, str(tmp_path / "reference")]) == 0
    for name in ("summary.json", "demo.csv"):
        assert (tmp_path / "field" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()
    summary = json.loads((tmp_path / "field" / "summary.json").read_text())
    assert summary["orbit_nfev"] == _DEMO_NFEV[system]


def test_binary_escape_artifacts_equal_without_fork(tmp_path, monkeypatch):
    # where os.fork is missing the control orbit runs in the caller, after
    # the main one: the same bytes as from the forked child
    argv = ["restricted-demo", "--system", "binary", "--order", "5", "--outdir"]
    assert main([*argv, str(tmp_path / "forked")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main([*argv, str(tmp_path / "inline")]) == 0
    for name in ("summary.json", "demo.csv", "model.json"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()
