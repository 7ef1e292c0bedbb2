"""The order-by-order engine: base step, induction, oracle equivalence."""

import math

import numpy as np
import pytest

from paratori.benchmark import (
    GOLDEN,
    benchmark_flow_model,
    benchmark_map_model,
    conjugacy_fixture,
    toy_x2_flow_model,
)
from paratori.cohomology import (
    FreeChoicePolicy,
    base_step,
    conjugate_normal_form,
    extend_order,
    invariance_error,
    solve_manifold,
)
from paratori.fourier import FourierSeries, diophantine_scan, sd_solve_map
from paratori.jet import Jet, evaluate_jets
from paratori.model import FlowModel, MapModel
from paratori.verify import fit_error_orders_auto
from oracles import reference_flow_invariance_error


def _const_a_model(golden_freq, m=1, N=2, g_tail=None, cap=16, deg=8):
    dim = 1
    a = FourierSeries.constant(1.0, dim, cap)
    B = [[FourierSeries.constant(1.0 if i == j else 0.0, dim, cap)
          for j in range(m)] for i in range(m)] if m else None
    g = None
    if g_tail is not None:
        g = [Jet.monomial(g_tail[0], (0,) * m, g_tail[1], m, deg, dim, cap)]
    return MapModel.build(N=N, P=N, freq=golden_freq, a=a, m=m, order_cap=cap,
                          B=B, g=g, deg=deg)


# ---------------------------------------------------------------- base step


def test_base_step_constant_a(golden_freq):
    model = _const_a_model(golden_freq)
    sol = base_step(model)
    assert sol.j == 1
    assert not sol.ktil_x  # a_osc = 0 kills the SD input
    assert sol.reduced.a_bar == pytest.approx(1.0)


def test_base_step_single_mode(golden_freq):
    cap = 16
    a = FourierSeries.constant(1.0, 1, cap) + FourierSeries.cosine((1,), 1, cap)
    model = MapModel.build(N=2, P=2, freq=golden_freq, a=a, m=0, order_cap=cap)
    sol = base_step(model)
    want = -sd_solve_map(a.oscillatory(), golden_freq)
    assert (sol.ktil_x[2] - want).strip_norm() < 1e-14
    # residual of the difference equation at grid points
    k = sol.ktil_x[2]
    for t in np.arange(64) / 64:
        r = k.evaluate(t) - k.evaluate(t + GOLDEN) - a.oscillatory().evaluate(t)
        assert abs(r) <= 1e-12


def test_base_step_error_order(bench_map):
    sol = base_step(bench_map)
    err = invariance_error(sol)
    assert err.ex.coeff(bench_map.N).strip_norm() <= 1e-12
    for l in range(bench_map.N + 1):
        assert err.ex.coeff(l).strip_norm() <= 1e-12


# ------------------------------------------------------------- extend_order


def test_extend_trivial_model_all_zero(golden_freq):
    model = _const_a_model(golden_freq)
    res = solve_manifold(model, 5)
    sol = res.solution
    assert sol.coefficient_norm() < 1e-14
    assert res.b == 0.0


def test_extend_scalar_y_formula(golden_freq):
    # g-tail 0.3 x^3 gives avg E_y^(N+1) = 0.3 at j = 2, so
    # Kbar_y^2 = -0.3 / (Bbar + 2 abar) = -0.1
    model = _const_a_model(golden_freq, g_tail=(3, 0.3))
    sol = base_step(model)
    err = invariance_error(sol)
    assert err.ey[0].coeff(3).average().real == pytest.approx(0.3)
    sol2, _ = extend_order(sol, err)
    assert sol2.kbar_y[2][0] == pytest.approx(-0.1, abs=1e-14)


def test_extend_flow_scalar_y_formula():
    # flow: Bbar = 2, abar = 1, avg E_y = 1 at order 4 -> Kbar_y^3 = -1/5
    freq = toy_x2_flow_model().freq
    cap, m, deg = 16, 1, 8
    a = FourierSeries.constant(1.0, 1, cap)
    B = [[FourierSeries.constant(2.0, 1, cap)]]
    g = [Jet.monomial(4, (0,), 1.0, m, deg, 1, cap)]
    model = FlowModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=cap, B=B,
                            g=g, deg=deg)
    res = solve_manifold(model, 3)
    assert res.solution.kbar_y[3][0] == pytest.approx(-1.0 / 5.0, abs=1e-14)


def test_extend_flow_base_single_mode():
    freq = toy_x2_flow_model().freq
    cap = 16
    a = FourierSeries.constant(1.0, 1, cap) + FourierSeries.cosine((1,), 1, cap, 0.4)
    model = FlowModel.build(N=2, P=2, freq=freq, a=a, m=0, order_cap=cap)
    sol = base_step(model)
    k = sol.ktil_x[2]
    atil = a.oscillatory()
    for mode, c in atil.coeffs.items():
        div = 2j * math.pi * (mode[0] * freq.omega[0])
        assert k.coeff(mode) == pytest.approx(-c / div)


def test_order_condition_through_five(bench_map):
    res = solve_manifold(bench_map, 5)
    scale = bench_map.coefficient_scale()
    for entry in res.per_order:
        for comp, norm in entry["below_order"].items():
            assert norm <= 1e-9 * scale, (entry["j"], comp, norm)


# ---------------------------------------------- dense linear-system oracle

from oracles import _dense_oracle_step


@pytest.mark.parametrize("j", [2, 3, 4])
def test_dense_oracle_equivalence(j):
    cap = 10
    model = benchmark_map_model(order_cap=cap, deg=10)
    res = solve_manifold(model, j - 1)
    sol_prev, err_prev = res.solution, res.error
    engine, _ = extend_order(sol_prev, err_prev)
    oracle = _dense_oracle_step(sol_prev, j, cap)
    N = model.N
    ox, oth = j + N - 1, j + model.P - 2
    if j == N:
        assert engine.reduced.b == pytest.approx(oracle["scalars"]["b"], abs=1e-9)
    else:
        assert engine.kbar_x.get(j, 0.0) == pytest.approx(oracle["scalars"]["kx"], abs=1e-9)
    assert engine.kbar_y[j][0] == pytest.approx(oracle["scalars"]["ky"], abs=1e-9)
    assert engine.kbar_th[j - 1][0] == pytest.approx(oracle["scalars"]["kth"], abs=1e-9)
    zero = FourierSeries(1, cap)
    assert (engine.ktil_x.get(ox, zero) - oracle["ktx"]).strip_norm() < 1e-9
    assert (engine.ktil_y[ox][0] - oracle["kty"]).strip_norm() < 1e-9
    assert (engine.ktil_th[oth][0] - oracle["ktth"]).strip_norm() < 1e-9


# ---------------------------------------------------------- invariance error


def test_invariance_error_exact_conjugacy_toy():
    # F is built from known (K, R) by jet conjugation, so the assembled
    # solution must have error coefficients at the rounding floor
    model = conjugacy_fixture(b0=0.4, seed=3, deg=10)
    skew = model.as_skew(10)
    # recover the solution by running the engine, then feed it back
    res = solve_manifold(model, 6)
    err = res.error
    for l in range(res.solution.j + model.N):
        assert err.ex.coeff(l).strip_norm() < 1e-11


def test_invariance_error_base_step_slot(bench_map):
    sol = base_step(bench_map)
    err = invariance_error(sol)
    assert err.ex.coeff(bench_map.N).strip_norm() <= 1e-12


def test_fault_injection_detected(bench_map):
    res = solve_manifold(bench_map, 3)
    sol = res.solution.copy_shallow()
    sol.kbar_x = dict(sol.kbar_x)
    sol.kbar_x[2] = sol.kbar_x.get(2, 0.0) + 1e-3
    err = invariance_error(sol)
    bad = err.order_violations(1e-9 * bench_map.coefficient_scale())
    assert bad and bad[0][0] == "x"


# ------------------------------------------------------------- conjugation


def test_conjugate_normal_form_already_normal(golden_freq):
    cap, deg, N, b0 = 16, 8, 2, 0.55
    f = Jet.monomial(2 * N - 1, (), b0, 0, deg, 1, cap)
    model = MapModel.build(N=N, P=N, freq=golden_freq,
                           a=FourierSeries.constant(1.0, 1, cap), m=0,
                           order_cap=cap, f=f, deg=deg)
    b, K, res = conjugate_normal_form(model, order=4)
    assert b == pytest.approx(b0, abs=1e-12)
    assert res.solution.coefficient_norm() < 1e-12  # K is the identity


def test_conjugate_normal_form_recovers_b():
    model = conjugacy_fixture(b0=0.7, seed=7)
    b, K, res = conjugate_normal_form(model, order=4)
    assert b == pytest.approx(0.7, abs=1e-8)


def test_conjugate_invariant_under_second_change():
    m1 = conjugacy_fixture(b0=0.7, seed=7)
    m2 = conjugacy_fixture(b0=0.7, seed=7, extra_conjugation=True)
    b1, _, _ = conjugate_normal_form(m1, order=4)
    b2, _, _ = conjugate_normal_form(m2, order=4)
    assert b1 == pytest.approx(b2, abs=1e-8)


def test_conjugate_requires_m0(bench_map):
    with pytest.raises(Exception):
        conjugate_normal_form(bench_map)


# ----------------------------------------------------- structure / stability


def test_lower_orders_never_change(bench_map):
    sols = {j: solve_manifold(bench_map, j).solution for j in (2, 3, 5)}
    for j_small, j_big in ((2, 3), (3, 5), (2, 5)):
        a, b = sols[j_small], sols[j_big]
        for l, v in a.kbar_x.items():
            assert b.kbar_x[l] == pytest.approx(v, abs=1e-13)
        for o, s in a.ktil_x.items():
            assert (b.ktil_x[o] - s).strip_norm() < 1e-13
        for l, v in a.kbar_y.items():
            assert b.kbar_y[l][0] == pytest.approx(v[0], abs=1e-13)
        for l, v in a.kbar_th.items():
            assert b.kbar_th[l][0] == pytest.approx(v[0], abs=1e-13)


def test_reduced_shape_and_no_theta_corrections(bench_map):
    res = solve_manifold(bench_map, 5)
    red = res.solution.reduced
    # exactly three monomials once j >= N, no R_theta corrections for P >= N
    coeffs = red.x_poly_coeffs()
    assert set(coeffs) == {1, bench_map.N, 2 * bench_map.N - 1}
    assert red.theta_terms == {}


def test_real_symmetric_outputs(bench_map):
    res = solve_manifold(bench_map, 5)
    sol = res.solution
    for s in sol.ktil_x.values():
        assert s.real_symmetry_defect() < 1e-12
    for row in sol.ktil_y.values():
        for s in row:
            assert s.real_symmetry_defect() < 1e-12
    for row in sol.ktil_th.values():
        for s in row:
            assert s.real_symmetry_defect() < 1e-12
    for v in sol.kbar_x.values():
        assert isinstance(v, float)


def test_free_choice_policy_changes_kx_at_N(bench_map):
    res0 = solve_manifold(bench_map, 3)
    res1 = solve_manifold(bench_map, 3, FreeChoicePolicy(kbar_x_at_N=0.3))
    assert res0.solution.kbar_x.get(2, 0.0) == 0.0
    assert res1.solution.kbar_x[2] == pytest.approx(0.3)
    # b is a conjugation invariant: the free choice must not move it
    assert res0.b == pytest.approx(res1.b, abs=1e-10)


# -------------------------------------------------------------- P < N branch


def test_P_less_than_N_theta_corrections(golden_freq):
    # N = 3, P = 2: the first theta average lands in R_theta, K_theta free
    cap, deg, m = 12, 9, 0
    a = FourierSeries.constant(1.0, 1, cap)
    h = [Jet.monomial(2, (), FourierSeries.constant(0.2, 1, cap)
                      + FourierSeries.cosine((1,), 1, cap, 0.3), m, deg, 1, cap)]
    model = MapModel.build(N=3, P=2, freq=golden_freq, a=a, m=m,
                           order_cap=cap, h=h, deg=deg)
    res = solve_manifold(model, 3)
    red = res.solution.reduced
    # step j=2 kills the order-P average with a constant R_theta term
    assert 2 in red.theta_terms
    assert red.theta_terms[2][0] == pytest.approx(0.2, abs=1e-12)
    assert res.solution.kbar_th == {}  # free choices default to zero
    for entry in res.per_order:
        assert max(entry["below_order"].values()) < 1e-9


def test_flow_path_full_benchmark(bench_flow):
    res = solve_manifold(bench_flow, 4)
    for entry in res.per_order:
        assert max(entry["below_order"].values()) < 1e-9 * bench_flow.coefficient_scale()


def test_extend_order_does_not_mutate_input(bench_map):
    res = solve_manifold(bench_map, 1)
    assert res.solution.reduced.b is None
    sol2, _ = extend_order(res.solution, res.error)
    # inputs stay immutable: the invariant b appears only on the new solution
    assert res.solution.reduced.b is None
    assert sol2.reduced.b is not None


def test_error_jet_samples_decay(bench_map):
    res = solve_manifold(bench_map, 3)
    xs = [1e-3, 3e-3, 1e-2]
    err = res.error
    jets = (err.ex, *err.ey, *err.eth)
    # max of |E| over the components and the angles, at each x
    vals = [max(abs(v) for th in [(0.0,), (0.3,)] for v in evaluate_jets(jets, x, (), th))
            for x in xs]
    # dominated by the x-order j+N-1... remainder: it decays strictly as x falls
    assert vals[0] < vals[1] < vals[2]


# ------------------------------------------- flow error against its reference


def _n3_p2_flow():
    """N = 3, P = 2 flow whose reduced field picks up angle terms at several orders."""
    cap, deg, m = 12, 10, 1
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=40, sense="flow")

    def s(mean, amp=0.0):
        return FourierSeries.constant(mean, 1, cap) + FourierSeries.cosine((1,), 1, cap, amp)

    def mono(l, k, c):
        return Jet.monomial(l, k, c, m, deg, 1, cap)

    return FlowModel.build(
        N=3, P=2, freq=freq, a=s(1.0, 0.4), m=m, order_cap=cap, B=[[s(0.7, 0.2)]],
        f=mono(2, (1,), 0.3) + mono(4, (0,), FourierSeries.sine((1,), 1, cap, 0.2)),
        g=[mono(4, (0,), 0.25) + mono(1, (2,), 0.1)],
        h=[mono(2, (0,), s(0.2, 0.3)) + mono(3, (0,), s(-0.15, 0.1))
           + mono(4, (0,), 0.07) + mono(1, (1,), 0.05)],
        deg=deg,
    )


def _bits(jet):
    """A jet's terms in table order, each with its exact modes and trunc_loss."""
    return [(key, dict(s.coeffs), s.trunc_loss) for key, s in jet.terms.items()]


@pytest.mark.parametrize("make", [
    benchmark_flow_model, lambda: toy_x2_flow_model(m=2), _n3_p2_flow,
], ids=["benchmark-flow", "toy-x2-m2", "n3-p2-angle-terms"])
def test_flow_invariance_error_matches_reference_bit_for_bit(make):
    """Every step's error, term order and trunc_loss included, is the one the
    spelled-out transport gives: this pins the operand order of
    SkewField.derivative_along."""
    model = make()
    seen = []
    res = solve_manifold(model, 6, callback=lambda sol, err: seen.append((sol, err)))
    if model.P < model.N:
        assert len(res.solution.reduced.theta_terms) >= 2
    for sol, err in seen:
        ref = reference_flow_invariance_error(sol)
        assert err.declared == ref.declared
        for got, want in zip((err.ex, *err.ey, *err.eth), (ref.ex, *ref.ey, *ref.eth), strict=True):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("kind", ["map", "flow"])
@pytest.mark.parametrize("m", [0, 1])
def test_p1_x_block_solves_to_order_6(kind, m):
    # P = 1 < N = 2: the theta block absorbs the averaged angle error into R,
    # and the x block takes the terms this feeds back (d/dtheta of Ktil_x^N
    # along the new angle correction, and da/dtheta against Ktil_theta)
    cap, deg, dim = 16, 10, 1
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=80, sense=kind)
    a = FourierSeries.constant(1.0, dim, cap) + FourierSeries.cosine((1,), dim, cap, 0.3)
    zk = (0,) * m
    h = [Jet.monomial(1, zk, FourierSeries.constant(0.2, dim, cap)
                      + FourierSeries.cosine((1,), dim, cap, 0.1), m, deg, dim, cap)
         + Jet.monomial(2, zk, 0.05, m, deg, dim, cap)]
    f = Jet.monomial(3, zk, FourierSeries.constant(-0.2, dim, cap)
                     + FourierSeries.sine((1,), dim, cap, 0.1), m, deg, dim, cap)
    extra = {}
    if m:
        extra = {"B": [[FourierSeries.constant(1.0, dim, cap)]],
                 "g": [Jet.monomial(3, zk, 0.3, m, deg, dim, cap)]}
    cls = MapModel if kind == "map" else FlowModel
    model = cls.build(N=2, P=1, freq=freq, a=a, m=m, order_cap=cap, f=f, h=h, deg=deg, **extra)
    res = solve_manifold(model, 6)
    assert res.solution.reduced.theta_terms  # the P < N branch ran
    report = fit_error_orders_auto(res.solution, (0.01, 0.05), error=res.error)
    assert report.all_pass, report.rows()


def test_each_step_keeps_its_own_free_choices():
    # P = 1 < N = 2 with chosen Kbar_theta constants: a later step records
    # its choice in its own table, not in the one of the solution it extends
    cap, deg, dim = 16, 10, 1
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=80)
    a = FourierSeries.constant(1.0, dim, cap) + FourierSeries.cosine((1,), dim, cap, 0.3)
    h = [Jet.monomial(1, (), FourierSeries.constant(0.2, dim, cap)
                      + FourierSeries.cosine((1,), dim, cap, 0.1), 0, deg, dim, cap)]
    model = MapModel.build(N=2, P=1, freq=freq, a=a, m=0, order_cap=cap, h=h, deg=deg)
    steps = []
    solve_manifold(model, 4, FreeChoicePolicy(kbar_theta={2: (0.1,), 3: (0.2,), 4: (0.3,)}),
                   callback=lambda sol, err: steps.append(sol))
    for sol in steps[1:]:
        assert sol.free_choices["kbar_theta"] == {l: sol.kbar_th[l] for l in range(1, sol.j)}
