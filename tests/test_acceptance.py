"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each criterion runs at its stated tolerance; runtime budgets are asserted
where the criterion carries one.  Reinterpretations forced by internal
inconsistencies of the source material are noted next to the check.
"""

import math
import time

import numpy as np

from paratori.benchmark import (
    GOLDEN,
    benchmark_map_model,
    conjugacy_fixture,
    time1_map_of_toy,
    toy_x2_flow_model,
)
from paratori.celestial import (
    PrimarySystem,
    TorusData,
    build_full_skeleton,
    build_restricted_field,
    escape_demo,
)
from paratori.cohomology import conjugate_normal_form, extend_order, solve_manifold
from paratori.dynamics import integrate_flow, iterate_reduced
from paratori.fourier import FourierSeries, diophantine_scan, sd_solve_flow, sd_solve_map
from paratori.jet import Jet, SkewMap, compose_param_param, compose_skew_param
from paratori.model import ReducedMap, validate
from paratori.verify import fit_error_orders, sector_decay_check
from oracles import _dense_oracle_step


def _report(n, ok, text):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


# ---------------------------------------------------------------- criterion 1


def test_acceptance_1_sd_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    cap = 64

    # map case: golden rotation, random analytic zero-average input
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=100)
    table = {}
    for k in range(1, cap + 1):
        c = (0.75 ** k) * (rng.standard_normal() + 1j * rng.standard_normal())
        table[(k,)] = c
        table[(-k,)] = c.conjugate()
    h = FourierSeries(1, cap, table)
    phi = sd_solve_map(h, freq)
    grid = np.arange(512) / 512
    hsup = max(abs(h.evaluate(t)) for t in grid)
    res_map = max(
        abs(phi.evaluate(t + GOLDEN) - phi.evaluate(t) - h.evaluate(t)) for t in grid
    ) / hsup

    # flow case on T^2 with (omega, nu) = (1, sqrt(2))
    freq_f = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=60, sense="flow")
    table = {}
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            n = abs(k1) + abs(k2)
            if n == 0 or k1 < 0 or (k1 == 0 and k2 < 0):
                continue
            c = (0.5 ** n) * (rng.standard_normal() + 1j * rng.standard_normal())
            table[(k1, k2)] = c
            table[(-k1, -k2)] = c.conjugate()
    hf = FourierSeries(2, cap, table)
    phif = sd_solve_flow(hf, freq_f)
    dphi = phif.directional_derivative((1.0, math.sqrt(2)))
    pts = [(a / 24, b / 24) for a in range(24) for b in range(24)]
    hfsup = max(abs(hf.evaluate(p)) for p in pts)
    res_flow = max(abs(dphi.evaluate(p) - hf.evaluate(p)) for p in pts) / hfsup

    elapsed = time.perf_counter() - t0
    ok = res_map <= 1e-11 and res_flow <= 1e-11 and elapsed < 1.0
    _report(1, ok, f"SD residuals map {res_map:.2e}, flow {res_flow:.2e}, "
                   f"runtime {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------- criterion 2


def test_acceptance_2_order_conditions():
    t0 = time.perf_counter()
    model = benchmark_map_model()
    lines = []
    ok = True
    for j in range(1, 6):
        res = solve_manifold(model, j)
        rep = fit_error_orders(res.solution, x_window=(1e-3, 1e-2))
        want = {"x": j + 2, "y": j + 2, "theta": j + 1}
        for comp, target in want.items():
            got = rep.fitted_slope[comp]
            ok = ok and got >= target - 0.1
            lines.append(f"j={j} {comp}:{got:.2f}/{target}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, ok, "slopes " + " ".join(lines) + f"; runtime {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------- criterion 3


def test_acceptance_3_oracle_equivalence():
    cap = 10
    model = benchmark_map_model(order_cap=cap, deg=10)
    worst = 0.0
    for j in (2, 3, 4):
        res = solve_manifold(model, j - 1)
        engine, _ = extend_order(res.solution, res.error)
        oracle = _dense_oracle_step(res.solution, j, cap)
        ox, oth = j + model.N - 1, j + model.P - 2
        if j == model.N:
            worst = max(worst, abs(engine.reduced.b - oracle["scalars"]["b"]))
        else:
            worst = max(worst, abs(engine.kbar_x.get(j, 0.0) - oracle["scalars"]["kx"]))
        worst = max(worst, abs(engine.kbar_y[j][0] - oracle["scalars"]["ky"]))
        worst = max(worst, abs(engine.kbar_th[j - 1][0] - oracle["scalars"]["kth"]))
        zero = FourierSeries.zeros(1, cap)
        worst = max(worst, (engine.ktil_x.get(ox, zero) - oracle["ktx"]).strip_norm())
        worst = max(worst, (engine.ktil_y[ox][0] - oracle["kty"]).strip_norm())
        worst = max(worst, (engine.ktil_th[oth][0] - oracle["ktth"]).strip_norm())
    _report(3, worst <= 1e-9, f"engine vs dense linear solve, worst {worst:.2e} <= 1e-9")


# ---------------------------------------------------------------- criterion 4


def test_acceptance_4_conjugation_invariant():
    b1, _, _ = conjugate_normal_form(conjugacy_fixture(b0=0.7, seed=7), order=4)
    b2, _, _ = conjugate_normal_form(
        conjugacy_fixture(b0=0.7, seed=7, extra_conjugation=True), order=4
    )
    ok = abs(b1 - 0.7) <= 1e-8 and abs(b2 - b1) <= 1e-8
    _report(4, ok, f"b recovered {b1:.12f} (target 0.7), second conjugation "
                   f"moves it by {abs(b2 - b1):.2e}")


# ---------------------------------------------------------------- criterion 5


def test_acceptance_5_parabolic_decay():
    R = ReducedMap(N=2, a_bar=1.0)
    rep = sector_decay_check(R, 0.1, 10_000, eta=0.1)
    xs = iterate_reduced(R, 0.1, 10_000)
    kx = 10_000 * abs(xs[-1])
    ok = rep.min_slack >= 0.0 and abs(kx - 1.0) <= 0.05
    _report(5, ok, f"bound slack >= {rep.min_slack:.2e} over 1e4 steps, "
                   f"k x_k = {kx:.4f} within 5% of 1")


# ---------------------------------------------------------------- criterion 6


def test_acceptance_6_flow_map_consistency():
    # The engine run on the exact time-1 map produces its own normal form
    # (b = 1 for x/(1+x)), so the literal coefficient comparison of the two
    # engine outputs is unsatisfiable; the consistency that does hold, and
    # is checked here at 1e-8 per coefficient, is the semiconjugacy of the
    # flow-path K by the exact time-1 maps: F o K = K o R with F the time-1
    # map of the field and R = x/(1+x) re-expanded (the time-1 map of Y).
    deg = 8
    flow = toy_x2_flow_model(m=1, B_const=1.0, deg=deg)
    res = solve_manifold(flow, 5)
    K = res.solution.param(deg)
    assert res.solution.coefficient_norm() < 1e-12  # K is the identity here

    F = time1_map_of_toy(m=1, B_const=1.0, deg=deg).as_skew(deg)
    cap = 8
    Rx = Jet.zero(0, deg, 1, cap)
    for l in range(1, deg + 1):
        Rx = Rx + Jet.monomial(l, (), (-1.0) ** (l + 1), 0, deg, 1, cap)
    Rhat = SkewMap(x=Rx, y=(), theta_dev=(Jet.zero(0, deg, 1, cap),), rot=(GOLDEN,))
    FK = compose_skew_param(F, K, deg)
    KR = compose_param_param(K, Rhat, deg)
    coeff_err = max(
        (FK.x - KR.x).norm(),
        (FK.y[0] - KR.y[0]).norm(),
        (FK.theta_dev[0] - KR.theta_dev[0]).norm(),
    )

    # numeric cross-check: integrate the field for unit time from K(x, th)
    field = flow.as_field(deg)
    num_err = 0.0
    for x0 in (0.02, 0.05):
        for th0 in (0.1, 0.6):
            kx, ky, kth = K.evaluate(x0, (), (th0,))
            start = [kx.real, ky[0].real, kth[0].real]
            orb = integrate_flow(field, start, (0.0, 1.0), tol=1e-12, t_eval=[1.0])
            rx = x0 / (1.0 + x0)
            gx, gy, gth = K.evaluate(rx, (), (th0 + GOLDEN,))
            num_err = max(num_err, abs(orb.states[-1][0] - gx.real),
                          abs(orb.states[-1][1] - gy[0].real),
                          abs(orb.states[-1][2] - gth[0].real))
    ok = coeff_err <= 1e-8 and num_err <= 1e-8
    _report(6, ok, f"flow K vs exact time-1 maps: jet defect {coeff_err:.2e}, "
                   f"numeric defect {num_err:.2e} (<= 1e-8)")


# ---------------------------------------------------------------- criterion 7


def test_acceptance_7_celestial_leading_data():
    model, chart = build_restricted_field(PrimarySystem.single(), degree=8)
    a_exact = model.a.coeffs == {(0,): (0.25 + 0j)}

    td = TorusData(omega0=(math.sqrt(2), math.sqrt(3)), n=2,
                   c2=np.array([[0.3, 0.1], [0.1, 0.2]]))
    skel, declared = build_full_skeleton(td, degree=8)
    decl_ok = (declared["N"], declared["P"], declared["a"]) == (4, 6, 0.25)

    res = solve_manifold(skel, 4)
    coeffs = res.solution.reduced.x_poly_coeffs()
    red_ok = set(coeffs) <= {4, 7} and coeffs[4] == -0.25
    ok = a_exact and decl_ok and red_ok and validate(model) == [] and validate(skel) == []
    _report(7, ok, f"restricted a = 1/4 exactly ({a_exact}); skeleton declares "
                   f"(4, 6, 1/4) ({decl_ok}); reduced field -(1/4)u^4 + b u^7 "
                   f"with b = {coeffs.get(7, 0.0):.3g} ({red_ok})")


# ---------------------------------------------------------------- criterion 8


def test_acceptance_8_escape_demo():
    # |y(t_end)| <= 1e-3 needs r(t_end) >= 2M/1e-6, which no horizon near
    # 1e4 reaches from r0 = 2/x0^2 (the parabolic age t0 ~ 1.07e4 is
    # mass-independent), so the demo runs to 3e9; the 2% law window is
    # checked against the closed-form parabolic orbit sharing the initial
    # radius (time offset t0), per the stated Barker-style oracle.
    t0 = time.perf_counter()
    sys = PrimarySystem.single(mass=1.0)
    model, chart = build_restricted_field(sys, degree=8, gtilde0=0.15)
    res = solve_manifold(model, 4)
    rep, _ = escape_demo(sys, res.solution, chart, x0=0.05, horizon=3.0e9,
                         law_window=(1.0e3, 1.0e4))
    elapsed = time.perf_counter() - t0
    ok = rep.all_pass and elapsed < 60.0
    lo, hi = rep.law_ratio_range
    _report(8, ok, f"law ratio [{lo:.4f}, {hi:.4f}] within 2% on [1e3, 1e4]; "
                   f"|y_end| = {abs(rep.y_end):.2e} <= 1e-3; "
                   f"|E_end| = {abs(rep.energy_end):.2e} <= 1e-4; "
                   f"control fails law: {rep.control_law_fails}; "
                   f"runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------- criterion 9


def test_acceptance_9_structural_regression():
    model = benchmark_map_model()
    sols = {j: solve_manifold(model, j).solution for j in (2, 3, 5)}
    stable = True
    for js, jb in ((2, 3), (3, 5)):
        a, b = sols[js], sols[jb]
        for l, v in a.kbar_x.items():
            stable = stable and abs(b.kbar_x[l] - v) <= 1e-13
        for o, s in a.ktil_x.items():
            stable = stable and (b.ktil_x[o] - s).strip_norm() <= 1e-13
        for l, v in a.kbar_y.items():
            stable = stable and abs(b.kbar_y[l][0] - v[0]) <= 1e-13
        for o, r in a.ktil_y.items():
            stable = stable and (b.ktil_y[o][0] - r[0]).strip_norm() <= 1e-13
        for l, v in a.kbar_th.items():
            stable = stable and abs(b.kbar_th[l][0] - v[0]) <= 1e-13
        for o, r in a.ktil_th.items():
            stable = stable and (b.ktil_th[o][0] - r[0]).strip_norm() <= 1e-13

    sol5 = sols[5]
    no_theta = sol5.reduced.theta_terms == {}  # P >= N

    sym = 0.0
    for s in sol5.ktil_x.values():
        sym = max(sym, s.real_symmetry_defect())
    for row in list(sol5.ktil_y.values()) + list(sol5.ktil_th.values()):
        for s in row:
            sym = max(sym, s.real_symmetry_defect())
    real_ok = sym <= 1e-12 and all(
        abs(complex(v).imag) == 0.0 for v in sol5.kbar_x.values()
    )
    ok = stable and no_theta and real_ok
    _report(9, ok, f"lower orders stable ({stable}); R_theta corrections absent "
                   f"for P >= N ({no_theta}); real-symmetric outputs "
                   f"(defect {sym:.1e})")
