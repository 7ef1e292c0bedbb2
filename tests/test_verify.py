"""Numerical a posteriori checks: slope fits, sector bound, membership."""

import numpy as np
import pytest

from paratori.benchmark import GOLDEN, benchmark_flow_model, benchmark_map_model, conjugacy_fixture
from paratori.cohomology import FreeChoicePolicy, solve_manifold
from paratori.errors import BoundViolated, EscapedSector, WindowTooWide
from paratori.dynamics import iterate_reduced
from paratori.fourier import FourierSeries, diophantine_scan
from paratori.jet import Jet
from paratori.model import FlowModel, MapModel, ReducedMap
from paratori.verify import (
    fit_error_orders,
    fit_error_orders_auto,
    sector_decay_check,
    stable_set_membership,
)
from conftest import torus2_model
from oracles import per_x_residual_rows


# -------------------------------------------------------------- slope fits


def test_base_step_slopes(bench_map):
    res = solve_manifold(bench_map, 1)
    rep = fit_error_orders(res.solution)
    assert rep.fitted_slope["x"] >= 2.9
    assert rep.target_order == {"x": 3, "y": 3, "theta": 2}
    assert rep.all_pass


def test_order5_slopes(bench_map):
    res = solve_manifold(bench_map, 5)
    rep = fit_error_orders(res.solution)
    for comp, target in rep.target_order.items():
        assert rep.fitted_slope[comp] >= target - 0.1, (comp, rep.fitted_slope)
    assert rep.all_pass


def test_corrupted_solution_fails(bench_map):
    # perturbing a low-order coefficient dominates the high-order residual
    res = solve_manifold(bench_map, 5)
    sol = res.solution.copy_shallow()
    sol.kbar_x = dict(sol.kbar_x)
    sol.kbar_x[2] = sol.kbar_x.get(2, 0.0) + 1e-3
    rep = fit_error_orders(sol)
    assert not rep.passes["x"]
    assert rep.fitted_slope["x"] < rep.target_order["x"] - 0.5


def test_exact_toy_slopes_reach_working_degree():
    # F built from known (K, R): the only residual is the truncation tail,
    # so every fitted slope reaches the working degree
    model = conjugacy_fixture(b0=0.3, seed=11, deg=8)
    res = solve_manifold(model, 4)
    rep = fit_error_orders(res.solution, x_window=(3e-2, 2e-1), theta_samples=8)
    for comp, slope in rep.fitted_slope.items():
        assert slope >= rep.target_order[comp] - 0.1


def test_window_too_wide_raises(bench_map):
    res = solve_manifold(bench_map, 5)
    with pytest.raises(WindowTooWide):
        fit_error_orders(res.solution, x_window=(1e-9, 1e-8))
    rep = fit_error_orders_auto(res.solution, x_window=(1e-5, 1e-2))
    assert rep.all_pass


def test_monotone_slopes_in_j(bench_map):
    slopes = []
    for j in (1, 2, 3):
        res = solve_manifold(bench_map, j)
        rep = fit_error_orders(res.solution)
        slopes.append(rep.fitted_slope["x"])
    assert slopes[0] <= slopes[1] + 0.1 <= slopes[2] + 0.2


def _moving_angle_model(kind):
    """P = 1 < N = 2 on T^1: the reduced dynamics turns its angle by terms in
    x, so R's angles move with x."""
    cap, deg, dim = 16, 10, 1
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=80, sense=kind)
    a = FourierSeries.constant(1.0, dim, cap) + FourierSeries.cosine((1,), dim, cap, 0.3)
    h = [Jet.monomial(1, (), FourierSeries.constant(0.2, dim, cap)
                      + FourierSeries.cosine((1,), dim, cap, 0.1), 0, deg, dim, cap)
         + Jet.monomial(2, (), 0.05, 0, deg, dim, cap)]
    f = Jet.monomial(3, (), FourierSeries.constant(-0.2, dim, cap)
                     + FourierSeries.sine((1,), dim, cap, 0.1), 0, deg, dim, cap)
    cls = MapModel if kind == "map" else FlowModel
    return cls.build(N=2, P=1, freq=freq, a=a, m=0, order_cap=cap, f=f, h=h, deg=deg)


_BATCHED_CASES = {
    "benchmark-map": (benchmark_map_model, 5, None, {}),
    "benchmark-flow": (benchmark_flow_model, 5, None, {}),
    "torus2": (lambda: torus2_model(1), 5, None,
               {"x_window": (0.005, 0.02), "theta_samples": 8, "n_samples": 12}),
    "moving-angle-map": (lambda: _moving_angle_model("map"), 5,
                         FreeChoicePolicy(kbar_theta={2: (0.1,), 3: (0.2,)}),
                         {"x_window": (0.01, 0.05), "theta_samples": 8}),
    "moving-angle-flow": (lambda: _moving_angle_model("flow"), 5,
                          FreeChoicePolicy(kbar_theta={2: (0.1,), 3: (0.2,)}),
                          {"x_window": (0.01, 0.05), "theta_samples": 8}),
}


@pytest.mark.parametrize("case", list(_BATCHED_CASES))
def test_batched_residuals_equal_per_x_samples(case):
    """The residual rows with K, R (and K o R when R only rotates) evaluated
    once for all x-samples are bit for bit the rows sampled one x at a time."""
    build, order, choices, kw = _BATCHED_CASES[case]
    kw = dict(kw)
    res = solve_manifold(build(), order, choices)
    sol = res.solution
    if case.startswith("moving-angle"):
        assert sol.reduced.theta_terms and sol.kbar_th  # R's angle moves with x
    rep = fit_error_orders_auto(sol, kw.pop("x_window", (1e-3, 1e-2)), error=res.error, **kw)
    want = per_x_residual_rows(sol, rep.x_window, len(rep.samples), rep.theta_samples)
    assert len(rep.samples) == len(want)
    for got, ref in zip(rep.samples, want):
        for key in ("x", "floor", "e_x", "e_y", "e_theta"):
            assert np.array_equal(got[key], ref[key]), (key, got[key], ref[key])


# ------------------------------------------------------------ sector bound


def test_sector_bound_holds_quadratic():
    R = ReducedMap(N=2, a_bar=1.0)
    rep = sector_decay_check(R, 0.1, 10_000, eta=0.1)
    assert rep.ok and rep.min_slack >= 0.0
    xs = iterate_reduced(R, 0.1, 10_000)
    assert abs(10_000 * abs(xs[-1]) - 1.0) <= 0.05


def test_sector_bound_slack_grid():
    R = ReducedMap(N=2, a_bar=1.0)
    for x0 in (0.02, 0.05, 0.09):
        for eta in (0.05, 0.1, 0.3):
            rep = sector_decay_check(R, x0, 2000, eta=eta)
            assert rep.min_slack >= 0.0


def test_sector_complex_iterates_stay():
    R = ReducedMap(N=2, a_bar=1.0)
    rep = sector_decay_check(R, 0.05 * np.exp(1j * np.pi / 8), 5000, eta=0.1,
                             beta=np.pi / 3)
    assert rep.ok


def test_sector_outside_raises():
    R = ReducedMap(N=2, a_bar=1.0)
    with pytest.raises(EscapedSector):
        sector_decay_check(R, 0.05 * np.exp(3j * np.pi / 4), 100, eta=0.1)


def test_sector_bound_violation_detected():
    # a map strictly slower than its claimed bound trips the check
    R = ReducedMap(N=2, a_bar=0.2)
    R_fast = ReducedMap(N=2, a_bar=1.0)
    xs_slow = iterate_reduced(R, 0.1, 10)

    class _Lying:
        N = 2
        a_bar = 1.0  # claims faster decay than the true dynamics

        @staticmethod
        def x_value(x):
            return R.x_value(x)

    with pytest.raises(BoundViolated):
        sector_decay_check(_Lying, 0.1, 1000, eta=0.05)


def test_sector_same_code_path_as_iterate():
    R = ReducedMap(N=2, a_bar=1.0, b=0.3)
    rep = sector_decay_check(R, 0.08, 500, eta=0.2)
    assert rep.final_abs == abs(iterate_reduced(R, 0.08, 500)[-1])


# ------------------------------------------------------------- membership


def test_membership_on_manifold(bench_map):
    res = solve_manifold(bench_map, 5)
    sol = res.solution
    K = sol.param(8)
    kx, ky, kth = K.evaluate(0.05, (), (0.2,))
    pt = [kx.real, ky[0].real, kth[0].real]
    memb = stable_set_membership(sol, pt, 40, rho=0.4)
    assert memb.stays
    assert memb.distances[0] <= 5.0 * 0.05 ** (sol.j + 1)
    assert max(memb.distances) < 1e-6


def test_membership_off_manifold_grows(bench_map):
    res = solve_manifold(bench_map, 5)
    sol = res.solution
    K = sol.param(8)
    kx, ky, kth = K.evaluate(0.05, (), (0.2,))
    pt = [kx.real, ky[0].real + 0.1, kth[0].real]
    memb = stable_set_membership(sol, pt, 400, rho=0.4)
    assert (not memb.stays) or memb.distances[-1] > 10 * memb.distances[0]


def test_membership_torus_point(bench_map):
    res = solve_manifold(bench_map, 3)
    memb = stable_set_membership(res.solution, [0.0, 0.0, 0.3], 50, rho=0.4)
    assert memb.stays
    assert max(memb.distances) < 1e-12
