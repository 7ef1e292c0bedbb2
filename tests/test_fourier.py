"""Fourier layer: evaluation, averaging, rotation, SD solvers, scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.errors import DimensionMismatch, NonzeroAverage, ResonantMode, ZeroDivisor
from paratori.fourier import (
    FourierSeries,
    diophantine_scan,
    sd_solve_flow,
    sd_solve_map,
)
from conftest import random_real_series
from oracles import reference_evaluate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ------------------------------------------------------------------ evaluate


def test_evaluate_constant():
    s = FourierSeries.constant(3.0, 1, 4)
    for th in (0.0, 0.37, 2.5):
        assert s.evaluate(th) == pytest.approx(3.0)


def test_evaluate_cosine_zero_and_quarter():
    c = FourierSeries.cosine((1,), 1, 4)
    assert abs(c.evaluate(0.0) - 1.0) < 1e-15
    assert abs(c.evaluate(0.25)) < 1e-15


def test_evaluate_real_output_for_real_symmetric(rng):
    s = random_real_series(rng, dim=2, cap=3)
    for th in ((0.1, 0.9), (0.33, 0.71)):
        v = s.evaluate(th)
        assert abs(v.imag) <= 1e-12 * s.strip_norm()


# the array evaluator against the per-mode loop it replaced, relative to
# strip_norm(): rounding of the complex path, none of the extended one
_EVAL_TOL = {complex: 1e-13, np.clongdouble: 1e-16}
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
@pytest.mark.parametrize("strip", [0.0, 0.02])
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_evaluate_matches_reference_loop(rng, dim, strip, dtype):
    s = random_real_series(rng, dim=dim, cap=6)
    scale = s.strip_norm()
    for _ in range(6):
        th = rng.random(dim) + 1j * strip * rng.standard_normal(dim)
        got = s.evaluate(th, dtype=dtype)
        assert abs(complex(got - reference_evaluate(s, th, dtype))) <= _EVAL_TOL[dtype] * scale
        if dim == 1:
            assert s.evaluate(th[0], dtype=dtype) == got


def test_evaluate_empty_series_and_bad_shape():
    z = FourierSeries(2, 4)
    assert z.evaluate((0.3, 0.1)) == 0
    assert z.evaluate(np.zeros((3, 2))).shape == (3,)
    with pytest.raises(DimensionMismatch):
        z.evaluate((0.3, 0.1, 0.2))
    with pytest.raises(DimensionMismatch):
        FourierSeries.cosine((1,), 1, 4).evaluate(np.zeros(3))


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2), cap=st.integers(0, 6),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       dtype=st.sampled_from([complex, np.clongdouble]))
def test_evaluate_batch_equals_stacked_points(seed, dim, cap, shape, dtype):
    rng = np.random.default_rng(seed)
    s = random_real_series(rng, dim=dim, cap=cap)
    pts = rng.random((*shape, dim)) + 0.01j * rng.standard_normal((*shape, dim))
    batch = s.evaluate(pts, dtype=dtype)
    assert batch.shape == tuple(shape) and batch.dtype == np.dtype(dtype)
    pointwise = np.array([s.evaluate(pts[i], dtype=dtype) for i in np.ndindex(*shape)])
    err = np.max(np.abs(batch.reshape(-1) - pointwise))
    if dtype is np.clongdouble:
        assert err == 0
    else:
        assert err <= 1e-14 * max(s.strip_norm(), 1.0)


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2),
       dtype=st.sampled_from([complex, np.clongdouble]))
def test_evaluate_single_point_is_dtype_scalar(seed, dim, dtype):
    rng = np.random.default_rng(seed)
    s = random_real_series(rng, dim=dim, cap=4)
    points = [tuple(rng.random(dim)), rng.random(dim)]
    if dim == 1:
        points.append(float(rng.random()))
    for p in points:
        v = s.evaluate(p, dtype=dtype)
        assert isinstance(v, np.clongdouble if dtype is np.clongdouble else complex)
        assert not isinstance(v, np.ndarray)


# --------------------------------------------------------- average/oscillate


def test_average_oscillatory_split():
    s = FourierSeries(1, 4, {(0,): 2.0, (1,): 0.5, (-1,): 0.5})
    assert s.average() == pytest.approx(2.0)
    osc = s.oscillatory()
    assert osc.coeffs == {(1,): 0.5, (-1,): 0.5}
    total = osc + FourierSeries.constant(s.average(), 1, 4)
    assert (total - s).strip_norm() == 0.0


def test_average_zero_series():
    z = FourierSeries(2, 3)
    assert z.average() == 0
    assert z.oscillatory().is_zero()


def test_oscillatory_idempotent(rng):
    s = random_real_series(rng)
    assert (s.oscillatory().oscillatory() - s.oscillatory()).strip_norm() == 0.0


# -------------------------------------------------------------------- rotate


def test_rotate_constant_invariant():
    s = FourierSeries.constant(1.5, 1, 4)
    assert (s.rotate(0.4321) - s).strip_norm() == 0.0


def test_rotate_half_period_negates_cosine():
    c = FourierSeries.cosine((1,), 1, 4)
    assert (c.rotate(0.5) + c).strip_norm() < 1e-15


def test_rotate_group_law(rng):
    s = random_real_series(rng)
    u, v = 0.313, 0.177
    d = s.rotate(u).rotate(v) - s.rotate(u + v)
    assert d.strip_norm() < 1e-14


def test_rotate_evaluation_homomorphism(rng):
    s = random_real_series(rng)
    u = 0.2718
    scale = s.strip_norm()
    for th in np.arange(64) / 64:
        assert abs(s.rotate(u).evaluate(th) - s.evaluate(th + u)) <= 1e-13 * scale


def test_rotate_preserves_average_and_norm(rng):
    s = random_real_series(rng)
    r = s.rotate(0.123)
    assert abs(r.average() - s.average()) < 1e-15
    assert r.strip_norm(0.3) == pytest.approx(s.strip_norm(0.3), rel=1e-13)


# ------------------------------------------------------------------- algebra


def test_strip_norm_submultiplicative(rng):
    a = random_real_series(rng, cap=6)
    b = random_real_series(rng, cap=6)
    for sigma in (0.0, 0.05):
        lhs = a.series_mul(b).strip_norm(sigma)
        assert lhs <= a.strip_norm(sigma) * b.strip_norm(sigma) * (1 + 1e-12)


def test_operations_preserve_real_symmetry(rng):
    a = random_real_series(rng, cap=6)
    b = random_real_series(rng, cap=6)
    for s in (a + b, a - b, a.series_mul(b), a.rotate(0.3), a.derivative(0),
              a.oscillatory(), a.scale(2.5)):
        assert s.real_symmetry_defect() < 1e-12 * max(s.strip_norm(), 1.0)


def test_product_truncation_loss_recorded():
    a = FourierSeries(1, 2, {(2,): 1.0, (-2,): 1.0})
    prod = a.series_mul(a)  # modes 4, 0, -4; the +-4 ones exceed the cap
    assert prod.coeff((0,)) == pytest.approx(2.0)
    assert prod.trunc_loss == pytest.approx(2.0)


def test_dimension_mismatch_raises():
    a = FourierSeries.constant(1.0, 1, 4)
    b = FourierSeries.constant(1.0, 2, 4)
    with pytest.raises(DimensionMismatch):
        _ = a + b


# ----------------------------------------------------------------- SD solver


def test_sd_map_zero_input(golden_freq):
    z = FourierSeries(1, 8)
    assert sd_solve_map(z, golden_freq).is_zero()


def test_sd_map_golden_residual_on_grid(golden_freq):
    # independent oracle: the defining difference equation on a 512 grid
    h = FourierSeries.cosine((1,), 1, 8)
    phi = sd_solve_map(h, golden_freq)
    assert abs(phi.average()) == 0.0
    worst = 0.0
    for t in np.arange(512) / 512:
        r = phi.evaluate(t + GOLDEN) - phi.evaluate(t) - h.evaluate(t)
        worst = max(worst, abs(r))
    assert worst <= 1e-12


def test_sd_map_resonant_mode():
    freq = diophantine_scan([1.0 / 3.0 + 1e-9], tau=1.0, k_max=2)  # avoid scan error
    freq = type(freq)(omega=(1.0 / 3.0,), nu=(), tau=1.0, c_estimate=1.0,
                      k_max_checked=0, sense="map")
    h = FourierSeries.cosine((3,), 1, 8)
    with pytest.raises(ResonantMode) as exc:
        sd_solve_map(h, freq)
    assert exc.value.mode in ((3,), (-3,))


def test_sd_map_nonzero_average_rejected(golden_freq):
    h = FourierSeries.constant(1.0, 1, 8) + FourierSeries.cosine((1,), 1, 8)
    with pytest.raises(NonzeroAverage):
        sd_solve_map(h, golden_freq)


def test_sd_flow_zero_input():
    freq = diophantine_scan([1.0], tau=0.0, k_max=3, sense="flow")
    assert sd_solve_flow(FourierSeries(1, 4), freq).is_zero()


def test_sd_flow_single_mode_closed_form():
    freq = diophantine_scan([1.0], tau=0.0, k_max=3, sense="flow")
    h = FourierSeries.sine((1,), 1, 8)
    phi = sd_solve_flow(h, freq)
    want = FourierSeries.cosine((1,), 1, 8, amp=-1.0 / (2 * math.pi))
    assert (phi - want).strip_norm() < 1e-15


def test_sd_flow_two_mode_directional_residual():
    # termwise directional derivative is exact for truncated series
    freq = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=30, sense="flow")
    h = FourierSeries(2, 8, {
        (1, 0): 0.5, (-1, 0): 0.5,
        (1, -1): 0.25j, (-1, 1): -0.25j,
    })
    phi = sd_solve_flow(h, freq)
    res = phi.directional_derivative((1.0, math.sqrt(2))) - h
    assert res.strip_norm() <= 1e-12
    grid = [(a / 16, b / 16) for a in range(16) for b in range(16)]
    worst = max(
        abs(phi.directional_derivative((1.0, math.sqrt(2))).evaluate(p) - h.evaluate(p))
        for p in grid
    )
    assert worst <= 1e-12


def test_sd_flow_resonance():
    freq = type(diophantine_scan([1.0], tau=0.0, k_max=2, sense="flow"))(
        omega=(1.0,), nu=(-0.5,), tau=1.0, c_estimate=1.0, k_max_checked=0,
        sense="flow",
    )
    h = FourierSeries(2, 8, {(1, 2): 1.0, (-1, -2): 1.0})  # k.(omega, nu) = 0
    with pytest.raises(ResonantMode):
        sd_solve_flow(h, freq)


# ----------------------------------------------------------- diophantine scan


def _golden_cf_oracle(k_max: int) -> float:
    """Continued-fraction cross-check: the worst quotients for the golden
    mean sit at Fibonacci denominators."""
    best = math.inf
    fib = [1, 1]
    while fib[-1] <= k_max:
        fib.append(fib[-1] + fib[-2])
    for q in range(1, k_max + 1):
        v = q * GOLDEN
        best = min(best, abs(v - round(v)) * q)
    return best


def test_scan_golden_exceeds_038():
    freq = diophantine_scan([GOLDEN], tau=1.0, k_max=100)
    assert freq.c_estimate > 0.38
    assert freq.c_estimate == pytest.approx(_golden_cf_oracle(100), rel=1e-12)
    freq.verify()


def test_scan_rational_resonance():
    with pytest.raises(ZeroDivisor) as exc:
        diophantine_scan([0.5], tau=1.0, k_max=10)
    assert exc.value.mode == (2,)
    assert exc.value.l == 1


def test_scan_d2_exhaustive_positive():
    freq = diophantine_scan([math.sqrt(2), math.sqrt(3)], tau=2.0, k_max=50)
    assert freq.c_estimate > 0
    assert freq.worst_k is not None
    # brute-force re-scan over the full (not half) lattice agrees
    best = math.inf
    for k1 in range(-50, 51):
        for k2 in range(-50, 51):
            n = abs(k1) + abs(k2)
            if n == 0 or n > 50:
                continue
            v = k1 * math.sqrt(2) + k2 * math.sqrt(3)
            best = min(best, abs(v - round(v)) * n ** 2.0)
    assert freq.c_estimate == pytest.approx(best, rel=1e-12)


def test_scan_flow_sense():
    freq = diophantine_scan([1.0], [math.sqrt(2)], tau=1.0, k_max=40, sense="flow")
    assert freq.c_estimate > 0
    freq.verify()
