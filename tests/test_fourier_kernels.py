"""The array kernels of FourierSeries against the dict-of-tuples code they
replaced (tests/oracles.py): products, sums, rotations, derivatives and SD
solves on T^0 to T^3 at one cap, and the refusal of two caps; and the
slice at a fixed first angle against evaluation of the derivative."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.errors import DimensionMismatch, ResonantMode
from paratori.jet import Jet
from paratori import fourier
from paratori.fourier import (
    FourierSeries, FrequencyVector, _box, _pair_product, sd_solve_flow, sd_solve_map,
)
from conftest import random_real_series
from oracles import (
    flow_divisor,
    map_divisor,
    reference_add,
    reference_derivative,
    reference_mul,
    reference_rotate,
    reference_sd_divide,
    reference_table,
)

TOL = 1e-13
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _random_sparse(rng, dim, cap, fill=0.3):
    """A complex series (no symmetry) on a random subset of the modes."""
    table = {}
    for k in np.ndindex(*(2 * cap + 1,) * dim):
        k = tuple(int(v) - cap for v in k)
        if sum(map(abs, k)) <= cap and rng.random() < fill:
            table[k] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierSeries(dim, cap, table)


def _pair(rng, dim, caps, real, max_mode=None):
    if real:
        return [random_real_series(rng, dim=dim, cap=c, max_mode=max_mode) for c in caps]
    return [_random_sparse(rng, dim, c) for c in caps]


def _assert_table(got, want, tol):
    """Same nonzero modes, coefficients within tol."""
    table = got.coeffs
    assert set(table) == set(want)
    for k, c in want.items():
        assert abs(table[k] - c) <= tol, (k, table[k], c)


_CASES = [(dim, caps, real)
          for dim in (0, 1, 2)
          for caps in ((6, 6), (6, 4), (3, 5), (0, 2))
          for real in (True, False)]


@pytest.mark.parametrize("dim,caps,real", _CASES)
def test_product_matches_dict_code(rng, dim, caps, real):
    for max_mode in (None, 1, 2):
        a, b = _pair(rng, dim, caps, real, max_mode)
        if caps[0] != caps[1]:
            with pytest.raises(DimensionMismatch):
                a.series_mul(b)
            continue
        table, cap, loss = reference_mul(a, b)
        got = a.series_mul(b)
        scale = a.strip_norm() * b.strip_norm()
        assert got.order_cap == cap
        _assert_table(got, table, TOL * scale)
        assert got.trunc_loss == pytest.approx(loss, rel=1e-12, abs=TOL * scale)


@pytest.mark.parametrize("dim,caps,real", _CASES)
def test_sum_matches_dict_code_exactly(rng, dim, caps, real):
    a, b = _pair(rng, dim, caps, real)
    if caps[0] != caps[1]:
        for op in (a.__add__, a.__sub__):
            with pytest.raises(DimensionMismatch):
                op(b)
        return
    table, cap, loss = reference_add(a, b)
    got = a + b
    assert got.order_cap == cap
    assert got.coeffs == table
    assert got.trunc_loss == pytest.approx(loss, rel=1e-12)
    diff = reference_add(a, -b)[0]
    assert (a - b).coeffs == diff


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("real", [True, False])
def test_rotate_and_derivatives_match_dict_code(rng, dim, real):
    s = _pair(rng, dim, (6,), real)[0]
    scale = s.strip_norm()
    step = tuple(rng.random(dim))
    _assert_table(s.rotate(step), reference_rotate(s, step), TOL * scale)
    for axis in range(dim):
        # a product with a purely imaginary factor rounds as in Python
        assert s.derivative(axis).coeffs == reference_derivative(s, axis)
    freqs = tuple(rng.standard_normal(dim))
    want = {k: c * flow_divisor(sum(ki * wi for ki, wi in zip(k, freqs)))
            for k, c in s.coeffs.items() if any(k)}
    assert s.directional_derivative(freqs).coeffs == want


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["map", "flow"])
def test_sd_solve_matches_dict_code(rng, dim, kind):
    vec = tuple(0.1 + rng.random(dim))
    if kind == "map":
        freq, solve, divisor = FrequencyVector(omega=vec), sd_solve_map, map_divisor
    else:
        freq, solve, divisor = FrequencyVector(omega=vec[:1], nu=vec[1:]), sd_solve_flow, flow_divisor
    h = random_real_series(rng, dim=dim, cap=6).oscillatory()
    want = reference_sd_divide(h, vec, divisor, 1e-12)
    _assert_table(solve(h, freq), want, TOL * sum(abs(c) for c in want.values()))
    if kind == "flow":
        # the divisors agree to the bit, and the division rounds as Python's
        assert solve(h, freq).coeffs == want


def test_sd_solve_resonant_mode_raises_only_when_present():
    # k.(omega, nu) = 0 on k = +-(1, 2): resonant, raised only while h has it
    freq = FrequencyVector(omega=(1.0,), nu=(-0.5,), tau=1.0, c_estimate=1.0,
                           k_max_checked=0, sense="flow")
    h = FourierSeries(2, 6, {(1, 2): 0.5, (-1, -2): 0.5, (1, 0): 0.25j, (-1, 0): -0.25j})
    with pytest.raises(ResonantMode) as exc:
        sd_solve_flow(h, freq)
    assert exc.value.mode in ((1, 2), (-1, -2))
    with pytest.raises(ResonantMode):
        reference_sd_divide(h, freq.full, flow_divisor, 1e-12)
    off = FourierSeries(2, 6, {(1, 0): 0.25j, (-1, 0): -0.25j})
    assert sd_solve_flow(off, freq).coeffs == reference_sd_divide(off, freq.full, flow_divisor, 1e-12)


def test_constructor_table_matches_dict_code(rng):
    table = {(0, 0): 1.0, (1, -1): 0.0, (2, 1): 0.5j, (4, 0): 3.0, (-3, -2): 1 - 1j, (0, 3): -2.0}
    s = FourierSeries(2, 3, table, trunc_loss=0.25)
    want, loss = reference_table(2, 3, table, 0.25)
    assert s.coeffs == want
    assert s.trunc_loss == pytest.approx(loss)
    assert len(s.coeffs) == 3
    assert s.coeff((2, 1)) == 0.5j and s.coeff((4, 0)) == 0 and s.coeff((1, -1)) == 0


def test_structural_zeros_survive_products():
    # only even modes: no pair reaches an odd mode
    a = FourierSeries(1, 12, {(2,): 0.3, (-2,): 0.3, (4,): 0.1, (-4,): 0.1})
    b = FourierSeries(2, 12, {(2, 0): 1.0, (-2, 0): 1.0, (0, 2): 0.5, (0, -2): 0.5})
    for s in (a, b):
        p = s.series_mul(s).series_mul(s)
        assert all(sum(k) % 2 == 0 for k in p.coeffs)
        assert set(p.coeffs) == set(reference_mul(s.series_mul(s), s)[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_mirror_terms_cancel_exactly(rng, dim):
    # an even times an odd real function has average 0; a product of real
    # functions has a real average: both exactly, as in the dict code
    modes = [(1,), (2,), (3,), (5,)] if dim == 1 else [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
    even = {(0,) * dim: 0.7}
    odd = {}
    for k in modes:
        mk = tuple(-v for v in k)
        even[k] = even[mk] = rng.standard_normal()
        odd[k] = 1j * rng.standard_normal()
        odd[mk] = -odd[k]
    e, o = FourierSeries(dim, 6, even), FourierSeries(dim, 6, odd)
    assert e.series_mul(o).average() == 0
    for _ in range(3):
        a, b = random_real_series(rng, dim=dim, cap=6), random_real_series(rng, dim=dim, cap=6)
        assert a.series_mul(b).average().imag == 0
    # a real cube: its average is real and no mode beyond the dict code's appears
    s = FourierSeries(1, 12, {(2,): 0.3, (-2,): 0.3, (4,): 0.1j, (-4,): -0.1j})
    if dim == 2:
        s = FourierSeries(2, 12, {(2, 0): 0.3, (-2, 0): 0.3, (1, 1): 0.1j, (-1, -1): -0.1j})
    square = s.series_mul(s)
    cube = square.series_mul(s)
    assert cube.average().imag == 0
    assert set(cube.coeffs) == set(reference_mul(square, s)[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_trunc_loss_is_l1_of_summed_coefficients(dim):
    # two pairs land on the same mode beyond the cap and cancel there: only
    # the coefficients that survive the sum count
    if dim == 1:
        a = FourierSeries(1, 2, {(1,): 1.0, (2,): 1.0})
        b = FourierSeries(1, 2, {(2,): 1.0, (1,): -1.0})  # mode 3: 1 - 1 = 0
        want = 1.0                                         # mode 4 only
    else:
        a = FourierSeries(2, 1, {(1, 0): 1.0, (0, 1): 1.0})
        b = FourierSeries(2, 1, {(1, 0): 1.0, (0, 1): -1.0})  # (1, 1): -1 + 1 = 0
        want = 2.0                                            # (2, 0) and (0, 2)
    p = a.series_mul(b)
    assert p.trunc_loss == want
    assert reference_mul(a, b)[2] == want
    assert p.series_mul(FourierSeries.constant(2.0, dim, p.order_cap)).trunc_loss == want


def test_mixed_caps_raise():
    """Series at two caps, or on two tori, meet in no sum, product or jet."""
    wide = FourierSeries(1, 5, {(0,): 1.0, (3,): 2.0, (-5,): 1j})
    narrow = FourierSeries(1, 2, {(1,): 1.0})
    for a, b in ((wide, narrow), (narrow, wide), (wide, FourierSeries(2, 5))):
        for op in (a.__add__, a.__sub__, a.series_mul):
            with pytest.raises(DimensionMismatch):
                op(b)
    with pytest.raises(DimensionMismatch):
        Jet(0, 2, 1, 5, {(0, ()): wide, (1, ()): narrow})


def test_product_builds_no_wide_box(monkeypatch):
    """A cap-c product on T^3 builds the box of cap c only: the wide scratch
    box of cap 2c is a |k|_1 table, not a _Box with its mode tables."""
    built = []
    init = fourier._Box.__init__

    def recording(self, dim, cap):
        built.append((dim, cap))
        init(self, dim, cap)

    caches = (fourier._box, fourier._centre_out, fourier._product_plan)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(fourier._Box, "__init__", recording)
    rng = np.random.default_rng(3)
    a, b = (random_real_series(rng, dim=3, cap=4) for _ in range(2))
    p = a.series_mul(b)
    for cache in caches:
        cache.cache_clear()
    assert p.order_cap == 4 and p.trunc_loss > 0.0
    assert built == [(3, 4)]


@st.composite
def _dim_and_cap(draw):
    """d = 0..3, at caps up to 6 below T^3 and up to 3 on it (the dict
    oracle sums every pair of modes in Python)."""
    dim = draw(st.integers(0, 3))
    return dim, draw(st.integers(0, 6 if dim < 3 else 3))


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim_cap=_dim_and_cap(), real=st.booleans(),
       max_mode=st.sampled_from([None, 1, 3]))
def test_kernels_match_dict_code_property(seed, dim_cap, real, max_mode):
    rng = np.random.default_rng(seed)
    dim, cap = dim_cap
    a, b = _pair(rng, dim, (cap, cap), real, max_mode)
    for op in (a.__add__, a.series_mul):
        with pytest.raises(DimensionMismatch):
            op(FourierSeries(dim, cap + 1))
    scale = a.strip_norm() * b.strip_norm()
    table, cap, loss = reference_mul(a, b)
    prod = a.series_mul(b)
    _assert_table(prod, table, TOL * scale)
    assert prod.trunc_loss == pytest.approx(loss, rel=1e-12, abs=TOL * scale)
    assert (a + b).coeffs == reference_add(a, b)[0]
    if dim:
        step = tuple(rng.random(dim))
        _assert_table(a.rotate(step), reference_rotate(a, step), TOL * a.strip_norm())
        assert a.derivative(dim - 1).coeffs == reference_derivative(a, dim - 1)
        freq = FrequencyVector(omega=tuple(0.1 + rng.random(dim)))
        h = a.oscillatory()
        want = reference_sd_divide(h, freq.omega, map_divisor, 1e-12)
        _assert_table(sd_solve_map(h, freq), want, TOL * sum(abs(c) for c in want.values()))


# constants with signed zeros and -1 beside random ones
_CONSTANTS = (-1.0, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
              complex(-0.0, 2.5), complex(-1.5, -0.0), 1j)


def _signed_zero_parts(rng, values):
    """The values with the real or the imaginary part of about a third of
    them replaced by +0 or -0."""
    out = values.copy()
    for i in np.flatnonzero(rng.random(values.size) < 0.35):
        zero = float(rng.choice([0.0, -0.0]))
        out[i] = complex(zero, out[i].imag) if rng.random() < 0.5 else complex(out[i].real, zero)
    return out


def _series_on(rng, dim, cap, n_modes, special):
    """A series built on its box array, so that signed zeros survive: the
    constant ``special`` (an index into _CONSTANTS, or None for a random one)
    when ``n_modes`` is None, else ``n_modes`` random modes."""
    box = _box(dim, cap)
    data = np.zeros(box.size, dtype=complex)
    if n_modes is None:
        data[box.zero] = (complex(rng.standard_normal(), rng.standard_normal())
                          if special is None else _CONSTANTS[special])
    else:
        modes = np.flatnonzero(box.norm1 <= cap)
        idx = rng.choice(modes, size=min(n_modes, modes.size), replace=False)
        values = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        data[idx] = _signed_zero_parts(rng, values)
    return FourierSeries._of(dim, cap, data, float(rng.random()))


def _same_bits(a, b) -> bool:
    return (np.array_equal(a, b) and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2), cap=st.integers(0, 5),
       side=st.sampled_from(["left", "right", "both"]),
       special=st.sampled_from([None, *range(len(_CONSTANTS))]),
       n_modes=st.sampled_from([0, 1, 2, 3, 8, 60]))
def test_constant_factor_product_is_the_pair_sum(seed, dim, cap, side, special, n_modes):
    """With equal caps and a constant factor, the product scales the other
    factor to the bits and signed zeros of the pair sum it skips, and adds
    the operands' losses."""
    rng = np.random.default_rng(seed)
    const = _series_on(rng, dim, cap, None, special)
    other = _series_on(rng, dim, cap, None if side == "both" else n_modes, None)
    a, b = (other, const) if side == "right" else (const, other)
    got = a.series_mul(b)
    want, dropped = _pair_product(a, b)
    assert dropped == 0.0
    assert got.order_cap == cap and _same_bits(got._data, want)
    assert got.trunc_loss == a.trunc_loss + b.trunc_loss


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), cap=st.integers(0, 5),
       p=st.integers(0, 3), theta0=st.floats(-2.0, 2.0), real=st.booleans())
def test_at_first_angle_is_the_derivative_at_that_angle(seed, dim, cap, p, theta0, real):
    """at_first_angle(theta0, p) at phi is the p-fold derivative(0) at (theta0, phi)."""
    rng = np.random.default_rng(seed)
    s = random_real_series(rng, dim=dim, cap=cap) if real else _random_sparse(rng, dim, cap)
    der = s
    for _ in range(p):
        der = der.derivative(0)
    got = s.at_first_angle(theta0, p)
    assert (got.dim, got.order_cap, got.trunc_loss) == (dim - 1, cap, s.trunc_loss)
    phis = rng.random((6, dim - 1))
    want = der.evaluate(np.column_stack([np.full(6, theta0), phis]))
    assert np.max(np.abs(got.evaluate(phis) - want)) <= 1e-12 * max(der.strip_norm(), 1.0)



def test_at_first_angle_needs_a_first_angle():
    with pytest.raises(DimensionMismatch):
        FourierSeries.constant(1.0, 0, 3).at_first_angle(0.0)


def test_series_pickle_and_copy_round_trip(rng):
    s = random_real_series(rng, dim=2, cap=4)
    table = dict(s.coeffs)
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert t.coeffs == table and t.order_cap == 4 and t.trunc_loss == s.trunc_loss
        assert t.series_mul(s).coeffs == s.series_mul(s).coeffs
