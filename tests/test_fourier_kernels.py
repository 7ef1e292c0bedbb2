"""The array kernels of FourierSeries against the dict-of-tuples code they
replaced (tests/oracles.py): products, sums, rotations, derivatives and SD
solves on T^0 to T^3 at one cap, and the refusal of two caps; and the
slice at a fixed first angle against evaluation of the derivative; and
the store over the modes under the cap against the algebra of the whole box
[-cap, cap]^d that it replaced, bit for bit."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.errors import DimensionMismatch, HypothesisViolation, ResonantMode
from paratori.jet import Jet
from paratori import fourier
from paratori.fourier import (
    FourierSeries, FrequencyVector, evaluate_series, sd_solve_flow, sd_solve_map,
)
from conftest import random_real_series
from oracles import (
    box_at_first_angle,
    box_centre_out,
    box_coeff,
    box_coeffs,
    box_evaluate_series,
    box_of,
    box_pair_product,
    box_sd_divide,
    box_series,
    box_series_mul,
    box_strip_norm,
    box_tables,
    box_times,
    flow_divisor,
    map_divisor,
    reference_add,
    reference_derivative,
    reference_mul,
    reference_rotate,
    reference_sd_divide,
    reference_table,
    stored_positions,
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
    """A cap-c product on T^3 whose pairs land beyond the cap builds the
    mode table of cap c only: the modes beyond it are found among its pairs,
    not in a table of cap 2c."""
    built = []
    init = fourier._Table.__init__

    def recording(self, dim, cap):
        built.append((dim, cap))
        init(self, dim, cap)

    caches = (fourier._table, fourier._modes_of, fourier._sum_index, fourier._pair_index)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(fourier._Table, "__init__", recording)
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


def _series_on(rng, dim, cap, n_modes, special, reach=None):
    """A series built from its box array, so that signed zeros survive: the
    constant ``special`` (an index into _CONSTANTS, or None for a random one)
    when ``n_modes`` is None, else ``n_modes`` random modes with |k|_1 at
    most ``reach`` (the cap when None)."""
    norm1 = box_tables(dim, cap)[1]
    data = np.zeros(norm1.size, dtype=complex)
    if n_modes is None:
        data[norm1.size // 2] = (complex(rng.standard_normal(), rng.standard_normal())
                                 if special is None else _CONSTANTS[special])
    else:
        modes = np.flatnonzero(norm1 <= (cap if reach is None else reach))
        idx = rng.choice(modes, size=min(n_modes, modes.size), replace=False)
        values = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        data[idx] = _signed_zero_parts(rng, values)
    return box_series(dim, cap, data, float(rng.random()))


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
    want, dropped = box_pair_product(a, b)
    assert dropped == 0.0
    assert got.order_cap == cap and _same_bits(box_of(got), want)
    assert got.trunc_loss == a.trunc_loss + b.trunc_loss


_SUPPORT_SIZES = st.sampled_from([None, 0, 1, 2, 3, 8, 60])  # None: the zero mode alone


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 3), cap=st.integers(0, 6),
       reaches=st.tuples(st.integers(0, 6), st.integers(0, 6)), within=st.booleans(),
       sizes=st.tuples(_SUPPORT_SIZES, _SUPPORT_SIZES))
def test_product_paths_match_the_box_product(seed, dim, cap, reaches, within, sizes):
    """Each product path (an empty or constant factor, reaches within the cap,
    reaches beyond it) gives the bits, signed zeros and loss of the product
    that scanned both boxes and summed every pair in the wide box."""
    rng = np.random.default_rng(seed)
    reach_a = 1 + reaches[0] % cap if cap else 0
    reach_b = min(1 + reaches[1] % cap if cap else 0, cap - reach_a if within else cap)
    a, b = (_series_on(rng, dim, cap, n, None, reach=r) for n, r in zip(sizes, (reach_a, reach_b)))
    got, (want, loss) = a.series_mul(b), box_series_mul(a, b)
    assert (got.dim, got.order_cap) == (dim, cap)
    assert _same_bits(box_of(got), want)
    assert got.trunc_loss.hex() == loss.hex()


def _assert_kept_supports_hold(s):
    """A series stores one nonzero value per position of its support, whose
    record holds the positions, centre-out order and reach that its box
    array gives; the bins its products with itself use are those of the
    pairs' modes in the box: under the cap the stored modes they land on,
    in order, and past those one bin per mode beyond it, in lexicographic
    order; all in arrays that no one can write to."""
    box, stored = box_of(s), stored_positions(s.dim, s.order_cap)
    lex = box.nonzero()[0]
    order = box_centre_out(s.dim, s.order_cap)
    centre = order[box[order].nonzero()[0]]
    kept = s._support
    assert s._values.shape == kept.lex.shape and s._values.all()
    assert np.array_equal(stored[kept.lex], lex) and kept.key == kept.lex.tobytes()
    assert np.array_equal(stored[kept.lex[kept.centre]], centre)
    modes, norm1 = box_tables(s.dim, s.order_cap)
    assert kept.reach == (int(norm1[lex].max()) if lex.size else 0)
    at, lands, bins = fourier._pair_index(s.dim, s.order_cap, kept.key, kept.key)
    pairs = (modes[centre][:, None] + modes[lex]).reshape(centre.size * lex.size, s.dim)
    under = np.abs(pairs).sum(axis=1) <= s.order_cap
    box_at = (pairs[under] + s.order_cap) @ (2 * s.order_cap + 1) ** np.arange(s.dim - 1, -1, -1)
    landing = np.searchsorted(stored, box_at)
    assert np.array_equal(lands.lex, np.unique(landing)) and np.array_equal(lands.lex[at[under]], landing)
    wide, rank = np.unique(pairs[~under], axis=0, return_inverse=True)
    assert np.array_equal(at[~under], lands.lex.size + rank.ravel()) and bins == lands.lex.size + len(wide)
    assert not any(a.flags.writeable for a in (kept.lex, kept.centre, at, lands.lex))


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 3), cap=st.integers(0, 5))
def test_kept_supports_match_the_array(seed, dim, cap):
    """No public operation writes to a series once it is built: the
    operands before each operation, and every result, store their nonzero
    modes alone, with the support records their box arrays give."""
    rng = np.random.default_rng(seed)
    a, b = _random_sparse(rng, dim, cap), _random_sparse(rng, dim, cap, fill=0.1)
    for s in (a, b):
        _assert_kept_supports_hold(s)
    made = [FourierSeries.constant(0.5, dim, cap), a + b, a - b, -a, a.scale(0.5 - 2j),
            a.series_mul(b), b.series_mul(a), a.oscillatory(), a.conjugate()]
    if dim:
        k = tuple(int(v) for v in rng.integers(-1, 2, dim))
        freq = FrequencyVector(omega=tuple(0.1 + rng.random(dim)))
        made += [FourierSeries.cosine(k, dim, cap), FourierSeries.sine(k, dim, cap, 0.3),
                 a.rotate(tuple(rng.random(dim))), a.derivative(dim - 1),
                 a.directional_derivative(freq.omega), a.at_first_angle(0.3, 1),
                 sd_solve_map(a.oscillatory(), freq), sd_solve_flow(a.oscillatory(), freq)]
    for s in (a, b, *made):
        _assert_kept_supports_hold(s)


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


# ------------------------------------------- the store against the box algebra


def _cross_polytope_size(dim, cap):
    """The number of modes |k|_1 <= cap on T^dim: sum_i 2^i C(dim, i) C(cap, i)."""
    return sum(2 ** i * math.comb(dim, i) * math.comb(cap, i) for i in range(dim + 1))


def test_series_stores_the_modes_under_its_cap():
    """The mode table of T^d at cap c holds the modes |k|_1 <= c, not those
    of the box [-c, c]^d: 313 of 625 on the torus2 model's T^2 at cap 12,
    and 3,649 of 83,521 on the n = 3 skeleton's T^4 at cap 8; a series holds
    only the nonzero ones, none for zero and four for a cosine times a sine."""
    assert (_cross_polytope_size(2, 12), _cross_polytope_size(4, 8)) == (313, 3649)
    for dim in range(5):
        for cap in range(9):
            assert fourier._table(dim, cap).size == _cross_polytope_size(dim, cap), (dim, cap)
            assert FourierSeries(dim, cap)._values.size == 0
    for dim, cap in ((2, 12), (4, 8)):
        p = FourierSeries.cosine((1,) + (0,) * (dim - 1), dim, cap).series_mul(
            FourierSeries.sine((0,) * (dim - 1) + (1,), dim, cap))
        assert p._values.size == p._support.lex.size == len(p.coeffs) == 4


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(0, 4), cap=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_tables_are_the_box_modes_under_the_cap(dim, cap, seed):
    """The mode table of T^dim at a cap, walked over the cross-polytope,
    holds the modes of the box under the cap in the box's lexicographic
    order, with their |k|_1 and the positions ``index`` reads; coordinates
    rise with the modes, and the pair of two stored modes has the coordinate
    of their sum, within the cap or beyond it."""
    table, (modes, norm1) = fourier._Table(dim, cap), box_tables(dim, cap)
    stored = stored_positions(dim, cap)
    assert table.modes.flags.f_contiguous and table.modes.dtype == np.int64
    assert np.array_equal(table.modes, modes[stored]) and np.array_equal(table.norm1, norm1[stored])
    assert table.size == stored.size and table.zero == stored.size // 2
    assert (np.diff(table.coord) > 0).all()
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, table.size, (2, 50))
    assert [table.index(tuple(table.modes[i].tolist())) for i in picks[0]] == picks[0].tolist()
    digits = table.modes[picks[0]] + table.modes[picks[1]] + 2 * cap
    assert np.array_equal(table.coord[picks[0]] + table.coord[picks[1]] - table.coord[table.zero],
                          digits @ table.radix ** np.arange(dim - 1, -1, -1))


def test_tables_whose_coordinates_overflow_are_refused():
    """(4 cap + 1)^dim coordinates fit int64 on T^15 at cap 4, not on T^16."""
    assert fourier._Table(15, 4).size == _cross_polytope_size(15, 4)
    with pytest.raises(HypothesisViolation, match=r"^T\^16 at cap 4: the mode coordinates, 17\^16, "
                                                  r"would overflow int64$"):
        fourier._Table(16, 4)


def _same_table(got, want) -> bool:
    """Equal tables, key for key in the same order, each value to the bits."""
    return list(got) == list(want) and _same_bits(np.array(list(got.values()), dtype=complex),
                                                  np.array(list(want.values()), dtype=complex))


def _stores(got, want) -> bool:
    """Whether the series ``got`` holds the box array ``want``: the bits and
    signed zeros of every nonzero mode under the cap, at the positions of
    its support, and no other mode (the zeros, whose signs the box kept and
    no value ever read, are off the support)."""
    stored = stored_positions(got.dim, got.order_cap)
    beyond = np.ones(want.size, dtype=bool)
    beyond[stored] = False
    under = want[stored]
    lex = under.nonzero()[0]
    return (np.array_equal(got._support.lex, lex) and _same_bits(got._values, under[lex])
            and not want[beyond].any())


_KINDS = st.sampled_from(["empty", "constant", 1, 2, 3, 8, 60])


def _series_of_kind(rng, dim, cap, kind):
    """An empty series, a constant (random or one of _CONSTANTS), or ``kind``
    random modes within a random reach, from a box array with signed zeros."""
    if kind == "empty":
        return _series_on(rng, dim, cap, 0, None)
    if kind == "constant":
        special = int(rng.integers(len(_CONSTANTS) + 1))
        return _series_on(rng, dim, cap, None, special if special < len(_CONSTANTS) else None)
    return _series_on(rng, dim, cap, kind, None, reach=int(rng.integers(0, cap + 1)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 4), cap=st.integers(0, 6),
       kinds=st.tuples(_KINDS, _KINDS))
def test_store_matches_the_box_algebra(seed, dim, cap, kinds):
    """Every operation on the store over the modes |k|_1 <= cap gives the
    bits, signed zeros and losses that the same operation gave on the box
    [-cap, cap]^d: sums, scalings, conjugation, rotation, derivatives,
    average and oscillatory part, coefficient reads, the slice at a first
    angle, the strip norm, both SD divisions, the product and evaluation."""
    rng = np.random.default_rng(seed)
    a, b = (_series_of_kind(rng, dim, cap, kind) for kind in kinds)
    A, B = box_of(a), box_of(b)
    s = complex(rng.standard_normal(), rng.standard_normal())
    for got, want in ((a + b, A + B), (a - b, A + (-B)), (-a, -A), (a.scale(s), A * s),
                      (a.conjugate(), A[::-1].conj()), (a.oscillatory(), np.where(
                          np.arange(A.size) == A.size // 2, 0j, A))):
        assert _stores(got, want)
    assert _same_bits(np.array([a.average()]), A[A.size // 2:A.size // 2 + 1])
    assert _same_table(a.coeffs, box_coeffs(dim, cap, A))
    for k in itertools.islice(itertools.product(range(-cap - 1, cap + 2), repeat=dim), 40):
        assert _same_bits(np.array([a.coeff(k)]), np.array([box_coeff(a, k)]))
    assert a.coeff((0,) * (dim + 1)) == 0
    sigma = float(rng.uniform(0.01, 0.2))
    for sg in (0.0, sigma):
        assert a.strip_norm(sg).hex() == box_strip_norm(a, sg).hex()
    got, (want, loss) = a.series_mul(b), box_series_mul(a, b)
    assert _stores(got, want) and got.trunc_loss.hex() == loss.hex()
    if dim:
        step = tuple(rng.random(dim))
        freqs = tuple(rng.standard_normal(dim))
        assert _stores(a.rotate(step), box_times(a, "rotation", step))
        assert _stores(a.directional_derivative(freqs), box_times(a, "derivative", freqs))
        for axis in range(dim):
            unit = tuple(float(i == axis) for i in range(dim))
            assert _stores(a.derivative(axis), box_times(a, "derivative", unit))
        theta0 = float(rng.uniform(-2.0, 2.0))
        for p in range(4):
            got = a.at_first_angle(theta0, p)
            assert _stores(got, box_at_first_angle(a, theta0, p))
        h, vec = a.oscillatory(), tuple(0.1 + rng.random(dim))
        for kind, solve, freq in (("divisor", sd_solve_map, FrequencyVector(omega=vec)),
                                  ("derivative", sd_solve_flow, FrequencyVector(omega=vec[:1], nu=vec[1:]))):
            assert _stores(solve(h, freq), box_sd_divide(h, vec, kind))
    th = rng.random((3, dim)) + 0.01j * rng.standard_normal((3, dim))
    for dtype in (complex, np.clongdouble):
        for got, want in zip(evaluate_series((a, b, a + b), th, dtype),
                             box_evaluate_series((a, b, a + b), th, dtype)):
            assert got.dtype == want.dtype and _same_bits(got, want)


def _hex_coeffs(s):
    """Each stored mode of s with the bits of both parts of its coefficient."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in s.coeffs.items()]


def _box_hex_coeffs(dim, cap, data):
    """The same for the nonzero entries of a box array."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in box_coeffs(dim, cap, data).items()]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 3), cap=st.integers(0, 6),
       n_modes=st.sampled_from([1, 2, 3, 8, 60]))
def test_store_drops_exact_zeros_as_the_box_algebra_does(seed, dim, cap, n_modes):
    """The store keeps the bits of the box algebra, both parts of each
    coefficient, where values vanish or carry signed zeros: a sum whose
    common entries cancel loses those modes from ``coeffs`` and from its
    support, a scale that underflows drops the modes it zeroes, negation
    keeps signed zeros, and conjugation, the oscillatory part, rotation and
    the derivatives match; a mode off the support or beyond the cap reads
    +0.  Every series holds exactly one value per mode of ``coeffs``."""
    rng = np.random.default_rng(seed)
    a = _series_on(rng, dim, cap, n_modes, None)
    A = box_of(a)
    A[A.nonzero()[0][0]] = complex(0.25, -0.25)  # zeroed by the scale below
    a = box_series(dim, cap, A, a.trunc_loss)
    # b cancels a on about half of a's modes and is random elsewhere
    B = box_of(_series_on(rng, dim, cap, n_modes, None))
    own = A.nonzero()[0]
    cancel = rng.choice(own, size=1 + own.size // 2, replace=False)
    B[cancel] = -A[cancel]
    b = box_series(dim, cap, B, float(rng.random()))
    tiny = complex(float(rng.choice([5e-324, -5e-324])), float(rng.choice([0.0, -0.0])))
    c = b.scale(-1.0)  # cancels a where b does, in a - c
    results = [(a + b, A + B), (b + a, B + A), (a - c, A + (-box_of(c))), (-a, -A),
               (a.scale(tiny), A * tiny), (a.conjugate(), A[::-1].conj()),
               (a.oscillatory(), np.where(np.arange(A.size) == A.size // 2, 0j, A))]
    if dim:
        step, freqs = tuple(rng.random(dim)), tuple(rng.standard_normal(dim))
        results += [(a.rotate(step), box_times(a, "rotation", step)),
                    (a.directional_derivative(freqs), box_times(a, "derivative", freqs))]
        results += [(a.derivative(axis), box_times(a, "derivative", tuple(float(i == axis) for i in range(dim))))
                    for axis in range(dim)]
    for got, want in results:
        assert _hex_coeffs(got) == _box_hex_coeffs(dim, cap, want)
        assert got._values.size == got._support.lex.size == len(got.coeffs)
    modes = box_tables(dim, cap)[0]
    for k in map(tuple, modes[cancel].tolist()):
        assert k not in (a + b).coeffs and k not in (a - c).coeffs
    assert len(a.scale(tiny).coeffs) < len(a.coeffs)
    absent = [k for k in map(tuple, modes[stored_positions(dim, cap)].tolist()) if k not in a.coeffs]
    beyond = [(cap + 1,) + (0,) * (dim - 1)] if dim else []
    for k in absent[:3] + beyond:
        got, want = a.coeff(k), box_coeff(a, k)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()) == ("0x0.0p+0",) * 2


def test_modes_off_the_support_read_plus_zero():
    """A mode off a series' support reads +0 in both parts, whatever made the
    series: negation, a scale by -1 or by inf and a rotation leave it +0
    (an array over all the modes held -0 or NaN there).  So ``coeff`` and
    ``average`` read +0, a non-finite scale spreads NaN over the support
    alone, and a sum adds +0 at an operand's missing mode, negated with the
    operand only in a subtraction."""
    a = FourierSeries.cosine((1,), 1, 3)
    with np.errstate(invalid="ignore"):  # 0 * inf in the imaginary parts
        wild = a.scale(math.inf)
    assert all(math.isnan(c.imag) for c in wild.coeffs.values())
    for s in (-a, a.scale(-1.0), a.scale(-1j), wild, a.rotate((0.25,))):
        assert len(s.coeffs) == 2
        for got in (s.average(), s.coeff((0,)), s.coeff((2,)), s.coeff((-3,))):
            assert (got.real.hex(), got.imag.hex()) == ("0x0.0p+0",) * 2
    b = FourierSeries(1, 3, {(2,): -1.0}).scale(-1.0)
    assert math.copysign(1.0, b.coeff((2,)).imag) == -1.0
    assert math.copysign(1.0, (b + (-a)).coeff((2,)).imag) == 1.0
    assert math.copysign(1.0, (b - a).coeff((2,)).imag) == -1.0
