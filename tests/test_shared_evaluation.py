"""Torus evaluation from one phase table, against the per-series
evaluation it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.benchmark import benchmark_map_model
from paratori.cohomology import solve_manifold
from paratori.errors import DimensionMismatch
from paratori.fourier import FourierSeries, _box, evaluate_series
from paratori.jet import Jet, SkewMap, evaluate_jets
from paratori.verify import fit_error_orders
from oracles import per_series_jet_evaluate, per_series_map_evaluate, reference_evaluate

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_DTYPES = [complex, np.clongdouble]


def _same(a, b) -> bool:
    """Equal values, dtypes and shapes, with equal signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def _sparse_series(rng, dim, cap, n_modes):
    """A series with ``n_modes`` random modes (few, so supports often differ)."""
    table = {}
    for _ in range(n_modes):
        k = tuple(int(v) for v in rng.integers(-cap, cap + 1, dim))
        table[k] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierSeries(dim, cap, table)


def _random_jet(rng, m, dim, cap, deg=4):
    """A jet in (x, y) whose terms have random sparse supports; about one in
    five is the zero jet."""
    terms = {}
    if rng.random() > 0.2:
        for _ in range(int(rng.integers(1, 5))):
            l = int(rng.integers(0, deg + 1))
            k = tuple(int(v) for v in rng.integers(0, 2, m))
            terms[(l, k)] = _sparse_series(rng, dim, cap, int(rng.integers(1, 6)))
    return Jet(m, deg + m, dim, cap, terms)


def _points(rng, dim, batch, scalar):
    """x and theta: one point, a scalar theta on T^1, or arrays of points
    of shape ``batch``."""
    if batch is None:
        x = float(rng.uniform(0.01, 0.1))
        th = float(rng.random()) if scalar and dim == 1 else tuple(rng.random(dim))
    else:
        x = rng.uniform(0.01, 0.1, batch)
        th = tuple(rng.random(batch) for _ in range(dim))
    return x, th


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2), m=st.integers(0, 2),
       cap=st.sampled_from([3, 4, 5]), batch=st.sampled_from([None, (3,), (2, 3)]),
       scalar=st.booleans(), dtype=st.sampled_from(_DTYPES))
def test_shared_table_equals_per_series(seed, dim, m, cap, batch, scalar, dtype):
    rng = np.random.default_rng(seed)
    x, th = _points(rng, dim, batch, scalar)
    y = tuple(0.5 * np.asarray(x) for _ in range(m))
    rot = tuple(float(v) for v in rng.random(dim))

    def jets(mm, n):
        return tuple(_random_jet(rng, mm, dim, cap) for _ in range(n))

    F = SkewMap(x=jets(m, 1)[0], y=jets(m, m), theta_dev=jets(m, dim), rot=rot)
    K = SkewMap(x=jets(0, 1)[0], y=jets(0, m), theta_dev=jets(0, dim), rot=rot)

    assert _same(F.x.evaluate(x, y, th, dtype=dtype), per_series_jet_evaluate(F.x, x, y, th, dtype))
    for got, want in ((F.evaluate(x, y, th, dtype=dtype), per_series_map_evaluate(F, x, y, th, dtype)),
                      (K.evaluate(x, (), th, dtype=dtype), per_series_map_evaluate(K, x, (), th, dtype))):
        assert _same(got[0], want[0])
        for mine, theirs in zip(got[1:], want[1:]):
            assert len(mine) == len(theirs) and all(map(_same, mine, theirs))


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2), cap=st.integers(0, 6),
       batch=st.sampled_from([None, (4,), (2, 3)]))
def test_extended_table_is_the_matmul_phase(seed, dim, cap, batch):
    """In extended precision numpy's matmul sums k.theta from zero, axis by
    axis, as the table does: a series evaluates to the bits that the phase
    matrix exp(2 pi i theta @ modes^T) gives."""
    rng = np.random.default_rng(seed)
    s = _sparse_series(rng, dim, cap, int(rng.integers(0, 12)))
    shape = (dim,) if batch is None else (*batch, dim)
    th = rng.random(shape) + 0.01j * rng.standard_normal(shape)
    dt = np.clongdouble
    idx = s._data.nonzero()[0]
    modes = _box(dim, cap).modes[idx].astype(float)
    two_pi_i = dt(2j) * dt(np.pi)
    want = np.exp(two_pi_i * (np.asarray(th, dtype=dt) @ modes.T)) @ s._data[idx].astype(dt)
    assert _same(s.evaluate(th, dtype=dt), want)


@pytest.mark.parametrize("dtype", _DTYPES)
def test_evaluate_series_groups_and_edge_cases(dtype):
    """Disjoint supports and zero series at a scalar, a point and a batch,
    and T^0 under a scalar theta: each value as the series gives it alone.
    Series on two tori or at two caps are refused."""
    series = [
        FourierSeries(1, 4, {(1,): 0.5, (-1,): 0.5}),
        FourierSeries(1, 4, {(3,): 0.2j, (-3,): -0.2j}),
        FourierSeries(1, 4),
        FourierSeries(1, 4, {(4,): 1.0, (0,): 2.0}),
    ]
    torus0 = [FourierSeries(0, 0, {(): 1.5}), FourierSeries(0, 0)]
    for th, group in ((0.37, series), (0.37, torus0), (np.array([0.25]), series),
                      (np.array([[0.1], [0.6]]), series)):
        got = evaluate_series(group, th, dtype=dtype)
        assert len(got) == len(group)
        assert all(_same(v, s.evaluate(th, dtype=dtype)) for s, v in zip(group, got))
    assert evaluate_series([], 0.3, dtype=dtype) == []
    for other in (FourierSeries(2, 4), FourierSeries(1, 6), torus0[0]):
        with pytest.raises(DimensionMismatch):
            evaluate_series([series[0], other], 0.37, dtype=dtype)


@pytest.mark.parametrize("dtype", _DTYPES)
def test_shared_table_against_reference_loop(rng, dtype):
    """One T^2 parameterization component against the per-mode loop, at the
    tolerance of the evaluator's own differential test."""
    dim, cap = 2, 5
    terms = {(l, ()): _sparse_series(rng, dim, cap, 8) for l in (0, 1, 3)}
    K = SkewMap(x=Jet(0, 4, dim, cap, terms), y=(Jet(0, 4, dim, cap, {(2, ()): _sparse_series(rng, dim, cap, 4)}),),
                theta_dev=(), rot=(0.0, 0.0))
    x, th = 0.07, (0.31, 0.84)
    got = K.evaluate(x, (), th, dtype=dtype)[0]
    want = sum((reference_evaluate(s, th, dtype) * dtype(x) ** l for (l, _), s in terms.items()), dtype(0))
    scale = sum(s.strip_norm() for s in terms.values())
    tol = {complex: 1e-13, np.clongdouble: 1e-16}[dtype]
    assert abs(complex(got - want)) <= tol * scale


def _count_exp_tables(monkeypatch):
    calls = []
    exp = np.exp

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return calls


def test_param_map_builds_one_table_per_box(monkeypatch):
    """A map evaluation exponentiates one table, not one per coefficient
    series; a map whose components sit at two caps is refused before any
    table is built."""
    res = solve_manifold(benchmark_map_model(), 3)
    K = res.solution.param(6)
    n_series = sum(len(j.terms) for j in (K.x, *K.y, *K.theta_dev))
    assert n_series > 3
    xs = np.linspace(0.01, 0.02, 4)
    ths = [np.linspace(0.0, 0.75, 4)]
    calls = _count_exp_tables(monkeypatch)
    K.evaluate(xs, (), ths, dtype=np.clongdouble)
    assert len(calls) == 1

    calls.clear()
    two_caps = SkewMap(
        x=Jet(0, 3, 1, 6, {(1, ()): FourierSeries.cosine((2,), 1, 6), (2, ()): FourierSeries.cosine((5,), 1, 6)}),
        y=(Jet(0, 3, 1, 4, {(2, ()): FourierSeries.sine((1,), 1, 4)}),),
        theta_dev=(Jet(0, 3, 1, 4, {(1, ()): FourierSeries.cosine((3,), 1, 4)}),),
        rot=(0.1,),
    )
    with pytest.raises(DimensionMismatch):
        two_caps.evaluate(xs, (), ths)
    assert not calls


@pytest.mark.parametrize("dtype", _DTYPES)
def test_every_jet_value_has_the_points_shape(dtype):
    """A zero jet, a jet of x^0 terms only and x itself, at x of shape (5, 1)
    and theta of shape (7,): each value has the broadcast shape (5, 7), with
    the bits of the value before broadcasting."""
    dim, cap = 1, 4
    x = np.linspace(0.01, 0.05, 5)[:, None]
    th = (np.linspace(0.0, 0.9, 7),)
    jets = (Jet(0, 3, dim, cap),
            Jet(0, 3, dim, cap, {(0, ()): FourierSeries.cosine((1,), dim, cap)}),
            Jet.var_x(0, 3, dim, cap))
    zero, flat, var_x = evaluate_jets(jets, x, (), th, dtype)
    for v in (zero, flat, var_x):
        assert np.shape(v) == (5, 7) and np.asarray(v).dtype == dtype
    assert _same(zero, np.zeros((5, 7), dtype=dtype))
    assert all(_same(row, jets[1].terms[(0, ())].evaluate(np.asarray(th).T, dtype=dtype)) for row in flat)
    assert _same(var_x, np.broadcast_to(np.asarray(x, dtype=dtype), (5, 7)))
    # one point keeps scalar values
    assert all(np.shape(v) == () for v in evaluate_jets(jets, 0.02, (), 0.3, dtype))


def test_fit_error_orders_tables_per_x_sample(monkeypatch):
    """One fit on benchmark-map exponentiates n_samples + 3 phase tables: K,
    R and K o R once, F at K once per x-sample.  The one further np.exp
    spaces the x-samples."""
    sol = solve_manifold(benchmark_map_model(), 5).solution
    n_samples = 10
    calls = _count_exp_tables(monkeypatch)
    fit_error_orders(sol, n_samples=n_samples, theta_samples=6)
    assert calls[0] == (n_samples,)  # the x-samples
    assert len(calls) - 1 == n_samples + 3
