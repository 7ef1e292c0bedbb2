"""Each solve step at its own guard degree, and the verifier's reuse of the
solve's error jet."""

import math
import tracemalloc

import numpy as np
import pytest

from paratori import cohomology, fourier, verify
from paratori.benchmark import GOLDEN, benchmark_flow_model, benchmark_map_model, conjugacy_fixture
from paratori.cli import main
from paratori.cohomology import _diag_entry, base_step, extend_order, invariance_error, solve_manifold
from paratori.errors import WindowTooWide
from paratori.fourier import FourierSeries, diophantine_scan
from paratori.jet import Jet
from paratori.model import MapModel


def _small_torus2_map():
    """A T^2 map with a few mixed modes in every coefficient slot."""
    dim, cap, m, deg = 2, 6, 1, 6
    freq = diophantine_scan([GOLDEN, math.sqrt(2.0) - 1.0], tau=2.0, k_max=12)

    def series(mean, *modes):
        s = FourierSeries.constant(mean, dim, cap)
        for k, amp in modes:
            s = s + FourierSeries.cosine(k, dim, cap, amp)
        return s

    a = series(1.0, ((1, 0), 0.2), ((0, 1), 0.1))
    B = [[series(0.8, ((1, -1), 0.1))]]
    f = Jet.monomial(3, (0,), series(-0.2, ((1, 1), 0.04)), m, deg, dim, cap)
    g = [Jet.monomial(0, (2,), series(0.25, ((1, 0), 0.1)), m, deg, dim, cap)]
    h = [Jet.monomial(2, (0,), series(0.1, ((0, 1), 0.02)), m, deg, dim, cap) for _ in range(dim)]
    return MapModel.build(N=2, P=2, freq=freq, a=a, m=m, order_cap=cap, B=B, f=f, g=g, h=h, deg=deg)


def _fixed_degree_solve(model, order):
    """The solve as it ran with one guard degree, order + N + 1, at every step."""
    deg = order + model.N + 1
    sol = base_step(model)
    err = invariance_error(sol, deg=deg)
    diags = [_diag_entry(sol, err)]
    for _ in range(2, order + 1):
        sol, _ = extend_order(sol, err)
        err = invariance_error(sol, deg=deg)
        diags.append(_diag_entry(sol, err))
    return sol, err, diags


def _same_series(a, b):
    return (a.dim, a.order_cap, a.trunc_loss) == (b.dim, b.order_cap, b.trunc_loss) and np.array_equal(
        a._data, b._data)


def _same_jet(a, b):
    return ((a.m, a.deg, a.dim, a.order_cap) == (b.m, b.deg, b.dim, b.order_cap)
            and list(a.terms) == list(b.terms)
            and all(_same_series(a.terms[key], b.terms[key]) for key in a.terms))


def _same_rows(a: dict, b: dict):
    """Dicts of series or of lists of series, key by key."""
    if list(a) != list(b):
        return False
    for key in a:
        u, v = a[key], b[key]
        pairs = zip(u, v) if isinstance(u, list) else [(u, v)]
        if isinstance(u, list) and len(u) != len(v):
            return False
        if not all(_same_series(s, t) for s, t in pairs):
            return False
    return True


@pytest.mark.parametrize("build,order", [
    (benchmark_map_model, 9), (benchmark_flow_model, 6), (_small_torus2_map, 4),
], ids=["benchmark-map", "benchmark-flow", "torus2"])
def test_per_step_degree_matches_fixed_degree(build, order):
    model = build()
    res = solve_manifold(model, order)
    sol, err, diags = _fixed_degree_solve(model, order)
    assert res.per_order == diags
    got = res.solution
    assert (got.j, got.kbar_x, got.kbar_y, got.kbar_th, got.free_choices) == (
        sol.j, sol.kbar_x, sol.kbar_y, sol.kbar_th, sol.free_choices)
    assert _same_rows(got.ktil_x, sol.ktil_x)
    assert _same_rows(got.ktil_y, sol.ktil_y)
    assert _same_rows(got.ktil_th, sol.ktil_th)
    assert got.reduced == sol.reduced
    assert res.error.declared == err.declared
    assert _same_jet(res.error.ex, err.ex)
    for mine, theirs in ((res.error.ey, err.ey), (res.error.eth, err.eth)):
        assert len(mine) == len(theirs) and all(map(_same_jet, mine, theirs))


def _count_error_jets(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return invariance_error(*args, **kwargs)

    monkeypatch.setattr(cohomology, "invariance_error", counting)
    monkeypatch.setattr(verify, "invariance_error", counting)
    return calls


def test_fit_auto_builds_the_error_jet_at_most_once(monkeypatch, bench_map):
    """At order 9 and a window far below the rounding floor every shift of the
    window needs the error jet and none passes; the retries share one build,
    and none with the solve's."""
    res = solve_manifold(bench_map, 9)
    calls = _count_error_jets(monkeypatch)
    with pytest.raises(WindowTooWide):
        verify.fit_error_orders_auto(res.solution, (1e-9, 1e-8))
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(WindowTooWide):
        verify.fit_error_orders_auto(res.solution, (1e-9, 1e-8), error=res.error)
    assert calls == []


def test_fit_with_the_solve_error_jet_matches_a_rebuilt_one():
    model = conjugacy_fixture()
    res = solve_manifold(model, 4)
    own = verify.fit_error_orders(res.solution)
    given = verify.fit_error_orders(res.solution, error=res.error)
    assert own.rows() == given.rows() and own.samples == given.samples
    assert any(math.isinf(slope) for slope in own.fitted_slope.values())


def test_solve_cli_builds_one_error_jet_per_order(monkeypatch, tmp_path):
    calls = _count_error_jets(monkeypatch)
    code = main(["solve-map", "--model", "builtin:conjugacy", "--order", "4",
                 "--outdir", str(tmp_path / "run")])
    assert code == 0
    assert len(calls) == 4


def test_solve_counts_derivatives_and_products(monkeypatch):
    """The series derivatives and products of one T^2 solve to order 5: each
    derivative of a substitution's Taylor expansion is one derivative of its
    parent's, none is taken below a zero one, the products come from the
    product memos, and each Taylor term is formed only to the degree its
    product keeps (1,887 products when every term ran to the working degree)."""
    counts = {"derivative": 0, "series_mul": 0}
    for name in counts:
        method = getattr(FourierSeries, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(FourierSeries, name, counted)
    solve_manifold(_small_torus2_map(), 5)
    assert counts == {"derivative": 158, "series_mul": 1662}


def test_solve_scans_each_support_once_and_sums_in_the_cap_box(monkeypatch):
    """One T^2 solve to order 5 scans the array of each series at most once,
    and only 4 of its 1,662 products have pairs that land beyond the cap (877
    before products summed within the cap's own modes, 21 of 1,887 before
    each Taylor term was formed only to the degree its product keeps): those
    whose factors' reaches, the largest |k|_1 of their modes, add up to more
    than the cap of 6."""
    built, scanned, beyond = [], [], []
    of, modes, pair_index = FourierSeries._of.__func__, FourierSeries._modes, fourier._pair_index

    def building(cls, *args):
        s = of(cls, *args)
        built.append(s)
        return s

    def scanning(self):
        if self._kept is None:
            scanned.append(self)  # kept alive, so that no two hold one id
        return modes(self)

    def indexing(dim, cap, *keys):
        at, bins = pair_index(dim, cap, *keys)
        if bins > fourier._table(dim, cap).size:
            beyond.append(keys)
        return at, bins

    monkeypatch.setattr(FourierSeries, "_of", classmethod(building))
    monkeypatch.setattr(FourierSeries, "_modes", scanning)
    monkeypatch.setattr(fourier, "_pair_index", indexing)
    solve_manifold(_small_torus2_map(), 5)
    assert len({id(s) for s in scanned}) == len(scanned) <= len(built)
    assert len(beyond) == 4


def test_solve_memory_peak():
    """The traced peak of one T^2 solve to order 5, its tables and support
    records built by a first solve, stays within 10% of the 718 KiB measured
    when each series began to keep its support (728 KiB before)."""
    model = _small_torus2_map()
    solve_manifold(model, 5)
    tracemalloc.start()
    try:
        solve_manifold(model, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 718 * 1024
