"""Round trips through the structured text records."""

import math

import pytest

from paratori.benchmark import GOLDEN
from paratori.celestial import PrimarySystem
from paratori.cohomology import invariance_error, solve_manifold
from paratori.errors import HypothesisViolation
from paratori.fourier import FourierSeries, diophantine_scan
from paratori.jet import Jet
from paratori.model import MapModel
from paratori import serialize as ser
from conftest import random_real_series


def test_series_roundtrip(rng, tmp_path):
    s = random_real_series(rng, dim=2, cap=5)
    obj = ser.series_to_obj(s)
    back = ser.series_from_obj(obj)
    assert (back - s).strip_norm() == 0.0
    path = tmp_path / "series.json"
    ser.dump_json(obj, path)
    again = ser.series_from_obj(ser.load_json(path))
    assert (again - s).strip_norm() == 0.0


def test_jet_roundtrip(rng):
    terms = {
        (l, (k,)): random_real_series(rng, cap=4)
        for l in range(3) for k in range(2)
    }
    j = Jet(1, 6, 1, 4, terms)
    back = ser.jet_from_obj(ser.jet_to_obj(j))
    assert (back - j).norm() == 0.0


def test_map_model_roundtrip(bench_map):
    back = ser.model_from_obj(ser.model_to_obj(bench_map))
    assert back.N == bench_map.N and back.P == bench_map.P
    assert (back.a - bench_map.a).strip_norm() == 0.0
    assert (back.f - bench_map.f).norm() == 0.0
    assert back.freq.c_estimate == bench_map.freq.c_estimate


def test_flow_model_roundtrip(bench_flow):
    back = ser.model_from_obj(ser.model_to_obj(bench_flow))
    assert back.kind == "flow"
    assert (back.a - bench_flow.a).strip_norm() == 0.0


def test_solution_roundtrip_preserves_error(bench_map):
    res = solve_manifold(bench_map, 4)
    obj = ser.solution_to_obj(res.solution)
    back = ser.solution_from_obj(obj, bench_map)
    # summation order differs after the sort in the record, so compare to
    # the rounding floor rather than bit-for-bit
    e1 = invariance_error(res.solution)
    e2 = invariance_error(back)
    assert (e1.ex - e2.ex).norm() < 1e-14
    assert back.reduced.b == res.solution.reduced.b
    for l, v in res.solution.kbar_x.items():
        assert back.kbar_x[l] == v  # the stored tables themselves are exact


def test_solution_record_for_another_model_names_each_field(bench_map):
    # the record keeps the shape and rotation of the model it was solved
    # for, and loading it with any other model is refused field by field
    obj = ser.solution_to_obj(solve_manifold(bench_map, 2).solution)
    omega = math.sqrt(2.0) - 1.0
    other = MapModel.build(N=3, P=3, freq=diophantine_scan([omega], tau=1.0, k_max=40),
                           a=FourierSeries.constant(1.0, 1, 6), m=0, order_cap=6)
    with pytest.raises(HypothesisViolation) as info:
        ser.solution_from_obj(obj, other)
    prefix = "solution was solved for another model: "
    assert str(info.value) == prefix + ", ".join([
        "N 2 (model 3)", "P 2 (model 3)", "m 1 (model 0)", "order_cap 24 (model 6)",
        f"omega [{GOLDEN!r}] (model [{omega!r}])",
    ])


def _constant_a_map(a_bar):
    return MapModel.build(N=2, P=2, freq=diophantine_scan([GOLDEN], tau=1.0, k_max=40),
                          a=FourierSeries.constant(a_bar, 1, 8), m=0, order_cap=8)


def test_solution_record_checks_reduced_copies_of_the_model():
    # a model of the same shape and rotation but another a_bar is refused,
    # and so is a record whose reduced dynamics disagree with its own shape
    obj = ser.solution_to_obj(solve_manifold(_constant_a_map(1.0), 3).solution)
    prefix = "solution was solved for another model: "
    with pytest.raises(HypothesisViolation) as info:
        ser.solution_from_obj(obj, _constant_a_map(0.5))
    assert str(info.value) == prefix + "reduced.a_bar 1.0 (model 0.5)"
    obj["reduced"]["N"] = 3
    with pytest.raises(HypothesisViolation) as info:
        ser.solution_from_obj(obj, _constant_a_map(1.0))
    assert str(info.value) == prefix + "reduced.N 3 (model 2)"


def test_solution_record_tells_apart_models_of_one_shape():
    # the same shape, rotation and a_bar, another x^3 term: only the model
    # fingerprint differs, and a record without one is refused as well
    model = _constant_a_map(1.0)
    other = MapModel.build(N=2, P=2, freq=model.freq, a=model.a, m=0, order_cap=8,
                           f=Jet.monomial(3, (), 0.1, 0, model.f.deg, 1, 8))
    obj = ser.solution_to_obj(solve_manifold(model, 3).solution)
    assert ser.solution_from_obj(obj, model).model is model
    prefix = "solution was solved for another model: model_sha256 "
    with pytest.raises(HypothesisViolation) as info:
        ser.solution_from_obj(obj, other)
    assert str(info.value).startswith(prefix + obj["model_sha256"])
    del obj["model_sha256"]
    with pytest.raises(HypothesisViolation) as info:
        ser.solution_from_obj(obj, model)
    assert str(info.value).startswith(prefix + "None (model ")


def test_primary_system_roundtrip():
    sys = PrimarySystem.circular_binary()
    back = ser.primary_system_from_obj(ser.primary_system_to_obj(sys))
    assert back.masses == sys.masses
    assert (back.qx[0] - sys.qx[0]).strip_norm() == 0.0
    back.check()


def test_torus_data_record():
    obj = {
        "omega0": [2 ** 0.5, 3 ** 0.5],
        "n": 2,
        "c2": [[0.3, 0.1], [0.1, 0.2]],
        "angular_momentum_internal": 1.25,
    }
    td = ser.torus_data_from_obj(obj)
    td.check()
    assert td.c2.shape == (2, 2)
    assert td.angular_momentum_internal == 1.25


def test_orbit_record(bench_map):
    from paratori.dynamics import iterate_map

    orbit = iterate_map(bench_map, [0.05, 0.0, 0.2], 5)
    assert len(orbit.times) == 6
    assert orbit.early_stop is None
