"""Round trips through the structured text records."""

from paratori.celestial import PrimarySystem
from paratori.cohomology import invariance_error, solve_manifold
from paratori.jet import Jet
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
    back = ser.solution_from_obj(obj)
    # summation order differs after the sort in the record, so compare to
    # the rounding floor rather than bit-for-bit
    e1 = invariance_error(bench_map, res.solution)
    e2 = invariance_error(bench_map, back)
    assert (e1.ex - e2.ex).norm() < 1e-14
    assert back.reduced.b == res.solution.reduced.b
    for l, v in res.solution.kbar_x.items():
        assert back.kbar_x[l] == v  # the stored tables themselves are exact


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
    obj = ser.orbit_to_obj(orbit)
    assert len(obj["times"]) == 6
    assert obj["early_stop"] is None
