"""The in-house Dormand–Prince stepper against scipy's RK45, the code it replaced.

Both run the same pair with the same step control, so on short horizons
they take the same steps; they differ only in the order numpy and Python
sum the stages, so states agree to 1e-12 relative and the evaluation
counts to 2%.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.benchmark import benchmark_flow_model, toy_x2_flow_model
from paratori.celestial import PrimarySystem, RestrictedField
from paratori.dynamics import integrate_flow
from paratori.errors import StepUnderflow
from oracles import fixed_step_orbit

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _kepler():
    r0, G = 10.0, 0.5
    state = [r0, 0.3, math.sqrt(2.0 / r0 - G ** 2 / r0 ** 2), G]
    return RestrictedField(PrimarySystem.single(mass=1.0)), state, 100.0


def _x2():
    return toy_x2_flow_model(m=0).as_field(4), [1.0, 0.0], 1.0


def _bench():
    return benchmark_flow_model().as_field(8), [0.05, 0.01, 0.2], 5.0


_FIELDS = {"kepler": _kepler, "x2": _x2, "bench": _bench}


def _scipy(field, state, t_end, tol, t_eval=None):
    return solve_ivp(field.rhs, (0.0, t_end), state, method="RK45",
                     rtol=tol, atol=tol * 1e-2, t_eval=t_eval)


def _assert_agrees(orbit, ref, rel=1e-12):
    want = ref.y.T
    assert orbit.states.shape == want.shape
    assert np.max(np.abs(orbit.states - want)) <= rel * np.max(np.abs(want))
    assert abs(orbit.meta["nfev"] - ref.nfev) <= 0.02 * ref.nfev


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_sampled_orbit_matches_scipy(name, tol):
    field, state, t_end = _FIELDS[name]()
    grid = np.linspace(0.0, t_end, 9)
    for t_eval in (grid, grid[1:-1]):  # with the end points, and interior only
        orbit = integrate_flow(field, state, (0.0, t_end), tol=tol, t_eval=t_eval)
        ref = _scipy(field, state, t_end, tol, t_eval)
        assert np.array_equal(orbit.times, ref.t)
        _assert_agrees(orbit, ref)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_step_record_matches_scipy(name, tol):
    # without t_eval every accepted step is recorded; the step sizes follow
    # the rounding of the error estimate, so the step times drift apart
    # slightly while the end state, reached exactly at t_end by both, agrees
    field, state, t_end = _FIELDS[name]()
    orbit = integrate_flow(field, state, (0.0, t_end), tol=tol)
    ref = _scipy(field, state, t_end, tol)
    assert len(orbit) == len(ref.t)
    assert orbit.times[0] == 0.0 and orbit.times[-1] == ref.t[-1] == t_end
    assert np.max(np.abs(orbit.times - ref.t)) <= 1e-6 * t_end
    end = ref.y[:, -1]
    assert np.max(np.abs(orbit.states[-1] - end)) <= 1e-12 * np.max(np.abs(end))
    assert abs(orbit.meta["nfev"] - ref.nfev) <= 0.02 * ref.nfev


@_PROPERTY
@given(r0=st.floats(5.0, 50.0), theta=st.floats(-math.pi, math.pi),
       y0=st.floats(-0.3, 0.3), G=st.floats(0.05, 1.5), log_tol=st.floats(-12.0, -8.0))
def test_kepler_orbits_match_scipy(r0, theta, y0, G, log_tol):
    # r0 >= 5 and |y0| <= 0.3 keep the body beyond r = 1 up to t = 8
    field = RestrictedField(PrimarySystem.single(mass=1.0))
    tol = 10.0 ** log_tol
    t_eval = np.linspace(0.0, 8.0, 5)
    orbit = integrate_flow(field, [r0, theta, y0, G], (0.0, 8.0), tol=tol, t_eval=t_eval)
    _assert_agrees(orbit, _scipy(field, [r0, theta, y0, G], 8.0, tol, t_eval))


@pytest.mark.parametrize("h", [0.025, 0.03])
def test_fixed_step_matches_scipy(h):
    # scipy with tolerances opened wide and the step pinned by max_step is
    # the fixed-step pair; 0.03 leaves a short last step
    field, state, _ = _x2()
    orbit = fixed_step_orbit(field, state, 1.0, h)
    ref = solve_ivp(field.rhs, (0.0, 1.0), state, method="RK45", rtol=1e9, atol=1e9,
                    first_step=h, max_step=h)
    assert np.max(np.abs(orbit.times - ref.t)) <= 1e-15
    assert np.max(np.abs(orbit.states - ref.y.T)) <= 1e-14


def test_collapse_fails_in_both():
    field = RestrictedField(PrimarySystem.single(mass=1.0))
    state = [1.0, 0.0, -0.5, 0.0]
    ref = solve_ivp(field.rhs, (0.0, 50.0), state, method="RK45", rtol=1e-10, atol=1e-12)
    assert not ref.success
    with pytest.raises(StepUnderflow):
        integrate_flow(field, state, (0.0, 50.0), tol=1e-10)
