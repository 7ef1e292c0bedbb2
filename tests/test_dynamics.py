"""Trajectory generation: map iteration and the embedded RK integrator."""

import math
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paratori.benchmark import toy_x2_flow_model
from paratori.celestial import PrimarySystem, RestrictedField
from paratori.cohomology import solve_manifold
from paratori.dynamics import (
    _stepper,
    _ForkedCall,
    integrate_fixed_step,
    integrate_flow,
    iterate_map,
    iterate_reduced,
)
from paratori.errors import ParatoriError, StepUnderflow
from paratori.model import ReducedMap
from paratori.verify import stable_set_membership
from conftest import src_env
from oracles import reference_dp_step, reference_error_norm


# ------------------------------------------------------------------- maps


def test_iterate_torus_point(bench_map):
    orbit = iterate_map(bench_map, [0.0, 0.0, 0.1], 20)
    om = bench_map.freq.omega[0]
    for k, row in enumerate(orbit.states):
        assert row[0] == pytest.approx(0.0, abs=1e-15)
        assert row[1] == pytest.approx(0.0, abs=1e-15)
        assert row[2] == pytest.approx(0.1 + k * om, abs=1e-12)  # unwrapped


def test_iterate_early_stop(bench_map):
    orbit = iterate_map(bench_map, [0.5, 0.8, 0.0], 50, domain_radius=1.0)
    assert orbit.early_stop is not None


def test_reduced_iterates_match_manual():
    R = ReducedMap(N=2, a_bar=1.0, b=0.25)
    xs = iterate_reduced(R, 0.07, 100)
    x = complex(0.07)
    for k in range(100):
        x = x - 1.0 * x ** 2 + 0.25 * x ** 3
        assert xs[k + 1] == x  # bit-for-bit, same arithmetic


def test_manifold_orbit_tracks_reduced_dynamics(bench_map):
    # semiconjugacy: the fiber coordinate of the orbit tracks R^k(x0)
    res = solve_manifold(bench_map, 5)
    sol = res.solution
    K = sol.param(8)
    x0 = 0.05
    kx, ky, kth = K.evaluate(x0, (), (0.3,))
    memb = stable_set_membership(sol, [kx.real, ky[0].real, kth[0].real], 20, rho=0.5)
    ref = iterate_reduced(sol.reduced, x0, 20)
    for k, u in enumerate(memb.fiber_x):
        assert abs(u - ref[k].real) < 1e-5


# ------------------------------------------------------------------- flows


def test_integrate_x2_closed_form():
    field = toy_x2_flow_model(m=0).as_field(4)
    orbit = integrate_flow(field, [1.0, 0.0], (0.0, 1.0), tol=1e-11,
                           t_eval=[0.0, 1.0])
    assert orbit.states[-1][0] == pytest.approx(0.5, abs=1e-9)


def test_integrate_kepler_parabolic_energy():
    sys = PrimarySystem.single(mass=1.0)
    field = RestrictedField(sys)
    r0, G = 10.0, 0.5
    y0 = math.sqrt(2.0 / r0 - G ** 2 / r0 ** 2)  # zero two-body energy
    state = [r0, 0.3, y0, G]
    orbit = integrate_flow(field, state, (0.0, 1.0e3), tol=1e-12,
                           t_eval=np.linspace(0, 1e3, 50))
    for t, row in zip(orbit.times, orbit.states):
        assert abs(field.energy(row, t)) <= 1e-9
        # angular momentum is exactly conserved for the single primary
        assert row[3] == pytest.approx(G, abs=1e-10)


def test_integrate_quasiperiodic_self_convergence():
    model = toy_x2_flow_model(m=1)
    # add genuine quasiperiodic forcing through the benchmark flow instead
    from paratori.benchmark import benchmark_flow_model

    fm = benchmark_flow_model()
    field = fm.as_field(8)
    state = [0.05, 0.01, 0.2]
    coarse = integrate_flow(field, state, (0.0, 5.0), tol=1e-8, t_eval=[5.0])
    fine = integrate_flow(field, state, (0.0, 5.0), tol=1e-12, t_eval=[5.0])
    assert np.max(np.abs(coarse.states[-1] - fine.states[-1])) < 1e-8


def test_integrator_convergence_order():
    # fixed-step runs of the embedded pair: global error ~ h^5 on the toy
    field = toy_x2_flow_model(m=0).as_field(4)
    hs = [0.025, 0.0125, 0.00625]
    errs = []
    for h in hs:
        orbit = integrate_fixed_step(field, [1.0, 0.0], 1.0, h)
        errs.append(abs(orbit.states[-1][0] - 0.5))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 5.0) <= 0.3, (slope, errs)


def test_step_underflow_near_collision():
    # radial infall with zero angular momentum collapses onto the primary
    sys = PrimarySystem.single(mass=1.0)
    field = RestrictedField(sys)
    with pytest.raises((StepUnderflow, Exception)):
        orbit = integrate_flow(field, [1.0, 0.0, -0.5, 0.0], (0.0, 50.0), tol=1e-10)
        # if the integrator survives to r <= 0 the field itself raises
        assert orbit.states[-1][0] > 0
        raise StepUnderflow("reached the end without collapsing")


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate is imported by the integrators themselves, so the
    # map commands never pay for it
    code = "import paratori.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=src_env(), check=True)


def test_collapse_raises_step_underflow():
    # the same radial infall: the step collapses before r reaches 0
    field = RestrictedField(PrimarySystem.single(mass=1.0))
    with pytest.raises(StepUnderflow, match="10 ulp"):
        integrate_flow(field, [1.0, 0.0, -0.5, 0.0], (0.0, 50.0), tol=1e-10)


def test_t_eval_must_be_ordered_within_span():
    field = toy_x2_flow_model(m=0).as_field(4)
    for bad in ([0.5, 0.2], [0.2, 0.2], [-0.1, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError):
            integrate_flow(field, [1.0, 0.0], (0.0, 1.0), t_eval=bad)


def test_t_eval_start_returns_initial_state_and_backward_span():
    # x' = -x^2 from x(0) = 1 is x(t) = 1/(1 + t), also backwards in time
    field = toy_x2_flow_model(m=0).as_field(4)
    orbit = integrate_flow(field, [1.0, 0.0], (0.0, 1.0), tol=1e-11, t_eval=[0.0, 0.5])
    assert orbit.states[0].tolist() == [1.0, 0.0]
    assert orbit.states[1][0] == pytest.approx(1.0 / 1.5, abs=1e-9)
    back = integrate_flow(field, [0.5, 0.0], (1.0, 0.0), tol=1e-11, t_eval=[0.5, 0.0])
    assert back.times.tolist() == [0.5, 0.0]
    assert back.states[:, 0] == pytest.approx([1.0 / 1.5, 1.0], abs=1e-9)



def test_non_finite_start_or_span_is_refused():
    # r = inf gave a NaN first step, which no step-size test caught: the
    # orbit stepped forever
    field = RestrictedField(PrimarySystem.single())
    with pytest.raises(ValueError, match="finite state0 and t_span"):
        integrate_flow(field, [math.inf, 0.0, 0.0, 0.1], (0.0, 10.0))
    with pytest.raises(ValueError, match="finite state0 and t_span"):
        integrate_flow(field, [5.0, 0.0, 0.0, 0.1], (0.0, math.inf))


class _NanField:
    """A field whose every value is NaN; it stops a runaway orbit itself."""

    def __init__(self):
        self.calls = 0

    def rhs(self, t, state):
        self.calls += 1
        if self.calls > 10_000:
            raise RuntimeError("the integrator kept stepping on NaN")
        return [math.nan] * len(state)


def test_nan_step_raises_step_underflow():
    # the starting step of a NaN field is NaN, and NaN < min_step is false
    with pytest.raises(StepUnderflow, match="10 ulp"):
        integrate_flow(_NanField(), [1.0, 2.0], (0.0, 1.0))


# ------------------------------------------------------- the generated step


def _coupled_rhs(t, y):
    # nonlinear, coupled across the components and in t; any finite input
    # gives a value (overflow runs into inf and NaN, never into an error)
    n = len(y)
    return [math.tanh(y[(i + 1) % n]) * yi - yi * yi / 7.0 + math.sin(t) * (i + 1)
            for i, yi in enumerate(y)]


def _hex(values):
    return [float.hex(float(v)) for v in values]


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(y=st.lists(st.one_of(st.floats(-10.0, 10.0), _any_float), min_size=1, max_size=6),
       t=st.floats(-1e3, 1e3), h=st.one_of(st.floats(-1.0, 1.0), st.floats(-1e6, 1e6)),
       tol=st.floats(1e-14, 1e-2))
def test_generated_step_equals_loop_reference_bit_for_bit(y, t, h, tol):
    f = _coupled_rhs(t, y)
    y_new, ks, err = _stepper(len(y))(_coupled_rhs, t, y, f, h, tol, tol * 1e-2)
    want_y, want_ks = reference_dp_step(_coupled_rhs, t, y, f, h)
    assert _hex(y_new) == _hex(want_y)
    assert [_hex(k) for k in ks] == [_hex(k) for k in want_ks]
    assert float.hex(err) == float.hex(reference_error_norm(y, want_y, want_ks, h, tol, tol * 1e-2))


@pytest.mark.parametrize("n", [1, 4, 6])
def test_generated_step_holds_no_values(n):
    # the tableau enters the generated step through its namespace: its
    # constants are those of the formulas alone
    assert {repr(c) for c in _stepper(n).__code__.co_consts} <= {"None", "0.0"}


class _Counting:
    """Forwards ``rhs`` to a field and counts the calls."""

    def __init__(self, field):
        self.field, self.calls = field, 0

    def rhs(self, t, state):
        self.calls += 1
        return self.field.rhs(t, state)


@pytest.mark.parametrize("t_eval", [None, [0.5, 2.0, 7.5]], ids=["steps", "t_eval"])
def test_nfev_counts_every_rhs_call(t_eval):
    # two calls to start, then six per attempted step: the seventh stage is
    # the next step's first (FSAL), so the count the traced replay reads is exact
    field = _Counting(RestrictedField(PrimarySystem.circular_binary()))
    orbit = integrate_flow(field, [1.5, 0.2, -0.3, 1.1], (0.0, 8.0), tol=1e-10, t_eval=t_eval)
    assert field.calls == orbit.meta["nfev"]
    assert (field.calls - 2) % 6 == 0
    if t_eval is None:  # some step was rejected and tried again
        assert (field.calls - 2) // 6 > len(orbit) - 1


# ------------------------------------------------------------ forked calls


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_forked_call_returns_value_and_raises_error(monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    with _ForkedCall(divmod, 17, 5) as call:
        assert call.result() == (3, 2)
    with _ForkedCall(integrate_flow, RestrictedField(PrimarySystem.single(mass=1.0)),
                     [1.0, 0.0, -0.5, 0.0], (0.0, 50.0), tol=1e-10) as call:
        with pytest.raises(StepUnderflow, match="10 ulp"):
            call.result()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_forked_call_forks_a_single_threaded_process(monkeypatch):
    # conftest.py keeps numpy's BLAS to one thread; with more, os.fork warns on 3.12+
    threads, real_fork = [], os.fork

    def fork():
        with open("/proc/self/status") as fh:
            threads.extend(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with _ForkedCall(divmod, 17, 5) as call:
        assert call.result() == (3, 2)
    assert threads == [1]


def test_forked_call_killed_child_is_an_error():
    with _ForkedCall(lambda: os.kill(os.getpid(), signal.SIGKILL)) as call:
        with pytest.raises(ParatoriError, match=f"wait status {signal.SIGKILL}"):
            call.result()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def test_forked_call_unpicklable_error_arrives_as_its_repr():
    def fail():
        raise _Unpicklable()

    with _ForkedCall(fail) as call:
        with pytest.raises(ParatoriError, match=r"_Unpicklable\('holds a lock'\)"):
            call.result()


def test_forked_call_error_in_caller_kills_child():
    with pytest.raises(KeyError):
        with _ForkedCall(signal.pause):
            raise KeyError("the caller's work")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_forked_child_dies_with_its_killed_parent(sig):
    # a parent killed inside the block never reaches __exit__; the child holds
    # the parent's stdout, so the pipe's EOF says that the child is gone too
    code = (
        "import os, time; from paratori.dynamics import _ForkedCall\n"
        "with _ForkedCall(time.sleep, 30) as call:\n"
        "    print(call._pid, flush=True)\n"
        f"    os.kill(os.getpid(), {int(sig)})\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", code], env=src_env(),
                            stdout=subprocess.PIPE, text=True)
    child = int(proc.stdout.readline())
    try:
        proc.communicate(timeout=2)
    except subprocess.TimeoutExpired:
        os.kill(child, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the child {child} outlived its killed parent by 2 s")
    assert proc.returncode == -sig


def test_forked_child_leaves_inherited_stdout_unflushed():
    # text buffered in the parent's sys.stdout at the fork is written once,
    # by the parent: the child leaves without flushing its copy
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)  # the text must sit in the buffer
    code = (
        "import sys; from paratori.dynamics import _ForkedCall\n"
        "sys.stdout.write('buffered|')\n"
        "with _ForkedCall(sum, (1, 2)) as call:\n"
        "    print(call.result())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "buffered|3\n"
