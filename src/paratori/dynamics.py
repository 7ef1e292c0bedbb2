"""Trajectory generation: map iteration and adaptive integration of fields.

Map orbits store theta unwrapped (lifted to the reals) so continuity
diagnostics stay meaningful; Fourier evaluation is periodic, so no wrapping
is needed numerically.  Flows go through a Dormand–Prince 5(4) stepper on
Python floats with RK45's step control and dense output at requested times.
The step and its error norm are generated once per state length as
straight-line code, with the same float operations in the same order as
the loops over the components that they replace, so they keep those loops'
bits.
``_ForkedCall`` runs an independent call, such as a second orbit, in a
forked child beside the caller's own work.
"""

from __future__ import annotations

import _thread
import math
import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParatoriError, StepUnderflow

__all__ = [
    "Orbit",
    "iterate_map",
    "iterate_reduced",
    "integrate_flow",
]


@dataclass
class Orbit:
    """A sampled trajectory: rows of (x, y..., theta...) or raw field state."""

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)
    early_stop: int | None = None

    def __len__(self) -> int:
        return len(self.times)


def iterate_map(
    model,
    state0,
    k: int,
    domain_radius: float = math.inf,
) -> Orbit:
    """k-step orbit of the full skew map; stops early (flagged) on exit.

    ``state0`` is (x, y_1..y_m, theta_1..theta_d); theta components are
    stored unwrapped; the map is applied at the model's native degree.
    """
    skew = model.as_skew(model.native_degree())
    m = model.m
    d = model.dim
    state = [float(v) for v in state0]
    if len(state) != 1 + m + d:
        raise ValueError(f"state of length {len(state)}, expected {1 + m + d}")
    rows = [list(state)]
    early = None
    for step in range(1, k + 1):
        x, y, th = state[0], state[1 : 1 + m], state[1 + m :]
        fx, fy, fth = skew.evaluate(x, y, th)
        state = [fx.real] + [v.real for v in fy] + [v.real for v in fth]
        rows.append(list(state))
        xnew = state[0]
        ynorm = math.sqrt(sum(v * v for v in state[1 : 1 + m]))
        if abs(xnew) > domain_radius or ynorm > domain_radius:
            early = step
            break
    return Orbit(
        times=np.arange(len(rows), dtype=float),
        states=np.array(rows, dtype=float),
        meta={"kind": "map", "steps": k, "domain_radius": domain_radius},
        early_stop=early,
    )


def iterate_reduced(reduced, x0: complex, k: int) -> np.ndarray:
    """Iterates of the reduced x-dynamics (shared with the sector check)."""
    out = np.empty(k + 1, dtype=complex)
    out[0] = complex(x0)
    for i in range(k):
        out[i + 1] = reduced.x_value(out[i])
    return out


# Dormand–Prince 5(4) (Hairer, Nørsett, Wanner, *Solving Ordinary Differential
# Equations I*, §II.4–5), as in scipy's RK45: the nodes of stages 2–5 (stages 6
# and 7 sit at t + h), the rows of the tableau, the weights B of the 5th-order
# state, the error weights E = b - b_hat over the seven stages (the last is the
# FSAL stage) and the 4th-order dense output P.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # the 4th-order estimate's error scales as h^5


@lru_cache(maxsize=None)
def _stepper(n: int):
    """``step(rhs, t, y, f, h, rtol, atol)`` for states of length n: one
    Dormand–Prince step of size h from (t, y), where f = rhs(t, y).

    It returns the 5th-order state at t + h, the seven stages (the last,
    rhs(t + h, y_new), is the next step's first: FSAL) and the RMS of the
    embedded error estimate over atol + max(|y|, |y_new|) rtol.  The code is
    straight-line, the components unrolled, because over an orbit's 10^4
    steps loops over them cost more than their arithmetic.  It performs the
    float operations of ``reference_dp_step`` and ``reference_error_norm``
    (``tests/oracles.py``) in the same order, so it keeps their bits.  The
    tableau enters through the factory's arguments, not as text.
    """
    values = {"sqrt": math.sqrt, "root_n": n ** 0.5}
    values.update((f"C{s}", c) for s, c in enumerate(_C, 2))
    values.update((f"A{s}{j}", a) for s, row in enumerate(_A, 2) for j, a in enumerate(row, 1))
    values.update((f"B{j}", b) for j, b in enumerate(_B, 1) if b)
    values.update((f"E{j}", e) for j, e in enumerate(_E, 1) if e)

    def names(prefix):
        return ", ".join(f"{prefix}_{i}" for i in range(n))

    def weighted(prefix, weights, i):
        return " + ".join(f"{prefix}{j} * k{j}_{i}" for j, w in enumerate(weights, 1) if w)

    lines = [f"[{names('y')}] = y", f"[{names('k1')}] = f"]
    for s, row in enumerate(_A, 2):
        at = f"t + C{s} * h" if s <= len(_C) + 1 else "t + h"
        args = ", ".join(f"y_{i} + ({weighted(f'A{s}', row, i)}) * h" for i in range(n))
        lines += [f"k{s} = rhs({at}, [{args}])", f"[{names(f'k{s}')}] = k{s}"]
    lines += [f"z_{i} = y_{i} + h * ({weighted('B', _B, i)})" for i in range(n)]
    lines += [f"y_new = [{names('z')}]", "k7 = rhs(t + h, y_new)", f"[{names('k7')}] = k7", "total = 0.0"]
    for i in range(n):
        # max(|y_i|, |z_i|) as max() picks it: the second only if it is larger
        lines += [f"a = abs(y_{i})", f"b = abs(z_{i})",
                  f"v = ({weighted('E', _E, i)}) * h / (atol + (b if b > a else a) * rtol)",
                  "total += v * v"]
    lines.append("return y_new, (f, k2, k3, k4, k5, k6, k7), sqrt(total) / root_n")
    source = "\n".join([f"def make({', '.join(values)}):",
                         "    def step(rhs, t, y, f, h, rtol, atol):",
                         *("        " + line for line in lines),
                         "    return step"])
    namespace = {}
    exec(source, namespace)
    return namespace["make"](**values)


def _rms(values: list) -> float:
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol) -> float:
    """RK45's starting step (Hairer, Nørsett, Wanner §II.4); one rhs call."""
    span = abs(t_end - t0)
    if span == 0.0:
        return 0.0
    direction = 1.0 if t_end > t0 else -1.0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs(t0 + h0 * direction, [v + h0 * direction * w for v, w in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, span)


def _interpolate(y_old, ks, h, x):
    """The step's 4th-order dense output at the fraction x of the step."""
    powers = (x, x * x, x * x * x, x * x * x * x)
    out = []
    for i, yi in enumerate(y_old):
        q = [sum(k[i] * row[j] for k, row in zip(ks, _P)) for j in range(4)]
        out.append(yi + h * sum(qj * pj for qj, pj in zip(q, powers)))
    return out


def integrate_flow(
    field,
    state0,
    t_span,
    tol: float = 1e-10,
    t_eval=None,
) -> Orbit:
    """Adaptive Dormand–Prince 5(4) orbit of anything with .rhs(t, state).

    The step control is RK45's, with rtol = tol, atol = tol/100 and no
    upper bound on the step.  Without ``t_eval`` every accepted step is
    recorded; with it, each point is read from the dense output of the step
    that contains it.  A start or span that is not finite raises ValueError,
    and a step collapse (typically a collision) or a NaN step raises
    StepUnderflow.
    """
    rhs = field.rhs
    t0, t_end = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in state0]
    if not all(map(math.isfinite, [t0, t_end, *y])):
        raise ValueError(f"integrate_flow needs a finite state0 and t_span, not {y} over {(t0, t_end)}")
    direction = 1.0 if t_end >= t0 else -1.0
    rtol, atol = tol, tol * 1e-2
    samples = None if t_eval is None else [float(v) for v in t_eval]
    lo, hi = min(t0, t_end), max(t0, t_end)
    if samples is not None and not (
        all(lo <= s <= hi for s in samples)
        and all(direction * (b - a) > 0 for a, b in zip(samples, samples[1:]))
    ):
        raise ValueError("t_eval must lie in t_span, strictly ordered along it")

    t = t0
    step = _stepper(len(y))
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_end, rtol, atol)
    nfev = 2
    times, states = ([t], [y]) if samples is None else (samples, [])
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step too
                raise StepUnderflow(
                    f"integrator stopped at t = {t!r}: the step fell below "
                    f"10 ulp ({min_step:.3e})"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, ks, err = step(rhs, t, y, f, h, rtol, atol)
            nfev += 6
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(
                    _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        if samples is None:
            times.append(t_new)
            states.append(y_new)
        else:
            while len(states) < len(samples) and direction * (samples[len(states)] - t_new) <= 0:
                states.append(_interpolate(y, ks, h, (samples[len(states)] - t) / h))
        t, y, f = t_new, y_new, ks[-1]
    # only an empty span leaves points unsampled: all of them sit at t0
    states += [y] * (len(times) - len(states))
    return Orbit(
        times=np.array(times, dtype=float),
        states=np.array(states, dtype=float).reshape(len(times), len(y)),
        meta={"kind": "flow", "integrator": "RK45", "tol": tol, "nfev": nfev},
    )


def _pickled_call(fn, args, kw) -> bytes:
    """(True, value) or (False, exception) of fn(*args, **kw), pickled."""
    try:
        return pickle.dumps((True, fn(*args, **kw)))
    except BaseException as exc:  # every error goes back to the caller
        try:
            return pickle.dumps((False, exc))
        except Exception:
            error = ParatoriError(f"unpicklable error in a child process: {exc!r}")
            return pickle.dumps((False, error))


class _ForkedCall:
    """``fn(*args, **kw)`` in a forked child, beside the caller's own work.

    Use it as a context manager and call ``result()`` once inside: it reads
    the pickled outcome from a pipe to EOF, reaps the child, and returns the
    value or raises the child's exception.  Leaving the block without it
    (the caller's work raised) kills and reaps the child.  The child leaves
    only through ``os._exit``, so it never returns into the caller's
    frames, flushes no inherited stdio buffer and runs no atexit handler.
    The child dies with the caller: only the caller holds the write end of a
    second pipe, and a thread in the child, blocked reading it (so holding no
    GIL), ends the child at EOF.  Without ``os.fork`` the call runs in the
    caller, inside ``result()``.
    """

    def __init__(self, fn, *args, **kw):
        self._call, self._pid = (fn, args, kw), None
        if hasattr(os, "fork"):
            read, write = os.pipe()
            alive, self._alive = os.pipe()
            self._pid = os.fork()
            if self._pid == 0:
                code = 1
                try:
                    os.close(self._alive)
                    _thread.start_new_thread(lambda: (os.read(alive, 1), os._exit(1)), ())
                    with open(write, "wb") as pipe:
                        pipe.write(_pickled_call(fn, args, kw))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            os.close(alive)
            self._pipe = open(read, "rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pid:
            import signal  # only here: its enums cost 0.1 MB of peak RSS on every run

            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        self._pipe.close()
        pid, self._pid = self._pid, 0
        status = os.waitpid(pid, 0)[1]
        os.close(self._alive)
        return status

    def result(self):
        fn, args, kw = self._call
        if self._pid is None:
            return fn(*args, **kw)
        data = self._pipe.read()
        status = self._reap()
        if status or not data:
            raise ParatoriError(f"child process ended without a result (wait status {status})")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value
