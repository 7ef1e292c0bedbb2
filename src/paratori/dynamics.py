"""Trajectory generation: map iteration and adaptive integration of fields.

Map orbits store theta unwrapped (lifted to the reals) so continuity
diagnostics stay meaningful; Fourier evaluation is periodic, so no wrapping
is needed numerically.  Flows go through scipy's embedded RK5(4) pair with
dense output; a fixed-step variant (tolerances opened up, step pinned by
max_step) backs the convergence-order test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepUnderflow

__all__ = [
    "Orbit",
    "iterate_map",
    "iterate_reduced",
    "integrate_flow",
    "integrate_fixed_step",
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
    require_positive_x: bool = False,
    deg: int | None = None,
) -> Orbit:
    """k-step orbit of the full skew map; stops early (flagged) on exit.

    ``state0`` is (x, y_1..y_m, theta_1..theta_d); theta components are
    stored unwrapped.
    """
    skew = model.as_skew(deg if deg is not None else model.native_degree())
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
        if (
            abs(xnew) > domain_radius
            or ynorm > domain_radius
            or (require_positive_x and xnew < 0.0)
        ):
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


def integrate_flow(
    field,
    state0,
    t_span,
    tol: float = 1e-10,
    t_eval=None,
    max_step: float = math.inf,
    method: str = "RK45",
) -> Orbit:
    """Adaptive embedded Runge-Kutta orbit of anything with .rhs(t, state).

    Dense output is kept so callers can resample; integration failure
    (typically a collision-driven step collapse) raises StepUnderflow.
    """
    from scipy.integrate import solve_ivp  # slow to import, and only flows need it

    y0 = np.asarray(state0, dtype=float)
    sol = solve_ivp(
        field.rhs,
        tuple(t_span),
        y0,
        method=method,
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
        max_step=max_step,
        dense_output=True,
    )
    if not sol.success:
        raise StepUnderflow(f"integrator stopped: {sol.message}")
    orbit = Orbit(
        times=sol.t,
        states=sol.y.T.copy(),
        meta={
            "kind": "flow",
            "integrator": method,
            "tol": tol,
            "nfev": int(sol.nfev),
        },
    )
    orbit.meta["dense"] = sol.sol
    return orbit


def integrate_fixed_step(field, state0, t_end: float, h: float, method: str = "RK45") -> Orbit:
    """Fixed-step run of the same pair (error control opened wide).

    Used by the convergence-order test: halving h must shrink the error by
    the pair's order.
    """
    from scipy.integrate import solve_ivp

    y0 = np.asarray(state0, dtype=float)
    sol = solve_ivp(
        field.rhs,
        (0.0, float(t_end)),
        y0,
        method=method,
        rtol=1e9,
        atol=1e9,
        first_step=h,
        max_step=h,
    )
    if not sol.success:
        raise StepUnderflow(f"integrator stopped: {sol.message}")
    return Orbit(
        times=sol.t,
        states=sol.y.T.copy(),
        meta={"kind": "flow-fixed", "h": h, "integrator": method},
    )
