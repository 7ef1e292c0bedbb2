"""A posteriori numerical checks on computed manifolds.

The invariance error of a solution is re-evaluated from the full model
(pointwise, in extended precision), its decay order in x is fitted on a
log-log grid and compared against the declared targets; the reduced
dynamics is checked against the parabolic iteration bound on a sector.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundViolated, EscapedSector, WindowTooWide
from .cohomology import ManifoldSolution, invariance_error
from .jet import evaluate_jets

__all__ = [
    "OrderReport",
    "SectorReport",
    "fit_error_orders",
    "fit_error_orders_auto",
    "sector_decay_check",
]

_CDT = np.clongdouble
_WINDOW_SHIFT = 2.5  # fit_error_orders_auto's factor on both window edges
_MAX_SHIFTS = 4


@dataclass
class OrderReport:
    """Fitted decay exponents of the invariance error vs the targets."""

    fitted_slope: dict[str, float]
    target_order: dict[str, int]
    x_window: tuple[float, float]
    theta_samples: int
    slope_slack: float
    passes: dict[str, bool] = field(default_factory=dict)
    samples: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.passes:
            self.passes = {
                c: self.fitted_slope[c] >= self.target_order[c] - self.slope_slack
                for c in self.fitted_slope
            }

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def rows(self):
        """(component, slope, target, pass) records for structured output."""
        return [
            (c, self.fitted_slope[c], self.target_order[c], self.passes[c])
            for c in sorted(self.fitted_slope)
        ]


def _theta_grid(d: int, n: int):
    """The n^d grid points k/n on T^d as an (n^d, d) array."""
    if d == 0:
        return np.zeros((1, 0))
    axes = [np.arange(n) / n for _ in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _cabs(v):
    """|v| in double precision, bit for bit as ``abs(complex(v))`` pointwise
    (``np.abs`` on complex arrays may round differently from ``hypot``)."""
    v = np.asarray(v, dtype=complex)
    return np.hypot(v.real, v.imag)


def _max_diff(pairs) -> float:
    """Largest |u - v| over every point of every (u, v) pair; 0 for no pairs."""
    return max((float(np.max(_cabs(u - v))) for u, v in pairs), default=0.0)


def _row(image, i):
    """Row i of an image (x', y'-list, theta'-list) evaluated for all x-samples."""
    vx, vy, vth = image
    return vx[i], [v[i] for v in vy], [v[i] for v in vth]


def _map_residuals(skew, K, R, xs, thetas):
    """Per x in ``xs``: the largest |F(K(x, th)) - K(R(x, th))| per component
    over the rows of ``thetas``, in extended precision, and the largest
    magnitude.

    K and R are evaluated on the fixed grid once for all x-samples, each from
    one phase table over the grid alone; so is K at R when R only rotates,
    because R's angles then do not move with x.
    """
    th = thetas.T
    xc = np.asarray(xs)[:, None]
    k = K.evaluate(xc, (), th, dtype=_CDT)
    rx, _, rth = R.evaluate(xc, (), th, dtype=_CDT)
    rotates = all(j.is_zero() for j in R.theta_dev)
    if rotates:  # every row of rth is the same
        kr = K.evaluate(rx, (), [t[0] for t in rth], dtype=_CDT)
    out = []
    for i in range(len(xs)):
        # K's angles move with x, so F at K takes one table per x-sample: a
        # table over every x-sample and grid point would be n_samples times as large
        fx, fy, fth = skew.evaluate(*_row(k, i), dtype=_CDT)
        gx, gy, gth = _row(kr, i) if rotates else K.evaluate(rx[i], (), [t[i] for t in rth], dtype=_CDT)
        mag = float(np.max(_cabs(fx) + _cabs(gx) + 1.0))
        out.append((_max_diff([(fx, gx)]), _max_diff(zip(fy, gy)), _max_diff(zip(fth, gth)), mag))
    return out


def _transport_jets(sol, K):
    """Per component of K, x first, then the y's and the angles: d/dx,
    L_(omega,nu) and d/dtheta_r for each angle r the reduced flow moves."""
    model = sol.model
    full = tuple(model.freq.omega) + tuple(model.freq.nu)
    moving = [r for r in range(model.d) if any(v[r] for v in sol.reduced.theta_terms.values())]

    def jets(j):
        return j.derivative_x(), j.directional_theta(full), {r: j.derivative_theta(r) for r in moving}

    return [jets(j) for j in (K.x, *K.y, *K.theta_dev)]


def _flow_residuals(fld, sol, K, tjets, xs, thetas):
    """As :func:`_map_residuals` for X(K) - DK Y - dK/dt; ``tjets`` is
    :func:`_transport_jets`.  K and the transported jets are evaluated on the
    grid once for all x-samples, X at K one x-sample at a time."""
    model = sol.model
    th = thetas.T
    xc = np.asarray(xs)[:, None]
    k = K.evaluate(xc, (), th, dtype=_CDT)
    values = iter(evaluate_jets([j for dx, dt, dth in tjets for j in (dx, dt, *dth.values())],
                                xc, (), th, _CDT))
    on_grid = [(next(values), next(values), {r: next(values) for r in dth}) for _, _, dth in tjets]
    out = []
    for i, x in enumerate(xs):
        X = evaluate_jets((fld.x, *fld.y, *fld.theta_dev), *_row(k, i), _CDT)
        yx = sol.reduced.x_value(_CDT(x))
        ydev = []
        for r in range(model.d):
            acc = _CDT(0)
            for order, vec in sol.reduced.theta_terms.items():
                if vec[r]:
                    acc = acc + _CDT(vec[r]) * _CDT(x) ** order
            ydev.append(acc)
        X[1 + model.m:] = [v - dev for v, dev in zip(X[1 + model.m:], ydev)]

        errs = []
        for Xc, (vx, vt, vth) in zip(X, on_grid):
            v = vx[i] * yx + vt[i]
            for r, w in vth.items():
                if ydev[r] != 0:
                    v = v + w[i] * ydev[r]
            errs.append(_max_diff([(Xc, v)]))
        mag = float(np.max(_cabs(X[0]) + abs(complex(yx)) + 1.0))
        out.append((errs[0], max(errs[1:1 + model.m], default=0.0),
                    max(errs[1 + model.m:], default=0.0), mag))
    return out


def _error_jet_norms(error, sol) -> dict[str, float]:
    """Norm of each component of the invariance error of ``sol``: ``error``,
    what it returns when it is a function, or built here when None."""
    if error is None:
        error = invariance_error(sol)
    ejet = error() if callable(error) else error
    return {
        "x": ejet.ex.norm(),
        "y": max((j.norm() for j in ejet.ey), default=0.0),
        "theta": max((j.norm() for j in ejet.eth), default=0.0),
    }


def fit_error_orders(
    sol: ManifoldSolution,
    x_window: tuple[float, float] = (1e-3, 1e-2),
    n_samples: int = 24,
    theta_samples: int = 16,
    slope_slack: float = 0.1,
    error=None,
) -> OrderReport:
    """Fit the decay order of the invariance residual of ``sol`` in its model.

    The residual is evaluated from the model itself (not the error jet),
    which also catches truncation and assembly bugs, at ``n_samples``
    log-spaced x values and a theta grid.  Raises :class:`WindowTooWide`
    when the residual sits at the rounding floor across the window.

    ``error`` is the invariance error of ``sol`` (``SolveResult.error``), or
    a function returning it, read only for a component with no sample above
    the floor; it is built then when not given.
    """
    model = sol.model
    targets = dict(zip(("x", "y", "theta"), sol.error_orders))
    if model.m == 0:
        targets.pop("y")
    lo, hi = x_window
    if not (0 < lo < hi):
        raise ValueError("x_window must satisfy 0 < lo < hi")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_samples))
    deg = sol.guard_degree
    K = sol.param(deg)
    thetas = _theta_grid(model.d, theta_samples)
    eps = float(np.finfo(np.longdouble).eps)

    if model.kind == "map":
        residuals = _map_residuals(model.as_skew(deg), K, sol.reduced.as_param(deg, model), xs, thetas)
    else:
        residuals = _flow_residuals(model.as_field(deg), sol, K, _transport_jets(sol, K), xs, thetas)
    rows = [{"x": float(x), "floor": float(60.0 * eps * mag), "e_x": ex, "e_y": ey, "e_theta": eth}
            for x, (ex, ey, eth, mag) in zip(xs, residuals)]

    jet_norm = None  # built only for a component with no sample above the floor
    jet_scale = max(model.coefficient_scale(), 1.0)

    slopes = {}
    for comp in targets:
        pts = [(r["x"], r["e_" + comp]) for r in rows if r["e_" + comp] > r["floor"]]
        if not pts:
            # a component whose error jet vanishes identically and whose numeric
            # residual sits at the floor everywhere satisfies any decay order
            jet_norm = jet_norm or _error_jet_norms(error, sol)
            if jet_norm[comp] <= 1e-13 * jet_scale:
                slopes[comp] = math.inf
                continue
        if len(pts) < max(4, n_samples // 3):
            raise WindowTooWide(
                f"component {comp}: residual at rounding floor across most of "
                f"[{lo:g}, {hi:g}]; shrink or shift the window upward"
            )
        lx, ly = (np.log([p[i] for p in pts]).tolist() for i in (0, 1))
        slopes[comp] = _slope(lx, ly)

    return OrderReport(
        fitted_slope=slopes,
        target_order=targets,
        x_window=(float(lo), float(hi)),
        theta_samples=theta_samples,
        slope_slack=slope_slack,
        samples=rows,
    )


def _slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs, sum dx dy / sum dx^2 about
    the means, each sum correctly rounded (``math.fsum``): its bits depend
    on neither the order of the points nor the host's BLAS."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return math.fsum(a * (y - my) for a, y in zip(dx, ys)) / math.fsum(a * a for a in dx)


def fit_error_orders_auto(sol, x_window=(1e-3, 1e-2), error=None, **kw):
    """Retry :func:`fit_error_orders`, shifting the window up by
    ``_WINDOW_SHIFT`` on each WindowTooWide, at most ``_MAX_SHIFTS`` times;
    without ``error`` the windows share one error jet, built on first need."""
    if error is None:
        error = functools.cache(functools.partial(invariance_error, sol))
    lo, hi = x_window
    for shift in range(_MAX_SHIFTS + 1):
        try:
            return fit_error_orders(sol, (lo, hi), error=error, **kw)
        except WindowTooWide:
            if shift == _MAX_SHIFTS:
                raise
            lo, hi = lo * _WINDOW_SHIFT, hi * _WINDOW_SHIFT


# ------------------------------------------------------------ sector bound


@dataclass
class SectorReport:
    steps: int
    eta: float
    beta: float
    rho: float
    min_slack: float
    max_slack: float
    final_abs: float
    ok: bool


def sector_decay_check(
    reduced,
    x0: complex,
    k_steps: int,
    eta: float,
    beta: float = math.pi / 3,
    rho: float = 0.1,
) -> SectorReport:
    """Assert the parabolic iteration bound along the reduced dynamics.

    Checks |R^k(x0)| <= |x0| / (1 + k (a-eta)(N-1) |x0|^(N-1))^(1/(N-1)) at
    every step and that iterates stay in the sector S(beta, rho); raises
    :class:`BoundViolated` / :class:`EscapedSector` with the failing step.
    """
    from .dynamics import iterate_reduced

    a = reduced.a_bar
    N = reduced.N
    if not (0.0 < eta < a):
        raise ValueError("need 0 < eta < a_bar")
    x0 = complex(x0)
    if abs(x0) > rho or abs(cmath.phase(x0)) >= beta / 2:
        raise EscapedSector(0, x0)
    alpha = 1.0 / (N - 1)
    r0 = abs(x0)
    iterates = iterate_reduced(reduced, x0, k_steps)
    min_slack = math.inf
    max_slack = -math.inf
    for k, xk in enumerate(iterates):
        bound = r0 / (1.0 + k * (a - eta) * (N - 1) * r0 ** (N - 1)) ** alpha
        slack = bound - abs(xk)
        if slack < 0:
            raise BoundViolated(k, abs(xk), bound)
        if abs(xk) > rho or abs(cmath.phase(xk)) >= beta / 2:
            raise EscapedSector(k, xk)
        min_slack = min(min_slack, slack)
        max_slack = max(max_slack, slack)
    return SectorReport(
        steps=k_steps, eta=eta, beta=beta, rho=rho,
        min_slack=float(min_slack), max_slack=float(max_slack),
        final_abs=float(abs(iterates[-1])), ok=True,
    )
