"""Order-by-order construction of the parabolic manifold parameterization.

The engine solves the semiconjugacy F o K = K o R (maps) or
X o K = DK Y + dK/dt (flows) one order at a time.  At step j the previous
invariance error E is computed exactly at jet level, its leading
coefficients are read off, and the three cohomological blocks are solved:

* y-block:      Kbar_y^j   = -(Bbar + j abar)^(-1) avg(E_y),
                Ktil_y     = SD(Bosc Kbar_y + osc(E_y));
* theta-block:  P = N uses the free Kbar_theta^(j-1) to kill the average,
                P < N absorbs it into a constant correction of R_theta;
* x-block:      psi collects the known terms; at j = N its average becomes
                the invariant b (the x^(2N-1) coefficient of R), otherwise
                it determines Kbar_x^j; the oscillatory part is solved by SD.

After every step the full error is recomputed and its vanishing orders are
asserted; a failure raises OrderRegression rather than continuing with a
corrupted expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    HypothesisViolation,
    OrderRegression,
    SingularBlock,
)
from .fourier import FourierSeries
from .jet import (
    Jet,
    SkewMap,
    _Substitution,
    compose,
    evaluate_jets,
)
from .model import FlowModel, MapModel, ReducedField, ReducedMap, SkewField, validate

__all__ = [
    "FreeChoicePolicy",
    "ManifoldSolution",
    "ErrorJet",
    "SolveResult",
    "base_step",
    "extend_order",
    "invariance_error",
    "solve_manifold",
    "conjugate_normal_form",
]

# condition number above which (B_bar + j a_bar Id) counts as singular
_INVERSE_CAP = 1e12


@dataclass
class FreeChoicePolicy:
    """Values for the constants the cohomological equations leave free.

    ``kbar_x_at_N`` fixes Kbar_x^N (free exactly at step j = N);
    ``kbar_theta`` maps a step j to the free Kbar_theta^(j-1) vector used
    when P < N.  Zeros keep the expansion minimal and deterministic.
    """

    kbar_x_at_N: float = 0.0
    kbar_theta: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def theta_choice(self, j: int, d: int) -> tuple[float, ...]:
        return tuple(self.kbar_theta.get(j, (0.0,) * d))


@dataclass
class ErrorJet:
    """Invariance error split into components, with declared vanishing orders."""

    ex: Jet
    ey: tuple[Jet, ...]
    eth: tuple[Jet, ...]
    declared: tuple[int, int, int]

    def _below_order(self):
        """(component, l, norm) for every x^l coefficient below the declared orders."""
        dx, dy, dth = self.declared
        for comp, jets, order in (
            ("x", (self.ex,), dx), ("y", self.ey, dy), ("theta", self.eth, dth)
        ):
            for j in jets:
                for l in range(order):
                    yield comp, l, j.coeff(l).strip_norm()

    def below_order_norms(self) -> dict[str, float]:
        """Largest coefficient norm sitting below each declared order."""
        out = {"x": 0.0, "y": 0.0, "theta": 0.0}
        for comp, _, n in self._below_order():
            out[comp] = max(out[comp], n)
        return out

    def order_violations(self, tol: float) -> list[tuple[str, int, float]]:
        return [(comp, l, n) for comp, l, n in self._below_order() if n > tol]

    def sample(self, xs, thetas, dtype=complex):
        """Numeric values of the error jet on a grid, max over components."""
        jets = (self.ex, *self.ey, *self.eth)
        return [max([0.0] + [abs(v) for th in thetas for v in evaluate_jets(jets, x, (), th, dtype)])
                for x in xs]


@dataclass
class ManifoldSolution:
    """The split coefficients of K^(j) plus the reduced dynamics R of ``model``.

    K and R mean nothing apart from the model they solve F o K = K o R
    (or its flow form) for, so the solution reads its shape, its rotation
    and its kind from that model and keeps no copy of them.

    Averaged coefficients are stored as reals (vectors for y/theta), the
    oscillatory ones as FourierSeries keyed by their x-order, matching the
    slot structure of the expansion:

        K_x     = x + sum Kbar_x^l x^l + sum Ktil_x^(l+N-1) x^(l+N-1)
        K_y     =     sum Kbar_y^l x^l + sum Ktil_y^(l+N-1) x^(l+N-1)
        K_theta = th + sum Kbar_th^l x^l + sum Ktil_th^(l+P-1) x^(l+P-1)
    """

    model: MapModel | FlowModel
    j: int
    kbar_x: dict[int, float] = field(default_factory=dict)
    ktil_x: dict[int, FourierSeries] = field(default_factory=dict)
    kbar_y: dict[int, tuple[float, ...]] = field(default_factory=dict)
    ktil_y: dict[int, list[FourierSeries]] = field(default_factory=dict)
    kbar_th: dict[int, tuple[float, ...]] = field(default_factory=dict)
    ktil_th: dict[int, list[FourierSeries]] = field(default_factory=dict)
    reduced: ReducedMap | ReducedField | None = None
    free_choices: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        """The model's number of state angles (the benchmark's traced replay
        reads it to count verification points)."""
        return self.model.d

    @property
    def error_orders(self) -> tuple[int, int, int]:
        """The orders (x, y, theta) below which the step-j invariance error vanishes."""
        j, N, P = self.j, self.model.N, self.model.P
        return (j + N, j + N, min(j + P - 1, j + N - 1))

    @property
    def guard_degree(self) -> int:
        """The step-j error's degree j + N + 1: all the next step and the guard read."""
        return self.j + self.model.N + 1

    def copy_shallow(self) -> "ManifoldSolution":
        red = self.reduced
        if red is not None:
            red = replace(red, theta_terms=dict(red.theta_terms))
        return replace(
            self, kbar_x=dict(self.kbar_x), ktil_x=dict(self.ktil_x),
            kbar_y=dict(self.kbar_y), ktil_y=dict(self.ktil_y),
            kbar_th=dict(self.kbar_th), ktil_th=dict(self.ktil_th),
            reduced=red, free_choices=dict(self.free_choices),
        )

    def param(self, deg: int) -> SkewMap:
        """Assemble the parameterization K as an m = 0 SkewMap at working degree."""
        model = self.model
        dim, cap = model.dim, model.order_cap

        def jet(start, kbar, ktil):
            """One x-jet from its averaged and oscillatory tables; a slot in
            both holds the constant plus the series, in that order."""
            terms = dict(start)
            slots = [(l, FourierSeries.constant(c, dim, cap)) for l, c in kbar.items() if c]
            slots += [(o, s) for o, s in ktil.items() if not s.is_zero()]
            for l, s in slots:
                terms[(l, ())] = terms[(l, ())] + s if (l, ()) in terms else s
            return Jet(0, deg, dim, cap, terms)

        def column(table, i):
            return {key: row[i] for key, row in table.items()}

        kx = jet(Jet.var_x(0, deg, dim, cap).terms, self.kbar_x, self.ktil_x)
        ys = tuple(jet({}, column(self.kbar_y, i), column(self.ktil_y, i)) for i in range(model.m))
        devs = tuple(jet({}, column(self.kbar_th, r), column(self.ktil_th, r)) for r in range(model.d))
        return SkewMap(x=kx, y=ys, theta_dev=devs, rot=(0.0,) * dim)

    def coefficient_norm(self) -> float:
        s = sum(abs(c) for c in self.kbar_x.values())
        s += sum(t.strip_norm() for t in self.ktil_x.values())
        s += sum(abs(v) for vec in self.kbar_y.values() for v in vec)
        s += sum(t.strip_norm() for row in self.ktil_y.values() for t in row)
        s += sum(abs(v) for vec in self.kbar_th.values() for v in vec)
        s += sum(t.strip_norm() for row in self.ktil_th.values() for t in row)
        return s


# --------------------------------------------------------------- error jets


def invariance_error(sol: ManifoldSolution, deg: int | None = None) -> ErrorJet:
    """Exact jet-level invariance error of a solution of its model.

    Maps: E = F o K - K o R.  Flows: E = X o K - DK Y - dK/dt, with the
    time derivative acting on the trailing d' torus angles with frequency nu.
    """
    model = sol.model
    deg = deg if deg is not None else sol.guard_degree
    declared = sol.error_orders
    K = sol.param(deg)
    if model.kind == "map":
        F = model.as_skew(deg)
        R = sol.reduced.as_param(deg, model)
        FK = compose(F, K, deg)
        KR = compose(K, R, deg)
        return ErrorJet(
            ex=FK.x - KR.x,
            ey=tuple(a - b for a, b in zip(FK.y, KR.y)),
            eth=tuple(a - b for a, b in zip(FK.theta_dev, KR.theta_dev)),
            declared=declared,
        )

    X = model.as_field(deg)
    Y = SkewField(
        x=sol.reduced.x_jet(deg, model), y=(),
        theta_dev=sol.reduced.theta_jets(deg, model, model.d),
        omega=tuple(model.freq.omega), nu=tuple(model.freq.nu),
    )
    sub = _Substitution(K.x, K.y, K.theta_dev, None, deg).apply
    ex = sub(X.x) - Y.derivative_along(K.x)
    eys = tuple(sub(X.y[i]) - Y.derivative_along(K.y[i]) for i in range(model.m))
    eths = tuple(
        sub(X.theta_dev[r]) - Y.theta_dev[r] - Y.derivative_along(K.theta_dev[r])
        for r in range(model.d)
    )
    return ErrorJet(ex=ex, ey=eys, eth=eths, declared=declared)


def _order_guard(sol, err: ErrorJet, order_tolerance: float):
    scale = sol.model.coefficient_scale() * max(1.0, sol.coefficient_norm()) ** 2
    bad = err.order_violations(order_tolerance * scale)
    if bad:
        comp, order, norm = bad[0]
        raise OrderRegression(comp, order, norm, order_tolerance * scale)


# ---------------------------------------------------------------- the steps


def base_step(model, divisor_floor: float = 1e-12) -> ManifoldSolution:
    """First-order solution: K_x = x + Ktil_x^N(theta) x^N, R_x = x - abar x^N.

    The oscillatory coefficient solves the difference (or derivative)
    equation against the oscillatory part of a; with constant a it is zero.
    """
    bad = validate(model)
    if bad:
        raise HypothesisViolation("; ".join(bad))
    N, a_osc = model.N, model.a_osc
    reduced = ReducedMap if model.kind == "map" else ReducedField
    sol = ManifoldSolution(model=model, j=1, reduced=reduced(N=N, a_bar=model.a_bar))
    if not a_osc.is_zero():
        sol.ktil_x[N] = -model.sd_solve(a_osc, divisor_floor)
    return sol


def _real_average(series: FourierSeries, what: str) -> float:
    avg = series.average()
    scale = max(series.strip_norm(), 1.0)
    if abs(avg.imag) > 1e-9 * scale:
        raise HypothesisViolation(
            f"average of {what} has imaginary part {avg.imag:.3e}; "
            "model data is not real-symmetric"
        )
    return avg.real


def extend_order(
    sol: ManifoldSolution,
    E_prev: ErrorJet,
    choices: FreeChoicePolicy | None = None,
    divisor_floor: float = 1e-12,
    order_tolerance: float = 1e-9,
) -> tuple[ManifoldSolution, ErrorJet]:
    """One induction step j-1 -> j; returns the new solution and its error.

    ``E_prev`` must be the invariance error of ``sol`` (its leading
    coefficients are the data of the cohomological equations).  The new
    error is recomputed exactly, at the guard degree j + N + 1, and checked
    against the declared orders.
    """
    choices = choices or FreeChoicePolicy()
    model = sol.model
    j = sol.j + 1
    N, P, m, d = model.N, model.P, model.m, model.d
    abar = model.a_bar
    a_osc = model.a_osc
    new = sol.copy_shallow()
    new.j = j
    ox, _, oth = sol.error_orders  # the leading orders of E_prev

    # ---- y block
    kbar_y = np.zeros(m)
    if m:
        Ey = [e.coeff(ox) for e in E_prev.ey]
        Ey_avg = np.array([_real_average(s, f"E_y[{i}]") for i, s in enumerate(Ey)])
        M = model.B_bar() + j * abar * np.eye(m)
        if np.linalg.cond(M) > _INVERSE_CAP:
            raise SingularBlock(
                f"(B_bar + {j} a_bar Id) is singular within cap at step {j}"
            )
        kbar_y = -np.linalg.solve(M, Ey_avg)
        new.kbar_y[j] = tuple(kbar_y)
        row = []
        B_osc = model.B_osc()
        for i in range(m):
            rhs = Ey[i].oscillatory()
            for t in range(m):
                if kbar_y[t] and not B_osc[i][t].is_zero():
                    rhs = rhs + B_osc[i][t].scale(kbar_y[t])
            row.append(model.sd_solve(rhs, divisor_floor) if not rhs.is_zero()
                       else FourierSeries(model.dim, model.order_cap))
        new.ktil_y[ox] = row

    # ---- theta block
    kbar_th = np.zeros(d)
    r_th_new = None
    if d:
        Eth = [e.coeff(oth) for e in E_prev.eth]
        Eth_avg = np.array([_real_average(s, f"E_theta[{r}]") for r, s in enumerate(Eth)])
        if P == N:
            kbar_th = -Eth_avg / ((j - 1) * abar)
            new.kbar_th[j - 1] = tuple(kbar_th)
        else:
            r_th_new = tuple(Eth_avg)
            if any(Eth_avg):
                new.reduced.theta_terms[oth] = r_th_new
            kbar_th = np.array(choices.theta_choice(j, d))
            if any(kbar_th):
                new.kbar_th[j - 1] = tuple(kbar_th)
                # a new table, so that ``sol`` keeps its own choices
                new.free_choices["kbar_theta"] = {
                    **sol.free_choices.get("kbar_theta", {}), j - 1: tuple(kbar_th)}
        row = []
        for r in range(d):
            rhs = Eth[r].oscillatory()
            row.append(model.sd_solve(rhs, divisor_floor) if not rhs.is_zero()
                       else FourierSeries(model.dim, model.order_cap))
        new.ktil_th[oth] = row

    # ---- x block
    psi = E_prev.ex.coeff(ox)
    if d and any(kbar_th):
        for r in range(d):
            da = model.a.derivative(r)
            if kbar_th[r] and not da.is_zero():
                psi = psi - da.scale(kbar_th[r])
    if m:
        e_i = [tuple(1 if t == i else 0 for t in range(m)) for i in range(m)]
        for i in range(m):
            f_lin = model.f.coeff(N - 1, e_i[i])
            if kbar_y[i] and not f_lin.is_zero():
                psi = psi + f_lin.scale(kbar_y[i])
    if P == 1 and d:
        ktn = sol.ktil_x.get(N)
        for r in range(d):
            if r_th_new is not None and r_th_new[r] and ktn is not None:
                dk = ktn.derivative(r)
                if model.kind == "map":
                    dk = dk.rotate(model.state_rot)
                psi = psi - dk.scale(r_th_new[r])
            da = model.a.derivative(r)
            kth_t = new.ktil_th.get(oth)
            if kth_t is not None and not da.is_zero() and not kth_t[r].is_zero():
                psi = psi - da.series_mul(kth_t[r])

    psi_avg = _real_average(psi, "psi")
    psi_osc = psi.oscillatory()
    if j == N:
        kx = choices.kbar_x_at_N
        new.reduced.b = psi_avg
        if kx:
            new.kbar_x[j] = kx
        new.free_choices["kbar_x_N"] = kx
    else:
        kx = -psi_avg / ((j - N) * abar)
        if kx:
            new.kbar_x[j] = kx
    rhs = psi_osc
    if kx and not a_osc.is_zero():
        rhs = rhs - a_osc.scale(N * kx)
    if not rhs.is_zero():
        new.ktil_x[ox] = model.sd_solve(rhs, divisor_floor)

    err = invariance_error(new)
    _order_guard(new, err, order_tolerance)
    return new, err


# ------------------------------------------------------------------ drivers


@dataclass
class SolveResult:
    solution: ManifoldSolution
    error: ErrorJet
    per_order: list[dict]

    @property
    def b(self) -> float | None:
        return self.solution.reduced.b


def solve_manifold(
    model,
    order: int,
    choices: FreeChoicePolicy | None = None,
    divisor_floor: float = 1e-12,
    order_tolerance: float = 1e-9,
    callback: Callable | None = None,
) -> SolveResult:
    """Run the engine to the requested order.

    Step j computes its invariance error at its own guard degree j + N + 1,
    which holds every coefficient the next step reads and the guard checks,
    so the last step's error, ``SolveResult.error``, is at order + N + 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sol = base_step(model, divisor_floor)
    err = invariance_error(sol)
    _order_guard(sol, err, order_tolerance)
    diags = [_diag_entry(sol, err)]
    if callback:
        callback(sol, err)
    for _ in range(2, order + 1):
        sol, err = extend_order(
            sol, err, choices,
            divisor_floor=divisor_floor,
            order_tolerance=order_tolerance,
        )
        diags.append(_diag_entry(sol, err))
        if callback:
            callback(sol, err)
    return SolveResult(solution=sol, error=err, per_order=diags)


def _diag_entry(sol, err) -> dict:
    ox, oy, oth = err.declared
    lead = {
        "x": err.ex.coeff(ox).strip_norm(),
        "y": max((j.coeff(oy).strip_norm() for j in err.ey), default=0.0),
        "theta": max((j.coeff(oth).strip_norm() for j in err.eth), default=0.0),
    }
    return {
        "j": sol.j,
        "below_order": err.below_order_norms(),
        "leading": lead,
        "b": sol.reduced.b,
    }


def conjugate_normal_form(
    model: MapModel,
    order: int | None = None,
    choices: FreeChoicePolicy | None = None,
    **kw,
) -> tuple[float, SkewMap, SolveResult]:
    """Conjugation invariant b and conjugating jet for an m = 0 map model.

    Requires P >= N at build time (folded internally); running beyond order
    N never changes b, which is returned together with the conjugation.
    """
    if model.m != 0:
        raise HypothesisViolation("conjugate_normal_form requires m = 0")
    order = max(model.N, order or model.N)
    res = solve_manifold(model, order, choices, **kw)
    K = res.solution.param(order + model.N)
    return res.solution.reduced.b, K, res
