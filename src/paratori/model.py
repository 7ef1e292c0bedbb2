"""Model containers for parabolic skew-product maps and quasiperiodic fields.

A map model is

    x  ->  x - a(theta) x^N + f(x, y, theta)
    y  ->  y + x^(N-1) B(theta) y + g(x, y, theta)
    th ->  th + omega + h(x, y, theta)

with f, g of order N and h of order P, whose degree-N parts f_N, g_N satisfy
f_N(x,0)=0, g_N(x,0)=0 and D_y g_N(x,0)=0.  Each of f, g and h is one jet.
The flow form replaces the first two right-hand sides by time derivatives
and allows quasiperiodic time dependence through d' extra angles with
frequency nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, HypothesisViolation
from .fourier import FourierSeries, FrequencyVector, sd_solve_flow, sd_solve_map
from .jet import Jet, SkewMap, evaluate_jets

__all__ = [
    "MapModel",
    "FlowModel",
    "SkewField",
    "ReducedMap",
    "ReducedField",
    "validate",
    "model_from",
]

_B_EIG_FLOOR = 1e-9
_STRUCT_TOL = 1e-12
_CLAMP_TOL = 1e-11  # relative size of forbidden-slot roundoff model_from drops
_TORUS_RULE = {"map": "a map lives on T^len(omega) and takes no nu",
               "flow": "a flow lives on T^(len(omega) + len(nu))"}


@dataclass
class _Reduced:
    """Reduced dynamics -a_bar x^N [+ b x^(2N-1)] with constant angle corrections.

    ``theta_terms`` maps an x-order to a length-d vector of real constants
    (nonempty only when P < N in the source model).
    """

    N: int
    a_bar: float
    b: float | None = None
    theta_terms: dict[int, tuple[float, ...]] = field(default_factory=dict)

    _x_identity = {}  # {1: 1.0} for a map, whose x-component starts with x

    def x_poly_coeffs(self) -> dict[int, float]:
        out = {**self._x_identity, self.N: -self.a_bar}
        if self.b is not None:
            out[2 * self.N - 1] = out.get(2 * self.N - 1, 0.0) + self.b
        return out

    def x_value(self, x):
        acc = type(x)(0)
        for l, c in self.x_poly_coeffs().items():
            acc = acc + c * x ** l
        return acc

    def x_jet(self, deg: int, model: _ModelBase) -> Jet:
        terms = {(l, ()): c for l, c in self.x_poly_coeffs().items()}
        return Jet(0, deg, model.dim, model.order_cap, terms)

    def theta_jets(self, deg: int, model: _ModelBase):
        return tuple(
            Jet(0, deg, model.dim, model.order_cap,
                {(order, ()): vec[r] for order, vec in self.theta_terms.items() if vec[r]})
            for r in range(model.d)
        )


@dataclass
class ReducedMap(_Reduced):
    """R(x, theta) = (x - a_bar x^N [+ b x^(2N-1)], theta + omega + corrections)."""

    _x_identity = {1: 1.0}

    def as_param(self, deg: int, model: MapModel):
        """The reduced dynamics R of a solution of ``model``: an m = 0 SkewMap
        on its torus, turning by the model's rotation, for jet composition."""
        return SkewMap(
            x=self.x_jet(deg, model), y=(),
            theta_dev=self.theta_jets(deg, model), rot=model.freq.omega,
        )


@dataclass
class ReducedField(_Reduced):
    """Y(x) = (-a_bar x^N [+ b x^(2N-1)], omega + corrections)."""


@dataclass
class _ModelBase:
    N: int
    P: int
    m: int
    freq: FrequencyVector
    order_cap: int
    a: FourierSeries
    B: tuple[tuple[FourierSeries, ...], ...]
    f: Jet
    g: tuple[Jet, ...]
    h: tuple[Jet, ...]
    declared_P: int | None = None
    params: tuple[float, ...] = ()

    @classmethod
    def build(
        cls,
        N: int,
        P: int,
        freq: FrequencyVector,
        a: FourierSeries,
        m: int,
        order_cap: int,
        B: Sequence[Sequence[FourierSeries]] | None = None,
        f: Jet | None = None,
        g: Sequence[Jet] | None = None,
        h: Sequence[Jet] | None = None,
        deg: int | None = None,
        params: Sequence[float] = (),
    ):
        """Assemble a model, checking the orders of f, g and h.

        ``f``/``g``/``h`` hold everything except the structural monomials
        (-a x^N, x^(N-1) B y).  Each is stored with its degree-N (for h,
        degree-P) terms first, and P > N is folded to P = N after h is
        checked against the declared P.  The torus of ``a`` must be omega's
        for a map and (omega, nu)'s for a flow, and ``h`` must hold one jet
        per entry of omega, else HypothesisViolation names the sizes.
        """
        dim, d, d_time = a.dim, len(freq.omega), len(freq.nu)
        if d + d_time != dim or (cls.kind == "map" and d_time):
            raise HypothesisViolation(f"a {cls.kind} model on T^{dim} with len(omega) = {d} and "
                                      f"len(nu) = {d_time}: " + _TORUS_RULE[cls.kind])
        deg = deg if deg is not None else max(N, P) + 4
        zero = Jet(m, deg, dim, order_cap)
        f = f if f is not None else zero
        g = tuple(g) if g is not None else (zero,) * m
        h = tuple(h) if h is not None else (zero,) * d
        if len(g) != m:
            raise DimensionMismatch(f"expected {m} component jets, got {len(g)}")
        if len(h) != d:
            raise HypothesisViolation(f"h holds {len(h)} jets, not one per entry of omega ({d})")
        bad = _low_order_terms(f, g, h, N, P)
        if bad:
            raise HypothesisViolation("; ".join(bad))
        declared_P = P if P > N else None
        P = min(P, N)
        if B is None:
            B = [[FourierSeries(dim, order_cap) for _ in range(m)] for _ in range(m)]

        def lead_first(j: Jet, order: int) -> Jet:
            """j with its degree-``order`` terms first, the others after them
            in their order: jet sums and products iterate in term order,
            which fixes how they round."""
            terms = sorted(j.terms.items(), key=lambda t: t[0][0] + sum(t[0][1]) != order)
            return j._like(dict(terms))

        return cls(
            N=N,
            P=P,
            m=m,
            freq=freq,
            order_cap=order_cap,
            a=a,
            B=tuple(tuple(row) for row in B),
            f=lead_first(f, N),
            g=tuple(lead_first(j, N) for j in g),
            h=tuple(lead_first(j, P) for j in h),
            declared_P=declared_P,
            params=tuple(params),
        )

    @property
    def dim(self) -> int:
        """Torus dimension carried by the coefficient series."""
        return self.a.dim

    @property
    def d(self) -> int:
        """Number of state angles, the entries of omega."""
        return len(self.freq.omega)

    def sd_solve(self, h: FourierSeries, divisor_floor: float = 1e-12) -> FourierSeries:
        """The small-divisor solve of this kind: the difference equation for
        a map, the derivative equation along (omega, nu) for a flow."""
        solve = sd_solve_map if self.kind == "map" else sd_solve_flow
        return solve(h, self.freq, divisor_floor)

    @property
    def a_bar(self) -> float:
        return self.a.average().real

    @property
    def a_osc(self) -> FourierSeries:
        return self.a.oscillatory()

    def B_bar(self) -> np.ndarray:
        return np.array(
            [[self.B[i][j].average().real for j in range(self.m)] for i in range(self.m)]
        )

    def B_osc(self) -> list[list[FourierSeries]]:
        return [[self.B[i][j].oscillatory() for j in range(self.m)] for i in range(self.m)]

    def native_degree(self) -> int:
        degs = [self.N, self.P]
        for j in (self.f, *self.g, *self.h):
            for (l, k) in j.terms:
                degs.append(l + sum(k))
        return max(degs)

    def coefficient_scale(self) -> float:
        """Crude magnitude of the model data, for relative tolerances."""
        s = self.a.strip_norm() + sum(
            self.B[i][j].strip_norm() for i in range(self.m) for j in range(self.m)
        )
        for j in (self.f, *self.g, *self.h):
            s += j.norm()
        return max(s, 1.0)

    def _components(self, deg: int):
        """(x - a x^N + f, y_i + x^(N-1) (B y)_i + g_i, h_r) at working degree
        ``deg``, where x and y_i are the identity for a map and zero for a
        field, and r runs over the state angles."""
        m, dim, cap = self.m, self.dim, self.order_cap
        if self.kind == "map":
            x, ys = Jet.var_x(m, deg, dim, cap), [Jet.var_y(i, m, deg, dim, cap) for i in range(m)]
        else:
            x, ys = Jet(m, deg, dim, cap), [Jet(m, deg, dim, cap)] * m
        x = x - Jet.monomial(self.N, (0,) * m, self.a, m, deg, dim, cap)
        x = x + self.f.truncated(deg)
        out_y = []
        for i, yi in enumerate(ys):
            for j in range(m):
                kj = tuple(1 if t == j else 0 for t in range(m))
                yi = yi + Jet.monomial(self.N - 1, kj, self.B[i][j], m, deg, dim, cap)
            out_y.append(yi + self.g[i].truncated(deg))
        return x, tuple(out_y), tuple(j.truncated(deg) for j in self.h)


@dataclass
class MapModel(_ModelBase):
    """Skew-product map in the parabolic normal form around the torus."""

    kind: str = "map"

    def as_skew(self, deg: int) -> SkewMap:
        """The full map as a SkewMap at the requested working degree."""
        x, ys, dev = self._components(deg)
        return SkewMap(x=x, y=ys, theta_dev=dev, rot=self.freq.omega)


@dataclass
class SkewField:
    """Vector field in skew form: components are jets in (x, y) on T^(d+d')."""

    x: Jet
    y: tuple[Jet, ...]
    theta_dev: tuple[Jet, ...]
    omega: tuple[float, ...]
    nu: tuple[float, ...]

    @property
    def m(self) -> int:
        return self.x.m

    def rhs(self, t, state, dtype=complex):
        """Right-hand side at state = (x, y_1..y_m, theta_1..theta_d)."""
        m, d = self.m, len(self.omega)
        x = state[0]
        y = tuple(state[1 : 1 + m])
        th = tuple(state[1 + m : 1 + m + d])
        ang = th + tuple(v * t for v in self.nu)
        v = evaluate_jets((self.x, *self.y, *self.theta_dev), x, y, ang, dtype)
        out = [u.real for u in v[:1 + m]] + [self.omega[r] + v[1 + m + r].real for r in range(d)]
        return np.array(out, dtype=float)

    def derivative_along(self, w: Jet) -> Jet:
        """The Lie derivative of the function w(x, y, theta) along the field:
        X_x w_x + sum X_y_i w_y_i + L w + sum X_theta_r w_theta_r, where L is
        the derivative along (omega, nu); zero angle deviations are skipped."""
        acc = self.x.jet_mul(w.derivative_x())
        for i, yi in enumerate(self.y):
            acc = acc + yi.jet_mul(w.derivative_y(i))
        acc = acc + w.directional_theta(self.omega + self.nu)
        for r, dev in enumerate(self.theta_dev):
            if not dev.is_zero():
                acc = acc + w.derivative_theta(r).jet_mul(dev)
        return acc


@dataclass
class FlowModel(_ModelBase):
    """Quasiperiodic vector field in the parabolic normal form.

    Coefficients live on T^(d+d'); the last d' angles are time angles
    advancing with frequency nu and are never state variables.
    """

    kind: str = "flow"

    def as_field(self, deg: int) -> SkewField:
        x, ys, dev = self._components(deg)
        return SkewField(
            x=x, y=ys, theta_dev=dev,
            omega=tuple(self.freq.omega), nu=tuple(self.freq.nu),
        )


# ----------------------------------------------------------------- validate


def _slot(comp: str, l: int, k: tuple[int, ...], N: int, P: int, is_map: bool = False) -> str:
    """The normal-form slot of x^l y^k in component ``comp`` ("x", "y" or
    "theta"): "identity" (a map's x at (1, 0), y_i at (0, e_j)), "a" (x at
    (N, 0)), "B" (y_i at (N-1, e_j)), "zero" (y_i at (N, 0)), "below" (order
    under N, for theta under P) or "tail" (a term of f, g or h)."""
    order = l + sum(k)
    if comp == "theta":
        return "below" if order < P else "tail"
    if is_map and (l, order) == ((1, 1) if comp == "x" else (0, 1)):
        return "identity"
    if comp == "y" and l == N - 1 and order == N:
        return "B"
    if order < N:
        return "below"
    if (l, order) == (N, N):
        return "a" if comp == "x" else "zero"
    return "tail"


def _low_order_terms(f: Jet, g, h, N: int, P: int) -> list[str]:
    """The components of f and g with terms below degree N, of h below degree P."""
    parts = [("f", "x", f)] + [(f"g[{i}]", "y", j) for i, j in enumerate(g)]
    parts += [(f"h[{r}]", "theta", j) for r, j in enumerate(h)]
    return [f"{name} has terms below degree {'P' if comp == 'theta' else 'N'}"
            for name, comp, j in parts if any(_slot(comp, l, k, N, P) == "below" for l, k in j.terms)]


def _structural_violations(model: _ModelBase) -> list[str]:
    tol = _STRUCT_TOL * model.coefficient_scale()
    violated = {  # by a term of f or g in the slot of a, of the structural zero or of B
        "a": "f_N(x,0,theta) != 0: monomial x^{l}",
        "zero": "g_N[{i}](x,0,theta) != 0: monomial x^{l}",
        "B": "D_y g_N(x,0,theta) != 0: monomial (l={l}, k={k}) in component {i}",
    }
    out = _low_order_terms(model.f, model.g, model.h, model.N, model.P)
    for comp, i, j in [("x", None, model.f)] + [("y", i, g) for i, g in enumerate(model.g)]:
        for (l, k), s in j.terms.items():
            msg = violated.get(_slot(comp, l, k, model.N, model.P))
            if msg and s.strip_norm() > tol:
                out.append(msg.format(l=l, k=k, i=i))
    return out


def validate(model: _ModelBase) -> list[str]:
    """Check hypotheses (i)-(v) plus the spectral conditions; return violations."""
    out = []
    if model.N < 2:
        out.append(f"N = {model.N} < 2")
    if model.P < 1:
        out.append(f"P = {model.P} < 1")
    if model.P > model.N:
        out.append(f"internal P = {model.P} > N (folding failed)")
    out.extend(_structural_violations(model))

    sym = model.a.real_symmetry_defect()
    scale = model.coefficient_scale()
    if sym > 1e-10 * scale:
        out.append(f"a(theta) not real-symmetric (defect {sym:.2e})")
    abar = model.a.average()
    if abs(abar.imag) > 1e-10 * scale:
        out.append("average of a is not real")
    if abar.real <= 0:
        out.append(f"hypothesis a_bar > 0 fails: a_bar = {abar.real:.6g}")
    if model.m:
        Bbar = model.B_bar()
        # Gershgorin: each eigenvalue's real part is at least the least diagonal
        # entry less its row's off-diagonal moduli; only when that bound does not
        # clear the floor (or is NaN) are the eigenvalues computed
        diag = np.diag(Bbar)
        if not np.min(diag - np.abs(Bbar - np.diag(diag)).sum(axis=1)) > _B_EIG_FLOOR:
            least = np.min(np.linalg.eigvals(Bbar).real)
            if least <= _B_EIG_FLOOR:
                out.append(f"hypothesis Re Spec(B_bar) > 0 fails: min Re eig = {least:.3e}")
    a_const = model.a_osc.strip_norm() <= 1e-14 * scale
    B_const = all(
        model.B[i][j].oscillatory().strip_norm() <= 1e-14 * scale
        for i in range(model.m)
        for j in range(model.m)
    )
    if not (a_const and B_const):
        if not (model.freq.k_max_checked >= 1 and math.isfinite(model.freq.c_estimate)
                and model.freq.c_estimate > 0):
            out.append(
                "omega has no Diophantine certificate and a or B depends on theta"
            )
    return out


# ---------------------------------------------------------------- extract


def model_from(
    obj: SkewMap | SkewField,
    N: int,
    P: int,
    freq: FrequencyVector,
    order_cap: int,
    params=(),
) -> MapModel | FlowModel:
    """Re-extract a model from a SkewMap (a MapModel) or a SkewField (a FlowModel).

    A map's linear part must be the identity, as after a conjugation; a
    field's linear slots must vanish.  Coefficients sitting in structurally
    forbidden slots below ``_CLAMP_TOL`` (relative to the jet scale) are
    dropped as conjugation roundoff.
    """
    is_map = isinstance(obj, SkewMap)
    m, dim, deg = obj.m, obj.x.dim, obj.x.deg
    zk = (0,) * m
    if is_map:
        scale = max(obj.x.norm(), 1.0)
        tol = _CLAMP_TOL * scale
        lin = obj.x.coeff(1, zk)
        if abs(lin.average() - 1.0) > 1e-9 or lin.oscillatory().strip_norm() > 1e-9 * scale:
            raise HypothesisViolation("x-component linear part is not x after conjugation")
        # every slot, so that a missing y_i term (y_i -> 0 y_i + ...) is caught
        for i, yi in enumerate(obj.y):
            for t in range(m):
                s = yi.coeff(0, tuple(1 if q == t else 0 for q in range(m)))
                if t == i:
                    s = s - FourierSeries.constant(1.0, dim, order_cap)
                if s.strip_norm() > tol:
                    raise HypothesisViolation("y-component linear part is not the identity")
    else:
        tol = _CLAMP_TOL * max(obj.x.norm() + sum(j.norm() for j in obj.y), 1.0)

    a = -obj.x.coeff(N, zk)
    B = [[FourierSeries(dim, order_cap) for _ in range(m)] for _ in range(m)]
    errors = {
        ("x", "below"): "x-component has a low-order term at {key}",
        ("y", "below"): "y[{i}] has a low-order term at {key}",
        ("y", "zero"): "y[{i}] violates the structural zeros of g_N at {key}",
        ("theta", "below"): "theta[{i}] has a term below degree P",
    }
    tails = {}  # component -> the tail jet of each of its entries
    for comp, jets in (("x", (obj.x,)), ("y", obj.y), ("theta", obj.theta_dev)):
        tails[comp] = []
        for i, j in enumerate(jets):
            kept = {}
            for (l, k), s in j.terms.items():
                slot = _slot(comp, l, k, N, P, is_map)
                if slot == "tail":
                    kept[(l, k)] = s
                elif slot == "B":
                    B[i][k.index(1)] = s
                elif (comp, slot) in errors and s.strip_norm() > tol:
                    raise HypothesisViolation(errors[comp, slot].format(i=i, key=(l, k)))
            tails[comp].append(Jet(m, deg, dim, order_cap, kept))

    return (MapModel if is_map else FlowModel).build(
        N=N, P=P, freq=freq, a=a, m=m, order_cap=order_cap, B=B,
        f=tails["x"][0], g=tails["y"], h=tails["theta"], deg=deg, params=params,
    )

