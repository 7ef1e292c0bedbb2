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

Averaging normalization removes the theta-dependence of a and B (by
conjugating a map, by pushing a field forward) and rescales so that the
averaged leading coefficient becomes 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolation,
    SingularB,
)
from .fourier import FourierSeries, FrequencyVector, sd_solve_flow, sd_solve_map
from .jet import Jet, SkewMap, _Substitution, compose, evaluate_jets, invert_x_jet

__all__ = [
    "MapModel",
    "FlowModel",
    "SkewField",
    "ReducedMap",
    "ReducedField",
    "ChangeLog",
    "validate",
    "model_from",
    "normalize",
]

_B_EIG_FLOOR = 1e-9
_STRUCT_TOL = 1e-12
_CLAMP_TOL = 1e-11  # relative size of forbidden-slot roundoff model_from drops


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

    def theta_jets(self, deg: int, model: _ModelBase, n_angles: int):
        return tuple(
            Jet(0, deg, model.dim, model.order_cap,
                {(order, ()): vec[r] for order, vec in self.theta_terms.items() if vec[r]})
            for r in range(n_angles)
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
            theta_dev=self.theta_jets(deg, model, model.dim), rot=model.state_rot,
        )


@dataclass
class ReducedField(_Reduced):
    """Y(x) = (-a_bar x^N [+ b x^(2N-1)], omega + corrections)."""


@dataclass
class _ModelBase:
    N: int
    P: int
    m: int
    d: int
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
        checked against the declared P.  A flow keeps the theta-components
        of its d state angles.
        """
        dim = a.dim
        deg = deg if deg is not None else max(N, P) + 4
        zero = Jet(m, deg, dim, order_cap)
        f = f if f is not None else zero
        g = tuple(g) if g is not None else (zero,) * m
        h = tuple(h) if h is not None else (zero,) * dim
        if len(g) != m:
            raise DimensionMismatch(f"expected {m} component jets, got {len(g)}")
        bad = _low_order_terms(f, g, h, N, P)
        if bad:
            raise HypothesisViolation("; ".join(bad))
        declared_P = P if P > N else None
        P = min(P, N)
        d = len(freq.omega)
        if B is None:
            B = [[FourierSeries(dim, order_cap) for _ in range(m)] for _ in range(m)]

        def lead_first(j: Jet, order: int) -> Jet:
            """j with its degree-``order`` terms first: jet sums and products
            iterate in term order, which fixes how they round."""
            return j.part_of_degree(order) + j.drop_below(order + 1)

        return cls(
            N=N,
            P=P,
            m=m,
            d=d,
            freq=freq,
            order_cap=order_cap,
            a=a,
            B=tuple(tuple(row) for row in B),
            f=lead_first(f, N),
            g=tuple(lead_first(j, N) for j in g),
            h=tuple(lead_first(j, P) for j in (h if cls.kind == "map" else h[:d])),
            declared_P=declared_P,
            params=tuple(params),
        )

    @property
    def dim(self) -> int:
        """Torus dimension carried by the coefficient series."""
        return self.a.dim

    @property
    def state_rot(self) -> tuple[float, ...]:
        """omega padded with zeros to the torus dimension: a map's rotation."""
        return tuple(self.freq.omega) + (0.0,) * (self.dim - len(self.freq.omega))

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
            x, n_angles = Jet.var_x(m, deg, dim, cap), dim
            ys = [Jet.var_y(i, m, deg, dim, cap) for i in range(m)]
        else:
            x, n_angles = Jet(m, deg, dim, cap), self.d
            ys = [Jet(m, deg, dim, cap)] * m
        x = x - Jet.monomial(self.N, (0,) * m, self.a, m, deg, dim, cap)
        x = x + self.f.truncated(deg)
        out_y = []
        for i, yi in enumerate(ys):
            for j in range(m):
                kj = tuple(1 if t == j else 0 for t in range(m))
                yi = yi + Jet.monomial(self.N - 1, kj, self.B[i][j], m, deg, dim, cap)
            out_y.append(yi + self.g[i].truncated(deg))
        dev = tuple(self.h[r].truncated(deg) for r in range(n_angles))
        return x, tuple(out_y), dev


@dataclass
class MapModel(_ModelBase):
    """Skew-product map in the parabolic normal form around the torus."""

    kind: str = "map"

    def as_skew(self, deg: int) -> SkewMap:
        """The full map as a SkewMap at the requested working degree."""
        x, ys, dev = self._components(deg)
        return SkewMap(x=x, y=ys, theta_dev=dev, rot=self.state_rot)


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
        v = evaluate_jets((self.x, *self.y, *self.theta_dev[:d]), x, y, ang, dtype)
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
        eigs = np.linalg.eigvals(Bbar)
        if np.min(eigs.real) <= _B_EIG_FLOOR:
            out.append(
                f"hypothesis Re Spec(B_bar) > 0 fails: min Re eig = {np.min(eigs.real):.3e}"
            )
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


# ---------------------------------------------------------------- normalize


@dataclass
class ChangeLog:
    """Record of the averaging changes, sufficient to map results back.

    ``T``, the composite change giving the old variables from the new, and
    its inverse ``T_inv`` are kept for maps and flows alike (None when no
    change was made).
    """

    c1: FourierSeries | None = None
    C2: list[list[FourierSeries]] | None = None
    mu: float = 1.0
    D: np.ndarray | None = None
    eps: float = 1.0
    T: SkewMap | None = None
    T_inv: SkewMap | None = None


def _x_change(A: Jet, A_inv: Jet, m: int) -> tuple[SkewMap, SkewMap]:
    """The pair x -> A(x, th) and x -> A_inv(x, th), y and th fixed, for a
    jet A in x alone and its compositional inverse A_inv."""
    zk = (0,) * m

    def change(j: Jet) -> SkewMap:
        T = SkewMap.identity(m, j.dim, j.deg, j.dim, j.order_cap)
        T.x = Jet(m, j.deg, j.dim, j.order_cap, {(l, zk): s for (l, _), s in j.terms.items()})
        return T
    return change(A), change(A_inv)


def _y_change(D: np.ndarray, C, N: int, deg: int, dim: int, cap: int) -> tuple[SkewMap, SkewMap]:
    """The pair y -> (D + C(th) x^(N-1)) y and its Neumann-series inverse
    sum_p (-D^-1 C x^(N-1))^p D^-1, truncated by the degree cap, x and th
    fixed; C = None gives the linear change y -> D y."""
    m = len(D)
    e = [tuple(1 if t == j else 0 for t in range(m)) for j in range(m)]

    def const(M):
        return [[FourierSeries.constant(float(M[i, j]), dim, cap) for j in range(m)] for i in range(m)]

    def mat_mul(Am, Bm):
        out = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                acc = FourierSeries(dim, cap)
                for t in range(m):
                    acc = acc + Am[i][t].series_mul(Bm[t][j])
                out[i][j] = acc
        return out

    def change(blocks) -> SkewMap:
        """y_i -> sum over l, j of M_ij x^l y_j for the blocks {l: M}."""
        T = SkewMap.identity(m, dim, deg, dim, cap)
        T.y = tuple(
            Jet(m, deg, dim, cap, {(l, e[j]): M[i][j] for l, M in blocks.items() for j in range(m)})
            for i in range(m)
        )
        return T

    fwd, inv = {0: const(D)}, {0: const(np.linalg.inv(D))}
    if C is not None:
        fwd[N - 1] = C
        step, power = mat_mul(inv[0], C), const(np.eye(m))
        for p in range(1, (deg - 1) // (N - 1) + 1):
            power = mat_mul(power, step)
            inv[p * (N - 1)] = [[s.scale((-1.0) ** p) for s in row] for row in mat_mul(power, inv[0])]
    return change(fwd), change(inv)


def _change_variables(obj: SkewMap | SkewField, T: SkewMap, T_inv: SkewMap, deg: int):
    """``obj`` in the new variables, where old = T(new) and new = T_inv(old):
    a map is conjugated, T^-1 o F o T, and a field is pushed forward, the
    time derivative of each component of T_inv along it with T substituted."""
    if isinstance(obj, SkewMap):
        return compose(compose(T_inv, obj, deg), T, deg)
    sub = _Substitution(T.x, T.y, (), None, deg).apply
    return SkewField(
        x=sub(obj.derivative_along(T_inv.x)), y=tuple(sub(obj.derivative_along(w)) for w in T_inv.y),
        theta_dev=tuple(sub(j) for j in obj.theta_dev), omega=obj.omega, nu=obj.nu,
    )


def normalize(
    model: MapModel | FlowModel,
    jordanize: bool = False,
    eps: float | None = None,
    deg: int | None = None,
    divisor_floor: float = 1e-12,
) -> tuple[MapModel | FlowModel, ChangeLog]:
    """Average away the theta-dependence of a and B and rescale a_bar to 1.

    The change is the composition of an x-shear killing the oscillatory
    part of a, a y-shear killing the oscillatory part of B, the scaling
    x -> mu x with mu = a_bar^(-1/(N-1)), and optionally a diagonalizing
    linear change of y and the scaling y -> eps y.  Each is a pair (T, T^-1)
    of skew maps with old = T(new); they are composed once into the change
    T and its inverse, and then a map is conjugated, T^-1 o F o T, or a
    field pushed forward.  The shear coefficients solve
    c1(th) - c1(th + omega) = a_osc and C2(th + omega) - C2(th) = B_osc for
    maps, L c1 = a_osc and L C2 = -B_osc for flows, where L is the
    derivative along (omega, nu).  With these signs x + c1 x^N and
    y + C2 x^(N-1) y are the old variables for a map but the new ones for
    a flow, whose shear pairs therefore enter swapped.  Returns the
    transformed model and a :class:`ChangeLog` with the individual
    ingredients and the composite change.
    """
    m, N, dim, cap = model.m, model.N, model.dim, model.order_cap
    deg = deg if deg is not None else model.native_degree()
    scale = model.coefficient_scale()
    is_map = model.kind == "map"
    log = ChangeLog()
    pairs = []  # (T, T^-1) of each change, old = T(new)

    def shear(pair):
        return pair if is_map else pair[::-1]  # a flow's shear gives new = T(old)

    # a map's x-shear solves against -a_osc, a flow's against a_osc; B_osc takes the other sign
    a_osc = model.a_osc
    if a_osc.strip_norm() > 1e-14 * scale:
        log.c1 = model.sd_solve(-a_osc if is_map else a_osc, divisor_floor)
        A = Jet.var_x(0, deg, dim, cap) + Jet.monomial(N, (), log.c1, 0, deg, dim, cap)
        pairs.append(shear(_x_change(A, invert_x_jet(A, deg), m)))

    B_osc = model.B_osc()
    if any(s.strip_norm() > 1e-14 * scale for row in B_osc for s in row):
        log.C2 = [[model.sd_solve(s if is_map else -s, divisor_floor) for s in row] for row in B_osc]
        pairs.append(shear(_y_change(np.eye(m), log.C2, N, deg, dim, cap)))

    abar = model.a_bar
    if abar <= 0:
        raise HypothesisViolation("normalize requires a_bar > 0 for the x-scaling")
    if abs(abar - 1.0) > 1e-15:
        log.mu = abar ** (-1.0 / (N - 1))
        pairs.append(_x_change(Jet.monomial(1, (), log.mu, 0, deg, dim, cap),
                               Jet.monomial(1, (), 1.0 / log.mu, 0, deg, dim, cap), m))

    if jordanize and m:
        Bbar = model.B_bar() * (log.mu ** (N - 1))
        w, V = np.linalg.eig(Bbar)
        if np.max(np.abs(w.imag)) > 1e-12 or np.linalg.cond(V) > 1e8:
            raise SingularB(
                "B_bar is not real-diagonalizable within tolerance; "
                "Jordanization with complex or defective spectra is not supported"
            )
        log.D = V.real
        pairs.append(_y_change(log.D, None, N, deg, dim, cap))

    if eps is not None and eps != 1.0:
        log.eps = float(eps)
        pairs.append(_y_change(np.eye(m) * eps, None, N, deg, dim, cap))

    obj = model.as_skew(deg) if is_map else model.as_field(deg)
    if pairs:
        log.T, log.T_inv = pairs[0]
        for T, T_inv in pairs[1:]:
            log.T = compose(log.T, T, deg)
            log.T_inv = compose(T_inv, log.T_inv, deg)
        obj = _change_variables(obj, log.T, log.T_inv, deg)
    out = model_from(obj, N, model.P, model.freq, model.order_cap, params=model.params)
    out.declared_P = model.declared_P
    return out, log
