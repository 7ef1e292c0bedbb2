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
from .jet import Jet, ParamMap, SkewMap, _Substitution, compose_skew_skew, evaluate_jets, invert_x_jet

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
    omega: tuple[float, ...]
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

    def x_jet(self, deg: int, dim: int, order_cap: int) -> Jet:
        terms = {(l, ()): c for l, c in self.x_poly_coeffs().items()}
        return Jet(0, deg, dim, order_cap, terms)

    def theta_jets(self, deg: int, dim: int, order_cap: int, n_angles: int):
        return tuple(
            Jet(0, deg, dim, order_cap,
                {(order, ()): vec[r] for order, vec in self.theta_terms.items() if vec[r]})
            for r in range(n_angles)
        )


@dataclass
class ReducedMap(_Reduced):
    """R(x, theta) = (x - a_bar x^N [+ b x^(2N-1)], theta + omega + corrections)."""

    _x_identity = {1: 1.0}

    def as_param(self, deg: int, dim: int, order_cap: int, n_angles: int | None = None):
        """The reduced dynamics as a ParamMap for jet composition."""
        n_angles = len(self.omega) if n_angles is None else n_angles
        rot = tuple(self.omega) + (0.0,) * (dim - len(self.omega))
        return ParamMap(
            x=self.x_jet(deg, dim, order_cap), y=(),
            theta_dev=self.theta_jets(deg, dim, order_cap, n_angles), rot=rot,
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
        zero = Jet.zero(m, deg, dim, order_cap)
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
            B = [[FourierSeries.zeros(dim, order_cap) for _ in range(m)] for _ in range(m)]

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

    def _components(self, x: Jet, ys, n_angles: int, deg: int):
        """(x - a x^N + f, y_i + x^(N-1) (B y)_i + g_i, h_r) at working degree
        ``deg``, from the given x and y jets (the identity for a map, zero
        for a field)."""
        m, dim, cap = self.m, self.dim, self.order_cap
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
        m, dim, cap = self.m, self.dim, self.order_cap
        x, ys, dev = self._components(
            Jet.var_x(m, deg, dim, cap),
            [Jet.var_y(i, m, deg, dim, cap) for i in range(m)],
            self.dim, deg,
        )
        rot = tuple(self.freq.omega) + (0.0,) * (dim - len(self.freq.omega))
        return SkewMap(x=x, y=ys, theta_dev=dev, rot=rot)


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

    def angle_point(self, theta, t: float):
        th = (theta,) if np.isscalar(theta) else tuple(theta)
        return tuple(th) + tuple(v * t for v in self.nu)

    def rhs(self, t, state, dtype=complex):
        """Right-hand side at state = (x, y_1..y_m, theta_1..theta_d)."""
        m, d = self.m, len(self.omega)
        x = state[0]
        y = tuple(state[1 : 1 + m])
        th = tuple(state[1 + m : 1 + m + d])
        ang = self.angle_point(th, t)
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
        m, dim, cap = self.m, self.dim, self.order_cap
        x, ys, dev = self._components(
            Jet.zero(m, deg, dim, cap), [Jet.zero(m, deg, dim, cap) for _ in range(m)],
            self.d, deg,
        )
        return SkewField(
            x=x, y=ys, theta_dev=dev,
            omega=tuple(self.freq.omega), nu=tuple(self.freq.nu),
        )


# ----------------------------------------------------------------- validate


def _low_order_terms(f: Jet, g, h, N: int, P: int) -> list[str]:
    """The components of f and g with terms below degree N, of h below degree P."""
    parts = [("f", f, "N", N)] + [(f"g[{i}]", j, "N", N) for i, j in enumerate(g)]
    parts += [(f"h[{r}]", j, "P", P) for r, j in enumerate(h)]
    return [f"{name} has terms below degree {what}" for name, j, what, order in parts
            if j.min_order() < order]


def _structural_violations(model: _ModelBase) -> list[str]:
    tol = _STRUCT_TOL * model.coefficient_scale()
    N, zero_k = model.N, (0,) * model.m
    out = _low_order_terms(model.f, model.g, model.h, N, model.P)
    for (l, k), s in model.f.part_of_degree(N).terms.items():
        if k == zero_k and s.strip_norm() > tol:
            out.append(f"f_N(x,0,theta) != 0: monomial x^{l}")
    for i, g in enumerate(model.g):
        for (l, k), s in g.part_of_degree(N).terms.items():
            if k == zero_k and s.strip_norm() > tol:
                out.append(f"g_N[{i}](x,0,theta) != 0: monomial x^{l}")
            if sum(k) == 1 and s.strip_norm() > tol:
                out.append(f"D_y g_N(x,0,theta) != 0: monomial (l={l}, k={k}) in component {i}")
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
    x_terms, y_terms = obj.x.terms, [j.terms for j in obj.y]
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
        x_terms = {key: s for key, s in x_terms.items() if key != (1, zk)}
        y_terms = [
            {(l, k): s for (l, k), s in terms.items() if (l, sum(k)) != (0, 1)}
            for terms in y_terms
        ]
    else:
        tol = _CLAMP_TOL * max(obj.x.norm() + sum(j.norm() for j in obj.y), 1.0)

    a = -obj.x.coeff(N, zk)
    f_all = {}
    for (l, k), s in x_terms.items():
        order = l + sum(k)
        if order < N:
            if s.strip_norm() > tol:
                raise HypothesisViolation(f"x-component has a low-order term at {(l, k)}")
        elif not (k == zk and order == N):
            f_all[(l, k)] = s
    f = Jet(m, deg, dim, order_cap, f_all)

    B = [[FourierSeries.zeros(dim, order_cap) for _ in range(m)] for _ in range(m)]
    gs = []
    for i, terms in enumerate(y_terms):
        g_all = {}
        for (l, k), s in terms.items():
            order = l + sum(k)
            if l == N - 1 and sum(k) == 1:
                B[i][k.index(1)] = s
            elif order < N:
                if s.strip_norm() > tol:
                    raise HypothesisViolation(f"y[{i}] has a low-order term at {(l, k)}")
            elif order == N and sum(k) <= 1:
                if s.strip_norm() > tol:
                    raise HypothesisViolation(
                        f"y[{i}] violates the structural zeros of g_N at {(l, k)}"
                    )
            else:
                g_all[(l, k)] = s
        gs.append(Jet(m, deg, dim, order_cap, g_all))

    hs = []
    for r, j in enumerate(obj.theta_dev):
        h_all = {}
        for (l, k), s in j.terms.items():
            if l + sum(k) >= P:
                h_all[(l, k)] = s
            elif s.strip_norm() > tol:
                raise HypothesisViolation(f"theta[{r}] has a term below degree P")
        hs.append(Jet(m, deg, dim, order_cap, h_all))

    return (MapModel if is_map else FlowModel).build(
        N=N, P=P, freq=freq, a=a, m=m, order_cap=order_cap,
        B=B, f=f, g=gs, h=hs, deg=deg, params=params,
    )


# ---------------------------------------------------------------- normalize


@dataclass
class ChangeLog:
    """Record of the averaging changes, sufficient to map results back.

    ``T`` and ``T_inv``, the composite change and its inverse, are kept for
    maps only.
    """

    c1: FourierSeries | None = None
    C2: list[list[FourierSeries]] | None = None
    mu: float = 1.0
    D: np.ndarray | None = None
    eps: float = 1.0
    T: SkewMap | None = None
    T_inv: SkewMap | None = None

    def is_identity(self) -> bool:
        return (
            self.c1 is None and self.C2 is None and self.mu == 1.0
            and self.D is None and self.eps == 1.0
        )


def _lift_x_jet(j: Jet, m: int) -> Jet:
    """View a single-variable jet as a jet in (x, y_1..y_m) constant in y."""
    return Jet(
        m, j.deg, j.dim, j.order_cap,
        {(l, (0,) * m): s for (l, k), s in j.terms.items()},
    )


def _skew_x_change(series_coeff: FourierSeries, N: int, m: int, deg: int) -> tuple[SkewMap, SkewMap]:
    """T(x,y,th) = (x + c(th) x^N, y, th) and its inverse."""
    dim, cap = series_coeff.dim, series_coeff.order_cap
    A = Jet.var_x(0, deg, dim, cap) + Jet.monomial(N, (), series_coeff, 0, deg, dim, cap)
    Ainv = invert_x_jet(A, deg)
    T = SkewMap.identity(m, dim, deg, dim, cap)
    T.x = _lift_x_jet(A, m)
    Ti = SkewMap.identity(m, dim, deg, dim, cap)
    Ti.x = _lift_x_jet(Ainv, m)
    return T, Ti


def _skew_y_change(C: list[list[FourierSeries]], N: int, m: int, deg: int) -> tuple[SkewMap, SkewMap]:
    """T(x,y,th) = (x, y + C(th) x^(N-1) y, th) and its Neumann-series inverse."""
    dim, cap = C[0][0].dim, C[0][0].order_cap
    T = SkewMap.identity(m, dim, deg, dim, cap)
    Ti = SkewMap.identity(m, dim, deg, dim, cap)
    e = [tuple(1 if t == j else 0 for t in range(m)) for j in range(m)]
    T.y = tuple(
        Jet(m, deg, dim, cap, {(0, e[i]): 1.0, **{(N - 1, e[j]): C[i][j] for j in range(m)}})
        for i in range(m)
    )
    # (I + C x^(N-1))^{-1} = sum_p (-C x^(N-1))^p, truncated by the degree cap
    p_max = max(0, (deg - 1) // (N - 1)) if N > 1 else 0

    def mat_mul(Am, Bm):
        out = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                acc = FourierSeries.zeros(dim, cap)
                for t in range(m):
                    acc = acc + Am[i][t].series_mul(Bm[t][j])
                out[i][j] = acc
        return out

    power = [
        [FourierSeries.constant(1.0 if i == j else 0.0, dim, cap) for j in range(m)]
        for i in range(m)
    ]
    inv_terms = [{(0, e[i]): 1.0} for i in range(m)]
    for p in range(1, p_max + 1):
        power = mat_mul(power, C)
        for i in range(m):
            for j in range(m):
                inv_terms[i][(p * (N - 1), e[j])] = power[i][j].scale((-1.0) ** p)
    Ti.y = tuple(Jet(m, deg, dim, cap, terms) for terms in inv_terms)
    return T, Ti


def _skew_linear_y(Dm: np.ndarray, m: int, deg: int, dim: int, cap: int) -> tuple[SkewMap, SkewMap]:
    T = SkewMap.identity(m, dim, deg, dim, cap)
    Ti = SkewMap.identity(m, dim, deg, dim, cap)
    Dinv = np.linalg.inv(Dm)
    e = [tuple(1 if t == j else 0 for t in range(m)) for j in range(m)]

    def lin(mat):
        return tuple(
            Jet(m, deg, dim, cap, {(0, e[j]): float(mat[i, j]) for j in range(m) if mat[i, j]})
            for i in range(m)
        )
    T.y = lin(Dm)
    Ti.y = lin(Dinv)
    return T, Ti


def _skew_x_scale(mu: float, m: int, deg: int, dim: int, cap: int) -> tuple[SkewMap, SkewMap]:
    T = SkewMap.identity(m, dim, deg, dim, cap)
    Ti = SkewMap.identity(m, dim, deg, dim, cap)
    T.x = Jet.monomial(1, (0,) * m, mu, m, deg, dim, cap)
    Ti.x = Jet.monomial(1, (0,) * m, 1.0 / mu, m, deg, dim, cap)
    return T, Ti


def _changes(m: int, N: int, deg: int, dim: int, cap: int):
    """The builder of each averaging change, as the pair (T, T^-1) of skew maps."""
    return {
        "x_shear": lambda c: _skew_x_change(c, N, m, deg),
        "y_shear": lambda C: _skew_y_change(C, N, m, deg),
        "x_scale": lambda mu: _skew_x_scale(mu, m, deg, dim, cap),
        "y_linear": lambda D: _skew_linear_y(D, m, deg, dim, cap),
    }


def _conjugate(skew: SkewMap, steps, N: int, deg: int, log: ChangeLog) -> SkewMap:
    """Apply each change T of ``steps`` as T^-1 o F o T; record the composite T in ``log``."""
    changes = _changes(skew.m, N, deg, skew.x.dim, skew.x.order_cap)
    for name, value in steps:
        T, Ti = changes[name](value)
        skew = compose_skew_skew(compose_skew_skew(Ti, skew, deg), T, deg)
        if log.T is None:
            log.T, log.T_inv = T, Ti
        else:
            log.T = compose_skew_skew(log.T, T, deg)
            log.T_inv = compose_skew_skew(Ti, log.T_inv, deg)
    return skew


def _push(fld: SkewField, W: SkewMap, S: SkewMap, deg: int) -> SkewField:
    """The field in the new variables (W.x, W.y), functions of the old (x, y, theta)
    whose inverse is (x, y) = (S.x, S.y): the time derivative of each new
    variable along the field, with S substituted in every component."""
    sub = _Substitution(S.x, S.y, (), None, S.m, deg, S.x.dim, S.x.order_cap).apply
    return SkewField(
        x=sub(fld.derivative_along(W.x)), y=tuple(sub(fld.derivative_along(w)) for w in W.y),
        theta_dev=tuple(sub(j) for j in fld.theta_dev), omega=fld.omega, nu=fld.nu,
    )


def _push_forward(fld: SkewField, steps, N: int, deg: int) -> SkewField:
    """Push the field forward under each change (T, T^-1) of ``steps``.

    A scaling or linear y-change acts as on a map, old = T(new), so the new
    variables are W = T^-1.  A shear's new variables are W = T: with
    w = x + c1 x^N the field gives dw/dt = (L c1 - a) x^N + ..., so the
    flow's c1 solves L c1 = +a_osc (and C2 solves L C2 = -B_osc), the sign
    its ``ChangeLog`` records; W = T^-1 would flip it.
    """
    changes = _changes(fld.m, N, deg, fld.x.dim, fld.x.order_cap)
    for name, value in steps:
        T, Ti = changes[name](value)
        fld = _push(fld, T, Ti, deg) if name in ("x_shear", "y_shear") else _push(fld, Ti, T, deg)
    return fld


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
    linear change of y and the scaling y -> eps y.  The same changes serve
    maps and flows: a map is conjugated, T^-1 o F o T, and a field is pushed
    forward.  The shear coefficients solve c1(th) - c1(th + omega) = a_osc
    and C2(th + omega) - C2(th) = B_osc for maps, L c1 = a_osc and
    L C2 = -B_osc for flows, where L is the derivative along (omega, nu).
    With these signs a map's shears give the old variables from the new,
    old = T(new), and a flow's shears give the new from the old,
    new = T(old); the scalings and the linear y-change give the old
    variables from the new for both kinds.  Returns the transformed model
    and a :class:`ChangeLog` with the individual ingredients (and, for a
    map, the composite change T and its inverse).
    """
    m, N = model.m, model.N
    deg = deg if deg is not None else model.native_degree()
    scale = model.coefficient_scale()
    is_map = model.kind == "map"
    sd_solve = sd_solve_map if is_map else sd_solve_flow
    sign = -1 if is_map else 1  # of a_osc in the x-shear equation; B_osc takes the other

    def sd(h, s):
        return sd_solve(-h if s < 0 else h, model.freq, divisor_floor)

    log = ChangeLog()
    steps = []
    a_osc = model.a_osc
    if a_osc.strip_norm() > 1e-14 * scale:
        log.c1 = sd(a_osc, sign)
        steps.append(("x_shear", log.c1))

    B_osc = model.B_osc()
    if any(s.strip_norm() > 1e-14 * scale for row in B_osc for s in row):
        log.C2 = [[sd(s, -sign) for s in row] for row in B_osc]
        steps.append(("y_shear", log.C2))

    abar = model.a_bar
    if abar <= 0:
        raise HypothesisViolation("normalize requires a_bar > 0 for the x-scaling")
    if abs(abar - 1.0) > 1e-15:
        log.mu = abar ** (-1.0 / (N - 1))
        steps.append(("x_scale", log.mu))

    if jordanize and m:
        Bbar = model.B_bar() * (log.mu ** (N - 1))
        w, V = np.linalg.eig(Bbar)
        if np.max(np.abs(w.imag)) > 1e-12 or np.linalg.cond(V) > 1e8:
            raise SingularB(
                "B_bar is not real-diagonalizable within tolerance; "
                "Jordanization with complex or defective spectra is not supported"
            )
        log.D = V.real
        steps.append(("y_linear", log.D))

    if eps is not None and eps != 1.0:
        log.eps = float(eps)
        steps.append(("y_linear", np.eye(m) * eps))

    if is_map:
        obj = _conjugate(model.as_skew(deg), steps, N, deg, log)
    else:
        obj = _push_forward(model.as_field(deg), steps, N, deg)
    out = model_from(obj, N, model.P, model.freq, model.order_cap, params=model.params)
    out.declared_P = model.declared_P
    return out, log
