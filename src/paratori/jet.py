"""Fourier-Taylor jets and their algebra.

A :class:`Jet` is a finite Taylor expansion in the normal variables
(x, y_1, ..., y_m) whose coefficients are :class:`~paratori.fourier.FourierSeries`
on a common torus.  Monomials are keyed by (l, k): x-power l and y-multi-power
k with l + |k| <= deg.

A :class:`SkewMap` is a tuple of jets for x', y' and the angle deviations,
plus a rotation: (x, y, theta) -> (x', y', theta + rot + dev).  With m = 0
it is a parameterization (x, theta) -> (x', y', theta'), the K and R of the
semiconjugacy F o K = K o R; with m > 0 it is a model map or a change of
variables.

Composition substitutes jets into jets; the theta-argument of the outer
object receives theta + rot + dev, realized by rotating its coefficient
series and Taylor-expanding in the deviation (series derivatives are exact
termwise, and deviations vanish at x = 0, so the expansion terminates at
the working degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegreeOverflow, DimensionMismatch
from .fourier import FourierSeries, evaluate_series

__all__ = [
    "Jet",
    "SkewMap",
    "evaluate_jets",
    "jet_compose",
    "compose",
    "invert_x_jet",
    "divide_by_x_plus_y",
]


class Jet:
    """Taylor expansion in (x, y) with FourierSeries coefficients.

    Parameters
    ----------
    m : int
        Number of y-variables (0 for jets in x alone).
    deg : int
        Maximum total degree l + |k| retained.
    dim, order_cap : int
        Torus parameters shared by every coefficient series.
    terms : mapping (l, k) -> FourierSeries, optional
        Sparse monomial table; absent means zero.
    """

    __slots__ = ("m", "deg", "dim", "order_cap", "terms")

    def __init__(self, m, deg, dim, order_cap, terms=None):
        self.m = int(m)
        self.deg = int(deg)
        self.dim = int(dim)
        self.order_cap = int(order_cap)
        table: dict[tuple[int, tuple[int, ...]], FourierSeries] = {}
        if terms:
            for (l, k), s in terms.items():
                k = tuple(int(v) for v in k)
                if len(k) != self.m:
                    raise DimensionMismatch(f"monomial {k} does not match m={self.m}")
                if l + sum(k) > self.deg:
                    continue
                if not isinstance(s, FourierSeries):
                    s = FourierSeries.constant(s, self.dim, self.order_cap)
                if (s.dim, s.order_cap) != (self.dim, self.order_cap):
                    raise DimensionMismatch("coefficient on the wrong torus or at the wrong cap")
                if not s.is_zero():
                    table[(int(l), k)] = s
        self.terms = table

    # ----------------------------------------------------------- builders

    @classmethod
    def monomial(cls, l, k, coeff, m, deg, dim, order_cap) -> "Jet":
        return cls(m, deg, dim, order_cap, {(l, tuple(k)): coeff})

    @classmethod
    def var_x(cls, m, deg, dim, order_cap) -> "Jet":
        return cls.monomial(1, (0,) * m, 1.0, m, deg, dim, order_cap)

    @classmethod
    def var_y(cls, i, m, deg, dim, order_cap) -> "Jet":
        k = tuple(1 if j == i else 0 for j in range(m))
        return cls.monomial(0, k, 1.0, m, deg, dim, order_cap)

    def _like(self, terms) -> "Jet":
        return Jet(self.m, self.deg, self.dim, self.order_cap, terms)

    def _check(self, other: "Jet"):
        if (self.m, self.dim, self.order_cap) != (other.m, other.dim, other.order_cap):
            raise DimensionMismatch("jets with incompatible m, torus dim or cap")

    # ------------------------------------------------------------ queries

    def coeff(self, l: int, k: Iterable[int] = ()) -> FourierSeries:
        s = self.terms.get((int(l), tuple(int(v) for v in k)))
        return s if s is not None else FourierSeries(self.dim, self.order_cap)

    def min_order(self) -> int:
        if not self.terms:
            return self.deg + 1
        return min(l + sum(k) for (l, k) in self.terms)

    def is_zero(self) -> bool:
        return not self.terms  # the constructor keeps no zero series

    def norm(self) -> float:
        """Sum of strip norms of every coefficient (a crude jet scale)."""
        return sum(s.strip_norm(0.0) for s in self.terms.values())

    def __repr__(self):
        return (
            f"Jet(m={self.m}, deg={self.deg}, dim={self.dim}, "
            f"terms={len(self.terms)})"
        )

    # ------------------------------------------------------------ algebra

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        out = dict(self.terms)
        for key, s in other.terms.items():
            cur = out.get(key)
            out[key] = s if cur is None else cur + s
        return Jet(self.m, min(self.deg, other.deg), self.dim, self.order_cap, out)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __neg__(self) -> "Jet":
        return self._like({key: -s for key, s in self.terms.items()})

    def scale(self, c) -> "Jet":
        """Multiply by a scalar or a FourierSeries (pointwise in theta)."""
        if isinstance(c, FourierSeries):
            return self._like({key: s.series_mul(c) for key, s in self.terms.items()})
        return self._like({key: s.scale(c) for key, s in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self.jet_mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def jet_mul(self, other: "Jet") -> "Jet":
        """Cauchy product in (x, y), pointwise product of coefficients."""
        self._check(other)
        deg = min(self.deg, other.deg)
        out: dict[tuple[int, tuple[int, ...]], FourierSeries] = {}
        for (l1, k1), s1 in self.terms.items():
            o1 = l1 + sum(k1)
            for (l2, k2), s2 in other.terms.items():
                if o1 + l2 + sum(k2) > deg:
                    continue
                key = (l1 + l2, tuple(a + b for a, b in zip(k1, k2)))
                prod = s1.series_mul(s2)
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return Jet(self.m, deg, self.dim, self.order_cap, out)

    def power(self, n: int) -> "Jet":
        if n < 0:
            raise ValueError("negative jet power")
        result = Jet.monomial(0, (0,) * self.m, 1.0, self.m, self.deg, self.dim, self.order_cap)
        base = self
        while n:
            if n & 1:
                result = result.jet_mul(base)
            base = base.jet_mul(base) if n > 1 else base
            n >>= 1
        return result

    def truncated(self, deg: int) -> "Jet":
        return Jet(self.m, deg, self.dim, self.order_cap, self.terms)

    def drop_below(self, order: int) -> "Jet":
        """Remove monomials of total degree < order."""
        return self._like(
            {key: s for key, s in self.terms.items() if key[0] + sum(key[1]) >= order}
        )

    def part_of_degree(self, order: int) -> "Jet":
        return self._like(
            {key: s for key, s in self.terms.items() if key[0] + sum(key[1]) == order}
        )

    def map_coeffs(self, fn) -> "Jet":
        return self._like({key: fn(s) for key, s in self.terms.items()})

    # -------------------------------------------------------- derivatives

    def derivative_x(self) -> "Jet":
        out = {}
        for (l, k), s in self.terms.items():
            if l:
                out[(l - 1, k)] = s.scale(l)
        return self._like(out)

    def derivative_y(self, i: int) -> "Jet":
        out = {}
        for (l, k), s in self.terms.items():
            if k[i]:
                k2 = tuple(v - 1 if j == i else v for j, v in enumerate(k))
                out[(l, k2)] = s.scale(k[i])
        return self._like(out)

    def derivative_theta(self, axis: int) -> "Jet":
        return self.map_coeffs(lambda s: s.derivative(axis))

    def directional_theta(self, freqs) -> "Jet":
        """Apply L = sum freqs[r] d/d(theta_r) to every coefficient."""
        return self.map_coeffs(lambda s: s.directional_derivative(freqs))

    # ------------------------------------------------------------- values

    def evaluate(self, x, y=(), theta=(), dtype=complex):
        """Evaluate the jet at a numeric point, or at arrays of points: ``x``,
        the entries of ``y`` and the components of ``theta`` (a scalar when
        dim = 1) are scalars or arrays of one shape."""
        return evaluate_jets((self,), x, y, theta, dtype)[0]


def evaluate_jets(jets: Sequence[Jet], x, y=(), theta=(), dtype=complex) -> list:
    """The values of several jets at the same (x, y, theta), each as
    :meth:`Jet.evaluate` gives it, from one phase table over the
    coefficients of all their terms (:func:`~paratori.fourier.evaluate_series`).

    Every value has the broadcast shape of x, the y-values and the theta
    points, whichever monomials its jet holds: a zero jet, or one with x^0
    terms only, is broadcast to it."""
    y = tuple(y)
    for jet in jets:
        if len(y) != jet.m:
            raise DimensionMismatch(f"jet with m={jet.m} evaluated at {len(y)} y-values")
    xv = np.asarray(x, dtype=dtype)
    yv = [np.asarray(v, dtype=dtype) for v in y]
    th = np.asarray(theta, dtype=dtype)
    if th.ndim > 1:  # components (d, ...) -> points (..., d)
        th = np.moveaxis(th, 0, -1)
    shape = np.broadcast_shapes(xv.shape, *(v.shape for v in yv), th.shape[:-1])
    values = iter(evaluate_series([s for jet in jets for s in jet.terms.values()], th, dtype))
    out = []
    for jet in jets:
        acc = dtype(0)
        for l, k in jet.terms:
            mono = xv ** l if l else dtype(1)
            for ki, yi in zip(k, yv):
                if ki:
                    mono = mono * yi ** ki
            acc = acc + next(values) * mono
        out.append(acc if np.shape(acc) == shape else np.broadcast_to(acc, shape))
    return out


# ----------------------------------------------------------- substitution


class _Substitution:
    """Caches powers of the substituted jets and deviation products; the
    result is in the variables of ``sub_x``, on the one torus and cap of all."""

    def __init__(self, sub_x, sub_y, theta_dev, rot, deg):
        self.sub_x = sub_x
        self.sub_y = tuple(sub_y)
        self.theta_dev = tuple(theta_dev)
        self.rot = None if rot is None else tuple(float(r) for r in rot)
        self.m_out, self.dim, self.order_cap = sub_x.m, sub_x.dim, sub_x.order_cap
        self.deg = deg
        one = Jet.monomial(0, (0,) * self.m_out, 1.0, self.m_out, deg, self.dim, self.order_cap)
        self._one = one
        self._xpow = {0: one}
        self._ypow = [{0: one} for _ in self.sub_y]
        self._devprod: dict[tuple[int, ...], Jet] = {(0,) * len(self.theta_dev): one}
        for j, d in enumerate(self.theta_dev):
            if d.min_order() < 1 and not d.is_zero():
                raise DegreeOverflow(f"theta deviation {j} has a constant term")
        if sub_x.min_order() < 1 and not sub_x.is_zero():
            raise DegreeOverflow("x-substitution has a constant term")

    def xp(self, l: int) -> Jet:
        if l not in self._xpow:
            self._xpow[l] = self.xp(l - 1).jet_mul(self.sub_x)
        return self._xpow[l]

    def yp(self, i: int, p: int) -> Jet:
        cache = self._ypow[i]
        if p not in cache:
            cache[p] = self.yp(i, p - 1).jet_mul(self.sub_y[i])
        return cache[p]

    def devprod(self, mi: tuple[int, ...]) -> Jet:
        got = self._devprod.get(mi)
        if got is None:
            r = next(j for j, v in enumerate(mi) if v)
            prev = tuple(v - 1 if j == r else v for j, v in enumerate(mi))
            got = self.devprod(prev).jet_mul(self.theta_dev[r])
            self._devprod[mi] = got
        return got

    def _dev_multis(self, budget: int):
        """Multi-indices over the deviation components with 1 <= |m| <= budget
        that vanish on the zero deviations, stable-sorted by |m|."""
        zero = [d.is_zero() for d in self.theta_dev]
        return sorted(
            (mi for mi in _multis(len(zero), budget)
             if any(mi) and not any(v for v, z in zip(mi, zero) if z)),
            key=sum,
        )

    def coeff_jet(self, series: FourierSeries, budget: int) -> Jet:
        """Expand series(theta + rot + dev) to the given x-order budget."""
        base = series if self.rot is None else series.rotate(self.rot)
        result = Jet(self.m_out, self.deg, self.dim, self.order_cap,
                     {(0, (0,) * self.m_out): base})
        for mi in self._dev_multis(budget):
            der = base
            fact = 1.0
            for r, p in enumerate(mi):
                for _ in range(p):
                    der = der.derivative(r)
                fact *= math.factorial(p)
            if der.is_zero():
                continue
            result = result + self.devprod(mi).scale(der.scale(1.0 / fact))
        return result

    def apply(self, target: Jet) -> Jet:
        acc = Jet(self.m_out, self.deg, self.dim, self.order_cap)
        for (l, k), series in target.terms.items():
            base = self.xp(l) if l else self._one
            for i, p in enumerate(k):
                if p:
                    base = base.jet_mul(self.yp(i, p))
            ord_base = base.min_order()
            if ord_base > self.deg:
                continue
            cj = self.coeff_jet(series, self.deg - ord_base)
            acc = acc + cj.jet_mul(base)
        return acc


def jet_compose(
    target: Jet,
    sub_x: Jet,
    sub_y: Sequence[Jet] = (),
    theta_dev: Sequence[Jet] = (),
    rot=None,
    deg: int | None = None,
) -> Jet:
    """Substitute jets for (x, y) and shift theta by rot + dev in ``target``.

    ``sub_x`` and the entries of ``sub_y``/``theta_dev`` are jets in the new
    variable space (all with the same m).  Deviations must vanish at the
    origin so the theta-Taylor expansion terminates.
    """
    if len(sub_y) != target.m:
        raise DimensionMismatch(
            f"target has m={target.m} but {len(sub_y)} y-substitutions given"
        )
    deg = sub_x.deg if deg is None else deg
    return _Substitution(sub_x, sub_y, theta_dev, rot, deg).apply(target)


# ----------------------------------------------------- composite map shapes


@dataclass
class SkewMap:
    """A map (x, y, theta) -> (x', y', theta + rot + dev) whose components
    are jets in (x, y_1..y_m): a model map or change of variables, or with
    m = 0 a parameterization (x, theta) -> (x', y', theta').

    ``theta_dev`` has one jet per state angle; the coefficient torus may be
    larger (flow models carry time-angles that are never substituted).
    """

    x: Jet
    y: tuple[Jet, ...]
    theta_dev: tuple[Jet, ...]
    rot: tuple[float, ...]

    @property
    def m(self) -> int:
        return self.x.m

    @property
    def deg(self) -> int:
        return self.x.deg

    @classmethod
    def identity(cls, m: int, n_angles: int, deg: int, dim: int, order_cap: int,
                 rot=None) -> "SkewMap":
        zero = Jet(m, deg, dim, order_cap)
        return cls(
            x=Jet.var_x(m, deg, dim, order_cap),
            y=tuple(Jet.var_y(i, m, deg, dim, order_cap) for i in range(m)),
            theta_dev=tuple(zero for _ in range(n_angles)),
            rot=tuple(0.0 for _ in range(dim)) if rot is None else tuple(rot),
        )

    def evaluate(self, x, y, theta, dtype=complex):
        """Numeric image (x', y'-list, theta'-list) of (x, y, theta), from one
        phase table over all components.

        ``x``, the entries of ``y`` and the theta components may be arrays of
        one shape; so ``F.evaluate(*K.evaluate(x, (), theta))`` chains.
        """
        th = (theta,) if np.isscalar(theta) else tuple(theta)
        values = evaluate_jets((self.x, *self.y, *self.theta_dev), x, y, th, dtype)
        n = 1 + len(self.y)
        thv = [np.asarray(t, dtype=dtype) + dtype(r) + v
               for t, r, v in zip(th, self.rot, values[n:])]
        return values[0], values[1:n], thv


def compose(outer: SkewMap, inner: SkewMap, deg: int) -> SkewMap:
    """outer o inner to degree ``deg``, in inner's variables: the outer
    components with inner substituted, each angle deviation of inner plus
    the outer one over it, and the rotations added.  F o K plugs a
    parameterization into a model map, K o R a reduced map into a
    parameterization, and G o H composes changes of variables."""
    sub = _Substitution(inner.x, inner.y, inner.theta_dev, inner.rot, deg)
    return SkewMap(
        x=sub.apply(outer.x),
        y=tuple(sub.apply(j) for j in outer.y),
        theta_dev=tuple(
            dv + sub.apply(outer.theta_dev[r]) if r < len(outer.theta_dev) else dv
            for r, dv in enumerate(inner.theta_dev)
        ),
        rot=tuple(a + b for a, b in zip(outer.rot, inner.rot)),
    )


# perfbench/replay_traced.py binds the composition under these two names; they
# go once the benchmark refresh (ROADMAP item 1) wraps ``compose`` itself
compose_skew_param = compose_param_param = compose


# --------------------------------------------------------------- inversion


def invert_x_jet(A: Jet, deg: int | None = None) -> Jet:
    """Compositional inverse in x of A = x + O(x^2) (theta as a carrier).

    Coefficients may depend on theta; no rotation is involved, so this is a
    plain series inversion order by order.
    """
    deg = A.deg if deg is None else deg
    lin = A.coeff(1)
    if abs(lin.average() - 1.0) > 1e-12 or lin.oscillatory().strip_norm() > 1e-12:
        raise DegreeOverflow("invert_x_jet requires a unit linear coefficient")
    if A.min_order() < 1:
        raise DegreeOverflow("invert_x_jet requires a vanishing constant term")
    B = Jet.var_x(0, deg, A.dim, A.order_cap)
    for order in range(2, deg + 1):
        C = jet_compose(A.truncated(deg), B, deg=deg)
        err = C.coeff(order)
        if not err.is_zero():
            B = B + Jet.monomial(order, (), -err, 0, deg, A.dim, A.order_cap)
    return B


def _multis(m: int, cap: int):
    """All multi-indices k in N^m with |k| <= cap."""
    if m == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _multis(m - 1, cap - head):
            yield (head,) + tail


def divide_by_x_plus_y(N: Jet, y_index: int) -> Jet:
    """Exact division of a jet by (x + y_i), raising if not divisible.

    Solves (x + y_i) Q = N slotwise via Q(p, j) = N(p+1, j) - Q(p+1, j - e_i),
    iterating the y_i-power upward; used by the celestial builders where
    blow-up variables introduce a common (u + v) factor.
    """
    m = N.m
    if not N.terms:
        return N._like({})
    max_deg = max(l + sum(k) for (l, k) in N.terms)
    zero = FourierSeries(N.dim, N.order_cap)
    out: dict[tuple[int, tuple[int, ...]], FourierSeries] = {}

    slots = [
        (p, j)
        for j in _multis(m, max_deg - 1)
        for p in range(0, max_deg - sum(j))
    ]
    slots.sort(key=lambda pj: pj[1][y_index])
    for p, j in slots:
        val = N.coeff(p + 1, j)
        if j[y_index] > 0:
            jm = tuple(v - 1 if r == y_index else v for r, v in enumerate(j))
            val = val - out.get((p + 1, jm), zero)
        if not val.is_zero():
            out[(p, j)] = val
    q = Jet(m, N.deg, N.dim, N.order_cap, out)
    lin = Jet.var_x(m, max(N.deg, max_deg), N.dim, N.order_cap) + Jet.var_y(
        y_index, m, max(N.deg, max_deg), N.dim, N.order_cap
    )
    residual = lin.jet_mul(q.truncated(max(N.deg, max_deg))) - N.truncated(
        max(N.deg, max_deg)
    )
    if residual.norm() > 1e-9 * max(N.norm(), 1.0):
        raise DegreeOverflow(
            f"jet not divisible by (x + y_{y_index}); residual {residual.norm():.3e}"
        )
    return q
