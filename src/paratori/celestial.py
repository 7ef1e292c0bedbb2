"""Reduction of the restricted planar (n+1)-body problem near parabolic
infinity to the parabolic-torus normal form, plus the escape demonstration.

Conventions: torus phases and Fourier modes are in turns (period 1); the
polar angle of the test body and its blow-up companions are kept in
radians, converted only when entering Fourier evaluations.  The chart
chain from physical polar-canonical variables (r, theta, y, G) is

    r = 2/x^2                      (McGehee)
    xt = x / gamma,  yt = y / delta,  Gt = G / M^(2/3)
                                   (gamma = M^(-1/6), delta = M^(1/3))
    alpha = theta + Gt yt          (kills the theta-drift at leading order)
    u = (xt - yt)/2,  v = (xt + yt)/2
    z1 = (alpha - alpha0)/xt,  z2 = (Gt - Gt0)/xt      (blow-up)

after which the stable side (escape in forward time) has v as the
parabolic variable and (u, z1, z2) as the expanding normal block with
leading coefficient matrix (1/4) Id.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import HypothesisViolation, InsufficientTorusData, OrbitLeftDomain, StepUnderflow
from .fourier import FourierSeries, diophantine_scan
from .jet import Jet, divide_by_x_plus_y
from .model import FlowModel, SkewField, model_from

__all__ = [
    "PrimarySystem",
    "RestrictedChart",
    "RestrictedField",
    "TorusData",
    "expand_potential",
    "build_restricted_field",
    "build_full_skeleton",
    "escape_demo",
    "EscapeReport",
]

_CONTROL_KICK = -0.05  # y-offset of escape_demo's control orbit
_TWO_PI = 2.0 * math.pi
_TWO_PI_I = 2j * math.pi
_FLOAT_SUM_MAX_TERMS = 12  # RestrictedField sums positions in Python up to here


# ---------------------------------------------------------------- primaries


@dataclass
class PrimarySystem:
    """n primaries in quasiperiodic motion with zero center of mass.

    ``qx``/``qy`` hold one real FourierSeries per primary (positions in the
    plane as functions of the torus phase); ``omega`` is the phase
    frequency vector in turns per time unit.
    """

    masses: tuple[float, ...]
    qx: tuple[FourierSeries, ...]
    qy: tuple[FourierSeries, ...]
    omega: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def d(self) -> int:
        return len(self.omega)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    def com_defect(self) -> float:
        """Strip norm of sum m_j q_j, which must vanish identically."""
        zero = FourierSeries(self.qx[0].dim, self.qx[0].order_cap)
        return max(sum((q.scale(mj) for mj, q in zip(self.masses, qs)), zero).strip_norm()
                   for qs in (self.qx, self.qy))

    def check(self) -> None:
        if any(mj <= 0 for mj in self.masses):
            raise HypothesisViolation("all primary masses must be positive")
        dim, cap = self.qx[0].dim, self.qx[0].order_cap
        off = [f"{name}[{j}] (T^{s.dim}, cap {s.order_cap})" for name in ("qx", "qy")
               for j, s in enumerate(getattr(self, name)) if (s.dim, s.order_cap) != (dim, cap)]
        if off:
            raise HypothesisViolation(f"primary positions off the torus and cap of qx[0] "
                                      f"(T^{dim}, cap {cap}): " + ", ".join(off))
        scale = max(
            max((s.strip_norm() for s in self.qx), default=0.0),
            max((s.strip_norm() for s in self.qy), default=0.0),
            1.0,
        )
        if self.com_defect() > 1e-12 * scale * self.total_mass:
            raise HypothesisViolation(
                f"center of mass not at the origin (defect {self.com_defect():.3e})"
            )

    @classmethod
    def single(cls, mass: float = 1.0, omega=(0.6180339887498949,), order_cap: int = 8):
        """One primary at the origin; the phase is a passive carrier angle."""
        d = len(omega)
        z = FourierSeries(d, order_cap)
        return cls(masses=(float(mass),), qx=(z,), qy=(z,), omega=tuple(omega))

    @classmethod
    def circular_binary(cls, mass: float = 0.5, radius: float = 1.0, order_cap: int = 8):
        """Two equal masses on the circular two-body orbit about their COM."""
        Omega = math.sqrt(2.0 * mass / (2.0 * radius) ** 3)
        om_turn = Omega / (2.0 * math.pi)
        cosr = FourierSeries.cosine((1,), 1, order_cap, radius)
        sinr = FourierSeries.sine((1,), 1, order_cap, radius)
        return cls(
            masses=(float(mass), float(mass)),
            qx=(cosr, -cosr),
            qy=(sinr, -sinr),
            omega=(om_turn,),
        )


def _lift_series(s: FourierSeries, cap: int) -> FourierSeries:
    """A T^d series on T^(1+d) at ``cap``, constant in the prepended first
    angle; modes beyond the cap go into its ``trunc_loss``."""
    return FourierSeries(s.dim + 1, cap, {(0,) + k: c for k, c in s.coeffs.items()})


def _halfint_binomials(n_terms: int) -> list[float]:
    """Coefficients of (1 - z)^(-1/2): c_0 = 1, c_l = c_(l-1) (2l-1)/(2l)."""
    cs = [1.0]
    for l in range(1, n_terms):
        cs.append(cs[-1] * (2 * l - 1) / (2 * l))
    return cs


def expand_potential(sys: PrimarySystem, degree: int, order_cap: int | None = None) -> Jet:
    """Expansion of the potential in powers of xi = 1/r.

    Returns a single-variable jet in xi whose coefficient series live on
    T^(1+d): axis 0 carries the polar angle of the test body (modes in
    turns of theta), the remaining axes the primary phases.  With
    w = q_j e^(-i theta), 1/|z - q_j| = xi (1 - xi w)^(-1/2) (1 - xi conj(w))^(-1/2),
    so primary j adds m_j xi A conj(A), A = sum_l c_l w^l xi^l being the
    binomial jet of degree ``degree`` - 1.  The xi^1 coefficient is exactly
    the total mass and the xi^2 coefficient vanishes by the center-of-mass
    identity (asserted, then dropped).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    sys.check()
    d = sys.d
    dim = 1 + d
    # |k|_1 of w^l conj(w)^k, l + k < degree, stays within (degree - 1)(1 + top)
    top = max((sum(map(abs, k)) for s in (*sys.qx, *sys.qy) for k in s.coeffs), default=0)
    cap = order_cap if order_cap is not None else max(8, (degree - 1) * (1 + top))
    cs = _halfint_binomials(degree)
    turn = FourierSeries(dim, cap, {(-1,) + (0,) * d: 1.0})  # e^(-i theta)
    jet = Jet(0, degree, dim, cap)
    for mj, ax, ay in zip(sys.masses, sys.qx, sys.qy):
        w = (_lift_series(ax, cap) + _lift_series(ay, cap).scale(1j)).series_mul(turn)
        wl = [FourierSeries.constant(1.0, dim, cap)]
        for _ in range(degree - 1):
            wl.append(wl[-1].series_mul(w))
        A = Jet(0, degree - 1, dim, cap,
                {(l, ()): s.scale(c) for l, (s, c) in enumerate(zip(wl, cs))})
        AB = A.jet_mul(A.map_coeffs(FourierSeries.conjugate))
        jet = jet + Jet(0, degree, dim, cap,
                        {(l + 1, ()): s.scale(mj) for (l, _), s in AB.terms.items()})

    lead = jet.coeff(1)
    if abs(lead.average() - sys.total_mass) > 1e-12 * max(sys.total_mass, 1.0):
        raise HypothesisViolation("leading potential coefficient is not the total mass")
    com_term = jet.coeff(2)
    if com_term.strip_norm() > 1e-10 * max(sys.total_mass, 1.0):
        raise HypothesisViolation(
            f"1/r^2 coefficient survives ({com_term.strip_norm():.3e}); "
            "center-of-mass cancellation failed"
        )
    cleaned = {key: s for key, s in jet.terms.items() if key[0] != 2}
    return Jet(0, degree, dim, cap, cleaned)


# ------------------------------------------------------------------- charts


@dataclass
class RestrictedChart:
    """Forward/backward chart between physical (r, theta, y, G) and the
    model variables (v; u, z1, z2) attached to the torus label
    (alpha0, Gt0)."""

    total_mass: float
    alpha0: float
    gtilde0: float
    computed_N: int = 4
    stated_N: int = 6
    a_value: float = 0.25

    @property
    def gamma(self) -> float:
        return self.total_mass ** (-1.0 / 6.0)

    @property
    def delta(self) -> float:
        return self.total_mass ** (1.0 / 3.0)

    def to_model(self, r: float, theta_rad: float, y: float, G: float):
        if r <= 0:
            raise ValueError("r must be positive in the McGehee chart")
        x = math.sqrt(2.0 / r)
        xt = x / self.gamma
        yt = y / self.delta
        gt = G / self.total_mass ** (2.0 / 3.0)
        alpha = theta_rad + gt * yt
        u = 0.5 * (xt - yt)
        v = 0.5 * (xt + yt)
        dalpha = (alpha - self.alpha0 + math.pi) % (2.0 * math.pi) - math.pi
        z1 = dalpha / xt
        z2 = (gt - self.gtilde0) / xt
        return v, u, z1, z2

    def to_physical(self, v: float, u: float, z1: float, z2: float):
        xt = u + v
        yt = v - u
        gt = self.gtilde0 + xt * z2
        alpha = self.alpha0 + xt * z1
        theta_rad = alpha - gt * yt
        x = self.gamma * xt
        r = 2.0 / x ** 2
        y = self.delta * yt
        G = self.total_mass ** (2.0 / 3.0) * gt
        return r, theta_rad, y, G

    def report(self) -> dict:
        return {
            "a": self.a_value,
            "computed_N": self.computed_N,
            "stated_N": self.stated_N,
            "alpha0": self.alpha0,
            "gtilde0": self.gtilde0,
            "gamma": self.gamma,
            "delta": self.delta,
        }


def _theta_sub_jet(series: FourierSeries, alpha0: float, dev_power) -> Jet:
    """Substitute theta = alpha0 + dev (radians) into the theta axis of a
    series on T^(1+d) (axis 0 = theta in turns): the Taylor sum over p of
    dev^p / p! times the p-th radian derivative at alpha0, a jet in the
    state variables with coefficients on T^d.  ``dev_power(p)`` returns
    dev^p and is called only while the derivatives are nonzero.
    """
    theta0 = alpha0 / _TWO_PI
    out = dev_power(0).scale(series.at_first_angle(theta0))
    for p in range(1, out.deg + 1):
        der = series.at_first_angle(theta0, p)
        if der.is_zero():
            break
        out = out + dev_power(p).scale(der.scale(1.0 / (_TWO_PI ** p * math.factorial(p))))
    return out


@dataclass
class RestrictedField:
    """The untransformed restricted equations in (r, theta, y, G).

    theta is the physical polar angle in radians; the potential is the
    direct Newtonian sum over the primaries, so no expansion error enters
    the reference dynamics.

    Each primary's position q_j = sum_k c_jk e^(2 pi i k.omega t) is summed
    in one of two ways, chosen once from the number of nonzero c_jk.  Up to
    ``_FLOAT_SUM_MAX_TERMS`` terms (the circular binary has 2, one primary
    at the origin none) it is a Python sum over the nonzero terms, one
    ``cmath.exp`` per mode that carries one: numpy's per-call overhead on
    arrays of a few entries would be most of the field's cost.  Above the
    threshold (the three-primary T^2 system of the tests has 87 terms on 29
    modes) the stacked ``qmat @ exp(2 pi i k.omega t)`` is faster.  Both
    form k.omega t axis by axis from zero, as ``FourierSeries.evaluate``
    does; they agree bit for bit on the binary and on one primary, and to
    the rounding of the exponential and of the sum elsewhere.  The positions
    at the last time asked for are kept, so the two stages of a step at
    t + h sum them once.
    """

    sys: PrimarySystem

    def __post_init__(self):
        # every primary stacked once: the union of their modes and the
        # (n_primaries, n_modes) matrix of the coefficients of qx + i qy
        sys = self.sys
        modes = sorted({k for s in (*sys.qx, *sys.qy) for k in s.coeffs})
        self._omega = tuple(float(w) for w in sys.omega)
        self._modes = np.array(modes, dtype=float).reshape(len(modes), sys.qx[0].dim)
        self._qmat = np.array(
            [[ax.coeff(k) + 1j * ay.coeff(k) for k in modes] for ax, ay in zip(sys.qx, sys.qy)],
            dtype=complex,
        )
        self._last_t = self._last_q = None
        nonzero = [[(i, c) for i, c in enumerate(row) if c] for row in self._qmat.tolist()]
        if sum(map(len, nonzero)) > _FLOAT_SUM_MAX_TERMS:
            self._sum = self._matvec_positions
            return
        # the float sum: the modes some primary carries, and per primary its
        # (index into them, coefficient) pairs in increasing mode order
        used = sorted({i for row in nonzero for i, _ in row})
        self._used_modes = tuple(tuple(self._modes[i].tolist()) for i in used)
        self._terms = tuple(tuple((used.index(i), c) for i, c in row) for row in nonzero)
        self._sum = self._float_positions

    def _sum_positions(self, t) -> list:
        # stages k6 and k7 of a Dormand–Prince step share the time t + h
        if t != self._last_t:
            self._last_t, self._last_q = t, self._sum(t)
        return self._last_q

    def _matvec_positions(self, t) -> list:
        phase = np.zeros(len(self._modes))
        for k, w in zip(self._modes.T, self._omega):
            phase += k * (w * t)
        return (self._qmat @ np.exp(_TWO_PI_I * phase)).tolist()

    def _float_positions(self, t) -> list:
        wt = [w * t for w in self._omega]
        phases = []
        for k in self._used_modes:
            kwt = 0.0
            for kr, wtr in zip(k, wt):
                kwt += kr * wtr
            phases.append(cmath.exp(_TWO_PI_I * kwt))
        qs = []
        for terms in self._terms:
            q = 0j
            for i, c in terms:
                q += c * phases[i]
            qs.append(q)
        return qs

    def positions(self, t: float) -> np.ndarray:
        """Complex positions q_j of the primaries at time t (phase omega t)."""
        return np.array(self._sum_positions(t), dtype=complex)

    def potential_and_gradient(self, r: float, theta_rad: float, t: float):
        """V = sum m_j / |z - q_j| at z = r e^(i theta), with dV/dr and dV/dtheta."""
        e = complex(math.cos(theta_rad), math.sin(theta_rad))
        z = r * e
        ire = 1j * r * e
        V = dVdr = dVdth = 0.0
        for mj, qj in zip(self.sys.masses, self._sum_positions(t)):
            D = z - qj
            nrm = abs(D)
            Dc = D.conjugate()
            nrm3 = nrm ** 3
            V += mj / nrm
            # d|D|/dr = Re(conj(D) e)/|D|; d|D|/dtheta = Re(conj(D) i r e)/|D|
            dVdr -= mj * (Dc * e).real / nrm3
            dVdth -= mj * (Dc * ire).real / nrm3
        return V, dVdr, dVdth

    def rhs(self, t, state):
        r, th, y, G = state
        if r <= 0:
            raise OrbitLeftDomain(0, state)
        _, dVdr, dVdth = self.potential_and_gradient(r, th, t)
        return (y, G / r ** 2, G ** 2 / r ** 3 + dVdr, dVdth)

    def energy(self, state, t: float) -> float:
        r, th, y, G = state
        V, _, _ = self.potential_and_gradient(float(r), float(th), float(t))
        return 0.5 * (y ** 2 + G ** 2 / r ** 2) - V


# --------------------------------------------------------- restricted model


def build_restricted_field(
    sys: PrimarySystem,
    degree: int = 8,
    alpha0: float = 0.0,
    gtilde0: float = 0.0,
) -> tuple[FlowModel, RestrictedChart]:
    """Reduce the restricted problem near parabolic infinity to model form.

    Returns a FlowModel in (v; u, z1, z2; phi) for the stable side (escape
    in forward time) together with the chart back to (r, theta, y, G).
    The leading coefficient is a = 1/4 exactly and the normal block is
    (1/4) Id; N is read off the constructed jet (the displayed system has
    leading degree 4) and the chart records both it and the stated value.
    """
    sys.check()
    d = sys.d
    M = sys.total_mass
    deg = degree
    m = 3
    vpot = expand_potential(sys, degree=deg // 2 + 1)
    cap = vpot.order_cap

    zk = (0,) * m
    jv = Jet.var_x(m, deg, d, cap)
    ju = Jet.var_y(0, m, deg, d, cap)
    jz1 = Jet.var_y(1, m, deg, d, cap)
    jz2 = Jet.var_y(2, m, deg, d, cap)
    xt = ju + jv
    yt = jv - ju
    xt2 = xt.jet_mul(xt)
    xt3 = xt2.jet_mul(xt)
    xt4 = xt3.jet_mul(xt)
    gt = Jet.monomial(0, zk, gtilde0, m, deg, d, cap) + xt.jet_mul(jz2)

    # theta deviation in radians, theta = alpha0 + xt z1 - gt yt; its powers
    # are shared by every substitution and built on first need
    dev = xt.jet_mul(jz1) - gt.jet_mul(yt)

    @lru_cache(maxsize=None)
    def dev_power(p: int) -> Jet:
        return Jet.monomial(0, zk, 1.0, m, deg, d, cap) if p == 0 else dev_power(p - 1).jet_mul(dev)

    # velocity of the scaled radial pair; the Kepler head is written with
    # exact constants so the leading data stays exact
    xt_dot = xt3.jet_mul(yt).scale(-0.25)
    tail_y = gt.jet_mul(gt).jet_mul(xt4.jet_mul(xt2)).scale(0.125)
    gt_dot = Jet(m, deg, d, cap)
    for (power, _), series in vpot.terms.items():
        s = power - 1
        if s < 2:
            continue
        # potential tail: coefficient of (1/r)^(1+s)
        xi_pow = xt2.scale(0.5).power(s)
        scale_y = -(1 + s) * M ** (-(s + 3) / 3.0)
        sub = _theta_sub_jet(series, alpha0, dev_power)
        tail_y = tail_y + sub.jet_mul(xi_pow).jet_mul(xt4).scale(0.25 * scale_y)
        # modes on axis 0 are e^(i k theta_rad); the radian derivative is *ik
        dth = series.derivative(0).scale(1.0 / _TWO_PI)
        if not dth.is_zero():
            sub = _theta_sub_jet(dth, alpha0, dev_power)
            scale_g = M ** (-(s + 3) / 3.0)
            gt_dot = gt_dot + sub.jet_mul(xi_pow.jet_mul(xt2).scale(0.5)).scale(scale_g)
    yt_dot = xt4.scale(-0.25) + tail_y

    u_dot = (xt_dot - yt_dot).scale(0.5)
    v_dot = (xt_dot + yt_dot).scale(0.5)
    # alpha_dot with the exact quartic cancellation already performed
    alpha_dot = gt_dot.jet_mul(yt) + gt.jet_mul(tail_y)
    z1_dot = divide_by_x_plus_y(alpha_dot - jz1.jet_mul(xt_dot), 0)
    z2_dot = divide_by_x_plus_y(gt_dot - jz2.jet_mul(xt_dot), 0)

    fld = SkewField(
        x=v_dot,
        y=(u_dot, z1_dot, z2_dot),
        theta_dev=tuple(Jet(m, deg, d, cap) for _ in range(d)),
        omega=tuple(sys.omega),
        nu=(),
    )
    computed_N = fld.x.min_order()
    freq = diophantine_scan(sys.omega, (), tau=max(d - 1, 1), k_max=40, sense="flow")
    model = model_from(fld, N=computed_N, P=computed_N, freq=freq, order_cap=cap)
    a_val = model.a.average().real
    chart = RestrictedChart(
        total_mass=M, alpha0=alpha0, gtilde0=gtilde0,
        computed_N=computed_N, stated_N=6, a_value=a_val,
    )
    return model, chart


# ------------------------------------------------------------ full skeleton


@dataclass
class TorusData:
    """External torus input for the full-problem skeleton.

    ``omega0`` is the Diophantine frequency vector of the base torus
    (length 2(n-1)); ``c2`` the quadratic form of the averaged normal form
    of the internal Hamiltonian (feeds the degree-6 phase tail); optional
    ``extra_tails`` rows are (component, l, k, mode, re, im) monomials
    appended verbatim.
    """

    omega0: tuple[float, ...]
    n: int
    c2: np.ndarray | None = None
    extra_tails: list = field(default_factory=list)
    angular_momentum_internal: float = 0.0

    def check(self):
        if self.n < 2:
            raise InsufficientTorusData("need n >= 2 primaries for a nontrivial torus")
        if len(self.omega0) != 2 * (self.n - 1):
            raise InsufficientTorusData(
                f"omega0 must have length 2(n-1) = {2*(self.n-1)}, got {len(self.omega0)}"
            )
        if self.c2 is not None and np.asarray(self.c2).shape != (len(self.omega0),) * 2:
            raise InsufficientTorusData("c2 must be a 2(n-1) x 2(n-1) matrix")


def build_full_skeleton(
    torus: TorusData,
    theta_n0: float = 0.0,
    G_n0: float = 0.0,
    degree: int = 8,
) -> tuple[FlowModel, dict]:
    """Parabolic-infinity skeleton of the full planar (n+1)-body problem.

    State: x = q (parabolic), y = (p, z1, z2, rho_1..rho_2(n-1)), angles phi
    with frequency omega0.  The structural part is

        qdot = -1/4 (q+p)^3 q,   pdot = +1/4 (q+p)^3 p,
        zdot = 1/4 (q+p)^2 (q-p) z,   rhodot = 3/2 (q+p)^2 (q-p) rho,
        phidot = omega0 + 12 (c2 rho) (q+p)^6 + ...,

    declared (N, P, a) = (4, 6, 1/4); the torus data supplies the tails.
    """
    torus.check()
    d = len(torus.omega0)
    m = 3 + d
    deg = degree
    cap = 8
    zk = (0,) * m
    jq = Jet.var_x(m, deg, d, cap)
    jp = Jet.var_y(0, m, deg, d, cap)
    s = jq + jp
    s2 = s.jet_mul(s)
    s3 = s2.jet_mul(s)
    diff = jq - jp
    shear = s2.jet_mul(diff)

    q_dot = s3.jet_mul(jq).scale(-0.25)
    p_dot = s3.jet_mul(jp).scale(0.25)
    ys = [p_dot]
    for i in range(2):
        zi = Jet.var_y(1 + i, m, deg, d, cap)
        ys.append(shear.jet_mul(zi).scale(0.25))
    for i in range(d):
        rho_i = Jet.var_y(3 + i, m, deg, d, cap)
        ys.append(shear.jet_mul(rho_i).scale(1.5))

    devs = [Jet(m, deg, d, cap) for _ in range(d)]
    if torus.c2 is not None:
        s6 = s3.jet_mul(s3)
        C = np.asarray(torus.c2, dtype=float)
        for r in range(d):
            acc = Jet(m, deg, d, cap)
            for i in range(d):
                if C[r, i]:
                    rho_i = Jet.var_y(3 + i, m, deg, d, cap)
                    acc = acc + rho_i.scale(12.0 * C[r, i])
            if not acc.is_zero():
                devs[r] = devs[r] + s6.jet_mul(acc)

    for row in torus.extra_tails:
        comp, l, k, mode, re, im = row
        series = FourierSeries(d, cap, {tuple(mode): complex(re, im)})
        mono = Jet.monomial(int(l), tuple(k), series, m, deg, d, cap)
        if comp == "x":
            q_dot = q_dot + mono
        elif comp.startswith("y"):
            ys[int(comp[1:])] = ys[int(comp[1:])] + mono
        elif comp.startswith("theta"):
            devs[int(comp[5:])] = devs[int(comp[5:])] + mono
        else:
            raise InsufficientTorusData(f"unknown tail component {comp!r}")

    fld = SkewField(
        x=q_dot, y=tuple(ys), theta_dev=tuple(devs),
        omega=tuple(torus.omega0), nu=(),
    )
    freq = diophantine_scan(torus.omega0, (), tau=max(d - 1, 1), k_max=30, sense="flow")
    model = model_from(fld, N=4, P=6, freq=freq, order_cap=cap,
                       params=(theta_n0, G_n0))
    declared = {
        "N": 4,
        "P": 6,
        "a": model.a.average().real,
        "theta_n0": theta_n0,
        "G_n0": G_n0,
        # the torus label shifts the conserved total angular momentum
        "total_angular_momentum": torus.angular_momentum_internal + G_n0,
    }
    return model, declared


# --------------------------------------------------------------- escape demo


@dataclass
class EscapeReport:
    t0_offset: float
    law_window: tuple[float, float]
    law_ratio_range: tuple[float, float]
    law_ok: bool
    y_end: float
    y_ok: bool
    energy_end: float
    energy_ok: bool
    control_law_fails: bool
    orbit_nfev: dict = field(default_factory=dict)
    samples: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.law_ok and self.y_ok and self.energy_ok and self.control_law_fails


def _law_ratio(r: float, t: float, t0: float, M: float) -> float:
    return r / ((9.0 * M / 2.0) ** (1.0 / 3.0) * (t + t0) ** (2.0 / 3.0))


def escape_demo(
    sys: PrimarySystem,
    sol,
    chart: RestrictedChart,
    x0: float = 0.05,
    horizon: float = 3.0e9,
    law_window: tuple[float, float] = (1.0e3, 1.0e4),
    tol: float = 1e-10,
    n_samples: int = 200,
):
    """Integrate a manifold initial condition through the physical equations.

    Maps K(x0, 0) (phase zero) back through the chart, integrates the
    untransformed restricted equations, and reports the parabolic-escape
    diagnostics: the trajectory must track the closed-form parabolic radial
    law (with the time offset t0 fixed by the initial radius), the radial
    velocity must decay, the two-body energy must stay near zero, and a
    control orbit kicked inward must fail the law.  The control orbit needs
    nothing from the main one, so a forked child integrates it meanwhile,
    with the same code on the same inputs and so to the same bits; only a
    collapse or a collision of the control counts as failing the law, and
    any other error in it propagates.
    """
    from .dynamics import _ForkedCall, integrate_flow

    sys.check()
    M = sys.total_mass
    K = sol.param(sol.guard_degree)
    kx, ky, kth = K.evaluate(x0, (), (0.0,) * sys.d)
    v0, u0, z10, z20 = kx.real, ky[0].real, ky[1].real, ky[2].real
    r0, th0, y0, G0 = chart.to_physical(v0, u0, z10, z20)

    field = RestrictedField(sys)
    t0 = math.sqrt(2.0 * r0 ** 3 / (9.0 * M))
    ts = np.unique(np.concatenate([
        [0.0],
        np.minimum(np.logspace(0.0, math.log10(horizon), n_samples), horizon),
    ]))
    # control orbit: same point kicked inward (y by _CONTROL_KICK); it must fall
    # back or go hyperbolic, so the ratio leaves the band well before the horizon
    control_T = min(3.0e4, horizon)
    with _ForkedCall(
        integrate_flow, field, [r0, th0, y0 + _CONTROL_KICK, G0], (0.0, control_T),
        tol=tol, t_eval=np.linspace(0.0, control_T, 200),
    ) as control:
        orbit = integrate_flow(field, [r0, th0, y0, G0], (0.0, horizon), tol=tol, t_eval=ts)
        try:
            co = control.result()
        except (StepUnderflow, OrbitLeftDomain):
            co = None  # collapse/collision counts as failing the law

    samples = []
    lo, hi = law_window
    ratios = []
    for t, row in zip(orbit.times, orbit.states):
        ratio = _law_ratio(row[0], t, t0, M)
        E = field.energy(row, t)
        samples.append({
            "t": float(t), "r": float(row[0]), "y": float(row[2]),
            "energy": float(E), "law_ratio": float(ratio),
        })
        if lo <= t <= hi:
            ratios.append(ratio)
    rmin, rmax = (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)
    law_ok = bool(ratios) and 0.98 <= rmin and rmax <= 1.02
    y_end = float(orbit.states[-1][2])
    E_end = float(field.energy(orbit.states[-1], float(orbit.times[-1])))

    control_fail, control_nfev = True, None
    if co is not None:
        control_nfev = co.meta["nfev"]
        cr = [float(_law_ratio(row[0], t, t0, M)) for t, row in zip(co.times, co.states)]
        control_fail = not (0.98 <= min(cr[-20:]) and max(cr[-20:]) <= 1.02)

    report = EscapeReport(
        t0_offset=float(t0),
        law_window=(float(lo), float(hi)),
        law_ratio_range=(float(rmin), float(rmax)),
        law_ok=bool(law_ok),
        y_end=y_end,
        y_ok=bool(abs(y_end) <= 1e-3),
        energy_end=E_end,
        energy_ok=bool(abs(E_end) <= 1e-4),
        control_law_fails=bool(control_fail),
        orbit_nfev={"main": orbit.meta["nfev"], "control": control_nfev},
        samples=samples,
    )
    return report, orbit
