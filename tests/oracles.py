"""Shared independent oracles for engine tests, kept apart from the
implementation: a dense generic linear solve of the full coefficient system
assembled by probing the exact jet composition, the per-mode and per-series
evaluation loops, the dict-of-tuples Fourier arithmetic that the array
store replaced, the restricted-field constructors written term by term, the
positions and potential of the primaries summed one primary at a time,
the restricted field with every position from one numpy matrix-vector
product, and the invariance residual sampled one x-sample at a time."""

import cmath
import math

import numpy as np

from paratori.cohomology import ErrorJet, invariance_error
from paratori.errors import HypothesisViolation, OrbitLeftDomain, ResonantMode
from paratori.fourier import FourierSeries
from paratori.jet import Jet, evaluate_jets, jet_compose
from paratori.model import ReducedMap
from paratori.verify import _CDT, _cabs, _max_diff, _theta_grid, _transport_jets


def _mode_basis(cap):
    """Real-symmetric basis series for the oscillatory unknowns."""
    out = []
    for k in range(1, cap + 1):
        out.append(FourierSeries(1, cap, {(k,): 0.5, (-k,): 0.5}))
        out.append(FourierSeries(1, cap, {(k,): -0.5j, (-k,): 0.5j}))
    return out


def _series_to_vec(s, cap):
    vec = [s.average().real]
    for k in range(1, cap + 1):
        c = s.coeff((k,))
        vec.extend([c.real, c.imag])
    return vec


def _candidate(sol_prev, j, vals):
    """Assemble the step-j solution with the unknowns set to ``vals``."""
    N, P = sol_prev.model.N, sol_prev.model.P
    ox, oth = j + N - 1, j + P - 2
    new = sol_prev.copy_shallow()
    new.j = j
    if j == N:
        new.reduced = ReducedMap(N=N, a_bar=new.reduced.a_bar, b=vals["b"],
                                 theta_terms=dict(new.reduced.theta_terms))
    else:
        if vals["kx"]:
            new.kbar_x[j] = vals["kx"]
    if vals["ktx"].coeffs:
        new.ktil_x[ox] = vals["ktx"]
    new.kbar_y[j] = (vals["ky"],)
    new.ktil_y[ox] = [vals["kty"]]
    new.kbar_th[j - 1] = (vals["kth"],)
    new.ktil_th[oth] = [vals["ktth"]]
    return new


def _dense_oracle_step(sol_prev, j, cap):
    """Solve the full order-(j+N-1) coefficient system with numpy.

    Unknowns are probed one at a time through the exact jet composition
    (the equations are affine in them at the target orders), assembled into
    a dense matrix and solved by least squares.
    """
    N, P = sol_prev.model.N, sol_prev.model.P
    ox, oth = j + N - 1, j + P - 2
    zero = FourierSeries(1, cap)
    base_vals = {"b": 0.0, "kx": 0.0, "ky": 0.0, "kth": 0.0,
                 "ktx": zero, "kty": zero, "ktth": zero}

    def targets(vals):
        err = invariance_error(_candidate(sol_prev, j, vals))
        out = _series_to_vec(err.ex.coeff(ox), cap)
        out += _series_to_vec(err.ey[0].coeff(ox), cap)
        out += _series_to_vec(err.eth[0].coeff(oth), cap)
        return np.array(out)

    rhs0 = targets(base_vals)
    columns = []
    labels = []

    def probe(name, value):
        vals = dict(base_vals)
        vals[name] = value
        columns.append(targets(vals) - rhs0)
        labels.append(name)

    if j == N:
        probe("b", 1.0)
    else:
        probe("kx", 1.0)
    probe("ky", 1.0)
    probe("kth", 1.0)
    basis = _mode_basis(cap)
    for name in ("ktx", "kty", "ktth"):
        for s in basis:
            vals = dict(base_vals)
            vals[name] = s
            columns.append(targets(vals) - rhs0)
            labels.append(name)
    A = np.array(columns).T
    u, *_ = np.linalg.lstsq(A, -rhs0, rcond=None)
    # unpack
    out = {"scalars": dict(zip(labels[:3], u[:3]))}
    idx = 3
    for name in ("ktx", "kty", "ktth"):
        table = {}
        for k in range(1, cap + 1):
            re, im = u[idx], u[idx + 1]
            idx += 2
            c = complex(re, im)
            # basis pair contributes re * cos-like + im * sin-like
            table[(k,)] = 0.5 * re - 0.5j * im
            table[(-k,)] = 0.5 * re + 0.5j * im
        out[name] = FourierSeries(1, cap, table)
    return out


def reference_evaluate(s, theta, dtype=complex):
    """The per-mode loop that ``FourierSeries.evaluate`` replaced: one point,
    every phase and every sum accumulated in ``dtype`` in mode-table order."""
    if s.dim == 0:
        acc = dtype(0)
        for c in s.coeffs.values():
            acc = acc + dtype(c)
        return acc
    if np.isscalar(theta):
        theta = (theta,)
    th = [dtype(t) for t in theta]
    two_pi_i = dtype(2j) * dtype(np.pi)
    acc = dtype(0)
    for k, c in s.coeffs.items():
        phase = dtype(0)
        for ki, ti in zip(k, th):
            if ki:
                phase = phase + dtype(ki) * ti
        acc = acc + dtype(c) * np.exp(two_pi_i * phase)
    return acc


def per_series_jet_evaluate(jet, x, y=(), theta=(), dtype=complex):
    """The jet evaluator the shared phase table replaced: every term's
    series evaluated on its own, with a table of its own modes, and the sum
    broadcast to the shape of the points."""
    xv = np.asarray(x, dtype=dtype)
    yv = [np.asarray(v, dtype=dtype) for v in y]
    th = np.asarray(theta, dtype=dtype)
    if th.ndim > 1:
        th = np.moveaxis(th, 0, -1)
    acc = dtype(0)
    for (l, k), s in jet.terms.items():
        mono = xv ** l if l else dtype(1)
        for ki, yi in zip(k, yv):
            if ki:
                mono = mono * yi ** ki
        acc = acc + s.evaluate(th, dtype=dtype) * mono
    shape = np.broadcast_shapes(xv.shape, *(v.shape for v in yv), th.shape[:-1])
    return acc if np.shape(acc) == shape else np.broadcast_to(acc, shape)


def per_series_map_evaluate(F, x, y, theta, dtype=complex):
    """The SkewMap evaluator the shared phase table replaced: one
    :func:`per_series_jet_evaluate` per component."""
    th = (theta,) if np.isscalar(theta) else tuple(theta)
    xv = per_series_jet_evaluate(F.x, x, y, th, dtype)
    yv = [per_series_jet_evaluate(j, x, y, th, dtype) for j in F.y]
    thv = [
        np.asarray(t, dtype=dtype) + dtype(r) + per_series_jet_evaluate(d, x, y, th, dtype)
        for t, r, d in zip(th, F.rot, F.theta_dev)
    ]
    return xv, yv, thv


def reference_flow_invariance_error(sol, deg=None):
    """The flow error E = X o K - DK Y - dK/dt as it was written before
    ``SkewField.derivative_along``: the transport of each component of K
    along the reduced field Y spelled out, with D_x C in front of Y_x."""
    model = sol.model
    N, P, j = model.N, model.P, sol.j
    deg = deg if deg is not None else j + N + 1
    declared = (j + N, j + N, min(j + P - 1, j + N - 1))
    X = model.as_field(deg)
    K = sol.param(deg)
    full = tuple(model.freq.omega) + tuple(model.freq.nu)
    Yx = sol.reduced.x_jet(deg, model)
    Ydev = sol.reduced.theta_jets(deg, model, model.d)

    def transport(C):
        out = C.derivative_x().jet_mul(Yx)
        out = out + C.directional_theta(full)
        for r in range(model.d):
            if not Ydev[r].is_zero():
                out = out + C.derivative_theta(r).jet_mul(Ydev[r])
        return out

    def sub(target):
        return jet_compose(target, K.x, K.y, K.theta_dev, None, deg)

    ex = sub(X.x) - transport(K.x)
    eys = tuple(sub(X.y[i]) - transport(K.y[i]) for i in range(model.m))
    eths = tuple(sub(X.theta_dev[r]) - Ydev[r] - transport(K.theta_dev[r]) for r in range(model.d))
    return ErrorJet(ex=ex, ey=eys, eth=eths, declared=declared)


# ------------------------------------------------ the per-x-sample verifier
#
# The residual sampler of ``verify.fit_error_orders`` as it was before K, R
# and K o R were evaluated once for all x-samples: every table rebuilt at
# each x-sample.


def map_residual_at(skew, K, R, x, thetas):
    """Largest |F(K(x, th)) - K(R(x, th))| per component over the rows of
    ``thetas``, in extended precision, and the largest magnitude."""
    th = thetas.T
    kx, ky, kth = K.evaluate(x, (), th, dtype=_CDT)
    fx, fy, fth = skew.evaluate(kx, ky, kth, dtype=_CDT)
    rx, _, rth = R.evaluate(x, (), th, dtype=_CDT)
    gx, gy, gth = K.evaluate(rx, (), rth, dtype=_CDT)
    mag = float(np.max(_cabs(fx) + _cabs(gx) + 1.0))
    return _max_diff([(fx, gx)]), _max_diff(zip(fy, gy)), _max_diff(zip(fth, gth)), mag


def flow_residual_at(fld, sol, K, tjets, x, thetas):
    """As :func:`map_residual_at` for X(K) - DK Y - dK/dt; ``tjets`` is
    ``verify._transport_jets``."""
    model = sol.model
    th = thetas.T
    kx, ky, kth = K.evaluate(x, (), th, dtype=_CDT)
    Xx, *rest = evaluate_jets((fld.x, *fld.y, *fld.theta_dev[:model.d]), kx, ky, kth, _CDT)
    Xy, Xdev = rest[:model.m], rest[model.m:]
    yx = sol.reduced.x_value(_CDT(x))
    ydev = []
    for r in range(model.d):
        acc = _CDT(0)
        for order, vec in sol.reduced.theta_terms.items():
            if vec[r]:
                acc = acc + _CDT(vec[r]) * _CDT(x) ** order
        ydev.append(acc)

    moving = [r for r in range(model.d) if ydev[r] != 0]

    def transported(jets):
        dx, dt, dth = jets
        vx, vt, *vth = evaluate_jets((dx, dt, *(dth[r] for r in moving)), x, (), th, _CDT)
        v = vx * yx + vt
        for r, w in zip(moving, vth):
            v = v + w * ydev[r]
        return v

    tx, ty, tth = tjets[0], tjets[1:1 + model.m], tjets[1 + model.m:]
    ex = _max_diff([(Xx, transported(tx))])
    ey = _max_diff((Xy[i], transported(ty[i])) for i in range(model.m))
    eth = _max_diff((Xdev[r] - ydev[r], transported(tth[r])) for r in range(model.d))
    mag = float(np.max(_cabs(Xx) + abs(complex(yx)) + 1.0))
    return ex, ey, eth, mag


def per_x_residual_rows(sol, x_window, n_samples, theta_samples):
    """The rows (x, floor, e_x, e_y, e_theta) of ``fit_error_orders`` at these
    arguments, one x-sample at a time."""
    model = sol.model
    lo, hi = x_window
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), n_samples))
    deg = sol.guard_degree
    K = sol.param(deg)
    thetas = _theta_grid(model.d, theta_samples)
    if model.kind == "map":
        skew, R = model.as_skew(deg), sol.reduced.as_param(deg, model)
        residuals = [map_residual_at(skew, K, R, x, thetas) for x in xs]
    else:
        fld, tjets = model.as_field(deg), _transport_jets(sol, K)
        residuals = [flow_residual_at(fld, sol, K, tjets, x, thetas) for x in xs]
    eps = float(np.finfo(np.longdouble).eps)
    return [{"x": float(x), "floor": float(60.0 * eps * mag), "e_x": ex, "e_y": ey, "e_theta": eth}
            for x, (ex, ey, eth, mag) in zip(xs, residuals)]


# ------------------------------------------------- the dict-of-tuples series
#
# The mode-table code that the array store of ``FourierSeries`` replaced,
# kept as references for the differential tests: a series is a dict
# k -> complex of its nonzero modes, every sum runs in Python complex
# arithmetic in table order.


def _norm1(k):
    return sum(abs(x) for x in k)


def reference_table(dim, cap, coeffs, loss=0.0):
    """The stored table of ``FourierSeries(dim, cap, coeffs, loss)``: exact
    zeros dropped, modes beyond the cap dropped into the loss."""
    table = {}
    loss = float(loss)
    for k, c in coeffs.items():
        k = tuple(int(x) for x in k)
        assert len(k) == dim
        c = complex(c)
        if c == 0.0:
            continue
        if _norm1(k) > cap:
            loss += abs(c)
            continue
        table[k] = table.get(k, 0.0) + c
    return {k: c for k, c in table.items() if c != 0.0}, loss


def reference_add(a, b):
    """(table, cap, trunc_loss) of a + b."""
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0.0) + c
    cap = min(a.order_cap, b.order_cap)
    table, loss = reference_table(a.dim, cap, out, a.trunc_loss + b.trunc_loss)
    return table, cap, loss


def reference_mul(a, b):
    """(table, cap, trunc_loss) of a * b, pair by pair; the loss is the l1
    mass of the summed coefficients beyond the cap."""
    cap = min(a.order_cap, b.order_cap)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0.0) + c1 * c2
    dropped = sum(abs(c) for k, c in out.items() if _norm1(k) > cap)
    table = {k: c for k, c in out.items() if _norm1(k) <= cap and c != 0.0}
    return table, cap, a.trunc_loss + b.trunc_loss + dropped


def reference_rotate(s, step):
    """The table of s(theta + step)."""
    out = {}
    for k, c in s.coeffs.items():
        ph = sum(ki * si for ki, si in zip(k, step))
        out[k] = c * cmath.exp(2j * math.pi * ph)
    return {k: c for k, c in out.items() if c != 0.0}


def reference_derivative(s, axis):
    """The table of d s / d theta_axis."""
    out = {}
    for k, c in s.coeffs.items():
        if k[axis]:
            out[k] = c * (2j * math.pi * k[axis])
    return out


def reference_sd_divide(h, vec, divisor, divisor_floor):
    """The table of phi_k = h_k / divisor(k.vec) over the nonzero modes of a
    zero-average h; raises ResonantMode at the first small divisor met."""
    out = {}
    for k, c in h.coeffs.items():
        if _norm1(k) == 0:
            continue
        div = divisor(sum(ki * wi for ki, wi in zip(k, vec)))
        if abs(div) < divisor_floor:
            raise ResonantMode(k, div)
        out[k] = c / div
    return out


def map_divisor(ph):
    return cmath.exp(2j * math.pi * ph) - 1.0


def flow_divisor(dot):
    return 2j * math.pi * dot


# ------------------------------------------ the restricted-field constructors
#
# ``celestial.expand_potential`` and ``celestial._theta_sub_jet`` as they
# were before the generating-jet potential and the Taylor sum over shared
# deviation powers: the potential summed over every (l, k) term with its own
# phase series, and the angle substituted through exp(i k0 dev) rebuilt for
# each angle mode k0.


def _reference_lift(s, dim_out, cap):
    out = {}
    for k, c in s.coeffs.items():
        out[(0,) + tuple(k)] = c
    return FourierSeries(dim_out, cap, out)


def reference_expand_potential(sys, degree, order_cap=None):
    """The xi = 1/r jet of the potential, one term per (primary, l, k)."""
    sys.check()
    d = sys.d
    dim = 1 + d
    cap = order_cap if order_cap is not None else max(
        8, (degree - 1) * (1 + max((max((abs(x) for k in s.coeffs for x in k), default=0)
                                    for s in (*sys.qx, *sys.qy)), default=0))
    )
    cs = [1.0]
    for l in range(1, degree):
        cs.append(cs[-1] * (2 * l - 1) / (2 * l))
    terms = {}

    def add(power, series):
        key = (power, ())
        cur = terms.get(key)
        terms[key] = series if cur is None else cur + series

    for mj, ax, ay in zip(sys.masses, sys.qx, sys.qy):
        q = _reference_lift(ax, dim, cap) + _reference_lift(ay, dim, cap).scale(1j)
        qbar = q.conjugate()
        qpow = {0: FourierSeries.constant(1.0, dim, cap)}
        qbpow = {0: FourierSeries.constant(1.0, dim, cap)}
        for p in range(1, degree):
            qpow[p] = qpow[p - 1].series_mul(q)
            qbpow[p] = qbpow[p - 1].series_mul(qbar)
        for l in range(degree):
            for k in range(degree - l):
                phase = FourierSeries(dim, cap, {(-(l - k),) + (0,) * d: 1.0})
                coeff = qpow[l].series_mul(qbpow[k]).series_mul(phase)
                add(1 + l + k, coeff.scale(mj * cs[l] * cs[k]))

    jet = Jet(0, degree, dim, cap, terms)
    if abs(jet.coeff(1).average() - sys.total_mass) > 1e-12 * max(sys.total_mass, 1.0):
        raise HypothesisViolation("leading potential coefficient is not the total mass")
    if jet.coeff(2).strip_norm() > 1e-10 * max(sys.total_mass, 1.0):
        raise HypothesisViolation("1/r^2 coefficient survives")
    return Jet(0, degree, dim, cap, {key: s for key, s in jet.terms.items() if key[0] != 2})


def reference_theta_sub_jet(series, alpha0, dev_rad, m, deg, d, cap):
    """series(alpha0 + dev) (radians on axis 0), grouped by the angle mode
    k0: e^(i k0 alpha0) times the exponential series of i k0 dev."""
    groups = {}
    for k, c in series.coeffs.items():
        groups.setdefault(k[0], {})[k[1:]] = groups.setdefault(k[0], {}).get(k[1:], 0.0) + c
    out = Jet(m, deg, d, cap)
    one = Jet.monomial(0, (0,) * m, 1.0, m, deg, d, cap)
    for k0, table in groups.items():
        base = FourierSeries(d, cap, table)
        if k0 == 0:
            out = out + Jet.monomial(0, (0,) * m, base, m, deg, d, cap)
            continue
        const = complex(math.cos(k0 * alpha0), math.sin(k0 * alpha0))
        expo = dev_rad.scale(1j * k0)
        expj = one
        term = one
        fact = 1.0
        for p in range(1, deg + 1):
            term = term.jet_mul(expo)
            fact *= p
            expj = expj + term.scale(1.0 / fact)
            if term.is_zero():
                break
        out = out + expj.scale(base.scale(const))
    return out


# The direct sums over the primaries that the restricted field's stacked
# evaluation and the potential expansion are checked against.


def primary_positions(sys, phase):
    """Complex positions q_j of the primaries at a torus phase (tuple of
    turns), one series at a time."""
    return [
        complex(ax.evaluate(phase)) + 1j * complex(ay.evaluate(phase))
        for ax, ay in zip(sys.qx, sys.qy)
    ]


def potential_direct(sys, r, theta_rad, phase):
    """Directly summed potential sum m_j / |r e^(i theta) - q_j|."""
    z = r * complex(math.cos(theta_rad), math.sin(theta_rad))
    acc = 0.0
    for mj, qj in zip(sys.masses, primary_positions(sys, phase)):
        acc += mj / abs(z - qj)
    return acc


class ReferenceRestrictedField:
    """The restricted field in (r, theta, y, G) with the positions of all
    primaries from one stacked numpy product, ``qmat @ exp(2 pi i k.omega
    t)``, and the potential summed on Python floats: the code that
    ``RestrictedField``'s per-system choice of summation replaced.  k.omega t
    is summed from zero one axis at a time, as ``FourierSeries.evaluate``
    does (a matmul ``modes @ (omega t)`` rounds it otherwise on T^2)."""

    def __init__(self, sys):
        self.sys = sys
        modes = sorted({k for s in (*sys.qx, *sys.qy) for k in s.coeffs})
        self._omega = np.array(sys.omega, dtype=float)
        self._modes = np.array(modes, dtype=float).reshape(len(modes), sys.qx[0].dim)
        self._qmat = np.array(
            [[ax.coeff(k) + 1j * ay.coeff(k) for k in modes] for ax, ay in zip(sys.qx, sys.qy)],
            dtype=complex,
        )

    @property
    def dim(self):
        return 4

    def positions(self, t):
        phase = np.zeros(len(self._modes))
        for r in range(self._modes.shape[1]):
            phase += self._modes[:, r] * (self._omega[r] * t)
        return self._qmat @ np.exp(2j * math.pi * phase)

    def potential_and_gradient(self, r, theta_rad, t):
        r, theta_rad, t = float(r), float(theta_rad), float(t)
        e = complex(math.cos(theta_rad), math.sin(theta_rad))
        z = r * e
        V = dVdr = dVdth = 0.0
        for mj, qj in zip(self.sys.masses, self.positions(t).tolist()):
            D = z - qj
            nrm = abs(D)
            V += mj / nrm
            dVdr -= mj * (D.conjugate() * e).real / nrm ** 3
            dVdth -= mj * (D.conjugate() * (1j * r * e)).real / nrm ** 3
        return V, dVdr, dVdth

    def rhs(self, t, state):
        r, th, y, G = state
        if r <= 0:
            raise OrbitLeftDomain(0, state)
        _, dVdr, dVdth = self.potential_and_gradient(r, th, t)
        return (y, G / r ** 2, G ** 2 / r ** 3 + dVdr, dVdth)

    def energy(self, state, t):
        r, th, y, G = state
        V, _, _ = self.potential_and_gradient(r, th, t)
        return 0.5 * (y ** 2 + G ** 2 / r ** 2) - V
