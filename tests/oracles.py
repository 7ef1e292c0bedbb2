"""Shared independent oracles for engine tests, kept apart from the
implementation: a dense generic linear solve of the full coefficient system
assembled by probing the exact jet composition, the per-mode and per-series
evaluation loops, the dict-of-tuples Fourier arithmetic that the array
store replaced, the algebra of series stored over the whole box
[-cap, cap]^d with the box product that scanned both supports for every
pair product, the restricted-field constructors written term by term, the
positions and potential of the primaries summed one primary at a time,
the restricted field with every position from one numpy matrix-vector
product, the restricted field summed in float loops over modes and
primaries, the invariance residual sampled one x-sample at a time, the jet
substitution with one memo per job and every Taylor derivative taken afresh,
the Diophantine scan as one loop over the half lattice, the
Dormand–Prince step and its error norm as loops over the components, a
fixed-step run of the generated step, the semiconjugacy defect of a map
orbit started on the parametrization, and the averaging conjugation of a
model to constant a and B (``normalize``), which no command needs."""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from paratori.cohomology import ErrorJet, invariance_error
from paratori.dynamics import Orbit, _stepper, iterate_map
from paratori.errors import (DegreeOverflow, HypothesisViolation, OrbitLeftDomain, ResonantMode, SingularB,
                             ZeroDivisor)
from paratori.fourier import FourierSeries, _quotient
from paratori.jet import (Jet, SkewMap, _multis, _Substitution, compose, evaluate_jets, invert_x_jet,
                          jet_compose)
from paratori.model import ReducedMap, SkewField, model_from
from paratori.verify import _CDT, _cabs, _max_diff, _theta_grid, _transport_jets

_TWO_PI_I = 2j * math.pi


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
    Ydev = sol.reduced.theta_jets(deg, model)

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


def reference_diophantine_scan(omega, nu=(), tau=1.0, k_max=50, sense="map"):
    """(c_estimate, worst_k) of ``diophantine_scan`` as the per-mode loop
    computed it: every k of the box in ``itertools.product`` order with
    1 <= |k|_1 <= k_max and first nonzero entry positive, k.vec by Python's
    ``sum``, the nearest integer by ``round``, |k|^tau by Python's power,
    and the first strict minimum.  Raises ZeroDivisor at the first exact
    resonance."""
    vec = tuple(float(w) for w in omega)
    if sense == "flow":
        vec += tuple(float(v) for v in nu)
    best, worst = math.inf, None
    for k in itertools.product(range(-k_max, k_max + 1), repeat=len(vec)):
        n = _norm1(k)
        if n == 0 or n > k_max or next(x for x in k if x) < 0:
            continue
        v = sum(ki * wi for ki, wi in zip(k, vec))
        if sense == "map":
            dist = abs(v - round(v))
            if dist == 0.0:
                raise ZeroDivisor(k, int(round(v)))
        else:
            dist = abs(v)
            if dist == 0.0:
                raise ZeroDivisor(k)
        q = dist * float(n) ** tau
        if q < best:
            best, worst = q, k
    return best, worst


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


# ------------------------------------------------------------ the box algebra
#
# ``FourierSeries`` as it was while its coefficients were one flat array over
# the box [-cap, cap]^d in lexicographic order, zero beyond the cap: every
# operation on box arrays, with the box's own mode tables, so that each can
# be held against the store over the modes |k|_1 <= cap bit for bit.  The
# product is the one that scanned both boxes for every product and summed
# every pair in the wide box of cap 2 cap, unless a factor had no mode but
# its zero mode.  The strip norm and a product's loss sum the box's terms
# with ``math.fsum``, correctly rounded, as the store sums its own.


@functools.lru_cache(maxsize=None)
def box_tables(dim, cap):
    """(modes, norm1) of the box [-cap, cap]^dim: each mode as a row, flat in
    lexicographic order, and its |k|_1."""
    n = 2 * cap + 1
    modes = np.indices((n,) * dim).reshape(dim, n ** dim).T - cap
    return modes, np.abs(modes).sum(axis=1)


def stored_positions(dim, cap):
    """The box positions of the modes |k|_1 <= cap, in lexicographic order."""
    return np.flatnonzero(box_tables(dim, cap)[1] <= cap)


def box_of(s):
    """The box array of s: its coefficients in place, +0 beyond the cap."""
    out = np.zeros(box_tables(s.dim, s.order_cap)[1].size, dtype=s._data.dtype)
    out[stored_positions(s.dim, s.order_cap)] = s._data
    return out


def box_series(dim, cap, data, trunc_loss=0.0):
    """The series whose box array is ``data`` (zero beyond the cap)."""
    assert not data[box_tables(dim, cap)[1] > cap].any()
    return FourierSeries._of(dim, cap, data[stored_positions(dim, cap)], trunc_loss)


def box_coeffs(dim, cap, data):
    """The nonzero entries of a box array as a table k -> coefficient."""
    modes = box_tables(dim, cap)[0]
    return {tuple(modes[i].tolist()): complex(data[i]) for i in np.flatnonzero(data)}


def _box_index(dim, cap, k):
    n = 2 * cap + 1
    return sum((ki + cap) * n ** (dim - 1 - i) for i, ki in enumerate(k))


def box_coeff(s, k):
    """``s.coeff(k)`` read from the box array."""
    k = tuple(int(x) for x in k)
    if len(k) != s.dim or _norm1(k) > s.order_cap:
        return 0.0 + 0.0j
    return complex(box_of(s)[_box_index(s.dim, s.order_cap, k)])


def box_factors(dim, cap, kind, vec):
    """Per-mode multipliers over the box, k.vec summed axis by axis: the
    rotation, the derivative or the map divisor."""
    modes = box_tables(dim, cap)[0]
    dots = np.zeros(modes.shape[0])
    for i, w in enumerate(vec):
        dots = dots + modes[:, i] * w
    arg = 1j * (2.0 * math.pi * dots)
    if kind == "derivative":
        return arg
    rot = np.exp(arg)
    return rot if kind == "rotation" else rot - 1.0


def box_times(s, kind, vec):
    """The box array of s times its per-mode multipliers.  Both operands are
    named: numpy may write a product over a temporary operand of 256 kB or
    more into that operand, and that loop can round a complex product
    differently."""
    data, factors = box_of(s), box_factors(s.dim, s.order_cap, kind, tuple(vec))
    return data * factors


def box_at_first_angle(s, theta0, p):
    """The box array on T^(dim-1) of ``s.at_first_angle(theta0, p)``."""
    k0 = np.arange(-s.order_cap, s.order_cap + 1)
    factor = (1j * (2.0 * math.pi * k0)) ** p * np.exp(1j * (k0 * (2.0 * math.pi * theta0)))
    rows = box_of(s).reshape(k0.size, -1)
    return (factor[:, None] * rows).sum(axis=0)


def box_strip_norm(s, sigma=0.0):
    mags = np.abs(box_of(s))
    if sigma != 0.0:
        mags = mags * np.exp(2.0 * math.pi * box_tables(s.dim, s.order_cap)[1] * sigma)
    return math.fsum(mags.tolist())


def box_sd_divide(h, vec, kind, divisor_floor=1e-12):
    """The box array of phi_k = h_k / divisor(k.vec), each quotient rounded
    as Python's complex division; raises ResonantMode at the first small
    divisor in lexicographic order."""
    data = box_of(h)
    idx = data.nonzero()[0]
    idx = idx[idx != data.size // 2]
    div = box_factors(h.dim, h.order_cap, kind, tuple(vec))[idx]
    small = np.abs(div) < divisor_floor
    if small.any():
        at = int(np.argmax(small))
        raise ResonantMode(tuple(box_tables(h.dim, h.order_cap)[0][idx[at]].tolist()), complex(div[at]))
    out = np.zeros_like(data)
    out[idx] = _quotient(data[idx], div)
    return out


def box_evaluate_series(series, theta, dtype=complex):
    """``evaluate_series`` over the box: one phase table over the union of
    the series' nonzero box positions, k.theta summed axis by axis."""
    dim, cap = series[0].dim, series[0].order_cap
    th = np.asarray(theta, dtype=dtype)
    t = th.reshape(1)[:dim] if th.ndim == 0 and dim <= 1 else th
    data = [box_of(s) for s in series]
    supports = [d.nonzero()[0] for d in data]
    modes = np.flatnonzero(np.bincount(np.concatenate(supports), minlength=1))
    table = np.zeros(t.shape[:-1] + (modes.size,), dtype=dtype)
    for r, k in enumerate(box_tables(dim, cap)[0][modes].T.astype(float)):
        table += t[..., r:r + 1] @ k[None]
    np.exp(np.multiply(dtype(2j) * dtype(np.pi), table, out=table), out=table)
    out = []
    for d, idx in zip(data, supports):
        cols = table if idx.size == modes.size else np.take(table, np.searchsorted(modes, idx), axis=-1)
        out.append(cols @ d[idx].astype(dtype))
    return out


@functools.lru_cache(maxsize=None)
def box_centre_out(dim, cap):
    """The box positions of the modes |k|_1 <= cap from the centre out, each
    k next to -k."""
    norm1 = box_tables(dim, cap)[1]
    zero = norm1.size // 2
    out = np.arange(zero + 1, norm1.size)
    order = np.concatenate(([zero], np.column_stack((out, norm1.size - 1 - out)).ravel()))
    return order[norm1[order] <= cap]


@functools.lru_cache(maxsize=None)
def _box_product_plan(dim, cap):
    """The wide position (in the box of cap 2 cap) of each box position, the
    trailing zero bin beyond the cap; the wide centre; the mask of the bins
    beyond the cap; and the number of bins."""
    norm1, wide = box_tables(dim, cap)[1], box_tables(dim, 2 * cap)[1]
    pos = np.full(norm1.size, -1, dtype=np.int64)
    pos[norm1 <= cap] = np.flatnonzero(wide <= cap)
    return pos, wide.size // 2, np.append(wide > cap, False), wide.size + 1


def _zero_mode_only(pos, zero):
    """Whether the nonzero positions ``pos`` hold no mode but the zero mode."""
    return pos.size < 2 and pos.tolist() in ([], [zero])


def box_pairs(a, b):
    """The nonzero modes of a, from the centre out (each k next to -k), and
    of b, as positions in their boxes, and the products of every pair as one
    (a, b) array from one call."""
    order = box_centre_out(a.dim, a.order_cap)
    da, db = box_of(a), box_of(b)
    va = da[order]
    ia, ib = va.nonzero()[0], db.nonzero()[0]
    return order[ia], ib, va[ia][:, None] * db[ib]


def box_pair_product(a, b, pairs=None):
    """The box array of the product and the l1 mass beyond the cap, summed
    pair by pair over the nonzero modes in a's centre-out order, so that a
    term and its mirror image cancel exactly.  ``pairs`` is :func:`box_pairs`
    of (a, b), when it is at hand."""
    pos_a, pos_b, prods = box_pairs(a, b) if pairs is None else pairs
    pos, zero, beyond, bins = _box_product_plan(a.dim, a.order_cap)
    full = np.zeros(bins, dtype=complex)
    np.add.at(full, ((pos[pos_a] - zero)[:, None] + pos[pos_b]).ravel(), prods.ravel())
    return full[pos], math.fsum(np.abs(full[beyond]).tolist())


def box_series_mul(a, b):
    """(box array, trunc_loss) of ``a.series_mul(b)`` as it was: with a
    factor that has no mode but its zero mode, each mode of the product is
    one pair's product put in place plus +0; otherwise
    :func:`box_pair_product`."""
    a._check_compatible(b)
    pairs = pos_a, pos_b, prods = box_pairs(a, b)
    zero = box_tables(a.dim, a.order_cap)[1].size // 2
    loss = a.trunc_loss + b.trunc_loss
    if _zero_mode_only(pos_a, zero) or _zero_mode_only(pos_b, zero):
        data = np.zeros(2 * zero + 1, dtype=complex)
        data[(pos_a[:, None] + (pos_b - zero)).ravel()] = 0j + prods.ravel()
        return data, loss
    data, dropped = box_pair_product(a, b, pairs)
    return data, loss + dropped


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



class FloatSumRestrictedField:
    """The restricted field with the positions summed on Python complex
    numbers in loops over the used modes and the primaries, and one
    potential kernel shared by ``rhs`` and ``energy``: the code whose loops
    ``RestrictedField``'s generated function unrolled, for systems of any
    number of terms."""

    def __init__(self, sys):
        self.sys = sys
        modes = sorted({k for s in (*sys.qx, *sys.qy) for k in s.coeffs})
        self._omega = tuple(float(w) for w in sys.omega)
        self._modes = np.array(modes, dtype=float).reshape(len(modes), sys.qx[0].dim)
        qmat = np.array(
            [[ax.coeff(k) + 1j * ay.coeff(k) for k in modes] for ax, ay in zip(sys.qx, sys.qy)],
            dtype=complex,
        )
        self._last_t = self._last_q = None
        nonzero = [[(i, c) for i, c in enumerate(row) if c] for row in qmat.tolist()]
        used = sorted({i for row in nonzero for i, _ in row})
        self._used_modes = tuple(tuple(self._modes[i].tolist()) for i in used)
        self._terms = tuple(tuple((used.index(i), c) for i, c in row) for row in nonzero)
        self._sum = self._float_positions

    def _sum_positions(self, t) -> list:
        # stages k6 and k7 of a Dormand–Prince step share the time t + h
        if t != self._last_t:
            self._last_t, self._last_q = t, self._sum(t)
        return self._last_q

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


# The jet substitution as it was written with a memo per job (powers of x, of
# each y and products of the deviations) and every derivative of the rotated
# series taken afresh; ``jet.compose`` and ``jet.jet_compose`` must match it
# bit for bit.


class ReferenceSubstitution:
    """The jet substitution with one memo per job: x powers, y powers and
    deviation products, and each derivative of the Taylor expansion in the
    deviations taken from the rotated series, |mu| derivatives per term."""

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


def reference_jet_compose(target, sub_x, sub_y=(), theta_dev=(), rot=None, deg=None):
    deg = sub_x.deg if deg is None else deg
    return ReferenceSubstitution(sub_x, sub_y, theta_dev, rot, deg).apply(target)


def reference_compose(outer, inner, deg):
    sub = ReferenceSubstitution(inner.x, inner.y, inner.theta_dev, inner.rot, deg)
    return SkewMap(
        x=sub.apply(outer.x),
        y=tuple(sub.apply(j) for j in outer.y),
        theta_dev=tuple(
            dv + sub.apply(outer.theta_dev[r]) if r < len(outer.theta_dev) else dv
            for r, dv in enumerate(inner.theta_dev)
        ),
        rot=tuple(a + b for a, b in zip(outer.rot, inner.rot)),
    )


# --------------------------------------------- the Dormand–Prince step as loops

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)


def reference_dp_step(rhs, t, y, f, h):
    """One Dormand–Prince step of size h from (t, y), where f = rhs(t, y).

    Returns the 5th-order state at t + h and the seven stages; the last is
    rhs(t + h, y_new), the first stage of the next step (FSAL).
    """
    k1 = f
    k2 = rhs(t + _C2 * h, [yi + _A21 * a * h for yi, a in zip(y, k1)])
    k3 = rhs(t + _C3 * h, [yi + (_A31 * a + _A32 * b) * h
                           for yi, a, b in zip(y, k1, k2)])
    k4 = rhs(t + _C4 * h, [yi + (_A41 * a + _A42 * b + _A43 * c) * h
                           for yi, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs(t + _C5 * h, [yi + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                           for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [yi + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                     for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
             for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)
    return y_new, (k1, k2, k3, k4, k5, k6, k7)


def reference_error_norm(y, y_new, ks, h, rtol, atol) -> float:
    """RMS of the embedded error estimate over atol + max(|y|, |y_new|) rtol."""
    k1, _, k3, k4, k5, k6, k7 = ks
    total = 0.0
    for yi, zi, a, c, d, e, g, q in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        v = ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * q) * h
             / (atol + max(abs(yi), abs(zi)) * rtol))
        total += v * v
    return math.sqrt(total) / len(y) ** 0.5


def fixed_step_orbit(field, state0, t_end, h):
    """``dynamics._stepper`` run at the fixed step h with no error control,
    the last step cut short to end at t_end: halving h must shrink the
    error by the pair's order."""
    rhs = field.rhs
    t, t_end, y = 0.0, float(t_end), [float(v) for v in state0]
    step = _stepper(len(y))
    f = rhs(t, y)
    times, states = [t], [y]
    while t < t_end:
        t_new = min(t + h, t_end)
        y, ks, _ = step(rhs, t, y, f, t_new - t, 1.0, 1.0)
        t, f = t_new, ks[-1]
        times.append(t)
        states.append(y)
    return Orbit(times=np.array(times, dtype=float), states=np.array(states, dtype=float))


def semiconjugacy_defect(sol, x0, theta0, steps, domain_radius=math.inf):
    """The largest |F^k(K(x0, θ0)) - K(R^k(x0, θ0))| over the components and
    the iterates k of the map orbit from K(x0, θ0), with that orbit: on the
    stable manifold the map acts as the reduced dynamics, F∘K = K∘R, so an
    orbit that starts on K stays on it."""
    K, R = sol.param(8), sol.reduced.as_param(8, sol.model)
    kx, ky, kth = K.evaluate(x0, (), (theta0,))
    orbit = iterate_map(sol.model, [kx.real, ky[0].real, kth[0].real], steps, domain_radius=domain_radius)
    x, th = x0, (theta0,)
    worst = 0.0
    for row in orbit.states:
        kx, ky, kth = K.evaluate(x, (), th)
        worst = max(worst, np.max(np.abs(row - np.real([kx, *ky, *kth]))))
        x, _, th = R.evaluate(x, (), th)
    return worst, orbit


# ------------------------------------ the averaging conjugation to constant a, B


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


def _x_change(A, A_inv, m):
    """The pair x -> A(x, th) and x -> A_inv(x, th), y and th fixed, for a
    jet A in x alone and its compositional inverse A_inv."""
    zk = (0,) * m

    def change(j):
        T = SkewMap.identity(m, j.deg, j.dim, j.order_cap)
        T.x = Jet(m, j.deg, j.dim, j.order_cap, {(l, zk): s for (l, _), s in j.terms.items()})
        return T
    return change(A), change(A_inv)


def _y_change(D, C, N, deg, dim, cap):
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

    def change(blocks):
        """y_i -> sum over l, j of M_ij x^l y_j for the blocks {l: M}."""
        T = SkewMap.identity(m, deg, dim, cap)
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


def _change_variables(obj, T, T_inv, deg):
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


def normalize(model, jordanize=False, eps=None, deg=None, divisor_floor=1e-12):
    """Average away the theta-dependence of a and B and rescale a_bar to 1:
    the reference conjugation of a model to constant a and B, which the
    solve does not need (it handles theta-dependent a and B itself).

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
