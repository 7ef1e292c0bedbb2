"""Shared independent oracles for engine tests (kept apart from the
implementation: a dense generic linear solve of the full coefficient system
assembled by probing the exact jet composition)."""

import numpy as np

from paratori.cohomology import invariance_error
from paratori.fourier import FourierSeries
from paratori.model import ReducedMap


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


def _candidate(sol_prev, j, model, vals):
    """Assemble the step-j solution with the unknowns set to ``vals``."""
    N, P = sol_prev.N, sol_prev.P
    ox, oth = j + N - 1, j + P - 2
    new = sol_prev.copy_shallow()
    new.j = j
    if j == N:
        new.reduced = ReducedMap(N=N, a_bar=new.reduced.a_bar,
                                 omega=new.reduced.omega, b=vals["b"],
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


def _dense_oracle_step(model, sol_prev, j, cap):
    """Solve the full order-(j+N-1) coefficient system with numpy.

    Unknowns are probed one at a time through the exact jet composition
    (the equations are affine in them at the target orders), assembled into
    a dense matrix and solved by least squares.
    """
    N, P = sol_prev.N, sol_prev.P
    ox, oth = j + N - 1, j + P - 2
    zero = FourierSeries.zeros(1, cap)
    base_vals = {"b": 0.0, "kx": 0.0, "ky": 0.0, "kth": 0.0,
                 "ktx": zero, "kty": zero, "ktth": zero}

    def targets(vals):
        err = invariance_error(model, _candidate(sol_prev, j, model, vals))
        out = _series_to_vec(err.ex.x_coeff(ox), cap)
        out += _series_to_vec(err.ey[0].x_coeff(ox), cap)
        out += _series_to_vec(err.eth[0].x_coeff(oth), cap)
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
