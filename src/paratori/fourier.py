"""Truncated Fourier series on the d-torus and the small-divisors solvers.

Angles live in "turns": a point on T^d is a vector theta with period 1 in
each component and the basis functions are exp(2*pi*i*k.theta) for integer
multi-indices k.  A series keeps only modes with |k|_1 <= order_cap; an
absent index means an exactly zero coefficient.

All values are immutable after construction and every operation returns a
fresh series, so instances can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, NonzeroAverage, ResonantMode, ZeroDivisor

_TWO_PI = 2.0 * math.pi

__all__ = [
    "FourierSeries",
    "FrequencyVector",
    "sd_solve_map",
    "sd_solve_flow",
    "diophantine_scan",
]


def _norm1(k: tuple[int, ...]) -> int:
    return sum(abs(x) for x in k)


class FourierSeries:
    """A truncated complex Fourier series on T^dim.

    Parameters
    ----------
    dim : int
        Number of angles d (>= 0; d = 0 means a plain constant).
    order_cap : int
        Retain only modes with |k|_1 <= order_cap.
    coeffs : mapping from tuple of int to complex, optional
        Mode table.  Exact zeros are dropped; modes beyond the cap are
        dropped and their absolute values accumulated in ``trunc_loss``.
    trunc_loss : float, optional
        Truncation loss carried in from the operands that produced this
        series.

    Notes
    -----
    Real-valued functions satisfy coeff(-k) == conj(coeff(k)); the class
    does not enforce this on construction (intermediate complex objects
    are legitimate) but every public operation preserves it, and
    :meth:`real_symmetry_defect` measures it.
    """

    __slots__ = ("dim", "order_cap", "coeffs", "trunc_loss", "_arrays")

    def __init__(
        self,
        dim: int,
        order_cap: int,
        coeffs: Mapping[tuple[int, ...], complex] | None = None,
        trunc_loss: float = 0.0,
    ):
        if dim < 0 or order_cap < 0:
            raise ValueError("dim and order_cap must be nonnegative")
        self.dim = int(dim)
        self.order_cap = int(order_cap)
        table: dict[tuple[int, ...], complex] = {}
        loss = float(trunc_loss)
        if coeffs:
            for k, c in coeffs.items():
                k = tuple(int(x) for x in k)
                if len(k) != self.dim:
                    raise DimensionMismatch(
                        f"multi-index {k} does not match dim={self.dim}"
                    )
                c = complex(c)
                if c == 0.0:
                    continue
                if _norm1(k) > self.order_cap:
                    loss += abs(c)
                    continue
                table[k] = table.get(k, 0.0) + c
        self.coeffs = {k: c for k, c in table.items() if c != 0.0}
        self.trunc_loss = loss
        self._arrays = None

    # ---------------------------------------------------------------- util

    @classmethod
    def zeros(cls, dim: int, order_cap: int) -> "FourierSeries":
        return cls(dim, order_cap, {})

    @classmethod
    def constant(cls, value: complex, dim: int, order_cap: int) -> "FourierSeries":
        return cls(dim, order_cap, {(0,) * dim: value})

    @classmethod
    def cosine(cls, mode: Iterable[int], dim: int, order_cap: int, amp: float = 1.0) -> "FourierSeries":
        """amp * cos(2*pi*k.theta) as the pair of modes +-k."""
        k = tuple(int(x) for x in mode)
        mk = tuple(-x for x in k)
        return cls(dim, order_cap, {k: amp / 2.0, mk: amp / 2.0})

    @classmethod
    def sine(cls, mode: Iterable[int], dim: int, order_cap: int, amp: float = 1.0) -> "FourierSeries":
        """amp * sin(2*pi*k.theta) as the pair of modes +-k."""
        k = tuple(int(x) for x in mode)
        mk = tuple(-x for x in k)
        return cls(dim, order_cap, {k: -0.5j * amp, mk: 0.5j * amp})

    def _like(self, coeffs, loss=0.0) -> "FourierSeries":
        return FourierSeries(self.dim, self.order_cap, coeffs, loss)

    def _check_compatible(self, other: "FourierSeries") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"series on T^{self.dim} combined with series on T^{other.dim}"
            )

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def coeff(self, k: Iterable[int]) -> complex:
        return self.coeffs.get(tuple(int(x) for x in k), 0.0 + 0.0j)

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"FourierSeries(dim={self.dim}, cap={self.order_cap}, modes={n})"

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return FourierSeries(
            self.dim,
            min(self.order_cap, other.order_cap),
            out,
            self.trunc_loss + other.trunc_loss,
        )

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (-other)

    def __neg__(self) -> "FourierSeries":
        return self._like({k: -c for k, c in self.coeffs.items()}, self.trunc_loss)

    def scale(self, s: complex) -> "FourierSeries":
        return self._like(
            {k: s * c for k, c in self.coeffs.items()}, abs(s) * self.trunc_loss
        )

    def __mul__(self, other):
        if isinstance(other, FourierSeries):
            return self.series_mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def series_mul(self, other: "FourierSeries") -> "FourierSeries":
        """Pointwise product; modes beyond the cap feed ``trunc_loss``."""
        self._check_compatible(other)
        cap = min(self.order_cap, other.order_cap)
        out: dict[tuple[int, ...], complex] = {}
        dropped = 0.0
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                if _norm1(k) > cap:
                    dropped += abs(c)
                else:
                    out[k] = out.get(k, 0.0) + c
        return FourierSeries(
            self.dim, cap, out, self.trunc_loss + other.trunc_loss + dropped
        )

    def conjugate(self) -> "FourierSeries":
        """Coefficientwise complex conjugate with mode reflection (conj of the function)."""
        return self._like(
            {tuple(-x for x in k): c.conjugate() for k, c in self.coeffs.items()},
            self.trunc_loss,
        )

    # -------------------------------------------------------- torus values

    def _mode_arrays(self):
        """The mode table as arrays (modes (n, dim), coeffs (n,)), built on first use."""
        if self._arrays is None:
            n = len(self.coeffs)
            self._arrays = (
                np.array(list(self.coeffs), dtype=float).reshape(n, self.dim),
                np.array(list(self.coeffs.values()), dtype=complex),
            )
        return self._arrays

    def evaluate(self, theta, dtype=complex):
        """Sum of coeff(k) * exp(2*pi*i*k.theta) at one point or a batch.

        ``theta`` is a scalar (dim = 1 shorthand), a length-dim point, or an
        array of points of shape (..., dim); a single point gives a ``dtype``
        scalar, a batch an array of shape (...).  Complex entries evaluate
        the series on a strip.  Pass ``dtype=numpy.clongdouble`` for
        extended-precision accumulation.
        """
        modes, coeffs = self._mode_arrays()
        th = np.asarray(theta, dtype=dtype)
        if th.ndim == 0 and self.dim <= 1:
            th = th.reshape(1)[: self.dim]  # a scalar on T^1; ignored on T^0
        if th.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"theta of shape {th.shape} on T^{self.dim}")
        two_pi_i = dtype(2j) * dtype(np.pi)
        return np.exp(two_pi_i * (th @ modes.T)) @ coeffs.astype(dtype, copy=False)

    def average(self) -> complex:
        """Zero mode (torus average)."""
        return self.coeffs.get((0,) * self.dim, 0.0 + 0.0j)

    def oscillatory(self) -> "FourierSeries":
        """The series minus its average."""
        zero = (0,) * self.dim
        return self._like(
            {k: c for k, c in self.coeffs.items() if k != zero}, self.trunc_loss
        )

    def rotate(self, step) -> "FourierSeries":
        """Composition with theta -> theta + step: coeff(k) *= e^(2*pi*i*k.step)."""
        if np.isscalar(step):
            step = (step,)
        step = tuple(float(s) for s in step)
        if len(step) != self.dim:
            raise DimensionMismatch(f"step of length {len(step)} on T^{self.dim}")
        out = {}
        for k, c in self.coeffs.items():
            ph = sum(ki * si for ki, si in zip(k, step))
            out[k] = c * cmath.exp(2j * math.pi * ph)
        return self._like(out, self.trunc_loss)

    def derivative(self, axis: int) -> "FourierSeries":
        """Exact termwise d/d(theta_axis): multiply mode k by 2*pi*i*k_axis."""
        out = {}
        for k, c in self.coeffs.items():
            if k[axis]:
                out[k] = c * (2j * math.pi * k[axis])
        return self._like(out, self.trunc_loss)

    def directional_derivative(self, freqs) -> "FourierSeries":
        """Sum over axes of freqs[i] * d/d(theta_i) (the operator L_omega)."""
        freqs = tuple(float(w) for w in freqs)
        if len(freqs) != self.dim:
            raise DimensionMismatch("frequency vector length mismatch")
        out = {}
        for k, c in self.coeffs.items():
            dot = sum(ki * wi for ki, wi in zip(k, freqs))
            if dot != 0.0:
                out[k] = c * (2j * math.pi * dot)
        return self._like(out, self.trunc_loss)

    # ------------------------------------------------------------- norms

    def strip_norm(self, sigma: float = 0.0) -> float:
        """Weighted l1 coefficient norm sum |c_k| e^(2*pi*|k|*sigma)."""
        if sigma == 0.0:
            return sum(abs(c) for c in self.coeffs.values())
        return sum(
            abs(c) * math.exp(_TWO_PI * _norm1(k) * sigma)
            for k, c in self.coeffs.items()
        )

    def real_symmetry_defect(self) -> float:
        """max_k |coeff(-k) - conj(coeff(k))| over stored modes."""
        worst = 0.0
        for k, c in self.coeffs.items():
            mk = tuple(-x for x in k)
            worst = max(worst, abs(self.coeffs.get(mk, 0.0) - c.conjugate()))
        return worst

    def pad_modes(self, order_cap: int) -> "FourierSeries":
        """Same series viewed with a different order cap."""
        return FourierSeries(self.dim, order_cap, self.coeffs, self.trunc_loss)


# ------------------------------------------------------- frequency vectors


@dataclass(frozen=True)
class FrequencyVector:
    """A rotation vector with a certificate from a finite Diophantine scan.

    ``sense`` records which quotient was scanned: ``"map"`` uses
    |k.omega - l| |k|^tau over integer l, ``"flow"`` uses |k.(omega, nu)| |k|^tau.
    """

    omega: tuple[float, ...]
    nu: tuple[float, ...] = ()
    tau: float = 1.0
    c_estimate: float = math.inf
    k_max_checked: int = 0
    sense: str = "map"
    worst_k: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.omega)

    @property
    def full(self) -> tuple[float, ...]:
        return self.omega + self.nu

    def verify(self) -> None:
        """Re-run the scan and assert that c_estimate is a valid lower bound."""
        if self.k_max_checked < 1:
            return
        fresh = diophantine_scan(
            self.omega, self.nu, self.tau, self.k_max_checked, sense=self.sense
        )
        if self.c_estimate > fresh.c_estimate * (1.0 + 1e-12):
            raise AssertionError(
                f"stored c_estimate {self.c_estimate} exceeds rescan value "
                f"{fresh.c_estimate}"
            )


def _half_lattice(dim: int, k_max: int):
    """All k in Z^dim with 1 <= |k|_1 <= k_max and first nonzero entry > 0."""
    if dim == 0:
        return
    for k in _iproduct(*[range(-k_max, k_max + 1)] * dim):
        n = _norm1(k)
        if n == 0 or n > k_max:
            continue
        for x in k:
            if x > 0:
                yield k
                break
            if x < 0:
                break


def diophantine_scan(
    omega,
    nu=(),
    tau: float = 1.0,
    k_max: int = 50,
    sense: str = "map",
) -> FrequencyVector:
    """Brute-force lower bound for the Diophantine constant up to |k| <= k_max.

    Map sense: c = min over 0 < |k| <= k_max of |k.omega - l| |k|^tau with l
    the nearest integer.  Flow sense: c = min |k.(omega, nu)| |k|^tau.
    Raises :class:`ZeroDivisor` on an exact rational resonance.
    """
    omega = tuple(float(w) for w in omega)
    nu = tuple(float(v) for v in nu)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if sense not in ("map", "flow"):
        raise ValueError("sense must be 'map' or 'flow'")
    vec = omega if sense == "map" else omega + nu
    best = math.inf
    worst: tuple[int, ...] | None = None
    for k in _half_lattice(len(vec), k_max):
        v = sum(ki * wi for ki, wi in zip(k, vec))
        if sense == "map":
            dist = abs(v - round(v))
            if dist == 0.0:
                raise ZeroDivisor(k, int(round(v)))
        else:
            dist = abs(v)
            if dist == 0.0:
                raise ZeroDivisor(k)
        q = dist * float(_norm1(k)) ** tau
        if q < best:
            best = q
            worst = k
    return FrequencyVector(
        omega=omega,
        nu=nu,
        tau=float(tau),
        c_estimate=best,
        k_max_checked=int(k_max),
        sense=sense,
        worst_k=worst,
    )


# ------------------------------------------------------ small divisors (SD)


def _require_zero_average(h: FourierSeries) -> None:
    scale = h.strip_norm(0.0)
    if abs(h.average()) > 1e-13 * max(scale, 1e-300):
        raise NonzeroAverage(
            f"average {h.average():.3e} vs strip norm {scale:.3e}; split "
            "off the averaged part before calling the SD solver"
        )


def sd_solve_map(
    h: FourierSeries, freq: FrequencyVector, divisor_floor: float = 1e-12
) -> FourierSeries:
    """Solve phi(theta + omega) - phi(theta) = h(theta) with zero average.

    Modewise phi_k = h_k / (e^(2*pi*i*k.omega) - 1), fixed by the residual
    of the defining difference equation.  Divisors smaller than
    ``divisor_floor`` (with a nonzero h_k present) raise
    :class:`ResonantMode`; regularizing them would silently destroy the
    decay the Diophantine hypothesis guarantees.
    """
    _require_zero_average(h)
    omega = freq.omega
    if len(omega) != h.dim:
        raise DimensionMismatch(
            f"series on T^{h.dim} with frequency vector of length {len(omega)}"
        )
    out = {}
    for k, c in h.coeffs.items():
        if _norm1(k) == 0:
            continue
        ph = sum(ki * wi for ki, wi in zip(k, omega))
        div = cmath.exp(2j * math.pi * ph) - 1.0
        if abs(div) < divisor_floor:
            if c != 0.0:
                raise ResonantMode(k, div)
            continue
        out[k] = c / div
    return FourierSeries(h.dim, h.order_cap, out, h.trunc_loss)


def sd_solve_flow(
    h: FourierSeries, freq: FrequencyVector, divisor_floor: float = 1e-12
) -> FourierSeries:
    """Solve the directional-derivative equation L_(omega,nu) phi = h.

    The series lives on T^(d+d'); modewise phi_k = h_k / (2*pi*i*k.(omega, nu)).
    """
    _require_zero_average(h)
    vec = freq.full
    if len(vec) != h.dim:
        raise DimensionMismatch(
            f"series on T^{h.dim} with frequency vector of length {len(vec)}"
        )
    out = {}
    for k, c in h.coeffs.items():
        if _norm1(k) == 0:
            continue
        dot = sum(ki * wi for ki, wi in zip(k, vec))
        div = 2j * math.pi * dot
        if abs(div) < divisor_floor:
            if c != 0.0:
                raise ResonantMode(k, div)
            continue
        out[k] = c / div
    return FourierSeries(h.dim, h.order_cap, out, h.trunc_loss)
