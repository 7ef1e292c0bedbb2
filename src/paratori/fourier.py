"""Truncated Fourier series on the d-torus and the small-divisors solvers.

Angles live in "turns": a point on T^d is a vector theta with period 1 in
each component and the basis functions are exp(2*pi*i*k.theta) for integer
multi-indices k.  A series keeps only modes with |k|_1 <= order_cap.  Its
coefficients are one flat complex array over the box [-cap, cap]^d in
lexicographic mode order (so k and -k sit at mirrored positions); entries
with |k|_1 > cap are always zero, and a mode is present exactly when its
entry is nonzero.  One computation works at one dim and cap: operands of a
sum or a product, and series evaluated together, share them or raise
:class:`DimensionMismatch`.

All values are immutable after construction and every operation returns a
fresh series, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NonzeroAverage, ResonantMode, ZeroDivisor

_TWO_PI = 2.0 * math.pi

__all__ = [
    "FourierSeries",
    "FrequencyVector",
    "evaluate_series",
    "sd_solve_map",
    "sd_solve_flow",
    "diophantine_scan",
]


def _norm1(k: tuple[int, ...]) -> int:
    return sum(abs(x) for x in k)


# ------------------------------------------------------------ mode tables


def _norm1_table(dim: int, cap: int) -> np.ndarray:
    """|k|_1 of every mode of the box [-cap, cap]^dim, flat in lexicographic
    order, summed axis by axis."""
    out = np.zeros((), dtype=np.int64)
    for _ in range(dim):
        out = np.add.outer(out, np.abs(np.arange(-cap, cap + 1)))
    return out.ravel()


class _Box:
    """Index tables of the box [-cap, cap]^dim, flat in lexicographic order."""

    def __init__(self, dim: int, cap: int):
        n = 2 * cap + 1
        self.size = n ** dim
        self.modes = np.indices((n,) * dim).reshape(dim, self.size).T - cap
        self.norm1 = _norm1_table(dim, cap)
        self.zero = self.size // 2
        self._strides = [n ** (dim - 1 - i) for i in range(dim)]
        self._offset = cap * sum(self._strides)

    def index(self, k: tuple[int, ...]) -> int:
        return self._offset + sum(ki * s for ki, s in zip(k, self._strides))

    def dots(self, vec) -> np.ndarray:
        """k.vec for every mode, summed axis by axis."""
        out = np.zeros(self.size)
        for i, w in enumerate(vec):
            out = out + self.modes[:, i] * w
        return out


@lru_cache(maxsize=None)
def _box(dim: int, cap: int) -> _Box:
    return _Box(dim, cap)


@lru_cache(maxsize=None)
def _centre_out(dim: int, cap: int) -> np.ndarray:
    """The positions of the modes |k|_1 <= cap from the centre out, each k
    next to -k."""
    box = _box(dim, cap)
    out = np.arange(box.zero + 1, box.size)
    order = np.concatenate(([box.zero], np.column_stack((out, box.size - 1 - out)).ravel()))
    return order[box.norm1[order] <= cap]


@lru_cache(maxsize=None)
def _product_plan(dim: int, cap: int):
    """Index tables for the product of two cap-``cap`` series, whose pairs
    land in the wide box of cap 2 cap (only its |k|_1 table is built), where
    position(k1 + k2) = position(k1) + position(k2) - position(0), plus one
    trailing bin that stays zero.  Returns the wide position of each mode
    (-1, the zero bin, beyond the cap), which serves as a's shift less the
    wide centre, as b's positions and as the gather; the wide centre; the
    mask of the bins beyond the cap; and the number of bins."""
    box, wide = _box(dim, cap), _norm1_table(dim, 2 * cap)
    pos = np.full(box.size, -1, dtype=np.int64)
    pos[box.norm1 <= cap] = np.flatnonzero(wide <= cap)
    beyond = np.append(wide > cap, False)
    return pos, wide.size // 2, beyond, wide.size + 1


def _pairs(a: "FourierSeries", b: "FourierSeries"):
    """The nonzero modes of a, from the centre out (each k next to -k), and
    of b, as positions in their boxes, and the products of every pair as one
    (a, b) array from one call."""
    order = _centre_out(a.dim, a.order_cap)
    va = a._data[order]
    ia, ib = va.nonzero()[0], b._support()
    return order[ia], ib, va[ia][:, None] * b._data[ib]


def _zero_mode_only(pos: np.ndarray, zero: int) -> bool:
    """Whether the nonzero positions ``pos`` hold no mode but the zero mode."""
    return pos.size < 2 and pos.tolist() in ([], [zero])


def _pair_product(a: "FourierSeries", b: "FourierSeries", pairs=None) -> tuple[np.ndarray, float]:
    """The product's coefficients and the l1 mass beyond the cap, summed
    pair by pair over the nonzero modes in a's centre-out order, so that a
    term and its mirror image cancel exactly.  ``pairs`` is :func:`_pairs`
    of (a, b), when it is at hand."""
    pos_a, pos_b, prods = _pairs(a, b) if pairs is None else pairs
    pos, zero, beyond, bins = _product_plan(a.dim, a.order_cap)
    full = np.zeros(bins, dtype=complex)
    np.add.at(full, ((pos[pos_a] - zero)[:, None] + pos[pos_b]).ravel(), prods.ravel())
    lost = full[beyond]
    return full[pos], float(np.abs(lost).sum()) if np.count_nonzero(lost) else 0.0


@lru_cache(maxsize=256)
def _factors(dim: int, cap: int, kind: str, vec) -> np.ndarray:
    """Per-mode multipliers: the rotation e^(2*pi*i*k.vec), the derivative
    2*pi*i*k.vec, or the map divisor e^(2*pi*i*k.vec) - 1."""
    arg = 1j * (_TWO_PI * _box(dim, cap).dots(vec))
    if kind == "derivative":
        return arg
    rot = np.exp(arg)
    return rot if kind == "rotation" else rot - 1.0


class FourierSeries:
    """A truncated complex Fourier series on T^dim.

    Parameters
    ----------
    dim : int
        Number of angles d (>= 0; d = 0 means a plain constant).
    order_cap : int
        Retain only modes with |k|_1 <= order_cap.  A sum or a product takes
        operands of one dim and cap, which the result keeps.
    coeffs : mapping from tuple of int to complex, optional
        Mode table.  Exact zeros are dropped; modes beyond the cap are
        dropped and their absolute values accumulated in ``trunc_loss``.
    trunc_loss : float, optional
        Truncation loss carried in from the operands that produced this
        series.

    Notes
    -----
    ``trunc_loss`` is the l1 mass the caps cut off on the way to this
    series: each result carries the losses of its operands (a scaling by s
    multiplies them by |s|) and adds sum |c_k| over its own coefficients c_k
    with |k|_1 > cap.  In a product c_k is summed over every pair of modes
    that lands on k before its modulus is taken, so terms that cancel there
    lose nothing.

    ``coeffs`` is a read-only mapping of the nonzero modes in lexicographic
    order, built from the array on each access.

    Real-valued functions satisfy coeff(-k) == conj(coeff(k)); the class
    does not enforce this on construction (intermediate complex objects
    are legitimate) but every public operation preserves it, and
    :meth:`real_symmetry_defect` measures it.
    """

    __slots__ = ("dim", "order_cap", "trunc_loss", "_data")

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
        box = _box(self.dim, self.order_cap)
        data = np.zeros(box.size, dtype=complex)
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
                data[box.index(k)] += c
        self._data = data
        self.trunc_loss = loss

    @classmethod
    def _of(cls, dim: int, order_cap: int, data: np.ndarray, trunc_loss: float) -> "FourierSeries":
        """A series around a box array of its own (never written to again)."""
        s = object.__new__(cls)
        s.dim = dim
        s.order_cap = order_cap
        s.trunc_loss = trunc_loss
        s._data = data
        return s

    # ---------------------------------------------------------------- util

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

    def _like(self, data: np.ndarray, loss: float) -> "FourierSeries":
        return FourierSeries._of(self.dim, self.order_cap, data, loss)

    def _check_compatible(self, other: "FourierSeries") -> None:
        if (self.dim, self.order_cap) != (other.dim, other.order_cap):
            raise DimensionMismatch(
                f"series on T^{self.dim} at cap {self.order_cap} combined with "
                f"series on T^{other.dim} at cap {other.order_cap}"
            )

    def _support(self) -> np.ndarray:
        """Positions of the nonzero modes, in lexicographic order."""
        return self._data.nonzero()[0]

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        """The nonzero modes as a read-only mapping k -> coefficient, built
        on each access."""
        idx = self._support()
        modes = _box(self.dim, self.order_cap).modes[idx].tolist()
        return MappingProxyType(dict(zip(map(tuple, modes), self._data[idx].tolist())))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self._data)

    def coeff(self, k: Iterable[int]) -> complex:
        k = tuple(int(x) for x in k)
        if len(k) != self.dim or _norm1(k) > self.order_cap:
            return 0.0 + 0.0j
        return complex(self._data[_box(self.dim, self.order_cap).index(k)])

    def __repr__(self) -> str:
        n = self._support().size
        return f"FourierSeries(dim={self.dim}, cap={self.order_cap}, modes={n})"

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other)
        return self._like(self._data + other._data, self.trunc_loss + other.trunc_loss)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (-other)

    def __neg__(self) -> "FourierSeries":
        return self._like(-self._data, self.trunc_loss)

    def scale(self, s: complex) -> "FourierSeries":
        return self._like(self._data * s, abs(s) * self.trunc_loss)

    def __mul__(self, other):
        if isinstance(other, FourierSeries):
            return self.series_mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def series_mul(self, other: "FourierSeries") -> "FourierSeries":
        """Pointwise product: the direct convolution of the coefficients.

        The operands share one dim and cap, which the product keeps.
        Nothing reaches a mode but the products of nonzero pairs, so a mode
        no pair lands on stays an exact zero.  The coefficients beyond the
        cap feed ``trunc_loss``.

        With a factor that has no mode but its zero mode, the product scales
        the other factor: each of its modes is one pair's product, which is
        put in place, plus +0 as the pair sum adds it, with no sum over the
        wider box.  The pairs are the ones the sum would take, from the same
        call, since numpy may round a complex product differently (fused
        multiply-add or not) by the shape of the call.
        """
        self._check_compatible(other)
        pairs = pos_a, pos_b, prods = _pairs(self, other)
        zero = self._data.size // 2
        loss = self.trunc_loss + other.trunc_loss
        if _zero_mode_only(pos_a, zero) or _zero_mode_only(pos_b, zero):
            data = np.zeros(self._data.size, dtype=complex)
            data[(pos_a[:, None] + (pos_b - zero)).ravel()] = 0j + prods.ravel()
            return self._like(data, loss)
        data, dropped = _pair_product(self, other, pairs)
        return self._like(data, loss + dropped)

    def conjugate(self) -> "FourierSeries":
        """Coefficientwise complex conjugate with mode reflection (conj of the function)."""
        return self._like(self._data[::-1].conj(), self.trunc_loss)

    # -------------------------------------------------------- torus values

    def evaluate(self, theta, dtype=complex):
        """Sum of coeff(k) * exp(2*pi*i*k.theta) at one point or a batch.

        ``theta`` is a scalar (dim = 1 shorthand), a length-dim point, or an
        array of points of shape (..., dim); a single point gives a ``dtype``
        scalar, a batch an array of shape (...).  Complex entries evaluate
        the series on a strip.  Pass ``dtype=numpy.clongdouble`` for
        extended-precision accumulation.  See :func:`evaluate_series`.
        """
        return evaluate_series((self,), theta, dtype)[0]

    def average(self) -> complex:
        """Zero mode (torus average)."""
        return complex(self._data[self._data.size // 2])

    def oscillatory(self) -> "FourierSeries":
        """The series minus its average."""
        data = self._data.copy()
        data[data.size // 2] = 0.0
        return self._like(data, self.trunc_loss)

    def _times(self, kind: str, vec) -> "FourierSeries":
        vec = tuple(float(v) for v in vec)
        if len(vec) != self.dim:
            raise DimensionMismatch(f"vector of length {len(vec)} on T^{self.dim}")
        return self._like(self._data * _factors(self.dim, self.order_cap, kind, vec), self.trunc_loss)

    def rotate(self, step) -> "FourierSeries":
        """Composition with theta -> theta + step: coeff(k) *= e^(2*pi*i*k.step)."""
        return self._times("rotation", (step,) if np.isscalar(step) else step)

    def derivative(self, axis: int) -> "FourierSeries":
        """Exact termwise d/d(theta_axis): multiply mode k by 2*pi*i*k_axis."""
        unit = [0.0] * self.dim
        unit[axis] = 1.0
        return self._times("derivative", unit)

    def directional_derivative(self, freqs) -> "FourierSeries":
        """Sum over axes of freqs[i] * d/d(theta_i) (the operator L_omega)."""
        return self._times("derivative", freqs)

    def at_first_angle(self, theta0: float, p: int = 0) -> "FourierSeries":
        """The p-th derivative in the first angle with that angle fixed at
        theta0, both per turn, as a series on T^(dim-1): the sum over k0 of
        (2*pi*i*k0)^p e^(2*pi*i*k0*theta0) times the slice of modes (k0, .),
        added slice by slice in increasing k0."""
        if self.dim < 1:
            raise DimensionMismatch("a series on T^0 has no first angle")
        k0 = np.arange(-self.order_cap, self.order_cap + 1)
        factor = (1j * (_TWO_PI * k0)) ** p * np.exp(1j * (k0 * (_TWO_PI * theta0)))
        rows = self._data.reshape(k0.size, -1)  # row k0 is the (k0, .) slice, lexicographic
        return FourierSeries._of(self.dim - 1, self.order_cap,
                                 (factor[:, None] * rows).sum(axis=0), self.trunc_loss)

    # ------------------------------------------------------------- norms

    def strip_norm(self, sigma: float = 0.0) -> float:
        """Weighted l1 coefficient norm sum |c_k| e^(2*pi*|k|*sigma)."""
        mags = np.abs(self._data)
        if sigma != 0.0:
            mags = mags * np.exp(_TWO_PI * _box(self.dim, self.order_cap).norm1 * sigma)
        return float(mags.sum())

    def real_symmetry_defect(self) -> float:
        """max_k |coeff(-k) - conj(coeff(k))| over stored modes."""
        return float(np.abs(self._data[::-1] - self._data.conj()).max())


def evaluate_series(series: Sequence[FourierSeries], theta, dtype=complex) -> list:
    """The values of several series at the same ``theta``, each as
    :meth:`FourierSeries.evaluate` gives it, from one phase table over the
    union of their nonzero modes.  The series share one dim and cap.

    k.theta is summed from zero one axis at a time, one product per entry,
    so no entry depends on the width of the table (a BLAS product over all
    axes sums in an order that does), and each series sums its own columns
    in mode order: every value is bit for bit the one-series value.
    """
    if not series:
        return []
    dim, cap = series[0].dim, series[0].order_cap
    if any((s.dim, s.order_cap) != (dim, cap) for s in series):
        raise DimensionMismatch("series evaluated together must share one dim and cap")
    th = np.asarray(theta, dtype=dtype)
    t = th.reshape(1)[:dim] if th.ndim == 0 and dim <= 1 else th  # a scalar on T^1; ignored on T^0
    if t.shape[-1:] != (dim,):
        raise DimensionMismatch(f"theta of shape {t.shape} on T^{dim}")
    supports = [s._support() for s in series]
    modes = np.flatnonzero(np.bincount(np.concatenate(supports), minlength=1))  # sorted union
    table = np.zeros(t.shape[:-1] + (modes.size,), dtype=dtype)
    for r, k in enumerate(_box(dim, cap).modes[modes].T.astype(float)):  # (..., 1) @ (1, n): no ufunc buffers
        table += t[..., r:r + 1] @ k[None]
    np.exp(np.multiply(dtype(2j) * dtype(np.pi), table, out=table), out=table)
    out = []
    for s, idx in zip(series, supports):
        # np.take keeps the columns C-ordered, as a table of their own would be
        cols = table if idx.size == modes.size else np.take(table, np.searchsorted(modes, idx), axis=-1)
        out.append(cols @ s._data[idx].astype(dtype))
        del cols  # before the next series takes its own
    return out


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


def _quotient(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """h / d entry by entry, rounded as Python's complex division rounds it:
    Smith's method, dividing by the scaled denominator where numpy multiplies
    by its reciprocal.  Needs |d| > 0."""
    swap = np.abs(d.real) < np.abs(d.imag)  # then divide -i h by -i d
    hr, hi = np.where(swap, h.imag, h.real), np.where(swap, -h.real, h.imag)
    dr, di = np.where(swap, d.imag, d.real), np.where(swap, -d.real, d.imag)
    ratio = di / dr
    denom = dr + di * ratio
    out = np.empty(h.shape, dtype=complex)
    out.real = (hr + hi * ratio) / denom
    out.imag = (hi - hr * ratio) / denom
    return out


def _sd_divide(h: FourierSeries, vec, kind: str, divisor_floor: float) -> FourierSeries:
    """phi_k = h_k / divisor(k.vec) for every nonzero mode k of a zero-average h."""
    scale = h.strip_norm(0.0)
    if abs(h.average()) > 1e-13 * max(scale, 1e-300):
        raise NonzeroAverage(
            f"average {h.average():.3e} vs strip norm {scale:.3e}; split "
            "off the averaged part before calling the SD solver"
        )
    if len(vec) != h.dim:
        raise DimensionMismatch(
            f"series on T^{h.dim} with frequency vector of length {len(vec)}"
        )
    box = _box(h.dim, h.order_cap)
    idx = h._support()
    idx = idx[idx != box.zero]
    div = _factors(h.dim, h.order_cap, kind, tuple(vec))[idx]
    small = np.abs(div) < divisor_floor
    if small.any():
        at = int(np.argmax(small))
        raise ResonantMode(tuple(box.modes[idx[at]].tolist()), complex(div[at]))
    data = np.zeros_like(h._data)
    data[idx] = _quotient(h._data[idx], div)
    return h._like(data, h.trunc_loss)


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
    return _sd_divide(h, freq.omega, "divisor", divisor_floor)


def sd_solve_flow(
    h: FourierSeries, freq: FrequencyVector, divisor_floor: float = 1e-12
) -> FourierSeries:
    """Solve the directional-derivative equation L_(omega,nu) phi = h.

    The series lives on T^(d+d'); modewise phi_k = h_k / (2*pi*i*k.(omega, nu)).
    """
    return _sd_divide(h, freq.full, "derivative", divisor_floor)
