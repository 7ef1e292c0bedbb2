"""Truncated Fourier series on the d-torus and the small-divisors solvers.

Angles live in "turns": a point on T^d is a vector theta with period 1 in
each component and the basis functions are exp(2*pi*i*k.theta) for integer
multi-indices k.  A series keeps only modes with |k|_1 <= order_cap, the
cross-polytope.  Its coefficients are one flat complex array over those
modes in lexicographic order, so k and -k sit at mirrored positions and the
zero mode in the middle; a mode is present exactly when its entry is
nonzero.  On T^4 at cap 8 that is 3,649 entries; the box [-cap, cap]^d
around them has 83,521, and no array is sized by it.

Each stored mode also has one integer coordinate, in which the sum of two
modes is the sum of their coordinates less the zero mode's.  A product
finds where each pair of modes lands by searching the pair's coordinate
among those of the stored modes.  The norms are sums by ``math.fsum``,
correctly rounded, so their bits do not depend on the layout.  One
computation works at one dim and cap: operands of a sum or a product, and
series evaluated together, share them or raise :class:`DimensionMismatch`.

All values are immutable after construction and every operation returns a
fresh series, so instances can be shared freely across threads.  The
products lean on that: a series reads its support (the positions of its
nonzero modes) once, on first use, and keeps it, with its centre-out order
and its reach, the largest |k|_1 on it, in one read-only record that every
series of that support shares; and where the pairs of two supports land is
worked out once and kept.  An array handed to a series is never written to
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, HypothesisViolation, NonzeroAverage, ResonantMode, ZeroDivisor

_TWO_PI = 2.0 * math.pi
_SCAN_ROWS = 1 << 13  # modes per slab of a Diophantine scan: arrays of 64 kB at any d
_SCAN_BOX = 1 << 32  # the largest box [-k_max, k_max]^d a scan walks: T^5 at k_max 40 has 3.5e9 modes

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


class _Table:
    """Index tables of the stored modes of T^dim at ``cap``: those of the
    cross-polytope |k|_1 <= cap, in lexicographic order (so k and -k sit at
    mirrored positions, and the zero mode in the middle).  ``coord`` is each
    mode's coordinate, the integer whose digits in radix 4 cap + 1 are its
    entries plus 2 cap: the coordinates rise with the modes, and two stored
    modes add up to the mode of coordinate coord(k1) + coord(k2) - coord(0),
    within the cap or beyond it.  A (dim, cap) whose coordinates would
    overflow int64 is refused with HypothesisViolation."""

    def __init__(self, dim: int, cap: int):
        self.cap, self.radix = cap, 4 * cap + 1
        if self.radix ** dim > np.iinfo(np.int64).max:
            raise HypothesisViolation(f"T^{dim} at cap {cap}: the mode coordinates, "
                                      f"{self.radix}^{dim}, would overflow int64")
        # the modes |k|_1 <= c of T^i for each c <= cap, one row per axis: on
        # T^(i+1), each k0 from -c to c heads those |k|_1 <= c - |k0| of T^i
        walk = [np.zeros((0, 1), dtype=np.int64)] * (cap + 1)
        for _ in range(dim):
            walk = [np.hstack([np.vstack((np.full(walk[c - abs(k0)].shape[1], k0), walk[c - abs(k0)]))
                               for k0 in range(-c, c + 1)]) for c in range(cap + 1)]
        # one contiguous column per axis, as ``dots`` reads them: a strided
        # column would cast through numpy code that no other step runs
        self.modes = walk[cap].T
        self.size = self.modes.shape[0]
        self.zero = self.size // 2
        self.norm1 = np.abs(walk[cap]).sum(axis=0)
        self.coord = np.zeros(self.size, dtype=np.int64)
        for column in walk[cap]:
            self.coord = self.coord * self.radix + (column + 2 * cap)

    def index(self, k: tuple[int, ...]) -> int:
        """The stored position of a mode k with |k|_1 <= cap."""
        c = 0
        for ki in k:
            c = c * self.radix + ki + 2 * self.cap
        return int(np.searchsorted(self.coord, c))

    def dots(self, vec) -> np.ndarray:
        """k.vec for every mode, summed axis by axis."""
        out = np.zeros(self.size)
        for i, w in enumerate(vec):
            out = out + self.modes[:, i] * w
        return out


@lru_cache(maxsize=None)
def _table(dim: int, cap: int) -> _Table:
    return _Table(dim, cap)


@lru_cache(maxsize=None)
def _centre_out(dim: int, cap: int) -> np.ndarray:
    """The stored positions from the centre out, each k next to -k (its
    mirror position)."""
    size = _table(dim, cap).size
    out = np.arange(size // 2 + 1, size)
    return np.concatenate(([size // 2], np.column_stack((out, size - 1 - out)).ravel()))


class _Modes(NamedTuple):
    """One support: its stored positions in lexicographic order and from the
    centre out (each k next to -k), where the products gather the factors'
    coefficients, as read-only arrays; the bytes of the lexicographic ones,
    which name the support; and its reach, the largest |k|_1 on it (0
    without modes)."""

    lex: np.ndarray
    centre: np.ndarray
    key: bytes
    reach: int


@lru_cache(maxsize=1024)
def _modes_of(dim: int, cap: int, key: bytes) -> _Modes:
    """The record of the support whose stored positions are the bytes
    ``key``, shared by every series with that support.  A computation meets
    few supports (the ``torus2`` solve to order 5 has 73 among 4,699
    series), so the records cost next to no memory and each is ordered and
    measured once."""
    table, order, lex = _table(dim, cap), _centre_out(dim, cap), np.frombuffer(key, dtype=np.intp)
    # a mask, not np.argsort, whose sort kernels would add 0.3 MB of numpy's
    # code to the resident set of a run
    present = np.zeros(table.size, dtype=bool)
    present[lex] = True
    centre = order[present[order]]
    centre.flags.writeable = False
    return _Modes(lex, centre, key, int(table.norm1[lex].max()) if lex.size else 0)


@lru_cache(maxsize=1024)
def _pair_index(dim: int, cap: int, key_a: bytes, key_b: bytes) -> tuple[np.ndarray, int]:
    """Where the product of two series with the supports ``key_a`` and
    ``key_b`` puts each pair of a's modes from the centre out and b's modes,
    flat in that order, and the number of bins: the stored position of the
    pair's mode under the cap, and past the stored modes one bin per
    distinct mode beyond it.  Two supports meet in many products (1,075 of
    the ``torus2`` solve's to order 5 over 103 pairs of supports), so this
    is kept, in the smallest integer type that holds it."""
    table = _table(dim, cap)
    a, b = _modes_of(dim, cap, key_a), _modes_of(dim, cap, key_b)
    coord = ((table.coord[a.centre] - table.coord[table.zero])[:, None] + table.coord[b.lex]).ravel()
    at = np.searchsorted(table.coord, coord)
    beyond = table.coord.take(at, mode="clip") != coord
    bins = table.size
    if beyond.any():
        wide, at[beyond] = np.unique(coord[beyond], return_inverse=True)
        at[beyond] += bins
        bins += wide.size
    at = at.astype(np.min_scalar_type(bins))
    at.flags.writeable = False
    return at, bins


@lru_cache(maxsize=256)
def _factors(dim: int, cap: int, kind: str, vec) -> np.ndarray:
    """Per-mode multipliers: the rotation e^(2*pi*i*k.vec), the derivative
    2*pi*i*k.vec, or the map divisor e^(2*pi*i*k.vec) - 1."""
    arg = 1j * (_TWO_PI * _table(dim, cap).dots(vec))
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

    The coefficients are one complex array over the modes |k|_1 <= cap in
    lexicographic order (see the module docstring); ``coeffs`` is a
    read-only mapping of the nonzero ones in that order, built from the
    array on each access.

    A series is never written after construction, and that is load-bearing:
    its support, centre-out support and reach are read from its array once,
    when first needed, and kept (:meth:`_modes`), so a change to the array
    in place would leave them stale.

    Real-valued functions satisfy coeff(-k) == conj(coeff(k)); the class
    does not enforce this on construction (intermediate complex objects
    are legitimate) but every public operation preserves it, and
    :meth:`real_symmetry_defect` measures it.
    """

    __slots__ = ("dim", "order_cap", "trunc_loss", "_data", "_kept")

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
        table = _table(self.dim, self.order_cap)
        data = np.zeros(table.size, dtype=complex)
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
                data[table.index(k)] += c
        self._data = data
        self.trunc_loss = loss
        self._kept = None

    @classmethod
    def _of(cls, dim: int, order_cap: int, data: np.ndarray, trunc_loss: float) -> "FourierSeries":
        """A series around an array of its own over the stored modes (never
        written to again)."""
        s = object.__new__(cls)
        s.dim = dim
        s.order_cap = order_cap
        s.trunc_loss = trunc_loss
        s._data = data
        s._kept = None
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

    def _modes(self) -> _Modes:
        """The support, read from the array on first use (its one scan)
        and kept.  ``!= 0`` and a boolean scan take half the time
        of a complex array's own ``nonzero``, and find the same entries."""
        if self._kept is None:
            self._kept = _modes_of(self.dim, self.order_cap, (self._data != 0).nonzero()[0].tobytes())
        return self._kept

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        """The nonzero modes as a read-only mapping k -> coefficient, built
        on each access."""
        idx = self._modes().lex
        modes = _table(self.dim, self.order_cap).modes[idx].tolist()
        return MappingProxyType(dict(zip(map(tuple, modes), self._data[idx].tolist())))

    def is_zero(self) -> bool:
        return not self._modes().lex.size

    def coeff(self, k: Iterable[int]) -> complex:
        k = tuple(int(x) for x in k)
        if len(k) != self.dim or _norm1(k) > self.order_cap:
            return 0.0 + 0.0j
        return complex(self._data[_table(self.dim, self.order_cap).index(k)])

    def __repr__(self) -> str:
        n = self._modes().lex.size
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

        The pair products come from one call of one shape, since numpy may
        round a complex product differently (fused multiply-add or not) by
        the shape of the call, and each mode sums its pairs from +0 in a's
        centre-out order, so that a term and its mirror image cancel
        exactly.  Two paths put them in place, each to the bits of that sum:

        - a factor without modes gives zero, and one whose only mode is the
          zero mode (reach 0) scales the other: each mode is one pair's
          product, put in place plus +0, with no sum;
        - otherwise the pairs are summed at the bins :func:`_pair_index`
          gives, the stored modes and then the modes beyond the cap, whose
          sums' moduli add up (correctly rounded) to the loss.
        """
        self._check_compatible(other)
        ma, mb = self._modes(), other._modes()
        prods = self._data[ma.centre][:, None] * other._data[mb.lex]
        loss = self.trunc_loss + other.trunc_loss
        size = self._data.size
        if not prods.size:
            return self._like(np.zeros(size, dtype=complex), loss)
        if ma.reach == 0 or mb.reach == 0:
            data = np.zeros(size, dtype=complex)
            if ma.reach == 0:
                data[mb.lex] = 0j + prods[0]
            else:
                data[ma.centre] = 0j + prods[:, 0]
            return self._like(data, loss)
        at, bins = _pair_index(self.dim, self.order_cap, ma.key, mb.key)
        data = np.zeros(bins, dtype=complex)
        np.add.at(data, at, prods.ravel())
        if bins > size:
            loss += math.fsum(np.abs(data[size:]).tolist())
            data = data[:size].copy()
        return self._like(data, loss)

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
        added in increasing k0, each mode of the slice from +0."""
        if self.dim < 1:
            raise DimensionMismatch("a series on T^0 has no first angle")
        cap = self.order_cap
        k0 = np.arange(-cap, cap + 1)
        factor = (1j * (_TWO_PI * k0)) ** p * np.exp(1j * (k0 * (_TWO_PI * theta0)))
        if self.dim == 1 or cap == 0:
            # the stored modes are all of [-cap, cap]^dim here, and the one
            # column is summed by numpy, pairwise: a sum in order from +0
            # would round some slices otherwise
            out = (factor[:, None] * self._data.reshape(k0.size, -1)).sum(axis=0)
        else:
            # every stored mode's term from one flat call, each added at the
            # slice's stored position of its last dim - 1 entries, whose
            # coordinate is the mode's less its leading digit
            table, lower = _table(self.dim, cap), _table(self.dim - 1, cap)
            out = np.zeros(lower.size, dtype=complex)
            np.add.at(out, np.searchsorted(lower.coord, table.coord % table.radix ** (self.dim - 1)),
                      factor[table.modes[:, 0] + cap] * self._data)
        return FourierSeries._of(self.dim - 1, cap, out, self.trunc_loss)

    # ------------------------------------------------------------- norms

    def strip_norm(self, sigma: float = 0.0) -> float:
        """Weighted l1 coefficient norm sum |c_k| e^(2*pi*|k|*sigma) over the
        nonzero modes, correctly rounded (``math.fsum``)."""
        mags = np.abs(self._data)
        if sigma != 0.0:
            mags = mags * np.exp(_TWO_PI * _table(self.dim, self.order_cap).norm1 * sigma)
        return math.fsum(mags[self._modes().lex].tolist())

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
    supports = [s._modes().lex for s in series]
    modes = np.flatnonzero(np.bincount(np.concatenate(supports), minlength=1))  # sorted union
    table = np.zeros(t.shape[:-1] + (modes.size,), dtype=dtype)
    for r, k in enumerate(_table(dim, cap).modes[modes].T.astype(float)):  # (..., 1) @ (1, n): no ufunc buffers
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
    Raises :class:`ZeroDivisor` on an exact rational resonance, ValueError
    on a non-finite tau or entry of omega or nu, and HypothesisViolation,
    before any of it is walked, when the box holds more than ``_SCAN_BOX``
    modes.

    The modes after k = 0 in the box [-k_max, k_max]^d, in lexicographic
    order, are those whose first nonzero entry is positive; they are scanned
    in that order in slabs of ``_SCAN_ROWS``, each quotient bit for bit the
    per-mode loop's (k.vec summed from zero axis by axis, ``np.rint`` for
    ``round``, |k|^tau by Python's power), and the first smallest quotient
    and the first resonance are the ones reported.
    """
    omega = tuple(float(w) for w in omega)
    nu = tuple(float(v) for v in nu)
    for name, vec in (("omega", omega), ("nu", nu)):
        if not all(map(math.isfinite, vec)):
            raise ValueError(f"{name} has a non-finite entry: {list(vec)}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, not {tau}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if sense not in ("map", "flow"):
        raise ValueError("sense must be 'map' or 'flow'")
    vec = omega if sense == "map" else omega + nu
    dim, n = len(vec), 2 * k_max + 1
    if n ** dim > _SCAN_BOX:
        raise HypothesisViolation(f"no Diophantine scan of T^{dim} to k_max {k_max}: its box "
                                  f"[-{k_max}, {k_max}]^{dim} holds {n ** dim:,} modes, more than {_SCAN_BOX:,}")
    power = np.array([float(s) ** tau for s in range(1, k_max + 1)])
    best, worst = math.inf, None
    for start in range(n ** dim // 2 + 1, n ** dim, _SCAN_ROWS):
        flat = np.arange(start, min(start + _SCAN_ROWS, n ** dim))
        k = [ki - k_max for ki in np.unravel_index(flat, (n,) * dim)]
        norm = sum(np.abs(ki) for ki in k)
        keep = norm <= k_max
        k, norm = [ki[keep] for ki in k], norm[keep]
        v = sum(ki * wi for ki, wi in zip(k, vec))
        near = np.rint(v) if sense == "map" else 0.0
        dist = np.abs(v - near)
        if not dist.all():
            at = int(np.flatnonzero(dist == 0)[0])
            raise ZeroDivisor(tuple(int(ki[at]) for ki in k), int(near[at]) if sense == "map" else None)
        q = dist * power[norm - 1]
        low = np.fmin.reduce(q, initial=math.inf)  # passes over a NaN, as ``<`` does
        if low < best:
            at = int(np.flatnonzero(q == low)[0])
            best, worst = float(low), tuple(int(ki[at]) for ki in k)
    return FrequencyVector(omega=omega, nu=nu, tau=float(tau), c_estimate=best,
                           k_max_checked=int(k_max), sense=sense, worst_k=worst)


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
    table = _table(h.dim, h.order_cap)
    idx = h._modes().lex
    idx = idx[idx != table.zero]
    div = _factors(h.dim, h.order_cap, kind, tuple(vec))[idx]
    small = np.abs(div) < divisor_floor
    if small.any():
        at = int(np.argmax(small))
        raise ResonantMode(tuple(table.modes[idx[at]].tolist()), complex(div[at]))
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
