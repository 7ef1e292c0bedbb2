"""Truncated Fourier series on the d-torus and the small-divisors solvers.

Angles live in "turns": a point on T^d is a vector theta with period 1 in
each component and the basis functions are exp(2*pi*i*k.theta) for integer
multi-indices k.  A series keeps only modes with |k|_1 <= order_cap, the
cross-polytope, numbered in lexicographic order (k and -k at mirrored
positions, the zero mode in the middle), and stores only its support: the
sorted positions of its nonzero modes and one complex value at each.  On
T^4 at cap 12 the cross-polytope has 16,641 modes; the three-primary
model's series use 1.0% of them.  Each operation rounds every value as it
would on an array over all the modes, +0 off the support, and a value that
comes out an exact zero leaves the support.

Each mode also has one integer coordinate, in which the sum of two modes is
the sum of their coordinates less the zero mode's: a product finds where a
pair of modes lands by searching its coordinate among the modes'.  The
norms are sums by ``math.fsum``, correctly rounded, so their bits do not
depend on the layout.  Operands of a sum or a product, and series evaluated
together, share one dim and cap or raise :class:`DimensionMismatch`.

All values are immutable after construction and every operation returns a
fresh series, so instances can be shared freely across threads.  The
algebra leans on that: the series of one support share one read-only record
of it, and where two supports go in a sum, and their pairs in a product,
is worked out once and kept.  An array handed to a series is never written
to again.
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


class _Modes(NamedTuple):
    """One support: its stored positions in lexicographic order, as a
    read-only array; their bytes, which name the support; the order in
    which the products take its entries, from the centre out (each k next
    to -k), as indices into it; and its reach, the largest |k|_1 on it (0
    without modes)."""

    lex: np.ndarray
    key: bytes
    centre: np.ndarray
    reach: int


@lru_cache(maxsize=1024)
def _modes_of(dim: int, cap: int, key: bytes) -> _Modes:
    """The record of the support whose stored positions are the bytes
    ``key``.  A computation meets few supports (the ``torus2`` solve to
    order 5 has 73 among 4,699 series), so each is ordered once, without a
    sort: the positions above the zero mode, and those below it read
    backwards, are two runs that move out from the centre, and k goes
    before -k, so each entry's place is its rank in its run plus the number
    of the other run's entries that come first."""
    lex, zero = np.frombuffer(key, dtype=np.intp), _table(dim, cap).zero
    lo, hi = lex.searchsorted(zero), lex.searchsorted(zero, "right")
    up, down = lex[hi:] - zero, zero - lex[:lo][::-1]
    centre = np.full(lex.size, lo)
    centre[hi - lo + np.arange(up.size) + down.searchsorted(up)] = np.arange(hi, lex.size)
    centre[hi - lo + np.arange(down.size) + up.searchsorted(down, "right")] = np.arange(lo - 1, -1, -1)
    centre.flags.writeable = False
    return _Modes(lex, key, centre, int(_table(dim, cap).norm1[lex].max()) if lex.size else 0)


def _support(dim: int, cap: int, lex: np.ndarray) -> _Modes:
    return _modes_of(dim, cap, lex.astype(np.intp, copy=False).tobytes())


@lru_cache(maxsize=1024)
def _sum_index(dim: int, cap: int, key_a: bytes, key_b: bytes) -> tuple:
    """The support of a sum of series with the supports ``key_a`` and
    ``key_b``, and where each operand's entries go in it (None where it is
    the operand's), from a mask: a sort's kernels would add 0.3 MB of
    numpy's code to the resident set of a run.  Two supports meet in many
    sums (1,456 of the ``torus2`` solve's to order 5 over 167 pairs, 7,271
    over 328 to order 9), so this is kept, in the smallest integer type
    that holds it."""
    a, b = np.frombuffer(key_a, dtype=np.intp), np.frombuffer(key_b, dtype=np.intp)
    present = np.zeros(_table(dim, cap).size, dtype=bool)
    present[a] = present[b] = True
    union = present.nonzero()[0]
    index = [union.searchsorted(lex).astype(np.min_scalar_type(union.size)) for lex in (a, b)]
    for at in index:
        at.flags.writeable = False
    return (_support(dim, cap, union), *(None if at.size == union.size else at for at in index))


def _scattered(size: int, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the indices ``at`` of an array of ``size`` zeros."""
    out = np.zeros(size, dtype=complex)
    out[at] = values
    return out


@lru_cache(maxsize=1024)
def _pair_index(dim: int, cap: int, key_a: bytes, key_b: bytes) -> tuple[np.ndarray, _Modes, int]:
    """Where the product of two series with the supports ``key_a`` and
    ``key_b`` sums each pair of a's modes from the centre out and b's modes,
    flat in that order: one bin per mode under the cap that pairs land on,
    in order (their support is returned), and then one per distinct mode
    beyond the cap; and the number of bins.  Two supports meet in many
    products (1,075 of the ``torus2`` solve's to order 5 over 103 pairs),
    so this is kept, in the smallest integer type that holds it."""
    table = _table(dim, cap)
    a, b = _modes_of(dim, cap, key_a), _modes_of(dim, cap, key_b)
    coord = ((table.coord[a.lex[a.centre]] - table.coord[table.zero])[:, None] + table.coord[b.lex]).ravel()
    at = np.searchsorted(table.coord, coord)
    beyond = table.coord.take(at, mode="clip") != coord
    lands = np.zeros(table.size, dtype=bool)
    lands[at[~beyond]] = True
    under = lands.nonzero()[0]
    at[~beyond] = under.searchsorted(at[~beyond])
    bins = under.size
    if beyond.any():
        wide, at[beyond] = np.unique(coord[beyond], return_inverse=True)
        at[beyond] += bins
        bins += wide.size
    at = at.astype(np.min_scalar_type(bins))
    at.flags.writeable = False
    return at, _support(dim, cap, under), bins


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

    A series stores the record of its support, the sorted positions of its
    nonzero modes (shared by every series with that support), and one
    nonzero value at each (``_values``); ``coeffs`` maps them k -> value in
    that order, built on each access.  A series is never written after
    construction.

    Real-valued functions satisfy coeff(-k) == conj(coeff(k)); the class
    does not enforce this on construction (intermediate complex objects
    are legitimate) but every public operation preserves it, and
    :meth:`real_symmetry_defect` measures it.
    """

    __slots__ = ("dim", "order_cap", "trunc_loss", "_support", "_values")

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
        entries: dict[int, complex] = {}
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
                p = table.index(k)
                entries[p] = entries.get(p, 0j) + c  # from +0, as a sum is
        lex = sorted(p for p, c in entries.items() if c != 0.0)
        self._support = _support(self.dim, self.order_cap, np.array(lex, dtype=np.intp))
        self._values = np.array([entries[p] for p in lex], dtype=complex)
        self.trunc_loss = loss

    @classmethod
    def _of(
        cls, dim: int, order_cap: int, support: _Modes, values: np.ndarray, trunc_loss: float
    ) -> "FourierSeries":
        """A series around the record of its support and an array of its own
        of nonzero values there (never written to again)."""
        s = object.__new__(cls)
        s.dim = dim
        s.order_cap = order_cap
        s.trunc_loss = trunc_loss
        s._support = support
        s._values = values
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

    def _kept(self, support: _Modes, values: np.ndarray, loss: float) -> "FourierSeries":
        """A series on this one's torus of ``values`` at ``support``, less
        the entries that are exact zeros."""
        if np.count_nonzero(values) < values.size:
            keep = values != 0
            support, values = _support(self.dim, self.order_cap, support.lex[keep]), values[keep]
        return FourierSeries._of(self.dim, self.order_cap, support, values, loss)

    def _check_compatible(self, other: "FourierSeries") -> None:
        if (self.dim, self.order_cap) != (other.dim, other.order_cap):
            raise DimensionMismatch(
                f"series on T^{self.dim} at cap {self.order_cap} combined with "
                f"series on T^{other.dim} at cap {other.order_cap}"
            )

    def _at(self, p: int) -> complex:
        """The value at stored position p: 0 off the support."""
        lex = self._support.lex
        i = int(lex.searchsorted(p))
        return complex(self._values[i]) if i < lex.size and lex[i] == p else 0j

    @property
    def coeffs(self) -> Mapping[tuple[int, ...], complex]:
        """The nonzero modes as a read-only mapping k -> coefficient, built
        on each access."""
        modes = _table(self.dim, self.order_cap).modes[self._support.lex].tolist()
        return MappingProxyType(dict(zip(map(tuple, modes), self._values.tolist())))

    def is_zero(self) -> bool:
        return not self._values.size

    def coeff(self, k: Iterable[int]) -> complex:
        k = tuple(int(x) for x in k)
        if len(k) != self.dim or _norm1(k) > self.order_cap:
            return 0.0 + 0.0j
        return self._at(_table(self.dim, self.order_cap).index(k))

    def __repr__(self) -> str:
        return f"FourierSeries(dim={self.dim}, cap={self.order_cap}, modes={self._values.size})"

    # ------------------------------------------------------------- algebra

    def __add__(self, other: "FourierSeries", minus: bool = False) -> "FourierSeries":
        """self + other, or self + (-other) when ``minus``: entry by entry
        over the union of the supports, with +0 where an operand has no
        mode, negated with it."""
        self._check_compatible(other)
        support, a, b = self._support, self._values, other._values
        if support.key != other._support.key:
            support, ia, ib = _sum_index(self.dim, self.order_cap, support.key, other._support.key)
            if ia is not None:
                a = _scattered(support.lex.size, ia, a)
            if ib is not None:
                b = _scattered(support.lex.size, ib, b)
        return self._kept(support, a + (-b if minus else b), self.trunc_loss + other.trunc_loss)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self.__add__(other, True)

    def __neg__(self) -> "FourierSeries":
        return FourierSeries._of(self.dim, self.order_cap, self._support, -self._values, self.trunc_loss)

    def scale(self, s: complex) -> "FourierSeries":
        return self._kept(self._support, self._values * s, abs(s) * self.trunc_loss)

    def __mul__(self, other):
        if isinstance(other, FourierSeries):
            return self.series_mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def series_mul(self, other: "FourierSeries") -> "FourierSeries":
        """Pointwise product: the direct convolution of the coefficients.

        The operands share one dim and cap, which the product keeps; the
        coefficients beyond the cap feed ``trunc_loss``.  The pair products
        come from one call of one shape, since numpy may round a complex
        product differently (fused multiply-add or not) by the shape of the
        call, and each mode sums its pairs from +0 in a's centre-out order,
        so that a term and its mirror image cancel exactly.  Two paths put
        them in place, each to the bits of that sum:

        - a factor without modes gives zero, and one whose only mode is the
          zero mode (reach 0) scales the other: each mode is one pair's
          product plus +0, with no sum;
        - otherwise the pairs are summed at the bins of :func:`_pair_index`,
          whose sums beyond the cap add their moduli (correctly rounded) to
          the loss.
        """
        self._check_compatible(other)
        ma, mb = self._support, other._support
        prods = self._values[ma.centre][:, None] * other._values
        loss = self.trunc_loss + other.trunc_loss
        if not prods.size:
            return self._kept(mb if ma.lex.size else ma, prods.ravel(), loss)
        if ma.reach == 0:
            return self._kept(mb, 0j + prods[0], loss)
        if mb.reach == 0:
            values = np.empty(ma.lex.size, dtype=complex)
            values[ma.centre] = 0j + prods[:, 0]
            return self._kept(ma, values, loss)
        at, lands, bins = _pair_index(self.dim, self.order_cap, ma.key, mb.key)
        data = np.zeros(bins, dtype=complex)
        np.add.at(data, at, prods.ravel())
        under = lands.lex.size
        if bins > under:
            loss += math.fsum(np.abs(data[under:]).tolist())
            data = data[:under].copy()
        return self._kept(lands, data, loss)

    def conjugate(self) -> "FourierSeries":
        """Coefficientwise complex conjugate with mode reflection (conj of the function)."""
        lex = _table(self.dim, self.order_cap).size - 1 - self._support.lex[::-1]
        return FourierSeries._of(self.dim, self.order_cap, _support(self.dim, self.order_cap, lex),
                                 self._values[::-1].conj(), self.trunc_loss)

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
        return self._at(_table(self.dim, self.order_cap).zero)

    def oscillatory(self) -> "FourierSeries":
        """The series minus its average."""
        rest = self._support.lex != _table(self.dim, self.order_cap).zero
        return self._kept(self._support, np.where(rest, self._values, 0j), self.trunc_loss)

    def _times(self, kind: str, vec) -> "FourierSeries":
        vec = tuple(float(v) for v in vec)
        if len(vec) != self.dim:
            raise DimensionMismatch(f"vector of length {len(vec)} on T^{self.dim}")
        factors = _factors(self.dim, self.order_cap, kind, vec)[self._support.lex]
        return self._kept(self._support, self._values * factors, self.trunc_loss)

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
        cap, lex = self.order_cap, self._support.lex
        table, lower = _table(self.dim, cap), _table(self.dim - 1, cap)
        k0 = np.arange(-cap, cap + 1)
        factor = (1j * (_TWO_PI * k0)) ** p * np.exp(1j * (k0 * (_TWO_PI * theta0)))
        if self.dim == 1 or cap == 0:
            # the modes are the box [-cap, cap]^dim here, and numpy sums the
            # one column pairwise over all of them: a sum in order from +0
            # would round some slices otherwise
            column = _scattered(table.size, lex, self._values)
            out = (factor[:, None] * column.reshape(k0.size, -1)).sum(axis=0)
        else:
            # each stored mode's term from one flat call, added at the slice's
            # position of its last dim - 1 entries, whose coordinate is the
            # mode's less its leading digit (the zero terms of the other
            # modes leave a sum from +0 as it is)
            out = np.zeros(lower.size, dtype=complex)
            np.add.at(out, np.searchsorted(lower.coord, table.coord[lex] % table.radix ** (self.dim - 1)),
                      factor[table.modes[lex, 0] + cap] * self._values)
        lex = (out != 0).nonzero()[0]
        return FourierSeries._of(self.dim - 1, cap, _support(self.dim - 1, cap, lex), out[lex], self.trunc_loss)

    # ------------------------------------------------------------- norms

    def strip_norm(self, sigma: float = 0.0) -> float:
        """Weighted l1 coefficient norm sum |c_k| e^(2*pi*|k|*sigma) over the
        nonzero modes, correctly rounded (``math.fsum``)."""
        mags = np.abs(self._values)
        if sigma != 0.0:
            mags = mags * np.exp(_TWO_PI * _table(self.dim, self.order_cap).norm1[self._support.lex] * sigma)
        return math.fsum(mags.tolist())

    def real_symmetry_defect(self) -> float:
        """max_k |coeff(-k) - conj(coeff(k))| over stored modes."""
        return float(np.abs((self.conjugate() - self)._values).max(initial=0.0))


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
    supports = [s._support.lex for s in series]
    modes = np.flatnonzero(np.bincount(np.concatenate(supports), minlength=1))  # sorted union
    table = np.zeros(t.shape[:-1] + (modes.size,), dtype=dtype)
    for r, k in enumerate(_table(dim, cap).modes[modes].T.astype(float)):  # (..., 1) @ (1, n): no ufunc buffers
        table += t[..., r:r + 1] @ k[None]
    np.exp(np.multiply(dtype(2j) * dtype(np.pi), table, out=table), out=table)
    out = []
    for s, idx in zip(series, supports):
        # np.take keeps the columns C-ordered, as a table of their own would be
        cols = table if idx.size == modes.size else np.take(table, np.searchsorted(modes, idx), axis=-1)
        out.append(cols @ s._values.astype(dtype))
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
    rest = h._support.lex != table.zero
    idx = h._support.lex[rest]
    div = _factors(h.dim, h.order_cap, kind, tuple(vec))[idx]
    small = np.abs(div) < divisor_floor
    if small.any():
        at = int(np.argmax(small))
        raise ResonantMode(tuple(table.modes[idx[at]].tolist()), complex(div[at]))
    support = h._support if rest.all() else _support(h.dim, h.order_cap, idx)
    return h._kept(support, _quotient(h._values[rest], div), h.trunc_loss)


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
