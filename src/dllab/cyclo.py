"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Numbers are stored as exact rational coefficient vectors in the power basis
1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic polynomial.  A
coefficient is an int, and a Fraction only when it is not integral, so
fractions is imported only when one appears.  No floating point is used
anywhere.

Exact sums of roots of unity stay in integers until the end: a sum
sum_e counts[e] zeta_n^e is a count vector indexed by the exponent e, and
reduce_counts turns many such vectors into coefficient rows with one integer
matrix product, since the power basis mod Phi_n is integral (Washington,
Introduction to Cyclotomic Fields, ch. 2).  Every count of root exponents
in the package is reduced through it.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

from .errors import (
    InexactDivisionError,
    MixedOrderError,
    NotIntegralError,
    UnsupportedParametersError,
)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low first."""
    # divide x^n - 1 by the cyclotomic polynomials of the proper divisors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            num = _polydiv_exact(num, den)
    return tuple(num)


def _polydiv_exact(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c % den[dd] != 0:
            raise InexactDivisionError("non-exact division")
        q = c // den[dd]
        out[i - dd] = q
        for j in range(dd + 1):
            num[i - dd + j] -= q * den[j]
    if any(num):
        raise InexactDivisionError("division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def _degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _rational(c):
    """c as an exact rational: an int when integral, else Fraction(c)."""
    if isinstance(c, numbers.Integral):
        return int(c)
    from fractions import Fraction

    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class CycloNum:
    """An element of Q(zeta_N), reduced coefficients in the power basis: ints,
    and a Fraction for each coefficient that is not integral."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        deg = _degree(n)
        cs = tuple(_rational(c) for c in coeffs)
        if len(cs) != deg:
            raise MixedOrderError(f"{len(cs)} coefficients for degree {deg}")
        self.coeffs = cs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rational(n: int, value) -> "CycloNum":
        return CycloNum(n, (value,) + (0,) * (_degree(n) - 1))

    @staticmethod
    def root(n: int, j: int) -> "CycloNum":
        """zeta_n^j."""
        return CycloNum(n, _power_residues(n)[j % n])

    # -- ring ops -----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.rational(self.n, other)
        if other.n != self.n:
            raise MixedOrderError(f"orders {self.n} and {other.n}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CycloNum(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        return CycloNum(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        deg = _degree(self.n)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # x^d with d >= deg reduces to the residue of x^(d mod n), as x^n = 1
        out = list(prod[:deg])
        for d in range(deg, 2 * deg - 1):
            c = prod[d]
            if c:
                row = _power_residues(self.n)[d % self.n]
                for j in range(deg):
                    out[j] += c * row[j]
        return CycloNum(self.n, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CycloNum):
            raise TypeError("division by CycloNum not supported; divide by rationals")
        d = _rational(other)
        # a % 0 raises ZeroDivisionError, as Fraction(1, 0) does
        if isinstance(d, int) and all(a % d == 0 for a in self.coeffs):
            return CycloNum(self.n, tuple(a // d for a in self.coeffs))
        from fractions import Fraction

        inv = Fraction(1) / d
        return CycloNum(self.n, tuple(a * inv for a in self.coeffs))

    # -- predicates ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, numbers.Rational):
            other = CycloNum.rational(self.n, other)
        return (
            isinstance(other, CycloNum)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.coeffs[0] >= 0

    def as_integer(self) -> int:
        if not self.is_integer():
            raise NotIntegralError(f"not an integer: {self}")
        return int(self.coeffs[0])

    def __repr__(self):
        terms = [
            (f"{c}" if i == 0 else f"{c}*z{self.n}^{i}")
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def _power_residues(n: int) -> tuple:
    """x^j mod Phi_n as integer coefficient tuples, for every j in [0, n).

    Phi_n is monic with integer coefficients, so each residue is integral;
    one loop multiplies by x and reduces, with no recursion over j."""
    phi_cs = cyclotomic_poly(n)
    deg = len(phi_cs) - 1
    vec = [1] + [0] * (deg - 1)
    out = []
    for _ in range(n):
        out.append(tuple(vec))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * c for v, c in zip(vec, phi_cs)]
    return tuple(out)


@lru_cache(maxsize=None)
def _residue_matrix(n: int) -> tuple:
    """(the (n, phi(n)) int64 matrix of _power_residues(n), the largest
    column sum of its absolute values)."""
    rows = _power_residues(n)
    bound = max(sum(abs(c) for c in col) for col in zip(*rows))
    return np.array(rows, dtype=np.int64), bound


_INT64_MAX = int(np.iinfo(np.int64).max)


def reduce_counts(n: int, counts) -> np.ndarray:
    """Row r of counts (shape (N, n)) stands for sum_e counts[r, e] zeta_n^e;
    returns the exact int64 power-basis coefficients, shape (N, phi(n)), as
    one matrix product.  Refuses counts whose products could leave int64."""
    try:
        counts = np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise UnsupportedParametersError(f"counts past int64 for root order {n}") from None
    if counts.ndim != 2 or counts.shape[1] != n:
        raise MixedOrderError(f"counts of shape {counts.shape} for root order {n}")
    res, col = _residue_matrix(n)
    if counts.size:
        top = max(int(counts.max()), -int(counts.min()))
        if top * col > _INT64_MAX:
            raise UnsupportedParametersError(
                f"counts up to {top} leave int64 in the reduction mod Phi_{n}"
            )
    return counts @ res


def cyclo_from_counts(n: int, counts) -> CycloNum:
    """Sum of counts[e] * zeta_n^e as a CycloNum."""
    return CycloNum(n, reduce_counts(n, [counts])[0].tolist())


def assert_nonneg_integer(val: CycloNum) -> int:
    if not val.is_nonneg_integer():
        raise NotIntegralError(f"inner product not a nonnegative integer: {val}")
    return val.as_integer()


def count_rows(rows, exps, N: int, n: int) -> np.ndarray:
    """The (N, n) count rows in which row rows[i] counts the exponent
    exps[i] mod n, for every i."""
    return np.bincount(rows * n + exps % n, minlength=N * n).reshape(N, n)


def difference_counts(a, b) -> np.ndarray:
    """The count vector of sum_r (sum_x a[r, x] zeta_n^x)(sum_y b[r, y] zeta_n^-y)
    for count rows a and b of shape (N, n): entry e sums (a^T b)[x, y] over
    x - y = e mod n."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = a.shape[1]
    e = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, (e[:, None] - e) % n, a.T @ b)
    return out


def rotate_counts(counts, shifts) -> np.ndarray:
    """Count rows along the last axis of counts, each times zeta_n^shift for
    its entry of shifts (shape counts.shape[:-1], or broadcast to it): the
    count at exponent e moves to e + shift mod n."""
    n = counts.shape[-1]
    return np.take_along_axis(counts, (np.arange(n) - shifts[..., None]) % n, axis=-1)
