"""Twisted truncated polynomial rings and their unipotent groups.

R(A) = A<tau>/(tau^(n(h-1)+1)) with the commutation rule tau*a = a^q*tau.
An element is n(h-1)+1 field-element indices over a coefficient field A
containing F_{q^n}, and the ring works on batches of them, the columns of
(n(h-1)+1, N) int arrays.  Multiplication:

    (sum a_i tau^i)(sum b_j tau^j) = sum_k ( sum_{i+j=k} a_i * b_j^(q^i) ) tau^k

The unit group with constant coefficient 1 is the unipotent group U; its
center is spanned by the tau^n coefficient.  A second family of groups G is
carried by the same coefficients with the group law

    (1 + sum a_j e_j)(1 + sum b_j e_j),   e_i e_j = e_n if i + j = n else 0,
    e_j a = a^(q^j) e_j,

so all coordinates add except the top one, which picks up sum a_i b_j^(q^i)
over i + j = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedParametersError
from .ffield import Field, digits_index, index_digits, splitting_params


@dataclass(frozen=True)
class TwistedRing:
    """Descriptor for R(A): parameters (n, q, h) and coefficient field A."""

    n: int
    q: int
    h: int
    coeff_field: Field

    def __post_init__(self):
        p, e = splitting_params(self.q)
        if self.coeff_field.p != p:
            raise UnsupportedParametersError("coefficient field has wrong characteristic")
        if self.coeff_field.k % (e * self.n) != 0:
            raise UnsupportedParametersError(
                "coefficient field must contain F_{q^n}"
            )

    @cached_property
    def length(self) -> int:
        return self.n * (self.h - 1) + 1

    # -- batches: (L, N) arrays whose columns are ring elements ------------

    @cached_property
    def _frob_arrays(self):
        """Per coefficient index i, the permutation array a -> a^(q^i)."""
        F = self.coeff_field
        return [F.frob_table(F.frob_exp(self.q, i)) for i in range(self.length)]

    def mul_batch(self, a, b):
        """The ring product on batches."""
        F = self.coeff_field
        frobs = self._frob_arrays
        L = self.length
        out = [None] * L
        for i in range(L):
            fr = frobs[i]
            for j in range(L - i):
                t = F.mul(a[i], fr[b[j]])
                out[i + j] = t if out[i + j] is None else F.add(out[i + j], t)
        return np.stack(out)

    def inv_batch(self, a):
        """The inverses of a batch of unipotent elements (constant coefficient 1).

        Coefficient k of a * b is b_k + sum_{i=1..k} a_i b_{k-i}^(q^i), so
        b = a^(-1) follows from b_0 = 1 by solving for b_1, b_2, ... in turn.
        """
        if not np.all(a[0] == 1):
            raise UnsupportedParametersError("inv_batch takes unipotent elements")
        F = self.coeff_field
        frobs = self._frob_arrays
        b = [a[0]]
        for k in range(1, self.length):
            acc = F.mul(a[1], frobs[1][b[k - 1]])
            for i in range(2, k + 1):
                acc = F.add(acc, F.mul(a[i], frobs[i][b[k - i]]))
            b.append(F.neg(acc))
        return np.stack(b)

    def frobenius_batch(self, a, s: int):
        F = self.coeff_field
        return F.frob_table(F.frob_exp(self.q, s))[a]

    def lang_batch(self, g, s: int):
        """The Lang map F_{q^s}(g) * g^(-1) on a batch of unipotent elements."""
        return self.mul_batch(self.frobenius_batch(g, s), self.inv_batch(g))

    def scalar_conj_factors(self, c: int) -> np.ndarray:
        """The factors c^(1-q^j), j = 1, ..., L-1, as an int64 array: by
        them conjugation by the constant c in A^x scales coefficient j; they
        depend on c alone, so hoist them out of loops over x."""
        F = self.coeff_field
        conj = np.array([fr[c] for fr in self._frob_arrays[1:]], dtype=np.int64)
        return F.mul(c, F.inv(conj))


def twisted_ring(n: int, q: int, h: int, coeff_field: Field) -> TwistedRing:
    if h < 2 or h > 3 or n < 1 or n > 3:
        raise UnsupportedParametersError(f"unsupported (n, h) = ({n}, {h})")
    return TwistedRing(n, q, h, coeff_field)


# -- unipotent group carried by the ring (constant coefficient 1) ------------
# Element i is the unit whose coefficients after the constant 1 are the
# base-Q digits of i, a_1 the slowest: product order of the tails.


def unipotent_index_law(ring: TwistedRing) -> tuple:
    """The group law of the unipotent elements on their indices, as a triple
    (mul, inv, decode) of functions on int arrays: decode gives the elements
    1 + (the base-Q digits of i) . (tau, ..., tau^(L-1)) as the columns of
    an (L, N) array."""
    Q, L = ring.coeff_field.order, ring.length

    def elements(i):
        return np.concatenate([np.ones((1, len(i)), dtype=np.int64), index_digits(i, Q, L - 1)])

    def mul(i, j):
        return digits_index(ring.mul_batch(elements(i), elements(j))[1:], Q)

    def inv(i):
        return digits_index(ring.inv_batch(elements(i))[1:], Q)

    return mul, inv, elements


def h_m_pattern(n: int, h: int, m: int) -> list[int]:
    """Free coordinate positions of the subgroup H_m inside U (h == 2),
    or of H'_m; positions j in [1, n] with (j <= n/2 and m | j) or j > n/2.

    For h == 3 with n == 2 the relevant subgroups are indexed differently and
    handled by the callers.
    """
    if h != 2:
        raise UnsupportedParametersError(f"H_m patterns are defined at h = 2, not {h}")
    out = []
    for j in range(1, n + 1):
        if 2 * j <= n:
            if j % m == 0:
                out.append(j)
        else:
            out.append(j)
    return out


# -- the mirror family G^{n,q} ------------------------------------------------
# Elements: columns (a_1, ..., a_n) of coefficient-field indices; element i
# of the group is the base-Q digits of i.


def gnq_mul_batch(field_a: Field, n: int, q: int, a, b):
    """The group law of G^{n,q} on (n, N) batches whose columns are group
    elements."""
    out = field_a.add(a, b)
    top = out[n - 1]
    for i in range(1, n):
        fr = field_a.frob_table(field_a.frob_exp(q, i))
        top = field_a.add(top, field_a.mul(a[i - 1], fr[b[n - i - 1]]))
    out[n - 1] = top
    return out


def gnq_index_law(field_a: Field, n: int, q: int) -> tuple:
    """The group law of G^{n,q} on the indices of its elements in
    itertools.product order, as a triple (mul, inv, decode) of functions on
    int arrays: element i is the base-Q digits of i, decoded once for all
    Q^n elements when the law is built, and decode reads that table."""
    Q = field_a.order
    digits = index_digits(np.arange(Q**n, dtype=np.int64), Q, n)

    def decode(i):
        return digits[:, i]

    def mul(i, j):
        return digits_index(gnq_mul_batch(field_a, n, q, decode(i), decode(j)), Q)

    def inv(i):
        return digits_index(gnq_inv_batch(field_a, n, q, decode(i)), Q)

    return mul, inv, decode


def gnq_inv_batch(field_a: Field, n: int, q: int, a):
    """The inverses in G^{n,q} of an (n, N) batch: below the top the
    coordinates negate, and the top is what makes a b = 1."""
    b = np.concatenate([field_a.neg(a[: n - 1]), np.zeros((1, a.shape[1]), dtype=np.int64)])
    b[n - 1] = field_a.neg(gnq_mul_batch(field_a, n, q, a, b)[n - 1])
    return b


def nu_prime_m(n: int, m: int, a):
    """Coordinate restriction G-side: keep indices divisible by m, reindex."""
    n1 = n // m
    out = [0] * n1
    for j in range(1, n + 1):
        if j % m == 0:
            out[j // m - 1] = a[j - 1]
    return tuple(out)
