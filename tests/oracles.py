"""Scalar oracles of the batched library paths.

Each function here is the one-at-a-time form of a batched path in dllab: a
point of a grid, a single truncated series, or a group element with its
family's tuple law (mul, inv) from this module in place of the group's index
law.  The oracles walk the
same grids in the same order, and the tests compare the two.  Nothing in the
package imports this module.
"""

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from dllab.charlib import AddChar
from dllab.cyclo import CycloNum, _degree, _power_residues, assert_nonneg_integer, cyclo_from_counts
from dllab.errors import (
    AllZeroError,
    CharacterMismatchError,
    MatrixShapeError,
    NoExtensionError,
    NotInSubfieldError,
    NotIntegralError,
    NotInvariantError,
    OperandMismatchError,
    OutsideSubgroupError,
    PrecisionLossError,
    RootOrderError,
    UnsupportedParametersError,
)
from dllab.ffield import PRIMITIVE_POLYS, Field, field, splitting_params
from dllab.repkit import GroupModel
from dllab.serieslab import SeriesBatch, mat_det_series, xtilde_matrix
from dllab.twistring import TwistedRing, twisted_ring


class ScalarField:
    """Oracle of ffield.Field: F_{p^k} from its polynomial in PRIMITIVE_POLYS
    alone, on one element index at a time.  The exp/log lists come from the
    polynomial product, addition from digit loops, and add, sub, neg, mul
    and inv are closures over Python lists (XOR for p = 2, Zech logarithms
    for odd p), so a call on two ints costs a list lookup, not a numpy
    call."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.order = p, k, p**k
        self.poly = PRIMITIVE_POLYS[(p, k)]
        self.gen = p if k > 1 else (-self.poly[0]) % p
        self._xpow = self._build_xpow()
        self._frob_maps: dict[int, list] = {}
        self._embed_maps: dict[int, tuple] = {}
        self._build_explog()
        self._install_table_ops()

    def __repr__(self):
        return f"ScalarField({self.p}, {self.k})"

    def coeffs(self, a: int) -> tuple:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def add_digits(self, a: int, b: int) -> int:
        p, r, mul = self.p, 0, 1
        while a or b:
            r += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return r

    def neg_digits(self, a: int) -> int:
        p, r, mul = self.p, 0, 1
        while a:
            r += (-a % p) * mul
            a //= p
            mul *= p
        return r

    def mul_poly(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        out = list(prod[:k])
        for d in range(k, 2 * k - 1):
            c = prod[d]
            if c:
                red = self._xpow[d - k]
                for j in range(k):
                    out[j] = (out[j] + c * red[j]) % p
        return self.from_coeffs(out)

    def _build_xpow(self):
        """The reductions of x^d for d in [k, 2k-2], as coefficient tuples."""
        p, k = self.p, self.k
        base = [(-c) % p for c in self.poly[:k]]
        pows = [tuple(base)]
        for _ in range(k - 2):
            prev = pows[-1]
            shifted = [0] + list(prev[: k - 1])
            c = prev[k - 1]
            if c:
                for j in range(k):
                    shifted[j] = (shifted[j] + c * base[j]) % p
            pows.append(tuple(shifted))
        return pows

    def _build_explog(self):
        n = self.order - 1
        self._exp, self._log = [0] * n, [0] * self.order
        a = 1
        for i in range(n):
            self._exp[i] = a
            self._log[a] = i
            a = self.mul_poly(a, self.gen)

    def _install_table_ops(self):
        n = self.order - 1
        exp, log = self._exp, self._log
        exp2 = exp + exp

        def mul(a, b):
            return exp2[log[a] + log[b]] if a and b else 0

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return exp[-log[a]]

        self.mul, self.inv = mul, inv
        if self.p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
            return
        zech = [None] * n
        for d, a in enumerate(exp):
            s = self.add_digits(a, 1)
            if s:
                zech[d] = log[s]
        neg_tab = [self.neg_digits(a) for a in range(self.order)]

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            z = zech[log[b] - log[a]]
            return 0 if z is None else exp2[log[a] + z]

        self.add = add
        self.sub = lambda a, b: add(a, neg_tab[b])
        self.neg = neg_tab.__getitem__

    def log(self, a: int) -> int:
        return self._log[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def frob_map(self, q: int) -> list:
        """a -> a^q for q a power of p, as a cached list indexed by a."""
        tab = self._frob_maps.get(q)
        if tab is None:
            tab = self._frob_maps[q] = [self.pow(a, q) for a in range(self.order)]
        return tab

    def frob(self, a: int, q: int) -> int:
        return self.frob_map(q)[a]

    def embed_maps(self, sub) -> tuple:
        """(images, preimages) of the embedding of sub (any field of order
        p^m, m | k): the list of the images of the elements of sub, by
        Horner's rule in gen^((|self| - 1)/(|sub| - 1)) digit by digit, and
        the dict inverting it."""
        maps = self._embed_maps.get(sub.k)
        if maps is None:
            beta = self.pow(self.gen, (self.order - 1) // (sub.order - 1))
            tab = []
            for a in range(sub.order):
                acc = 0
                for c in reversed([a // self.p**i % self.p for i in range(sub.k)]):
                    acc = self.add(self.mul(acc, beta), c)
                tab.append(acc)
            maps = self._embed_maps[sub.k] = tab, {b: a for a, b in enumerate(tab)}
        return maps

    def embed(self, sub, a: int) -> int:
        return self.embed_maps(sub)[0][a]

    def retract(self, sub, a: int) -> int:
        back = self.embed_maps(sub)[1]
        if a not in back:
            raise NotInSubfieldError(f"element {a} of {self} not in {sub}")
        return back[a]

    def in_subfield(self, sub, a: int) -> bool:
        return self.frob(a, sub.order) == a

    def trace(self, a: int, sub) -> int:
        """Tr_{self/sub}(a) as an index in sub: the conjugates a^(|sub|^i)
        added one at a time."""
        t, x = 0, a
        for _ in range(self.k // sub.k):
            t = self.add(t, x)
            x = self.frob(x, sub.order)
        return self.retract(sub, t)


@lru_cache(maxsize=None)
def _scalar_field(p: int, k: int) -> ScalarField:
    return ScalarField(p, k)


def scalar(F) -> ScalarField:
    """The ScalarField of the same (p, k) as F, built once per field."""
    return F if isinstance(F, ScalarField) else _scalar_field(F.p, F.k)


def enumerate_unipotent(ring: TwistedRing):
    """All elements 1 + sum a_j tau^j over the coefficient field, as tuples
    in itertools.product order: a_1 varies slowest.  This is the order of
    the element indices of the unipotent group's index law."""
    for tail in itertools.product(range(ring.coeff_field.order), repeat=ring.length - 1):
        yield (1,) + tail


def _basis_powers(F: Field) -> list:
    """gen^0, ..., gen^(k-1), one field product at a time."""
    S = scalar(F)
    out = [1]
    for _ in range(F.k - 1):
        out.append(S.mul(out[-1], S.gen))
    return out


def _coordinate_points(F: Field, width: int, lead=()) -> list:
    """The tuples lead + (0, ..., b, ..., 0) with a basis power b at one of
    width coordinates: coordinate by coordinate, then power by power."""
    return [
        lead + tuple(b if i == j else 0 for i in range(width))
        for j in range(width)
        for b in _basis_powers(F)
    ]


def unipotent_tuples(ring: TwistedRing) -> tuple:
    """Oracle of unipotent_group's decode and generators: (elements,
    generators) as tuples, in the order the tuple builders listed them."""
    return list(enumerate_unipotent(ring)), _coordinate_points(ring.coeff_field, ring.length - 1, (1,))


def gnq_tuples(field_a: Field, n: int) -> tuple:
    """Oracle of gnq_group's decode and generators, as tuples."""
    els = list(itertools.product(range(field_a.order), repeat=n))
    return els, _coordinate_points(field_a, n)


def divquot_tuples(dq) -> tuple:
    """Oracle of the division quotient's decode and generators: the tuples
    (e, u_0, ..., u_(L-1)), valuation slowest, then the units with u_0 != 0
    in product order; and Pi, zeta-bar and the level-1 generators."""
    F, L = dq.F, dq.ring.length
    tails = list(itertools.product(range(F.order), repeat=L - 1))
    els = [(e, u0) + t for e in range(dq.nM) for u0 in range(1, F.order) for t in tails]
    one = ring_one(dq.ring)
    gens = [(1 % dq.nM,) + one, (0, F.gen) + one[1:]]
    return els, gens + [(0,) + g for g in _coordinate_points(F, L - 1, (1,))]


def principal_unit_tuples(L: Field, h: int) -> tuple:
    """Oracle of charlib.principal_units' decode and generators: the units
    with exactly one nonzero coefficient after the constant generate."""
    els = list(enumerate_unipotent(twisted_ring(1, L.order, h, L)))
    return els, [g for g in els if sum(1 for c in g[1:] if c) == 1]


def ring_one(ring: TwistedRing):
    """The identity of ring as a tuple."""
    return (1,) + (0,) * (ring.length - 1)


@lru_cache(maxsize=None)
def elements(group) -> list:
    """The tuple view of a GroupModel: element i as the tuple of column i of
    group.decode, for every index i."""
    return [tuple(x) for x in group.decode(np.arange(len(group), dtype=np.int64)).T.tolist()]


@lru_cache(maxsize=None)
def index(group) -> dict:
    """The inverse of elements(group): element tuple -> its index."""
    return {g: i for i, g in enumerate(elements(group))}


def cyclo_coeffs(n: int, counts) -> list:
    """Oracle of cyclo.reduce_counts on one row: the power-basis
    coefficients of sum_e counts[e] zeta_n^e, as Fractions added one
    residue at a time."""
    acc = [Fraction(0)] * _degree(n)
    for e, c in enumerate(counts):
        c = int(c)
        if c:
            vec = _power_residues(n)[e % n]
            for t in range(len(acc)):
                acc[t] += c * vec[t]
    return acc


def sub_digits(F: ScalarField, a: int, b: int) -> int:
    """Oracle of Field.sub: a - b digit by digit."""
    return F.add_digits(a, F.neg_digits(b))


def beta_factors(ring: TwistedRing, x):
    """(s(F_{q^2}(x)), s(x)^{-1}) for x = (a_1, a_2) and the section
    s(a_1, a_2) = 1 + a_1 tau + a_2 tau^2.  Both depend on x alone, so loops
    over h compute them once per x."""
    sx = (1, x[0], x[1], 0, 0)
    return ring_frobenius(ring, sx, 2), ring_inv(ring, sx)


def beta_map(ring: TwistedRing, factors, h):
    """beta(x, h) = s(F_{q^2}(x)) h s(x)^{-1}, from factors = beta_factors(ring, x)."""
    left, right = factors
    return ring_mul(ring, ring_mul(ring, left, h), right)


def y3_member(ring: TwistedRing, b) -> bool:
    """Oracle of counting.y3_member at one element b: b_2 = 0 and b_4 =
    -b_3 b_1^q."""
    F = scalar(ring.coeff_field)
    return b[2] == 0 and b[4] == F.neg(F.mul(b[3], F.frob(b[1], ring.q)))


def y3_preimage(ring: TwistedRing):
    """Oracle of counting.y3_preimage_batches: the points (a_1, a_2, a_3, a_4)
    of beta^{-1}(Y_3) over the coefficient field, one tuple at a time, in
    grid order."""
    Q = ring.coeff_field.order
    for a1, a2 in itertools.product(range(Q), repeat=2):
        factors = beta_factors(ring, (a1, a2))
        for a3, a4 in itertools.product(range(Q), repeat=2):
            if y3_member(ring, beta_map(ring, factors, (1, 0, 0, a3, a4))):
                yield a1, a2, a3, a4


def exp_sum_walk(base: Field, dim: int, membership, poly, psi, s: int):
    """Oracle of counting.exp_sum: the sum of psi(Tr(poly(E, x))) over the
    x in E^dim, E = F_{base^s}, with membership(E, x), one tuple at a time
    into a count list."""
    E = scalar(field(base.p, base.k * s))
    counts = [0] * base.p
    for x in itertools.product(range(E.order), repeat=dim):
        if membership(E, x):
            counts[psi.table[E.trace(poly(E, x), base)] % base.p] += 1
    return cyclo_from_counts(base.p, counts)


def intertwiner_membership(q: int, E: Field, x) -> bool:
    """The intertwiner surface's equation a_2^{q^2} - a_2 =
    a_1^{q+q^2} - a_1^{1+q} at x = (a_1, a_2, ...), on scalars."""
    E = scalar(E)
    a1, a2 = x[:2]
    rhs = E.sub(E.mul(E.frob(a1, q), E.frob(a1, q * q)), E.mul(a1, E.frob(a1, q)))
    return E.sub(E.frob(a2, q * q), a2) == rhs


def intertwiner_poly(q: int, E: Field, x) -> int:
    """P(a_1, a_2, a_3) = a_1^q a_3 - a_1^{q^2} a_3^q + a_2^{1+q} -
    a_2^{q+q^2} on scalars; at a_3 = 0 it is S2's P2(a_1, a_2)."""
    E = scalar(E)
    a1, a2, a3 = x
    t = E.sub(E.mul(E.frob(a1, q), a3), E.mul(E.frob(a1, q * q), E.frob(a3, q)))
    p2 = E.sub(E.mul(a2, E.frob(a2, q)), E.mul(E.frob(a2, q), E.frob(a2, q * q)))
    return E.add(t, p2)


def x3_conditions(F: Field, q: int, Fq: Field, x) -> bool:
    """Oracle of counting.x3_conditions_batch: the two coordinate equations
    of X_3 at n = 2 for x = 1 + a_1 tau + ... + a_4 tau^4, a_2^q + a_2 -
    a_1^(q+1) and a_4^q + a_4 + a_2^(q+1) - a_1 a_3^q - a_3 a_1^q both lie in
    F_q."""
    F = scalar(F)
    _, a1, a2, a3, a4 = x
    c1 = F.sub(F.add(F.frob(a2, q), a2), F.mul(a1, F.frob(a1, q)))
    if not F.in_subfield(Fq, c1):
        return False
    c2 = F.add(F.frob(a4, q), a4)
    c2 = F.add(c2, F.mul(a2, F.frob(a2, q)))
    c2 = F.sub(c2, F.mul(a1, F.frob(a3, q)))
    c2 = F.sub(c2, F.mul(a3, F.frob(a1, q)))
    return F.in_subfield(Fq, c2)


def star_closed(F: Field, lam: int, mu: int, x):
    """(1 + lam pi + mu pi^2) * x for x = 1 + a_1 tau + ... + a_4 tau^4."""
    F = scalar(F)
    _, a1, a2, a3, a4 = x
    return (
        1,
        a1,
        F.add(lam, a2),
        F.add(a3, F.mul(lam, a1)),
        F.add(mu, F.add(a4, F.mul(lam, a2))),
    )


def x3_twist_table(q: int, keys=None) -> dict:
    """Oracle of counting.x3_twist_table, one key and one candidate at a
    time, restricted to the keys in keys when it is given.  Artin-Schreier
    preimages come from a dict of lists, and every candidate goes through
    the scalar x3_conditions and ring multiplication."""
    p, e = splitting_params(q)
    q2 = q * q
    ring = twisted_ring(2, q, 3, field(p, 2 * e * p))
    E = scalar(ring.coeff_field)
    F2 = field(p, 2 * e)
    Fq = field(p, e)
    # Artin-Schreier preimages x^{q^2} - x = c over E
    as_sols: dict[int, list[int]] = {}
    for x in range(E.order):
        as_sols.setdefault(E.sub(E.frob(x, q2), x), []).append(x)
    rational = [a for a in range(E.order) if E.frob(a, q2) == a]  # F_{q^2} in E
    table = {}
    # lam runs fastest, so keys are inserted in the order lam, g2, g3, d
    for d_i, g3_i, g2_i, lam_i in itertools.product(range(F2.order), repeat=4):
        if keys is not None and (lam_i, g2_i, g3_i, d_i) not in keys:
            continue
        lam, g2, g3, d = (E.embed(F2, c) for c in (lam_i, g2_i, g3_i, d_i))
        g = (1, 0, g2, g3, d)  # mu = 0 slice: g4 - mu = d
        count = 0
        for a1 in rational:
            c3 = E.add(E.sub(E.mul(E.frob(g2, q), a1), E.mul(lam, a1)), g3)
            a3s = as_sols.get(c3, ())
            if not a3s:
                continue
            a1q1 = E.mul(a1, E.frob(a1, q))
            for a2 in as_sols.get(E.sub(g2, lam), ()):
                c1 = E.sub(E.add(E.frob(a2, q), a2), a1q1)
                if not E.in_subfield(Fq, c1):
                    continue
                c4 = E.sub(
                    E.add(E.add(d, E.mul(a2, g2)), E.mul(a1, E.frob(g3, q))),
                    E.mul(lam, E.frob(a2, q2)),
                )
                a4s = as_sols.get(c4, ())
                for a3 in a3s:
                    for a4 in a4s:
                        x = (1, a1, a2, a3, a4)
                        if not x3_conditions(E, q, Fq, x):
                            continue
                        y = ring_frobenius(ring, x, 2)
                        if star_closed(E, lam, 0, y) == ring_mul(ring, x, g):
                            count += 1
        if count:
            table[(lam_i, g2_i, g3_i, d_i)] = count
    return table


def eigendim(group, chi1, chi2, R: int, table: dict, q: int) -> int:
    """Oracle of counting.eigendims at one pair of exponent tables over the
    element indices of the unit group: q^{-12} sum over the collapsed table
    and mu of chi1(1, lam, mu)^{-1} chi2(1, g2, d + mu) N(lam, g2, d), one
    term at a time into a count list."""
    p, e = splitting_params(q)
    F2 = _scalar_field(p, 2 * e)
    counts = [0] * R
    for (lam_i, g2_i, d_i), cnt in table.items():
        for mu in range(F2.order):
            e1 = char_exp(group, chi1, (1, lam_i, mu))
            e2 = char_exp(group, chi2, (1, g2_i, F2.add(d_i, mu)))
            counts[(e2 - e1) % R] += cnt
    return assert_nonneg_integer(cyclo_from_counts(R, counts) / q**12)


def npp_identity(q: int) -> bool:
    """Oracle of counting.npp_identity: for every lam in F_{q^2} and every
    delta in Ker(Tr to F_q), the pairs (a_1, beta) with a_1^{q+1}(lam^q -
    lam) + beta a_1^q - beta^q a_1 = delta, counted one pair at a time."""
    p, e = splitting_params(q)
    F2 = _scalar_field(p, 2 * e)
    Fq = field(p, e)
    q2 = q * q
    for lam in range(q2):
        coef = F2.sub(F2.frob(lam, q), lam)
        for delta in range(q2):
            if F2.trace(delta, Fq) != 0:
                continue
            cnt = 0
            for beta in range(q2):
                for a1 in range(q2):
                    lhs = F2.mul(F2.mul(a1, F2.frob(a1, q)), coef)
                    lhs = F2.add(lhs, F2.mul(beta, F2.frob(a1, q)))
                    lhs = F2.sub(lhs, F2.mul(F2.frob(beta, q), a1))
                    if lhs == delta:
                        cnt += 1
            want = (q2 - 1) * q + (q2 if delta == 0 else 0)
            if cnt != want:
                return False
    return True


def zeta_fixed_set(n: int, q: int, h: int) -> list:
    """Oracle of counting.zeta_fixed_set: the points of X_h(F_{q^(n p)})
    fixed by conjugation with the Teichmueller generator, one point of the
    free-coordinate grid at a time through the scalar in_Xh."""
    p, e = splitting_params(q)
    ring = twisted_ring(n, q, h, field(p, e * n * p))
    E, dim = scalar(ring.coeff_field), ring.length - 1
    Fqn = field(p, e * n)
    zeta = E.embed(Fqn, Fqn.gen)
    free = [j for j, f in enumerate(ring.scalar_conj_factors(zeta).tolist(), 1) if f == 1]
    out = []
    for vals in itertools.product(range(E.order), repeat=len(free)):
        x = [1] + [0] * dim
        for j, v in zip(free, vals):
            x[j] = v
        x = tuple(x)
        if in_Xh(ring, x):
            out.append(x)
    return out


def x3_equations_agree(q: int) -> tuple:
    """Oracle of cli._x3_equations_agree: (ok, points checked before the
    first point where in_Xh and x3_conditions disagree), over F_{q^4}."""
    p, e = splitting_params(q)
    Fq = field(p, e)
    R = twisted_ring(2, q, 3, field(p, 4 * e))
    checked = 0
    for g in enumerate_unipotent(R):
        if in_Xh(R, g) != x3_conditions(R.coeff_field, q, Fq, g):
            return False, checked
        checked += 1
    return True, checked


def lang_norm_identity(n: int, q: int) -> tuple:
    """Oracle of cli._lang_norm_identity: (ok, points checked before the
    first tail where pr_n of the Lang image differs from N^q - N), over
    F_{q^(2n)} at h = 2."""
    p, e = splitting_params(q)
    R = twisted_ring(n, q, 2, field(p, 2 * e * n))
    A = scalar(R.coeff_field)
    checked = 0
    for tail in itertools.product(range(A.order), repeat=n):
        g = (1,) + tail
        nval = n2_norm(R, tail)
        if lang(R, g, n)[n] != A.sub(A.frob(nval, q), nval):
            return False, checked
        checked += 1
    return True, checked


def lang(ring: TwistedRing, g, s: int):
    """Oracle of TwistedRing.lang_batch: F_{q^s}(g) * g^(-1) for one element."""
    return ring_mul(ring, ring_frobenius(ring, g, s), ring_inv(ring, g))


def draw_window(F, rng, prec, vmin=0, vmax=2):
    """Oracle of cli._draw_rows: the random draws of one series window,
    (v, coefficients at v..prec-1), by rng.randrange."""
    v = rng.randrange(vmin, vmax + 1)
    return v, [rng.randrange(F.order) for _ in range(prec - v)]


def n2_norm(ring: TwistedRing, tail) -> int:
    """Oracle of matmodel.n2_norm_batch: N(a_1, ..., a_n) for one tail, from
    the scalar determinant of the h = 2 image."""
    if ring.h != 2:
        raise UnsupportedParametersError(f"the norm is read off at h = 2, not {ring.h}")
    return det_iota(ring, (1,) + tuple(tail))[1]


def nm_gnq(n: int, q: int, F: Field, a, k: int = 1) -> int:
    """Oracle of matmodel.nm_gnq_batch (which is the level k = 1): the
    reduced norm G^{n,q}(A) -> F_q via the level-k matrix embedding.

    The element 1 + sum a_j e_j maps to
        I + diag-lift(a_n) pi^(2k+1) + pi^k sum_{j<n} diag-lift(a_j) W^j
    over A[pi]/(pi^(2k+2)); the norm is the pi^(2k+1) coefficient of the
    determinant, which lands in F_q.  Returns an index in F.
    """
    h = 2 * k + 2
    F = scalar(F)
    W = varpi_matrix(F, n, h)
    M = mat_identity(F, n, h)
    Wj = mat_identity(F, n, h)
    for j in range(1, n + 1):
        Wj = mat_mul(F, Wj, W)
        aj = a[j - 1]
        deg = (2 * k + 1) if j == n else k
        D = tuple(
            tuple(
                (0,) * deg
                + (
                    F.frob(aj, q**i)
                    if i == jj
                    else 0,
                )
                + (0,) * (h - deg - 1)
                for jj in range(n)
            )
            for i in range(n)
        )
        term = mat_mul(F, D, Wj if j < n else mat_identity(F, n, h))
        M = tuple(
            tuple(tp_add(F, M[i][jj], term[i][jj]) for jj in range(n)) for i in range(n)
        )
    d = mat_det(F, M)
    if d[0] != 1 or any(d[1 : 2 * k + 1]):
        raise MatrixShapeError("norm shape violated")
    return d[2 * k + 1]


# -- truncated polynomials over a field (indices), pi central ----------------


def tp_add(F: Field, a, b):
    F = scalar(F)
    return tuple(F.add(x, y) for x, y in zip(a, b))


def tp_neg(F: Field, a):
    F = scalar(F)
    return tuple(F.neg(x) for x in a)


def tp_mul(F: Field, a, b):
    F = scalar(F)
    h = len(a)
    out = [0] * h
    for i, ai in enumerate(a):
        if ai:
            for j in range(h - i):
                if b[j]:
                    out[i + j] = F.add(out[i + j], F.mul(ai, b[j]))
    return tuple(out)


def tp_scalar(F: Field, c: int, h: int):
    return (c,) + (0,) * (h - 1)


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions of perm."""
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def mat_det(F: Field, A):
    """Oracle of matmodel.mat_det_batch on one matrix over A[pi]/(pi^h):
    the signed permutation expansion (n <= 4), one product at a time."""
    n = len(A)
    if n > 4:
        raise UnsupportedParametersError("determinant expansion limited to n <= 4")
    h = len(A[0][0])
    total = (0,) * h
    for perm in itertools.permutations(range(n)):
        term = tp_scalar(F, 1, h)
        for i in range(n):
            term = tp_mul(F, term, A[i][perm[i]])
        total = tp_add(F, total, term if _perm_sign(perm) > 0 else tp_neg(F, term))
    return total


def normalize_shape(F: Field, A):
    """Reduce above-diagonal entries mod pi^(h-1); check below-diagonal
    entries are divisible by pi."""
    n = len(A)
    h = len(A[0][0])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = A[i][j]
            if i < j:
                e = e[: h - 1] + (0,)
            elif i > j and e[0] != 0:
                raise MatrixShapeError("below-diagonal entry not divisible by pi")
            row.append(e)
        rows.append(tuple(row))
    return tuple(rows)


def iota_prime(ring: TwistedRing, a):
    """Oracle of matmodel.iota_prime_batch: the matrix image of the ring
    element a (coefficient tuple, len n(h-1)+1), entry by entry."""
    F = scalar(ring.coeff_field)
    n, h, q = ring.n, ring.h, ring.q
    rows = []
    for i in range(n):
        fr = F.frob_map(q**i)
        row = []
        for j in range(n):
            cs = [0] * h
            if i <= j:
                r = j - i
                jp = 0
                while n * jp + r < len(a) and jp < h:
                    cs[jp] = fr[a[n * jp + r]]
                    jp += 1
            else:
                r = n + j - i
                jp = 0
                while n * jp + r < len(a) and jp + 1 < h:
                    cs[jp + 1] = fr[a[n * jp + r]]
                    jp += 1
            row.append(tuple(cs))
        rows.append(tuple(row))
    return normalize_shape(F, tuple(rows))


def det_iota(ring: TwistedRing, a):
    return mat_det(ring.coeff_field, iota_prime(ring, a))


def in_Xh(ring: TwistedRing, g) -> bool:
    """Oracle of matmodel.in_Xh_batch at one element: every coefficient of
    det(iota(g)) lies in F_q."""
    F = scalar(ring.coeff_field)
    return all(F.frob(c, ring.q) == c for c in det_iota(ring, g))


# -- the varpi construction of the matrix embedding over A[pi]/(pi^h) ----------


def mat_mul(F: Field, A, B):
    n = len(A)
    return tuple(
        tuple(
            _tp_sum(F, [tp_mul(F, A[i][k], B[k][j]) for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def _tp_sum(F: Field, terms):
    out = terms[0]
    for t in terms[1:]:
        out = tp_add(F, out, t)
    return out


def mat_identity(F: Field, n: int, h: int):
    return tuple(
        tuple(tp_scalar(F, 1 if i == j else 0, h) for j in range(n)) for i in range(n)
    )


def varpi_matrix(F: Field, n: int, h: int):
    """W: superdiagonal ones, pi in the lower-left corner."""
    zero = (0,) * h
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i + 1:
                row.append(tp_scalar(F, 1, h))
            elif i == n - 1 and j == 0:
                row.append((0, 1) + (0,) * (h - 2))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return tuple(rows)


def iota_prime_via_varpi(ring: TwistedRing, a):
    """Oracle of matmodel.iota_prime: the same embedding computed as
    sum_j diag(a_j twisted) W^j."""
    F = scalar(ring.coeff_field)
    n, h, q = ring.n, ring.h, ring.q
    acc = None
    W = varpi_matrix(F, n, h)
    Wj = mat_identity(F, n, h)
    for j, aj in enumerate(a):
        D = tuple(
            tuple(
                tp_scalar(
                    F,
                    F.frob(aj, q**i)
                    if i == jj
                    else 0,
                    h,
                )
                for jj in range(n)
            )
            for i in range(n)
        )
        term = mat_mul(F, D, Wj)
        acc = term if acc is None else tuple(
            tuple(tp_add(F, acc[i][jj], term[i][jj]) for jj in range(n))
            for i in range(n)
        )
        Wj = mat_mul(F, Wj, W)
    return normalize_shape(F, acc)


def tp_frob(F: Field, a, q: int):
    fr = scalar(F).frob_map(q)
    return tuple(fr[x] for x in a)


def recover_from_matrix(ring: TwistedRing, M):
    """Inverse of iota_prime on its image: read coefficients off the first
    row, then check the full matrix agrees.  Returns None if M is not in
    the image."""
    L = ring.length
    a = [0] * L
    for j in range(ring.n):
        entry = M[0][j]
        for jp in range(ring.h):
            idx = ring.n * jp + j
            if idx < L:
                a[idx] = entry[jp]
            elif entry[jp] != 0:
                return None
    a = tuple(a)
    if iota_prime(ring, a) != normalize_shape(ring.coeff_field, M):
        return None
    return a


def star_action(ring: TwistedRing, gamma, x):
    """Oracle of matmodel.star_action_batch at one (gamma, x): left action of
    a truncated-polynomial unit gamma (tuple of h coefficients over A,
    gamma[0] != 0) on the ring element x, via left multiplication by the
    diagonal lift diag(gamma, gamma^q, ...)."""
    F = scalar(ring.coeff_field)
    n, q = ring.n, ring.q
    M = iota_prime(ring, x)
    rows = []
    for i in range(n):
        gi = tp_frob(F, gamma, q**i)
        rows.append(tuple(tp_mul(F, gi, M[i][j]) for j in range(n)))
    out = recover_from_matrix(ring, normalize_shape(F, tuple(rows)))
    if out is None:
        raise MatrixShapeError("star action left the embedded image")
    return out


def twisted_count(n: int, q: int, h: int, gamma, right) -> int:
    """Oracle of counting.x3_twist_table, which tabulates these counts:
    the x in X_h(F_{q^(n p)}) with gamma * F_{q^n}(x) = x * right, by honest
    enumeration.  gamma is None (no twist) or a star unit (1, lam, mu, ...)
    over F_{q^n}; right is a unipotent element over F_{q^n}."""
    p, e = splitting_params(q)
    ring = twisted_ring(n, q, h, field(p, e * n * p))
    emb = ring.coeff_field.embed_table(field(p, e * n))
    right = (1,) + tuple(int(emb[c]) for c in right[1:])
    if gamma is not None:
        gamma = tuple(int(emb[c]) for c in gamma)
    count = 0
    for x in enumerate_unipotent(ring):
        if not in_Xh(ring, x):
            continue
        y = ring_frobenius(ring, x, n)
        if gamma is not None:
            y = star_action(ring, gamma, y)
        if y == ring_mul(ring, x, right):
            count += 1
    return count


# -- truncated Laurent series, one at a time ---------------------------------------


class LaurentSeries:
    """Oracle of one row of serieslab.SeriesBatch: a truncated Laurent series
    over a coefficient field of indices.

    Stored as (valuation offset v, coefficient tuple, precision P) with the
    window covering exponents [v, P).  A series that vanishes on its whole
    window is stored with an empty tuple and v == P.  The serieslab matrix
    routines take matrices of these entries as well as of batches.
    """

    __slots__ = ("F", "v", "coeffs", "prec")

    def __init__(self, F: Field, v: int, coeffs, prec: int):
        coeffs = list(coeffs)[: max(0, prec - v)]
        coeffs += [0] * (prec - v - len(coeffs))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            v += 1
        if not coeffs:
            v = prec
        self.F = F
        self.v = v
        self.coeffs = tuple(coeffs)
        self.prec = prec

    @staticmethod
    def zero(F: Field, prec: int) -> "LaurentSeries":
        return LaurentSeries(F, prec, (), prec)

    @staticmethod
    def const(F: Field, c: int, prec: int) -> "LaurentSeries":
        return LaurentSeries(F, 0, (c,), prec)

    @staticmethod
    def one(F: Field, prec: int) -> "LaurentSeries":
        return LaurentSeries.const(F, 1, prec)

    @staticmethod
    def pi_power(F: Field, j: int, prec: int) -> "LaurentSeries":
        return LaurentSeries(F, j, (1,), prec)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise AllZeroError("valuation of a series that vanishes on its window")
        return self.v

    def coeff(self, j: int) -> int:
        """Coefficient of pi^j; exact for j < prec."""
        if j >= self.prec:
            raise PrecisionLossError(f"coefficient at pi^{j} outside window")
        if j < self.v or j - self.v >= len(self.coeffs):
            return 0
        return self.coeffs[j - self.v]

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        F = self.F
        if other.F is not F:
            raise OperandMismatchError(f"adding a series over {other.F} to one over {F}")
        prec = min(self.prec, other.prec)
        v = min(self.v, other.v, prec)
        out = [0] * (prec - v)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                j = s.v + i
                if j < prec:
                    out[j - v] = scalar(F).add(out[j - v], c)
        return LaurentSeries(F, v, out, prec)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            self.F, self.v, [scalar(self.F).neg(c) for c in self.coeffs], self.prec
        )

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        F = self.F
        if other.F is not F:
            raise OperandMismatchError(f"multiplying a series over {F} by one over {other.F}")
        prec = min(self.v + other.prec, other.v + self.prec)
        v = self.v + other.v
        out = [0] * max(0, prec - v)
        S = scalar(F)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k < len(out) and b != 0:
                    out[k] = S.add(out[k], S.mul(a, b))
        return LaurentSeries(F, v, out, prec)

    def shift(self, j: int) -> "LaurentSeries":
        """Multiplication by pi^j (exact; the window shifts with it)."""
        return LaurentSeries(self.F, self.v + j, self.coeffs, self.prec + j)

    def map_coeffs(self, fn) -> "LaurentSeries":
        return LaurentSeries(self.F, self.v, [fn(c) for c in self.coeffs], self.prec)

    def frob(self, e: int) -> "LaurentSeries":
        """Coefficientwise c -> c^e, for e a power of the characteristic."""
        return self.map_coeffs(scalar(self.F).frob_map(e).__getitem__)

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionLossError("cannot extend a window")
        return LaurentSeries(self.F, self.v, self.coeffs, prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.F is not other.F:
            return False
        prec = min(self.prec, other.prec)
        a, b = self.truncate(prec), other.truncate(prec)
        return a.v == b.v and a.coeffs == b.coeffs

    def __hash__(self):
        raise TypeError("truncated series are not hashable")

    def __repr__(self):
        terms = [
            f"{c}*pi^{self.v + i}" for i, c in enumerate(self.coeffs) if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(pi^{self.prec})>"


def series_identity(F: Field, n: int, prec: int):
    """Oracle of serieslab.mat_identity_series: one identity matrix."""
    one, zero = LaurentSeries.one(F, prec), LaurentSeries.zero(F, prec)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def series_batch(series) -> SeriesBatch:
    """The SeriesBatch whose row r is the LaurentSeries series[r]."""
    F = series[0].F
    lo = min(s.v for s in series)
    c = np.zeros((len(series), max(s.v + len(s.coeffs) for s in series) - lo),
                 dtype=np.int64)
    for r, s in enumerate(series):
        if s.F is not F:
            raise OperandMismatchError(f"stacking series over {F} and {s.F}")
        c[r, s.v - lo : s.v - lo + len(s.coeffs)] = s.coeffs
    return SeriesBatch(F, lo, c, [s.prec for s in series])


def batch_row(batch: SeriesBatch, r: int) -> LaurentSeries:
    """Row r of a SeriesBatch as a LaurentSeries."""
    v, prec = int(batch.v[r]), int(batch.prec[r])
    cs = batch._placed(v, prec - v)[:, r]
    return LaurentSeries(batch.F, v, cs.tolist(), prec)


def xtilde_form(A, q: int, Fq: Field):
    """Oracle of serieslab.xtilde_form on one matrix: coefficients
    (a_0, ..., a_{n-1}) when A has the twisted circulant shape and det(A) is
    a nonzero series with all coefficients in F_q; None otherwise."""
    n = len(A)
    cand = tuple(A[0][j] for j in range(n))
    if A != xtilde_matrix(A[0][0].F, q, n, cand):
        return None
    det = mat_det_series(A)
    if det.is_zero():
        return None
    F = scalar(det.F)
    if not all(F.in_subfield(Fq, c) for c in det.coeffs):
        return None
    return cand


def round_trip_failures(F: Field, Fq: Field, q: int, rows) -> list:
    """Oracle of cli._round_trip_failures, one instance of rows at a time."""
    out = []
    for windows in rows.tolist():
        coeffs = tuple(LaurentSeries(F, 0, w, len(w)) for w in windows)
        n = len(coeffs)
        A = xtilde_matrix(F, q, n, coeffs)
        det = mat_det_series(A)
        rational = all(scalar(F).in_subfield(Fq, det.coeff(t)) for t in range(det.v, det.prec))
        got = xtilde_form(A, q, Fq)
        if rational:
            out.append(got != coeffs or xtilde_matrix(F, q, n, got) != A)
        else:
            out.append(got is not None)
    return out


# -- group algorithms through the scalar mul and inv --------------------------------


# -- tuple laws: one group element at a time ---------------------------------


@lru_cache(maxsize=None)
def _frob_maps(ring: TwistedRing) -> list:
    """Per coefficient index i, the map a -> a^(q^i) as a list."""
    F = scalar(ring.coeff_field)
    return [F.frob_map(ring.q**i) for i in range(ring.length)]


def ring_mul(ring: TwistedRing, a, b):
    """Oracle of TwistedRing.mul_batch on one pair of tuples: sum_{i+j=k}
    a_i b_j^(q^i), one coefficient product at a time."""
    F = scalar(ring.coeff_field)
    frobs = _frob_maps(ring)
    L = ring.length
    out = [0] * L
    for i, ai in enumerate(a):
        if ai:
            fr = frobs[i]
            for j in range(L - i):
                bj = b[j]
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, fr[bj]))
    return tuple(out)


def ring_inv(ring: TwistedRing, a):
    """Oracle of TwistedRing.inv_batch on one unit, whose constant may be
    any nonzero a_0: a = a_0 w with w = 1 + m unipotent, inverted by the
    geometric series in -m."""
    if a[0] == 0:
        raise ZeroDivisionError("not a unit")
    F = scalar(ring.coeff_field)
    L = ring.length
    c = F.inv(a[0])
    # scalars multiply coefficientwise from the left
    w = [F.mul(c, x) for x in a]
    neg_m = tuple([0] + [F.neg(x) for x in w[1:]])
    inv_w = term = ring_one(ring)
    for _ in range(L - 1):
        term = ring_mul(ring, term, neg_m)
        if not any(term):
            break
        inv_w = tuple([F.add(u, v) for u, v in zip(inv_w, term)])
    # a^(-1) = w^(-1) * a0^(-1); right multiplication by a constant twists
    return ring_mul(ring, inv_w, (c,) + (0,) * (L - 1))


def ring_frobenius(ring: TwistedRing, a, s: int):
    """Oracle of TwistedRing.frobenius_batch: the coefficientwise q^s power
    of one element."""
    return tuple([scalar(ring.coeff_field).frob_map(ring.q**s)[x] for x in a])


def scalar_conj(ring: TwistedRing, c: int, x):
    """Oracle of conjugation by the constant c on one element x, read off
    TwistedRing.scalar_conj_factors in the package: coefficient j of x
    scaled by c^(1-q^j), the factor recomputed for each coefficient."""
    F = scalar(ring.coeff_field)
    out = [x[0]]
    for j in range(1, ring.length):
        fr = F.frob_map(ring.q**j)
        out.append(F.mul(F.mul(c, F.inv(fr[c])), x[j]) if x[j] else 0)
    return tuple(out)


def gnq_mul(field_a: Field, n: int, q: int, a, b):
    """Oracle of twistring.gnq_mul_batch on one pair of mirror elements."""
    F = scalar(field_a)
    add, mul = F.add, F.mul
    out = [add(x, y) for x, y in zip(a, b)]
    top = out[n - 1]
    for i in range(1, n):
        ai, bj = a[i - 1], b[n - i - 1]
        if ai and bj:
            fr = F.frob_map(q**i)
            top = add(top, mul(ai, fr[bj]))
    out[n - 1] = top
    return tuple(out)


def gnq_inv(field_a: Field, n: int, q: int, a):
    """Oracle of twistring.gnq_inv_batch on one mirror element."""
    F = scalar(field_a)
    add, mul = F.add, F.mul
    neg = [F.neg(x) for x in a]
    top = neg[n - 1]
    for i in range(1, n):
        ai, aj = a[i - 1], a[n - i - 1]
        if ai and aj:
            fr = F.frob_map(q**i)
            top = add(top, mul(ai, fr[aj]))
    neg[n - 1] = top
    return tuple(neg)


@lru_cache(maxsize=None)
def unipotent_law(ring: TwistedRing) -> tuple:
    """Oracle of twistring.unipotent_index_law: the tuple law (mul, inv) of
    the units of ring."""
    return (lambda a, b: ring_mul(ring, a, b)), (lambda a: ring_inv(ring, a))


@lru_cache(maxsize=None)
def gnq_law(field_a: Field, n: int, q: int) -> tuple:
    """Oracle of twistring.gnq_index_law: the tuple law (mul, inv) of
    G^{n,q} over field_a."""
    return (lambda a, b: gnq_mul(field_a, n, q, a, b)), (lambda a: gnq_inv(field_a, n, q, a))


@lru_cache(maxsize=None)
def divquot_law(ring: TwistedRing, nM: int) -> tuple:
    """Oracle of the division quotient's index law: the tuple law (mul, inv)
    on elements (e, u_0, ..., u_(L-1)), the columns of its decode, with e
    the Pi-valuation mod nM and u a unit of ring, where Pi u = u^q Pi."""
    n = ring.n

    def mul(x, y):
        a, u, b, v = x[0], x[1:], y[0], y[1:]
        return ((a + b) % nM,) + ring_mul(ring, ring_frobenius(ring, u, (-b) % n), v)

    def inv(x):
        a, u = x[0], x[1:]
        return ((-a) % nM,) + ring_inv(ring, ring_frobenius(ring, u, a % n))

    return mul, inv


def decompose(dq, u):
    """Oracle of DivQuotData.decompose on one unit: (k, u1) with u =
    zeta-bar^k u1, k found by walking the powers of F.gen and u1 = u_0^-1 u
    one coefficient at a time."""
    F = scalar(dq.F)
    k, t = 0, 1
    while t != u[0]:
        k, t = k + 1, F.mul(t, F.gen)
    c = F.inv(u[0])
    return k, tuple(F.mul(c, x) for x in u)


def abelian_character_extensions(elements, law, base: dict, R: int) -> list:
    """Oracle of repkit.abelian_character_extensions: all characters of the
    abelian group on elements extending base, a dict element -> exponent on
    a subgroup, as dicts, grown one element and one root choice at a time.
    Elements are adjoined in the order given and root choices are taken in
    increasing exponent order."""
    mul = law[0]
    chars = [dict(base)]
    for g in elements:
        if g in chars[0]:
            continue
        c, x = 1, g
        powers = [g]
        while x not in chars[0]:
            x = mul(x, g)
            powers.append(x)
            c += 1
        if R % c:
            raise RootOrderError(f"root order {R} is not divisible by the element order {c}")
        new_chars = []
        for chi in chars:
            e = chi[x] % R
            for t in range(c):
                num = e + t * R
                if num % c:
                    continue
                f = (num // c) % R
                ext = dict(chi)
                for d, ed in chi.items():
                    for i in range(1, c):
                        ext[mul(d, powers[i - 1])] = (ed + i * f) % R
                new_chars.append(ext)
        chars = new_chars
    return chars


def char_exp(group, chi, g) -> int:
    """The exponent at one element g of the exponent table chi over the
    element indices of group, read through its element index."""
    return int(chi[index(group)[g]])


def table_group(elements, law, generators):
    """A small GroupModel whose index law is read off the full tables of the
    tuple law (mul, inv) on elements, a list of int tuples: element i is
    elements[i], which decode returns as column i."""
    mul, inv = law
    els = list(elements)
    index = {g: i for i, g in enumerate(els)}
    table = np.array([[index[mul(a, b)] for b in els] for a in els], dtype=np.int64)
    inverse = np.array([index[inv(a)] for a in els], dtype=np.int64)
    coords = np.array(els, dtype=np.int64).T
    return GroupModel(
        len(els),
        lambda a, b: table[a, b],
        lambda a: inverse[a],
        lambda i: coords[:, i],
        [index[g] for g in generators],
    )


def conj_classes(group, law):
    """Oracle of GroupModel.conj_classes: the conjugation orbits of the
    generators, grown breadth-first from each element not yet seen through
    the tuple law."""
    mul, inv = law
    els = elements(group)
    gens = [els[i] for i in group.generators.tolist()]
    inv_gens = [inv(g) for g in gens]
    seen = {}
    classes = []
    for g in els:
        if g in seen:
            continue
        orbit = [g]
        seen[g] = len(classes)
        queue = [g]
        while queue:
            x = queue.pop()
            for s, si in zip(gens, inv_gens):
                y = mul(mul(s, x), si)
                if y not in seen:
                    seen[y] = len(classes)
                    orbit.append(y)
                    queue.append(y)
        classes.append(orbit)
    return classes


def coset_transversal(group, law, subgroup_set):
    """Oracle of repkit.coset_transversal, through the tuple law."""
    mul = law[0]
    seen = set()
    reps = []
    for g in elements(group):
        if g in seen:
            continue
        reps.append(g)
        for h in subgroup_set:
            seen.add(mul(g, h))
    return reps


def induce_char(group, law, subgroup_set, chi_exp, R: int) -> np.ndarray:
    """Oracle of MonomialRep.character, as (|G|, R) count rows: row g counts
    chi_exp(t^-1 g t) over the transversal, one conjugate at a time through
    the tuple law."""
    mul, inv = law
    transversal = coset_transversal(group, law, subgroup_set)
    inv_t = [inv(t) for t in transversal]
    counts = np.zeros((len(group), R), dtype=np.int64)
    for i, g in enumerate(elements(group)):
        for t, ti in zip(transversal, inv_t):
            h = mul(ti, mul(g, t))
            if h in subgroup_set:
                counts[i, chi_exp(h) % R] += 1
    return counts


@lru_cache(maxsize=None)
def _support_lookup(group, law, subgroup_set: frozenset) -> tuple:
    """(transversal, support) with support(g) = (perm, hs) such that
    g t_j = t_perm[j] hs[j], by coset lookup through the tuple law."""
    mul, inv = law
    transversal = coset_transversal(group, law, subgroup_set)
    inv_t = [inv(t) for t in transversal]
    coset_of = {mul(t, h): i for i, t in enumerate(transversal) for h in subgroup_set}

    def support(g):
        perm, hs = [], []
        for t in transversal:
            w = mul(g, t)
            i = coset_of[w]
            perm.append(i)
            hs.append(mul(inv_t[i], w))
        return tuple(perm), tuple(hs)

    return transversal, support


def monomial_supports(group, law, subgroup_set) -> tuple:
    """Oracle of MonomialRep's transversal and supports: (transversal,
    {g: (perm, hs)}) with g t_j = t_perm[j] hs[j], by coset lookup."""
    transversal, support = _support_lookup(group, law, frozenset(subgroup_set))
    return transversal, {g: support(g) for g in elements(group)}


def exp_table(group, subgroup_set, chi_exp):
    """A linear character given one element at a time, as the exponent
    table over group indices that MonomialRep takes: chi_exp on the
    subgroup and zero off it."""
    chi = np.zeros(len(group), dtype=np.int64)
    for h in subgroup_set:
        chi[index(group)[h]] = chi_exp(h)
    return chi


def monomial_matrices(rep, law, chi_exp=None):
    """Oracle of MonomialRep.matrices, one element at a time: a function
    g -> (perm, exps) of tuples, with g t_j = t_perm[j] h_j by coset lookup
    through the tuple law of rep's group and exps[j] = chi_exp(h_j) mod R.
    chi_exp defaults to reading rep's table at one element."""
    els = elements(rep.group)
    if chi_exp is None:
        def chi_exp(h):
            return int(rep.chi[index(rep.group)[h]])

    _, support = _support_lookup(rep.group, law, frozenset(els[i] for i in rep.H.tolist()))

    @lru_cache(maxsize=None)
    def matrix(g):
        perm, hs = support(g)
        return perm, tuple(chi_exp(h) % rep.R for h in hs)

    return matrix


def monomial_mul(m1, m2, R):
    """Oracle of the monomial products on index arrays: (m1 m2) e_j =
    m1 (exps2[j] e_{perm2[j]}) on (perm, exps) tuples."""
    p1, e1 = m1
    p2, e2 = m2
    perm = tuple(p1[p2[j]] for j in range(len(p2)))
    exps = tuple((e2[j] + e1[p2[j]]) % R for j in range(len(p2)))
    return perm, exps


def monomial_trace_exps(m, R):
    """The exponents of the diagonal entries of the monomial matrix m."""
    perm, exps = m
    return tuple(exps[j] % R for j in range(len(perm)) if perm[j] == j)


def trace_exps(ext, k: int, u, matrix):
    """Oracle of MonomialExtension.trace_entries at one element u: the
    exponent list of the trace of T^k rho(u), with T^k multiplied out from
    T = (P[1], E[1]) by monomial_mul and rho(u) = matrix(u)."""
    d = ext.rep.dim
    T = tuple(ext.P[1].tolist()), tuple(ext.E[1].tolist())
    Tk = (tuple(range(d)), (0,) * d)
    for _ in range(k % ext.c):
        Tk = monomial_mul(Tk, T, ext.R)
    return monomial_trace_exps(monomial_mul(Tk, matrix(u), ext.R), ext.R)


def monomial_delta_sums(ext, pairs, matrix):
    """Oracle of MonomialExtension.delta_sums: the trace exponents of each
    (k, u) through trace_exps, and each delta's row counted one exponent
    pair at a time."""
    R = ext.R
    els = elements(ext.rep.group)
    exps = {}
    rows = {}
    for k1, u1, k2, u2 in pairs.T.tolist():
        x, y = (k1, u1), (k2, u2)
        for z in (x, y):
            if z not in exps:
                exps[z] = trace_exps(ext, z[0], els[z[1]], matrix)
        row = rows.setdefault((k2 - k1) % ext.c, [0] * R)
        for a in exps[y]:
            for b in exps[x]:
                row[(a - b) % R] += 1
    return [(d, cyclo_from_counts(R, rows[d])) for d in sorted(rows)]


def monomial_extension_value(ext, k: int, u, matrix):
    """Oracle of a MonomialExtension's character against the dense route's
    dense_value: the trace of T^k rho(u) as a CycloNum."""
    counts = [0] * ext.R
    for e in trace_exps(ext, k, u, matrix):
        counts[e % ext.R] += 1
    return cyclo_from_counts(ext.R, counts)


def galois(x, j: int):
    """Oracle automorphism zeta -> zeta^j of Q(zeta_n), gcd(j, n) == 1, on
    a CycloNum, one power-basis coefficient at a time."""
    n = x.n
    j %= n
    if gcd(j, n) != 1:
        raise UnsupportedParametersError(f"gcd({j}, {n}) != 1")
    acc = [Fraction(0)] * _degree(n)
    for i, c in enumerate(x.coeffs):
        if c:
            vec = _power_residues(n)[(i * j) % n]
            for t in range(len(acc)):
                acc[t] += c * vec[t]
    return CycloNum(n, acc)


def conj(x):
    """Complex conjugation zeta -> zeta^-1 of a CycloNum."""
    return galois(x, -1)


def cyclo_inv(x):
    """1/x through the field norm: the product of the other Galois
    conjugates divided by the (rational, nonzero) norm."""
    n = x.n
    num = CycloNum.rational(n, 1)
    for j in range(2, n):
        if gcd(j, n) == 1:
            num = num * galois(x, j)
    norm = x * num
    if not norm.is_rational():
        raise NotIntegralError(f"not rational: {norm}")
    norm = norm.coeffs[0]
    if norm == 0:
        raise AllZeroError("inverse of zero")
    return num / norm


def monomial_to_dense(P, E, R):
    """The matrix sending e_j to zeta_R^E[j] e_P[j], as rows of CycloNum
    entries with None for zero."""
    d = len(P)
    M = [[None] * d for _ in range(d)]
    for j in range(d):
        M[P[j]][j] = CycloNum.root(R, E[j])
    return M


def dense_mul(A, B):
    d = len(A)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = None
            for k in range(d):
                a, b = A[i][k], B[k][j]
                if a is not None and b is not None:
                    acc = a * b if acc is None else acc + a * b
            if acc is not None and acc.is_zero():
                acc = None
            row.append(acc)
        out.append(row)
    return out


def dense_eq(A, B):
    zero = lambda v: v is None or v.is_zero()
    d = len(A)
    return all(
        (zero(A[i][j]) and zero(B[i][j])) or (
            A[i][j] is not None and B[i][j] is not None and A[i][j] == B[i][j])
        for i in range(d)
        for j in range(d)
    )


def dense_extension(rep, entries, conj_map, g_power_c, c: int, generators, target_trace):
    """Oracle of repkit._dense_extension, on the same index arguments: the
    seed's route on rows of CycloNum entries, one generator at a time.  T is scaled by mu = target / Tr T, inverted through
    the Galois norm, and checked against (mu T)^c = rho(g^c).  Returns the
    powers (mu T)^k for k < c."""
    R, d = rep.R, rep.dim
    T = [[None] * d for _ in range(d)]
    for (i, j), e in entries.items():
        T[i][j] = CycloNum.root(R, e)
    for x in generators.tolist():
        P, E = (a.tolist() for a in rep.matrices(x))
        Pp, Ep = (a.tolist() for a in rep.matrices(conj_map[x]))
        if not dense_eq(dense_mul(monomial_to_dense(Pp, Ep, R), T),
                        dense_mul(T, monomial_to_dense(P, E, R))):
            raise NotInvariantError("intertwiner verification failed")
    s1 = CycloNum.rational(R, 0)
    for i in range(d):
        if T[i][i] is not None:
            s1 = s1 + T[i][i]
    if s1.is_zero():
        raise NoExtensionError("unnormalized intertwiner is traceless; cannot pin down the twist")
    mu = target_trace * cyclo_inv(s1)
    Ts = [[None if v is None else v * mu for v in row] for row in T]
    powers = [monomial_to_dense(range(d), (0,) * d, R)]
    for _ in range(c):
        powers.append(dense_mul(powers[-1], Ts))
    Pg, Eg = (a.tolist() for a in rep.matrices(g_power_c))
    if not dense_eq(powers[c], monomial_to_dense(Pg, Eg, R)):
        raise NoExtensionError("trace-matched scaling does not satisfy T^c = rho(g^c)")
    return powers[:c]


def dense_value(rep, powers, k: int, u: int):
    """Trace of T^k rho(u) for the element index u, with T^k = powers[k mod
    c] from dense_extension, as a CycloNum."""
    Tk = powers[k % len(powers)]
    perm, exps = (a.tolist() for a in rep.matrices(u))
    tot = CycloNum.rational(rep.R, 0)
    for j in range(rep.dim):
        if Tk[j][perm[j]] is not None:
            tot = tot + Tk[j][perm[j]] * CycloNum.root(rep.R, exps[j])
    return tot


def dense_delta_sums(values, c: int, pairs):
    """Oracle of repkit.delta_sums on a dense extension, from a table
    values of (k, u) -> dense_value(k, u): sorted (delta, CycloNum) pairs,
    each the sum of values[k2, u2] * conj(values[k1, u1]) over the columns
    (k1, u1, k2, u2) of pairs with delta = k2 - k1 mod c."""
    sums = {}
    for k1, u1, k2, u2 in pairs.T.tolist():
        term = values[k2 % c, u2] * conj(values[k1 % c, u1])
        delta = (k2 - k1) % c
        sums[delta] = sums[delta] + term if delta in sums else term
    return sorted(sums.items())

def solve_intertwiner(matrix, conj, generators, d: int, R: int):
    """Oracle of repkit.solve_intertwiner: the seed's phase propagation over
    the entry graph, one equation at a time, on tuple matrices."""
    edges = {(i, j): [] for i in range(d) for j in range(d)}
    for x in generators:
        P, E = matrix(x)
        Pp, Ep = matrix(conj(x))
        # T[Pp[k], P[j]] = T[k, j] + Ep[k] - E[j]
        for k in range(d):
            for j in range(d):
                a = (k, j)
                b = (Pp[k], P[j])
                delta = (Ep[k] - E[j]) % R
                edges[a].append((b, delta))
                edges[b].append((a, (-delta) % R))
    phase = {}
    components = []
    for seed in sorted(edges):
        if seed in phase:
            continue
        comp = [seed]
        phase[seed] = 0
        consistent = True
        queue = [seed]
        while queue:
            u = queue.pop()
            for v, delta in edges[u]:
                w = (phase[u] + delta) % R
                if v in phase:
                    if phase[v] != w:
                        consistent = False
                else:
                    phase[v] = w
                    comp.append(v)
                    queue.append(v)
        components.append((comp, consistent))
    good = [comp for comp, ok in components if ok]
    if not good:
        raise NotInvariantError("no intertwiner: representation not invariant")
    if len(good) > 1:
        raise NotInvariantError(
            "intertwiner space not one-dimensional; representation reducible?"
        )
    return {node: phase[node] for node in good[0]}


def level3_sharp_exp(units, chi):
    """Oracle of the level-3 rep's table: chi-sharp, for the exponent table
    chi over the units' element indices, on the coordinate subgroup {1 + a2
    t^2 + a3 t^3 + a4 t^4}, reading (a2, a4) as a level-2 principal unit of
    the quadratic field, one element at a time."""

    def exp(g):
        return char_exp(units, chi, (1, g[2], g[4]))

    return exp


def eta_prime_trace_exps(rt, x):
    """The extension character of rt on the even-valuation subgroup: for
    x = (e, u) with n | e and u = zeta-bar^k u1, the exponent list of the
    trace of T^k rho(u1), shifted by theta's exponent on Pi^e zeta-bar^k."""
    e, u = x
    dq, theta = rt.dq, rt.theta
    if e % dq.n:
        raise OutsideSubgroupError(f"valuation {e} is not a multiple of n = {dq.n}")
    k, u1 = decompose(dq, u)
    shift = ((e // dq.n) * theta.pi_value_exp() + k * theta.zeta_value_exp()) % theta.R
    # rho's group is the unipotent group of dq's ring
    exps = trace_exps(rt.ext, k, u1, monomial_matrices(rt.ext.rep, unipotent_law(dq.ring)))
    return [(x_ + shift) % theta.R for x_ in exps]


def eta_trace_exps(rt, x):
    """Oracle of constructions._class_traces at one element x = (e, u_0,
    ..., u_(L-1)) of the division quotient: the exponent list of the induced
    character, one element and one Frobenius twist at a time, whose counts
    are that function's row for the class of x."""
    e, u = x[0], x[1:]
    dq = rt.dq
    if e % dq.n:
        return []
    out = []
    for j in range(dq.n):
        out.extend(eta_prime_trace_exps(rt, (e, ring_frobenius(dq.ring, u, (dq.n - j) % dq.n))))
    return out


def class_norm(rt, ctx) -> int:
    """Oracle of verify_main_example's norm: the squared norm of the
    extension-route character, walked class by class through
    eta_trace_exps."""
    R = rt.theta.R
    counts = [0] * R
    reps = ctx.dq.group.decode(ctx.class_reps).T.tolist()
    for g, size in zip(reps, ctx.class_sizes):
        exps = eta_trace_exps(rt, tuple(g))
        for a in exps:
            for b in exps:
                counts[(a - b) % R] += size
    return assert_nonneg_integer(cyclo_from_counts(R, counts) / len(ctx.dq.group))


# -- additive characters, the extension orbit and the mirror Lang fibre ----------


def addchar_exp(psi, x: int) -> int:
    """Oracle of AddChar.exp and its table: the absolute trace of a x, one
    Frobenius conjugate at a time."""
    F = scalar(psi.F)
    return F.trace(F.mul(psi.a, x), field(F.p, 1))


def conductor_power(psi) -> int:
    """Oracle of AddChar.conductor_power: the least m | n such that psi is
    trivial on the kernel of the trace to F_{q^m}, element by element."""
    p, e = splitting_params(psi.q)
    F = scalar(psi.F)
    n = F.k // e
    for m in range(1, n + 1):
        sub = field(p, e * m)
        if n % m == 0 and all(
            addchar_exp(psi, x) == 0 for x in range(F.order) if F.trace(x, sub) == 0
        ):
            return m
    raise UnsupportedParametersError(f"F_{F.order} is not over F_{psi.q}")


def extension_orbit_rows(q: int) -> list:
    """Oracle of extension_orbit_report's rows: each conjugate x v x^-1
    through ring_mul and ring_inv, and each character value through
    addchar_exp."""
    p, e = splitting_params(q)
    F = field(p, 2 * e)
    ring = twisted_ring(2, q, 3, F)
    V = [(1, 0, 0, a3, a4) for a3 in range(F.order) for a4 in range(F.order)]
    vidx = {v: i for i, v in enumerate(V)}
    rows = []
    for a in range(1, F.order):
        psi = AddChar(F, q, a)
        all_ext = {
            tuple((addchar_exp(psi, v[4]) + addchar_exp(AddChar(F, q, mu), v[3])) % p for v in V)
            for mu in range(F.order)
        }
        base = [addchar_exp(psi, v[4]) for v in V]
        orbit = set()
        for beta in range(F.order):
            x = (1, beta, 0, 0, 0)
            xi = ring_inv(ring, x)
            row = []
            for v in V:
                w = ring_mul(ring, ring_mul(ring, x, v), xi)
                if w[1] != 0 or w[2] != 0 or w[3] != v[3]:
                    raise OutsideSubgroupError(f"{x} conjugates {v} to {w}, outside the subgroup")
                row.append(base[vidx[(1, 0, 0, w[3], w[4])]])
            orbit.add(tuple(row))
        if not orbit <= all_ext:
            raise CharacterMismatchError(f"a conjugate of psi = {a} is not an extension")
        m = conductor_power(psi)
        rows.append({"psi": a, "m": m, "orbit": len(orbit), "extensions": len(all_ext)})
    return rows


def gnq_frobenius(field_a: Field, q: int, a, s: int):
    """Coordinatewise q^s power on one element of the mirror family."""
    fr = scalar(field_a).frob_map(q**s)
    return tuple([fr[x] for x in a])


def gnq_lang_fiber_count(n: int, q: int, s: int = 1) -> int:
    """Oracle of constructions.gnq_lang_fiber_count, one point at a time
    through the scalar mirror law."""
    p, e = splitting_params(q)
    F = field(p, e * n * s)
    count = 0
    for a in itertools.product(range(F.order), repeat=n):
        y = gnq_mul(F, n, q, gnq_frobenius(F, q, a, n), gnq_inv(F, n, q, a))
        count += y[n - 1] == 0
    return count
