"""Finite fields F_{p^k} with compatible embeddings.

Elements of F_{p^k} are represented by integer indices in [0, p^k): the index
encodes the coefficient vector of the element in the polynomial basis, least
significant coefficient first (index = sum c_i * p^i).  Index order is the
deterministic enumeration order used everywhere.

Each field is defined by a fixed primitive polynomial from PRIMITIVE_POLYS.
The table is norm-compatible: for m | k the element x^((p^k-1)/(p^m-1)) in
F_{p^k} is a root of the degree-m table polynomial, so the embeddings

    F_{p^m} -> F_{p^k},   x |-> x^((p^k-1)/(p^m-1))

commute with each other across the tower.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache

import numpy as np

from .errors import DLLabError, NotInSubfieldError, UnsupportedParametersError

# (p, k) -> coefficients of a monic primitive polynomial, low degree first,
# including the leading 1.  Norm-compatible within each characteristic.
PRIMITIVE_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 1, 1, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 1, 0, 1),
    (2, 9): (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (2, 0, 1, 0, 2, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (2, 0, 0, 1, 2, 0, 1, 1, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 2, 1, 1),
    (3, 10): (2, 0, 0, 0, 1, 1, 1, 0, 0, 2, 1),
    (5, 1): (2, 1),
    (5, 2): (3, 2, 1),
    (5, 3): (2, 0, 1, 1),
    (5, 4): (3, 0, 2, 2, 1),
    (5, 5): (2, 0, 0, 0, 3, 1),
    (5, 6): (3, 0, 1, 0, 0, 1, 1),
}

# Every field above is at most this large, so every field builds its
# exp/log, Zech and Frobenius lookup lists.
EXPLOG_ORDER_LIMIT = 1 << 16

# Points per array yielded by grid_chunks: large enough that numpy dominates
# the per-chunk Python overhead, small enough that no enumeration holds a
# whole grid in memory.
GRID_CHUNK = 4096


class Field:
    """The finite field F_{p^k} with a fixed primitive polynomial.

    All element-level operations take and return integer indices.

    Every field is table-driven.  Construction builds exp/log lists for the
    generator g from the polynomial product and installs ``add``, ``sub``,
    ``neg``, ``mul`` and ``inv`` as instance attributes.  In characteristic
    2 addition is XOR of the indices.  For odd p it uses Zech logarithms
    Z(d) = log(1 + g^d), since g^i + g^j = g^(i + Z(j - i))
    (Lidl-Niederreiter, *Finite Fields*), built with digitwise addition.
    The digit-loop and polynomial methods below build the tables, and the
    tests use them as the oracle of the tables.
    """

    def __init__(self, p: int, k: int):
        if (p, k) not in PRIMITIVE_POLYS:
            raise UnsupportedParametersError(f"no defining polynomial for p={p}, k={k}")
        self.p = p
        self.k = k
        self.order = p**k
        self.poly = PRIMITIVE_POLYS[(p, k)]
        self.zero = 0
        self.one = 1
        # x is a primitive root by construction; for k == 1 the polynomial is
        # x - r with r a primitive root mod p.
        self.gen = p if k > 1 else (-self.poly[0]) % p
        # reductions of x^d for d in [k, 2k-2], as coefficient tuples
        self._xpow = self._build_xpow()
        self._frob_maps: dict[int, list[int]] = {}
        self._embed_tabs: dict[int, np.ndarray] = {}
        self._retract_tabs: dict[int, np.ndarray] = {}
        self._trace_tabs: dict[int, np.ndarray] = {}
        self._build_explog()
        self._install_table_ops()

    def __repr__(self):
        return f"F_{self.p}^{self.k}" if self.k > 1 else f"F_{self.p}"

    # -- representation ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def elements(self):
        return range(self.order)

    # -- arithmetic: digit loops and polynomial products -------------------

    def _add_digits(self, a: int, b: int) -> int:
        p, r = self.p, 0
        mul = 1
        while a or b:
            r += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return r

    def _neg_digits(self, a: int) -> int:
        p, r = self.p, 0
        mul = 1
        while a:
            r += (-a % p) * mul
            a //= p
            mul *= p
        return r

    def _mul_poly(self, a: int, b: int) -> int:
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

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- Frobenius ----------------------------------------------------------

    def frob_exp(self, q: int, i: int) -> int:
        """An exponent e with a^e == a^(q^i) for every a: q^i reduced mod
        order - 1 (1 in F_2, where every power is the identity)."""
        return pow(q, i, self.order - 1) if self.order > 2 else 1

    def frob_map(self, q: int):
        """a -> a^q for q a power of p, as a cached list indexed by a.  Hoist
        it out of loops."""
        tab = self._frob_maps.get(q)
        if tab is None:
            n = self.order - 1
            e = q % n
            tab = self._frob_maps.get(e)
            if tab is None:
                exp = self._exp
                tab = [0] + [exp[lg * e % n] for lg in self._log[1:]]
                self._frob_maps[e] = tab
            self._frob_maps[q] = tab
        return tab

    def frob(self, a: int, q: int) -> int:
        """a^q for q a power of p (any positive power works)."""
        tab = self._frob_maps.get(q)
        if tab is None:
            tab = self.frob_map(q)
        return tab[a]

    def frob_table(self, q: int) -> np.ndarray:
        """Index array a -> a^q."""
        return np.array(self.frob_map(q), dtype=np.int64)

    @cached_property
    def vec(self) -> "VecOps":
        """The numpy kernel of this field, built on first use."""
        return VecOps(self)

    # -- tables -----------------------------------------------------------

    def _build_xpow(self):
        p, k = self.p, self.k
        # x^k = -(poly without leading coeff)
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
        exp = [0] * n
        log = [0] * self.order
        a = 1
        for i in range(n):
            exp[i] = a
            log[a] = i
            a = self._mul_poly(a, self.gen)
        if a != 1 or len(set(exp)) != n:
            raise DLLabError(f"generator {self.gen} of {self} is not primitive")
        self._exp = exp
        self._log = log

    def _install_table_ops(self):
        """Install add/sub/neg/mul/inv as closures over the lookup lists."""
        n = self.order - 1
        exp, log = self._exp, self._log
        # exp2[i + j] == g^(i + j) for 0 <= i, j < n, with no reduction mod n
        exp2 = exp + exp

        def mul(a, b):
            return exp2[log[a] + log[b]] if a and b else 0

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return exp[-log[a]]  # index n - log a, or 0 for a == 1

        self.mul, self.inv = mul, inv
        if self.p == 2:
            # digitwise addition mod 2 is XOR of the indices, and -a == a
            self.add = self.sub = operator.xor
            self.neg = operator.pos
            return

        zech = self._build_zech()
        half = n // 2  # g^half == -1, checked by _build_zech
        neg_tab = [0] + [exp2[lg + half] for lg in log[1:]]

        # log[b] - la lies in (-n, n); a negative index reads zech[d + n],
        # and g^d == g^(d + n).
        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else exp2[la + z]

        def sub(a, b):
            if not b:
                return a
            b = neg_tab[b]
            if not a:
                return b
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else exp2[la + z]

        self.add, self.sub, self.neg = add, sub, neg_tab.__getitem__

    def _build_zech(self) -> list:
        """zech[d] = log(1 + g^d), or None where 1 + g^d == 0 (odd p only)."""
        n = self.order - 1
        zech = [None] * n
        for d, a in enumerate(self._exp):
            s = self._add_digits(a, 1)
            if s:
                zech[d] = self._log[s]
        # 1 + g^d vanishes only for g^d == -1, i.e. d == n/2 and nowhere else
        if zech.count(None) != 1 or zech[n // 2] is not None:
            raise DLLabError(f"Zech table of {self} is inconsistent: -1 != g^{n // 2}")
        return zech

    # -- subfields ---------------------------------------------------------

    def embed_table(self, sub: "Field") -> np.ndarray:
        """Index array mapping elements of sub into self."""
        if sub.p != self.p or self.k % sub.k != 0:
            raise NotInSubfieldError(f"{sub} is not a subfield of {self}")
        tab = self._embed_tabs.get(sub.k)
        if tab is None:
            beta = self.pow(self.gen, (self.order - 1) // (sub.order - 1))
            tab = np.zeros(sub.order, dtype=np.int64)
            for a in range(sub.order):
                acc = 0
                for c in reversed(sub.coeffs(a)):
                    acc = self.mul(acc, beta)
                    acc = self.add(acc, c)  # prime-field constants embed as-is
                tab[a] = acc
            self._embed_tabs[sub.k] = tab
            back = np.full(self.order, -1, dtype=np.int64)
            back[tab] = np.arange(sub.order)
            self._retract_tabs[sub.k] = back
        return tab

    def embed(self, sub: "Field", a: int) -> int:
        return int(self.embed_table(sub)[a])

    def retract_table(self, sub: "Field") -> np.ndarray:
        """Index array inverting embed_table: a -> its index in sub, and -1
        for a outside sub."""
        self.embed_table(sub)
        return self._retract_tabs[sub.k]

    def retract(self, sub: "Field", a: int) -> int:
        """Inverse of embed; raises NotInSubfieldError if a is not in the image."""
        r = int(self.retract_table(sub)[a])
        if r < 0:
            raise NotInSubfieldError(f"element {a} of {self} not in {sub}")
        return r

    def in_subfield(self, sub: "Field", a: int) -> bool:
        # a in F_{p^m}  <=>  a^(p^m) == a
        return self.frob(a, sub.order) == a

    def trace(self, a: int, sub: "Field") -> int:
        """Tr_{self/sub}(a), returned as an index in sub."""
        d = self.k // sub.k
        t, x = 0, a
        for _ in range(d):
            t = self.add(t, x)
            x = self.frob(x, sub.order)
        return self.retract(sub, t)

    def trace_table(self, sub: "Field") -> np.ndarray:
        """Index array a -> Tr_{self/sub}(a) as an index in sub, the sum of
        the conjugates a^(|sub|^i); cached per subfield."""
        tab = self._trace_tabs.get(sub.k)
        if tab is None:
            back = self.retract_table(sub)
            v = self.vec
            x = t = np.arange(self.order, dtype=np.int64)
            for _ in range(self.k // sub.k - 1):
                x = v.frob(sub.order)[x]
                t = v.add(t, x)
            tab = back[t]
            if (tab < 0).any():
                raise NotInSubfieldError(f"a trace of {self} does not lie in {sub}")
            self._trace_tabs[sub.k] = tab
        return tab


class VecOps:
    """numpy arithmetic on whole arrays of field-element indices.

    Uses the lookup lists of a table-driven field: addition is XOR for p = 2
    and a Zech-logarithm lookup for odd p, multiplication goes through
    exp/log, and negation (built digit by digit, so the tests compare it with
    the scalar table) and Frobenius are permutation arrays.  Operands may be
    arrays of any shape or Python ints, which broadcast.
    """

    def __init__(self, F: Field):
        self.F = F
        n = F.order - 1
        exp = np.array(F._exp, dtype=np.int64)
        # exp4[i] == g^i for i < 2n and 0 from 2n on; log[0] == 2n, so a
        # product with a zero factor lands in the zero block
        self._exp4 = np.concatenate([exp, exp, np.zeros(2 * n + 1, dtype=np.int64)])
        self._log = np.array(F._log, dtype=np.int64)
        self._log[0] = 2 * n
        self._frobs: dict[int, np.ndarray] = {}
        if F.p == 2:
            self.add = self.sub = np.bitwise_xor
            self._neg = None
            return
        zech = np.array([2 * n if z is None else z for z in F._build_zech()], dtype=np.int64)
        # log b - log a ranges over [-2n, 2n] once zeros are in; four copies
        # index it without a reduction mod n, as numpy wraps negative indices
        self._zech4 = np.tile(zech, 4)
        self._neg = np.array([F._neg_digits(a) for a in range(F.order)], dtype=np.int64)

    def add(self, x, y):
        # g^a + g^b == g^(a + Z(b - a)); Z == 2n where g^a + g^b == 0
        lx = self._log[x]
        s = self._exp4[lx + self._zech4[self._log[y] - lx]]
        return np.where(np.equal(y, 0), x, np.where(np.equal(x, 0), y, s))

    def sub(self, x, y):
        return self.add(x, self._neg[y])

    def neg(self, x):
        return x if self._neg is None else self._neg[x]

    def mul(self, x, y):
        return self._exp4[self._log[x] + self._log[y]]

    def inv(self, x):
        """Inverses of nonzero elements."""
        n = self.F.order - 1
        return self._exp4[(n - self._log[x]) % n]

    def log(self, x):
        """The logs of nonzero elements to the base F.gen."""
        return self._log[x]

    def frob(self, qpow: int) -> np.ndarray:
        """Permutation array a -> a^qpow, cached per exponent."""
        tab = self._frobs.get(qpow)
        if tab is None:
            tab = self._frobs[qpow] = self.F.frob_table(qpow)
        return tab


def index_digits(t, Q: int, dim: int) -> np.ndarray:
    """The points with grid indices t (a 1-D int array) as a (dim, N) array
    of base-Q digits, most significant first: index order is
    itertools.product order, the last coordinate varying fastest."""
    out = np.empty((dim, len(t)), dtype=np.int64)
    for j in range(dim - 1, -1, -1):
        t, out[j] = np.divmod(t, Q)
    return out


def digits_index(d, Q: int) -> np.ndarray:
    """Grid indices of the columns of a (dim, N) digit array; the inverse of
    index_digits."""
    t = np.zeros(d.shape[1], dtype=np.int64)
    for row in d:
        t = t * Q + row
    return t


def grid_chunks(Q: int, dim: int):
    """The points of [0, Q)^dim as (dim, N) int64 digit arrays of at most
    GRID_CHUNK columns, in index order.

    Scalar enumerations use itertools.product itself, so every grid in the
    package is walked in this one order.
    """
    total = Q**dim
    for start in range(0, total, GRID_CHUNK):
        t = np.arange(start, min(start + GRID_CHUNK, total), dtype=np.int64)
        yield index_digits(t, Q, dim)


def chunked(fn, *arrays) -> np.ndarray:
    """fn on arrays that share their last axis, GRID_CHUNK columns at a
    time; the results are joined along their last axis."""
    n = arrays[0].shape[-1]
    return np.concatenate(
        [
            fn(*(a[..., s : s + GRID_CHUNK] for a in arrays))
            for s in range(0, max(n, 1), GRID_CHUNK)
        ],
        axis=-1,
    )


_CHARACTERISTICS = sorted({p for p, _ in PRIMITIVE_POLYS})


@lru_cache(maxsize=None)
def field(p: int, k: int) -> Field:
    return Field(p, k)


def splitting_params(q: int) -> tuple[int, int]:
    """Decompose a prime power q = p^e; raises if q is not a prime power or
    its characteristic has no fields in PRIMITIVE_POLYS."""
    if q < 2:
        raise UnsupportedParametersError("q is not a prime power")
    for p in _CHARACTERISTICS:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise UnsupportedParametersError("q is not a prime power")
            return p, e
    raise UnsupportedParametersError("unsupported characteristic")
