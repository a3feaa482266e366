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

from functools import lru_cache

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
# exp/log, Zech, negation and Frobenius lookup arrays.
EXPLOG_ORDER_LIMIT = 1 << 16

# Points per array yielded by grid_chunks: large enough that numpy dominates
# the per-chunk Python overhead, small enough that no enumeration holds a
# whole grid in memory.
GRID_CHUNK = 4096


class Field:
    """The finite field F_{p^k} with a fixed primitive polynomial.

    Elements are integer indices, and every operation is a lookup in numpy
    tables built once by the constructor: ``add``, ``sub``, ``neg``,
    ``mul``, ``inv`` and ``log`` take arrays of any shape or Python ints,
    which broadcast.  Multiplication goes through exp/log for the generator
    g, the class of x.  In characteristic 2 addition is XOR of the indices.
    For odd p it uses Zech logarithms Z(d) = log(1 + g^d), since g^i + g^j
    = g^(i + Z(j - i)) (Lidl-Niederreiter, *Finite Fields*, ch. 2).
    Negation and the Frobenius maps a -> a^qpow are permutation arrays.
    """

    def __init__(self, p: int, k: int):
        if (p, k) not in PRIMITIVE_POLYS:
            raise UnsupportedParametersError(f"no defining polynomial for p={p}, k={k}")
        self.p = p
        self.k = k
        self.order = p**k
        n = self.order - 1
        poly = PRIMITIVE_POLYS[(p, k)]
        # digits of every element, most significant first, and a -> a x by
        # a shift of the digits with x^k = -(poly without its leading 1);
        # for k == 1 the polynomial is x - r with r a primitive root mod p
        digits = index_digits(np.arange(self.order, dtype=np.int64), p, k)
        low = np.array([(-c) % p for c in reversed(poly[:k])], dtype=np.int64)
        shifted = np.concatenate([digits[1:], np.zeros_like(digits[:1])])
        times_x = digits_index((shifted + low[:, None] * digits[0]) % p, p)
        self.gen = int(times_x[1])
        # exp[i] == g^i for i < n, by doubling: g^(i + m) is x^m applied to g^i
        exp, step = np.ones(1, dtype=np.int64), times_x
        while len(exp) < n:
            exp, step = np.concatenate([exp, step[exp]]), step[step]
        self.exp = exp[:n]
        # log[0] == 2n; g is primitive when its n powers reach every nonzero
        # element
        self._log = np.full(self.order, 2 * n, dtype=np.int64)
        self._log[self.exp] = np.arange(n, dtype=np.int64)
        if (self._log[1:] == 2 * n).any():
            raise DLLabError(f"generator {self.gen} of {self} is not primitive")
        # exp4[i] == g^i for i < 2n and 0 from 2n on, so a product with a
        # zero factor lands in the zero block
        self._exp4 = np.concatenate([self.exp, self.exp, np.zeros(2 * n + 1, dtype=np.int64)])
        self._neg = digits_index(-digits % p, p)
        if p != 2:
            # zech[d] = log(1 + g^d), 2n where 1 + g^d == 0; that happens
            # only for g^d == -1, i.e. d == n/2 and nowhere else
            plus_one = self.exp + np.where(digits[-1, self.exp] == p - 1, 1 - p, 1)
            zech = self._log[plus_one]
            if np.count_nonzero(zech == 2 * n) != 1 or zech[n // 2] != 2 * n:
                raise DLLabError(f"Zech table of {self} is inconsistent: -1 != g^{n // 2}")
            # log b - log a ranges over [-2n, 2n] once zeros are in; four
            # copies index it without a reduction mod n, as numpy wraps
            # negative indices
            self._zech4 = np.tile(zech, 4)
        self._frobs: dict[int, np.ndarray] = {}
        self._embed_tabs: dict[int, np.ndarray] = {}
        self._retract_tabs: dict[int, np.ndarray] = {}
        self._trace_tabs: dict[int, np.ndarray] = {}

    def __repr__(self):
        return f"F_{self.p}^{self.k}" if self.k > 1 else f"F_{self.p}"

    # -- arithmetic ---------------------------------------------------------

    def add(self, x, y):
        if self.p == 2:
            return np.bitwise_xor(x, y)
        # g^a + g^b == g^(a + Z(b - a)); Z == 2n where g^a + g^b == 0
        lx = self._log[x]
        s = self._exp4[lx + self._zech4[self._log[y] - lx]]
        return np.where(np.equal(y, 0), x, np.where(np.equal(x, 0), y, s))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return x if self.p == 2 else self._neg[x]

    def mul(self, x, y):
        return self._exp4[self._log[x] + self._log[y]]

    def inv(self, x):
        """Inverses of nonzero elements."""
        n = self.order - 1
        return self._exp4[(n - self._log[x]) % n]

    def log(self, x):
        """The logs of nonzero elements to the base gen."""
        return self._log[x]

    # -- Frobenius ----------------------------------------------------------

    def frob_exp(self, q: int, i: int) -> int:
        """An exponent e with a^e == a^(q^i) for every a: q^i reduced mod
        order - 1 (1 in F_2, where every power is the identity)."""
        return pow(q, i, self.order - 1) if self.order > 2 else 1

    def frob_table(self, qpow: int) -> np.ndarray:
        """Permutation array a -> a^qpow for qpow a power of p, cached per
        exponent mod order - 1."""
        n = self.order - 1
        e = qpow % n
        tab = self._frobs.get(e)
        if tab is None:
            tab = np.concatenate([[0], self.exp[self._log[1:] * e % n]])
            self._frobs[e] = tab
        return tab

    # -- subfields ---------------------------------------------------------

    def embed_table(self, sub: "Field") -> np.ndarray:
        """Index array mapping elements of sub into self: the digits of each
        element of sub, most significant first, by Horner's rule in beta =
        g^((|self| - 1)/(|sub| - 1)), the image of sub's generator."""
        if sub.p != self.p or self.k % sub.k != 0:
            raise NotInSubfieldError(f"{sub} is not a subfield of {self}")
        tab = self._embed_tabs.get(sub.k)
        if tab is None:
            n = self.order - 1
            beta = self.exp[n // (sub.order - 1) % n]
            tab = np.zeros(sub.order, dtype=np.int64)
            # prime-field digits embed as themselves
            for d in index_digits(np.arange(sub.order, dtype=np.int64), self.p, sub.k):
                tab = self.add(self.mul(tab, beta), d)
            self._embed_tabs[sub.k] = tab
            back = np.full(self.order, -1, dtype=np.int64)
            back[tab] = np.arange(sub.order)
            self._retract_tabs[sub.k] = back
        return tab

    def retract_table(self, sub: "Field") -> np.ndarray:
        """Index array inverting embed_table: a -> its index in sub, and -1
        for a outside sub."""
        self.embed_table(sub)
        return self._retract_tabs[sub.k]

    def trace_table(self, sub: "Field") -> np.ndarray:
        """Index array a -> Tr_{self/sub}(a) as an index in sub, the sum of
        the conjugates a^(|sub|^i); cached per subfield."""
        tab = self._trace_tabs.get(sub.k)
        if tab is None:
            back = self.retract_table(sub)
            x = t = np.arange(self.order, dtype=np.int64)
            for _ in range(self.k // sub.k - 1):
                x = self.frob_table(sub.order)[x]
                t = self.add(t, x)
            tab = back[t]
            if (tab < 0).any():
                raise NotInSubfieldError(f"a trace of {self} does not lie in {sub}")
            self._trace_tabs[sub.k] = tab
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
