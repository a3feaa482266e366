"""Truncated Laurent-series matrices over F_{q^s}((pi)).

Series are finite windows c_v pi^v + ... + c_{P-1} pi^{P-1}: everything at
exponent >= P is unknown, not zero.  Precision propagates pessimistically
(min over inputs, shifted by multiplication valuations), so a coefficient
the window claims to know is always exact.  SeriesBatch holds N such
series over one field and evaluates them together, and every routine below
works on N matrices at once, one per series index of its entries.

The module houses the n x n matrix group machinery around the twisted
Frobenius F(A) = varpi^{-1} A^phi varpi, where varpi has ones on the
superdiagonal and pi in the lower-left corner, and phi raises coefficients
to the q-th power: the quotient solver for F(B) g = h B, the normal form
of the circulant-like matrices with phi-twisted diagonals, and the closed
valuation law for their determinants.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .errors import (
    AllZeroError,
    MatrixShapeError,
    OperandMismatchError,
    PrecisionLossError,
)
from .ffield import Field

# Series per SeriesBatch that the series suite draws and evaluates at once.
# At 256 a series child peaks at about 30.0 MB RSS (Python 3.11, numpy 2.4,
# src compiled at start; importing numpy alone takes about 26.8 MB and
# dllab.cli about 29.0 MB); 1024 added about 1.8 MB, and one 10,000-series
# batch about 24 MB.
SERIES_CHUNK = 256


class SeriesBatch:
    """N truncated Laurent series over one field, evaluated together.

    Series r is the window [v[r], prec[r]) under the rules above: a
    product's window ends at min(v_a + prec_b, v_b + prec_a), a sum's at the
    smaller end, leading zeros are stripped, and a series that vanishes on
    its window has v == prec.  The coefficients sit in one dense (E, N)
    int64 array, exponent-major and C-contiguous: row j holds exponent lo + j
    of every series, and column r is series r.  A batch has a few exponents
    and hundreds of series, so with the batch axis last every elementwise
    kernel, anti-diagonal sum and scan runs along the long axis.  Entries
    outside a window are zero, and the array keeps only the rows between the
    first and the last nonzero entry of any series.  All field arithmetic
    goes through the field's table operations.  Batches are never modified in
    place.
    """

    __slots__ = ("F", "lo", "c", "v", "prec")

    def __init__(self, F: Field, lo: int, coeffs, prec):
        """Row r of coeffs (exponent lo + j in column j) is series r, cut to
        the window ending at prec[r]; coeffs is copied once, transposed."""
        c = np.asarray(coeffs, dtype=np.int64).T.copy()
        self._window(F, lo, c, np.asarray(prec, dtype=np.int64))

    @classmethod
    def _cut(cls, F: Field, lo: int, c, prec, v=None) -> "SeriesBatch":
        """A batch from an (E, N) array, row j at exponent lo + j, cut to
        the windows ending at prec; v, when known, saves the scan for it."""
        out = object.__new__(cls)
        out._window(F, lo, c, prec, v)
        return out

    def _window(self, F: Field, lo: int, c, prec, v=None):
        """Zero c at and above prec, strip the all-zero rows at both ends,
        and take v as each series' first nonzero exponent, or prec."""
        if (prec < lo + len(c)).any():
            c = np.where((lo + np.arange(len(c)))[:, None] < prec, c, 0)
        nz = c != 0
        rows = nz.any(axis=1).nonzero()[0]
        self.F, self.prec = F, prec
        if rows.size == 0:
            self.lo, self.c, self.v = 0, c[:0], prec
            return
        first, end = rows[0], rows[-1] + 1
        self.lo = lo + int(first)
        self.c = c[first:end]
        if v is None:
            nz = nz[first:end]
            v = np.where(nz.any(axis=0), self.lo + nz.argmax(axis=0), prec)
        self.v = v

    @classmethod
    def _of(cls, F: Field, lo: int, c, v, prec) -> "SeriesBatch":
        """A batch from parts that already keep the invariants."""
        out = object.__new__(cls)
        out.F, out.lo, out.c, out.v, out.prec = F, lo, c, v, prec
        return out

    @staticmethod
    def zero(F: Field, prec) -> "SeriesBatch":
        prec = np.asarray(prec, dtype=np.int64)
        return SeriesBatch._cut(F, 0, np.zeros((0, len(prec)), dtype=np.int64), prec)

    @staticmethod
    def one(F: Field, prec) -> "SeriesBatch":
        prec = np.asarray(prec, dtype=np.int64)
        return SeriesBatch._cut(F, 0, np.ones((1, len(prec)), dtype=np.int64), prec)

    def __len__(self) -> int:
        return len(self.prec)

    def _check(self, other: "SeriesBatch"):
        if other.F is not self.F or len(other) != len(self):
            raise OperandMismatchError(
                f"batch of {len(other)} over {other.F} with batch of "
                f"{len(self)} over {self.F}"
            )
        return self.F

    def _placed(self, lo: int, width: int):
        """The coefficients in rows for exponents lo .. lo + width - 1."""
        out = np.zeros((width, len(self)), dtype=np.int64)
        a, b = max(self.lo, lo), min(self.lo + len(self.c), lo + width)
        if a < b:
            out[a - lo : b - lo] = self.c[a - self.lo : b - self.lo]
        return out

    def _span(self, other: "SeriesBatch"):
        """(lo, width) covering the stored rows of both operands."""
        parts = [s for s in (self, other) if len(s.c)]
        lo = min((s.lo for s in parts), default=0)
        return lo, max((s.lo + len(s.c) for s in parts), default=lo) - lo

    def is_zero(self):
        return self.v == self.prec

    def __add__(self, other: "SeriesBatch") -> "SeriesBatch":
        F = self._check(other)
        lo, width = self._span(other)
        total = F.add(self._placed(lo, width), other._placed(lo, width))
        return SeriesBatch._cut(self.F, lo, total, np.minimum(self.prec, other.prec))

    def __neg__(self) -> "SeriesBatch":
        return SeriesBatch._of(self.F, self.lo, self.F.neg(self.c), self.v, self.prec)

    def __sub__(self, other: "SeriesBatch") -> "SeriesBatch":
        return self + (-other)

    def __mul__(self, other: "SeriesBatch") -> "SeriesBatch":
        F = self._check(other)
        prec = np.minimum(self.v + other.prec, other.v + self.prec)
        a, b = self.c, other.c
        ea, eb = len(a), len(b)
        out = np.zeros((max(0, ea + eb - 1), len(self)), dtype=np.int64)
        if ea and eb:
            terms = F.mul(a[:, None], b[None])
            for i in range(ea):
                out[i : i + eb] = F.add(out[i : i + eb], terms[i])
        # over a field the product of the leading terms is nonzero, and it
        # lies inside the window unless a factor vanishes on its own
        v = np.minimum(self.v + other.v, prec)
        return SeriesBatch._cut(self.F, self.lo + other.lo, out, prec, v)

    def shift(self, j: int) -> "SeriesBatch":
        """Multiplication by pi^j (exact; every window shifts with it)."""
        return SeriesBatch._of(self.F, self.lo + j, self.c, self.v + j, self.prec + j)

    def truncate(self, prec) -> "SeriesBatch":
        """Cut every series to the window ending at prec (an int or per series)."""
        if np.any(prec > self.prec):
            raise PrecisionLossError("cannot extend a window")
        prec = np.minimum(self.prec, prec)
        # a leading term below the new end survives the cut
        return SeriesBatch._cut(self.F, self.lo, self.c, prec, np.minimum(self.v, prec))

    def frob(self, e: int) -> "SeriesBatch":
        """Coefficientwise c -> c^e, for e a power of the characteristic."""
        c = self.F.frob_table(e)[self.c]
        return SeriesBatch._of(self.F, self.lo, c, self.v, self.prec)

    def equals(self, other: "SeriesBatch"):
        """Per series, whether the two batches agree on their common window."""
        self._check(other)
        prec = np.minimum(self.prec, other.prec)
        a, b = self.truncate(prec), other.truncate(prec)
        lo, width = a._span(b)
        return (a._placed(lo, width) == b._placed(lo, width)).all(axis=0)

    def __eq__(self, other):
        raise TypeError("compare series batches series by series with equals()")

    __hash__ = None


# -- matrices -------------------------------------------------------------------
# A matrix is a list of rows of SeriesBatch entries of one length: series r
# of every entry forms the r-th matrix.  The routines use only the entries'
# operators and their one/zero constructors, so the tests also run them on
# matrices of single series, their scalar reference.


def mat_identity_series(F: Field, n: int, prec):
    """The identity matrix whose r-th matrix has window ends prec[r]."""
    return _identity(SeriesBatch.one(F, prec), SeriesBatch.zero(F, prec), n)


def _identity(one, zero, n: int):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _sum_series(terms):
    it = iter(terms)
    out = next(it)
    for t in it:
        out = out + t
    return out


def mat_mul(A, B):
    n = len(A)
    return [
        [_sum_series(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def mat_sub(A, B):
    n = len(A)
    return [[A[i][j] - B[i][j] for j in range(n)] for i in range(n)]


def mat_prec(A):
    """The smallest window end over the entries, per series."""
    return reduce(np.minimum, (e.prec for row in A for e in row))


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple:
    """(perm, odd) for each permutation of range(n), odd meaning an odd
    number of inversions."""
    return tuple(
        (perm, sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 1)
        for perm in permutations(range(n))
    )


def mat_det_series(A):
    """Determinant by the n! alternating sum (desk scale, n <= 4)."""
    n = len(A)
    total = None
    for perm, odd in _signed_permutations(n):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        if odd:
            term = -term
        total = term if total is None else total + term
    return total


def frob_F(A, q: int):
    """The twisted Frobenius varpi^{-1} A^phi varpi, written out entrywise:

        F(A)[1][1] = phi(a_{n,n})          F(A)[1][j] = pi^{-1} phi(a_{n,j-1})
        F(A)[i][1] = pi phi(a_{i-1,n})     F(A)[i][j] = phi(a_{i-1,j-1})

    (1-based indices, i, j >= 2).  The pi^{-1} row costs one digit of
    precision, so the input must carry at least two.
    """
    n = len(A)
    prec = mat_prec(A) - 1
    if np.any(prec < 1):
        raise PrecisionLossError("frob_F needs precision >= 2")
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        out[0][j] = (
            A[n - 1][n - 1].frob(q) if j == 0 else A[n - 1][j - 1].frob(q).shift(-1)
        ).truncate(prec)
    for i in range(1, n):
        for j in range(n):
            out[i][j] = (
                A[i - 1][n - 1].frob(q).shift(1) if j == 0 else A[i - 1][j - 1].frob(q)
            ).truncate(prec)
    return out


# -- the quotient solver ---------------------------------------------------------


def solver_positions(n: int, order: str = "stepwise"):
    """Equation positions (1-based (i, j)) in a dependency-correct sequence.

    'stepwise': step t = 1..n-1 sweeps the off-diagonal from (n-t, n) down to
    (1, t+1); 'rowwise': i descending, j ascending.  Position (i, j) with
    i >= 2 determines the unknown b_{i-1, j-1}; position (1, j) determines
    c_j.  Both schedules only consume unknowns fixed earlier.
    """
    if order == "stepwise":
        out = []
        for t in range(1, n):
            i, j = n - t, n
            while i >= 1:
                out.append((i, j))
                i -= 1
                j -= 1
        return out
    if order == "rowwise":
        return [(i, j) for i in range(n, 0, -1) for j in range(i + 1, n + 1)]
    raise ValueError(f"unknown order {order!r}")


def solve_quotient(h, q: int, order: str = "stepwise"):
    """Solve F(B) g = h B for (B, g) given unipotent upper-triangular h.

    B is unipotent upper triangular with b_{i,n} = 0 for i < n; g is the
    identity outside its first row (1, c_2, ..., c_n).  With that shape
    F(B) has first row (1, 0, ..., 0) and (F(B) g)_{ij} = phi(b_{i-1,j-1})
    for i >= 2, so each equation position yields one unknown by an exact
    inverse Frobenius, and the first row reads off g directly.
    """
    n = len(h)
    F = h[0][0].F
    prec = mat_prec(h)
    inv = F.order // q  # phi^{-1} is c -> c^(|F|/q), exact on F
    one, zero = h[0][0].one(F, prec), h[0][0].zero(F, prec)
    B, g = _identity(one, zero, n), _identity(one, zero, n)

    def hB_entry(i, j):
        # h upper unipotent, B upper unipotent: only k in [i, j] contributes
        return _sum_series(h[i - 1][k - 1] * B[k - 1][j - 1] for k in range(i, j + 1))

    for i, j in solver_positions(n, order):
        val = hB_entry(i, j)
        if i == 1:
            g[0][j - 1] = val
        else:
            B[i - 2][j - 2] = val.frob(inv)
    return B, g


def quotient_residual(h, B, g, q: int):
    """F(B) g - h B; identically zero on its window when (B, g) solves h."""
    return mat_sub(mat_mul(frob_F(B, q), g), mat_mul(h, B))


# -- the circulant-like normal form ----------------------------------------------


def xtilde_matrix(F: Field, q: int, n: int, a_coeffs):
    """The matrix with entries phi^{i-1}(a_{j-i}) on and above the diagonal
    and pi phi^{i-1}(a_{n+j-i}) below it (1-based), from series a_0..a_{n-1}."""
    if len(a_coeffs) != n:
        raise MatrixShapeError(f"{len(a_coeffs)} coefficient series for an {n} x {n} matrix")
    out = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        e = F.frob_exp(q, i - 1)
        for j in range(1, n + 1):
            if j >= i:
                out[i - 1][j - 1] = a_coeffs[j - i].frob(e)
            else:
                out[i - 1][j - 1] = a_coeffs[n + j - i].frob(e).shift(1)
    return out


def xtilde_form(A, q: int, Fq: Field):
    """(cand, ok): the candidate coefficients (a_0, ..., a_{n-1}), read off
    the first row of A, and per series whether A has the twisted circulant
    shape of cand and det(A) is a nonzero series with every coefficient in
    F_q."""
    n = len(A)
    cand = tuple(A[0])
    F = cand[0].F
    pattern = xtilde_matrix(F, q, n, cand)
    ok = np.logical_and.reduce(
        [x.equals(y) for rx, ry in zip(A, pattern) for x, y in zip(rx, ry)]
    )
    det = mat_det_series(A)
    in_Fq = np.zeros(F.order, dtype=bool)
    in_Fq[F.embed_table(Fq)] = True
    # entries outside a window are zero, which lies in F_q
    return cand, ok & ~det.is_zero() & in_Fq[det.c].all(axis=0)


# Above n * v + j for any window a suite can hold, far below int64 overflow.
_VANISHED = 1 << 40


def det_valuation(a_coeffs):
    """Valuation of det(xtilde_matrix(a)): min over j of n*v_j + j, over the
    series that do not vanish on their windows, per series index.

    The n! expansion is dominated by the n cyclic permutations; their
    normalized valuations n*v_j + j are distinct mod n, so the minimum is
    attained exactly once and never cancels.
    """
    n = len(a_coeffs)
    # a vanishing series has v == prec; the offset puts its term past all others
    terms = (n * s.v + j + _VANISHED * s.is_zero() for j, s in enumerate(a_coeffs))
    out = reduce(np.minimum, terms)
    if np.any(out >= _VANISHED):
        raise AllZeroError("all coefficient series vanish on their windows")
    return out
