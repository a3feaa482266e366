"""Truncated Laurent-series matrices over F_{q^s}((pi)).

Series are finite windows c_v pi^v + ... + c_{P-1} pi^{P-1}: everything at
exponent >= P is unknown, not zero.  Precision propagates pessimistically
(min over inputs, shifted by multiplication valuations), so a coefficient
the window claims to know is always exact.

The module houses the n x n matrix group machinery around the twisted
Frobenius F(A) = varpi^{-1} A^phi varpi, where varpi has ones on the
superdiagonal and pi in the lower-left corner, and phi raises coefficients
to the q-th power: the quotient solver for F(B) g = h B, the normal form
of the circulant-like matrices with phi-twisted diagonals, and the closed
valuation law for their determinants.
"""

from __future__ import annotations

from itertools import permutations

from .errors import AllZeroError, PrecisionLossError
from .ffield import Field


class LaurentSeries:
    """A truncated Laurent series over a coefficient field of indices.

    Stored as (valuation offset v, coefficient tuple, precision P) with the
    window covering exponents [v, P).  A series that vanishes on its whole
    window is stored with an empty tuple and v == P.
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
        assert other.F is F
        prec = min(self.prec, other.prec)
        v = min(self.v, other.v, prec)
        out = [0] * (prec - v)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                j = s.v + i
                if j < prec:
                    out[j - v] = F.add(out[j - v], c)
        return LaurentSeries(F, v, out, prec)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            self.F, self.v, [self.F.neg(c) for c in self.coeffs], self.prec
        )

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        F = self.F
        assert other.F is F
        prec = min(self.v + other.prec, other.v + self.prec)
        v = self.v + other.v
        out = [0] * max(0, prec - v)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k < len(out) and b != 0:
                    out[k] = F.add(out[k], F.mul(a, b))
        return LaurentSeries(F, v, out, prec)

    def shift(self, j: int) -> "LaurentSeries":
        """Multiplication by pi^j (exact; the window shifts with it)."""
        return LaurentSeries(self.F, self.v + j, self.coeffs, self.prec + j)

    def map_coeffs(self, fn) -> "LaurentSeries":
        return LaurentSeries(self.F, self.v, [fn(c) for c in self.coeffs], self.prec)

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


# -- matrices -------------------------------------------------------------------


def mat_identity_series(F: Field, n: int, prec: int):
    return [
        [
            LaurentSeries.one(F, prec) if i == j else LaurentSeries.zero(F, prec)
            for j in range(n)
        ]
        for i in range(n)
    ]


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


def mat_prec(A) -> int:
    return min(e.prec for row in A for e in row)


def mat_det_series(A) -> LaurentSeries:
    """Determinant by the n! alternating sum (desk scale, n <= 4)."""
    n = len(A)
    F = A[0][0].F
    total = None
    for perm in permutations(range(n)):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        if inv % 2:
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
    if mat_prec(A) < 2:
        raise PrecisionLossError("frob_F needs precision >= 2")

    def phi(s: LaurentSeries) -> LaurentSeries:
        return s.map_coeffs(lambda c: s.F.frob(c, q))

    prec = mat_prec(A) - 1
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        out[0][j] = (
            phi(A[n - 1][n - 1]) if j == 0 else phi(A[n - 1][j - 1]).shift(-1)
        ).truncate(prec)
    for i in range(1, n):
        for j in range(n):
            out[i][j] = (
                phi(A[i - 1][n - 1]).shift(1) if j == 0 else phi(A[i - 1][j - 1])
            ).truncate(prec)
    return out


def varpi_series(F: Field, n: int, prec: int):
    """The uniformizing matrix: ones on the superdiagonal, pi lower-left."""
    out = [[LaurentSeries.zero(F, prec) for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        out[i][i + 1] = LaurentSeries.one(F, prec)
    out[n - 1][0] = LaurentSeries.pi_power(F, 1, prec)
    return out


# -- the quotient solver ---------------------------------------------------------


def _inv_phi(F: Field, q: int):
    """Coefficientwise inverse Frobenius: x -> x^(|F|/q), exact on F."""
    e = F.order // q
    return lambda c: F.frob(c, e)


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
    inv = _inv_phi(F, q)
    B = mat_identity_series(F, n, prec)
    g = mat_identity_series(F, n, prec)

    def hB_entry(i, j):
        # h upper unipotent, B upper unipotent: only k in [i, j] contributes
        return _sum_series(h[i - 1][k - 1] * B[k - 1][j - 1] for k in range(i, j + 1))

    for i, j in solver_positions(n, order):
        val = hB_entry(i, j)
        if i == 1:
            g[0][j - 1] = val
        else:
            B[i - 2][j - 2] = val.map_coeffs(inv)
    return B, g


def quotient_residual(h, B, g, q: int):
    """F(B) g - h B; identically zero on its window when (B, g) solves h."""
    return mat_sub(mat_mul(frob_F(B, q), g), mat_mul(h, B))


# -- the circulant-like normal form ----------------------------------------------


def xtilde_matrix(F: Field, q: int, n: int, a_coeffs):
    """The matrix with entries phi^{i-1}(a_{j-i}) on and above the diagonal
    and pi phi^{i-1}(a_{n+j-i}) below it (1-based), from series a_0..a_{n-1}."""
    assert len(a_coeffs) == n

    def phi_pow(s: LaurentSeries, k: int) -> LaurentSeries:
        e = s.F.frob_exp(q, k)
        return s.map_coeffs(lambda c: s.F.frob(c, e))

    out = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j >= i:
                out[i - 1][j - 1] = phi_pow(a_coeffs[j - i], i - 1)
            else:
                out[i - 1][j - 1] = phi_pow(a_coeffs[n + j - i], i - 1).shift(1)
    return out


def xtilde_form(A, q: int, Fq: Field):
    """Coefficients (a_0, ..., a_{n-1}) when A has the twisted circulant
    shape and det(A) is a nonzero series with all coefficients in F_q;
    None otherwise."""
    n = len(A)
    cand = tuple(A[0][j] for j in range(n))
    if A != xtilde_matrix(A[0][0].F, q, n, cand):
        return None
    det = mat_det_series(A)
    if det.is_zero():
        return None
    F = det.F
    if not all(F.in_subfield(Fq, c) for c in det.coeffs):
        return None
    return cand


def det_valuation(a_coeffs) -> int:
    """Valuation of det(xtilde_matrix(a)): min over j of n*v_j + j.

    The n! expansion is dominated by the n cyclic permutations; their
    normalized valuations n*v_j + j are distinct mod n, so the minimum is
    attained exactly once and never cancels.
    """
    vals = []
    for j, s in enumerate(a_coeffs):
        if s.is_zero():
            continue
        vals.append(len(a_coeffs) * s.valuation() + j)
    if not vals:
        raise AllZeroError("all coefficient series vanish on their windows")
    return min(vals)
