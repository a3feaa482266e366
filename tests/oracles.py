"""Scalar oracles of the batched library folds.

Each function here is the one-point-at-a-time form of a batched path in
dllab, walking the same grid in the same order; the tests compare the two on
full grids.  Nothing in the package imports this module.
"""

import itertools

from dllab.counting import x3_conditions, y3_member
from dllab.errors import MatrixShapeError, UnsupportedParametersError
from dllab.ffield import Field, field, splitting_params
from dllab.matmodel import (
    det_iota,
    in_Xh,
    mat_det,
    normalize_shape,
    tp_add,
    tp_mul,
    tp_scalar,
)
from dllab.twistring import TwistedRing, enumerate_unipotent, twisted_ring


def beta_factors(ring: TwistedRing, x):
    """(s(F_{q^2}(x)), s(x)^{-1}) for x = (a_1, a_2) and the section
    s(a_1, a_2) = 1 + a_1 tau + a_2 tau^2.  Both depend on x alone, so loops
    over h compute them once per x."""
    sx = (1, x[0], x[1], 0, 0)
    return ring.frobenius(sx, 2), ring.inv(sx)


def beta_map(ring: TwistedRing, factors, h):
    """beta(x, h) = s(F_{q^2}(x)) h s(x)^{-1}, from factors = beta_factors(ring, x)."""
    left, right = factors
    return ring.mul(ring.mul(left, h), right)


def y3_preimage(ring: TwistedRing):
    """Oracle of counting.y3_preimage_batches: the points (a_1, a_2, a_3, a_4)
    of beta^{-1}(Y_3) over the coefficient field, one tuple at a time, in
    grid order."""
    E = ring.coeff_field
    for a1, a2 in itertools.product(E.elements(), repeat=2):
        factors = beta_factors(ring, (a1, a2))
        for a3, a4 in itertools.product(E.elements(), repeat=2):
            if y3_member(ring, beta_map(ring, factors, (1, 0, 0, a3, a4))):
                yield a1, a2, a3, a4


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
    A = field(p, 2 * e * n)
    R = twisted_ring(n, q, 2, A)
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
    return ring.mul(ring.frobenius(g, s), ring.inv(g))


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
                    F.frob(aj, F.frob_exp(q, i))
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
    F = ring.coeff_field
    n, h, q = ring.n, ring.h, ring.q
    acc = None
    W = varpi_matrix(F, n, h)
    Wj = mat_identity(F, n, h)
    for j, aj in enumerate(a):
        D = tuple(
            tuple(
                tp_scalar(
                    F,
                    F.frob(aj, F.frob_exp(q, i))
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
