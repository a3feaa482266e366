"""Truncated-polynomial matrix models for the twisted rings.

A ring element with coefficients (a_0, ..., a_{n(h-1)}) over A embeds into
n x n matrices over A[pi]/(pi^h) via

    iota(a) = sum_j  diag(a_j, a_j^q, ..., a_j^(q^(n-1))) * W^j,

where W is the n x n matrix with ones on the superdiagonal and pi in the
lower-left corner (so W^n = pi * I).  Entries above the diagonal are only
well defined modulo pi^(h-1) and entries below the diagonal are divisible
by pi; both normalizations are applied after every operation.

The same machinery computes reduced norms: for the unipotent groups the
determinant of the h = 2 image is 1 + N(a) pi, and for the mirror family G
the embedding at level k >= 1 into matrices over A[pi]/(pi^(2k+2)) gives the
norm as the pi^(2k+1) coefficient of the determinant.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import MatrixShapeError, UnsupportedParametersError
from .ffield import Field, digits_index, field, grid_chunks, index_digits, splitting_params
from .twistring import TwistedRing, twisted_ring

# -- matrices over A[pi]/(pi^h) on batches of points ----------------------------
# A batch is an (L, N) array whose columns are ring elements.  A matrix entry
# of a batch is a list of h coefficient arrays, with None for a coefficient
# that is zero by the shape of the embedding, so no work is spent on it.


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def _batch_tp_add(F: Field, a, b):
    return [y if x is None else x if y is None else F.add(x, y) for x, y in zip(a, b)]


def _batch_tp_mul(F: Field, a, b):
    h = len(a)
    out = [None] * h
    for i, ai in enumerate(a):
        if ai is None:
            continue
        for j in range(h - i):
            if b[j] is not None:
                t = F.mul(ai, b[j])
                out[i + j] = t if out[i + j] is None else F.add(out[i + j], t)
    return out


def iota_prime_batch(ring: TwistedRing, g):
    """The matrix images iota(g) of the columns of g: entries above the
    diagonal are reduced mod pi^(h-1), and entries below it carry a factor
    pi, so their constant coefficient is None."""
    F = ring.coeff_field
    n, h, q, L = ring.n, ring.h, ring.q, ring.length
    rows = []
    for i in range(n):
        fr = F.frob_table(F.frob_exp(q, i))
        row = []
        for j in range(n):
            below = int(i > j)  # entries below the diagonal carry a factor pi
            r = j - i + n * below
            cs = [None] * h
            for jp in range(h - below):
                if n * jp + r >= L:
                    break
                cs[jp + below] = fr[g[n * jp + r]]
            if i < j:
                cs[h - 1] = None  # defined only modulo pi^(h-1)
            row.append(cs)
        rows.append(row)
    return rows


def mat_det_batch(F: Field, A):
    """The determinants of a batch of matrices from iota_prime_batch, by
    signed permutation expansion (n <= 4)."""
    n = len(A)
    if n > 4:
        raise UnsupportedParametersError("determinant expansion limited to n <= 4")
    total = [None] * len(A[0][0])
    for perm in permutations(range(n)):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = _batch_tp_mul(F, term, A[i][perm[i]])
        if _perm_sign(perm) < 0:
            term = [None if c is None else F.neg(c) for c in term]
        total = _batch_tp_add(F, total, term)
    return total


def in_Xh_batch(ring: TwistedRing, g) -> np.ndarray:
    """Membership in X_h on a batch: one boolean per column of g, true when
    every coefficient of det(iota(g)) lies in F_q."""
    F = ring.coeff_field
    frq = F.frob_table(ring.q)
    ok = np.ones(g.shape[1], dtype=bool)
    for c in mat_det_batch(F, iota_prime_batch(ring, g)):
        if c is not None:
            ok &= frq[c] == c
    return ok


def in_Xh(ring: TwistedRing, g) -> bool:
    """Membership in X_h of the one ring element g (a coefficient sequence):
    in_Xh_batch on a one-column batch."""
    return bool(in_Xh_batch(ring, np.array(g, dtype=np.int64)[:, None])[0])


def unipotent_chunks(ring: TwistedRing, free=None):
    """The unipotent elements 1 + a_1 tau + ... over the coefficient field,
    as (L, N) batches in grid_chunks order.  Only the coefficients a_j with
    j in free (all of them when free is None) run over the grid; the others
    stay 0."""
    L = ring.length
    rows = np.arange(1, L) if free is None else free
    for x in grid_chunks(ring.coeff_field.order, len(rows)):
        g = np.zeros((L, x.shape[1]), dtype=np.int64)
        g[0] = 1
        g[rows] = x
        yield g


def xh_points(n: int, q: int, h: int, s: int, free=None):
    """Check the parameters, then return an iterator over (L, N) batches of
    the points of X_h over F_{q^{n s}} on the grid of unipotent_chunks(ring,
    free), in grid order."""
    p, e = splitting_params(q)
    ring = twisted_ring(n, q, h, field(p, e * n * s))
    return (g[:, in_Xh_batch(ring, g)] for g in unipotent_chunks(ring, free))


def xh_point_count(n: int, q: int, h: int, s: int = 1):
    """|X_h(F_{q^{n s}})|, by direct enumeration."""
    return sum(g.shape[1] for g in xh_points(n, q, h, s))


def n2_norm_batch(ring: TwistedRing, tails) -> np.ndarray:
    """N(a_1, ..., a_n), the pi-coefficient of det of the image of
    1 + a_1 tau + ... + a_n tau^n in the h = 2 ring, on a batch: tails is
    an (n, N) array whose columns are (a_1, ..., a_n).  Returns indices in
    the coefficient field (not retracted)."""
    if ring.h != 2:
        raise UnsupportedParametersError(f"the norm is read off at h = 2, not {ring.h}")
    g = np.concatenate([np.ones((1, tails.shape[1]), dtype=np.int64), tails])
    return mat_det_batch(ring.coeff_field, iota_prime_batch(ring, g))[1]


def y_h_image(n: int, q: int, h: int, s: int) -> np.ndarray:
    """The finite set {F_{q^n}(g) g^{-1} : g in X_h(F_{q^{n s}})}, as the
    (L, K) int64 array of its distinct points in lexicographic column order.

    X_h is a Lang preimage of a closed subscheme Y_h, but Y_h has no simple
    general closed form; this builds it per extension degree as an explicit
    point set, folding the Lang images of the xh_points batches into their
    grid indices; these stay below Q^L, at most the square of the grid
    size, so they fit in int64.
    """
    p, e = splitting_params(q)
    ring = twisted_ring(n, q, h, field(p, e * n * s))
    Q = ring.coeff_field.order
    keys = set()
    for g in xh_points(n, q, h, s):
        keys.update(digits_index(ring.lang_batch(g, n), Q).tolist())
    return index_digits(np.array(sorted(keys), dtype=np.int64), Q, ring.length)


def star_action_batch(ring: TwistedRing, gamma, x) -> np.ndarray:
    """Left action of truncated-polynomial units on ring elements, on a
    batch: column c of gamma (h coefficients over A, gamma[0] != 0) acts on
    column c of x (an (L, N) batch) by left multiplication of iota(x) with
    the diagonal lift diag(gamma, gamma^q, ...).  The image is read off the
    product's first row, and the product must be iota of that image."""
    F = ring.coeff_field
    n, h, q, L = ring.n, ring.h, ring.q, ring.length
    rows = []
    for i, row in enumerate(iota_prime_batch(ring, x)):
        fr = F.frob_table(F.frob_exp(q, i))
        gi = [fr[c] for c in gamma]
        rows.append([_batch_tp_mul(F, gi, entry) for entry in row])
    # row 0 holds a_(n jp + j) at (0, j), coefficient jp; every such index
    # is below L
    out = np.zeros((L, x.shape[1]), dtype=np.int64)
    for j, entry in enumerate(rows[0]):
        for jp, c in enumerate(entry[: h - (j > 0)]):
            if c is not None:
                out[n * jp + j] = c
    zero = np.zeros(x.shape[1], dtype=np.int64)
    for i, (got, want) in enumerate(zip(rows, iota_prime_batch(ring, out))):
        for j, (a, b) in enumerate(zip(got, want)):
            # entries above the diagonal are defined only modulo pi^(h-1)
            for c in range(h - (i < j)):
                ac, bc = (zero if e[c] is None else e[c] for e in (a, b))
                if not np.array_equal(ac, bc):
                    raise MatrixShapeError("star action left the embedded image")
    return out


# -- the mirror family: reduced norm for G^{n,q} ------------------------------


def nm_gnq_batch(n: int, q: int, F: Field, a) -> np.ndarray:
    """The reduced norm G^{n,q}(A) -> F_q, through the level-1 matrix
    embedding, on a batch: a is an (n, N) array whose columns are
    (a_1, ..., a_n).  Returns indices in F.

    Entry (i, c) of the level-1 image over A[pi]/(pi^4) is
    1 + a_n^(q^i) pi^3 on the diagonal; off it, with j = c - i mod n, it is
    a_j^(q^i) pi, times one more pi below the diagonal, where W^j wraps
    around.
    """
    N = a.shape[1]
    rows = []
    for i in range(n):
        fr = F.frob_table(F.frob_exp(q, i))
        row = []
        for c in range(n):
            cs = [None] * 4
            if c == i:
                cs[0] = np.ones(N, dtype=np.int64)
                cs[3] = fr[a[n - 1]]
            else:
                cs[1 + int(c < i)] = fr[a[(c - i) % n - 1]]
            row.append(cs)
        rows.append(row)
    d = mat_det_batch(F, rows)
    if np.any(d[0] != 1) or any(c is not None and c.any() for c in d[1:3]):
        raise MatrixShapeError("norm shape violated")
    return np.zeros(N, dtype=np.int64) if d[3] is None else d[3]
