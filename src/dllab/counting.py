"""Twisted fixed-point counts and exact exponential sums.

Point sets are cut out by explicit polynomial conditions over small finite
fields; characters contribute integer root exponents; results are exact
elements of Q(zeta_p).  Every exponential sum is exp_sum over a SumSpec
whose points come as (dim, N) index batches: the psi-Tr table of its map is
counted with np.bincount and the counts reduced by cyclo_from_counts.
Every enumeration walks its grid in itertools.product order, the order of
ffield.grid_chunks.  Point sets and tables are int64 arrays: the
zeta-fixed locus is one (L, N) array of points, taken from
matmodel.xh_points, and the twist table one count array indexed by the
digits of its keys.

The twisted equations are of Artin-Schreier type, so all solutions over the
algebraic closure already live in F_{q^(n p)}; the enumeration domain
reflects that.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .charlib import AddChar
from .cyclo import CycloNum, assert_nonneg_integer, cyclo_from_counts, reduce_counts
from .errors import (
    CharacterMismatchError,
    IdentityFailsError,
    MixedOrderError,
    UnsupportedParametersError,
)
from .ffield import GRID_CHUNK, Field, field, grid_chunks, index_digits, splitting_params
from .twistring import TwistedRing, twisted_ring


# -- generic exponential sums --------------------------------------------------


@dataclass(frozen=True)
class SumSpec:
    """A point set S inside affine space over a base field, with a map
    P: S -> A^1.

    points(E) yields the points of S(E) as (dim, N) index batches in grid
    order, and poly(E, x) maps such a batch to one E-index per column; both
    receive the working extension field E, so the same spec serves every
    extension degree.
    """

    base: Field
    points: Callable
    poly: Callable


def exp_sum(spec: SumSpec, psi: AddChar, s: int) -> CycloNum:
    """sum over x in S(F_{base^s}) of psi(Tr_{F_{base^s}/F_base}(P(x))):
    the psi-Tr table over P of each batch, counted by np.bincount."""
    base = spec.base
    if psi.F is not base:
        raise UnsupportedParametersError("psi must live on the base field of the spec")
    E = field(base.p, base.k * s)
    psie = psi.table[E.trace_table(base)]
    counts = np.zeros(E.p, dtype=np.int64)
    for x in spec.points(E):
        counts += np.bincount(psie[spec.poly(E, x)], minlength=E.p)
    return cyclo_from_counts(E.p, counts)


def _widen(batches, width: int):
    """The columns of batches in slices small enough that expanding each
    column width times stays within GRID_CHUNK columns."""
    step = max(1, GRID_CHUNK // width)
    for cols in batches:
        for s in range(0, cols.shape[1], step):
            yield cols[:, s : s + step]


def conductor2_char(q: int) -> AddChar:
    """A fixed additive character of F_{q^2} of conductor q^2: psi_a with a
    the field generator (which never lies in F_q)."""
    p, e = splitting_params(q)
    base = field(p, 2 * e)
    psi = AddChar(base, q, base.gen)
    if psi.conductor_power() != 2:
        raise CharacterMismatchError("psi of the generator has conductor below q^2")
    return psi


# -- the inductive reduction ---------------------------------------------------


def inductive_spec(s2: SumSpec, f, j: int, n: int, q: int):
    """S = S2 x A^1 with P(x, y) = f(x)^{q^j} y - f(x)^{q^n} y^{q^{n-j}} + P2(x),
    and the fibre locus S3 = {x in S2 : f(x) = 0} with P3 = P2, where P2 is
    s2.poly and f(E, x) gives one E-index per column of a batch x."""

    def s_points(E):
        # each point of S2 against all of A^1, y fastest
        y = np.arange(E.order, dtype=np.int64)
        for x in _widen(s2.points(E), E.order):
            yield np.concatenate([np.repeat(x, E.order, axis=1), np.tile(y, (1, x.shape[1]))])

    def s_poly(E, x):
        y, fx = x[-1], f(E, x[:-1])
        t = E.sub(
            E.mul(E.frob_table(q**j)[fx], y),
            E.mul(E.frob_table(q**n)[fx], E.frob_table(q ** (n - j))[y]),
        )
        return E.add(t, s2.poly(E, x[:-1]))

    def s3_points(E):
        for x in s2.points(E):
            yield x[:, f(E, x) == 0]

    return SumSpec(s2.base, s_points, s_poly), SumSpec(s2.base, s3_points, s2.poly)


def inductive_check(s2: SumSpec, f, j: int, n: int, q: int, psi: AddChar, sums: dict) -> dict:
    """Check sums[s] = (q^n)^s * exp_sum(S3, P3, psi, s) for every s in sums,
    where sums[s] is exp_sum(S, P, psi, s) over the big spec of
    inductive_spec(s2, f, j, n, q), computed by the caller once.

    The factor is the Tate-twist scalar of the degree-shift isomorphism; the
    identity requires the conductor exponent of psi not to divide j.
    """
    m = psi.conductor_power()
    if j % m == 0:
        raise UnsupportedParametersError("conductor exponent must not divide j")
    _, fibre = inductive_spec(s2, f, j, n, q)
    report = {"checks": []}
    for s, lhs in sums.items():
        rhs = exp_sum(fibre, psi, s) * (q**n) ** s
        if lhs != rhs:
            raise IdentityFailsError(f"s={s}: {lhs} != {rhs}")
        report["checks"].append({"s": s, "value": repr(lhs)})
    return report


def intertwiner_s2_data(q: int):
    """The (S2, f, j, n) tuple whose inductive completion is the intertwiner
    surface: S2 in A^2 over F_{q^2} is cut out by the Artin-Schreier equation

        a_2^{q^2} - a_2 = a_1^{q+q^2} - a_1^{1+q},

    P2(a_1, a_2) = a_2^{1+q} - a_2^{q+q^2}, f = a_1, j = 1 and n = 2."""
    p, e = splitting_params(q)

    def points(E):
        frq, frq2 = E.frob_table(q), E.frob_table(q * q)
        for x in grid_chunks(E.order, 2):
            a1, a2 = x
            rhs = E.sub(E.mul(frq[a1], frq2[a1]), E.mul(a1, frq[a1]))
            yield x[:, E.sub(frq2[a2], a2) == rhs]

    def p2(E, x):
        frq = E.frob_table(q)[x[1]]
        return E.sub(E.mul(x[1], frq), E.mul(frq, E.frob_table(q * q)[x[1]]))

    return SumSpec(field(p, 2 * e), points, p2), (lambda E, x: x[0]), 1, 2


def intertwiner_surface(q: int) -> SumSpec:
    """The surface S in A^3 over F_{q^2} cut out by S2's equation in
    (a_1, a_2), with P(a_1, a_2, a_3) = a_1^q a_3 - a_1^{q^2} a_3^q
    + a_2^{1+q} - a_2^{q+q^2}: the inductive completion of S2."""
    return inductive_spec(*intertwiner_s2_data(q), q)[0]


# -- the Lang-quotient sum over beta^{-1}(Y_3) ---------------------------------


def y3_member(ring: TwistedRing, b) -> np.ndarray:
    """Membership in Y_3 = {b_2 = 0, b_4 = -b_3 b_1^q} inside U^{2,q}_3, on
    a batch: one boolean per column of the (5, N) array b."""
    F = ring.coeff_field
    return (b[2] == 0) & (b[4] == F.neg(F.mul(b[3], F.frob_table(ring.q)[b[1]])))


def y3_preimage_batches(ring: TwistedRing):
    """The points (a_1, a_2, a_3, a_4) over the coefficient field of the pairs
    (x, h) = ((a_1, a_2), 1 + a_3 tau^3 + a_4 tau^4) in beta^{-1}(Y_3), as
    (4, N) batches in grid order; beta(x, h) = s(F_{q^2}(x)) h s(x)^{-1}
    with s(a_1, a_2) = 1 + a_1 tau + a_2 tau^2.  h leaves the coefficients
    b_0, b_1, b_2 of beta alone, so the pairs x are filtered on b_2 = 0 first;
    then, for each surviving pair, (a_3, a_4) runs over its grid, GRID_CHUNK
    columns at a time."""
    Q = ring.coeff_field.order
    grid = index_digits(np.arange(Q * Q), Q, 2)
    one, zero = np.ones_like(grid[:1]), np.zeros_like(grid)
    sx = np.concatenate([one, grid, zero])
    h = np.concatenate([one, zero, grid])
    left, right = ring.frobenius_batch(sx, 2), ring.inv_batch(sx)
    for x in np.flatnonzero(ring.mul_batch(left, right)[2] == 0):
        # the pair's factors broadcast against a chunk of h, so no per-column
        # copies of them are made
        for start in range(0, Q * Q, GRID_CHUNK):
            hs = h[:, start : start + GRID_CHUNK]
            b = ring.mul_batch(ring.mul_batch(left[:, [x]], hs), right[:, [x]])
            tails = hs[3:, y3_member(ring, b)]
            yield np.concatenate([np.repeat(grid[:, [x]], tails.shape[1], axis=1), tails])


def dl_intertwiner_sum(q: int, s: int) -> CycloNum:
    """sum of psi(Tr(a_4)) over beta^{-1}(Y_3)(F_{q^{2s}}), with psi the
    conductor-q^2 character: the quotient-side form of the intertwiner sum."""
    psi = conductor2_char(q)

    def points(E):
        return y3_preimage_batches(twisted_ring(2, q, 3, E))

    return exp_sum(SumSpec(psi.F, points, lambda E, x: x[3]), psi, s)


def y3_locus_equality(q: int, s: int = 2) -> bool:
    """Exhaustive check over F_{q^{2s}} that beta^{-1}(Y_3) coincides with
    the two-equation chart: the base surface plus the explicit a_4 value,
    point for point and in the same order."""
    spec = intertwiner_surface(q)
    ring = twisted_ring(2, q, 3, field(spec.base.p, spec.base.k * s))
    E = ring.coeff_field
    chart = [np.concatenate([x, spec.poly(E, x)[None]]) for x in spec.points(E)]
    walk = list(y3_preimage_batches(ring))
    return np.array_equal(np.concatenate(walk, axis=1), np.concatenate(chart, axis=1))


# -- the eigenspace kernel (n = 2, h = 3) --------------------------------------


def x3_conditions_batch(F: Field, q: int, x) -> np.ndarray:
    """The two coordinate equations of X_3 at n = 2 on a batch x whose
    columns are 1 + a_1 tau + ... + a_4 tau^4 (row 0 is not read):
    a_2^q + a_2 - a_1^(q+1) and a_4^q + a_4 + a_2^(q+1) - a_1 a_3^q - a_3 a_1^q
    both lie in F_q.  One boolean per column; an element lies in F_q when
    the q-power map fixes it."""
    frq = F.frob_table(q)
    _, a1, a2, a3, a4 = x
    c1 = F.sub(F.add(frq[a2], a2), F.mul(a1, frq[a1]))
    c2 = F.add(F.add(frq[a4], a4), F.mul(a2, frq[a2]))
    c2 = F.sub(F.sub(c2, F.mul(a1, frq[a3])), F.mul(a3, frq[a1]))
    return (frq[c1] == c1) & (frq[c2] == c2)


def _as_fibres(E: Field, q2: int, kernel):
    """The Artin-Schreier fibres x^{q^2} - x = c over E.  The map is
    additive with kernel F_{q^2}, given as E-indices in kernel, so the fibre
    over the value at x is x + kernel.  The fibres form one (|E|, q^2) table
    and a mask of the c that have one; every x of a fibre writes the same
    set into its row."""
    idx = np.arange(E.order, dtype=np.int64)
    vals = E.sub(E.frob_table(q2), idx)
    fib = np.zeros((E.order, q2), dtype=np.int64)
    fib[vals] = E.add(idx[:, None], kernel)
    has = np.zeros(E.order, dtype=bool)
    has[vals] = True
    return fib, has


def twist_counts(q: int, t) -> np.ndarray:
    """The counts of x3_twist_table at the key indices t (a 1-D int array):
    key index t has the base-q^2 digits (d, g3, g2, lam), lam least
    significant, so the table is the counts at every t, reshaped.

    Candidates are generated from the componentwise equations, GRID_CHUNK
    columns at a time: a_1 runs over F_{q^2}, a_2 over its Artin-Schreier
    fibre, then a_3 and a_4 over theirs; each fibre holds q^2 points or
    none.  The candidates are filtered by the equations of X_3, then
    re-verified against the twisted equation itself via the ring
    multiplication, so a transcription error in the component form could
    only lose solutions, never admit wrong ones; completeness is certified
    against the brute-force count in the tests.
    """
    p, e = splitting_params(q)
    q2 = q * q
    E = field(p, 2 * e * p)
    F2 = field(p, 2 * e)
    frq, frq2 = E.frob_table(q), E.frob_table(q2)
    ring = twisted_ring(2, q, 3, E)
    rational = E.embed_table(F2)  # F_{q^2} in E
    fib, has = _as_fibres(E, q2, rational)
    nkeys = F2.order**4
    # key[:, t] is (lam, g2, g3, d) in E
    key = rational[index_digits(np.arange(nkeys), F2.order, 4)[::-1]]

    def with_a1(t):
        # rows t, a1, c3: the keys t with a nonempty a_2-fibre, each with
        # every a1 in F_{q^2} whose a_3-fibre is nonempty
        lam, g2, _, _ = key[:, t]
        t = np.repeat(t[has[E.sub(g2, lam)]], q2)
        a1 = np.resize(rational, len(t))
        lam, g2, g3, _ = key[:, t]
        c3 = E.add(E.sub(E.mul(frq[g2], a1), E.mul(lam, a1)), g3)
        keep = has[c3]
        return np.stack([t[keep], a1[keep], c3[keep]])

    def with_a2(cols):
        # rows t, a1, c3, a2, c4: each a2 in the fibre over g2 - lam, kept
        # when c1 lies in F_q and the a_4-fibre over c4 is nonempty
        lam, g2, _, _ = key[:, cols[0]]
        a2 = fib[E.sub(g2, lam)].ravel()
        t, a1, c3 = np.repeat(cols, q2, axis=1)
        lam, g2, g3, d = key[:, t]
        c1 = E.sub(E.add(frq[a2], a2), E.mul(a1, frq[a1]))
        c4 = E.add(E.add(d, E.mul(a2, g2)), E.mul(a1, frq[g3]))
        c4 = E.sub(c4, E.mul(lam, frq2[a2]))
        keep = (frq[c1] == c1) & has[c4]
        return np.stack([t[keep], a1[keep], c3[keep], a2[keep], c4[keep]])

    def solutions(cols):
        # the key index of each solution with a3 in the fibre over c3 and
        # a4 in the fibre over c4
        t, a1, c3, a2, c4 = cols
        at = np.repeat(np.arange(len(t)), q2 * q2)
        a3 = np.repeat(fib[c3], q2, axis=1).ravel()
        a4 = np.tile(fib[c4], q2).ravel()
        keep = x3_conditions_batch(E, q, (None, a1[at], a2[at], a3, a4))
        at = at[keep]
        x = np.stack([np.ones_like(at), a1[at], a2[at], a3[keep], a4[keep]])
        t = t[at]
        lam, g2, g3, d = key[:, t]
        one, zero = x[0], np.zeros_like(t)
        _, y1, y2, y3, y4 = ring.frobenius_batch(x, 2)
        star = np.stack(  # (1 + lam pi) * y, the mu = 0 slice
            [one, y1, E.add(lam, y2), E.add(y3, E.mul(lam, y1)), E.add(y4, E.mul(lam, y2))]
        )
        ok = np.ones(len(t), dtype=bool)
        for a, b in zip(star, ring.mul_batch(x, np.stack([one, zero, g2, g3, d]))):
            ok &= a == b
        return t[ok]

    t = np.asarray(t, dtype=np.int64)
    counts = np.zeros(nkeys, dtype=np.int64)
    keys = (with_a1(c[0]) for c in _widen([t[None]], q2))
    for cols in _widen((with_a2(c) for c in _widen(keys, q2)), q2 * q2):
        counts += np.bincount(solutions(cols), minlength=nkeys)
    return counts[t]


def x3_twist_table(q: int) -> np.ndarray:
    """N(gamma, g) for the (n, h) = (2, 3) star-twisted count, tabulated on
    the invariants it actually depends on.

    gamma = 1 + lam pi + mu pi^2 and g = 1 + g2 tau^2 + g3 tau^3 + g4 tau^4
    enter the defining equations only through (lam, g2, g3, g4 - mu): mu and
    g4 both act on the tau^4 component alone.  The table is the (Q2,)^4
    int64 count array over those quadruples in F_{q^2}, indexed
    [g4 - mu, g3, g2, lam]: twist_counts over every key index.  The counts
    are of solutions over F_{q^{2p}}, where every Artin-Schreier fibre of
    the system saturates.
    """
    p, e = splitting_params(q)
    Q2 = field(p, 2 * e).order
    return twist_counts(q, np.arange(Q2**4, dtype=np.int64)).reshape((Q2,) * 4)


def eigendims(chars, table: np.ndarray, q: int) -> np.ndarray:
    """dim of the (chi1, chi2-sharp) eigenspace of the level-3 surface in
    its only nonvanishing degree, for every pair of chars: entry (i, j) is

        q^{-12} sum_{gamma, g} chi1(gamma)^{-1} chi2_sharp(g) N(gamma, g)

    for chi1, chi2 = chars[i], chars[j], with the Frobenius scalar q^2
    hypothesis supplied by the intertwiner sum.  The chars are characters
    of the principal units (1, lam, mu) over F_{q^2}; chi2_sharp ignores the
    tau^3 coordinate of g, so table is x3_twist_table(q).sum(axis=1), the
    (Q2,)^3 count array indexed [g4 - mu, g2, lam].

    Each character's exponents are read once over the (entry, mu) rows of
    the table's nonzero entries; each pair's sum is an integer count vector
    over the roots, and all of them are reduced mod Phi_R in one call.
    """
    R = chars[0].R
    for chi in chars:
        if chi.R != R:
            raise MixedOrderError(f"characters with root orders {R} and {chi.R}")
    p, e = splitting_params(q)
    F2 = field(p, 2 * e)
    Q2, C = F2.order, len(chars)
    d, g2, lam = np.repeat(np.nonzero(table), Q2, axis=1)
    mu = np.tile(np.arange(Q2, dtype=np.int64), len(d) // Q2)
    cnt = table[d, g2, lam]
    # the units (1, b1, b2) come in product order, at the indices b1 Q2 + b2
    exps = np.stack([chi.table for chi in chars]).reshape(C, Q2, Q2)
    e1 = exps[:, lam, mu]  # chi1(1, lam, mu) per (entry, mu) row
    e2 = exps[:, g2, F2.add(d, mu)]  # chi2(1, g2, d + mu)
    counts = np.zeros((C, C * R), dtype=np.int64)
    slot = R * np.arange(C, dtype=np.int64)[:, None]
    weights = np.tile(cnt, C)
    for c in range(C):
        np.add.at(counts[c], (slot + (e2 - e1[c]) % R).ravel(), weights)
    scale = q**12
    dims = []
    for row in reduce_counts(R, counts.reshape(C * C, R)).tolist():
        if row[0] < 0 or row[0] % scale or any(row[1:]):
            assert_nonneg_integer(CycloNum(R, row) / scale)
        dims.append(row[0] // scale)
    return np.array(dims, dtype=np.int64).reshape(C, C)


def npp_identity(q: int) -> bool:
    """The pair-count identity behind the eigenspace collapse: for every
    lam in F_{q^2} and delta in Ker(Tr to F_q),

        #{(a_1, beta) : a_1^{q+1}(lam^q - lam) + beta a_1^q - beta^q a_1 = delta}

    equals q^2 + (q^2-1) q when delta = 0 and (q^2-1) q otherwise.  For
    each lam the left side runs over the (beta, a_1) grid as one batch and
    is counted per delta with np.bincount."""
    p, e = splitting_params(q)
    F2 = field(p, 2 * e)
    q2 = q * q
    frq = F2.frob_table(q)
    beta, a1 = index_digits(np.arange(q2 * q2, dtype=np.int64), q2, 2)
    twist = F2.sub(F2.mul(beta, frq[a1]), F2.mul(frq[beta], a1))
    norm = F2.mul(a1, frq[a1])
    kernel = F2.trace_table(field(p, e)) == 0
    want = (q2 - 1) * q + q2 * (np.arange(q2) == 0)
    for lam in range(q2):
        lhs = F2.add(F2.mul(norm, F2.sub(frq[lam], lam)), twist)
        if (np.bincount(lhs, minlength=q2) != want)[kernel].any():
            return False
    return True


# -- fixed-point suites for the constant-conjugation traces --------------------


def zeta_fixed_set(n: int, q: int, h: int):
    """Points of X_h(F_{q^(n p)}) fixed by conjugation with the
    Teichmueller generator of F_{q^n}^x, as an (L, N) int64 array in grid
    order, with the ring and its coefficient field."""
    from .matmodel import xh_points

    p, e = splitting_params(q)
    ring = twisted_ring(n, q, h, field(p, e * n * p))
    E = ring.coeff_field
    Fqn = field(p, e * n)
    zeta = int(E.embed_table(Fqn)[Fqn.gen])
    # conjugation by zeta scales x_j by f_j, so it fixes x exactly when
    # x_j == 0 at every j with f_j != 1
    free = np.flatnonzero(ring.scalar_conj_factors(zeta) == 1) + 1
    return np.concatenate(list(xh_points(n, q, h, p, free)), axis=1), ring, E


def zeta_trace_suite(n: int, q: int) -> dict:
    """The h = 2 character-sum identity: for every additive character psi
    of the centre F_{q^n},

        sum_z psi(z)^{-1} Fix(z | X^zeta) = q^n,

    where Fix counts fixed points of right translation by 1 + z tau^n on
    the zeta-fixed locus; the derived trace is the sign (-1)^{n + n/m}."""
    p, e = splitting_params(q)
    Fqn = field(p, e * n)
    fixed, ring, E = zeta_fixed_set(n, q, 2)
    # Fix(z) for every z at once: x is fixed by 1 + z tau^n (column z of g)
    # exactly when x g = x
    x = fixed[:, :, None]
    g = np.zeros((ring.length, 1, Fqn.order), dtype=np.int64)
    g[0], g[n] = 1, E.embed_table(Fqn)
    fix_of = (ring.mul_batch(x, g) == x).all(axis=0).sum(axis=0)
    results = []
    for a in range(Fqn.order):
        psi = AddChar(Fqn, q, a)
        exps = -psi.table % p
        counts = np.zeros(p, dtype=np.int64)
        np.add.at(counts, exps, fix_of)
        val = cyclo_from_counts(p, counts)
        ok = val == CycloNum.rational(p, q**n)
        m = psi.conductor_power()
        r = n + n // m - 2  # homological degree of the one surviving group
        scaled = val / q**n
        trace = (-1) ** r * assert_nonneg_integer(scaled) if ok else None
        results.append(
            {"a": a, "identity": ok, "trace": trace, "expected": (-1) ** (n + n // m)}
        )
    return {
        "fixed_count": fixed.shape[1],
        "expected_fixed": q**n,
        "results": results,
        "all_pass": all(r["identity"] for r in results) and fixed.shape[1] == q**n,
    }


def zeta_trace_suite_level3(q: int) -> dict:
    """The (n, h) = (2, 3) analogue: the zeta-fixed locus is a torsor under
    the principal units, so for every character chi of (1 + lam pi + mu pi^2)

        sum_gamma chi(gamma)^{-1} Fix(gamma | X_3^zeta) = q^{n(h-1)}."""
    from .charlib import principal_units, unit_characters
    from .matmodel import star_action_batch

    n, h = 2, 3
    p, e = splitting_params(q)
    Fq2 = field(p, 2 * e)
    fixed, ring, E = zeta_fixed_set(n, q, h)
    emb = E.embed_table(Fq2)
    units = principal_units(Fq2, h)
    pe = 1
    while pe < h:
        pe *= p
    R = p * pe
    target = q ** (n * (h - 1))
    all_pass = fixed.shape[1] == target
    # Fix(gamma) for every (gamma, x) in one call: gamma's columns repeat,
    # each against all the fixed points
    gammas = emb[units.decode(np.arange(len(units), dtype=np.int64))]
    N, U = fixed.shape[1], len(units)
    xs = np.tile(fixed, (1, U))
    fix_of = (star_action_batch(ring, np.repeat(gammas, N, axis=1), xs) == xs).all(axis=0)
    fix_of = fix_of.reshape(U, N).sum(axis=1)
    results = []
    for chi in unit_characters(units, R):
        exps = -chi.table % R
        counts = np.zeros(R, dtype=np.int64)
        np.add.at(counts, exps, fix_of)
        ok = cyclo_from_counts(R, counts) == CycloNum.rational(R, target)
        all_pass = all_pass and ok
        results.append(ok)
    return {
        "fixed_count": fixed.shape[1],
        "expected_fixed": target,
        "characters": len(results),
        "all_pass": all_pass,
    }


# -- point counts and the maximality probe -------------------------------------


def x_betti_data(n: int, q: int) -> list[dict]:
    """Per-central-character cohomology data of the h = 2 Lang preimage:
    for each additive character of F_{q^n} with conductor exponent m and
    n = m n_1, the one surviving degree r = n + n_1 - 2 carries a single
    irreducible of dimension d with Frobenius eigenvalue
    (-1)^(n - n_1) q^(n r / 2)."""
    from .twistring import h_m_pattern

    p, e = splitting_params(q)
    Fqn = field(p, e * n)
    out = []
    for a in range(Fqn.order):
        m = AddChar(Fqn, q, a).conductor_power()
        n1 = n // m
        r = n + n1 - 2
        free = len(h_m_pattern(n, 2, m))
        d = (q**n) ** (n - free)
        if m % 2 == 0 and n1 % 2 == 1:
            d //= q ** (n // 2)
        out.append(
            {
                "m": m,
                "degree": r,
                "dim": d,
                "eigenvalue": (-1) ** (n - n1) * q ** (n * r // 2),
            }
        )
    return out


def x_point_prediction(n: int, q: int, s: int) -> int:
    """Fixed-point prediction sum_psi (-1)^r d_psi eigenvalue_psi^s for the
    h = 2 Lang preimage over F_{q^{n s}}."""
    total = 0
    for rec in x_betti_data(n, q):
        total += (-1) ** rec["degree"] * rec["dim"] * rec["eigenvalue"] ** s
    return total


def maximality_probe(n: int, q: int, h: int, s_range=(1,)):
    """Record |X_h(F_{q^{n s}})|; for h = 2 compare with the point counts
    forced by purity and the known per-character Betti data (never asserted
    for h = 3, where the analogue is only conjectural)."""
    from .matmodel import xh_point_count

    report = {"n": n, "q": q, "h": h, "counts": []}
    for s in s_range:
        c = xh_point_count(n, q, h, s)
        entry = {"s": s, "count": c}
        if h == 2:
            entry["prediction"] = x_point_prediction(n, q, s)
            entry["matches"] = c == entry["prediction"]
        report["counts"].append(entry)
    return report
