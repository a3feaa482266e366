"""Builders for the representation-theory side of the library.

Two stages.  First, an additive character psi of F_{q^n} with conductor
exponent m determines an irreducible character rho_psi of the truncated
principal-unit group (and a mirror rho'_psi of the second unipotent family),
induced from the coordinate subgroup cut out by h_m_pattern.  Second, a
smooth character theta of the quadratic-unramified torus transfers to a
character eta_theta of the finite division-ring quotient: extend rho along
the Teichmueller generator, grade by theta(pi), induce along the index-n
valuation subgroup.

Everything is exponent-level until a value is actually compared: characters
are exponent tables over element indices, or count rows of exponents, of a
fixed root of unity zeta_R, and CycloNum arithmetic only happens at inner
products and trace comparisons.  The Mackey sums of eta-level2 stay count
rows through the whole combination over delta and j, with one reduction per
theta.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charlib import AddChar, ThetaData, layer_as_additive_char, theta_family
from .cyclo import (
    CycloNum,
    assert_nonneg_integer,
    count_rows,
    cyclo_from_counts,
    difference_counts,
    reduce_counts,
    rotate_counts,
)
from .errors import (
    CharacterMismatchError,
    NoExtensionError,
    NotInSubfieldError,
    NotInvariantError,
    OutsideSubgroupError,
    RootOrderError,
    UnsupportedParametersError,
)
from .ffield import (
    Field,
    chunked,
    digits_index,
    field,
    grid_chunks,
    index_digits,
    splitting_params,
)
from .repkit import (
    CyclicExtension,
    GroupModel,
    MonomialExtension,
    MonomialRep,
    abelian_character_extensions,
    conjugates,
    coset_transversal,
    delta_sums,
    extend_irrep,
    inner_product,
)
from .twistring import (
    TwistedRing,
    gnq_index_law,
    gnq_inv_batch,
    gnq_mul_batch,
    h_m_pattern,
    nu_prime_m,
    twisted_ring,
    unipotent_index_law,
)

MAX_N = 3
MAX_H = 3


def _require_small(n: int, h: int):
    if n > MAX_N or h > MAX_H:
        raise UnsupportedParametersError(
            f"(n, h) = ({n}, {h}) outside the verified range (n <= {MAX_N}, h <= {MAX_H})"
        )


# -- explicit group models -----------------------------------------------------


def _coordinate_generators(F: Field, width: int) -> np.ndarray:
    """The indices, in the product-order grid of width coordinates over F,
    of the points with one coordinate a basis power gen^0, ..., gen^(k-1) of
    F over its prime field and the others zero: coordinate by coordinate,
    the slowest first, then power by power."""
    return (F.order ** np.arange(width - 1, -1, -1, dtype=np.int64)[:, None] * F.exp[: F.k]).ravel()


def unipotent_group(n: int, q: int, h: int = 2):
    """Principal units of the twisted truncated ring over F_{q^n}, as an
    explicit GroupModel: element i is 1 + (the base-Q digits of i) . (tau,
    ..., tau^(L-1)), generated by the 1 + b tau^j for the basis powers b.
    Returns (group, ring), one pair per (n, q, h)."""
    return _unipotent_group(n, q, h)


@lru_cache(maxsize=None)
def _unipotent_group(n: int, q: int, h: int):
    _require_small(n, h)
    p, e = splitting_params(q)
    F = field(p, e * n)
    ring = twisted_ring(n, q, h, F)
    gens = _coordinate_generators(F, ring.length - 1)
    group = GroupModel(F.order ** (ring.length - 1), *unipotent_index_law(ring), gens)
    return group, ring


@lru_cache(maxsize=None)
def gnq_group(n: int, q: int):
    """The mirror unipotent family on coordinates (a_1, ..., a_n) over
    F_{q^n}: e_i e_j = e_n iff i + j = n, e_j a = a^(q^j) e_j.  Element i is
    the base-Q digits of i, generated by the points with one coordinate a
    basis power."""
    _require_small(n, 2)
    p, e = splitting_params(q)
    F = field(p, e * n)
    group = GroupModel(F.order**n, *gnq_index_law(F, n, q), _coordinate_generators(F, n))
    return group, F


# -- rho_psi and its mirror ------------------------------------------------------


@dataclass
class RhoData:
    """An irreducible character with prescribed central character, plus the
    inducing data and the degree bookkeeping carried as metadata."""

    psi: AddChar
    n: int
    q: int
    m: int  # conductor exponent
    n1: int  # n / m
    branch: int  # 1: induced from the pattern subgroup; 2: halved variant
    group: GroupModel
    rep: MonomialRep
    char: np.ndarray  # (|G|, R) count rows
    H: np.ndarray  # the pattern subgroup's element indices, increasing
    pattern_exp: np.ndarray  # the transferred character's exponents on H
    R: int
    degree: int
    hom_degree: int
    frob_scalar: int


def build_rho_psi(n: int, q: int, psi: AddChar, R: int = None, mirror: bool = False) -> RhoData:
    """The irreducible constituent of Ind(psi-tilde) from the pattern
    subgroup of the h = 2 principal-unit group, with central character psi.

    psi-tilde is psi_1 composed with the reduced norm of the reindexed
    (n/m, q^m) ring on the kept coordinates.  With mirror, the same
    construction runs on the second unipotent family, with the reduced norm
    computed through the level-1 matrix embedding (nm_gnq_batch)."""
    _require_small(n, 2)
    p, e = splitting_params(q)
    F = field(p, e * n)
    if psi.F is not F:
        raise UnsupportedParametersError("psi must live on F_{q^n}")
    m = psi.conductor_power()
    n1 = n // m
    psi1 = psi.factor_through_trace(m)
    if R is None:
        R = p * p
    if R % p:
        raise RootOrderError(f"root order {R} is not divisible by p = {p}")
    pat = _pattern_data(n, q, m, mirror)
    # the transferred character on the pattern subgroup: psi_1 of the norms
    norms = F.retract_table(field(p, e * m))[pat.norms]
    if (norms < 0).any():
        raise NotInSubfieldError(f"a reduced norm does not lie in F_{q**m}")
    exps = (psi1.table[norms] * (R // p)) % R
    # the character of the inducing subgroup: the transferred one itself, or
    # on the halved branch its first extension to the enlarged subgroup
    exts = abelian_character_extensions(pat.group, pat.inducing, (pat.H, exps), R)
    if not len(exts):
        raise NoExtensionError("transferred character does not extend to the enlarged subgroup")
    rep = copy.copy(pat.template)
    rep.R = R
    rep.chi = exts[0]
    char = rep.character()
    return RhoData(
        psi=psi,
        n=n,
        q=q,
        m=m,
        n1=n1,
        branch=pat.branch,
        group=pat.group,
        rep=rep,
        char=char,
        H=pat.H,
        pattern_exp=exps,
        R=R,
        degree=rep.dim,
        hom_degree=n + n1 - 2,
        frob_scalar=(-1) ** (n - n1) * q ** (n * (n + n1 - 2) // 2),
    )


class _PatternData(NamedTuple):
    """The psi-independent part of build_rho_psi at one conductor exponent:
    the element indices of the pattern subgroup H (increasing), the reduced
    norms of its kept coordinates (indices in F_{q^n}), the branch, the
    indices of the inducing subgroup (H, or on the halved branch the
    enlarged subgroup), and a template MonomialRep of the inducing
    subgroup whose copies take chi."""

    group: GroupModel
    H: np.ndarray
    norms: np.ndarray
    branch: int
    inducing: np.ndarray
    template: MonomialRep


@lru_cache(maxsize=None)
def _pattern_data(n: int, q: int, m: int, mirror: bool) -> _PatternData:
    # matmodel is imported here, so the suites that build no rho never load it
    from .matmodel import n2_norm_batch, nm_gnq_batch

    p, e = splitting_params(q)
    F = field(p, e * n)
    n1, q1 = n // m, q**m
    # coordinate j of an element sits in column j + shift; the norm reads the
    # coordinates with m | j (nu'_m), as an element of the (n/m, q^m) family
    if mirror:
        group, _ = gnq_group(n, q)
        shift = -1

        def norms(kept):
            return nm_gnq_batch(n1, q1, F, kept)
    else:
        group, _ = unipotent_group(n, q, 2)
        shift = 0
        ring1 = twisted_ring(n1, q1, 2, F)

        def norms(kept):
            return n2_norm_batch(ring1, kept)

    coords = group.decode(np.arange(len(group), dtype=np.int64))[1 + shift : n + 1 + shift]
    pattern = set(h_m_pattern(n, 2, m))
    zero = [j - 1 for j in range(1, n + 1) if j not in pattern]
    H = np.flatnonzero(~coords[zero].any(axis=0))
    nvals = chunked(norms, np.stack(nu_prime_m(n, m, coords[:, H])))
    branch = 1 if (m % 2 == 1 or n1 % 2 == 0) else 2
    inducing = H
    if branch == 2:
        # m = 2 and n = 2 here: enlarge the pattern subgroup by the first
        # coordinate restricted to F_q, the half-size subfield
        if n != 2:
            raise UnsupportedParametersError(
                "halved branch implemented for n = 2 only (the middle-coordinate "
                "subgroup is abelian there)"
            )
        allowed = np.zeros(F.order, dtype=bool)
        allowed[F.embed_table(field(p, e))] = True
        inducing = np.flatnonzero(allowed[coords[0]])
    return _PatternData(group, H, nvals, branch, inducing, MonomialRep(group, inducing, None, 1))


def _check_rho(data: RhoData):
    """Certificates for a single rho: irreducibility, central character, and
    the branch multiplicity pattern.  Raises on failure."""
    n, q, R = data.n, data.q, data.R
    p, e = splitting_params(q)
    F = field(p, e * n)
    scale = R // p
    ip = assert_nonneg_integer(inner_product(data.char, data.char))
    if ip != 1:
        raise CharacterMismatchError(f"squared norm {ip} != 1")
    # the value at each central element z must be degree times psi(v): z
    # has top coordinate v and the others zero, so its index is v
    rows = data.char[: F.order]
    want = (data.psi.table * scale) % R
    bad = (rows[np.arange(F.order), want] != data.degree) | (rows.sum(axis=1) != data.degree)
    if bad.any():
        z = tuple(data.group.decode(np.flatnonzero(bad)[:1])[:, 0].tolist())
        raise CharacterMismatchError(f"central character differs at {z}")
    checks = {"norm": ip, "branch": data.branch}
    if data.branch == 2:
        chi = np.zeros(len(data.group), dtype=np.int64)
        chi[data.H] = data.pattern_exp
        ind = MonomialRep(data.group, data.H, chi, R).character()
        ind_norm = assert_nonneg_integer(inner_product(ind, ind))
        mult = assert_nonneg_integer(inner_product(ind, data.char))
        if ind_norm != q**n or mult != q ** (n // 2):
            raise CharacterMismatchError(
                f"multiplicity pattern ({ind_norm}, {mult}) != ({q**n}, {q**(n//2)})"
            )
        checks["pattern_norm"] = ind_norm
        checks["multiplicity"] = mult
    return checks


def gnq_lang_fiber_count(n: int, q: int, s: int = 1) -> int:
    """|X'(F_{q^{n s}})|: mirror points whose Lang image (with the q^n-power
    Frobenius, matching the h = 2 convention of matmodel.xh_point_count) has
    vanishing top coordinate."""
    p, e = splitting_params(q)
    F = field(p, e * n * s)
    frob = F.frob_table(F.frob_exp(q, n))
    return sum(
        int(np.count_nonzero(gnq_mul_batch(F, n, q, frob[a], gnq_inv_batch(F, n, q, a))[n - 1] == 0))
        for a in grid_chunks(F.order, n)
    )


def rho_family_report(n: int, q: int, mirror: bool = False) -> dict:
    """Full verification sweep over every additive character of F_{q^n}:
    irreducibility, central character, branch multiplicities, and the
    alternating-sum consistency with the Lang-fiber point count."""
    from .matmodel import xh_point_count

    p, e = splitting_params(q)
    F = field(p, e * n)
    lefschetz = 0
    rows = []
    for a in range(F.order):
        psi = AddChar(F, q, a)
        data = build_rho_psi(n, q, psi, mirror=mirror)
        checks = _check_rho(data)
        lefschetz += q ** (n * (n + data.n1 - 2) // 2) * data.degree
        rows.append(
            {
                "psi": a,
                "m": data.m,
                "branch": data.branch,
                "degree": data.degree,
                "hom_degree": data.hom_degree,
                "frob_scalar": data.frob_scalar,
                **checks,
            }
        )
    points = gnq_lang_fiber_count(n, q) if mirror else xh_point_count(n, q, 2, 1)
    ok = lefschetz == q ** (n * n) == points
    return {
        "suite": "rho-family-mirror" if mirror else "rho-family",
        "params": {"n": n, "q": q},
        "rows": rows,
        "lefschetz_sum": lefschetz,
        "point_count": points,
        "claims": [
            {
                "claim": "alternating-sum equals Lang-fiber point count",
                "status": "pass" if ok else "fail",
                "witness": {"sum": lefschetz, "points": points},
            }
        ],
    }


def extension_orbit_report(q: int) -> dict:
    """Conjugation orbit on the extensions of a top-layer character to the
    two-coordinate subgroup {1 + a_3 tau^3 + a_4 tau^4} at (n, h) = (2, 3):
    transitive exactly when the layer character has conductor q^2."""
    p, e = splitting_params(q)
    F = field(p, 2 * e)
    Q = F.order
    ring = twisted_ring(2, q, 3, F)
    # every x v x^-1 at once, for x = 1 + beta tau (beta slowest) and
    # v = 1 + a3 tau^3 + a4 tau^4 in product order; none depends on psi
    beta, a3, a4 = index_digits(np.arange(Q**3, dtype=np.int64), Q, 3)
    zero = np.zeros(Q**3, dtype=np.int64)
    x = np.stack([zero + 1, beta, zero, zero, zero])
    v = np.stack([zero + 1, zero, zero, a3, a4])
    w = ring.mul_batch(ring.mul_batch(x, v), ring.inv_batch(x))
    bad = np.flatnonzero((w[1] != 0) | (w[2] != 0) | (w[3] != v[3]))
    if len(bad):
        x, v, w = (tuple(y[:, bad[0]].tolist()) for y in (x, v, w))
        raise OutsideSubgroupError(f"{x} conjugates {v} to {w}, outside the subgroup")
    # the first Q^2 columns (beta = 0) list V in product order, and row beta
    # of w4 holds the a4 of each x v x^-1 in that order, so psi's orbit rows
    # are its table read there
    a3, a4, w4 = a3[: Q * Q], a4[: Q * Q], w[4].reshape(Q, Q * Q)
    psis = [AddChar(F, q, a) for a in range(F.order)]
    lam = np.stack([psi.table[a3] for psi in psis])
    rows = []
    mismatches = []
    for psi in psis[1:]:
        a = psi.a
        m = psi.conductor_power()
        all_ext = {r.tobytes() for r in (psi.table[a4] + lam) % p}
        orbit = {r.tobytes() for r in psi.table[w4]}
        if not orbit <= all_ext:
            raise CharacterMismatchError(f"a conjugate of psi = {a} is not an extension")
        transitive = orbit == all_ext
        if (m == 2) != transitive:
            mismatches.append({"psi": a, "m": m, "orbit": len(orbit)})
        rows.append({"psi": a, "m": m, "orbit": len(orbit), "extensions": len(all_ext)})
    witness = {"characters": len(rows)}
    if mismatches:
        witness["mismatches"] = mismatches
    return {
        "suite": "extension-orbit",
        "params": {"q": q},
        "rows": rows,
        "claims": [
            {
                "claim": "orbit on extensions transitive iff conductor q^2",
                "status": "fail" if mismatches else "pass",
                "witness": witness,
            }
        ],
    }


# -- the division quotient -------------------------------------------------------


@dataclass
class DivQuotData:
    """The unit group of the division order modulo the M-th power of the
    central uniformizer: elements (e, u) with e in Z/(nM) the Pi-valuation
    and u a unit of the twisted truncated ring over F_{q^n}.  The group
    decodes element i as the column (e, u_0, ..., u_(L-1)); the units come
    first, at the indices below len(group) / nM."""

    n: int
    q: int
    h: int
    M: int
    F: Field
    ring: TwistedRing
    group: GroupModel
    nM: int

    def decompose(self, u):
        """u = zeta-bar^k * u1 with u1 a principal unit, for the units u that
        are the columns of an (L, N) array: zeta-bar^k is the constant u_0,
        and a constant multiplies coefficientwise from the left, so u1 =
        u_0^-1 u.  Returns (k, u1)."""
        F = self.F
        return F.log(u[0]), F.mul(F.inv(u[0]), u)


def divquot(n: int, q: int, h: int, M: int = 1) -> DivQuotData:
    """The division quotient of (n, q, h, M), built once per tuple."""
    return _divquot(n, q, h, M)


@lru_cache(maxsize=None)
def _divquot(n: int, q: int, h: int, M: int) -> DivQuotData:
    _require_small(n, h)
    p, e = splitting_params(q)
    F = field(p, e * n)
    ring = twisted_ring(n, q, h, F)
    nM = n * M
    L = ring.length
    # element i is (e, u) with i = e |units| + (u_0 - 1) Q^(L-1) + (the index
    # of u_1, ..., u_(L-1) in the grid of tails); the identity is element 0
    Q = F.order
    tails = Q ** (L - 1)
    units = (Q - 1) * tails

    def decode(i):
        e_, r = np.divmod(i, units)
        u0, t = np.divmod(r, tails)
        return np.concatenate([e_[None], u0[None] + 1, index_digits(t, Q, L - 1)])

    def encode(e_, u):
        return e_ * units + (u[0] - 1) * tails + digits_index(u[1:], Q)

    def frobenius(u, s):
        """u^(q^s), with the twist s read per column."""
        out = u
        for k in range(1, n):
            out = np.where(s == k, ring.frobenius_batch(u, k), out)
        return out

    def mul(i, j):
        """(a, u)(b, w) = (a + b, u^(q^-b) w)."""
        x, y = decode(i), decode(j)
        a, u, b, w = x[0], x[1:], y[0], y[1:]
        return encode((a + b) % nM, ring.mul_batch(frobenius(u, (-b) % n), w))

    def inv(i):
        x = decode(i)
        a, u = x[0], frobenius(x[1:], x[0] % n)
        # u = u_0 w with w unipotent: u^-1 = w^-1 u_0^-1
        c = F.inv(u[0])
        w = ring.inv_batch(F.mul(c[None], u))
        scalar = np.concatenate([c[None], np.zeros((L - 1, len(i)), dtype=np.int64)])
        return encode((-a) % nM, ring.mul_batch(w, scalar))

    # Pi = (1, 1), zeta-bar = (0, F.gen) and the level-1 generators (0, 1 +
    # b tau^j) of the unipotent group, whose unit indices are theirs there
    gens = [(1 % nM) * units, (F.gen - 1) * tails, *_coordinate_generators(F, L - 1)]
    group = GroupModel(nM * units, mul, inv, decode, gens)
    return DivQuotData(
        n=n,
        q=q,
        h=h,
        M=M,
        F=F,
        ring=ring,
        group=group,
        nM=nM,
    )


# -- eta_theta ---------------------------------------------------------------------


@dataclass
class RTheta:
    """The induced character on the division quotient attached to theta,
    realized through the cyclic extension of rho along the Teichmueller
    generator, with the homological-degree bookkeeping as metadata."""

    theta: ThetaData
    dq: DivQuotData
    ext: MonomialExtension | CyclicExtension
    root_exp: int | None
    sign: int
    hom_degree: int
    degree: int


def _build_eta_level2(theta: ThetaData, dq: DivQuotData) -> RTheta:
    n, q, R = theta.n, theta.q, theta.R
    psi = layer_as_additive_char(theta.chi, theta.L, q, R)
    rho = build_rho_psi(n, q, psi, R=R)
    sign = (-1) ** (n + n // rho.m)
    # on the halved-subgroup branch scalar conjugation moves the inducing
    # subgroup, so the intertwiner is dense and so is the extension; the
    # (q^n - 1)-th power of zeta-bar is the identity, index 0
    ext, root_exp = extend_irrep(
        rho.rep,
        _teichmueller_conj(n, q, 2),
        0,
        q**n - 1,
        rho.group.generators,
        CycloNum.rational(R, sign),
    )
    return RTheta(
        theta=theta,
        dq=dq,
        ext=ext,
        root_exp=root_exp,
        sign=sign,
        hom_degree=n - n // rho.m,
        degree=n * rho.degree,
    )


def _build_eta_level3(theta: ThetaData, ctx: MainExampleContext) -> RTheta:
    """The extension-route construction on ctx's division quotient: the
    induction of theta-sharp from the pattern subgroup, a copy of ctx's
    theta-independent template, extended along the Teichmueller generator."""
    n, q, R = 2, theta.q, theta.R
    dq = ctx.dq
    rep = copy.copy(ctx.template)
    # theta-sharp reads (a_2, a_4) of 1 + a_2 t^2 + a_3 t^3 + a_4 t^4 as a
    # level-2 principal unit (1, a_2, a_4) of the quadratic field, the unit
    # at index a_2 Q + a_4
    rep.chi = theta.chi[ctx.sharp]
    rep.R = R
    ext, root_exp = extend_irrep(
        rep,
        _teichmueller_conj(n, q, 3),
        0,
        q**n - 1,
        rep.group.generators,
        CycloNum.rational(R, 1),
    )
    if root_exp is None:
        # the level-3 comparison reads traces at the exponent level
        raise NotInvariantError("level-3 intertwiner support is not monomial")
    # homological degree 2(h-1)(n-1) - r with r = 2 here
    return RTheta(
        theta=theta,
        dq=dq,
        ext=ext,
        root_exp=root_exp,
        sign=1,
        hom_degree=2 * (3 - 1) * (n - 1) - 2,
        degree=n * rep.dim,
    )


@lru_cache(maxsize=None)
def _teichmueller_conj(n: int, q: int, h: int) -> np.ndarray:
    """Conjugation x -> zeta-bar x zeta-bar^-1 by the constant F.gen, as the
    index permutation of unipotent_group(n, q, h): coefficient j of x scales
    by the j-th of the ring's scalar_conj_factors."""
    group, ring = unipotent_group(n, q, h)
    F = ring.coeff_field
    f = ring.scalar_conj_factors(F.gen)
    x = group.decode(np.arange(len(group), dtype=np.int64))
    return digits_index(F.mul(f[:, None], x[1:]), F.order)


def _level3_pattern_subgroup(U3: GroupModel) -> np.ndarray:
    """The element indices of U3 with a_1 = 0."""
    return np.flatnonzero(U3.decode(np.arange(len(U3), dtype=np.int64))[1] == 0)


# -- level-2 family sweep (Mackey irreducibility vs conductor) ---------------------


def eta_family_report(n: int, q: int, M: int = 1) -> dict:
    """Over every level <= 2 character theta of the torus with theta(pi) of
    order dividing M: the cyclic extension exists with the signed trace, the
    induced degree is n times the base degree, and Mackey's criterion on the
    index-n valuation subgroup detects irreducibility exactly when theta is
    regular (fixed by no nontrivial power of the q-Frobenius).  A layer
    character of full conductor q^n forces regularity, hence irreducibility,
    no matter what theta does on the Teichmueller part."""
    dq = divquot(n, q, 2, M)
    F = dq.F
    thetas = theta_family(n, q, 2, M)
    # Mackey pairs (u, Pi^j-conjugate of u) decomposed as (k, u1), with u1 an
    # index of rho's group, as the rows (k1, u1, k2, u2) of one array per j;
    # the theta-dependence of each pair's term enters only through zeta^delta
    n_units = len(dq.group) // dq.nM
    units = dq.group.decode(np.arange(n_units, dtype=np.int64))[1:]

    def dec(u):
        # rho's group lists the principal units in product order
        k, u1 = dq.decompose(u)
        return k, digits_index(u1[1:], F.order)

    pairs = {
        j: np.stack([*dec(units), *dec(dq.ring.frobenius_batch(units, (n - j) % n))])
        for j in range(1, n)
    }
    cache = {}
    rows = []
    irregular_mismatches = []
    reducible_full = []
    for theta in thetas:
        R = theta.R
        psi = layer_as_additive_char(theta.chi, theta.L, q, R)
        key = psi.a
        if key not in cache:
            rt = _build_eta_level2(theta, dq)
            cache[key] = (rt, [delta_sums(rt.ext, pairs[j]) for j in range(1, n)])
        rt, tables = cache[key]
        m = psi.conductor_power() if psi.a else 1
        zv = theta.zeta_value_exp()
        # the delta row times zeta^(delta zv), summed over delta for each j,
        # all j reduced in one call
        sums = [rotate_counts(counts, deltas * zv).sum(axis=0) for deltas, counts in tables]
        inners = {}
        for j, row in zip(range(1, n), reduce_counts(R, np.array(sums).reshape(-1, R)).tolist()):
            inners[j] = assert_nonneg_integer(CycloNum(R, row) / n_units)
            if inners[j] not in (0, 1):
                raise CharacterMismatchError(
                    f"cross inner product {inners[j]} of irreducibles at j = {j}"
                )
        irreducible = all(v == 0 for v in inners.values())
        # theta is fixed by Frobenius^j iff both the Teichmueller part and the
        # layer character are: theta(zeta^(q^j)) = theta(zeta) and
        # psi(x^(q^j)) = psi(x), the latter meaning a^(q^(n-j)) = a
        regular = not any(
            (zv * (q**j - 1)) % R == 0
            and F.frob_table(q ** ((n - j) % n))[psi.a] == psi.a
            for j in range(1, n)
        )
        witness = {"zeta_exp": theta.zeta_exp, "psi": psi.a, "mackey": inners}
        if irreducible != regular:
            irregular_mismatches.append({**witness, "regular": regular})
        if m == n and not irreducible:
            reducible_full.append(witness)
        rows.append(
            {
                "zeta_exp": theta.zeta_exp,
                "psi": psi.a,
                "m": m,
                "regular": regular,
                "degree": rt.degree,
                "hom_degree": rt.hom_degree,
                "sign": rt.sign,
                "root_exp": rt.root_exp,
                "mackey": inners,
                "irreducible": irreducible,
            }
        )
    regular_witness = {"thetas": len(rows)}
    if irregular_mismatches:
        regular_witness["mismatches"] = irregular_mismatches
    full_witness = {"full_conductor": sum(1 for r in rows if r["m"] == n)}
    if reducible_full:
        full_witness["reducible"] = reducible_full
    return {
        "suite": "eta-level2",
        "params": {"n": n, "q": q, "M": M},
        "rows": rows,
        "claims": [
            {
                "claim": "Mackey irreducibility iff theta regular",
                "status": "fail" if irregular_mismatches else "pass",
                "witness": regular_witness,
            },
            {
                "claim": "full conductor q^n implies irreducible",
                "status": "fail" if reducible_full else "pass",
                "witness": full_witness,
            },
        ],
    }


# -- the level-3 worked example -----------------------------------------------------


class MainExampleContext:
    """Shared theta-independent index tables for the (n, h) = (2, 3)
    comparison, built once per (q, M).  The inducing subgroup S1 (even
    valuation, scalar part times the pattern subgroup) is taken in
    group-index order; column i of dec is (t, k, h_2 Q + h_4) for its element
    Pi^(2t) zeta-bar^k h at position i.  The other tables:

    - rhs: (class, position) of each conjugate t^-1 g t of a class
      representative g by a transversal element t that lands in S1;
    - mackey: (group, s, t s t^-1) positions for each transversal element t
      outside S1, numbered from 0 in transversal order, and each s of S1
      whose conjugate stays in S1;
    - zero_rows: (k, h_2 Q + h_4) of t^-1 zeta-bar t = zeta-bar^k h for each
      template transversal element t with h in the pattern subgroup;
    - lhs: (class, t, k, u1) for each Frobenius twist Pi^(2t) zeta-bar^k u1
      of each even-valuation class representative, with u1 an index of the
      template's group;
    - sharp: h_2 Q + h_4 for each element 1 + h_1 t + ... + h_4 t^4 of the
      template's group, where theta-sharp reads the units table.
    """

    def __init__(self, q: int, M: int = 1):
        n = 2
        dq = divquot(n, q, 3, M)
        self.dq = dq
        self.U3, _ = unipotent_group(n, q, 3)
        self.H2 = _level3_pattern_subgroup(self.U3)
        self.template = MonomialRep(self.U3, self.H2, None, 1)
        group, ring, F = dq.group, dq.ring, dq.F
        Q = F.order
        classes = group.conj_classes()
        self.class_reps = np.array([c[0] for c in classes], dtype=np.int64)
        self.class_sizes = [len(c) for c in classes]
        # column i of x is (e, u_0, ..., u_4) of element i
        x = group.decode(np.arange(len(group), dtype=np.int64))
        e = x[0]
        S1 = np.flatnonzero((e % n == 0) & (x[2] == 0))
        pos = np.full(len(group), -1, dtype=np.int64)
        pos[S1] = np.arange(len(S1))
        k, u1 = dq.decompose(x[1:, S1])
        self.dec = np.stack([e[S1] // n, k, u1[2] * Q + u1[4]])
        T, _ = coset_transversal(group, S1)
        reps = self.class_reps
        conj = pos[conjugates(group, reps, T)]
        cls, col = np.nonzero(conj >= 0)
        self.rhs = np.stack([cls, conj[cls, col]])
        # row k holds t_k s t_k^-1 for every s, in the order of S1
        outside = T[pos[T] < 0]
        conj = pos[conjugates(group, S1, chunked(group.inv, outside))].T
        grp, s = np.nonzero(conj >= 0)
        self.mackey = np.stack([grp, s, conj[grp, s]])
        self.mackey_groups = len(outside)
        # t^-1 zeta-bar t for the template transversal, all of valuation 0:
        # the U3 index of a principal unit t is the group index of (0, t),
        # and zeta-bar = (0, F.gen) sits at (F.gen - 1) Q^4
        zbar = np.array([(F.gen - 1) * Q ** (ring.length - 1)], dtype=np.int64)
        k, h = dq.decompose(x[1:, conjugates(group, zbar, self.template.transversal)[0]])
        keep = h[1] == 0
        self.zero_rows = np.stack([k[keep], h[2, keep] * Q + h[4, keep]])
        # the Frobenius twists of each even-valuation class representative,
        # class by class; U3 lists the principal units in product order
        even = np.flatnonzero(e[reps] % n == 0)
        u = x[1:, reps[even]]
        twists = np.stack([ring.frobenius_batch(u, (n - j) % n) for j in range(n)], axis=2)
        k, u1 = dq.decompose(twists.reshape(ring.length, -1))
        self.lhs = np.stack(
            [np.repeat(even, n), np.repeat(e[reps[even]] // n, n), k, digits_index(u1[1:], Q)]
        )
        h = self.U3.decode(np.arange(len(self.U3), dtype=np.int64))
        self.sharp = h[2] * Q + h[4]


def main_example_context(q: int, M: int = 1) -> MainExampleContext:
    """The MainExampleContext of (q, M), built once per pair."""
    return _main_example_context(q, M)


@lru_cache(maxsize=None)
def _main_example_context(q: int, M: int) -> MainExampleContext:
    return MainExampleContext(q, M)


def _class_traces(rt: RTheta, ctx: MainExampleContext) -> np.ndarray:
    """Per class representative g of ctx, the counts of the exponents of the
    extension-route character at g, as a (classes, R) array.  Over the
    Frobenius twists Pi^(2t) zeta-bar^k u1 of g, these are the exponents of
    the fixed columns of T^k rho(u1), shifted by theta's exponent on
    Pi^(2t) zeta-bar^k; a class of odd valuation has a zero row."""
    theta, R = rt.theta, rt.theta.R
    cls, t, k, u = ctx.lhs
    row, exps = rt.ext.trace_entries(k, u)
    shift = t * theta.pi_value_exp() + k * theta.zeta_value_exp()
    return count_rows(cls[row], exps + shift[row], len(ctx.class_reps), R)


def _sorted_exps(counts) -> list:
    """The sorted exponent list with the given counts."""
    return np.repeat(np.arange(len(counts)), counts).tolist()


def verify_main_example(theta: ThetaData, ctx: MainExampleContext, check_inner: bool) -> dict:
    """Compare the extension-route construction against the direct induction
    of theta' from the even-valuation pattern subgroup, class by class, for
    both readings of theta' from one build of the construction.

    theta' reads the pattern coordinates as a unit of the quadratic field,
    with the second coordinate entering at pi^2; the alternative reading,
    with it at pi^4, drops h_4 (pi^4 vanishes at level 3).  Returns the
    report row; raises CharacterMismatchError when the pi^2 reading differs.
    The row's alternative_reading is "fail" when the pi^4 reading differs at
    some class or fails the Mackey test."""
    if theta.n != 2 or theta.h != 3:
        raise UnsupportedParametersError(
            f"the main example is (n, h) = (2, 3), not ({theta.n}, {theta.h})"
        )
    R, Q = theta.R, theta.L.order
    zv = theta.zeta_value_exp()
    chi = theta.chi
    rt = _build_eta_level3(theta, ctx)
    t, k, pattern = ctx.dec
    base = t * theta.pi_value_exp() + k * zv
    tp = (base + chi[pattern]) % R
    alt = (base + chi[pattern - pattern % Q]) % R
    classes = len(ctx.class_reps)
    cls, at = ctx.rhs
    lhs = _class_traces(rt, ctx)
    rhs = count_rows(cls, tp[at], classes, R)
    alt_rhs = count_rows(cls, alt[at], classes, R)
    # equal count rows are equal multisets; multiset equality is sufficient
    # but not necessary, so the rows that differ are settled exactly
    differ = np.flatnonzero((lhs != rhs).any(axis=1))
    alt_differ = np.flatnonzero((lhs != alt_rhs).any(axis=1))
    diffs = np.concatenate([lhs[differ] - rhs[differ], lhs[alt_differ] - alt_rhs[alt_differ]])
    unequal = reduce_counts(R, diffs).any(axis=1)
    bad = differ[unequal[: len(differ)]]
    if len(bad):
        ci = int(bad[0])
        raise CharacterMismatchError(
            f"characters differ at class {ci} (size {ctx.class_sizes[ci]}): "
            f"{_sorted_exps(lhs[ci])} vs {_sorted_exps(rhs[ci])}"
        )
    # trace of the rederived induction at the Teichmueller generator: the
    # induction of theta-sharp from the scalar times pattern subgroup up to
    # the full unit group (independent of the extension route)
    zk, zpattern = ctx.zero_rows
    trace = cyclo_from_counts(R, np.bincount((zk * zv + chi[zpattern]) % R, minlength=R))
    if trace != CycloNum.root(R, zv):
        raise CharacterMismatchError(f"trace at the scalar generator is {trace}")
    # Mackey: theta'-induction is irreducible
    if not _mackey_linear(ctx, tp):
        raise CharacterMismatchError("induced character fails the Mackey test")
    report = {
        "zeta_exp": theta.zeta_exp,
        "reading": "pi-squared",
        "root_exp": rt.root_exp,
        "degree": rt.degree,
        "hom_degree": rt.hom_degree,
        "classes": classes,
        "fallback_compares": len(differ),
        "irreducible": True,
    }
    if check_inner:
        # squared norm of the extension-route character from its class traces
        sizes = np.array(ctx.class_sizes, dtype=np.int64)[:, None]
        norm = cyclo_from_counts(R, difference_counts(lhs * sizes, lhs))
        report["norm"] = assert_nonneg_integer(norm / len(ctx.dq.group))
    alt_passes = not unequal[len(differ) :].any() and _mackey_linear(ctx, alt)
    report["alternative_reading"] = "pass" if alt_passes else "fail"
    return report


def _mackey_linear(ctx: MainExampleContext, exps) -> bool:
    """Mackey test for the induction of a linear character, given by its
    exponents exps on the positions of S1: for every transversal element
    outside the subgroup, conjugation must move the character somewhere on
    the intersection."""
    grp, s, x = ctx.mackey
    moved = np.bincount(grp[exps[s] != exps[x]], minlength=ctx.mackey_groups)
    return bool(moved.all())


def main_example_report(q: int, M: int = 1) -> dict:
    """Sweep every level-3 theta whose layer restriction has full quadratic
    conductor: the default theta' reading must agree class by class with the
    extension route, and the alternative reading must fail somewhere.  The
    extension-route norm is checked for every theta at q = 2 and for every
    50th theta otherwise."""
    ctx = main_example_context(q, M)
    thetas = theta_family(2, q, 3, M, conductor_m=2)
    rows = []
    mismatches = []
    alt_fail = 0
    for i, theta in enumerate(thetas):
        try:
            row = verify_main_example(theta, ctx, q == 2 or i % 50 == 0)
        except CharacterMismatchError as exc:
            mismatches.append({"theta": i, "error": str(exc)})
            continue
        if row.get("norm", 1) != 1:
            mismatches.append({"theta": i, "error": f"extension-route norm {row['norm']} != 1"})
            continue
        alt_fail += row["alternative_reading"] == "fail"
        rows.append(row)
    route_witness = {"thetas": len(thetas)}
    if mismatches:
        route_witness["mismatches"] = mismatches
    return {
        "suite": "main-example",
        "params": {"q": q, "M": M},
        "rows": rows,
        "claims": [
            {
                "claim": "extension route equals theta'-induction (pi-squared reading)",
                "status": "fail" if mismatches else "pass",
                "witness": route_witness,
            },
            {
                "claim": "pi-fourth reading fails",
                "status": "pass" if alt_fail == len(rows) else "fail",
                "witness": {"failures": alt_fail, "thetas": len(rows)},
            },
        ],
    }
