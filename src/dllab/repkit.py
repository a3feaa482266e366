"""Finite group and character toolkit.

Groups are explicit and live on the indices 0, ..., order - 1 of their
elements, the identity at 0: a GroupModel carries its order, its index law,
a generating set as an index array, and a batched decode from indices to
element coordinates, which only reports and the test oracles read.

The law is an index law: mul(a, b) and inv(a) are batched on int arrays of
element indices.  Subgroups, transversals, classes and conjugation maps are
index arrays too.  conj_classes, coset_transversal, MonomialRep and
abelian_character_extensions run GRID_CHUNK columns at a time:
conjugation by each generator becomes one index permutation, and the classes
are its orbits, found by min-label propagation with pointer jumping (the
orbit algorithm of Holt, Eick and O'Brien's Handbook of Computational Group
Theory, with the connected-components step of Shiloach and Vishkin).

Character values are tracked as root-of-unity data wherever possible: a
linear character is an int64 exponent table over the element indices, and
an induced character, MonomialRep.character, is a (|G|, R) count array
whose row i counts the exponents of the roots that sum to its value at
element i.  Exact CycloNum arithmetic happens only at the boundaries
(inner products, trace comparisons), so the hot loops are integer-only.

A monomial matrix has one form, index arrays.  A MonomialRep holds the
supports of every element and its chi as an exponent table over element
indices, so rho(g) is (perm[g], chi[h[g]]); a MonomialExtension holds the
powers T^k of its intertwiner as (c, d) arrays, so the traces of T^k rho(u)
for arrays of (k, u) are one gather (MonomialExtension.trace_entries).  A
dense intertwiner is a (d, d, R) count tensor, multiplied by one exponent
gather and einsum and reduced mod Phi_R, and a CyclicExtension holds its
powers so.  Both extensions give the traces as count rows (trace_counts),
which the one Mackey-sum body, delta_sums, reads.
"""

from __future__ import annotations

import numpy as np

from .cyclo import (
    CycloNum,
    count_rows,
    cyclo_from_counts,
    difference_counts,
    reduce_counts,
    rotate_counts,
)
from .errors import (
    InexactDivisionError,
    MixedOrderError,
    NoExtensionError,
    NotInvariantError,
    RootOrderError,
    UnsupportedParametersError,
)
from .ffield import GRID_CHUNK, chunked


class GroupModel:
    """A finite group on the indices of its elements: mul and inv are the
    index law, the identity is index 0, generators is an index array of a
    generating set, and decode(indices) gives the coordinates of those
    elements as the columns of an int64 array."""

    def __init__(self, order: int, mul, inv, decode, generators):
        self.order = order
        self.mul = mul
        self.inv = inv
        self.decode = decode
        self.generators = np.asarray(generators, dtype=np.int64)
        self._classes = None

    def __len__(self):
        return self.order

    def conj_classes(self):
        """Conjugacy classes as index arrays; deterministic order.

        Orbits are closed under conjugation by a generating set, which equals
        closure under all inner automorphisms.  Classes come in the order of
        their least index, each in index order, so each starts with it.
        """
        if self._classes is None:
            idx = np.arange(self.order, dtype=np.int64)
            # column k is x -> s x s^-1 for the generator s = generators[k]
            conj = conjugates(self, idx, chunked(self.inv, self.generators))
            label = _orbit_labels(self.order, conj.T)
            order = np.argsort(label, kind="stable")
            self._classes = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
        return self._classes


def _orbit_labels(n: int, perms) -> np.ndarray:
    """The least point of each point's orbit under the group that the index
    permutations perms of range(n) generate.

    Each label starts as the point's own index and only moves to a smaller
    index in the same orbit: to its image's label under a permutation, then
    to its own label's label (pointer jumping).  At the fixed point label[x]
    <= label[p(x)] for every generator p; p has finite order, so the labels
    along x, p(x), p(p(x)), ... return to label[x] and are all equal.  So
    forward maps alone make the labels constant on orbits, and every point
    is labelled by the least index of its orbit.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        new = label
        for p in perms:
            new = np.minimum(new, new[p])
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


# -- characters as exponent data ----------------------------------------------


def inner_product(a, b) -> CycloNum:
    """(1/|G|) sum_g a(g) conj(b(g)), exact, for characters given as (|G|, R)
    count rows: R is a.shape[1] and |G| is len(a)."""
    if a.shape != b.shape:
        raise MixedOrderError(f"count rows of shapes {a.shape} and {b.shape}")
    return cyclo_from_counts(a.shape[1], difference_counts(a, b)) / len(a)


def _pair_table(fn, n: int, K: int) -> np.ndarray:
    """fn(x, k) over the n K pairs (x, k) in row-major order, GRID_CHUNK
    pairs at a time, as an (n, K) array."""
    out = np.empty(n * K, dtype=np.int64)
    for s in range(0, n * K, GRID_CHUNK):
        x, k = np.divmod(np.arange(s, min(s + GRID_CHUNK, n * K), dtype=np.int64), K)
        out[s : s + len(x)] = fn(x, k)
    return out.reshape(n, K)


def conjugates(group: GroupModel, xs, ts) -> np.ndarray:
    """For index arrays xs and ts, through the group's index law: the array
    whose row r, column k is the index of t_k^-1 x_r t_k, from one pass over
    all (r, k) pairs."""
    mul = group.mul
    inv_ts = chunked(group.inv, ts)
    return _pair_table(lambda x, k: mul(inv_ts[k], mul(xs[x], ts[k])), len(xs), len(ts))


def coset_transversal(group: GroupModel, H):
    """(representatives, coset) for the subgroup with the element indices H:
    the left cosets gH in the order of their least element index, each
    represented by that index, and the coset number of every element
    index."""
    coset = np.full(len(group), -1, dtype=np.int64)
    reps = []
    g = 0
    while g < len(coset):
        coset[chunked(group.mul, np.full(len(H), g), H)] = len(reps)
        reps.append(g)
        free = np.flatnonzero(coset[g:] < 0)
        g = g + int(free[0]) if len(free) else len(coset)
    return np.array(reps, dtype=np.int64), coset


def abelian_character_extensions(group: GroupModel, members, base, R: int) -> np.ndarray:
    """All characters of the abelian subgroup with the element indices
    members (increasing) that extend the partial character base, a pair
    (indices, exponents) on a subgroup of it.  Returns one exponent table
    over the group's element indices per character, zero off members, as a
    (characters, |group|) array.

    Deterministic order: elements are adjoined in index order and root
    choices are taken in increasing exponent order.
    """
    idx, exps = (np.asarray(x, dtype=np.int64) for x in base)
    chars = np.zeros((1, len(group)), dtype=np.int64)
    chars[0, idx] = exps
    known = np.zeros(len(group), dtype=bool)
    known[idx] = True
    for g in np.asarray(members).tolist():
        if known[g]:
            continue
        # g, g^2, ..., g^c with c the order of g modulo the known subgroup
        powers = [np.array([g])]
        while not known[powers[-1][0]]:
            powers.append(group.mul(powers[-1], powers[0]))
        c = len(powers)
        if R % c:
            raise RootOrderError(f"root order {R} is not divisible by the element order {c}")
        # the root choices: f with c f = chi(g^c) mod R, in increasing order
        num = chars[:, powers[-1][0], None] % R + R * np.arange(c)
        rows, t = np.nonzero(num % c == 0)
        f = (num[rows, t] // c) % R
        # d g^i for the known d (d slowest) and i = 1, ..., c - 1
        D = np.flatnonzero(known)
        gi = np.concatenate(powers[:-1])
        cosets = chunked(group.mul, np.repeat(D, c - 1), np.tile(gi, len(D)))
        i = np.arange(1, c)
        chars = chars[rows]
        chars[:, cosets] = ((chars[:, D, None] + i * f[:, None, None]) % R).reshape(len(rows), -1)
        known[cosets] = True
    return chars


# -- monomial (induced) representations ---------------------------------------


class MonomialRep:
    """Ind_H^G(chi) as index arrays: H holds the element indices of the
    subgroup and transversal those of its left-coset representatives.

    With (perm, h) = _supports, g t_j = t_perm[g, j] h[g, j] for every element
    index g and column j, and chi is the exponent table of the linear
    character over the element indices, read on H.  So the matrix of g sends
    e_j to zeta_R^chi[h[g, j]] e_perm[g, j].
    """

    def __init__(self, group: GroupModel, H, chi, R: int):
        self.group = group
        self.H = H
        self.chi = chi
        self.R = R
        self.transversal, coset = coset_transversal(group, H)
        self.dim = len(self.transversal)
        # the supports of all elements at once: index arrays perm and h with
        # g t_j = t_perm[g, j] h[g, j]
        mul = group.mul
        T = self.transversal
        w = _pair_table(lambda g, k: mul(g, T[k]), len(group), self.dim)
        perm = coset[w]
        h = chunked(mul, chunked(group.inv, T)[perm].ravel(), w.ravel()).reshape(w.shape)
        self._supports = perm, h

    def matrices(self, g):
        """(perm, exps) at the element indices g: the matrix of g[r] sends e_j
        to zeta_R^exps[r, j] e_perm[r, j], with exps reduced mod R.  A single
        index gives one row."""
        perm, h = self._supports
        return perm[g], self.chi[h[g]] % self.R

    def character(self) -> np.ndarray:
        """The character of Ind_H^G(chi) as (|G|, R) count rows, read off the
        supports: row g counts chi(t_j^-1 g t_j) over the j with t_j^-1 g t_j
        in H, which holds exactly when perm[g, j] == j, and then it is
        h[g, j]."""
        perm, h = self._supports
        g, j = np.nonzero(perm == np.arange(self.dim))
        return count_rows(g, self.chi[h[g, j]], len(self.group), self.R)


induce_char = MonomialRep.character  # perfbench/tracer.py times repkit.induce_char_s by this name


class CyclicExtension:
    """An extension of an irreducible monomial rep rho of N to N . <g>,
    where conjugation by g preserves rho up to equivalence and g^c lies in N,
    along a dense intertwiner.

    The extension sends g to A / N for an integer N > 0, and A^0, ...,
    A^(c-1) are stored as one (c, d, d, R) count tensor: entry (k, i, j)
    counts the root exponents that sum to A^k[i, j], reduced mod Phi_R.
    """

    def __init__(self, rep: MonomialRep, A, N: int, c: int, R: int):
        self.rep = rep
        self.A = A
        self.N = N
        self.c = c
        self.R = R

    def trace_counts(self, k, u):
        """The traces of T^k rho(u) = A^k rho(u) / N^k for index arrays k and
        u of one length, as (len(k), R) coefficient rows padded with zeros.
        rho(u) sends e_j to zeta_R^exps[j] e_perm[j], so the diagonal entry j
        of A^k rho(u) is A^k[j, perm[j]] zeta_R^exps[j].  Character values
        are algebraic integers, so the division by N^k must be exact."""
        perm, exps = self.rep.matrices(u)
        k = k % self.c
        entries = self.A[k[:, None], np.arange(self.rep.dim), perm]
        counts = _reduced(self.R, rotate_counts(entries, exps).sum(axis=1))
        Nk = self.N ** k[:, None]
        if (counts % Nk).any():
            raise InexactDivisionError(f"a trace of A^k rho(u) is not divisible by {self.N}^k")
        return counts // Nk


class MonomialExtension:
    """Extension of a monomial irrep of N to N . <g> when the intertwiner is
    itself monomial: T^k sends e_j to zeta_R^E[k, j] e_P[k, j], with P and E
    (c, d) index arrays, and traces are exponent counts, with no dense
    matrices."""

    def __init__(self, rep: MonomialRep, P, E, c: int, R: int):
        self.rep = rep
        self.P = P
        self.E = E
        self.c = c
        self.R = R

    def trace_entries(self, k, u):
        """For index arrays k and u of one length: (r, exps), the index r[i]
        into k and u and the exponent mod R of each nonzero diagonal entry of
        T^k[r[i]] rho(u[r[i]]).  rho(u) sends e_j to e_perm[j] and T^k sends
        that on to e_P[k, perm[j]], so column j is fixed when that is j."""
        perm, exps = self.rep.matrices(u)
        k = k % self.c
        r, j = np.nonzero(self.P[k[:, None], perm] == np.arange(self.rep.dim))
        return r, (self.E[k[r], perm[r, j]] + exps[r, j]) % self.R

    def trace_counts(self, k, u):
        """The traces of T^k rho(u) as (len(k), R) count rows."""
        return count_rows(*self.trace_entries(k, u), len(k), self.R)


def delta_sums(ext, pairs):
    """The Mackey sums of either extension: trace(k2, u2) conj(trace(k1, u1))
    from ext.trace_counts over the columns (k1, u1, k2, u2) of the (4, N)
    index array pairs, summed for each delta = k2 - k1 mod c.  Returns the
    deltas that occur, in order, and one unreduced count row for each."""
    k1, u1, k2, u2 = pairs
    a, b = ext.trace_counts(k2, u2), ext.trace_counts(k1, u1)
    delta = (k2 - k1) % ext.c
    deltas = np.unique(delta)
    counts = [difference_counts(a[delta == d], b[delta == d]) for d in deltas.tolist()]
    return deltas, np.array(counts, dtype=np.int64).reshape(-1, ext.R)


def solve_intertwiner(rep: MonomialRep, conj, generators, R: int):
    """Phase propagation solve of rho(g x g^-1) T = T rho(x) over the
    generators of N, an index array, with conj the index permutation x ->
    g x g^-1 of N.  Returns T as a dict (i, j) -> exponent, determined up
    to one global scalar (seed entry gets exponent 0).

    Every equation relates exactly two entries of T because both sides are
    monomial, so the solution space decomposes along connected components of
    an entry graph; Schur's lemma forces exactly one consistent component.
    The graph's nodes are the entries k d + j.  Each generator's equations
    permute them, so the components are orbits, labelled by their least
    node; the phases spread from those nodes one edge layer at a time, and a
    component is consistent when every edge agrees with them.
    """
    d = rep.dim
    P, E = rep.matrices(generators)
    Pp, Ep = rep.matrices(conj[generators])
    # T[Pp[k], P[j]] = T[k, j] + Ep[k] - E[j]: an edge from a = k d + j to
    # b[x, a] for each generator x, walked in both directions
    a = np.arange(d * d, dtype=np.int64)
    k, j = np.divmod(a, d)
    b = Pp[:, k] * d + P[:, j]
    delta = ((Ep[:, k] - E[:, j]) % R).ravel()
    a = np.broadcast_to(a, b.shape).ravel()
    src, dst = np.concatenate([a, b.ravel()]), np.concatenate([b.ravel(), a])
    step = np.concatenate([delta, -delta % R])
    comp = _orbit_labels(d * d, b)
    phase = np.where(comp == np.arange(d * d), 0, -1)
    while True:
        grow = (phase[src] >= 0) & (phase[dst] < 0)
        if not grow.any():
            break
        phase[dst[grow]] = (phase[src[grow]] + step[grow]) % R
    good = np.setdiff1d(comp, comp[src[phase[dst] != (phase[src] + step) % R]])
    if not len(good):
        raise NotInvariantError("no intertwiner: representation not invariant")
    if len(good) > 1:
        raise NotInvariantError(
            "intertwiner space not one-dimensional; representation reducible?"
        )
    nodes = np.flatnonzero(comp == good[0])
    i, j = np.divmod(nodes, d)
    return dict(zip(zip(i.tolist(), j.tolist()), phase[nodes].tolist()))


def extend_irrep(rep: MonomialRep, conj, g_power_c, c: int, generators, target_trace):
    """Extension of the irreducible monomial rep rho of N to N . <g>, where
    conjugation by g, the index permutation conj[x] = g x g^-1 of N,
    preserves rho up to equivalence and g^c lies in N, at the index
    g_power_c; generators is an index array of generators of N, and the
    extension has trace target_trace at g.  Returns (extension, root_exp).

    The intertwiner is solved once.  When its support is monomial (conj
    permutes the inducing cosets), the extension is a MonomialExtension and
    root_exp is the exponent of the chosen c-th-root twist.  Otherwise it is
    a CyclicExtension, the dense intertwiner as a count tensor scaled to the
    target trace over an integer denominator, and root_exp is None.
    """
    R = rep.R
    if R % c:
        raise RootOrderError(f"root order {R} is not divisible by the cycle length {c}")
    d = rep.dim
    entries = solve_intertwiner(rep, conj, generators, R)
    by_col = {j: (i, e) for (i, j), e in entries.items()}
    # one entry in every row and every column: a monomial matrix
    if len(entries) == len(by_col) == len({i for i, _ in entries}) == d:
        P, E = np.array([by_col[j] for j in range(d)], dtype=np.int64).T
        return _monomial_extension(rep, P, E, conj, g_power_c, c, generators, target_trace)
    return _dense_extension(rep, entries, conj, g_power_c, c, generators, target_trace)


def _monomial_extension(rep: MonomialRep, P, E, conj, g_power_c, c: int, generators, target_trace):
    """Exponent-level extension along the monomial intertwiner T, which sends
    e_j to zeta_R^E[j] e_P[j] for index arrays P and E."""
    R = rep.R
    d = rep.dim
    Px, Ex = rep.matrices(generators)
    Pc, Ec = rep.matrices(conj[generators])
    # rho(conj(x)) T == T rho(x) for every generator, exponents mod R
    if not np.array_equal(Pc[:, P], P[Px]) or ((E + Ec[:, P] - Ex - E[Px]) % R).any():
        raise NotInvariantError("intertwiner verification failed")
    # T^k for k = 0, ..., c: T^k = T^(k-1) T sends e_j to e_(P^(k-1)[P[j]])
    powers = [(np.arange(d, dtype=np.int64), np.zeros(d, dtype=np.int64))]
    for _ in range(c):
        Pk, Ek = powers[-1]
        powers.append((Pk[P], (E + Ek[P]) % R))
    Pk, Ek = (np.stack(x) for x in zip(*powers))
    # normalize T^c = rho(g^c) up to a scalar, then pick the c-th-root twist
    # whose trace matches; the twist must be unique
    Pg, Eg = rep.matrices(g_power_c)
    if not np.array_equal(Pk[c], Pg):
        raise NotInvariantError("T^c does not have the support of rho(g^c)")
    ratios = np.unique((Ek[c] - Eg) % R)
    if len(ratios) != 1:
        raise NotInvariantError("T^c is not a scalar multiple of rho(g^c)")
    xi = int(ratios[0])
    f = next(t for t in range(R) if (c * t + xi) % R == 0)
    # the c candidate traces, as one (c, R) count array reduced in one call
    shifts = (f + np.arange(c, dtype=np.int64) * (R // c)) % R
    exps = E[P == np.arange(d)] + shifts[:, None]
    rows = np.arange(c).repeat(exps.shape[1])
    traces = reduce_counts(R, count_rows(rows, exps.ravel(), c, R))
    want = target_trace.coeffs if target_trace.n == R else None
    hits = [jj for jj, row in enumerate(traces.tolist()) if tuple(row) == want]
    if len(hits) > 1:
        raise NoExtensionError("trace does not pin down the scalar twist")
    if not hits:
        candidates = [CycloNum(R, row) for row in traces.tolist()]
        raise NoExtensionError(
            f"no scalar twist matches the target trace; candidates: {candidates}"
        )
    chosen = int(shifts[hits[0]])
    # the twisted T^k is zeta_R^(k chosen) T^k
    Ek = (Ek[:c] + np.arange(c, dtype=np.int64)[:, None] * chosen) % R
    return MonomialExtension(rep, Pk[:c], Ek, c, R), chosen


def _dense_extension(rep: MonomialRep, entries, conj, g_power_c, c: int, generators, target_trace):
    """Extension along a dense intertwiner (conj moves the inducing
    subgroup), given as solve_intertwiner's entries.  The phase-propagated
    intertwiner T is then no longer a root-of-unity multiple of the
    normalized one, so it is scaled to hit the target trace directly: with
    s1 = Tr T and N = s1 conj(s1), the extension sends g to A / N for
    A = target conj(s1) T, and A^c = N^c rho(g^c) is verified exactly.
    Candidate extensions differ by c-th roots of unity, with pairwise
    distinct traces once s1 != 0, so matching the target trace both picks
    the twist and certifies uniqueness.  Matrices are (d, d, R) count
    tensors, reduced by _count_matmul, so equal matrices are equal arrays."""
    R = rep.R
    d = rep.dim
    cols = np.arange(d)
    ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    T = _count_matrix(ij[:, 0], ij[:, 1], list(entries.values()), d, R)
    for P, E, Pp, Ep in zip(*rep.matrices(generators), *rep.matrices(conj[generators])):
        lhs = _count_matmul(_count_matrix(Pp, cols, Ep, d, R), T)
        if not np.array_equal(lhs, _count_matmul(T, _count_matrix(P, cols, E, d, R))):
            raise NotInvariantError("intertwiner verification failed")
    s1 = T[cols, cols].sum(axis=0)
    if not reduce_counts(R, [s1]).any():
        raise NoExtensionError(
            "unnormalized intertwiner is traceless; cannot pin down the twist"
        )
    # s1 != 0, so N is positive once rational
    norm = reduce_counts(R, [difference_counts([s1], [s1])])[0]
    if norm[1:].any():
        raise NoExtensionError(f"|Tr T|^2 = {CycloNum(R, norm.tolist())} is not rational")
    N = int(norm[0])
    if target_trace.n != R or any(x.denominator != 1 for x in target_trace.coeffs):
        raise NoExtensionError(f"target trace {target_trace} is not an integer of Q(zeta_{R})")
    scale = np.zeros(R, dtype=np.int64)
    scale[: len(target_trace.coeffs)] = [int(x) for x in target_trace.coeffs]
    scale = _count_matmul(scale[None, None], s1[None, None, -np.arange(R) % R])
    A = _count_matmul(np.eye(d, dtype=np.int64)[:, :, None] * scale, T)
    powers = [_count_matrix(cols, cols, 0, d, R)]
    for _ in range(c):
        powers.append(_count_matmul(powers[-1], A))
    Pg, Eg = rep.matrices(g_power_c)
    if not np.array_equal(powers[c], _reduced(R, N**c * _count_matrix(Pg, cols, Eg, d, R))):
        raise NoExtensionError("trace-matched scaling does not satisfy T^c = rho(g^c)")
    return CyclicExtension(rep, np.stack(powers[:c]), N, c, R), None


def _count_matrix(rows, cols, exps, d: int, R: int) -> np.ndarray:
    """The (d, d, R) count tensor of the matrix with entry zeta_R^exps[i] at
    (rows[i], cols[i]) for every i, and zeros elsewhere."""
    M = np.zeros((d, d, R), dtype=np.int64)
    M[rows, cols, np.asarray(exps) % R] = 1
    return M


def _count_matmul(X, Y) -> np.ndarray:
    """The product of the matrices with (a, b, R) and (b, c, R) count tensors
    X and Y, reduced: the roots zeta^x of X[i, k] and zeta^y of Y[k, j] meet
    at x + y in entry (i, j), through Y's rows rotated by every x."""
    R = X.shape[-1]
    top = int(np.abs(X).max(initial=0)) * int(np.abs(Y).max(initial=0)) * X.shape[1] * R
    if top > np.iinfo(np.int64).max:
        raise UnsupportedParametersError(f"a count matrix product leaves int64 for root order {R}")
    shifted = rotate_counts(Y[:, :, None, :], np.arange(R)[None, None, :])
    return _reduced(R, np.einsum("ikx,kjxe->ije", X, shifted))


def _reduced(R: int, counts) -> np.ndarray:
    """counts, an array of count rows along its last axis of length R,
    reduced mod Phi_R: the power-basis coefficients padded with zeros, in
    the same shape, so two rows are equal values exactly when equal."""
    coeffs = reduce_counts(R, counts.reshape(-1, R))
    return np.pad(coeffs, ((0, 0), (0, R - coeffs.shape[1]))).reshape(counts.shape)
