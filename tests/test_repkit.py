"""Group/character toolkit tests on small explicit groups."""

import numpy as np
import pytest

import oracles
from dllab.charlib import AddChar, principal_units, unit_characters
from dllab.constructions import _pattern_data, build_rho_psi, divquot, gnq_group, unipotent_group
from dllab.cyclo import CycloNum, assert_nonneg_integer, reduce_counts
from dllab.errors import NoExtensionError
from dllab.ffield import field
from dllab.repkit import (
    GroupModel,
    MonomialRep,
    abelian_character_extensions,
    _dense_extension,
    coset_transversal,
    extend_irrep,
    induce_char,
    inner_product,
    solve_intertwiner,
)
from dllab.twistring import enumerate_unipotent, twisted_ring


def tabled(elements, law, generators):
    """A small group whose index law is read off the tables of its tuple
    law (mul, inv)."""
    return GroupModel(elements, *oracles.table_law(elements, *law), generators=generators)


def cyclic_law(n):
    return (lambda a, b: (a + b) % n), (lambda a: (-a) % n)


def cyclic_group(n):
    return tabled(range(n), cyclic_law(n), [1])


# D4 as pairs (a, b) for r^a s^b
D4_LAW = (
    lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2),
    lambda x: ((-x[0] if x[1] == 0 else x[0]) % 4, x[1]),
)


def dihedral4():
    return tabled([(a, b) for a in range(4) for b in range(2)], D4_LAW, [(1, 0), (0, 1)])


def u22_group():
    """U^{2,2}(F_4), order 16, as tuples (1, a1, a2)."""
    R = twisted_ring(2, 2, 2, field(2, 2))
    els = list(enumerate_unipotent(R))
    gens = [g for g in els if sum(1 for c in g[1:] if c) == 1]
    return tabled(els, oracles.unipotent_law(R), gens), R


def test_abelian_characters_orthogonal():
    G = cyclic_group(6)
    chars = unit_characters(G, 6)
    assert len(chars) == 6
    for c1 in chars:
        for c2 in chars:
            ip = inner_product(c1, c2)
            expected = 1 if np.array_equal(c1.table, c2.table) else 0
            assert ip == CycloNum.rational(6, expected)


def test_character_extension_counts():
    G = cyclic_group(4)
    # order-2 subgroup, nontrivial character (exp 6 of 12)
    exts = abelian_character_extensions(G, range(4), ([0, 2], [0, 6]), 12)
    assert len(exts) == 2
    for chi in exts:
        assert (2 * chi[1]) % 12 == 6
        assert chi[2] == 6


def test_regular_character():
    G, R = u22_group()
    one = G.elements[0]
    reg = induce_char(G, {one}, lambda h: 0, 4)
    assert reg.value(one) == CycloNum.rational(4, 16)
    assert all(reg.value(g).is_zero() for g in G.elements if g != one)
    assert assert_nonneg_integer(inner_product(reg, reg)) == 16


def test_conj_classes_u22():
    G, R = u22_group()
    classes = G.conj_classes()
    # order 16, center of order 4: 4 central singletons and 6 classes of size 2
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_transversal_covers_group():
    G, R = u22_group()
    H = {g for g in G.elements if g[1] == 0}
    reps = coset_transversal(G, H)
    assert len(reps) * len(H) == len(G)


def test_monomial_rep_multiplicative():
    # the index-array matrices, read as tuples, multiply as the oracle's
    # tuple product says, on all pairs
    G, R = u22_group()
    H = {g for g in G.elements if g[1] == 0}  # the center, abelian
    chi = abelian_character_extensions(G, G.indices(sorted(H)), ([0], [0]), 4)[1]
    rep = MonomialRep(G, H, chi, 4)
    mul = oracles.unipotent_law(R)[0]

    def matrix(g):
        return tuple(tuple(a.tolist()) for a in rep.matrices(G.index[g]))

    for a in G.elements:
        for b in G.elements:
            assert matrix(mul(a, b)) == oracles.monomial_mul(matrix(a), matrix(b), 4)


def test_cyclic_extension_degree_one():
    # N = C3 inside C6; extend a character of C3 to C6 with trace -1 at g=3
    N = tabled([0, 2, 4], cyclic_law(6), [2])
    chi = {0: 0, 2: 2, 4: 4}  # exponent mod 6: chi(2) = zeta_6^2 (order 3)
    rep = MonomialRep(N, set(N.elements), oracles.exp_table(N, N.elements, chi.__getitem__), 6)

    def extend_dense(rep, conj, g_power_c, c, generators, target_trace):
        entries = solve_intertwiner(rep, conj, generators, rep.R)
        return _dense_extension(rep, entries, conj, g_power_c, c, generators, target_trace)

    # the dispatching entry point (monomial here) and the dense path
    for extend in (extend_irrep, extend_dense):
        ext, s = extend(
            rep,
            conj=lambda x: x,
            g_power_c=0,
            c=2,
            generators=[2],
            target_trace=CycloNum.root(6, 3),  # -1
        )

        def value(k, u):
            counts = ext.trace_counts(np.array([k]), N.indices([u]))
            return CycloNum(6, reduce_counts(6, counts)[0].tolist())

        assert value(0, 0) == CycloNum.rational(6, 1)
        assert value(1, 0) == CycloNum.root(6, 3)
        # consistency: value at (g * n) respects chi on N
        assert value(0, 2) == CycloNum.root(6, 2)
        with pytest.raises(NoExtensionError):
            extend(
                rep,
                conj=lambda x: x,
                g_power_c=0,
                c=2,
                generators=[2],
                target_trace=CycloNum.root(6, 1),
            )


@pytest.mark.parametrize("target,want", [
    (CycloNum.root(6, 3), 3),
    (CycloNum.rational(6, 1), 0),
    (CycloNum.root(6, 1), "no scalar twist matches the target trace; candidates: [1, -1]"),
])
def test_monomial_twist_is_the_candidate_with_the_target_trace(target, want):
    # C3 inside C6, c = 2: the two candidate twists have traces 1 and -1
    N = tabled([0, 2, 4], cyclic_law(6), [2])
    rep = MonomialRep(N, set(N.elements), oracles.exp_table(N, N.elements, lambda h: h), 6)
    if isinstance(want, int):
        assert extend_irrep(rep, lambda x: x, 0, 2, [2], target)[1] == want
    else:
        with pytest.raises(NoExtensionError) as got:
            extend_irrep(rep, lambda x: x, 0, 2, [2], target)
        assert str(got.value) == want


@pytest.mark.parametrize("target,want", [
    (0, "trace does not pin down the scalar twist"),
    (1, "no scalar twist matches the target trace; candidates: [0, 0]"),
])
def test_traceless_monomial_twists_are_refused(target, want):
    # the 2-dimensional irrep of D4 extended along conjugation by s: both
    # candidate traces vanish, so a zero target matches twice
    D4 = dihedral4()
    H = {(a, 0) for a in range(4)}
    rho = MonomialRep(D4, H, oracles.exp_table(D4, H, lambda h: h[0]), 4)
    s = (0, 1)

    mul, inv = D4_LAW

    def conj(x):
        return mul(mul(s, x), inv(s))

    with pytest.raises(NoExtensionError) as got:
        extend_irrep(rho, conj, (0, 0), 2, [(1, 0), s], CycloNum.rational(4, target))
    assert str(got.value) == want


def test_solve_intertwiner_identity_conj():
    # trivial conjugation: T must be scalar for an irreducible rep
    C4 = cyclic_group(4)
    chi = {0: 0, 1: 1, 2: 2, 3: 3}
    rep = MonomialRep(C4, set(C4.elements), oracles.exp_table(C4, C4.elements, chi.__getitem__), 4)
    T = solve_intertwiner(rep, lambda x: x, [1], 4)
    assert set(T) == {(0, 0)} and T[(0, 0)] == 0



# -- index laws against the tuple-law oracles ------------------------------------

LAW_PARAMS = [(2, 2), (2, 3), (3, 2)]


def family_law(family, n, q):
    """(G, its tuple law) for one of the two unipotent families."""
    G, extra = family(n, q)
    if family is unipotent_group:
        return G, oracles.unipotent_law(extra)
    return G, oracles.gnq_law(extra, n, q)


def assert_index_bodies_match_scalar(G, law, H, chi, R):
    """coset_transversal, MonomialRep and induce_char on (G, H, chi) against
    the oracles that use G's tuple law: the supports and the matrices read
    through the chi table, on every element."""
    transversal, supports = oracles.monomial_supports(G, law, H)
    rep = MonomialRep(G, H, oracles.exp_table(G, H, chi), R)
    assert coset_transversal(G, H) == oracles.coset_transversal(G, law, H) == transversal
    assert rep.transversal == transversal
    perm, h = rep._supports
    matrix = oracles.monomial_matrices(rep, law, chi)
    for i, g in enumerate(G.elements):
        hs = tuple(G.elements[x] for x in h[i].tolist())
        assert (tuple(perm[i].tolist()), hs) == supports[g]
        assert tuple(tuple(a.tolist()) for a in rep.matrices(i)) == matrix(g)
    fast, slow = induce_char(G, H, chi, R), oracles.induce_char(G, law, H, chi, R)
    assert np.array_equal(fast.counts, slow.counts)
    assert np.array_equal(rep.character().counts, slow.counts)


def assert_classes_match_bfs(G, law):
    classes, bfs = G.conj_classes(), oracles.conj_classes(G, law)
    assert [c[0] for c in classes] == [c[0] for c in bfs]
    assert [len(c) for c in classes] == [len(c) for c in bfs]
    assert all(set(c) == set(d) for c, d in zip(classes, bfs))


# (group, its tuple law, [(subgroup, exponent of its linear character, root order)])
TOY_GROUPS = {
    "C4": lambda: (cyclic_group(4), cyclic_law(4), [({0}, lambda h: 0, 4),
                                                    ({0, 2}, lambda h: h, 4),
                                                    (set(range(4)), lambda h: h, 4)]),
    "D4": lambda: (dihedral4(), D4_LAW, [({(a, 0) for a in range(4)}, lambda h: h[0], 4),
                                         ({(0, 0), (0, 1)}, lambda h: 2 * h[1], 4),
                                         ({(0, 0), (2, 0)}, lambda h: h[0], 4)]),
    "C6": lambda: (cyclic_group(6), cyclic_law(6),
                   [({0, 2, 4}, lambda h: h, 6), ({0, 3}, lambda h: h, 6)]),
}


@pytest.mark.parametrize("name", sorted(TOY_GROUPS))
def test_index_bodies_match_scalar_oracles_on_toy_groups(name):
    G, law, cases = TOY_GROUPS[name]()
    N = len(G)
    a, b = np.divmod(np.arange(N * N, dtype=np.int64), N)
    law_matches_scalar(G, law, a, b)
    assert_classes_match_bfs(G, law)
    for H, chi, R in cases:
        assert_index_bodies_match_scalar(G, law, H, chi, R)


def law_matches_scalar(G, law, a, b):
    mul, inv = law
    els = G.elements
    prod = G.mul(a, b).tolist()
    assert prod == [G.index[mul(els[x], els[y])] for x, y in zip(a.tolist(), b.tolist())]
    assert G.inv(a).tolist() == [G.index[inv(els[x])] for x in a.tolist()]


@pytest.mark.parametrize("family", [unipotent_group, gnq_group])
@pytest.mark.parametrize("n,q", LAW_PARAMS)
def test_index_law_matches_scalar_on_all_pairs(family, n, q):
    G, law = family_law(family, n, q)
    N = len(G)
    a, b = np.divmod(np.arange(N * N, dtype=np.int64), N)
    law_matches_scalar(G, law, a, b)


@pytest.mark.parametrize("params", [(2, 2, 3), (2, 2, 2, 2), (3, 2, 2)])
def test_divquot_index_law_matches_scalar_on_a_sample(params):
    dq = divquot(*params)
    G = dq.group
    a, b = np.random.default_rng(3).integers(0, len(G), size=(2, 3000))
    law_matches_scalar(G, oracles.divquot_law(dq.ring, dq.nM), a, b)


@pytest.mark.parametrize(
    "group",
    [
        lambda: unipotent_group(2, 2, 3)[0],
        lambda: unipotent_group(3, 2)[0],
        lambda: gnq_group(2, 3)[0],
        lambda: gnq_group(3, 2)[0],
        lambda: divquot(2, 2, 3).group,
        lambda: divquot(2, 2, 2, 2).group,
        lambda: principal_units(field(2, 2), 3),
        lambda: principal_units(field(3, 2), 3),
    ],
    ids=["unipotent-223", "unipotent-322", "gnq-23", "gnq-32", "divquot-223", "divquot-2222",
         "units-4-3", "units-9-3"],
)
def test_element_zero_is_the_identity_of_every_index_law(group):
    G = group()
    i = np.arange(len(G), dtype=np.int64)
    zero = np.zeros_like(i)
    assert np.array_equal(G.mul(zero, i), i)
    assert np.array_equal(G.mul(i, zero), i)
    assert G.inv(zero[:1]).tolist() == [0]


def test_conj_classes_match_the_bfs_on_the_level3_quotient():
    dq = divquot(2, 2, 3)
    assert len(dq.group.conj_classes()) == 54
    assert_classes_match_bfs(dq.group, oracles.divquot_law(dq.ring, dq.nM))


def test_conj_classes_of_the_q3_quotient():
    # the BFS takes about 17 s here, so only the invariants are checked
    G = divquot(2, 3, 3).group
    classes = G.conj_classes()
    index = G.index
    assert len(classes) == 639
    assert sum(len(c) for c in classes) == len(G) == 104_976
    assert all(index[c[0]] == min(index[x] for x in c) for c in classes)


@pytest.mark.parametrize("family", [unipotent_group, gnq_group])
@pytest.mark.parametrize("n,q", LAW_PARAMS)
def test_conj_classes_match_the_bfs_on_the_unipotent_families(family, n, q):
    G, law = family_law(family, n, q)
    classes, bfs = G.conj_classes(), oracles.conj_classes(G, law)
    assert [(c[0], len(c)) for c in classes] == [(c[0], len(c)) for c in bfs]


@pytest.mark.parametrize("mirror", [False, True], ids=["thm31", "thm32"])
@pytest.mark.parametrize("n,q", LAW_PARAMS)
def test_index_induction_matches_scalar_on_every_rho(mirror, n, q):
    # thm31 at (3, 2) is also the family of dump --kind char-table --n 3 --q 2
    _, F = gnq_group(n, q)
    for a in F.elements():
        data = build_rho_psi(n, q, AddChar(F, q, a), mirror=mirror)
        G, rep, R = data.group, data.rep, data.R
        law = family_law(gnq_group if mirror else unipotent_group, n, q)[1]
        # the chi table extends the transferred character on the pattern
        # subgroup, and is that character on branch 1
        pattern = data.pattern_exp
        assert rep.chi[G.indices(pattern)].tolist() == list(pattern.values())
        assert data.branch == 2 or set(pattern) == rep.H

        def chi(h):
            return int(rep.chi[G.index[h]])

        assert_index_bodies_match_scalar(G, law, rep.H, chi, R)
        fast = induce_char(G, data.pattern_subgroup, pattern.__getitem__, R)
        slow = oracles.induce_char(G, law, data.pattern_subgroup, pattern.__getitem__, R)
        assert np.array_equal(fast.counts, slow.counts)
        assert np.array_equal(data.char.counts, oracles.induce_char(G, law, rep.H, chi, R).counts)


# -- linear characters against the dict walk ---------------------------------------


def assert_extensions_match_the_dict_walk(G, law, members, base, R):
    """abelian_character_extensions on (G, members, base) against the dict
    walk over the same elements: the same tables in the same order."""
    idx, exps = base
    els = [G.elements[i] for i in members]
    walk = oracles.abelian_character_extensions(
        els, law, dict(zip([G.elements[i] for i in idx], exps)), R
    )
    tables = abelian_character_extensions(G, members, base, R)
    assert len(walk) > 1
    assert tables.tolist() == [oracles.exp_table(G, chi, chi.__getitem__).tolist() for chi in walk]


@pytest.mark.parametrize("p,k,h,R", [(2, 2, 3, 4), (3, 2, 3, 9), (2, 3, 2, 2)])
def test_unit_characters_match_the_dict_walk(p, k, h, R):
    # the principal units over F_4 and F_9 at h = 3 and over F_8 at h = 2
    L = field(p, k)
    G = principal_units(L, h)
    ring = twisted_ring(1, L.order, h, L)
    law = oracles.unipotent_law(ring)
    assert_extensions_match_the_dict_walk(G, law, range(len(G)), ([0], [0]), R)
    assert [c.table.tolist() for c in unit_characters(G, R)] == abelian_character_extensions(
        G, range(len(G)), ([0], [0]), R
    ).tolist()


def test_extensions_on_c6_match_the_dict_walk():
    G = cyclic_group(6)
    law = cyclic_law(6)
    assert_extensions_match_the_dict_walk(G, law, range(6), ([0], [0]), 6)
    assert_extensions_match_the_dict_walk(G, law, range(6), ([0, 3], [0, 3]), 6)


@pytest.mark.parametrize("q", [2, 3])
def test_halved_branch_extensions_match_the_dict_walk(q):
    # every psi of conductor q^2 at n = 2: the enlarged subgroup's
    # extensions of the transferred character, whose first is rho's chi
    U, ring = unipotent_group(2, q)
    F = ring.coeff_field
    psis = [AddChar(F, q, a) for a in F.elements() if AddChar(F, q, a).conductor_power() == 2]
    assert psis
    for psi in psis:
        data = build_rho_psi(2, q, psi)
        pat = _pattern_data(2, q, 2, False)
        assert data.branch == pat.branch == 2
        exps = [data.pattern_exp[U.elements[i]] for i in pat.H.tolist()]
        base = (pat.H, exps)
        law = oracles.unipotent_law(ring)
        assert_extensions_match_the_dict_walk(U, law, pat.inducing, base, data.R)
        tables = abelian_character_extensions(U, pat.inducing, base, data.R)
        assert np.array_equal(data.rep.chi, tables[0])
