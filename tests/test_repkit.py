"""Group/character toolkit tests on small explicit groups."""

import types

import numpy as np
import pytest

import oracles
from dllab.charlib import AddChar, principal_units, unit_characters
from dllab.constructions import (
    _pattern_data,
    _teichmueller_conj,
    build_rho_psi,
    divquot,
    gnq_group,
    unipotent_group,
)
from dllab.cyclo import (
    CycloNum,
    assert_nonneg_integer,
    count_rows,
    cyclo_from_counts,
    difference_counts,
    reduce_counts,
)
from dllab.errors import NoExtensionError, NotInvariantError
from dllab.ffield import field
from dllab.repkit import (
    MonomialRep,
    abelian_character_extensions,
    _dense_extension,
    _monomial_extension,
    coset_transversal,
    delta_sums,
    extend_irrep,
    inner_product,
    solve_intertwiner,
)
from dllab.twistring import twisted_ring


def cyclic_law(n):
    """Z/n on 1-tuples."""
    return (lambda a, b: ((a[0] + b[0]) % n,)), (lambda a: ((-a[0]) % n,))


def cyclic_group(n, elements=None, generators=((1,),)):
    els = [(a,) for a in range(n)] if elements is None else elements
    return oracles.table_group(els, cyclic_law(n), generators)


def c3_in_c6():
    """C3 = {0, 2, 4} inside C6, generated by 2, at the indices 0, 1, 2."""
    return cyclic_group(6, [(0,), (2,), (4,)], [(2,)])


# D4 as pairs (a, b) for r^a s^b
D4_LAW = (
    lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2),
    lambda x: ((-x[0] if x[1] == 0 else x[0]) % 4, x[1]),
)


def dihedral4():
    return oracles.table_group([(a, b) for a in range(4) for b in range(2)], D4_LAW, [(1, 0), (0, 1)])


def u22_group():
    """U^{2,2}(F_4), order 16, as tuples (1, a1, a2)."""
    R = twisted_ring(2, 2, 2, field(2, 2))
    els = list(oracles.enumerate_unipotent(R))
    gens = [g for g in els if sum(1 for c in g[1:] if c) == 1]
    return oracles.table_group(els, oracles.unipotent_law(R), gens), R


def indices(G, subgroup_set):
    """The element indices of a set of element tuples, increasing."""
    index = oracles.index(G)
    return np.array(sorted(index[h] for h in subgroup_set), dtype=np.int64)


def test_abelian_characters_orthogonal():
    G = cyclic_group(6)
    chars = unit_characters(G, 6)
    assert len(chars) == 6
    for c1 in chars:
        for c2 in chars:
            ip = inner_product(*(count_rows(np.arange(6), c, 6, 6) for c in (c1, c2)))
            expected = 1 if np.array_equal(c1, c2) else 0
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
    rep = MonomialRep(G, np.zeros(1, dtype=np.int64), np.zeros(len(G), dtype=np.int64), 4)
    reg = rep.character()
    assert cyclo_from_counts(4, reg[0]) == CycloNum.rational(4, 16)
    assert all(cyclo_from_counts(4, reg[g]).is_zero() for g in range(1, len(G)))
    assert assert_nonneg_integer(inner_product(reg, reg)) == 16


def test_conj_classes_u22():
    G, R = u22_group()
    classes = G.conj_classes()
    # order 16, center of order 4: 4 central singletons and 6 classes of size 2
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_transversal_covers_group():
    G, R = u22_group()
    H = np.flatnonzero(G.decode(np.arange(len(G)))[1] == 0)
    reps, coset = coset_transversal(G, H)
    assert len(reps) * len(H) == len(G)
    assert np.array_equal(coset[reps], np.arange(len(reps)))


def test_monomial_rep_multiplicative():
    # the index-array matrices, read as tuples, multiply as the oracle's
    # tuple product says, on all pairs
    G, R = u22_group()
    H = indices(G, {g for g in oracles.elements(G) if g[1] == 0})  # the center, abelian
    chi = abelian_character_extensions(G, H, ([0], [0]), 4)[1]
    rep = MonomialRep(G, H, chi, 4)
    mul = oracles.unipotent_law(R)[0]
    index = oracles.index(G)

    def matrix(g):
        return tuple(tuple(a.tolist()) for a in rep.matrices(index[g]))

    for a in oracles.elements(G):
        for b in oracles.elements(G):
            assert matrix(mul(a, b)) == oracles.monomial_mul(matrix(a), matrix(b), 4)


def test_cyclic_extension_degree_one():
    # N = C3 inside C6; extend a character of C3 to C6 with trace -1 at g=3
    N = c3_in_c6()
    # exponent mod 6: chi(2) = zeta_6^2 (order 3), at the indices of 0, 2, 4
    rep = MonomialRep(N, np.arange(3), np.array([0, 2, 4]), 6)
    ident, gens = np.arange(3), np.array([1])

    def extend_dense(rep, conj, g_power_c, c, generators, target_trace):
        entries = solve_intertwiner(rep, conj, generators, rep.R)
        return _dense_extension(rep, entries, conj, g_power_c, c, generators, target_trace)

    # the dispatching entry point (monomial here) and the dense path
    for extend in (extend_irrep, extend_dense):
        ext, s = extend(
            rep,
            conj=ident,
            g_power_c=0,
            c=2,
            generators=gens,
            target_trace=CycloNum.root(6, 3),  # -1
        )

        def value(k, u):
            counts = ext.trace_counts(np.array([k]), np.array([u]))
            return CycloNum(6, reduce_counts(6, counts)[0].tolist())

        assert value(0, 0) == CycloNum.rational(6, 1)
        assert value(1, 0) == CycloNum.root(6, 3)
        # consistency: value at (g * n) respects chi on N, at the element 2
        assert value(0, 1) == CycloNum.root(6, 2)
        with pytest.raises(NoExtensionError):
            extend(
                rep,
                conj=ident,
                g_power_c=0,
                c=2,
                generators=gens,
                target_trace=CycloNum.root(6, 1),
            )


@pytest.mark.parametrize("target,want", [
    (CycloNum.root(6, 3), 3),
    (CycloNum.rational(6, 1), 0),
    (CycloNum.root(6, 1), "no scalar twist matches the target trace; candidates: [1, -1]"),
])
def test_monomial_twist_is_the_candidate_with_the_target_trace(target, want):
    # C3 inside C6, c = 2: the two candidate twists have traces 1 and -1
    N = c3_in_c6()
    rep = MonomialRep(N, np.arange(3), oracles.exp_table(N, oracles.elements(N), lambda h: h[0]), 6)
    args = (rep, np.arange(3), 0, 2, np.array([1]), target)
    if isinstance(want, int):
        assert extend_irrep(*args)[1] == want
    else:
        with pytest.raises(NoExtensionError) as got:
            extend_irrep(*args)
        assert str(got.value) == want


def conj_perm(G, law, s):
    """x -> s x s^-1 through the tuple law, as an index permutation."""
    mul, inv = law
    index = oracles.index(G)
    return np.array([index[mul(mul(s, x), inv(s))] for x in oracles.elements(G)])


@pytest.mark.parametrize("target,want", [
    (0, "trace does not pin down the scalar twist"),
    (1, "no scalar twist matches the target trace; candidates: [0, 0]"),
])
def test_traceless_monomial_twists_are_refused(target, want):
    # the 2-dimensional irrep of D4 extended along conjugation by s: both
    # candidate traces vanish, so a zero target matches twice
    D4 = dihedral4()
    H = {(a, 0) for a in range(4)}
    rho = MonomialRep(D4, indices(D4, H), oracles.exp_table(D4, H, lambda h: h[0]), 4)
    conj = conj_perm(D4, D4_LAW, (0, 1))
    with pytest.raises(NoExtensionError) as got:
        extend_irrep(rho, conj, 0, 2, D4.generators, CycloNum.rational(4, target))
    assert str(got.value) == want


def test_solve_intertwiner_identity_conj():
    # trivial conjugation: T must be scalar for an irreducible rep
    C4 = cyclic_group(4)
    rep = MonomialRep(C4, np.arange(4), np.arange(4), 4)
    T = solve_intertwiner(rep, np.arange(4), C4.generators, 4)
    assert set(T) == {(0, 0)} and T[(0, 0)] == 0


@pytest.mark.parametrize("case,want", [
    ("conjugate", "no intertwiner: representation not invariant"),
    ("regular", "intertwiner space not one-dimensional; representation reducible?"),
])
def test_solve_intertwiner_refusals(case, want):
    if case == "conjugate":
        # chi(x) = i^x on C4 against x -> -x: no component is consistent,
        # since rho(-x) = i^-x is not i^x
        G = cyclic_group(4)
        rep, conj = MonomialRep(G, np.arange(4), np.arange(4), 4), -np.arange(4) % 4
    else:
        # the regular representation of C2 under the identity: T = 1 and
        # the swap both commute with it, two consistent components
        G = cyclic_group(2)
        trivial, chi = np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.int64)
        rep, conj = MonomialRep(G, trivial, chi, 2), np.arange(2)
    with pytest.raises(NotInvariantError) as got:
        solve_intertwiner(rep, conj, G.generators, rep.R)
    assert str(got.value) == want


def test_monomial_extension_refuses_a_power_off_scalar():
    # T = 1 under the identity conjugation intertwines, and T^2 = 1 has the
    # support of rho(r) = diag(i, -i) but is no scalar multiple of it
    D4 = dihedral4()
    H = {(a, 0) for a in range(4)}
    rho = MonomialRep(D4, indices(D4, H), oracles.exp_table(D4, H, lambda h: h[0]), 4)
    r = oracles.index(D4)[(1, 0)]
    T = np.arange(2), np.zeros(2, dtype=np.int64)
    with pytest.raises(NotInvariantError) as got:
        _monomial_extension(rho, *T, np.arange(8), r, 2, D4.generators, CycloNum.rational(4, 0))
    assert str(got.value) == "T^c is not a scalar multiple of rho(g^c)"


@pytest.mark.parametrize("seed", range(6))
def test_delta_sums_deltas_are_the_sorted_distinct_differences(seed):
    # any extension: random count rows per (k, u) column, c up to 7, and
    # pairs whose differences k2 - k1 mod c may miss some residues
    rng = np.random.default_rng(seed)
    c, R, N = int(rng.integers(1, 8)), 4, int(rng.integers(0, 30))
    table = rng.integers(0, 3, size=(c, 5, R))
    ext = types.SimpleNamespace(c=c, R=R, trace_counts=lambda k, u: table[k % c, u])
    pairs = np.stack([rng.integers(0, c, N), rng.integers(0, 5, N),
                      rng.integers(0, c, N), rng.integers(0, 5, N)])
    deltas, rows = delta_sums(ext, pairs)
    delta = (pairs[2] - pairs[0]) % c
    assert deltas.tolist() == np.unique(delta).tolist()
    a, b = table[pairs[2] % c, pairs[3]], table[pairs[0] % c, pairs[1]]
    want = [difference_counts(a[delta == d], b[delta == d]) for d in np.unique(delta)]
    assert rows.shape == (len(deltas), R)
    assert rows.tolist() == [w.tolist() for w in want]


# -- index laws against the tuple-law oracles ------------------------------------

LAW_PARAMS = [(2, 2), (2, 3), (3, 2)]


def family_law(family, n, q):
    """(G, its tuple law) for one of the two unipotent families."""
    G, extra = family(n, q)
    if family is unipotent_group:
        return G, oracles.unipotent_law(extra)
    return G, oracles.gnq_law(extra, n, q)


def assert_index_bodies_match_scalar(G, law, H, chi, R):
    """coset_transversal, MonomialRep and its character on (G, H, chi) against
    the oracles that use G's tuple law: the supports and the matrices read
    through the chi table, on every element.  H is a set of element tuples
    and chi a function on them."""
    els = oracles.elements(G)
    transversal, supports = oracles.monomial_supports(G, law, H)
    table = oracles.exp_table(G, H, chi)
    rep = MonomialRep(G, indices(G, H), table, R)
    reps, _ = coset_transversal(G, indices(G, H))
    assert [els[i] for i in reps.tolist()] == oracles.coset_transversal(G, law, H) == transversal
    assert np.array_equal(rep.transversal, reps)
    perm, h = rep._supports
    matrix = oracles.monomial_matrices(rep, law, chi)
    for i, g in enumerate(els):
        hs = tuple(els[x] for x in h[i].tolist())
        assert (tuple(perm[i].tolist()), hs) == supports[g]
        assert tuple(tuple(a.tolist()) for a in rep.matrices(i)) == matrix(g)
    assert np.array_equal(rep.character(), oracles.induce_char(G, law, H, chi, R))


def assert_classes_match_bfs(G, law):
    els = oracles.elements(G)
    classes = [[els[i] for i in c.tolist()] for c in G.conj_classes()]
    bfs = oracles.conj_classes(G, law)
    assert [c[0] for c in classes] == [c[0] for c in bfs]
    assert [len(c) for c in classes] == [len(c) for c in bfs]
    assert all(set(c) == set(d) for c, d in zip(classes, bfs))


# (group, its tuple law, [(subgroup, exponent of its linear character, root order)])
TOY_GROUPS = {
    "C4": lambda: (cyclic_group(4), cyclic_law(4), [({(0,)}, lambda h: 0, 4),
                                                    ({(0,), (2,)}, lambda h: h[0], 4),
                                                    ({(a,) for a in range(4)}, lambda h: h[0], 4)]),
    "D4": lambda: (dihedral4(), D4_LAW, [({(a, 0) for a in range(4)}, lambda h: h[0], 4),
                                         ({(0, 0), (0, 1)}, lambda h: 2 * h[1], 4),
                                         ({(0, 0), (2, 0)}, lambda h: h[0], 4)]),
    "C6": lambda: (cyclic_group(6), cyclic_law(6),
                   [({(0,), (2,), (4,)}, lambda h: h[0], 6), ({(0,), (3,)}, lambda h: h[0], 6)]),
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
    els, index = oracles.elements(G), oracles.index(G)
    prod = G.mul(a, b).tolist()
    assert prod == [index[mul(els[x], els[y])] for x, y in zip(a.tolist(), b.tolist())]
    assert G.inv(a).tolist() == [index[inv(els[x])] for x in a.tolist()]


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


def _unipotent_case(n, q, h=2):
    G, ring = unipotent_group(n, q, h)
    return G, oracles.unipotent_tuples(ring)


def _gnq_case(n, q):
    G, F = gnq_group(n, q)
    return G, oracles.gnq_tuples(F, n)


def _divquot_case(*params):
    dq = divquot(*params)
    return dq.group, oracles.divquot_tuples(dq)


def _units_case(p, k, h):
    L = field(p, k)
    return principal_units(L, h), oracles.principal_unit_tuples(L, h)


GROUP_CASES = {
    "unipotent-223": lambda: _unipotent_case(2, 2, 3),
    "unipotent-322": lambda: _unipotent_case(3, 2),
    "gnq-23": lambda: _gnq_case(2, 3),
    "gnq-32": lambda: _gnq_case(3, 2),
    "divquot-223": lambda: _divquot_case(2, 2, 3),
    "divquot-2222": lambda: _divquot_case(2, 2, 2, 2),
    "divquot-2232": lambda: _divquot_case(2, 2, 3, 2),
    "units-4-3": lambda: _units_case(2, 2, 3),
    "units-9-3": lambda: _units_case(3, 2, 3),
}


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_element_zero_is_the_identity_of_every_index_law(case):
    G, _ = GROUP_CASES[case]()
    i = np.arange(len(G), dtype=np.int64)
    zero = np.zeros_like(i)
    assert np.array_equal(G.mul(zero, i), i)
    assert np.array_equal(G.mul(i, zero), i)
    assert G.inv(zero[:1]).tolist() == [0]


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_decode_and_generators_match_the_tuple_enumeration(case):
    # decode on every index, column by column, against the seed's tuple
    # enumeration of the family; and the generator indices against the
    # seed's tuple generators, in their order
    G, (els, gens) = GROUP_CASES[case]()
    cols = G.decode(np.arange(len(G), dtype=np.int64))
    assert len(G) == len(els)
    assert cols.dtype == np.int64 and cols.shape == (len(els[0]), len(els))
    for row, want in zip(cols.tolist(), zip(*els)):
        assert row == list(want)
    index = {g: i for i, g in enumerate(els)}
    assert G.generators.dtype == np.int64
    assert G.generators.tolist() == [index[g] for g in gens]


@pytest.mark.parametrize("n,q,h", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_teichmueller_conj_matches_the_tuple_scalar_conj(n, q, h):
    # the permutation that the eta builds pass as conj, against conjugation
    # by the constant F.gen on every tuple of the group, one coefficient at
    # a time
    U, ring = unipotent_group(n, q, h)
    els = list(oracles.enumerate_unipotent(ring))
    index = {g: i for i, g in enumerate(els)}
    gen = ring.coeff_field.gen
    want = [index[oracles.scalar_conj(ring, gen, x)] for x in els]
    assert _teichmueller_conj(n, q, h).tolist() == want


def test_conj_classes_match_the_bfs_on_the_level3_quotient():
    dq = divquot(2, 2, 3)
    assert len(dq.group.conj_classes()) == 54
    assert_classes_match_bfs(dq.group, oracles.divquot_law(dq.ring, dq.nM))


def test_conj_classes_of_the_q3_quotient():
    # the BFS takes about 17 s here, so only the invariants are checked
    G = divquot(2, 3, 3).group
    classes = G.conj_classes()
    assert len(classes) == 639
    assert sum(len(c) for c in classes) == len(G) == 104_976
    assert all(np.all(np.diff(c) > 0) for c in classes)
    assert np.all(np.diff([c[0] for c in classes]) > 0)


@pytest.mark.parametrize("family", [unipotent_group, gnq_group])
@pytest.mark.parametrize("n,q", LAW_PARAMS)
def test_conj_classes_match_the_bfs_on_the_unipotent_families(family, n, q):
    G, law = family_law(family, n, q)
    els = oracles.elements(G)
    classes, bfs = G.conj_classes(), oracles.conj_classes(G, law)
    assert [(els[c[0]], len(c)) for c in classes] == [(c[0], len(c)) for c in bfs]


@pytest.mark.parametrize("mirror", [False, True], ids=["thm31", "thm32"])
@pytest.mark.parametrize("n,q", LAW_PARAMS)
def test_index_induction_matches_scalar_on_every_rho(mirror, n, q):
    # thm31 at (3, 2) is also the family of dump --kind char-table --n 3 --q 2
    _, F = gnq_group(n, q)
    branches = set()
    for a in range(F.order):
        data = build_rho_psi(n, q, AddChar(F, q, a), mirror=mirror)
        G, rep, R = data.group, data.rep, data.R
        law = family_law(gnq_group if mirror else unipotent_group, n, q)[1]
        els, index = oracles.elements(G), oracles.index(G)
        # the chi table extends the transferred character on the pattern
        # subgroup, and is that character on branch 1
        assert rep.chi[data.H].tolist() == data.pattern_exp.tolist()
        assert data.branch == 2 or np.array_equal(data.H, rep.H)

        def chi(h):
            return int(rep.chi[index[h]])

        assert_index_bodies_match_scalar(G, law, {els[i] for i in rep.H.tolist()}, chi, R)
        pattern = dict(zip([els[i] for i in data.H.tolist()], data.pattern_exp.tolist()))
        # the pattern subgroup's own induction, which the branch-2
        # multiplicity check reads
        table = oracles.exp_table(G, pattern, pattern.__getitem__)
        fast = MonomialRep(G, data.H, table, R).character()
        slow = oracles.induce_char(G, law, set(pattern), pattern.__getitem__, R)
        assert np.array_equal(fast, slow)
        want = oracles.induce_char(G, law, {els[i] for i in rep.H.tolist()}, chi, R)
        assert np.array_equal(data.char, want)
        branches.add(data.branch)
    # the conductor-q^2 characters at n = 2 take the halved branch
    assert branches == ({1, 2} if n == 2 else {1})


# -- linear characters against the dict walk ---------------------------------------


def assert_extensions_match_the_dict_walk(G, law, members, base, R):
    """abelian_character_extensions on (G, members, base) against the dict
    walk over the same elements: the same tables in the same order."""
    idx, exps = base
    els = oracles.elements(G)
    walk = oracles.abelian_character_extensions(
        [els[i] for i in members], law, dict(zip([els[i] for i in idx], exps)), R
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
    assert np.array_equal(
        unit_characters(G, R), abelian_character_extensions(G, range(len(G)), ([0], [0]), R)
    )


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
    psis = [AddChar(F, q, a) for a in range(F.order) if AddChar(F, q, a).conductor_power() == 2]
    assert psis
    for psi in psis:
        data = build_rho_psi(2, q, psi)
        pat = _pattern_data(2, q, 2, False)
        assert data.branch == pat.branch == 2
        assert np.array_equal(data.H, pat.H)
        base = (pat.H, data.pattern_exp)
        law = oracles.unipotent_law(ring)
        assert_extensions_match_the_dict_walk(U, law, pat.inducing, base, data.R)
        tables = abelian_character_extensions(U, pat.inducing, base, data.R)
        assert np.array_equal(data.rep.chi, tables[0])
