"""Group/character toolkit tests on small explicit groups."""

import pytest

from dllab.charlib import unit_characters
from dllab.cyclo import CycloNum
from dllab.errors import NoExtensionError
from dllab.ffield import field
from dllab.repkit import (
    CyclicExtension,
    ExpChar,
    GroupModel,
    MonomialRep,
    abelian_character_extensions,
    assert_nonneg_integer,
    _dense_extension,
    coset_transversal,
    extend_irrep,
    induce_char,
    inner_product,
    monomial_mul,
    solve_intertwiner,
)
from dllab.twistring import enumerate_unipotent, twisted_ring


def cyclic_group(n):
    return GroupModel(
        range(n),
        mul=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        one=0,
        generators=[1],
    )


def u22_group():
    """U^{2,2}(F_4), order 16, as tuples (1, a1, a2)."""
    R = twisted_ring(2, 2, 2, field(2, 2))
    els = list(enumerate_unipotent(R))
    gens = [g for g in els if sum(1 for c in g[1:] if c) == 1]
    return GroupModel(els, mul=R.mul, inv=R.inv, one=R.one, generators=gens), R


def test_abelian_characters_orthogonal():
    G = cyclic_group(6)
    chars = unit_characters(G, 6)
    assert len(chars) == 6
    for c1 in chars:
        for c2 in chars:
            ip = inner_product(c1, c2)
            expected = 1 if c1.table == c2.table else 0
            assert ip == CycloNum.rational(6, expected)


def test_character_extension_counts():
    G = cyclic_group(4)
    base = {0: 0, 2: 6}  # order-2 subgroup, nontrivial character (exp 6 of 12)
    exts = abelian_character_extensions(G, base, 12)
    assert len(exts) == 2
    for chi in exts:
        assert (2 * chi[1]) % 12 == 6
        assert chi[2] == 6


def test_regular_character():
    G, R = u22_group()
    reg = induce_char(G, {G.one}, lambda h: 0, 4)
    assert reg.value(G.one) == CycloNum.rational(4, 16)
    assert all(reg.value(g).is_zero() for g in G.elements if g != G.one)
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
    G, R = u22_group()
    H = {g for g in G.elements if g[1] == 0}  # the center, abelian
    sub = GroupModel(
        [g for g in G.elements if g[1] == 0], G.mul, G.inv, G.one, generators=None
    )
    chi = abelian_character_extensions(sub, {G.one: 0}, 4)[1]
    rep = MonomialRep(G, H, lambda h: chi[h], 4)
    for a in G.elements[:6]:
        for b in G.elements[:6]:
            assert rep.matrix(G.mul(a, b)) == monomial_mul(rep.matrix(a), rep.matrix(b), 4)


def test_cyclic_extension_degree_one():
    # N = C3 inside C6; extend a character of C3 to C6 with trace -1 at g=3
    C6 = cyclic_group(6)
    N = GroupModel([0, 2, 4], C6.mul, C6.inv, 0, generators=[2])
    chi = {0: 0, 2: 2, 4: 4}  # exponent mod 6: chi(2) = zeta_6^2 (order 3)
    rep = MonomialRep(N, set(N.elements), lambda h: chi[h], 6)

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
        assert ext.value(0, 0) == CycloNum.rational(6, 1)
        assert ext.value(1, 0) == CycloNum.root(6, 3)
        # consistency: value at (g * n) respects chi on N
        assert ext.value(0, 2) == CycloNum.root(6, 2)
        with pytest.raises(NoExtensionError):
            extend(
                rep,
                conj=lambda x: x,
                g_power_c=0,
                c=2,
                generators=[2],
                target_trace=CycloNum.root(6, 1),
            )


def test_solve_intertwiner_identity_conj():
    # trivial conjugation: T must be scalar for an irreducible rep
    C4 = cyclic_group(4)
    chi = {0: 0, 1: 1, 2: 2, 3: 3}
    rep = MonomialRep(C4, set(C4.elements), lambda h: chi[h], 4)
    T = solve_intertwiner(rep, lambda x: x, [1], 4)
    assert set(T) == {(0, 0)} and T[(0, 0)] == 0
