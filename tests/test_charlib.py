import numpy as np
import pytest

import oracles

from dllab.charlib import (
    AddChar,
    common_root_order,
    layer_as_additive_char,
    principal_units,
    theta_family,
    unit_characters,
)
from dllab.ffield import field
from dllab.repkit import inner_product


def test_addchar_is_additive_and_nontrivial():
    F = field(2, 2)
    for a in range(F.order):
        psi = AddChar(F, 2, a)
        for x in range(F.order):
            for y in range(F.order):
                assert (psi.table[x] + psi.table[y]) % 2 == psi.table[F.add(x, y)] % 2
        if a != 0:
            assert psi.table.any()


@pytest.mark.parametrize("p,k,q", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 4, 2), (2, 4, 4)])
def test_addchar_tables_match_the_scalar_oracles(p, k, q):
    F = field(p, k)
    for a in range(F.order):
        psi = AddChar(F, q, a)
        assert psi.table.tolist() == [oracles.addchar_exp(psi, x) for x in range(F.order)]
        assert psi.conductor_power() == oracles.conductor_power(psi)


def test_conductor_counts_q2():
    # over F_{q^2} with q = 3: q characters of conductor q (a in F_q),
    # q^2 - q of conductor q^2
    F = field(3, 2)
    ms = [AddChar(F, 3, a).conductor_power() for a in range(F.order)]
    assert ms.count(1) == 3
    assert ms.count(2) == 6


def test_trivial_character_has_conductor_one():
    F = field(2, 4)
    assert AddChar(F, 2, 0).conductor_power() == 1


def test_factor_through_trace():
    F = field(2, 4)
    sub = field(2, 2)
    # pick a in F_{q^2} \ F_q inside F_{q^4}, q = 2
    a_sub = 2
    a = int(F.embed_table(sub)[a_sub])
    psi = AddChar(F, 2, a)
    assert psi.conductor_power() == 2
    psi1 = psi.factor_through_trace(2)
    for x in range(F.order):
        assert psi.table[x] == psi1.table[F.trace_table(sub)[x]]


def test_additive_orthogonality():
    F = field(3, 1)
    for a in range(F.order):
        psi = AddChar(F, 3, a)
        s = sum(1 for x in range(F.order) if psi.table[x] % 3 == 0)
        if a == 0:
            assert s == 3
        else:
            assert s == 1


def test_principal_units_group_axioms():
    L = field(2, 2)
    G = principal_units(L, 3)
    assert len(G) == 16
    a = np.arange(16)
    assert not G.mul(a, G.inv(a)).any()
    # abelian here since L is commutative and pi is central
    a, b = np.divmod(np.arange(16 * 16), 16)
    assert np.array_equal(G.mul(a, b), G.mul(b, a))


@pytest.mark.parametrize("p,k,h", [(2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 3)])
def test_principal_units_are_truncated_polynomials(p, k, h):
    # the n = 1 twisted ring multiplies as L[pi]/(pi^h): its twist is trivial
    L = field(p, k)
    G = principal_units(L, h)
    N = L.order ** (h - 1)
    assert len(G) == N
    els = oracles.elements(G)
    a, b = np.divmod(np.arange(N * N), N)
    assert not G.mul(a, G.inv(a)).any()
    assert [els[x] for x in G.mul(a, b).tolist()] == [
        oracles.tp_mul(L, els[x], els[y]) for x, y in zip(a.tolist(), b.tolist())
    ]


def test_unit_characters_orthogonal():
    L = field(2, 1)
    G = principal_units(L, 3)  # Z/4 here: (1+pi)^2 = 1+pi^2 in char 2
    R = 4
    chis = unit_characters(G, R)
    assert len(chis) == len(G)
    ip = inner_product(chis[1], chis[1])
    assert ip.as_integer() == 1
    ip2 = inner_product(chis[1], chis[2])
    assert ip2.is_zero()


def test_layer_restriction_is_additive_char():
    L = field(2, 2)
    h = 2
    G = principal_units(L, h)
    R = 2
    seen = set()
    for chi in unit_characters(G, R):
        psi = layer_as_additive_char(G, chi, L, h, 2, R)
        seen.add(psi.a)
    assert seen == set(range(L.order))


def test_common_root_order():
    assert common_root_order(2, 2, 2, 1) % 2 == 0
    assert common_root_order(2, 2, 2, 1) % 3 == 0
    assert common_root_order(2, 3, 3, 2) % 9 == 0
    assert common_root_order(2, 3, 3, 2) % 8 == 0


def test_theta_family_counts_and_filter():
    thetas = theta_family(2, 2, 2, 1)
    # |units| = q^2 = 4 characters, (q^2-1) = 3 zeta exponents, 1 pi exponent
    assert len(thetas) == 12
    prim = theta_family(2, 2, 2, 1, conductor_m=2)
    assert len(prim) == (4 - 2) * 3
    for th in prim:
        psi = layer_as_additive_char(th.units, th.chi, th.L, 2, 2, th.R)
        assert psi.conductor_power() == 2
