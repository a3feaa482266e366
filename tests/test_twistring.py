"""Twisted ring tests.

Hand-computed oracle for (n, q, h) = (2, 2, 2) over F_4 with w = x:
(1 + w tau)^2 = 1 + (w + w) tau + w * w^2 tau^2 = 1 + tau^2,
since tau * w = w^2 tau and w^3 = 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dllab.ffield import field
from dllab.twistring import h_m_pattern, nu_prime_m, twisted_ring
from oracles import (
    enumerate_unipotent,
    gnq_frobenius,
    gnq_inv,
    gnq_mul,
    lang,
    ring_inv,
    ring_mul,
    ring_one,
    scalar,
    scalar_conj,
)


def ring_2_2_2():
    return twisted_ring(2, 2, 2, field(2, 2))


def test_square_oracle_f4():
    R = ring_2_2_2()
    w = field(2, 2).gen
    g = (1, w, 0)
    assert ring_mul(R, g, g) == (1, 0, 1)


def test_tau_commutation_rule():
    # tau * a = a^q * tau: (0,1,0)*(a,0,0) == (0, a^q, 0)
    R = twisted_ring(2, 2, 2, field(2, 4))
    F = scalar(field(2, 4))
    for a in range(F.order):
        assert ring_mul(R, (0, 1, 0), (a, 0, 0)) == (0, F.frob(a, 2), 0)
        assert ring_mul(R, (a, 0, 0), (0, 1, 0)) == (0, a, 0)


@pytest.mark.parametrize(
    "n,q,h,p,k",
    [(2, 2, 2, 2, 2), (2, 2, 3, 2, 2), (3, 2, 2, 2, 3), (2, 3, 2, 3, 2)],
)
def test_associativity_sampled(n, q, h, p, k):
    R = twisted_ring(n, q, h, field(p, k))
    F = R.coeff_field
    import random

    rng = random.Random(7)
    for _ in range(40):
        a = tuple(rng.randrange(F.order) for _ in range(R.length))
        b = tuple(rng.randrange(F.order) for _ in range(R.length))
        c = tuple(rng.randrange(F.order) for _ in range(R.length))
        assert ring_mul(R, ring_mul(R, a, b), c) == ring_mul(R, a, ring_mul(R, b, c))


@given(
    st.sampled_from([(2, 2, 2, 2, 2), (2, 3, 3, 3, 2), (3, 2, 2, 2, 6), (2, 3, 2, 3, 4)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mul_matches_seed_formula(params, data):
    # sum_{i+j=k} a_i * b_j^(q^i), through the digit-loop add and the
    # polynomial product of the field
    n, q, h, p, k = params
    F = field(p, k)
    S = scalar(F)
    R = twisted_ring(n, q, h, F)
    elems = st.lists(st.integers(0, F.order - 1), min_size=R.length, max_size=R.length)
    a, b = data.draw(elems), data.draw(elems)
    want = [0] * R.length
    for i in range(R.length):
        for j in range(R.length - i):
            term = S.mul_poly(a[i], S.pow(b[j], q**i))
            want[i + j] = S.add_digits(want[i + j], term)
    batch = R.mul_batch(np.array(a)[:, None], np.array(b)[:, None])[:, 0]
    assert ring_mul(R, tuple(a), tuple(b)) == tuple(want) == tuple(batch.tolist())


def test_inverse_exhaustive_small():
    R = twisted_ring(2, 2, 2, field(2, 2))
    for g in enumerate_unipotent(R):
        assert ring_mul(R, g, ring_inv(R, g)) == ring_one(R)
        assert ring_mul(R, ring_inv(R, g), g) == ring_one(R)


def test_inverse_with_nontrivial_constant():
    R = twisted_ring(2, 2, 3, field(2, 4))
    F = R.coeff_field
    g = (3, 5, 7, 2, 9)
    assert ring_mul(R, g, ring_inv(R, g)) == ring_one(R)
    assert ring_mul(R, ring_inv(R, g), g) == ring_one(R)


def test_lang_trivial_on_rational_points():
    # over F_{q^n}, Frobenius F_{q^n} fixes every coefficient
    R = twisted_ring(2, 2, 2, field(2, 2))
    for g in enumerate_unipotent(R):
        assert lang(R, g, R.n) == ring_one(R)


def test_center_is_tau_n_line():
    R = twisted_ring(2, 2, 2, field(2, 2))
    F = R.coeff_field
    for z_val in range(F.order):
        z = (1, 0, z_val)
        for g in enumerate_unipotent(R):
            assert ring_mul(R, z, g) == ring_mul(R, g, z)
    # and nothing with a tau^1 component is central
    w = F.gen
    g = (1, w, 0)
    assert any(ring_mul(R, (1, 1, 0), x) != ring_mul(R, x, (1, 1, 0)) for x in [g])


def test_h_m_patterns_frozen():
    assert h_m_pattern(2, 2, 1) == [1, 2]
    assert h_m_pattern(2, 2, 2) == [2]
    assert h_m_pattern(3, 2, 1) == [1, 2, 3]
    assert h_m_pattern(3, 2, 3) == [2, 3]


def nu_m(ring, g, m):
    """nu_m on a unipotent element: nu_prime_m on its coordinates."""
    return (g[0],) + nu_prime_m(ring.n, m, g[1:])


def test_nu_m_is_homomorphism_on_h_m():
    # n = 2, m = 2: H_2 = {1 + a_2 tau^2} -> U^{1, q^2}
    q = 2
    F4 = field(2, 2)
    R = twisted_ring(2, q, 2, F4)
    R1 = twisted_ring(1, q**2, 2, F4)
    for a in range(F4.order):
        for b in range(F4.order):
            x, y = (1, 0, a), (1, 0, b)
            assert nu_m(R, ring_mul(R, x, y), 2) == ring_mul(
                R1, nu_m(R, x, 2), nu_m(R, y, 2)
            )


def test_nu_m_homomorphism_n3():
    # n = 3, m = 3: H_3 = {1 + a_2 tau^2 + a_3 tau^3} -> U^{1, q^3}
    q = 2
    F8 = field(2, 3)
    R = twisted_ring(3, q, 2, F8)
    R1 = twisted_ring(1, q**3, 2, F8)
    for a2 in range(F8.order):
        for a3 in range(F8.order):
            for b2 in (0, 3, 5):
                for b3 in (1, 6):
                    x, y = (1, 0, a2, a3), (1, 0, b2, b3)
                    assert nu_m(R, ring_mul(R, x, y), 3) == ring_mul(
                        R1, nu_m(R, x, 3), nu_m(R, y, 3)
                    )


def test_gnq_group_axioms_and_u2_agreement():
    F4 = field(2, 2)
    els = [(a, b) for a in range(F4.order) for b in range(F4.order)]
    R = twisted_ring(2, 2, 2, F4)
    for a in els:
        assert gnq_mul(F4, 2, 2, a, gnq_inv(F4, 2, 2, a)) == (0, 0)
        for b in els[:6]:
            # for n = 2 the two group laws agree coordinatewise
            assert (1,) + gnq_mul(F4, 2, 2, a, b) == ring_mul(R, (1,) + a, (1,) + b)


def test_gnq_n3_differs_from_u3():
    F8 = field(2, 3)
    R = twisted_ring(3, 2, 2, F8)
    a, b = (2, 0, 0), (2, 0, 0)
    g = gnq_mul(F8, 3, 2, a, b)
    u = ring_mul(R, (1,) + a, (1,) + b)
    assert g[0] == u[1] and g[2] == u[3]
    assert g[1] != u[2]  # e_1 e_1-type product is dropped in G below the top

def test_gnq_frobenius_hom():
    F16 = field(2, 4)
    a, b = (3, 5, 7), (9, 2, 11)
    fa = gnq_frobenius(F16, 2, a, 1)
    fb = gnq_frobenius(F16, 2, b, 1)
    assert gnq_frobenius(F16, 2, gnq_mul(F16, 3, 2, a, b), 1) == gnq_mul(
        F16, 3, 2, fa, fb
    )


@pytest.mark.parametrize("n,q,h,p,k", [(2, 2, 3, 2, 4), (2, 3, 2, 3, 4), (3, 2, 2, 2, 6)])
def test_scalar_conj_factors_match_scalar_conj(n, q, h, p, k):
    import random

    R = twisted_ring(n, q, h, field(p, k))
    F = scalar(R.coeff_field)
    rng = random.Random(19)
    for c in range(1, F.order):
        factors = R.scalar_conj_factors(c).tolist()
        x = tuple(rng.randrange(F.order) for _ in range(R.length))
        hoisted = (x[0],) + tuple(F.mul(f, xj) for f, xj in zip(factors, x[1:]))
        assert hoisted == scalar_conj(R, c, x)
