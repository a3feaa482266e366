"""Exact cyclotomic arithmetic tests.

Frozen oracles: Phi_12 = x^4 - x^2 + 1 and Phi_8 = x^4 + 1 (standard tables);
vanishing sums of full sets of roots; conjugation inverts exponents.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import oracles
from dllab.cyclo import (
    CycloNum,
    cyclo_from_counts,
    cyclotomic_poly,
    difference_counts,
    reduce_counts,
)
from dllab.errors import MixedOrderError, NotIntegralError, UnsupportedParametersError


def test_cyclotomic_poly_oracles():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12, 24])
def test_full_root_sum_vanishes(n):
    s = CycloNum.rational(n, 0)
    for j in range(n):
        s = s + CycloNum.root(n, j)
    assert s.is_zero()


def test_root_multiplication_adds_exponents():
    for n in (5, 8, 12):
        for i in range(n):
            for j in range(n):
                assert CycloNum.root(n, i) * CycloNum.root(n, j) == CycloNum.root(
                    n, i + j
                )


def test_conjugation_and_modulus():
    z = CycloNum.root(12, 5)
    assert oracles.conj(z) == CycloNum.root(12, -5)
    assert (z * oracles.conj(z)) == CycloNum.rational(12, 1)


def test_mixed_order_raises():
    with pytest.raises(MixedOrderError):
        CycloNum.root(3, 1) + CycloNum.root(4, 1)


def test_integrality_predicates():
    three = CycloNum.rational(8, 3)
    assert three.is_nonneg_integer() and three.as_integer() == 3
    half = CycloNum.rational(8, Fraction(1, 2))
    assert not half.is_integer()
    with pytest.raises(NotIntegralError):
        half.as_integer()
    z = CycloNum.root(8, 1)
    assert not z.is_integer()
    assert (CycloNum.rational(8, -2)).is_integer()
    assert not CycloNum.rational(8, -2).is_nonneg_integer()


def test_galois_automorphism():
    z = CycloNum.root(7, 1) + CycloNum.root(7, 3)
    g = oracles.galois(z, 2)
    assert g == CycloNum.root(7, 2) + CycloNum.root(7, 6)


def test_cyclo_from_counts_matches_direct_sum():
    # repeated exponents add up and a negative count subtracts
    counts = [0] * 12
    direct = CycloNum.rational(12, 0)
    for e, c in [(0, 3), (5, 2), (11, 1), (5, 4), (3, -2)]:
        counts[e] += c
        direct = direct + CycloNum.rational(12, c) * CycloNum.root(12, e)
    assert cyclo_from_counts(12, counts) == direct


@pytest.mark.parametrize("n", [4, 9, 12])
def test_difference_counts_matches_the_product_of_sums(n):
    # sum_r A_r * conj(B_r), with A_r and B_r the root sums of the count rows
    rng = np.random.default_rng(n)
    a = rng.integers(-3, 4, size=(5, n))
    b = rng.integers(0, 4, size=(5, n))
    direct = CycloNum.rational(n, 0)
    for ra, rb in zip(a.tolist(), b.tolist()):
        direct = direct + cyclo_from_counts(n, ra) * oracles.conj(cyclo_from_counts(n, rb))
    assert cyclo_from_counts(n, difference_counts(a, b)) == direct


def test_cyclo_from_counts_vanishing():
    assert cyclo_from_counts(9, [1] * 9).is_zero()


@pytest.mark.parametrize("n", [4, 8, 9, 25])
def test_reduce_counts_matches_the_fraction_loop(n):
    rng = np.random.default_rng(n)
    counts = rng.integers(-10**6, 10**6, size=(40, n))
    counts[0] = 0
    counts[1] = 1
    got = reduce_counts(n, counts)
    assert got.dtype == np.int64 and got.shape == (40, len(cyclotomic_poly(n)) - 1)
    assert [list(row) for row in got.tolist()] == [oracles.cyclo_coeffs(n, row) for row in counts]
    assert cyclo_from_counts(n, counts[2]).coeffs == tuple(oracles.cyclo_coeffs(n, counts[2]))


def test_reduce_counts_refuses_counts_that_could_leave_int64():
    # x^j mod Phi_4 is +-1 or +-x, so each column of |residues| sums to 2:
    # a count of 2^62 could reach 2^63, one past int64, and 2^62 - 1 cannot
    big = 2**62
    with pytest.raises(UnsupportedParametersError):
        reduce_counts(4, [[big, 0, 0, 0]])
    with pytest.raises(UnsupportedParametersError):
        reduce_counts(4, [[0, 0, -big, 0]])
    with pytest.raises(UnsupportedParametersError):
        reduce_counts(4, [[2**63, 0, 0, 0]])
    assert reduce_counts(4, [[big - 1, 0, 0, 0]]).tolist() == [[big - 1, 0]]


def test_reduce_counts_refuses_a_row_of_another_order():
    with pytest.raises(MixedOrderError):
        reduce_counts(8, np.zeros((2, 4), dtype=np.int64))


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 11),
    st.integers(0, 11),
)
@settings(max_examples=60, deadline=None)
def test_ring_axioms_sampled(c1, c2, e1, e2):
    n = 12
    a = CycloNum.rational(n, c1) * CycloNum.root(n, e1)
    b = CycloNum.rational(n, c2) * CycloNum.root(n, e2)
    z = CycloNum.root(n, 7)
    assert (a + b) * z == a * z + b * z
    assert a * b == b * a
    assert (a - b) + b == a


def _reference_power(n, j):
    """x^j mod Phi_n by long division, as Fractions."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    poly = [0] * max(j + 1, deg)
    poly[j] = 1
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for t in range(deg + 1):
                poly[i - deg + t] -= c * phi[t]
    return tuple(Fraction(c) for c in poly[:deg])


@pytest.mark.parametrize("n", [12, 28, 60])
def test_exp_vector_matches_long_division(n):
    from dllab.cyclo import _exp_vector

    for j in range(-n, 2 * n):
        assert _exp_vector(n, j) == _reference_power(n, j % n)


def test_root_of_large_order_needs_no_recursion():
    # 3100 = common_root_order(3, 5, 2, 1); a walk that recursed once per
    # exponent overflowed the interpreter stack here
    z = CycloNum.root(3100, 3099)
    assert z * CycloNum.root(3100, 1) == CycloNum.rational(3100, 1)
