"""Field tower tests.

Oracle values below were computed by hand from the defining polynomials:

* F_4 = F_2[x]/(x^2+x+1), w = x (index 2): w^2 = x+1 (index 3),
  Tr_{F_4/F_2}(w) = w + w^2 = 1, Nm(w) = w^3 = 1.
* F_9 = F_3[x]/(x^2+x+2), g = x (index 3): x^2 = 2x+1 (index 7),
  Tr_{F_9/F_3}(g) = g + g^3 = 2, Nm(g) = g^4 = 2.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dllab.errors import DLLabError, NotInSubfieldError, UnsupportedParametersError
from dllab.ffield import (
    EXPLOG_ORDER_LIMIT,
    GRID_CHUNK,
    PRIMITIVE_POLYS,
    Field,
    VecOps,
    field,
    grid_chunks,
    splitting_params,
)

# every table field up to F_729, the largest one the benchmark workloads build
VEC_FIELDS = sorted(pk for pk in PRIMITIVE_POLYS if pk[0] ** pk[1] <= 729)

# every field the benchmark workloads build
WORKLOAD_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 6), (3, 6)]
TABLE_FIELDS = sorted(PRIMITIVE_POLYS)


def _frob_oracle(F, a, i):
    """a^(p^i) by i repeated p-th powers through the polynomial product."""
    for _ in range(i):
        x = a
        for _ in range(F.p - 1):
            x = F._mul_poly(x, a)
        a = x
    return a


def test_f4_frobenius_trace_norm_oracle():
    F4 = field(2, 2)
    F2 = field(2, 1)
    w = F4.gen
    assert w == 2
    assert F4.mul(w, w) == 3
    assert F4.frob(w, 2) == 3
    assert F4.trace(w, F2) == 1
    assert F4.mul(w, F4.frob(w, 2)) == 1  # the norm to F_2


def test_f9_trace_norm_oracle():
    F9 = field(3, 2)
    F3 = field(3, 1)
    g = F9.gen
    assert g == 3
    assert F9.mul(g, g) == 7  # x^2 = 2x + 1 -> coeffs (1, 2)
    assert F9.trace(g, F3) == 2
    assert F9.mul(g, F9.frob(g, 3)) == 2  # the norm to F_3


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_field_axioms_exhaustive_small(p, k):
    F = field(p, k)
    els = list(F.elements())[: 3 if F.order > 100 else F.order]
    sample = els + [F.gen, F.order - 1]
    for a in sample:
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,k", sorted(PRIMITIVE_POLYS))
def test_defining_polys_irreducible(p, k):
    # x^(p^k) == x in the field, and x^(p^m) != x for proper subfield sizes,
    # certifies degree exactly k; primitivity is certified by the exp table.
    F = field(p, k)
    x = F.gen
    assert F.pow(x, p**k) == x
    for m in range(1, k):
        if k % m == 0:
            assert F.pow(x, p**m) != x


def test_gen_is_primitive_small():
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        F = field(p, k)
        seen = set()
        a = 1
        for _ in range(F.order - 1):
            seen.add(a)
            a = F.mul(a, F.gen)
        assert len(seen) == F.order - 1


@pytest.mark.parametrize(
    "k_sub,k_mid,k_top,p", [(2, 4, 12, 2), (1, 2, 6, 3), (2, 4, 8, 3), (1, 2, 4, 5)]
)
def test_embedding_tower_compatible(k_sub, k_mid, k_top, p):
    S, M, T = field(p, k_sub), field(p, k_mid), field(p, k_top)
    for a in list(S.elements())[: min(S.order, 32)]:
        via_mid = T.embed(M, M.embed(S, a))
        direct = T.embed(S, a)
        assert via_mid == direct


def test_embedding_is_homomorphism():
    F4, F16 = field(2, 2), field(2, 4)
    for a in F4.elements():
        for b in F4.elements():
            assert F16.embed(F4, F4.add(a, b)) == F16.add(
                F16.embed(F4, a), F16.embed(F4, b)
            )
            assert F16.embed(F4, F4.mul(a, b)) == F16.mul(
                F16.embed(F4, a), F16.embed(F4, b)
            )


def test_trace_transitivity_and_surjectivity():
    F2, F4, F64 = field(2, 1), field(2, 2), field(2, 6)
    values = set()
    for a in F64.elements():
        t = F64.trace(a, F4)
        assert F4.trace(t, F2) == F64.trace(a, F2)
        values.add(t)
    assert values == set(F4.elements())


@pytest.mark.parametrize("p,k,m", [(2, 1, 1), (2, 4, 1), (2, 4, 2), (2, 6, 3), (3, 2, 1), (3, 4, 2), (5, 2, 1)])
def test_trace_and_retract_tables_match_the_scalar_forms(p, k, m):
    F, sub = field(p, k), field(p, m)
    assert F.trace_table(sub).tolist() == [F.trace(a, sub) for a in F.elements()]
    inside = set(F.embed_table(sub).tolist())
    back = F.retract_table(sub).tolist()
    assert back == [F.retract(sub, a) if a in inside else -1 for a in F.elements()]


def test_subfield_membership_count():
    F64, F8 = field(2, 6), field(2, 3)
    members = [a for a in F64.elements() if F64.in_subfield(F8, a)]
    assert len(members) == 8
    tab = F64.embed_table(F8)
    assert sorted(int(v) for v in tab) == sorted(members)


def test_retract_raises_outside_subfield():
    F16, F4 = field(2, 4), field(2, 2)
    inside = {int(v) for v in F16.embed_table(F4)}
    outside = next(a for a in F16.elements() if a not in inside)
    with pytest.raises(NotInSubfieldError):
        F16.retract(F4, outside)


def test_frobenius_is_field_automorphism():
    F27 = field(3, 3)
    for a in F27.elements():
        for b in (1, 5, 20):
            assert F27.frob(F27.mul(a, b), 3) == F27.mul(F27.frob(a, 3), F27.frob(b, 3))
            assert F27.frob(F27.add(a, b), 3) == F27.add(F27.frob(a, 3), F27.frob(b, 3))


def test_splitting_params():
    assert splitting_params(8) == (2, 3)
    assert splitting_params(9) == (3, 2)
    assert splitting_params(5) == (5, 1)


@pytest.mark.parametrize("q", [0, 1, -4, 6])
def test_splitting_params_rejects_non_prime_powers(q):
    with pytest.raises(UnsupportedParametersError):
        splitting_params(q)


@pytest.mark.parametrize("q", [7, 11, 13, 49])
def test_splitting_params_rejects_characteristics_without_fields(q):
    # no defining polynomial of these characteristics, so no field to build
    with pytest.raises(UnsupportedParametersError, match="unsupported characteristic"):
        splitting_params(q)


def test_splitting_params_accepts_only_characteristics_with_fields():
    accepted = set()
    for q in range(2, 100):
        try:
            accepted.add(splitting_params(q)[0])
        except UnsupportedParametersError:
            pass
    assert all((p, 1) in PRIMITIVE_POLYS for p in accepted)
    assert accepted == {p for p, _ in PRIMITIVE_POLYS}


@pytest.mark.parametrize("p,k", WORKLOAD_FIELDS)
def test_table_ops_match_digit_oracle_exhaustive(p, k):
    F = field(p, k)
    els = range(F.order)
    for a in els:
        assert F.neg(a) == F._neg_digits(a)
        for b in els:
            assert F.add(a, b) == F._add_digits(a, b)
            assert F.sub(a, b) == oracles.sub_digits(F, a, b)
    for i in range(k + 1):
        got = [F.frob(a, p**i) for a in els]
        assert got == [F.pow(a, p**i) for a in els]
        assert got == [_frob_oracle(F, a, i) for a in els]


@given(st.sampled_from(TABLE_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_table_ops_match_digit_oracle_sampled(pk, data):
    p, k = pk
    F = field(p, k)
    a = data.draw(st.integers(0, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    i = data.draw(st.integers(0, 2 * k))
    assert F.add(a, b) == F._add_digits(a, b)
    assert F.sub(a, b) == oracles.sub_digits(F, a, b)
    assert F.neg(a) == F._neg_digits(a)
    assert F.mul(a, b) == F._mul_poly(a, b)
    if b:
        assert F._mul_poly(F.inv(b), b) == 1
    assert F.frob(a, p**i) == F.pow(a, p**i) == _frob_oracle(F, a, i)
    assert F.frob(a, F.frob_exp(p, i)) == F.frob(a, p**i)


def test_every_field_is_table_driven():
    # a field above EXPLOG_ORDER_LIMIT has no defining polynomial
    with pytest.raises(UnsupportedParametersError, match="no defining polynomial"):
        field(3, 12)
    assert max(p**k for p, k in PRIMITIVE_POLYS) <= EXPLOG_ORDER_LIMIT


def test_non_primitive_generator_is_a_typed_error(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2 but x has order 5
    monkeypatch.setitem(PRIMITIVE_POLYS, (2, 4), (1, 1, 1, 1, 1))
    with pytest.raises(DLLabError, match="not primitive"):
        Field(2, 4)


@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled_f81(a, b, c):
    F = field(3, 4)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.sub(F.add(a, b), b) == a


@given(st.sampled_from(VEC_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_vecops_match_scalar_table_ops(pk, data):
    p, k = pk
    F = field(p, k)
    v = VecOps(F)
    els = st.lists(st.integers(0, F.order - 1), min_size=1, max_size=30)
    a = data.draw(els)
    b = data.draw(st.lists(st.integers(0, F.order - 1), min_size=len(a), max_size=len(a)))
    c = data.draw(st.integers(0, F.order - 1))
    qpow = p ** data.draw(st.integers(0, 2 * k))
    x, y = np.array(a), np.array(b)
    assert v.add(x, y).tolist() == [F.add(s, t) for s, t in zip(a, b)]
    assert v.sub(x, y).tolist() == [F.sub(s, t) for s, t in zip(a, b)]
    assert v.mul(x, y).tolist() == [F.mul(s, t) for s, t in zip(a, b)]
    assert np.asarray(v.neg(x)).tolist() == [F.neg(s) for s in a]
    assert v.frob(qpow)[x].tolist() == [F.frob(s, qpow) for s in a]
    # a Python int broadcasts against an array on either side
    assert v.mul(c, x).tolist() == [F.mul(c, s) for s in a]
    assert v.add(x, c).tolist() == [F.add(s, c) for s in a]
    assert v.sub(c, x).tolist() == [F.sub(c, s) for s in a]


# the ids are those of the earlier (Q, dim, lo, hi) cases, so each case keeps
# its test history
@pytest.mark.parametrize(
    "Q,dim", [(2, 3), (16, 4), (27, 3)], ids=["2-3-0-None", "16-4-0-None", "27-3-0-None"]
)
def test_grid_chunks_follow_product_order(Q, dim):
    chunks = list(grid_chunks(Q, dim))
    assert all(c.shape[0] == dim and 0 < c.shape[1] <= GRID_CHUNK for c in chunks)
    got = [tuple(col) for c in chunks for col in c.T.tolist()]
    want = list(itertools.product(range(Q), repeat=dim))
    assert got == want
