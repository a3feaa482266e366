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
from dllab.charlib import AddChar
from dllab.errors import DLLabError, NotInSubfieldError, UnsupportedParametersError
from dllab.ffield import (
    EXPLOG_ORDER_LIMIT,
    GRID_CHUNK,
    PRIMITIVE_POLYS,
    Field,
    field,
    grid_chunks,
    splitting_params,
)

# every field the benchmark workloads build
WORKLOAD_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 6), (3, 6)]
TABLE_FIELDS = sorted(PRIMITIVE_POLYS)

# the fields of the one-kernel contract; add, sub and mul are compared on all
# pairs up to PAIR_ORDER elements and on drawn arrays above it
CONTRACT_FIELDS = sorted(pk for pk in PRIMITIVE_POLYS if pk[0] ** pk[1] <= 4096)
PAIR_ORDER = 81
SUBFIELDS = [(p, k, m) for p, k in CONTRACT_FIELDS for m in range(1, k + 1) if k % m == 0]


def _frob_oracle(S, a, i):
    """a^(p^i) by i repeated p-th powers through the polynomial product."""
    for _ in range(i):
        x = a
        for _ in range(S.p - 1):
            x = S.mul_poly(x, a)
        a = x
    return a


def test_f4_frobenius_trace_norm_oracle():
    F4 = field(2, 2)
    F2 = field(2, 1)
    w = F4.gen
    assert w == 2
    assert F4.mul(w, w) == 3
    assert F4.frob_table(2)[w] == 3
    assert F4.trace_table(F2)[w] == 1
    assert F4.mul(w, F4.frob_table(2)[w]) == 1  # the norm to F_2


def test_f9_trace_norm_oracle():
    F9 = field(3, 2)
    F3 = field(3, 1)
    g = F9.gen
    assert g == 3
    assert F9.mul(g, g) == 7  # x^2 = 2x + 1 -> coeffs (1, 2)
    assert F9.trace_table(F3)[g] == 2
    assert F9.mul(g, F9.frob_table(3)[g]) == 2  # the norm to F_3


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_field_axioms_exhaustive_small(p, k):
    F = field(p, k)
    sample = list(range(3 if F.order > 100 else F.order)) + [F.gen, F.order - 1]
    a, b, c = np.meshgrid(sample, sample, sample, indexing="ij")
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    assert not F.add(a, F.neg(a)).any()
    assert (F.mul(a, F.inv(a))[a != 0] == 1).all()
    assert np.array_equal(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))


@pytest.mark.parametrize("p,k", sorted(PRIMITIVE_POLYS))
def test_defining_polys_irreducible(p, k):
    # x^(p^k) == x in the field, and x^(p^m) != x for proper subfield sizes,
    # certifies degree exactly k; primitivity is certified by the exp table.
    S = oracles.scalar(field(p, k))
    x = S.gen
    assert _frob_oracle(S, x, k) == x
    for m in range(1, k):
        if k % m == 0:
            assert _frob_oracle(S, x, m) != x


def test_gen_is_primitive_small():
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        F = field(p, k)
        seen = set()
        a = 1
        for _ in range(F.order - 1):
            seen.add(int(a))
            a = F.mul(a, F.gen)
        assert len(seen) == F.order - 1


@pytest.mark.parametrize(
    "k_sub,k_mid,k_top,p", [(2, 4, 12, 2), (1, 2, 6, 3), (2, 4, 8, 3), (1, 2, 4, 5)]
)
def test_embedding_tower_compatible(k_sub, k_mid, k_top, p):
    S, M, T = field(p, k_sub), field(p, k_mid), field(p, k_top)
    via_mid = T.embed_table(M)[M.embed_table(S)]
    assert np.array_equal(via_mid, T.embed_table(S))


def test_embedding_is_homomorphism():
    F4, F16 = field(2, 2), field(2, 4)
    emb = F16.embed_table(F4)
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.array_equal(emb[F4.add(a, b)], F16.add(emb[a], emb[b]))
    assert np.array_equal(emb[F4.mul(a, b)], F16.mul(emb[a], emb[b]))


def test_trace_transitivity_and_surjectivity():
    F2, F4, F64 = field(2, 1), field(2, 2), field(2, 6)
    t = F64.trace_table(F4)
    assert np.array_equal(F4.trace_table(F2)[t], F64.trace_table(F2))
    assert set(t.tolist()) == set(range(F4.order))


@pytest.mark.parametrize("p,k,m", SUBFIELDS)
def test_trace_and_retract_tables_match_the_scalar_forms(p, k, m):
    F, sub = field(p, k), field(p, m)
    S = oracles.scalar(F)
    assert F.embed_table(sub).tolist() == [S.embed(sub, a) for a in range(sub.order)]
    assert F.trace_table(sub).tolist() == [S.trace(a, sub) for a in range(F.order)]
    back = [S.retract(sub, a) if S.in_subfield(sub, a) else -1 for a in range(F.order)]
    assert F.retract_table(sub).tolist() == back


def test_subfield_membership_count():
    F64, F8 = field(2, 6), field(2, 3)
    members = np.flatnonzero(F64.frob_table(8) == np.arange(F64.order))
    assert len(members) == 8
    assert sorted(F64.embed_table(F8).tolist()) == members.tolist()


def test_retract_raises_outside_subfield():
    F16, F4 = field(2, 4), field(2, 2)
    inside = set(F16.embed_table(F4).tolist())
    outside = next(a for a in range(F16.order) if a not in inside)
    assert F16.retract_table(F4)[outside] == -1
    with pytest.raises(NotInSubfieldError):
        oracles.scalar(F16).retract(F4, outside)
    with pytest.raises(NotInSubfieldError, match=f"element {outside} of F_2\\^4 not in F_2\\^2"):
        AddChar(F16, 2, outside).factor_through_trace(2)


def test_frobenius_is_field_automorphism():
    F27 = field(3, 3)
    fr = F27.frob_table(3)
    a = np.arange(F27.order)
    for b in (1, 5, 20):
        assert np.array_equal(fr[F27.mul(a, b)], F27.mul(fr[a], fr[b]))
        assert np.array_equal(fr[F27.add(a, b)], F27.add(fr[a], fr[b]))


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
    S = oracles.scalar(F)
    els = np.arange(F.order)
    a, b = np.meshgrid(els, els, indexing="ij")
    assert F.neg(els).tolist() == [S.neg_digits(x) for x in els.tolist()]
    pairs = list(zip(a.ravel().tolist(), b.ravel().tolist()))
    assert F.add(a, b).ravel().tolist() == [S.add_digits(x, y) for x, y in pairs]
    assert F.sub(a, b).ravel().tolist() == [oracles.sub_digits(S, x, y) for x, y in pairs]
    for i in range(k + 1):
        got = F.frob_table(p**i).tolist()
        assert got == [S.pow(x, p**i) for x in range(F.order)]
        assert got == [_frob_oracle(S, x, i) for x in range(F.order)]


@given(st.sampled_from(TABLE_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_table_ops_match_digit_oracle_sampled(pk, data):
    p, k = pk
    F = field(p, k)
    S = oracles.scalar(F)
    a = data.draw(st.integers(0, F.order - 1))
    b = data.draw(st.integers(0, F.order - 1))
    i = data.draw(st.integers(0, 2 * k))
    assert F.add(a, b) == S.add_digits(a, b)
    assert F.sub(a, b) == oracles.sub_digits(S, a, b)
    assert F.neg(a) == S.neg_digits(a)
    assert F.mul(a, b) == S.mul_poly(a, b)
    if b:
        assert S.mul_poly(int(F.inv(b)), b) == 1
    assert F.frob_table(p**i)[a] == S.pow(a, p**i) == _frob_oracle(S, a, i)
    assert F.frob_table(F.frob_exp(p, i))[a] == F.frob_table(p**i)[a]


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


@pytest.mark.parametrize("p,k", CONTRACT_FIELDS)
def test_one_kernel_matches_the_scalar_field(p, k):
    # the table kernel against the list closures of the scalar reference,
    # built from the defining polynomial alone
    F = field(p, k)
    S = oracles.scalar(F)
    els = np.arange(F.order)
    assert F.neg(els).tolist() == [S.neg(x) for x in range(F.order)]
    assert F.inv(els[1:]).tolist() == [S.inv(x) for x in range(1, F.order)]
    assert F.log(els[1:]).tolist() == [S.log(x) for x in range(1, F.order)]
    for i in range(k + 1):
        assert F.frob_table(p**i).tolist() == S.frob_map(p**i)
    if F.order <= PAIR_ORDER:
        a, b = (x.ravel() for x in np.meshgrid(els, els, indexing="ij"))
        pairs = list(zip(a.tolist(), b.tolist()))
        assert F.add(a, b).tolist() == [S.add(x, y) for x, y in pairs]
        assert F.sub(a, b).tolist() == [S.sub(x, y) for x, y in pairs]
        assert F.mul(a, b).tolist() == [S.mul(x, y) for x, y in pairs]
    # an int operand gives the value of the one-element array
    ints = sorted({0, 1, F.gen, F.order - 1})
    for x, y in itertools.product(ints, repeat=2):
        for op in (F.add, F.sub, F.mul):
            assert op(x, y) == op(np.array([x]), np.array([y]))[0]
    for x in ints:
        assert F.neg(x) == F.neg(np.array([x]))[0]
        if x:
            assert F.inv(x) == F.inv(np.array([x]))[0]
            assert F.log(x) == F.log(np.array([x]))[0]


@given(st.sampled_from([pk for pk in CONTRACT_FIELDS if pk[0] ** pk[1] > PAIR_ORDER]), st.data())
@settings(max_examples=200, deadline=None)
def test_array_ops_match_the_scalar_field_sampled(pk, data):
    p, k = pk
    F = field(p, k)
    S = oracles.scalar(F)
    els = st.lists(st.integers(0, F.order - 1), min_size=1, max_size=30)
    a = data.draw(els)
    b = data.draw(st.lists(st.integers(0, F.order - 1), min_size=len(a), max_size=len(a)))
    c = data.draw(st.integers(0, F.order - 1))
    x, y = np.array(a), np.array(b)
    assert F.add(x, y).tolist() == [S.add(s, t) for s, t in zip(a, b)]
    assert F.sub(x, y).tolist() == [S.sub(s, t) for s, t in zip(a, b)]
    assert F.mul(x, y).tolist() == [S.mul(s, t) for s, t in zip(a, b)]
    # a Python int broadcasts against an array on either side
    assert F.mul(c, x).tolist() == [S.mul(c, s) for s in a]
    assert F.add(x, c).tolist() == [S.add(s, c) for s in a]
    assert F.sub(c, x).tolist() == [S.sub(c, s) for s in a]


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
