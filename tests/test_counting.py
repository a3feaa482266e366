import itertools
from functools import partial

import numpy as np
import pytest

from dllab.charlib import AddChar
from dllab.counting import (
    SumSpec,
    conductor2_char,
    dl_intertwiner_sum,
    eigendims,
    exp_sum,
    inductive_check,
    inductive_spec,
    intertwiner_s2_data,
    intertwiner_surface,
    maximality_probe,
    npp_identity,
    x3_twist_table,
    y3_locus_equality,
    zeta_fixed_set,
    zeta_trace_suite,
    zeta_trace_suite_level3,
)
from dllab.charlib import layer_as_additive_char, principal_units, unit_characters
from dllab.cyclo import CycloNum
from dllab.errors import IdentityFailsError, NotIntegralError, UnsupportedParametersError
from dllab.ffield import field, grid_chunks
from dllab.matmodel import xh_point_count
from dllab.twistring import twisted_ring
import oracles
from oracles import twisted_count


@pytest.mark.parametrize("q", [2, 3])
def test_conductor2_char(q):
    psi = conductor2_char(q)
    assert psi.conductor_power() == 2


# the closed-form value q^2 (q^2)^s of the three-variable character sum
@pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_intertwiner_sum_value(q, s):
    spec = intertwiner_surface(q)
    psi = conductor2_char(q)
    val = exp_sum(spec, psi, s)
    assert val == CycloNum.rational(spec.base.p, q ** (2 + 2 * s))


def _intertwiner_walk(q, s, psi):
    """The surface sum through the scalar walk over E^3."""
    base = psi.F
    member = partial(oracles.intertwiner_membership, q)
    poly = partial(oracles.intertwiner_poly, q)
    return oracles.exp_sum_walk(base, 3, member, poly, psi, s)


def test_intertwiner_sum_generic_path_agrees():
    # the batched surface sum against the scalar walk, tuple by tuple
    for q, s in [(2, 1), (2, 2), (3, 1)]:
        psi = conductor2_char(q)
        assert exp_sum(intertwiner_surface(q), psi, s) == _intertwiner_walk(q, s, psi)


def test_exp_sum_trivial_map_counts_points():
    base = field(2, 2)
    psi = AddChar(base, 2, base.gen)
    spec = SumSpec(
        base, lambda E: grid_chunks(E.order, 2), lambda E, x: np.zeros(x.shape[1], dtype=np.int64)
    )
    for s in (1, 2):
        want = CycloNum.rational(2, base.order ** (2 * s))
        assert exp_sum(spec, psi, s) == want
        assert oracles.exp_sum_walk(base, 2, lambda E, x: True, lambda E, x: 0, psi, s) == want


@pytest.mark.parametrize("q,s_range", [(2, (1, 2)), (3, (1,))])
def test_inductive_reduction(q, s_range):
    psi = conductor2_char(q)
    sums = {s: exp_sum(intertwiner_surface(q), psi, s) for s in s_range}
    report = inductive_check(*intertwiner_s2_data(q), q, psi, sums)
    assert [c["s"] for c in report["checks"]] == list(s_range)
    # a surface sum that is off by one is refused
    sums[s_range[-1]] = sums[s_range[-1]] + 1
    with pytest.raises(IdentityFailsError):
        inductive_check(*intertwiner_s2_data(q), q, psi, sums)


@pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1)])
def test_inductive_spec_matches_the_scalar_walk(q, s):
    # S = S2 x A^1 gives the points of the scalar membership walk over E^3,
    # in its order; the fibre's sum is the scalar walk over {a_1 = 0}
    big, fibre = inductive_spec(*intertwiner_s2_data(q), q)
    E = field(big.base.p, big.base.k * s)
    member = partial(oracles.intertwiner_membership, q)
    poly = partial(oracles.intertwiner_poly, q)
    walk = [list(x) for x in itertools.product(range(E.order), repeat=3) if member(E, x)]
    assert np.concatenate(list(big.points(E)), axis=1).T.tolist() == walk
    psi = conductor2_char(q)
    want = oracles.exp_sum_walk(
        fibre.base,
        2,
        lambda E, x: x[0] == 0 and member(E, x),
        lambda E, x: poly(E, (*x, 0)),
        psi,
        s,
    )
    assert exp_sum(fibre, psi, s) == want


def test_inductive_reduction_degenerate_fibre():
    # f identically zero: the fibre is all of S2 and the identity reduces to
    # the affine-line factor, which holds for every character
    q = 2
    s2, _, j, n = intertwiner_s2_data(q)
    psi = conductor2_char(q)
    zeros = lambda E, x: np.zeros(x.shape[1], dtype=np.int64)
    big, _ = inductive_spec(s2, zeros, j, n, q)
    inductive_check(s2, zeros, j, n, q, psi, {s: exp_sum(big, psi, s) for s in (1, 2)})


def test_inductive_check_rejects_bad_conductor():
    q = 2
    s2, f, j, n = intertwiner_s2_data(q)
    base = s2.base
    psi1 = AddChar(base, q, int(base.embed_table(field(2, 1))[1]))  # factors through F_q
    assert psi1.conductor_power() == 1
    with pytest.raises(UnsupportedParametersError):
        inductive_check(s2, f, j, n, q, psi1, {1: exp_sum(intertwiner_surface(q), psi1, 1)})


@pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1)])
def test_quotient_side_sum_agrees(q, s):
    psi = conductor2_char(q)
    assert dl_intertwiner_sum(q, s) == _intertwiner_walk(q, s, psi)


def test_y3_preimage_is_the_two_equation_locus():
    assert y3_locus_equality(2, s=2)


def test_twisted_count_identity_twist_counts_rational_points():
    # left = right = identity: solutions are the F_{q^n}-rational points
    q, n = 2, 2
    count = twisted_count(n, q, 2, None, (1, 0, 0))
    assert count == q ** (n * n)


def test_x3_twist_table_complete():
    q = 2
    table = x3_twist_table(q)

    # independent completeness certificate: enumerate X_3 over F_{q^{2p}}
    # directly and, for each point and each lambda, read off the unique
    # twist g with star(1 + lam pi, F(x)) = x g; bucket by the table key
    p = 2
    F2 = field(p, 2)
    ring = twisted_ring(2, q, 3, field(p, 2 * 2))
    E = oracles.scalar(ring.coeff_field)
    brute = np.zeros((F2.order,) * 4, dtype=np.int64)
    for idx in range(E.order**4):
        x, t = [1], idx
        for _ in range(4):
            x.append(t % E.order)
            t //= E.order
        x = tuple(x)
        if not oracles.in_Xh(ring, x):
            continue
        fx = oracles.ring_frobenius(ring, x, 2)
        for lam_i in range(F2.order):
            lam = E.embed(F2, lam_i)
            g = oracles.ring_mul(
                ring, oracles.ring_inv(ring, x), oracles.star_closed(E, lam, 0, fx)
            )
            if g[1] != 0:
                continue
            if not all(E.in_subfield(F2, c) for c in g[2:]):
                continue
            # indexed [g4, g3, g2, lam], as the table is
            brute[tuple(E.retract(F2, c) for c in g[:1:-1]) + (lam_i,)] += 1
    assert np.array_equal(brute, table)


def test_x3_twist_table_matches_brute_force_with_nonzero_mu():
    # the table is built on the mu = 0 slice; check the (g4 - mu) reduction
    # against the full twisted count at a key with mu != 0
    q = 2
    F2 = field(2, 2)
    table = x3_twist_table(q)
    lam_i, g2_i, g3_i, mu_i, g4_i = 1, 2, 1, 3, 2
    d_i = oracles.scalar(F2).sub(g4_i, mu_i)
    count = twisted_count(2, q, 3, (1, lam_i, mu_i), (1, 0, g2_i, g3_i, g4_i))
    assert count == table[d_i, g3_i, g2_i, lam_i]


def _conductor2_chars():
    """The units of level 3 over F_4 and their characters of conductor 4."""
    F2 = field(2, 2)
    units = principal_units(F2, 3)
    chars = unit_characters(units, 4)
    return units, chars[[layer_as_additive_char(c, F2, 2, 4).conductor_power() == 2 for c in chars]]


def _entries(table):
    """The nonzero entries of a collapsed twist table, indexed [d, g2, lam],
    as the oracle's dict from (lam, g2, d) to the count."""
    keys = np.argwhere(table)
    return dict(zip(map(tuple, keys[:, ::-1].tolist()), table[tuple(keys.T)].tolist()))


def test_eigendim_is_kronecker_delta():
    # the delta pattern is claimed for characters whose central-layer
    # restriction has full conductor q^2; every pair's dimension is the
    # one the scalar sum of oracles.eigendim gives
    q = 2
    table = x3_twist_table(q).sum(axis=1)
    units, chars = _conductor2_chars()
    assert len(chars) == 8
    dims = eigendims(chars, 4, table, q)
    assert dims.shape == (8, 8)
    for i, c1 in enumerate(chars):
        for j, c2 in enumerate(chars):
            want = 1 if np.array_equal(c1, c2) else 0
            assert dims[i, j] == want == oracles.eigendim(units, c1, c2, 4, _entries(table), q)


def test_eigendims_raise_on_a_sum_that_is_not_q12_times_an_integer():
    # a table count off by one moves every pair's sum off the multiples of
    # q^12; the first pair is refused with the scalar sum's message
    q = 2
    table = x3_twist_table(q).sum(axis=1)
    table[tuple(np.argwhere(table)[0])] += 1
    units, chars = _conductor2_chars()
    with pytest.raises(NotIntegralError) as got:
        eigendims(chars, 4, table, q)
    with pytest.raises(NotIntegralError) as want:
        oracles.eigendim(units, chars[0], chars[0], 4, _entries(table), q)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pair_count_identity(q):
    # the batched counts and the one-pair-at-a-time walk
    assert npp_identity(q)
    assert oracles.npp_identity(q)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_zeta_trace_suite(n, q):
    report = zeta_trace_suite(n, q)
    assert report["fixed_count"] == q**n
    assert report["all_pass"]
    for r in report["results"]:
        assert r["trace"] == r["expected"]


def test_zeta_fixed_set_is_central():
    # fixed points of the Teichmueller conjugation have coordinates only in
    # degrees divisible by n
    fixed, ring, E = zeta_fixed_set(2, 2, 2)
    assert fixed.dtype == np.int64
    assert not fixed[1].any()


@pytest.mark.parametrize("n,q,h", [(2, 2, 2), (2, 2, 3)])
def test_zeta_fixed_set_matches_scalar_conj_filter(n, q, h):
    import itertools

    fixed, ring, E = zeta_fixed_set(n, q, h)
    zeta = oracles.scalar(E).embed(field(2, n), field(2, n).gen)
    want = []
    for tail in itertools.product(range(E.order), repeat=ring.length - 1):
        x = (1,) + tail
        if oracles.scalar_conj(ring, zeta, x) == x and oracles.in_Xh(ring, x):
            want.append(list(x))
    assert fixed.T.tolist() == want


def test_zeta_trace_suite_level3():
    report = zeta_trace_suite_level3(2)
    assert report["fixed_count"] == 2**4
    assert report["characters"] == 16
    assert report["all_pass"]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_lang_preimage_point_count(n, q):
    assert xh_point_count(n, q, 2) == q ** (n * n)


def test_maximality_probe_h2():
    report = maximality_probe(2, 2, 2, s_range=(1, 2, 3))
    assert [c["count"] for c in report["counts"]] == [16, 16, 160]
    assert all(c["matches"] for c in report["counts"])


def test_maximality_probe_h2_n3():
    report = maximality_probe(3, 2, 2, s_range=(1,))
    entry = report["counts"][0]
    assert entry["count"] == 2**9
    assert entry["matches"]


def test_maximality_probe_h3_records_count():
    report = maximality_probe(2, 2, 3, s_range=(1,))
    entry = report["counts"][0]
    assert entry["count"] is not None
    assert "prediction" not in entry
