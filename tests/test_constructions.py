import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from dllab.charlib import AddChar, theta_family
from dllab.constructions import (
    CycloNum,
    _build_eta_level2,
    _build_eta_level3,
    _class_traces,
    _level3_pattern_subgroup,
    _teichmueller_conj,
    build_rho_psi,
    divquot,
    eta_family_report,
    extension_orbit_report,
    gnq_group,
    gnq_lang_fiber_count,
    main_example_context,
    main_example_report,
    rho_family_report,
    unipotent_group,
    verify_main_example,
)
from dllab.cyclo import reduce_counts
from dllab.errors import CharacterMismatchError, UnsupportedParametersError
from dllab.ffield import field, splitting_params
from dllab.matmodel import n2_norm_batch, nm_gnq_batch
from dllab.repkit import (
    CyclicExtension,
    MonomialExtension,
    MonomialRep,
    _dense_extension,
    delta_sums,
    extend_irrep,
    inner_product,
    solve_intertwiner,
)
import oracles
from oracles import monomial_extension_value, n2_norm, nm_gnq


def _coeff_field(n, q):
    p, e = splitting_params(q)
    return field(p, e * n)


def test_unipotent_group_orders():
    for n, q, h in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        U, ring = unipotent_group(n, q, h)
        assert len(U) == q ** (n * n * (h - 1))
        # generators really generate: conj_classes needs them, so a BFS over
        # the generator set from the identity, element 0, must reach everything
        gens = U.generators
        seen = np.zeros(len(U), dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            x = U.mul(np.repeat(frontier, len(gens)), np.tile(gens, len(frontier)))
            frontier = np.unique(x[~seen[x]])
            seen[frontier] = True
        assert seen.all()


def test_gnq_group_axioms_sample():
    G, F = gnq_group(3, 2)
    assert len(G) == F.order ** 3
    a, b, c = np.random.default_rng(11).integers(0, len(G), size=(3, 200))
    assert np.array_equal(G.mul(G.mul(a, b), c), G.mul(a, G.mul(b, c)))
    assert not G.mul(a, G.inv(a)).any()


def test_unsupported_parameters_rejected():
    with pytest.raises(UnsupportedParametersError):
        unipotent_group(4, 2, 2)
    with pytest.raises(UnsupportedParametersError):
        divquot(2, 2, 4)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_batched_norms_match_scalar_at_every_element(n, q):
    G, F = gnq_group(n, q)
    els = oracles.gnq_tuples(F, n)[0]
    a = np.array(els).T
    assert nm_gnq_batch(n, q, F, a).tolist() == [nm_gnq(n, q, F, x, k=1) for x in els]
    U, ring = unipotent_group(n, q)
    els = oracles.unipotent_tuples(ring)[0]
    tails = np.array(els)[:, 1:].T
    assert n2_norm_batch(ring, tails).tolist() == [n2_norm(ring, g[1:]) for g in els]


def test_gnq_lang_fiber_counts():
    # same convention as the h=2 point count: all rational points land in
    # the fiber, so the count is q^(n^2)
    assert gnq_lang_fiber_count(2, 2) == 16
    assert gnq_lang_fiber_count(2, 3) == 81
    assert gnq_lang_fiber_count(3, 2) == 512


def test_build_rho_psi_degrees_and_branches():
    F = _coeff_field(2, 2)
    for a in range(1, F.order):
        psi = AddChar(F, 2, a)
        data = build_rho_psi(2, 2, psi)
        if psi.conductor_power() == 1:
            assert data.branch == 1
            assert data.degree == 1
        else:
            assert data.branch == 2
            assert data.degree == 2  # q, from the halved subgroup
        assert inner_product(data.char, data.char) == CycloNum.rational(
            data.R, 1
        )


def test_build_rho_psi_prime_mirror():
    F = _coeff_field(2, 2)
    for a in range(1, F.order):
        psi = AddChar(F, 2, a)
        data = build_rho_psi(2, 2, psi, mirror=True)
        assert data.degree == (1 if psi.conductor_power() == 1 else 2)
        assert inner_product(data.char, data.char) == CycloNum.rational(
            data.R, 1
        )


def test_rho_family_reports_pass():
    for mirror in (False, True):
        rep = rho_family_report(2, 2, mirror=mirror)
        assert all(c["status"] == "pass" for c in rep["claims"])
        assert rep["lefschetz_sum"] == rep["point_count"] == 16


def test_rho_family_lefschetz_at_32():
    rep = rho_family_report(3, 2)
    assert rep["lefschetz_sum"] == 512
    assert all(c["status"] == "pass" for c in rep["claims"])


def test_extension_orbit_report():
    rep = extension_orbit_report(2)
    for row in rep["rows"]:
        if row["m"] == 2:
            assert row["orbit"] == row["extensions"] == 4
        else:
            assert row["orbit"] == 1
    assert rep["claims"][0]["status"] == "pass"


@pytest.mark.parametrize("q", [2, 3])
def test_extension_orbit_rows_match_the_scalar_walk(q):
    assert extension_orbit_report(q)["rows"] == oracles.extension_orbit_rows(q)


@pytest.mark.parametrize("n,q,s", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_gnq_lang_fiber_count_matches_the_scalar_walk(n, q, s):
    assert gnq_lang_fiber_count(n, q, s) == oracles.gnq_lang_fiber_count(n, q, s)


def test_group_caches_are_keyed_on_the_parameters_not_the_call_form():
    assert unipotent_group(3, 2) is unipotent_group(3, 2, 2) is unipotent_group(n=3, q=2, h=2)
    assert main_example_context(2) is main_example_context(2, 1) is main_example_context(q=2, M=1)
    assert divquot(2, 2, 3) is divquot(2, 2, 3, 1)


def test_divquot_order_and_axioms():
    dq = divquot(2, 2, 3)
    # nM (q^n - 1) q^(n^2 (h - 1)): valuation grading times the unit count
    assert len(dq.group) == 2 * 1 * 3 * 2 ** (4 * 2) == 1536
    G = dq.group
    a, b, c = np.random.default_rng(7).integers(0, len(G), size=(3, 300))
    assert np.array_equal(G.mul(G.mul(a, b), c), G.mul(a, G.mul(b, c)))
    assert not G.mul(a, G.inv(a)).any()
    assert not G.mul(G.inv(a), a).any()


DECOMPOSE_PARAMS = [(2, 2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2)]


def _units(dq):
    """The units of dq as the columns of an (L, N) array: the group elements
    of valuation 0, the first len(group) / nM indices."""
    return dq.group.decode(np.arange(len(dq.group) // dq.nM))[1:]


def test_divquot_decompose_roundtrip():
    for n, q, h in DECOMPOSE_PARAMS:
        dq = divquot(n, q, h)
        F, ring = dq.F, dq.ring
        units = _units(dq)
        k, u1 = dq.decompose(units)
        assert (u1[0] == 1).all()
        zbar_k = np.zeros_like(units)
        zbar_k[0] = [oracles.scalar(F).pow(F.gen, x) for x in k.tolist()]
        assert np.array_equal(ring.mul_batch(zbar_k, u1), units)


@pytest.mark.parametrize("n,q,h", DECOMPOSE_PARAMS)
def test_divquot_decompose_matches_the_tuple_walk(n, q, h):
    # the batch on every unit against the walk over the powers of the
    # generator, one unit at a time
    dq = divquot(n, q, h)
    units = _units(dq)
    k, u1 = dq.decompose(units)
    got = list(zip(k.tolist(), map(tuple, u1.T.tolist())))
    assert got == [oracles.decompose(dq, tuple(u)) for u in units.T.tolist()]


def test_divquot_pi_is_central_torsion():
    # with M = 1 the central uniformizer is the identity coset, element 0
    dq = divquot(2, 2, 2, M=1)
    pi = (2 % dq.nM,) + oracles.ring_one(dq.ring)
    assert oracles.index(dq.group)[pi] == 0


def _values(counts, R):
    """The CycloNum values of count rows of length R."""
    return [CycloNum(R, row) for row in reduce_counts(R, counts).tolist()]


def test_monomial_extension_matches_dense():
    # the exponent-level extension and the dense-matrix one must produce the
    # same character wherever both apply
    q = 2
    theta = theta_family(2, q, 3, 1, conductor_m=2)[1]
    dq = divquot(2, q, 3, theta.M)
    U3, _ = unipotent_group(2, q, 3)
    H2 = _level3_pattern_subgroup(U3)
    sharp = oracles.level3_sharp_exp(theta.chi)
    els = oracles.elements(U3)
    rep = MonomialRep(U3, H2, oracles.exp_table(U3, els, sharp), theta.R)
    law = oracles.unipotent_law(dq.ring)
    conj = _teichmueller_conj(2, q, 3)
    target = CycloNum.rational(theta.R, 1)
    ext_m, _ = extend_irrep(rep, conj, 0, q**2 - 1, rep.group.generators, target)
    entries = solve_intertwiner(rep, conj, rep.group.generators, rep.R)
    ext_d, _ = _dense_extension(rep, entries, conj, 0, q**2 - 1, rep.group.generators, target)
    rng = random.Random(3)
    us = [0] + [rng.randrange(len(U3)) for _ in range(12)]
    grid = [(k, u) for k in range(q**2 - 1) for u in us]
    k, u = np.array(grid, dtype=np.int64).T
    matrix = oracles.monomial_matrices(rep, law, sharp)
    want = [monomial_extension_value(ext_m, k, els[u], matrix) for k, u in grid]
    assert _values(ext_d.trace_counts(k, u), theta.R) == want
    assert _values(ext_m.trace_counts(k, u), theta.R) == want


def test_dense_extension_restricts_to_rho():
    # the fallback path: conductor-q^2 characters at (n, h) = (2, 2)
    q = 2
    F = _coeff_field(2, q)
    a = next(
        a for a in range(1, F.order) if AddChar(F, q, a).conductor_power() == 2
    )
    psi = AddChar(F, q, a)
    data = build_rho_psi(2, q, psi, R=12)
    target = CycloNum.rational(12, (-1) ** (2 + 1))
    ext, root_exp = extend_irrep(
        data.rep, _teichmueller_conj(2, q, 2), 0, q**2 - 1, data.group.generators, target
    )
    assert root_exp is None
    one = np.zeros(1, dtype=np.int64)
    assert _values(ext.trace_counts(np.ones(1, dtype=np.int64), one), 12) == [target]
    # restriction to the unit group is the original character
    u = np.arange(len(data.group))
    got = ext.trace_counts(np.zeros_like(u), u)
    assert _values(got, 12) == [data.char.value(g) for g in u.tolist()]


def test_build_eta_theta_degrees():
    theta2 = theta_family(2, 2, 2, 1)[-1]
    rt = _build_eta_level2(theta2, divquot(2, 2, 2, 1))
    assert rt.degree == 2 * rt.ext.rep.dim or rt.ext.rep.dim == 1
    theta3 = theta_family(2, 2, 3, 1, conductor_m=2)[0]
    rt3 = _build_eta_level3(theta3, main_example_context(2))
    assert rt3.hom_degree == 2
    assert rt3.degree == 2 * 2**2


def test_eta_family_report_22():
    rep = eta_family_report(2, 2)
    assert len(rep["rows"]) == 12
    assert all(c["status"] == "pass" for c in rep["claims"])
    # irreducible iff regular; the two non-regular thetas have trivial
    # Teichmueller part and a layer character fixed by Frobenius
    assert sum(1 for r in rep["rows"] if not r["irreducible"]) == 2
    for r in rep["rows"]:
        assert r["irreducible"] == r["regular"]
        if r["m"] == 2:
            assert r["irreducible"]


def test_verify_main_example_single_theta():
    ctx = main_example_context(2)
    theta = theta_family(2, 2, 3, 1, conductor_m=2)[0]
    rep = verify_main_example(theta, ctx, check_inner=True)
    assert rep["irreducible"]
    assert rep["degree"] == 8
    assert rep["alternative_reading"] == "fail"


def _oracle_counts(rt, ctx):
    """The count rows of _class_traces from the element-by-element walk."""
    R = rt.theta.R
    reps = ctx.dq.group.decode(ctx.class_reps).T.tolist()
    rows = [np.array(oracles.eta_trace_exps(rt, tuple(g)), dtype=np.int64) for g in reps]
    return np.array([np.bincount(row, minlength=R) for row in rows])


def test_main_example_report_q2(monkeypatch):
    # both theta' readings and the norm come from one build of eta per theta
    # and one pass over the index tables, whose count rows are the counts of
    # the oracle's element-by-element walk
    from dllab import constructions

    built = []

    def counted(theta, ctx):
        built.append(_build_eta_level3(theta, ctx))
        return built[-1]

    monkeypatch.setattr(constructions, "_build_eta_level3", counted)
    rep = main_example_report(2)
    assert len(rep["rows"]) == 24
    assert all(c["status"] == "pass" for c in rep["claims"])
    assert len(built) == 24
    ctx = main_example_context(2)
    for rt, row in zip(built, rep["rows"]):
        counts = _class_traces(rt, ctx)
        assert np.array_equal(counts, _oracle_counts(rt, ctx))
        assert row["norm"] == oracles.class_norm(rt, ctx) == 1


def test_main_example_q3_rows_match_the_oracle():
    # three thetas at q = 3, spread over the family; the context is called
    # as main_example_report calls it, so a cached one is shared
    ctx = main_example_context(3, 1)
    thetas = theta_family(2, 3, 3, 1, conductor_m=2)
    for theta in thetas[:: len(thetas) // 3][:3]:
        rt = _build_eta_level3(theta, ctx)
        counts = _class_traces(rt, ctx)
        assert np.array_equal(counts, _oracle_counts(rt, ctx))
        row = verify_main_example(theta, ctx, check_inner=True)
        assert row["norm"] == oracles.class_norm(rt, ctx) == 1


def test_main_example_context_matches_the_scalar_walks():
    # the index tables of the context against element-by-element walks with
    # the tuple law
    ctx = main_example_context(2)
    dq, G = ctx.dq, ctx.dq.group
    ring, Q = dq.ring, dq.F.order
    law = oracles.divquot_law(ring, dq.nM)
    mul, inv = law

    def dec(x):
        k, h = oracles.decompose(dq, x[1:])
        return [x[0] // 2, k, h[2] * Q + h[4]]

    els = oracles.divquot_tuples(dq)[0]
    S1 = [x for x in els if x[0] % 2 == 0 and x[2] == 0]
    pos = {x: i for i, x in enumerate(S1)}
    assert ctx.dec.T.tolist() == [dec(x) for x in S1]
    ts = [(t, inv(t)) for t in oracles.coset_transversal(G, law, set(S1))]
    reps = [els[i] for i in ctx.class_reps.tolist()]
    rhs = []
    for ci, g in enumerate(reps):
        for t, ti in ts:
            x = mul(ti, mul(g, t))
            if x in pos:
                rhs.append([ci, pos[x]])
    assert ctx.rhs.T.tolist() == rhs
    mackey = []
    for grp, (t, ti) in enumerate((t, ti) for t, ti in ts if t not in pos):
        for s in S1:
            x = mul(t, mul(s, ti))
            if x in pos:
                mackey.append([grp, pos[s], pos[x]])
    assert ctx.mackey.T.tolist() == mackey
    assert ctx.mackey_groups == len(ts) - 1
    lhs = []
    U3 = oracles.unipotent_tuples(ring)[0]
    U3_index = {g: i for i, g in enumerate(U3)}
    for ci, x in enumerate(reps):
        e, u = x[0], x[1:]
        if e % 2 == 0:
            for j in range(2):
                k, u1 = oracles.decompose(dq, oracles.ring_frobenius(ring, u, (2 - j) % 2))
                lhs.append([ci, e // 2, k, U3_index[u1]])
    assert ctx.lhs.T.tolist() == lhs
    zero_rows = []
    zbar = (dq.F.gen,) + (0,) * (ring.length - 1)
    ring_mul = oracles.ring_mul
    for t in (U3[i] for i in ctx.template.transversal.tolist()):
        conj = ring_mul(ring, oracles.ring_inv(ring, t), ring_mul(ring, zbar, t))
        k, h = oracles.decompose(dq, conj)
        if h[1] == 0:
            zero_rows.append([k, h[2] * Q + h[4]])
    assert ctx.zero_rows.T.tolist() == zero_rows
    assert ctx.sharp.tolist() == [g[2] * Q + g[4] for g in U3]
    # the template's supports, which every theta's rep shares
    H2 = {g for g in U3 if g[1] == 0}
    assert ctx.H2.tolist() == sorted(U3_index[g] for g in H2)
    transversal, supports = oracles.monomial_supports(ctx.U3, oracles.unipotent_law(ring), H2)
    perm, h = ctx.template._supports
    assert [U3[i] for i in ctx.template.transversal.tolist()] == transversal
    for i, g in enumerate(U3):
        hs = tuple(U3[x] for x in h[i].tolist())
        assert (tuple(perm[i].tolist()), hs) == supports[g]


def test_main_example_settles_differing_multisets_exactly(monkeypatch):
    # a full coset of the p-th roots of unity sums to zero: added to every
    # class row it changes every multiset but no value, so every class is
    # settled exactly and passes; one extra root is a real difference
    from dllab import constructions

    ctx = main_example_context(2)
    theta = theta_family(2, 2, 3, 1, conductor_m=2)[0]
    want = verify_main_example(theta, ctx, check_inner=True)
    R, p = theta.R, 2
    traces = constructions._class_traces

    def padded(rt, ctx):
        counts = traces(rt, ctx).copy()
        counts[:, :: R // p] += 1
        return counts

    monkeypatch.setattr(constructions, "_class_traces", padded)
    got = verify_main_example(theta, ctx, check_inner=True)
    assert got == {**want, "fallback_compares": want["classes"]}

    def one_more(rt, ctx):
        counts = traces(rt, ctx).copy()
        counts[0, 0] += 1
        return counts

    monkeypatch.setattr(constructions, "_class_traces", one_more)
    # class 0 is the identity, where both sides are eight copies of 1
    message = f"characters differ at class 0 (size 1): {[0] * 9} vs {[0] * 8}"
    with pytest.raises(CharacterMismatchError, match=re.escape(message)):
        verify_main_example(theta, ctx, check_inner=True)


def test_monomial_delta_sums_match_dense():
    # the integer-count Mackey table of the monomial extension against the
    # dense extension's CycloNum partial sums, on the same intertwiner
    theta = next(t for t in theta_family(2, 2, 2, 1) if t.zeta_exp == 1)
    rt = _build_eta_level2(theta, divquot(2, 2, 2, 1))
    assert rt.root_exp is not None
    dq, rep = rt.dq, rt.ext.rep
    ring = dq.ring
    conj = _teichmueller_conj(2, 2, 2)
    entries = solve_intertwiner(rep, conj, rep.group.generators, rep.R)
    dense, _ = _dense_extension(
        rep, entries, conj, 0, 3, rep.group.generators, CycloNum.rational(rep.R, rt.sign)
    )
    index = oracles.index(rep.group)
    pairs = []
    for u in _units(dq).T.tolist():
        (k1, u1), (k2, u2) = oracles.decompose(dq, u), oracles.decompose(
            dq, oracles.ring_frobenius(ring, u, 1)
        )
        pairs.append([k1, index[u1], k2, index[u2]])
    pairs = np.array(pairs, dtype=np.int64).T

    def reduced(sums):
        return sums[0].tolist(), _values(sums[1], rep.R)

    assert reduced(delta_sums(rt.ext, pairs)) == reduced(delta_sums(dense, pairs))


def _recorded_eta_family(monkeypatch, n, q):
    """eta_family_report(n, q), recording each RTheta it builds and each
    delta_sums call it makes, as (ext, pairs, result)."""
    from dllab import constructions

    builds, calls = [], []
    build, sums = constructions._build_eta_level2, constructions.delta_sums

    def recorded_build(theta, dq):
        builds.append(build(theta, dq))
        return builds[-1]

    def recorded_sums(ext, pairs):
        calls.append((ext, pairs, sums(ext, pairs)))
        return calls[-1][2]

    monkeypatch.setattr(constructions, "_build_eta_level2", recorded_build)
    monkeypatch.setattr(constructions, "delta_sums", recorded_sums)
    eta_family_report(n, q)
    return builds, calls


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2)])
def test_monomial_delta_sums_match_the_scalar_walk(monkeypatch, n, q):
    # every monomial psi key of eta_family_report: its Mackey pair arrays
    # against the tuple decompose one unit at a time, and its delta sums
    # against the trace_exps walk over tuple matrices
    _, calls = _recorded_eta_family(monkeypatch, n, q)
    calls = [call for call in calls if isinstance(call[0], MonomialExtension)]
    dq = divquot(n, q, 2, 1)
    index = {g: i for i, g in enumerate(oracles.unipotent_tuples(dq.ring)[0])}
    keys = {(2, 2): 2, (3, 2): 8}[n, q]  # the psi with m < n at (2, 2), all at (3, 2)
    assert len(calls) == keys * (n - 1)
    for c, (ext, pairs, sums) in enumerate(calls):
        j = c % (n - 1) + 1
        want = []
        for u in oracles.divquot_tuples(dq)[0][: len(dq.group) // dq.nM]:
            u = u[1:]
            frob = oracles.ring_frobenius(dq.ring, u, (n - j) % n)
            (k1, u1), (k2, u2) = oracles.decompose(dq, u), oracles.decompose(dq, frob)
            want.append([k1, index[u1], k2, index[u2]])
        assert pairs.T.tolist() == want
        deltas, counts = sums
        matrix = oracles.monomial_matrices(ext.rep, oracles.unipotent_law(dq.ring))
        want = oracles.monomial_delta_sums(ext, pairs, matrix)
        assert list(zip(deltas.tolist(), _values(counts, ext.R))) == want


@pytest.mark.parametrize("q,keys", [(2, 2), (3, 6)])
def test_dense_extensions_match_the_cyclonum_route(monkeypatch, q, keys):
    # every dense psi key of eta_family_report at n = 2: the count-tensor
    # traces on every (k, u) and the delta sums on the Mackey pairs against
    # the seed's route on rows of CycloNum entries
    builds, calls = _recorded_eta_family(monkeypatch, 2, q)
    dense = [rt for rt in builds if isinstance(rt.ext, CyclicExtension)]
    calls = [call for call in calls if isinstance(call[0], CyclicExtension)]
    assert len(dense) == len(calls) == keys
    for rt, (ext, pairs, (deltas, counts)) in zip(dense, calls):
        assert ext is rt.ext
        rep, R, c = ext.rep, ext.R, ext.c
        conj = _teichmueller_conj(2, q, 2)
        gens = rep.group.generators
        entries = solve_intertwiner(rep, conj, gens, R)
        target = CycloNum.rational(R, rt.sign)
        powers = oracles.dense_extension(rep, entries, conj, 0, c, gens, target)
        grid = [(k, u) for k in range(c) for u in range(len(rep.group))]
        values = {z: oracles.dense_value(rep, powers, *z) for z in grid}
        k, u = np.array(grid, dtype=np.int64).T
        assert _values(ext.trace_counts(k, u), R) == list(values.values())
        want = oracles.dense_delta_sums(values, c, pairs)
        assert list(zip(deltas.tolist(), _values(counts, R))) == want


@pytest.mark.parametrize("q", [2, 3])
def test_level3_intertwiners_match_the_scalar_solve(q):
    # every theta of main-example at q = 2 and three spread over q = 3: the
    # chi table of the rep against theta-sharp, and the array solve against
    # the seed's phase propagation on tuple matrices
    ctx = main_example_context(q)
    thetas = theta_family(2, q, 3, 1, conductor_m=2)
    if q == 3:
        thetas = thetas[:: len(thetas) // 3][:3]
    ring, F = ctx.dq.ring, ctx.dq.F
    els, gens = oracles.unipotent_tuples(ring)
    for theta in thetas:
        rep = _build_eta_level3(theta, ctx).ext.rep
        sharp = oracles.level3_sharp_exp(theta.chi)
        assert rep.chi.tolist() == [sharp(g) for g in els]
        fast = solve_intertwiner(rep, _teichmueller_conj(2, q, 3), ctx.U3.generators, rep.R)
        matrix = oracles.monomial_matrices(rep, oracles.unipotent_law(ring), sharp)
        conj = lambda x: oracles.scalar_conj(ring, F.gen, x)
        slow = oracles.solve_intertwiner(matrix, conj, gens, rep.dim, rep.R)
        assert fast == slow


def test_construction_checks_survive_python_O():
    code = """
import json
from types import SimpleNamespace as NS

import numpy as np

from dllab.charlib import AddChar, layer_as_additive_char, theta_family
from dllab.counting import (conductor2_char, eigendims, exp_sum, inductive_check,
    intertwiner_s2_data, intertwiner_surface)
from dllab.cyclo import CycloNum, _polydiv_exact
from dllab.matmodel import n2_norm_batch, nm_gnq_batch
from dllab.errors import DLLabError
from dllab.ffield import Field, field
from dllab.twistring import h_m_pattern
from dllab.repkit import (CyclicExtension, ExpChar, GroupModel, MonomialRep,
    _dense_extension, _monomial_extension, abelian_character_extensions, extend_irrep,
    inner_product)
import dllab.constructions as C
from oracles import exp_table, table_group

# element i of C4 is i, so its index law is its tuple law
C4 = GroupModel(4, lambda a, b: (a + b) % 4, lambda a: -a % 4, lambda i: i[None], [1])
# D4 as r^a s^b, element 2 a + b; its 2-dimensional irrep, with conjugation
# by s = (0, 1), element 1, as the twist, and r = (1, 0) at element 2
D4_mul = lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)
D4_inv = lambda x: ((-x[0] if x[1] == 0 else x[0]) % 4, x[1])
D4_els = [(a, b) for a in range(4) for b in range(2)]
D4 = table_group(D4_els, (D4_mul, D4_inv), [(1, 0), (0, 1)])
rotations = {(a, 0) for a in range(4)}
H = np.arange(0, 8, 2)
rho = MonomialRep(D4, H, exp_table(D4, rotations, lambda h: h[0]), 4)
s, r, gens, none = 1, 2, D4.generators, np.zeros(0, dtype=np.int64)
conj = np.array([D4_els.index(D4_mul(D4_mul((0, 1), x), D4_inv((0, 1)))) for x in D4_els])
ident = np.arange(8)
# T = 1: it does not intertwine conjugation by s; with the identity conj it
# does, but T^2 = 1 is not rho(s) (a swap) nor a multiple of rho(r) = diag(i, -i)
one_T = (np.arange(2), np.zeros(2, dtype=np.int64))
# over no generators T = diag(1, zeta_8) passes, but |Tr T|^2 = 2 + sqrt(2)
rho8 = MonomialRep(D4, H, exp_table(D4, rotations, lambda h: 2 * h[0]), 8)
# A^1 = diag(1, 0) with N = 2: the trace at g is 1/2, not an algebraic integer
half_A = np.zeros((2, 2, 2, 4), dtype=np.int64)
half_A[:, 0, 0, 0] = half_A[0, 1, 1, 0] = 1
s2, f, j, n = intertwiner_s2_data(2)
F4 = Field(2, 2)
F4.trace_table(field(2, 1))  # cached, so the patch below reaches only the cross-check
F4.retract_table = lambda sub: np.full(4, -1)  # contradicts the conductor kernel check
F4_broken = Field(2, 2)
F4_broken.mul = np.bitwise_xor  # 1 * 1 = 0 breaks the norm's determinant shape


class BadRing:
    def __init__(self, ring):
        self.inv_batch = ring.inv_batch

    def mul_batch(self, a, b):
        # every product is 1 + tau
        return np.stack([a[0] * 0 + 1, a[0] * 0 + 1] + [a[0] * 0] * 3)


def stub(name, value):
    setattr(C, name, value)


ring_of = C.twisted_ring
thunks = [
    lambda: C.build_rho_psi(2, 2, AddChar(field(2, 4), 2, 1)),
    lambda: C.build_rho_psi(2, 2, AddChar(field(2, 2), 2, 1), R=3),
    lambda: abelian_character_extensions(C4, range(4), ([0], [0]), 2),
    lambda: extend_irrep(rho, conj, 0, 3, gens, CycloNum.rational(4, 0)),
    lambda: extend_irrep(rho, conj, 0, 2, gens, CycloNum.rational(4, 0)),
    lambda: _monomial_extension(rho, *one_T, conj, 0, 2, gens, CycloNum.rational(4, 0)),
    lambda: _monomial_extension(rho, *one_T, ident, s, 2, gens, CycloNum.rational(4, 0)),
    lambda: _monomial_extension(rho, *one_T, ident, r, 2, gens, CycloNum.rational(4, 0)),
    lambda: _dense_extension(rho, {(0, 0): 0, (1, 1): 0}, conj, 0, 2, gens,
                             CycloNum.rational(4, 0)),
    lambda: _dense_extension(rho8, {(0, 0): 0, (1, 1): 1}, conj, 0, 2, none,
                             CycloNum.rational(8, 1)),
    lambda: _dense_extension(rho, {(0, 0): 0, (1, 1): 0}, ident, 0, 2, gens,
                             CycloNum.rational(4, "1/2")),
    lambda: CyclicExtension(rho, half_A, 2, 2, 4).trace_counts(np.ones(1, dtype=np.int64),
                                                              np.zeros(1, dtype=np.int64)),
    lambda: inner_product(ExpChar(C4, np.zeros(4, dtype=np.int64), 4),
                          ExpChar(C4, np.zeros(4, dtype=np.int64), 2)),
    lambda: C.verify_main_example(theta_family(2, 2, 2, 1)[0], C.main_example_context(2), False),
    lambda: (stub("assert_nonneg_integer", lambda val: 2), C.eta_family_report(2, 2)),
    lambda: (stub("twisted_ring", lambda *a: BadRing(ring_of(*a))),
             C.extension_orbit_report(2)),
    lambda: exp_sum(intertwiner_surface(2), AddChar(field(2, 1), 2, 1), 1),
    lambda: inductive_check(s2, f, j, n, 2, AddChar(s2.base, 2, 1), {1: 0}),
    lambda: eigendims([NS(R=4), NS(R=2)], np.zeros((4, 4, 4), dtype=np.int64), 2),
    lambda: h_m_pattern(2, 3, 1),
    lambda: AddChar(F4, 2, 1).conductor_power(),
    lambda: AddChar(field(2, 1), 4, 1).conductor_power(),
    lambda: layer_as_additive_char(None, None, field(2, 2), 3, 2, 3),
    lambda: layer_as_additive_char(None, NS(table=np.ones(2, dtype=np.int64)), field(2, 1), 2, 2,
                                   2),
    lambda: _polydiv_exact([1, 0, 1], [1, 2]),
    lambda: _polydiv_exact([1, 0, 1], [1, 1]),
    lambda: CycloNum(4, (1, 2, 3)),
    lambda: nm_gnq_batch(2, 2, F4_broken, np.array([[1], [0]])),
    lambda: n2_norm_batch(ring_of(2, 2, 3, field(2, 2)), np.zeros((4, 1), dtype=np.int64)),
    # the generator of F_4 does not lie in F_2
    lambda: AddChar(field(2, 2), 2, 2).factor_through_trace(1),
    # last: every character now reads as conductor q
    lambda: (setattr(AddChar, "conductor_power", lambda self: 1), conductor2_char(2)),
]
for thunk in thunks:
    try:
        thunk()
    except DLLabError as exc:
        print(json.dumps([type(exc).__name__, str(exc)]))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), tests]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    raised = [json.loads(line) for line in out.stdout.splitlines()]
    # the array checks of the two extension routes keep their messages
    assert [message for _, message in raised[5:12]] == [
        "intertwiner verification failed",
        "T^c does not have the support of rho(g^c)",
        "T^c is not a scalar multiple of rho(g^c)",
        "intertwiner verification failed",
        "|Tr T|^2 = 2 + 1*z8^1 + -1*z8^3 is not rational",
        "target trace 1/2 is not an integer of Q(zeta_4)",
        "a trace of A^k rho(u) is not divisible by 2^k",
    ]
    assert [name for name, _ in raised] == [
        "UnsupportedParametersError",
        "RootOrderError",
        "RootOrderError",
        "RootOrderError",
        "NoExtensionError",
        "NotInvariantError",
        "NotInvariantError",
        "NotInvariantError",
        "NotInvariantError",
        "NoExtensionError",
        "NoExtensionError",
        "InexactDivisionError",
        "MixedOrderError",
        "UnsupportedParametersError",
        "CharacterMismatchError",
        "OutsideSubgroupError",
        "UnsupportedParametersError",
        "UnsupportedParametersError",
        "MixedOrderError",
        "UnsupportedParametersError",
        "NotInSubfieldError",
        "UnsupportedParametersError",
        "RootOrderError",
        "CharacterMismatchError",
        "InexactDivisionError",
        "InexactDivisionError",
        "MixedOrderError",
        "MatrixShapeError",
        "UnsupportedParametersError",
        "NotInSubfieldError",
        "CharacterMismatchError",
    ]
    assert raised[-2] == ["NotInSubfieldError", "element 2 of F_2^2 not in F_2"]
