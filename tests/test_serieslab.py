import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dllab import cli
from dllab.errors import AllZeroError, OperandMismatchError, PrecisionLossError
from dllab.ffield import field
from dllab.serieslab import (
    SeriesBatch,
    det_valuation,
    frob_F,
    mat_det_series,
    mat_identity_series,
    mat_mul,
    quotient_residual,
    solve_quotient,
    xtilde_form,
    xtilde_matrix,
)
from oracles import LaurentSeries, batch_row, series_batch, series_identity


def rand_series(F, rng, prec, vmin=0, vmax=2):
    v = rng.randrange(vmin, vmax + 1)
    return LaurentSeries(F, v, [rng.randrange(F.order) for _ in range(prec - v)], prec)


def rand_upper_unipotent(F, rng, n, prec):
    h = series_identity(F, n, prec)
    for i in range(n):
        for j in range(i + 1, n):
            h[i][j] = rand_series(F, rng, prec)
    return h


def test_series_ring_axioms_sampled():
    F = field(2, 4)
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (rand_series(F, rng, 6) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        assert a.shift(2).shift(-2) == a


def test_series_precision_propagation():
    F = field(2, 2)
    a = LaurentSeries(F, 0, [1, 1, 1, 1], 4)
    b = LaurentSeries(F, 1, [1, 1], 3)
    assert (a + b).prec == 3
    # product window: min(v_a + prec_b, v_b + prec_a)
    assert (a * b).prec == 3
    assert a.shift(-1).prec == 3
    with pytest.raises(PrecisionLossError):
        a.coeff(4)


def test_series_zero_has_no_valuation():
    F = field(2, 2)
    with pytest.raises(AllZeroError):
        LaurentSeries.zero(F, 5).valuation()


def test_frob_identity_and_diag():
    F = field(2, 4)  # F_{q^4}, q = 2
    q, n, prec = 2, 4, 5
    I = series_identity(F, n, prec)
    assert frob_F(I, q) == I
    # diag(a, a^q, a^{q^2}, a^{q^3}) is F-stable for a in F_{q^n}
    a = F.gen
    D = series_identity(F, n, prec)
    for i in range(n):
        D[i][i] = LaurentSeries.const(F, oracles.scalar(F).frob(a, q**i), prec)
    assert frob_F(D, q) == D


def test_frob_top_right_entry():
    F = field(2, 4)
    q, n, prec = 2, 3, 5
    rng = random.Random(7)
    A = [[rand_series(F, rng, prec) for _ in range(n)] for _ in range(n)]
    got = frob_F(A, q)
    want = A[n - 1][n - 2].map_coeffs(lambda c: oracles.scalar(F).frob(c, q)).shift(-1)
    assert got[0][n - 1] == want


def test_frob_matches_varpi_conjugation():
    # varpi * F(A) == A^phi * varpi, avoiding an explicit inverse
    F = field(3, 2)
    q, n, prec = 3, 3, 5
    rng = random.Random(11)
    for _ in range(10):
        A = [[rand_series(F, rng, prec) for _ in range(n)] for _ in range(n)]
        # varpi: ones on the superdiagonal, pi in the lower-left corner
        W = [[LaurentSeries.zero(F, prec)] * n for _ in range(n)]
        for i in range(n - 1):
            W[i][i + 1] = LaurentSeries.one(F, prec)
        W[n - 1][0] = LaurentSeries.pi_power(F, 1, prec)
        lhs = mat_mul(W, frob_F(A, q))
        Aphi = [[e.map_coeffs(lambda c: oracles.scalar(F).frob(c, q)) for e in row] for row in A]
        rhs = mat_mul(Aphi, W)
        assert lhs == rhs


def test_frob_is_multiplicative_sampled():
    F = field(2, 4)
    q, n, prec = 2, 3, 6
    rng = random.Random(3)
    for _ in range(10):
        A = [[rand_series(F, rng, prec) for _ in range(n)] for _ in range(n)]
        B = [[rand_series(F, rng, prec) for _ in range(n)] for _ in range(n)]
        assert frob_F(mat_mul(A, B), q) == mat_mul(frob_F(A, q), frob_F(B, q))


def test_frob_requires_two_digits():
    F = field(2, 2)
    I = series_identity(F, 2, 1)
    with pytest.raises(PrecisionLossError):
        frob_F(I, 2)


def test_solve_quotient_identity():
    F = field(2, 4)
    I = series_identity(F, 3, 6)
    B, g = solve_quotient(I, 2)
    assert B == I and g == I


def test_solve_quotient_n2_reads_off_h():
    # n = 2 forces B = identity, so g is just h
    F = field(2, 4)
    rng = random.Random(19)
    h = rand_upper_unipotent(F, rng, 2, 6)
    B, g = solve_quotient(h, 2)
    assert B == series_identity(F, 2, 6)
    assert g == h


@pytest.mark.parametrize("p,k,q,n", [(2, 4, 2, 3), (2, 4, 4, 3), (3, 2, 3, 2)])
def test_solve_quotient_residual_and_uniqueness(p, k, q, n):
    F = field(p, k)
    rng = random.Random(23)
    prec = 6
    for _ in range(25):
        h = rand_upper_unipotent(F, rng, n, prec)
        B, g = solve_quotient(h, q)
        # shape: b_{i,n} = 0 for i < n; g is the identity off its first row
        for i in range(n - 1):
            assert B[i][n - 1].is_zero()
        for i in range(1, n):
            for j in range(n):
                if i == j:
                    assert g[i][j] == LaurentSeries.one(F, prec)
                else:
                    assert g[i][j].is_zero()
        res = quotient_residual(h, B, g, q)
        assert all(e.is_zero() for row in res for e in row)
        B2, g2 = solve_quotient(h, q, order="rowwise")
        assert B == B2 and g == g2


def test_xtilde_round_trip_and_examples():
    # the scalar oracle; the batch is compared against it below
    q, n, prec = 2, 2, 5
    Fq = field(2, 1)
    F4 = field(2, 4)
    # identity
    I = series_identity(F4, n, prec)
    got = oracles.xtilde_form(I, q, Fq)
    assert got is not None
    assert got[0] == LaurentSeries.one(F4, prec) and got[1].is_zero()

    # diag(a, a^q) with a in F_{q^2}^x embedded in F_16: det = Nm(a) in F_q
    F2 = field(2, 2)
    a = oracles.scalar(F4).embed(F2, F2.gen)
    coeffs = (LaurentSeries.const(F4, a, prec), LaurentSeries.zero(F4, prec))
    A = xtilde_matrix(F4, q, n, coeffs)
    got = oracles.xtilde_form(A, q, Fq)
    assert got == coeffs
    assert xtilde_matrix(F4, q, n, got) == A

    # pattern violation: break the phi-twist
    A[1][1] = LaurentSeries.const(F4, F4.gen, prec)
    assert oracles.xtilde_form(A, q, Fq) is None

    # correct pattern but determinant not rational over F_q
    bad = (LaurentSeries.const(F4, F4.gen, prec), LaurentSeries.zero(F4, prec))
    assert oracles.xtilde_form(xtilde_matrix(F4, q, n, bad), q, Fq) is None


def test_det_valuation_basic():
    F = field(2, 2)
    prec = 5
    unit = LaurentSeries.one(F, prec)
    zero = LaurentSeries.zero(F, prec)
    assert det_valuation([unit, zero, zero]) == 0
    assert det_valuation([zero, unit, zero]) == 1
    assert det_valuation([zero, zero, unit.shift(1)]) == 3 * 1 + 2
    with pytest.raises(AllZeroError):
        det_valuation([zero, zero, zero])


def test_det_valuation_matches_determinant_sampled():
    F = field(2, 2)
    q, n, prec = 2, 3, 6
    rng = random.Random(31)
    for _ in range(200):
        coeffs = [rand_series(F, rng, prec, 0, 1) for _ in range(n)]
        if all(s.is_zero() for s in coeffs):
            continue
        det = mat_det_series(xtilde_matrix(F, q, n, coeffs))
        want = det_valuation(coeffs)
        assert det.valuation() == want


def test_det_valuation_exhaustive_f4_small_window():
    # n = 2, coefficients over F_4 with window < 2 (a grid small enough to
    # sweep completely; the full window-3 grid runs in the acceptance suite)
    F = field(2, 2)
    q, n, prec = 2, 2, 4
    singles = [
        LaurentSeries(F, 0, [c0, c1], prec)
        for c0 in range(4)
        for c1 in range(4)
    ]
    for a0 in singles:
        for a1 in singles:
            coeffs = [a0, a1]
            if a0.is_zero() and a1.is_zero():
                with pytest.raises(AllZeroError):
                    det_valuation(coeffs)
                continue
            want = det_valuation(coeffs)
            det = mat_det_series(xtilde_matrix(F, q, n, coeffs))
            if want < det.prec:
                assert det.valuation() == want
            else:
                assert det.is_zero()


def test_xtilde_reduction_agrees_with_truncated_det_model():
    # reduce a pattern matrix mod pi^h and compare its determinant with the
    # truncated-polynomial matrix model determinant
    from dllab.twistring import twisted_ring

    F = field(2, 4)
    q, n, h, prec = 2, 2, 3, 6
    ring = twisted_ring(n, q, h, F)
    rng = random.Random(41)
    for _ in range(40):
        coeffs = [
            LaurentSeries(F, 0, [rng.randrange(F.order) for _ in range(h)], prec)
            for _ in range(n)
        ]
        if coeffs[0].coeff(0) == 0:
            continue
        # twisted-ring element with the same pi-expansion
        elem = [0] * ring.length
        for j in range(n):
            for t in range(h):
                if j + n * t < ring.length:
                    elem[j + n * t] = coeffs[j].coeff(t)
        det_tp = oracles.det_iota(ring, tuple(elem))
        det_series = mat_det_series(xtilde_matrix(F, q, n, coeffs))
        assert list(det_tp) == [det_series.coeff(t) for t in range(h)]


# -- SeriesBatch against the scalar oracle --------------------------------------

# every coefficient field of the series suite: F_4, F_9, F_16, F_64
SUITE_FIELDS = [(2, 2), (3, 2), (2, 4), (2, 6)]


def key(s):
    return (s.v, s.coeffs, s.prec)


def rows(batch):
    return [key(batch_row(batch, r)) for r in range(len(batch))]


def check_invariants(batch):
    """The exponent-major layout: c is one C-contiguous (E, N) array with a
    column per series.  Then zero outside every window, v the first nonzero
    exponent or prec, and no all-zero row at either end of the array."""
    assert batch.c.ndim == 2 and batch.c.flags.c_contiguous
    assert batch.c.shape[1] == len(batch)
    exps = batch.lo + np.arange(batch.c.shape[0])
    inside = (exps[:, None] >= batch.v) & (exps[:, None] < batch.prec)
    assert not np.any(batch.c[~inside])
    assert np.all(batch.v <= batch.prec)
    for r in range(len(batch)):
        if batch.v[r] < batch.prec[r]:
            assert batch.c[batch.v[r] - batch.lo, r] != 0
    if batch.c.shape[0]:
        assert batch.c[0].any() and batch.c[-1].any()


@st.composite
def series_lists(draw, F, n):
    coeff = st.one_of(st.just(0), st.integers(0, F.order - 1))
    out = []
    for _ in range(n):
        v = draw(st.integers(-3, 5))
        prec = draw(st.integers(v, v + 6))
        cs = draw(st.lists(coeff, max_size=prec - v))
        out.append(LaurentSeries(F, v, cs, prec))
    return out


@pytest.mark.parametrize("pk", SUITE_FIELDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_ops_match_scalar_rows(pk, data):
    F = field(*pk)
    n = data.draw(st.integers(1, 5))
    a = data.draw(series_lists(F, n))
    b = data.draw(series_lists(F, n))
    A, B = series_batch(a), series_batch(b)
    j = data.draw(st.integers(-4, 4))
    e = data.draw(st.sampled_from([F.p**i for i in range(2 * F.k + 1)]))
    cut = min(s.prec for s in a) - data.draw(st.integers(0, 3))
    cuts = [s.prec - data.draw(st.integers(0, 3)) for s in a]
    cases = [
        (A, a),
        (A + B, [x + y for x, y in zip(a, b)]),
        (A - B, [x - y for x, y in zip(a, b)]),
        (A * B, [x * y for x, y in zip(a, b)]),
        (-A, [-x for x in a]),
        (A.shift(j), [x.shift(j) for x in a]),
        (A.truncate(cut), [x.truncate(cut) for x in a]),
        (A.truncate(np.array(cuts)), [x.truncate(t) for x, t in zip(a, cuts)]),
        (A.frob(e), [x.map_coeffs(lambda c: oracles.scalar(F).frob(c, e)) for x in a]),
    ]
    assert [key(x.frob(e)) for x in a] == [key(w) for w in cases[-1][1]]
    for batch, want in cases:
        check_invariants(batch)
        assert rows(batch) == [key(w) for w in want]
    assert A.is_zero().tolist() == [x.is_zero() for x in a]
    assert A.equals(B).tolist() == [x == y for x, y in zip(a, b)]


@pytest.mark.parametrize("pk", SUITE_FIELDS)
def test_batch_operand_above_the_other_window(pk):
    # a's valuation lies above b's precision, and zero rows sit in between
    F = field(*pk)
    c = F.order - 1
    a = [LaurentSeries(F, 5, [c, 1], 8), LaurentSeries.zero(F, 9), LaurentSeries(F, -2, [1], 0)]
    b = [LaurentSeries(F, 0, [1, c], 3), LaurentSeries(F, 1, [c], 2), LaurentSeries.zero(F, -4)]
    A, B = series_batch(a), series_batch(b)
    for batch, want in [
        (A + B, [x + y for x, y in zip(a, b)]),
        (B + A, [y + x for x, y in zip(a, b)]),
        (A - B, [x - y for x, y in zip(a, b)]),
        (A * B, [x * y for x, y in zip(a, b)]),
        (B * A, [y * x for x, y in zip(a, b)]),
    ]:
        check_invariants(batch)
        assert rows(batch) == [key(w) for w in want]
    assert A.equals(B).tolist() == [x == y for x, y in zip(a, b)]


def test_batch_rejects_wider_window_and_mismatched_operands():
    F = field(2, 2)
    A = SeriesBatch.one(F, np.array([3, 4]))
    with pytest.raises(PrecisionLossError):
        A.truncate(4)
    with pytest.raises(OperandMismatchError):
        A + SeriesBatch.one(field(2, 4), np.array([3, 4]))
    with pytest.raises(OperandMismatchError):
        A * SeriesBatch.one(F, np.array([3]))
    with pytest.raises(TypeError):
        A == A


def stack(mats):
    """Matrices of LaurentSeries, stacked entrywise into one batch matrix."""
    n = len(mats[0])
    return [[series_batch([M[i][j] for M in mats]) for j in range(n)] for i in range(n)]


def assert_rows_match(batch_mat, scalar_mats):
    for i, row in enumerate(batch_mat):
        for j, entry in enumerate(row):
            assert rows(entry) == [key(M[i][j]) for M in scalar_mats]


def test_batched_det_matches_scalar_on_full_f4_grid():
    F = field(2, 2)
    singles = [LaurentSeries(F, 0, cs, 5) for cs in itertools.product(range(4), repeat=3)]
    pairs = list(itertools.product(singles, repeat=2))
    coeffs = [series_batch([p[t] for p in pairs]) for t in range(2)]
    det = mat_det_series(xtilde_matrix(F, 2, 2, coeffs))
    assert rows(det) == [key(mat_det_series(xtilde_matrix(F, 2, 2, list(p)))) for p in pairs]


def assert_det_and_valuation_match_scalar(q, pk, n):
    F = field(*pk)
    rng = random.Random(q)
    samples = [[rand_series(F, rng, 6, 0, 1) for _ in range(n)] for _ in range(150)]
    samples = [s for s in samples if not all(x.is_zero() for x in s)]
    coeffs = [series_batch([s[t] for s in samples]) for t in range(n)]
    A = xtilde_matrix(F, q, n, coeffs)
    assert_rows_match(A, [xtilde_matrix(F, q, n, s) for s in samples])
    det = mat_det_series(A)
    check_invariants(det)
    assert rows(det) == [key(mat_det_series(xtilde_matrix(F, q, n, s))) for s in samples]
    assert det_valuation(coeffs).tolist() == [det_valuation(s) for s in samples]


@pytest.mark.parametrize("q,pk", [(2, (2, 2)), (3, (3, 2)), (4, (2, 6))])
def test_batched_det_and_valuation_match_scalar_3x3(q, pk):
    assert_det_and_valuation_match_scalar(q, pk, 3)


def test_batched_det_and_valuation_match_scalar_4x4_over_f9():
    # 24 signed terms per determinant through the Zech-table addition and
    # negation of odd characteristic; the suite runs F_9 only at n = 2
    assert_det_and_valuation_match_scalar(3, (3, 2), 4)


@pytest.mark.parametrize("p,k,q,n", [(2, 4, 2, 3), (2, 6, 2, 3), (3, 2, 3, 2), (2, 4, 4, 3)])
def test_batched_solver_matches_scalar_on_suite_configs(p, k, q, n):
    F = field(p, k)
    rng = random.Random(p * 100 + k * 10 + q)
    hs = [rand_upper_unipotent(F, rng, n, 6) for _ in range(40)]
    h = stack(hs)
    for order in ("stepwise", "rowwise"):
        B, g = solve_quotient(h, q, order=order)
        scalar = [solve_quotient(x, q, order=order) for x in hs]
        assert_rows_match(B, [s[0] for s in scalar])
        assert_rows_match(g, [s[1] for s in scalar])
        res = quotient_residual(h, B, g, q)
        assert_rows_match(res, [quotient_residual(x, *s, q) for x, s in zip(hs, scalar)])
        assert all(e.is_zero().all() for row in res for e in row)


def test_batched_frob_requires_two_digits_in_every_row():
    F = field(2, 2)
    I = mat_identity_series(F, 2, np.array([3, 1, 4]))
    with pytest.raises(PrecisionLossError):
        frob_F(I, 2)


def assert_xtilde_form_matches_scalar(mats, q, Fq):
    """The batched xtilde_form on the stacked matrices against the scalar
    oracle on each: the mask, and the coefficients wherever it is set."""
    cand, ok = xtilde_form(stack(mats), q, Fq)
    want = [oracles.xtilde_form(M, q, Fq) for M in mats]
    assert ok.tolist() == [w is not None for w in want]
    for r, w in enumerate(want):
        if w is not None:
            assert [key(batch_row(c, r)) for c in cand] == [key(x) for x in w]


@pytest.mark.parametrize("seed", [0, 1])
def test_round_trip_and_xtilde_form_match_scalar_on_drawn_pairs(seed):
    # the series suite's 200 instances, drawn the same way
    F16, Fq = field(2, 4), field(2, 1)
    rows = cli._draw_rows(F16, random.Random(seed), 5, 2 * 200, 0, 1).reshape(200, 2, 5)
    got = cli._round_trip_failures(F16, Fq, 2, rows)
    assert got.tolist() == oracles.round_trip_failures(F16, Fq, 2, rows)
    mats = [xtilde_matrix(F16, 2, 2, [LaurentSeries(F16, 0, w, 5) for w in pair])
            for pair in rows.tolist()]
    assert_xtilde_form_matches_scalar(mats, 2, Fq)


def test_round_trip_and_xtilde_form_match_scalar_on_edge_rows():
    F16, Fq = field(2, 4), field(2, 1)
    q, prec = 2, 5
    a = oracles.scalar(F16).embed(field(2, 2), 2)  # in F_4, so det = Nm(a) lies in F_2
    g = F16.gen  # det = g^3 does not
    rows = np.zeros((4, 2, prec), dtype=np.int64)
    rows[0, 0, 0] = a  # rational: recovered
    rows[1, 0, 0] = g  # non-rational: rejected
    rows[3, 1, 2] = 1  # det = pi^5: rational at a positive valuation
    # row 2 stays zero: the determinant vanishes, and the round trip fails
    got = cli._round_trip_failures(F16, Fq, q, rows)
    assert got.tolist() == oracles.round_trip_failures(F16, Fq, q, rows)
    assert got.tolist() == [False, False, True, False]
    mats = [xtilde_matrix(F16, q, 2, [LaurentSeries(F16, 0, w, prec) for w in pair])
            for pair in rows.tolist()]
    # a matrix of the wrong shape: the phi-twist on the diagonal is broken
    broken = [row[:] for row in mats[0]]
    broken[1][1] = LaurentSeries.const(F16, F16.gen, prec)
    assert_xtilde_form_matches_scalar(mats + [broken], q, Fq)
    _, ok = xtilde_form(stack(mats + [broken]), q, Fq)
    assert ok.tolist() == [True, False, False, True, False]


def test_series_checks_survive_python_O():
    code = (
        "from dllab.errors import DLLabError\n"
        "from dllab.ffield import field\n"
        "from dllab.serieslab import SeriesBatch, xtilde_matrix\n"
        "a = SeriesBatch.one(field(2, 2), [3])\n"
        "b = SeriesBatch.one(field(2, 4), [3])\n"
        "for thunk in (lambda: a + b, lambda: a * b,\n"
        "              lambda: xtilde_matrix(field(2, 2), 2, 3, [a, a])):\n"
        "    try:\n"
        "        thunk()\n"
        "    except DLLabError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [
        "OperandMismatchError", "OperandMismatchError", "MatrixShapeError"
    ]
