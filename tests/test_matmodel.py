"""Matrix model tests.

Closed-form oracles used below:

* n = 2, h = 2:  N(a_1, a_2) = a_2 + a_2^q - a_1^(q+1).
* top Lang coefficient:  pr_n(F(g) g^(-1)) = N(g)^q - N(g)  (h = 2).
* restricted to the center, N(0, ..., 0, a_n) = Tr_{F_{q^n}/F_q}(a_n).
* n = 2, h = 3 membership equations for unipotent points:
    a_2^q + a_2 - a_1^(q+1) in F_q,
    a_4^q + a_4 + a_2^(q+1) - a_1 a_3^q - a_3 a_1^q in F_q.
* star action for (n, h) = (2, 3):
    (1 + l pi + m pi^2) * (a_1, a_2, a_3, a_4)
        = (a_1, l + a_2, a_3 + l a_1, m + a_4 + l a_2).
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from dllab.errors import MatrixShapeError, UnsupportedParametersError
from dllab.ffield import field, splitting_params
from dllab.matmodel import in_Xh, in_Xh_batch, star_action_batch, unipotent_chunks
from dllab.twistring import TwistedRing, twisted_ring
import oracles
from oracles import (
    det_iota,
    enumerate_unipotent,
    gnq_mul,
    iota_prime,
    iota_prime_via_varpi,
    lang,
    mat_mul,
    n2_norm,
    nm_gnq,
    normalize_shape,
    recover_from_matrix,
    ring_mul,
    scalar,
    star_action,
    tp_mul,
)


def frob(F, a, q):
    return scalar(F).frob(a, q)


@pytest.mark.parametrize(
    "n,q,h,p,k", [(2, 2, 2, 2, 2), (2, 2, 3, 2, 4), (3, 2, 2, 2, 6), (2, 3, 2, 3, 2)]
)
def test_iota_matches_varpi_construction(n, q, h, p, k):
    R = twisted_ring(n, q, h, field(p, k))
    F = R.coeff_field
    import random

    rng = random.Random(3)
    for _ in range(25):
        a = tuple(rng.randrange(F.order) for _ in range(R.length))
        assert iota_prime(R, a) == iota_prime_via_varpi(R, a)


def test_recover_inverts_iota():
    R = twisted_ring(2, 2, 3, field(2, 4))
    F = R.coeff_field
    import random

    rng = random.Random(5)
    for _ in range(25):
        a = tuple(rng.randrange(F.order) for _ in range(R.length))
        assert recover_from_matrix(R, iota_prime(R, a)) == a


@pytest.mark.parametrize("n,q,p,k", [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 3)])
def test_iota_multiplicative_for_rational_right_factor(n, q, p, k):
    # F_{q^n}-rational right factors act by right multiplication on the image
    big = field(p, 2 * k)
    R = twisted_ring(n, q, 2, big)
    Fqn = field(p, k)
    emb = big.embed_table(Fqn)
    import random

    rng = random.Random(11)
    for _ in range(15):
        a = tuple(rng.randrange(big.order) for _ in range(R.length))
        b = tuple(int(emb[rng.randrange(Fqn.order)]) for _ in range(R.length))
        lhs = iota_prime(R, ring_mul(R, a, b))
        rhs = mat_mul(R.coeff_field, iota_prime(R, a), iota_prime(R, b))
        assert lhs == normalize_shape(R.coeff_field, rhs)


def test_det_rational_for_rational_points():
    # for g with coefficients in F_{q^n}, det iota(g) has all coefficients in F_q
    R = twisted_ring(2, 2, 3, field(2, 2))
    F = scalar(R.coeff_field)
    for g in enumerate_unipotent(R):
        d = det_iota(R, g)
        assert all(F.frob(c, 2) == c for c in d)


def test_n2_closed_form_n2():
    for q, p, k in [(2, 2, 2), (3, 3, 2)]:
        A = field(p, 2 * k)  # F_{q^4}, strictly larger than F_{q^2}
        S = scalar(A)
        for a1 in range(A.order):
            for a2 in (0, 1, 2, 5, A.order - 1):
                expected = S.sub(
                    S.add(a2, frob(A, a2, q)), S.pow(a1, q + 1)
                )
                assert n2_norm(twisted_ring(2, q, 2, A), (a1, a2)) == expected


def test_n2_norm_rejects_a_level_3_ring():
    with pytest.raises(UnsupportedParametersError):
        n2_norm(twisted_ring(2, 2, 3, field(2, 2)), (0, 0))


def test_n2_on_center_is_trace():
    for n, q, p, k in [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 3, 2)]:
        Fqn = field(p, k)
        Fq = field(p, k // n) if k % n == 0 else None
        Fq = field(p, Fqn.k // n)
        for a in range(Fqn.order):
            tail = (0,) * (n - 1) + (a,)
            got = n2_norm(twisted_ring(n, q, 2, Fqn), tail)
            assert got == scalar(Fqn).embed(Fq, scalar(Fqn).trace(a, Fq))


def test_lang_top_coefficient_identity():
    # pr_n(F_{q^n}(g) g^(-1)) == N(g)^q - N(g), h = 2
    for n, q, p, k, kk in [(2, 2, 2, 2, 4), (3, 2, 2, 3, 6)]:
        A = field(p, kk)
        R = twisted_ring(n, q, 2, A)
        import random

        rng = random.Random(13)
        for _ in range(30):
            g = (1,) + tuple(rng.randrange(A.order) for _ in range(n))
            nval = n2_norm(R, g[1:])
            top = lang(R, g, n)[n]
            assert top == scalar(A).sub(scalar(A).frob(nval, q), nval)


def test_in_Xh_matches_unipotent_equations_small():
    # (n, h, q) = (2, 3, 2) over F_4: membership via det equals the two
    # explicit equations
    q = 2
    R = twisted_ring(2, q, 3, field(2, 2))
    A = scalar(R.coeff_field)
    Fq = field(2, 1)
    for a1, a2, a3, a4 in itertools.product(range(A.order), repeat=4):
        g = (1, a1, a2, a3, a4)
        e1 = A.sub(A.add(frob(A, a2, q), a2), A.pow(a1, q + 1))
        e2 = A.add(
            A.add(frob(A, a4, q), a4),
            A.sub(
                A.pow(a2, q + 1),
                A.add(A.mul(a1, frob(A, a3, q)), A.mul(a3, frob(A, a1, q))),
            ),
        )
        expected = A.in_subfield(Fq, e1) and A.in_subfield(Fq, e2)
        assert in_Xh(R, g) == expected


def test_star_action_closed_form():
    # (n, h) = (2, 3): the action in coordinates, exhaustively over F_4
    q = 2
    R = twisted_ring(2, q, 3, field(2, 2))
    A = scalar(R.coeff_field)
    gammas, xs, want = [], [], []
    for lam, mu in itertools.product(range(A.order), repeat=2):
        gamma = (1, lam, mu)
        for a1, a3 in itertools.product(range(A.order), repeat=2):
            for a2, a4 in ((0, 0), (1, 2), (3, 3)):
                x = (1, a1, a2, a3, a4)
                got = star_action(R, gamma, x)
                expected = (
                    1,
                    a1,
                    A.add(lam, a2),
                    A.add(a3, A.mul(lam, a1)),
                    A.add(mu, A.add(a4, A.mul(lam, a2))),
                )
                assert got == expected
                gammas.append(gamma)
                xs.append(x)
                want.append(expected)
    # the batched action, all pairs in one call
    got = star_action_batch(R, np.array(gammas).T, np.array(xs).T)
    assert got.T.tolist() == [list(w) for w in want]


def test_star_action_batch_matches_the_scalar_action():
    # random units gamma over F_4 and random ring elements x over F_16,
    # leading coefficients included
    A = field(2, 4)
    R = twisted_ring(2, 2, 3, A)
    emb = A.embed_table(field(2, 2))
    rng = np.random.default_rng(23)
    gammas = emb[rng.integers(0, 4, size=(3, 600))]
    gammas[0] = emb[rng.integers(1, 4, size=600)]
    xs = rng.integers(0, A.order, size=(R.length, 600))
    got = star_action_batch(R, gammas, xs)
    for g, x, y in zip(gammas.T.tolist(), xs.T.tolist(), got.T.tolist()):
        assert tuple(y) == star_action(R, tuple(g), tuple(x))


def test_star_action_is_group_action():
    q = 2
    A = field(2, 4)
    R = twisted_ring(2, q, 3, A)
    F4 = field(2, 2)
    emb = A.embed_table(F4)
    import random

    rng = random.Random(17)
    for _ in range(20):
        g1 = (1,) + tuple(int(emb[rng.randrange(4)]) for _ in range(2))
        g2 = (1,) + tuple(int(emb[rng.randrange(4)]) for _ in range(2))
        x = (1,) + tuple(rng.randrange(A.order) for _ in range(4))
        g12 = tp_mul(A, g1, g2)
        assert star_action(R, g12, x) == star_action(R, g1, star_action(R, g2, x))


def test_nm_gnq_trace_on_center_and_k_independence():
    q = 2
    F4 = field(2, 2)
    F2 = field(2, 1)
    for a in range(F4.order):
        v1 = nm_gnq(2, q, F4, (0, a), k=1)
        v2 = nm_gnq(2, q, F4, (0, a), k=2)
        assert v1 == v2 == scalar(F4).embed(F2, scalar(F4).trace(a, F2))


def test_nm_gnq_homomorphism_exhaustive_2_2():
    q = 2
    F4 = field(2, 2)
    els = [(a, b) for a in range(F4.order) for b in range(F4.order)]
    nm = {x: nm_gnq(2, q, F4, x, k=1) for x in els}
    for x in els:
        for y in els:
            assert nm[gnq_mul(F4, 2, q, x, y)] == scalar(F4).add(nm[x], nm[y])


def test_y_h_image_h2_lands_in_Y():
    # h = 2: the image is contained in {top coordinate = 0} and contains 1
    from dllab.matmodel import y_h_image

    for n, q, p in [(2, 2, 2), (2, 3, 3)]:
        img = y_h_image(n, q, 2, 1)
        assert img.dtype == np.int64
        one = [1] + [0] * n
        assert one in img.T.tolist()
        assert all(y[n] == 0 for y in img.T.tolist())


def test_y_h_image_2_3_2_satisfies_closed_form():
    from dllab.counting import y3_member
    from dllab.matmodel import y_h_image
    from dllab.twistring import twisted_ring

    E = field(2, 4)
    ring = twisted_ring(2, 2, 3, E)
    img = y_h_image(2, 2, 3, 2)
    points = img.T.tolist()
    assert points == sorted(points)
    assert [1, 0, 0, 0, 0] in points
    member = y3_member(ring, img)
    assert member.all()
    assert member.tolist() == [oracles.y3_member(ring, y) for y in points]


@pytest.mark.parametrize("n,q,h,s", [(2, 2, 3, 2), (2, 2, 2, 3), (3, 2, 2, 2), (2, 3, 2, 1)])
def test_y_h_image_is_the_sorted_set_of_lang_images(n, q, h, s):
    # a set of image tuples, sorted: the grid-index dedup gives the same
    # points in the same order
    from dllab.matmodel import y_h_image

    p, e = splitting_params(q)
    R = twisted_ring(n, q, h, field(p, e * n * s))
    want = set()
    for g in unipotent_chunks(R):
        want.update(map(tuple, R.lang_batch(g[:, in_Xh_batch(R, g)], n).T.tolist()))
    img = y_h_image(n, q, h, s)
    assert img.dtype == np.int64
    assert img.T.tolist() == [list(y) for y in sorted(want)]


def test_y3_member_reads_both_equations():
    # a random (5, 512) batch over F_16 at q = 2, most columns with
    # b_1 != 0; its second half is built on b_2 = 0 and b_4 = -b_3 b_1^q,
    # so both equations decide columns
    from dllab.counting import y3_member

    ring = twisted_ring(2, 2, 3, field(2, 4))
    F = oracles.scalar(ring.coeff_field)
    rng = np.random.default_rng(29)
    b = rng.integers(0, F.order, size=(5, 512))
    b[0] = 1
    half = b[:, 256:]
    half[2] = 0
    half[4] = [F.neg(F.mul(b3, F.frob(b1, 2))) for b1, b3 in zip(*half[[1, 3]].tolist())]
    # every 8th built column has b_4 moved off that value, so the second
    # equation alone rejects it
    half[4, ::8] ^= 1
    member = y3_member(ring, b)
    assert member.tolist() == [oracles.y3_member(ring, y) for y in b.T.tolist()]
    assert np.count_nonzero(b[1]) > 256
    assert member[256:].tolist() == [c % 8 != 0 for c in range(256)]


# (n, q, h, s) grids of X_h(F_{q^{n s}}); the (2, 2, 2, 2) and (2, 2, 3, 2)
# grids hold non-members, and all but (2, 2, 3, 2) end in a partial chunk
BATCH_GRIDS = [
    (2, 2, 3, 1), (2, 2, 3, 2), (2, 3, 3, 1), (3, 2, 2, 1), (3, 3, 2, 1), (2, 2, 2, 2),
    (2, 2, 2, 1), (2, 3, 2, 1),
]


@pytest.mark.parametrize("n,q,h,s", BATCH_GRIDS)
def test_batched_predicates_match_scalar_on_full_grid(n, q, h, s):
    p, e = splitting_params(q)
    R = twisted_ring(n, q, h, field(p, e * n * s))
    seen = 0
    for g in unipotent_chunks(R):
        member = in_Xh_batch(R, g)
        image = R.lang_batch(g, n)
        if h == 2:
            # det iota(g) = 1 + N(g) pi and pr_n Lang(g) = N(g)^q - N(g)
            assert np.array_equal(member, image[n] == 0)
        for c, x in enumerate(g.T.tolist()):
            x = tuple(x)
            assert member[c] == oracles.in_Xh(R, x)
            assert tuple(image[:, c].tolist()) == lang(R, x, n)
        seen += g.shape[1]
    assert seen == R.coeff_field.order ** (R.length - 1)


def test_inv_batch_rejects_non_unipotent():
    R = twisted_ring(2, 2, 2, field(2, 2))
    with pytest.raises(UnsupportedParametersError):
        R.inv_batch(np.array([[2], [0], [0]]))


STAR_OUTSIDE_THE_IMAGE = (
    "import numpy as np\n"
    "from dllab.ffield import Field\n"
    "from dllab.matmodel import star_action_batch\n"
    "from dllab.twistring import twisted_ring\n"
    "F = Field(2, 2)\n"
    "F.add = np.bitwise_and  # not a field addition\n"
    "R = twisted_ring(2, 2, 3, F)\n"
    "star_action_batch(R, np.array([[1], [1], [0]]), np.array([[1], [0], [2], [0], [0]]))\n"
)


def test_shape_checks_survive_python_O():
    # with a broken addition the product of the lifts is not an image of
    # iota, and the star action says so
    code = STAR_OUTSIDE_THE_IMAGE
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 1
    assert "MatrixShapeError: star action left the embedded image" in out.stderr
    with pytest.raises(MatrixShapeError, match="star action left the embedded image"):
        exec(STAR_OUTSIDE_THE_IMAGE, {})
    # the scalar shape check of the oracle
    with pytest.raises(MatrixShapeError, match="below-diagonal entry not divisible by pi"):
        normalize_shape(field(2, 2), (((1, 0), (0, 0)), ((1, 0), (1, 0))))
