"""The batched folds against their scalar oracles in oracles.py, on full grids,
and the series suite's row draws against the window draws they replace.

The witness tests break one column of one chunk, in the first chunk and in a
later one, and check that the failing claim counts the points checked before
it exactly as the oracle does.
"""

import random
import time

import numpy as np
import pytest

import oracles
from dllab import cli, counting, ffield, matmodel
from dllab.ffield import digits_index
from dllab.twistring import twisted_ring


def _matrix_y_claims():
    ap = cli._build_parser()
    args = cli._suite_args(ap, ap.parse_args(["verify", "--suite", "matrix-y"]))
    return cli.suite_matrix_y(args)["claims"]


@pytest.mark.parametrize("chunk", [ffield.GRID_CHUNK, 100], ids=["default-chunk", "chunk-100"])
@pytest.mark.parametrize("q,s", [(2, 1), (2, 2), (3, 1)])
def test_y3_walk_matches_scalar_walk(q, s, chunk, monkeypatch):
    # the points and their order; a small chunk splits the (a_3, a_4)
    # expansion inside and across pairs
    monkeypatch.setattr(counting, "GRID_CHUNK", chunk)
    ring = twisted_ring(2, q, 3, ffield.field(*ffield.splitting_params(q ** (2 * s))))
    batches = list(counting.y3_preimage_batches(ring))
    assert all(b.shape[0] == 4 for b in batches)
    walk = [tuple(c) for b in batches for c in b.T.tolist()]
    assert walk == list(oracles.y3_preimage(ring))


# the series suite's draws: ((p, k) of the field, precision, vmin, vmax)
DRAW_SHAPES = [
    ((2, 4), 6, 0, 2),
    ((2, 6), 6, 0, 2),
    ((3, 2), 6, 0, 2),
    ((2, 2), 6, 0, 1),
    ((2, 4), 5, 0, 1),
]


def _shape_id(shape):
    (p, k), prec, vmin, vmax = shape
    return f"F{p}^{k}-prec{prec}-v{vmin}..{vmax}"


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("shape", DRAW_SHAPES, ids=_shape_id)
def test_draw_rows_follow_the_window_stream(shape, seed):
    # each count continues the stream where the last one left it, so rows
    # also start mid-stream
    (p, k), prec, vmin, vmax = shape
    F = ffield.field(p, k)
    rng, ref = random.Random(seed), random.Random(seed)
    for count in (1, 255, 257, 768):
        rows = cli._draw_rows(F, rng, prec, count, vmin, vmax)
        windows = [oracles.draw_window(F, ref, prec, vmin, vmax) for _ in range(count)]
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0] * v + cs for v, cs in windows]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3)])
def test_lang_norm_fold_matches_oracle(n, q):
    assert cli._lang_norm_identity(n, q) == oracles.lang_norm_identity(n, q)


def test_x3_fold_matches_oracle():
    assert cli._x3_equations_agree(2) == oracles.x3_equations_agree(2) == (True, 16**4)


def test_x3_batch_equations_match_scalar_equations():
    q = 2
    ring = twisted_ring(2, q, 3, ffield.field(2, 4))
    F, Fq = ring.coeff_field, ffield.field(2, 1)
    for g in matmodel.unipotent_chunks(ring):
        got = counting.x3_conditions_batch(F, q, g).tolist()
        assert got == [oracles.x3_conditions(F, q, Fq, tuple(c)) for c in g.T.tolist()]


def test_x3_twist_table_matches_the_scalar_table():
    # the nonzero entries in index order, which is the scalar table's key
    # order; an entry [d, g3, g2, lam] is the key (lam, g2, g3, d)
    table, want = counting.x3_twist_table(2), oracles.x3_twist_table(2)
    assert table.dtype == np.int64
    assert np.argwhere(table)[:, ::-1].tolist() == [list(k) for k in want]
    assert table[table != 0].tolist() == list(want.values())


def test_a_q3_key_chunk_matches_the_scalar_table():
    # the 81 keys with d = g3 = 0 are the first 81 key indices
    t0 = time.monotonic()
    counts = counting.twist_counts(3, np.arange(81))
    keys = {(lam, g2, 0, 0) for g2 in range(9) for lam in range(9)}
    want = oracles.x3_twist_table(3, keys)
    assert {(t % 9, t // 9, 0, 0): int(c) for t, c in enumerate(counts) if c} == want
    assert len(want) > 1
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize("n,q,h", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_zeta_fixed_set_matches_the_scalar_walk(n, q, h):
    # the parameter sets of the trace suite; points and their order
    fixed = counting.zeta_fixed_set(n, q, h)[0]
    assert fixed.dtype == np.int64
    assert fixed.T.tolist() == [list(x) for x in oracles.zeta_fixed_set(n, q, h)]


# grid indices of the broken point: in the first chunk and in the third
@pytest.mark.parametrize("bad", [5, 2 * 64 + 7], ids=["first-chunk", "later-chunk"])
def test_lang_norm_witness_counts_points_before_the_first_failure(bad, monkeypatch):
    n, q = 2, 2
    A = ffield.field(2, 2 * n)
    monkeypatch.setattr(ffield, "GRID_CHUNK", 64)  # 256 points in 4 chunks
    # adding the generator c moves N^q - N by c^q - c != 0
    norm_batch, norm = matmodel.n2_norm_batch, oracles.n2_norm

    def broken_batch(ring, tails):
        out = norm_batch(ring, tails)
        if (ring.n, ring.q) != (n, q):
            return out
        return A.add(out, np.where(digits_index(tails, A.order) == bad, A.gen, 0))

    def broken(ring, tail):
        out = norm(ring, tail)
        hit = int(digits_index(np.array(tail).reshape(n, 1), A.order)[0]) == bad
        return oracles.scalar(A).add(out, A.gen) if hit else out

    monkeypatch.setattr(matmodel, "n2_norm_batch", broken_batch)
    monkeypatch.setattr(oracles, "n2_norm", broken)
    assert oracles.lang_norm_identity(n, q) == (False, bad)
    claim = next(
        c for c in _matrix_y_claims()
        if c["claim"].startswith("top Lang coefficient") and c["params"] == {"n": n, "q": q}
    )
    assert claim["status"] == "fail"
    assert claim["witness"] == {"points": bad}


@pytest.mark.parametrize("bad", [3, 5 * 1024 + 17], ids=["first-chunk", "later-chunk"])
def test_x3_witness_counts_points_before_the_first_failure(bad, monkeypatch):
    monkeypatch.setattr(ffield, "GRID_CHUNK", 1024)  # 65536 points in 64 chunks
    batch, scalar = counting.x3_conditions_batch, oracles.x3_conditions

    def broken_batch(F, q, x):
        return batch(F, q, x) ^ (digits_index(x[1:], F.order) == bad)

    def broken(F, q, Fq, x):
        hit = int(digits_index(np.array(x[1:]).reshape(4, 1), F.order)[0]) == bad
        return scalar(F, q, Fq, x) != hit

    monkeypatch.setattr(counting, "x3_conditions_batch", broken_batch)
    monkeypatch.setattr(oracles, "x3_conditions", broken)
    assert oracles.x3_equations_agree(2) == (False, bad)
    claim = _matrix_y_claims()[0]
    assert claim["claim"] == "matrix-model membership matches the explicit equations"
    assert claim["status"] == "fail"
    assert claim["witness"] == {"points": bad}
