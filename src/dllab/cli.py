"""dl-lab: verification suites and table dumps with machine-readable reports.

Each suite composes library calls into a JSON report of independent claims;
exit status 0 means every claim passed.  Long enumerations narrate progress
on standard error only, so standard output stays pipe-friendly.

Library layers above ffield are imported inside the command that runs them,
so each command starts with only the layers it uses.
"""

import argparse
import csv
import json
import math
import os
import random
import sys

import numpy as np

from .errors import SizeLimitExceededError
from .ffield import field, grid_chunks, splitting_params

SCHEMA = 1
RHO_PARAMS = [(2, 2), (2, 3), (3, 2)]
ETA_PARAMS = [(2, 2), (3, 2)]


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _claim(name: str, ok: bool, witness=None, params=None) -> dict:
    out = {"claim": name, "status": "pass" if ok else "fail"}
    if params is not None:
        out["params"] = params
    if witness is not None:
        out["witness"] = witness
    return out


def _lift_claims(rep: dict, params: dict) -> list:
    """The claims of a library report as suite claims, each with params."""
    return [
        _claim(c["claim"], c["status"] == "pass", params=params, witness=c.get("witness"))
        for c in rep["claims"]
    ]


def _pairs(args, default) -> list:
    """The (n, q) pairs of a suite that reads --n and --q together."""
    return [(args.n, args.q)] if args.n and args.q else default


def _qs(args) -> list:
    return [args.q] if args.q else [2, 3]


def _power(base: int, exp: int):
    """base ** exp, or inf past 1024 bits: a run size sees raw command-line
    values, and building a huge integer could take longer than any run."""
    if exp > 0 and abs(base) > 1 and exp * abs(base).bit_length() > 1024:
        return math.inf
    return base**exp


def _grid(n: int, q: int, h: int, degree: int):
    """Points of the unipotent grid of the (n, q, h) twisted ring over F_{q^degree}."""
    return _power(q, degree * n * (h - 1))


# -- verification suites ------------------------------------------------------------


def _norm_homomorphism(n: int, q: int) -> tuple:
    """Whether nm(x y) = nm(x) + nm(y) over all pairs of G^{n,q}, checked in
    row-major order, and the witness: the pair count, plus the first failing
    pair with both sides of the equation."""
    from .constructions import gnq_group
    from .matmodel import nm_gnq_batch

    G, F = gnq_group(n, q)
    N = len(G)
    nm = np.concatenate([nm_gnq_batch(n, q, F, a) for a in grid_chunks(F.order, n)])
    witness = {"pairs": N * N}
    for x, y in grid_chunks(N, 2):
        lhs = nm[G.mul(x, y)]
        rhs = F.add(nm[x], nm[y])
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            i = bad[0]
            witness["first_failure"] = {
                "x": G.decode(x[i : i + 1])[:, 0].tolist(),
                "y": G.decode(y[i : i + 1])[:, 0].tolist(),
                "nm(xy)": int(lhs[i]),
                "nm(x) + nm(y)": int(rhs[i]),
            }
            return False, witness
    return True, witness


def _rho_suite(args, mirror: bool) -> dict:
    from .constructions import rho_family_report

    params = _pairs(args, RHO_PARAMS)
    name = "thm32" if mirror else "thm31"
    reports = []
    for n, q in params:
        _progress(f"[{name}] induced family at ({n}, {q})")
        reports.append(rho_family_report(n, q, mirror=mirror))
    claims = []
    for (n, q), rep in zip(params, reports):
        ok = all(c["status"] == "pass" for c in rep["claims"])
        claims.append(
            _claim(
                "induced-family alternating sum equals the Lang-fiber count",
                ok,
                params={"n": n, "q": q},
                witness={
                    "lefschetz_sum": rep["lefschetz_sum"],
                    "point_count": rep["point_count"],
                    "characters": len(rep["rows"]),
                },
            )
        )
    if mirror:
        for n, q in params:
            _progress(f"[thm32] norm homomorphism check at ({n}, {q})")
            ok, witness = _norm_homomorphism(n, q)
            claims.append(
                _claim(
                    "norm map is a homomorphism to the additive group",
                    ok,
                    params={"n": n, "q": q},
                    witness=witness,
                )
            )
    return {"suite": name, "params": {"pairs": params}, "claims": claims, "reports": reports}


def suite_thm31(args) -> dict:
    return _rho_suite(args, mirror=False)


def suite_thm32(args) -> dict:
    return _rho_suite(args, mirror=True)


def suite_eigenspaces(args) -> dict:
    from .charlib import layer_as_additive_char, principal_units, unit_characters
    from .counting import eigendims, npp_identity, x3_twist_table

    qs = _qs(args)
    claims = []
    for q in qs:
        p, e = splitting_params(q)
        _progress(f"[eigenspaces] twist table at q = {q}")
        collapsed = x3_twist_table(q).sum(axis=1)
        F2 = field(p, 2 * e)
        units = principal_units(F2, 3)
        R = p * p
        chars = unit_characters(units, R)
        chars = chars[[layer_as_additive_char(c, F2, q, R).conductor_power() == 2 for c in chars]]
        _progress(f"[eigenspaces] {len(chars)} characters, {len(chars) ** 2} pairs")
        equal = (chars[:, None] == chars[None]).all(axis=2)
        bad = int(np.count_nonzero(eigendims(chars, R, collapsed, q) != equal))
        claims.append(
            _claim(
                "eigenspace dimension is the Kronecker delta on conductor-q^2 pairs",
                bad == 0,
                params={"q": q},
                witness={"characters": len(chars), "mismatches": bad},
            )
        )
        claims.append(
            _claim(
                "fibre pair-count identity over the twist parameters",
                npp_identity(q),
                params={"q": q},
                witness={"keys": int(np.count_nonzero(collapsed))},
            )
        )
    return {"suite": "eigenspaces", "params": {"q": qs}, "claims": claims}


def suite_intertwiner(args) -> dict:
    from .counting import (
        conductor2_char,
        dl_intertwiner_sum,
        exp_sum,
        inductive_check,
        intertwiner_s2_data,
        intertwiner_surface,
    )

    qs = _qs(args)
    claims = []
    for q in qs:
        spec = intertwiner_surface(q)
        psi = conductor2_char(q)
        vals = {}
        for s in (1, 2):
            _progress(f"[intertwiner] sum at q = {q}, s = {s}")
            val = vals[s] = exp_sum(spec, psi, s)
            want = q ** (2 + 2 * s)
            claims.append(
                _claim(
                    "three-variable intertwiner sum has the closed-form value",
                    val.is_integer() and val.as_integer() == want,
                    params={"q": q, "s": s},
                    witness={"expected": want, "observed": repr(val)},
                )
            )
        s_range = _intertwiner_degrees(q)
        for s in s_range:
            got = dl_intertwiner_sum(q, s)
            claims.append(
                _claim(
                    "quotient-side sum agrees with the affine-chart sum",
                    got == vals[s],
                    params={"q": q, "s": s},
                )
            )
        rep = inductive_check(*intertwiner_s2_data(q), q, psi, {s: vals[s] for s in s_range})
        claims.append(
            _claim(
                "fibration step reduces the sum to the smaller stratum",
                len(rep["checks"]) == len(s_range),
                params={"q": q, "s_range": list(s_range)},
                witness={"checks": len(rep["checks"])},
            )
        )
    return {"suite": "intertwiner", "params": {"q": qs}, "claims": claims}


def _intertwiner_degrees(q: int) -> tuple:
    return (1, 2) if q == 2 else (1,)


def suite_trace(args) -> dict:
    from .counting import zeta_trace_suite, zeta_trace_suite_level3

    params = _pairs(args, RHO_PARAMS)
    reports = []
    for n, q in params:
        _progress(f"[trace] scalar-fixed set at ({n}, {q})")
        reports.append(zeta_trace_suite(n, q))
    claims = []
    for (n, q), rep in zip(params, reports):
        claims.append(
            _claim(
                "scalar-fixed set has q^n points and the signed trace matches",
                rep["all_pass"] and rep["fixed_count"] == q**n,
                params={"n": n, "q": q},
                witness={
                    "fixed_count": rep["fixed_count"],
                    "characters": len(rep["results"]),
                },
            )
        )
    _progress("[trace] level-3 scalar-fixed set at (2, 2)")
    rep3 = zeta_trace_suite_level3(2)
    claims.append(
        _claim(
            "level-3 scalar-fixed set has q^(n(h-1)) points",
            rep3["all_pass"] and rep3["fixed_count"] == 2**4,
            params={"n": 2, "q": 2, "h": 3},
            witness={
                "fixed_count": rep3["fixed_count"],
                "characters": rep3["characters"],
            },
        )
    )
    return {"suite": "trace", "params": {"pairs": params}, "claims": claims}


def suite_eta_level2(args) -> dict:
    from .constructions import eta_family_report

    params = _pairs(args, ETA_PARAMS)
    claims = []
    reports = []
    for n, q in params:
        _progress(f"[eta-level2] sweeping thetas at ({n}, {q})")
        rep = eta_family_report(n, q, M=args.M)
        reports.append(rep)
        claims += _lift_claims(rep, {"n": n, "q": q})
    return {
        "suite": "eta-level2",
        "params": {"pairs": params, "M": args.M},
        "claims": claims,
        "reports": reports,
    }


def suite_main_example(args) -> dict:
    from .constructions import main_example_report

    qs = _qs(args)
    claims = []
    reports = []
    for q in qs:
        _progress(f"[main-example] q = {q} (both theta' readings)")
        rep = main_example_report(q, M=args.M)
        reports.append(rep)
        claims += _lift_claims(rep, {"q": q})
    return {
        "suite": "main-example",
        "params": {"q": qs, "M": args.M},
        "claims": claims,
        "reports": reports,
    }


def suite_orbit(args) -> dict:
    from .constructions import extension_orbit_report

    qs = _qs(args)
    claims = []
    for q in qs:
        _progress(f"[orbit] extension orbits at q = {q}")
        claims += _lift_claims(extension_orbit_report(q), {"q": q})
    return {"suite": "orbit", "params": {"q": qs}, "claims": claims}


def _first_failure(chunks) -> tuple:
    """(ok, points checked before the first False) over a sequence of
    boolean chunk masks, in order."""
    checked = 0
    for agree in chunks:
        bad = np.flatnonzero(~agree)
        if len(bad):
            return False, checked + int(bad[0])
        checked += len(agree)
    return True, checked


def _x3_equations_agree(q: int) -> tuple:
    """Exhaustive check over F_{q^4} that reduced-norm membership in the
    level-3 variety matches the two coordinate equations that
    x3_twist_table filters with."""
    from .counting import x3_conditions_batch
    from .matmodel import in_Xh_batch, unipotent_chunks
    from .twistring import twisted_ring

    p, e = splitting_params(q)
    R = twisted_ring(2, q, 3, field(p, 4 * e))
    return _first_failure(
        in_Xh_batch(R, g) == x3_conditions_batch(R.coeff_field, q, g)
        for g in unipotent_chunks(R)
    )


def _lang_norm_identity(n: int, q: int) -> tuple:
    """pr_n of the Lang image equals the Artin-Schreier image of the norm,
    exhaustively over F_{q^(2n)} at h = 2."""
    from .matmodel import n2_norm_batch, unipotent_chunks
    from .twistring import twisted_ring

    p, e = splitting_params(q)
    A = field(p, 2 * e * n)
    R = twisted_ring(n, q, 2, A)
    frq = A.frob_table(q)

    def agree(g):
        nval = n2_norm_batch(R, g[1:])
        return R.lang_batch(g, n)[n] == A.sub(frq[nval], nval)

    return _first_failure(agree(g) for g in unipotent_chunks(R))


def suite_matrix_y(args) -> dict:
    from .counting import y3_locus_equality, y3_member
    from .matmodel import y_h_image
    from .twistring import twisted_ring

    claims = []
    ok, checked = _x3_equations_agree(2)
    claims.append(
        _claim(
            "matrix-model membership matches the explicit equations",
            ok,
            params={"n": 2, "q": 2, "h": 3},
            witness={"points": checked},
        )
    )
    _progress("[matrix-y] level-3 Lang image")
    E = field(2, 4)
    ring3 = twisted_ring(2, 2, 3, E)
    img = y_h_image(2, 2, 3, 2)
    claims.append(
        _claim(
            "level-3 Lang image satisfies the closed-form locus equations",
            y3_member(ring3, img).all() and [1, 0, 0, 0, 0] in img.T.tolist(),
            params={"n": 2, "q": 2, "h": 3, "s": 2},
            witness={"image_size": img.shape[1]},
        )
    )
    for n, q in [(2, 2), (2, 3)]:
        img2 = y_h_image(n, q, 2, 1)
        claims.append(
            _claim(
                "level-2 Lang image lies in the vanishing-top-coordinate locus",
                not img2[n].any(),
                params={"n": n, "q": q},
                witness={"image_size": img2.shape[1]},
            )
        )
    claims.append(
        _claim(
            "pullback of the locus equals the two-equation chart",
            y3_locus_equality(2, s=2),
            params={"q": 2, "s": 2},
        )
    )
    for n, q in RHO_PARAMS:
        _progress(f"[matrix-y] Lang/norm identity at ({n}, {q})")
        ok, checked = _lang_norm_identity(n, q)
        claims.append(
            _claim(
                "top Lang coefficient is the Artin-Schreier image of the norm",
                ok,
                params={"n": n, "q": q},
                witness={"points": checked},
            )
        )
    return {"suite": "matrix-y", "params": {}, "claims": claims}


def _draw_rows(F, rng, prec, count, vmin=0, vmax=2):
    """count random windows ending at prec, as a (count, prec) int64 array
    with exponent j in column j: a valuation v uniform in [vmin, vmax],
    zeros below it and coefficients uniform in F from it.  Each draw
    restates CPython's Random._randbelow_with_getrandbits, so rng advances
    exactly as under that many range draws and the seeded reports hold."""
    bits, flat = rng.getrandbits, []
    nv, nc = vmax - vmin + 1, F.order
    kv, kc = nv.bit_length(), nc.bit_length()
    for _ in range(count):
        v = bits(kv)
        while v >= nv:
            v = bits(kv)
        flat += [0] * (vmin + v)
        for _ in range(prec - vmin - v):
            c = bits(kc)
            while c >= nc:
                c = bits(kc)
            flat.append(c)
    return np.array(flat, dtype=np.int64).reshape(count, prec)


def _chunks(seq):
    """Consecutive slices of seq with SERIES_CHUNK items (the last may be short)."""
    from .serieslab import SERIES_CHUNK

    for start in range(0, len(seq), SERIES_CHUNK):
        yield seq[start : start + SERIES_CHUNK]


def _valuation_failures(F, q, coeffs) -> int:
    """Rows of a batch where det(xtilde_matrix(coeffs)) breaks the valuation
    law: a predicted valuation inside the window must be attained, which a
    vanishing determinant fails, and beyond it the determinant must vanish."""
    from .serieslab import det_valuation, mat_det_series, xtilde_matrix

    det = mat_det_series(xtilde_matrix(F, q, len(coeffs), coeffs))
    want = det_valuation(coeffs)
    return int(np.count_nonzero(np.where(want < det.prec, det.v != want, ~det.is_zero())))


def _round_trip_failures(F, Fq, q, rows):
    """Per instance r, whether the pattern-matrix round trip fails on the
    coefficient windows rows[r] (an (N, n, prec) array, all windows from 0):
    xtilde_form must recover them exactly when det(xtilde_matrix) is a series
    over F_q, and reject them otherwise.  A vanishing determinant lies over
    F_q but is never recovered, so it counts as a failure."""
    from .serieslab import SeriesBatch, mat_det_series, xtilde_form, xtilde_matrix

    N, n, prec = rows.shape
    coeffs = tuple(SeriesBatch(F, 0, rows[:, t], np.full(N, prec)) for t in range(n))
    A = xtilde_matrix(F, q, n, coeffs)
    det = mat_det_series(A)
    # a lies in F_q iff a^|F_q| == a
    rational = (F.frob_table(Fq.order)[det.c] == det.c).all(axis=0)
    got, ok = xtilde_form(A, q, Fq)
    back = xtilde_matrix(F, q, n, got)
    exact = np.logical_and.reduce(
        [x.equals(y) for x, y in zip(got, coeffs)]
        + [x.equals(y) for rx, ry in zip(back, A) for x, y in zip(rx, ry)]
    )
    return np.where(rational, ~(ok & exact), ok)


def suite_series(args) -> dict:
    """Inputs are drawn from one seeded rng in a fixed order; each chunk of
    SERIES_CHUNK instances is drawn, then evaluated as one batch per entry."""
    from .serieslab import SeriesBatch, mat_identity_series, quotient_residual, solve_quotient

    rng = random.Random(args.seed)
    claims = []
    # quotient solver: residual vanishes and the two elimination orders agree
    configs = [(2, 4, 2, 3), (2, 6, 2, 3), (3, 2, 3, 2), (2, 4, 4, 3)]
    prec = 6
    per = 1000 // len(configs)
    bad = 0
    for p, k, q, n in configs:
        F = field(p, k)
        _progress(f"[series] solver over F_{p}^{k}, n = {n}, q = {q}")
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for chunk in _chunks(range(per)):
            rows = _draw_rows(F, rng, prec, len(chunk) * len(upper))
            h = mat_identity_series(F, n, np.full(len(chunk), prec))
            for t, (i, j) in enumerate(upper):
                h[i][j] = SeriesBatch(F, 0, rows[t :: len(upper)], np.full(len(chunk), prec))
            B, g = solve_quotient(h, q)
            res = quotient_residual(h, B, g, q)
            B2, g2 = solve_quotient(h, q, order="rowwise")
            checks = [e.is_zero() for row in res for e in row]
            for X, Y in ((B, B2), (g, g2)):
                checks += [x.equals(y) for rx, ry in zip(X, Y) for x, y in zip(rx, ry)]
            bad += int(np.count_nonzero(~np.logical_and.reduce(checks)))
    claims.append(
        _claim(
            "quotient solver residual vanishes and the solution is unique",
            bad == 0,
            witness={"instances": per * len(configs), "failures": bad},
        )
    )
    # determinant valuation: sampled plus one exhaustive grid
    F4 = field(2, 2)
    bad = 0
    samples = 10_000
    _progress(f"[series] det valuation on {samples} samples")
    for chunk in _chunks(range(samples)):
        rows = _draw_rows(F4, rng, prec, 3 * len(chunk), 0, 1).reshape(len(chunk), 3, prec)
        # the law says nothing when all three series vanish
        rows = rows[rows.any(axis=(1, 2))]
        if len(rows):
            coeffs = [SeriesBatch(F4, 0, rows[:, j], np.full(len(rows), prec)) for j in range(3)]
            bad += _valuation_failures(F4, 2, coeffs)
    # the 64 windows c0 + c1 pi + c2 pi^2 + O(pi^5) over F_4, paired with
    # each other; pair 0 is (0, 0), where the law says nothing
    singles = next(grid_chunks(4, 3)).T
    pairs = np.arange(1, len(singles) ** 2)
    _progress(f"[series] exhaustive valuation grid ({len(singles) ** 2} pairs)")
    for idx in _chunks(pairs):
        prec5 = np.full(len(idx), 5)
        coeffs = [SeriesBatch(F4, 0, singles[i], prec5) for i in divmod(idx, len(singles))]
        bad += _valuation_failures(F4, 2, coeffs)
    claims.append(
        _claim(
            "determinant valuation matches the minimum formula",
            bad == 0,
            witness={"samples": samples, "grid": len(singles) ** 2, "failures": bad},
        )
    )
    # pattern-matrix round trip: recover the coefficients exactly when the
    # determinant is rational over the base field, reject otherwise
    F16 = field(2, 4)
    _progress("[series] pattern-matrix round trip (200 instances)")
    rows = _draw_rows(F16, rng, 5, 2 * 200, 0, 1).reshape(200, 2, 5)
    bad = int(np.count_nonzero(_round_trip_failures(F16, field(2, 1), 2, rows)))
    claims.append(
        _claim(
            "pattern matrix form round-trips",
            bad == 0,
            witness={"instances": 200, "failures": bad},
        )
    )
    return {"suite": "series", "params": {"seed": args.seed}, "claims": claims}


def suite_maximality(args) -> dict:
    from .counting import maximality_probe

    s_range = (1, 2, 3) if args.saturate else (1, 2)
    _progress(f"[maximality] point counts at (2, 2, 2), s in {s_range}")
    # a degree whose grid exceeds --max-size is skipped
    admitted = [s for s in s_range if _grid(2, 2, 2, 2 * s) <= args.max_size]
    entries = maximality_probe(2, 2, 2, s_range=admitted)["counts"]
    ok = bool(entries) and all(e["matches"] for e in entries)
    skipped = [{"s": s, "count": None, "skipped": True} for s in s_range if s not in admitted]
    return {
        "suite": "maximality",
        "params": {"n": 2, "q": 2, "h": 2, "s_range": list(s_range)},
        "claims": [
            _claim(
                "point counts attain the bound forced by purity",
                ok,
                witness={"counts": entries + skipped},
            )
        ],
    }


# Each suite with the verify options it reads besides --suite, --max-size
# and --out, and the size of its largest enumeration, which the runner
# compares with --max-size.  Setting any other option is a usage error.  A
# suite that reads --n reads it only as the pair (--n, --q).
SUITES = {
    # q^n characters x q^(n n) group elements
    "thm31": (suite_thm31, {"n", "q"},
              lambda a: max(_power(q, n * (n + 1)) for n, q in _pairs(a, RHO_PARAMS))),
    # the norm check's q^(2 n n) pairs of group elements, which outnumber
    # characters x group elements
    "thm32": (suite_thm32, {"n", "q"},
              lambda a: max(_power(q, 2 * n * n) for n, q in _pairs(a, RHO_PARAMS))),
    # the twist table's (key, a1, a2) scans: q^8 keys x q^2 rational a1 x
    # q^2 a2 in an Artin-Schreier fibre
    "eigenspaces": (suite_eigenspaces, {"q"}, lambda a: max(_power(q, 12) for q in _qs(a))),
    # the beta^-1(Y_3) walk over F_{q^(2s)}, which outgrows the chart sums
    "intertwiner": (suite_intertwiner, {"q"}, lambda a: max(
        _grid(2, q, 3, 2 * _intertwiner_degrees(q)[-1]) for q in _qs(a))),
    # the grids over F_{q^(n p)} that hold the scalar-fixed sets
    "trace": (suite_trace, {"n", "q"}, lambda a: max(
        [_grid(2, 2, 3, 4)]
        + [_grid(n, q, 2, n * splitting_params(q)[0]) for n, q in _pairs(a, RHO_PARAMS)])),
    # theta x n |G|: q^n (q^n - 1) M thetas, each induced from an index-n
    # subgroup of the division quotient G of n M (q^n - 1) q^(n n) elements
    "eta-level2": (suite_eta_level2, {"n", "q", "M"}, lambda a: max(
        n * n * (a.M * (_power(q, n) - 1)) ** 2 * _power(q, n + n * n)
        for n, q in _pairs(a, ETA_PARAMS))),
    # theta x class-walk rows: (q^2 - q) q^2 (q^2 - 1) M thetas, each
    # walking about M q^7 rows (2,754 at q = 3, where M q^7 is 2,187); this
    # outgrows the 2 M (q^2 - 1) q^8 elements of the quotient
    "main-example": (suite_main_example, {"q", "M"}, lambda a: max(
        (q * q - q) * q * q * (q * q - 1) * a.M * a.M * _power(q, 7) for q in _qs(a))),
    # q^2 - 1 layer characters x q^2 conjugators x q^4 subgroup elements
    "orbit": (suite_orbit, {"q"}, lambda a: max((q * q - 1) * _power(q, 6) for q in _qs(a))),
    # the grids of the level-3 checks and of the Lang/norm identity
    "matrix-y": (suite_matrix_y, set(), lambda a: max(
        [_grid(2, 2, 3, 4)] + [_grid(n, q, 2, 2 * n) for n, q in RHO_PARAMS])),
    # the determinant-valuation samples
    "series": (suite_series, {"seed"}, lambda a: 10_000),
    # the grid at s = 1, which every run counts
    "maximality": (suite_maximality, {"saturate"}, lambda a: _grid(2, 2, 2, 2)),
}

VERIFY_DEFAULTS = dict(n=None, q=None, M=1, max_size=2_000_000, saturate=False, seed=0)


# -- dumps --------------------------------------------------------------------------


# Each dump checks its parameters, then returns the function that writes the
# table, so a bad run opens no output file.


def dump_points(args):
    from .matmodel import xh_points

    members = xh_points(args.n, args.q, args.h, args.s)
    dim = args.n * (args.h - 1)

    def write(out):
        w = csv.writer(out)
        w.writerow([f"a{i}" for i in range(1, dim + 1)])
        count = 0
        for g in members:
            w.writerows(g[1:].T.tolist())
            count += g.shape[1]
        _progress(f"[dump] {count} points")

    return write


def dump_char_table(args):
    from .charlib import AddChar
    from .constructions import build_rho_psi, unipotent_group
    from .cyclo import cyclo_from_counts

    n, q = args.n, args.q
    p, e = splitting_params(q)
    F = field(p, e * n)
    U, _ = unipotent_group(n, q)
    reps = np.array([cls[0] for cls in U.conj_classes()])

    def write(out):
        w = csv.writer(out)
        w.writerow(
            ["psi", "conductor_exp", "degree"]
            + ["class_" + "_".join(map(str, g[1:])) for g in U.decode(reps).T.tolist()]
        )
        for a in range(F.order):
            psi = AddChar(F, q, a)
            data = build_rho_psi(n, q, psi)
            row = [a, psi.conductor_power() if a else 1, data.degree]
            row += [repr(cyclo_from_counts(data.R, data.char[g])) for g in reps]
            w.writerow(row)
        _progress(f"[dump] {F.order} characters x {len(reps)} classes")

    return write


def dump_y_set(args):
    from .matmodel import y_h_image

    img = y_h_image(args.n, args.q, args.h, args.s)
    dim = args.n * (args.h - 1)

    def write(out):
        w = csv.writer(out)
        w.writerow([f"y{i}" for i in range(dim + 1)])
        w.writerows(img.T.tolist())
        _progress(f"[dump] {img.shape[1]} image points")

    return write


def _point_grid(args):
    """The unipotent grid over F_{q^(n s)} that the point fold walks."""
    return _grid(args.n, args.q, args.h, args.n * args.s)


# Each dump kind with the dump options it reads besides --kind, --max-size
# and --out, and the size of its enumeration, which the runner compares with
# --max-size.  Setting any other option is a usage error.
DUMPS = {
    "points": (dump_points, {"n", "q", "h", "s"}, _point_grid),
    # q^n characters x q^(n n) group elements
    "char-table": (dump_char_table, {"n", "q"}, lambda a: _power(a.q, a.n * (a.n + 1))),
    "y-set": (dump_y_set, {"n", "q", "h", "s"}, _point_grid),
}

DUMP_DEFAULTS = dict(n=2, q=2, h=2, s=1, max_size=2_000_000)


# -- entry point --------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dl-lab")
    sub = ap.add_subparsers(dest="command", required=True)

    # no abbreviations: --h would otherwise be read as --help.  An option
    # left off the command line is absent from args (see _suite_args).
    v = sub.add_parser(
        "verify",
        help="run a verification suite",
        allow_abbrev=False,
        argument_default=argparse.SUPPRESS,
    )
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--n", type=positive_int)
    v.add_argument("--q", type=positive_int)
    v.add_argument("--M", type=positive_int)
    v.add_argument("--max-size", type=int)
    v.add_argument("--saturate", action="store_true")
    v.add_argument("--seed", type=int)
    v.add_argument("--out", default=None)

    d = sub.add_parser(
        "dump",
        help="write a deterministic CSV table",
        allow_abbrev=False,
        argument_default=argparse.SUPPRESS,
    )
    d.add_argument("--kind", required=True, choices=sorted(DUMPS))
    d.add_argument("--n", type=positive_int)
    d.add_argument("--q", type=positive_int)
    d.add_argument("--h", type=positive_int)
    d.add_argument("--s", type=positive_int)
    d.add_argument("--max-size", type=int)
    d.add_argument("--out", default=None)
    return ap


def _declared_args(ap, args, what: str, reads: set, defaults: dict) -> argparse.Namespace:
    """Reject the options of defaults other than --max-size that were set
    but are not in reads, and an --out that cannot be written (usage errors,
    exit 2), then fill in the defaults of the options left off."""
    unread = sorted(set(vars(args)) & set(defaults) - reads - {"max_size"})
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        ap.error(f"{what} does not read {flags}")
    # os.access is False for a missing directory too
    if args.out and (
        os.path.isdir(args.out)
        or not os.access(os.path.dirname(os.path.abspath(args.out)), os.W_OK)
    ):
        ap.error(f"--out: cannot write a file at {args.out}")
    return argparse.Namespace(**{**defaults, **vars(args)})


def _suite_args(ap: argparse.ArgumentParser, args) -> argparse.Namespace:
    """The verify options of the suite; --n and --q come only together."""
    reads = SUITES[args.suite][1]
    out = _declared_args(ap, args, f"suite {args.suite}", reads, VERIFY_DEFAULTS)
    if "n" in reads and ("n" in args) != ("q" in args):
        ap.error(f"suite {args.suite} reads --n and --q only together")
    return out


def _dump_args(ap: argparse.ArgumentParser, args) -> argparse.Namespace:
    reads = DUMPS[args.kind][1]
    return _declared_args(ap, args, f"dump kind {args.kind}", reads, DUMP_DEFAULTS)


def _admit(size, max_size: int):
    if size > max_size:
        raise SizeLimitExceededError(f"largest enumeration {size} exceeds --max-size {max_size}")


def _write_out(path: str, write, **open_args):
    """write(fh) into a temporary file beside path, renamed onto path once
    it returns, so a failed run leaves an existing file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", **open_args) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _verify(args) -> int:
    suite, _, size = SUITES[args.suite]
    try:
        _admit(size(args), args.max_size)
        report = suite(args)
    except BrokenPipeError:
        raise
    except Exception as exc:
        report = {
            "suite": args.suite,
            "params": {},
            "claims": [
                _claim("suite completed without library errors", False,
                       witness={"error": f"{type(exc).__name__}: {exc}"})
            ],
        }
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            _write_out(args.out, lambda fh: fh.write(text))
        except OSError as exc:
            _progress(f"error: {type(exc).__name__}: {exc}")
            return 1
        print(args.out)
    else:
        sys.stdout.write(text)
    failures = [c for c in report["claims"] if c["status"] != "pass"]
    if failures:
        _progress(f"FAIL: {json.dumps(failures[0], sort_keys=True)}")
        return 1
    return 0


def _dump(args) -> int:
    dump, _, size = DUMPS[args.kind]
    try:
        _admit(size(args), args.max_size)
        write = dump(args)
        if args.out:
            _write_out(args.out, write, newline="")
            print(args.out)
        else:
            write(sys.stdout)
    except BrokenPipeError:
        raise
    except Exception as exc:
        _progress(f"error: {type(exc).__name__}: {exc}")
        return 1
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            status = _verify(_suite_args(ap, args))
        else:
            status = _dump(_dump_args(ap, args))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull, so that the flush at
        # interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
