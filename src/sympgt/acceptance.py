"""End-to-end verification checks with pinned tolerances.

Each check returns a report dict with at least ``name`` and ``passed``, and
every check is a gate: one that fails fails the whole run.  ``run_all``
adds each report's wall time as ``seconds``.  A check that raises is
recorded by ``run_all`` as a failure carrying ``error`` ("<Type>:
<message>") and ``traceback``, and the checks after it still run.
The registry drives both the acceptance test suite and the ``verify all``
CLI subcommand, so a pass here is exactly a pass there.
"""
from __future__ import annotations

import functools
import random
import time
import traceback
from fractions import Fraction as F

import numpy as np

from .algebra import QSeriesCtx
from .berele import _insertion_tree, process_word
from .branching import BranchingPair, conjecture_checks, single_block_index
from .characters import (
    pieri_apply,
    qwhittaker_pattern_sum,
    qwhittaker_recursion,
    symplectic_schur_tableaux,
    symplectic_schur_weyl,
)
from .combinatorics import canon, interlacings, level_len, padded, partitions_max_weight
from .continuous import (
    kernel_identity_residuals,
    phi2_bessel_errors,
    phi_eigen_residuals,
    polymer_reversal_gap,
)
from .dynamics import (
    ShapeLaw,
    SimConfig,
    build_generator,
    simulate,
    verify_intertwining_cascade,
    verify_intertwining_randomized,
)
from .limits import convergence_table
from .spectral import (_torus_law, conjecture_distance, gram_schmidt_koornwinder,
                       koornwinder_apply, law, moments, orthogonality_matrix)


def _generic_points(n, count=5):
    """Rational points avoiding 0, +-1 and coincidences a_i = a_j^{+-1}."""
    base = [F(6, 5), F(3, 7), F(11, 4), F(5, 2), F(7, 3), F(9, 8), F(4, 9)]
    pts = []
    for s in range(count):
        pt = tuple(base[(s + i * count) % len(base)] + F(s, 13) for i in range(n))
        pts.append(pt)
    return pts


def check_character_routes():
    """Determinant-ratio and tableau-sum characters agree exactly at rational
    points, rank <= 3, shape weight <= 6."""
    failures = []
    checked = 0
    for n in (1, 2, 3):
        pts = _generic_points(n)
        for lam in partitions_max_weight(n, 6):
            st = symplectic_schur_tableaux(n, lam)
            for a in pts:
                checked += 1
                if symplectic_schur_weyl(n, lam, a) != st.evaluate(a):
                    failures.append((n, lam, a))
    return {"name": "character-routes", "passed": not failures,
            "points_per_rank": 5, "evaluations": checked, "failures": failures}


def check_two_route_equality():
    """Pattern sum over 2n levels equals the rank-n recursion as an exact
    Laurent polynomial identity."""
    failures = []
    checked = 0
    for q in (F(1, 3), F(2, 5)):
        ctx = QSeriesCtx(q)
        for n in (2, 3):
            for lam in partitions_max_weight(n, 5):
                checked += 1
                if qwhittaker_pattern_sum(2 * n, lam, ctx) != qwhittaker_recursion(n, lam, ctx):
                    failures.append((str(q), n, lam))
    return {"name": "two-route-equality", "passed": not failures,
            "shapes": checked, "failures": failures}


def check_q_zero_degeneration():
    """At q = 0 the deformed character collapses exactly onto the symplectic
    Schur polynomial."""
    ctx = QSeriesCtx(F(0))
    failures = []
    for n in (1, 2, 3):
        for lam in partitions_max_weight(n, 4):
            if qwhittaker_recursion(n, lam, ctx) != symplectic_schur_tableaux(n, lam):
                failures.append((n, lam))
    return {"name": "q-zero-degeneration", "passed": not failures, "failures": failures}


def check_pieri_identity():
    """One-box Pieri difference operator acts on the deformed character with
    exact eigenvalue sum(a_i + 1/a_i), rank <= 3, weight <= 5, rational
    points; equivalently the interior shape-chain generator rows sum to 0.
    The character at a point is evaluated once per shape, since neighbouring
    z share their neighbours mu."""
    ctx = QSeriesCtx(F(1, 3))
    failures = []
    checked = 0
    for n in (1, 2, 3):
        gs = [(a, functools.cache(lambda mu, a=a: qwhittaker_recursion(n, mu, ctx).evaluate(a)))
              for a in _generic_points(n, 3)]
        for z in partitions_max_weight(n, 5):
            for a, g in gs:
                checked += 1
                if pieri_apply(n, z, ctx, g) != sum(x + 1 / x for x in a) * g(z):
                    failures.append((n, z, a))
    return {"name": "pieri-identity", "passed": not failures,
            "evaluations": checked, "failures": failures}


def check_koornwinder_eigenrelation():
    """The 2n-term difference operator acts on the recursion-defined character
    with eigenvalue q^{-lam_1} - 1, to 1e-12 relative at complex points."""
    tol = 1e-12
    pts = {1: [(0.7 + 0.2j,), (1.3 - 0.4j,), (0.4 + 0.9j,), (2.1 + 0.1j,), (0.9 - 0.7j,)],
           2: [(0.8 + 0.1j, 1.3 - 0.2j), (1.1 + 0.3j, 0.6 - 0.1j),
               (0.5 + 0.6j, 1.7 + 0.2j), (2.0 - 0.3j, 0.9 + 0.4j),
               (1.4 + 0.5j, 0.7 - 0.6j)]}
    worst = 0.0
    failures = []
    for n in (1, 2):
        q = 0.5 if n == 1 else 0.4
        ctx = QSeriesCtx(q)
        for lam in partitions_max_weight(n, 4):
            P = qwhittaker_recursion(n, lam, ctx)
            F_ = lambda pt: complex(P.evaluate(pt))
            ev = q ** -(lam[0] if lam else 0) - 1
            for a in pts[n]:
                rhs = ev * F_(a)
                rel = abs(koornwinder_apply(F_, a, n, q) - rhs) / max(abs(rhs), 1.0)
                worst = max(worst, rel)
                if rel > tol:
                    failures.append((n, lam, rel))
    return {"name": "koornwinder-eigenrelation", "passed": not failures,
            "tolerance": tol, "worst_relative": worst, "failures": failures}


def check_branching_limit():
    """Small-t0 behaviour of the two-level branching polynomial: exact
    agreement with the kernel in the single-window case (the big-to-continuous
    q-Hermite connection sums telescope, so the distance is identically zero,
    stronger than the linear decay one would expect a priori), exact
    t0-independence for separated unit gaps, and exact leading coefficients
    for 100 random pairs."""
    ctx4 = QSeriesCtx(F(2, 5))
    pair = BranchingPair(3, (4, 3, 1), (4,))
    rep_a = conjecture_checks(pair, ctx4,
                              t0_ladder=[F(1, 1000), F(1, 10000), F(1, 100000)])
    errors = rep_a["single_block"]["errors"]
    decay_ok = single_block_index(pair) is not None and all(e == 0 for e in errors)

    pair_b = BranchingPair(5, (4, 4, 3, 1, 1), (3, 3, 2, 1))
    rep_b = conjecture_checks(pair_b, ctx4, t0_ladder=[F(3, 10), F(7, 10), F(13, 10)])
    gaps_ok = rep_b["unit_gaps"]["exact"]

    ctx3 = QSeriesCtx(F(1, 3))
    rng = random.Random(7)
    shapes = list(partitions_max_weight(5, 8))
    leading_ok, checked = True, 0
    while checked < 100:
        lam = canon(shapes[rng.randrange(len(shapes))])
        n = max(len(lam), 1) + rng.randrange(2)
        if len(lam) > n or n < 2:
            continue
        lam_p = padded(lam, n)
        mu = list(interlacings(lam_p, n))[0]
        nus = list(interlacings(mu, n - 1))
        nu = canon(nus[rng.randrange(len(nus))])
        try:
            p = BranchingPair(n, lam, nu)
        except ValueError:
            continue
        if not conjecture_checks(p, ctx3)["leading_term"]:
            leading_ok = False
        checked += 1
    return {"name": "branching-limit", "passed": decay_ok and gaps_ok and leading_ok,
            "single_window_errors": [float(e) for e in errors],
            "unit_gaps_exact": gaps_ok,
            "random_pairs": checked, "leading_term_ok": leading_ok}


def check_insertion():
    """Reference insertion trace plus injectivity of word -> (tableau, shape
    path) over all rank-2 words of length 5 and rank-3 words of length 4.
    The example goes through ``process_word``; the words are walked as a
    tree of prefixes by ``_insertion_tree``, which validates every step as
    ``process_word`` does but inserts each of the 2,918 distinct prefixes
    once instead of each word's 4 or 5 letters from the empty tableau."""
    # the word 3~ 2 1~ 3~ 1 2 1, encoded (k -> 2k - 1, k~ -> 2k)
    rec = process_word((6, 3, 2, 6, 1, 3, 1), 3)
    example_ok = (rec.shapes == ((), (1,), (1, 1), (1, 1, 1), (2, 1, 1),
                                 (2, 1), (2, 2), (2, 2, 1))
                  and rec.tableau.rows == ((1, 3), (3, 6), (6,)))
    counts = {f"rank{n}": len(set(_insertion_tree(n, length)))
              for n, length in ((2, 5), (3, 4))}
    inj_ok = counts["rank2"] == 4 ** 5 and counts["rank3"] == 6 ** 4
    return {"name": "insertion", "passed": example_ok and inj_ok,
            "example_ok": example_ok, "distinct_images": counts}


def _two_level_probes(N, shapes):
    probes = []
    for y in shapes:
        y = padded(y, level_len(N))
        for x in interlacings(y, level_len(N - 1)):
            probes.append((x, y))
    return probes


def check_intertwining():
    """Exact intertwining of the single-level and cascade transition kernels
    with the shape-chain generator at rational parameters, the cascade at
    ranks 1, 2 and 3."""
    ctx = QSeriesCtx(F(1, 3))
    reports = {}
    ok = True
    for N, shapes, a in (
            (4, [(2, 1), (1, 1), (2, 0), (3, 1), (2, 2), (3, 0)], (F(6, 5), F(3, 7))),
            (5, [(2, 1, 0), (1, 1, 1), (2, 2, 1), (3, 1, 0), (2, 2, 2), (3, 2, 1),
                 (1, 0, 0), (2, 0, 0)], (F(6, 5), F(3, 7), F(5, 2)))):
        probes = _two_level_probes(N, shapes)
        res = verify_intertwining_randomized(N, probes, ctx, a)
        bad = [r for r in res if not r[-1]]
        ok = ok and len(probes) >= 20 and not bad
        reports[f"single-level-N{N}"] = {"probes": len(probes), "identities": len(res),
                                         "failures": len(bad)}
    # rank 1 is the only rank where the edge clock drives the wall; rank 3 is
    # the first where the cascade pulls a particle that is not the wall (the
    # i + 1 < n branches of helper_row_cascade)
    for n, shapes, a, least in (
            (1, [(0,), (1,), (2,), (3,), (5,)], (F(6, 5),), 16),
            (2, [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1)], (F(6, 5), F(3, 7)), 20),
            (3, [(2, 1, 1)], (F(6, 5), F(3, 7), F(5, 2)), 9)):
        casc_probes = [(x, y, z) for z in shapes for y in interlacings(z, n)
                       for x in interlacings(y, n - 1)]
        res = verify_intertwining_cascade(n, casc_probes, ctx, a)
        bad = [r for r in res if not r[-1]]
        ok = ok and len(casc_probes) >= least and not bad
        reports[f"cascade-n{n}"] = {"probes": len(casc_probes), "identities": len(res),
                                    "failures": len(bad)}
    return {"name": "intertwining", "passed": ok, "reports": reports}


def check_simulation_vs_law():
    """Empirical time-2 bottom-shape law at rank 1, a = 1, q = 1/2 against the
    truncated matrix exponential's empty-shape row, by uniformization
    (TV <= 0.01), 1e5 replicas.  The two references, the Fraction generator
    row and ``law``'s rank-1 Bessel sum, are gated against each other at
    TV <= 1e-12, so the TV to the torus-integral law, at most the sum of the
    two, is reported and needs no gate of its own."""
    tols = {"expm": 0.01, "references": 1e-12}
    cfg = SimConfig("randomized", 2, (1.0,), 0.5, 2.0, 100000, 20260826)
    hist = simulate(cfg)
    emp = ShapeLaw({z: c / cfg.replicas for z, c in hist.items()}, 0.0)
    row = build_generator(2, 40, QSeriesCtx(F(1, 2)), (F(1),)).transient(2.0, ())
    torus = law(1, 2.0, (1.0,), 0.5, 40)
    tv_expm, tv_law, tv_refs = emp.tv(row), emp.tv(torus), row.tv(torus)
    return {"name": "simulation-vs-law",
            "passed": tv_expm <= tols["expm"] and tv_refs <= tols["references"],
            "replicas": cfg.replicas, "seed": cfg.seed,
            "tv_vs_expm": tv_expm, "tv_vs_torus_law": tv_law,
            "tv_between_references": tv_refs,
            "reference_errors": {"expm": row.error, "torus": torus.error},
            "tolerances": tols}


def check_torus_law():
    """The rank-2 law by the torus formula (Borodin-Corwin), one FFT on a
    sized torus grid, against ``law``'s generator row at (t, a, q) = (0.25,
    (1, 1), 0.5), window 8: TV <= 1e-8."""
    tol = 1e-8
    row = law(2, 0.25, (1.0, 1.0), 0.5, 8)
    tv = ShapeLaw(_torus_law(2, 0.25, (1.0, 1.0), 0.5, 8), 0.0).tv(row)
    return {"name": "torus-law", "passed": tv <= tol, "tolerance": tol, "tv": tv,
            "states": len(row.table), "mass_defect": row.stats["mass_defect"]}


def check_moments_three_way():
    """First and second q-moments at rank 1 by direct summation, operator
    powers and contour integrals, pairwise to 1e-6 relative."""
    tol = 1e-6
    worst = max(moments(1, k, 1.0, (1.3,), 0.5)["max_pairwise_relative"] for k in (1, 2))
    return {"name": "moments-three-way", "passed": worst <= tol,
            "tolerance": tol, "worst_relative": worst}


def check_orthogonality():
    """Torus orthogonality of the recursion-defined family within 1e-12 of
    the identity: rank 1 up to degree 4, rank 2 up to weight 2."""
    shapes1 = [(k,) for k in range(5)]
    m1 = orthogonality_matrix(1, shapes1, 0.4)
    err1 = float(np.abs(m1 - np.eye(len(shapes1))).max())
    shapes2 = [canon(z) for z in partitions_max_weight(2, 2)]
    m2 = orthogonality_matrix(2, shapes2, 0.4)
    err2 = float(np.abs(m2 - np.eye(len(shapes2))).max())
    tol = 1e-12
    return {"name": "orthogonality", "passed": err1 <= tol and err2 <= tol,
            "rank1_max_error": err1, "rank2_max_error": err2,
            "tolerances": {"rank1": tol, "rank2": tol}}


def check_scaling_limit():
    """Rank-1 scaled character converges to the wall-potential eigenfunction:
    errors strictly decrease along eps in {0.1, 0.05, 0.02} and end below
    1.5e-2 at each x."""
    rows = convergence_table(1, (0.7,), [-1.0, 0.0, 1.0, 2.0], [0.1, 0.05, 0.02])
    by_x = {}
    for r in rows:
        by_x.setdefault(r["x"], []).append(r["abs_error"])
    monotone = all(all(a > b for a, b in zip(errs, errs[1:])) for errs in by_x.values())
    # the final errors measure at most 8.93e-3 (x = 1)
    tol = 1.5e-2
    final_ok = all(errs[-1] <= tol for errs in by_x.values())
    return {"name": "scaling-limit", "passed": monotone and final_ok,
            "monotone": monotone, "tolerance": tol,
            "final_errors": {str(x): errs[-1] for x, errs in by_x.items()}}


def check_continuous_kernels():
    """Level-2 eigenfunction matches its Bessel closed form to 1e-12
    relative, kernel intertwinings hold to 1e-6 on 25-point grids, and the
    level-2 eigen-residual stays below 1e-7."""
    tols = {"bessel": 1e-12, "intertwining": 1e-6, "eigen_residual": 1e-7}
    worst_bessel = max(phi2_bessel_errors(0.8).values())
    rep1 = kernel_identity_residuals(1, 0.7)
    rep2 = kernel_identity_residuals(2, 0.9)
    worst_nn = max(rep1["nn_max"], rep2["nn_max"])
    worst_nnm1 = rep2["nnm1_max"]
    eig = max(phi_eigen_residuals(0.8).values())
    passed = (worst_bessel <= tols["bessel"] and worst_nn <= tols["intertwining"]
              and worst_nnm1 <= tols["intertwining"] and eig <= tols["eigen_residual"])
    return {"name": "continuous-kernels", "passed": passed,
            "bessel_worst_relative": worst_bessel,
            "intertwining_max": {"nn": worst_nn, "nnm1": worst_nnm1},
            "eigen_residual": eig, "tolerances": tols}


def check_polymer_identity():
    """The polymer identity between the hierarchy top Z^N(t) and the
    integrated single-path partition function of the reversed drift ladder,
    gated path by path at levels 1 and 2: over 2000 paths, Y's level j
    driven by the normals of Z's level N + 1 - j reversed in time, max
    |Z - Y| <= 1e-12 max(1, max |Z|).  The identity holds on every path at
    every level: reversing time on each path and renumbering the levels from
    the top maps the one integral onto the other, and the trapezoid weights
    are symmetric under reversal."""
    tol = 1e-12
    rep1 = polymer_reversal_gap(1, (0.9,), 2.0, paths=2000, seed=7)
    rep2 = polymer_reversal_gap(2, (0.9, 0.4), 2.0, paths=2000, seed=8)
    return {"name": "polymer-identity",
            "passed": rep1["relative_gap"] <= tol and rep2["relative_gap"] <= tol,
            "level1": rep1, "level2": rep2, "tolerance": tol,
            "note": "the identity holds path by path; "
                    "links to pattern diffusions remain conjectural"}


def check_orthogonality_conjecture():
    """Coefficient distance between the Gram-Schmidt family of the
    t0-deformed weight and the recursion-defined character.  At t0 = 0 the
    family is the character to rounding: gated at 1e-10 over rank 1 up to
    weight 4, rank 2 up to weight 3 and rank 3 up to weight 2.  At t0 = 1e-3
    the distances, first order in t0, are reported at rank 2."""
    tol = 1e-10
    at_zero = {}
    for n, max_weight in ((1, 4), (2, 3), (3, 2)):
        family = gram_schmidt_koornwinder(n, 0.4, 0.0, max_weight)
        at_zero[f"rank{n}"] = max(conjecture_distance(n, lam, 0.4, family) for lam in family)
    family = gram_schmidt_koornwinder(2, 0.4, 1e-3, 2)
    dists = {str(lam): conjecture_distance(2, lam, 0.4, family)
             for lam in [(1,), (1, 1), (2,)]}
    return {"name": "orthogonality-conjecture", "passed": max(at_zero.values()) <= tol,
            "tolerance": tol, "t0_zero_distances": at_zero,
            "t0": 1e-3, "coefficient_distances": dists}


# (name, callable, included in --quick)
REGISTRY = [
    ("character-routes", check_character_routes, True),
    ("two-route-equality", check_two_route_equality, True),
    ("q-zero-degeneration", check_q_zero_degeneration, True),
    ("pieri-identity", check_pieri_identity, True),
    ("koornwinder-eigenrelation", check_koornwinder_eigenrelation, True),
    ("branching-limit", check_branching_limit, True),
    ("insertion", check_insertion, True),
    ("intertwining", check_intertwining, True),
    ("simulation-vs-law", check_simulation_vs_law, False),
    ("torus-law", check_torus_law, True),
    ("moments-three-way", check_moments_three_way, True),
    ("orthogonality", check_orthogonality, True),
    ("scaling-limit", check_scaling_limit, False),
    ("continuous-kernels", check_continuous_kernels, True),
    ("polymer-identity", check_polymer_identity, False),
    ("orthogonality-conjecture", check_orthogonality_conjecture, True),
]


def _run_check(name: str, fn) -> dict:
    """Run one check and stamp its wall time in ``seconds`` on its report,
    with ``passed`` as a Python bool.  An exception becomes a failed report
    carrying the error and its traceback, so the checks after it still
    run."""
    t0 = time.time()
    try:
        rep = fn()
    except Exception as exc:  # noqa: BLE001 - ledger boundary, reported
        return {"name": name, "passed": False,
                "seconds": round(time.time() - t0, 3),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}
    rep["seconds"] = round(time.time() - t0, 3)
    rep["passed"] = bool(rep["passed"])
    return rep


def run_all(quick: bool = False) -> dict:
    """Run the registry (optionally the quick subset) and return a
    machine-readable ledger."""
    reports = [_run_check(nm, fn) for nm, fn, q in REGISTRY if q or not quick]
    hard_failures = [r["name"] for r in reports if not r["passed"]]
    return {"checks": reports, "passed": not hard_failures,
            "hard_failures": hard_failures, "quick": quick}
