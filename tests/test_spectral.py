import json
import math
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sympgt import spectral
from sympgt.algebra import INF, LaurentPoly, QSeriesCtx, big_q_hermite, q_hermite, q_pochhammer
from sympgt.characters import monomial_symmetric, qwhittaker_recursion
from sympgt.dynamics import build_generator
from sympgt.spectral import (
    ContourSpec,
    TorusQuadrature,
    conjecture_distance,
    default_contour_spec,
    gram_schmidt_koornwinder,
    inner_product,
    koornwinder_apply,
    law,
    moments,
    norm_squared_factor,
    orthogonality_matrix,
    pochhammer_depth,
    reconstruct,
)

REFERENCE = json.loads((Path(__file__).parent / "data" / "torus_reference.json").read_text())


@pytest.fixture(scope="module")
def quad1():
    return TorusQuadrature(1, q=0.4)


@pytest.fixture(scope="module")
def quad2():
    return TorusQuadrature(2, q=0.4)


def test_hermite_orthogonality_rank_one(quad1):
    q = 0.4
    ctx = QSeriesCtx(q)
    qq_inf = float(q_pochhammer(ctx, q, INF))
    H = [q_hermite(ctx, l) for l in range(5)]
    for j in range(5):
        for k in range(5):
            ip = inner_product(H[j], H[k], quad1)
            expect = float(q_pochhammer(ctx, q, j)) / qq_inf if j == k else 0.0
            assert abs(ip - expect) < 1e-8


def test_orthogonality_matrix_rank_two(quad2):
    shapes = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    M = orthogonality_matrix(2, shapes, 0.4, quad=quad2)
    assert np.abs(M - np.eye(len(shapes))).max() < 1e-6


def test_norm_factor_closed_form(quad1):
    # quadrature norm matches the closed form for a rank-1 shape
    ctx = QSeriesCtx(0.4)
    H3 = q_hermite(ctx, 3)
    assert abs(inner_product(H3, H3, quad1).real * norm_squared_factor((3,), 1, ctx) - 1) < 1e-8


def test_completeness_reconstruction(quad1):
    pts = [np.exp(1j * th) for th in (0.3, 0.9, 1.7, 2.5, 3.0)]
    vals = reconstruct(lambda a: a + 1 / a, pts, 1, 0.4, 6, quad=quad1)
    for pt, v in zip(pts, vals):
        assert abs(v - (pt + 1 / pt)) < 1e-4


def test_law_is_delta_at_time_zero():
    lt = law(1, 0.0, (1.3,), 0.5, 10)
    assert lt.table[()] == pytest.approx(1.0, abs=1e-10)
    assert all(p < 1e-10 for z, p in lt.table.items() if z)


def test_law_normalizes_and_nonnegative():
    lt = law(1, 1.0, (1.0,), 0.5, 40)
    assert abs(lt.stats["mass_defect"]) < 1e-9
    assert all(p >= 0 for p in lt.table.values())
    lt2 = law(2, 0.5, (1.1, 0.9), 0.5, 8, tol=1e-5)
    assert abs(lt2.stats["mass_defect"]) < 1e-5
    assert all(p >= -1e-12 for p in lt2.table.values())


def test_law_window_error():
    with pytest.raises(ValueError):
        law(1, 2.0, (1.0,), 0.5, 3)


def test_law_forward_equation():
    q, a, t, h = 0.5, (1.2,), 1.0, 1e-3
    gen = build_generator(2, 30, QSeriesCtx(F(1, 2)), (F(6, 5),))
    Q = gen.dense()
    quad = TorusQuadrature(1, q=q)
    tables = [law(1, s, a, q, 30, quad=quad, tol=1e-4).table for s in (t - h, t, t + h)]
    p = np.array([[tb.get(z, 0.0) for z in gen.states] for tb in tables])
    dp = (p[2] - p[0]) / (2 * h)
    residual = np.abs(dp - p[1] @ Q)[:20].max()
    assert residual < 1e-6


def test_koornwinder_eigen_rank_one():
    q = 0.5
    ctx = QSeriesCtx(q)
    a = (0.7 + 0.2j,)
    for k in range(5):
        H = q_hermite(ctx, k)
        F_ = lambda pt: complex(H.evaluate(pt))
        lhs = koornwinder_apply(F_, a, 1, q)
        rhs = (q ** -k - 1) * F_(a)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_koornwinder_eigen_rank_two():
    q = 0.4
    ctx = QSeriesCtx(q)
    pts = [(0.8 + 0.1j, 1.3 - 0.2j), (1.1 + 0.3j, 0.6 - 0.1j)]
    for lam in [(1, 0), (2, 1), (2, 2)]:
        P = qwhittaker_recursion(2, lam, ctx)
        F_ = lambda pt: complex(P.evaluate(pt))
        for a in pts:
            lhs = koornwinder_apply(F_, a, 2, q)
            rhs = (q ** -lam[0] - 1) * F_(a)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_koornwinder_annihilates_constants():
    assert abs(koornwinder_apply(lambda pt: 1.0, (1.3,), 1, 0.5)) < 1e-14
    assert abs(koornwinder_apply(lambda pt: 2.5, (1.2, 0.7), 2, 0.4)) < 1e-12


def test_koornwinder_pole_guard():
    with pytest.raises(ValueError):
        koornwinder_apply(lambda pt: 1.0, (1.0,), 1, 0.5)


def test_moments_three_way():
    for k in (1, 2):
        m = moments(1, k, 1.0, (1.3,), 0.5)
        vals = [m["direct"], m["operator"], m["contour"]]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) <= 1e-6 * abs(vals[j])


def test_moments_three_way_at_q_near_one():
    # the direct route's mpmath weight and (q;q)_inf follow pochhammer_depth(q)
    m = moments(1, 1, 1.0, (1.3,), 0.9, window=25)
    vals = [m["direct"], m["operator"], m["contour"]]
    assert max(vals) - min(vals) <= 1e-12 * abs(vals[0])


def test_third_moment_routes_agree_on_a_capped_contour_grid():
    # the 3-fold contour grid takes 256 nodes per circle (2^24 points), not
    # the 1024^3 = 16 GiB of complex entries of an uncapped grid
    m = moments(1, 3, 0.25, (1.3,), 0.7, window=10)
    vals = [m["direct"], m["operator"], m["contour"]]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(vals[i] - vals[j]) <= 1e-6 * abs(vals[j])


def test_moments_trivial_cases():
    m = moments(1, 0, 1.0, (1.3,), 0.5)
    assert all(abs(v - 1) < 1e-9 for v in m.values())
    m0 = moments(1, 1, 0.0, (1.3,), 0.5, window=5)
    assert all(abs(v - 1) < 1e-9 for v in m0.values())


def test_contour_spec_validation():
    spec = default_contour_spec((1.3,), 0.5, 2)
    spec.validate((1.3,), 0.5)
    with pytest.raises(ValueError):
        ContourSpec([(1.0, 0.1)]).validate((1.3,), 0.5)
    with pytest.raises(ValueError):
        ContourSpec([(0.0, 2.0)]).validate((1.3,), 0.5)  # encloses the origin


def test_gram_schmidt_matches_big_q_hermite():
    q, t0 = 0.5, 0.3
    ctx = QSeriesCtx(q)
    fam = gram_schmidt_koornwinder(1, q, t0, 2)
    for pt in (np.exp(0.4j), np.exp(1.1j)):
        got = complex(fam[(2,)].evaluate((pt,)))
        want = complex(big_q_hermite(ctx, 2, t0, pt))
        assert abs(got - want) < 1e-8


def test_gram_schmidt_small_t0_approaches_characters():
    q, t0 = 0.5, 1e-3
    fam = gram_schmidt_koornwinder(1, q, t0, 3)
    d = conjecture_distance(1, (3,), q, t0, family=fam)
    assert d < 0.05  # O(t0) coefficient drift
    fam0 = gram_schmidt_koornwinder(1, q, 1e-4, 3)
    d0 = conjecture_distance(1, (3,), q, 1e-4, family=fam0)
    assert d0 < d


def test_conjecture_probe_rank_two_reported():
    q, t0 = 0.4, 1e-3
    fam = gram_schmidt_koornwinder(2, q, t0, 2)
    for lam in [(1, 0), (1, 1), (2, 0)]:
        d = conjecture_distance(2, lam, q, t0, family=fam)
        assert math.isfinite(d)
        assert d < 0.1  # loose sanity bound; the probe is reported, not gated


def _grid_values(poly, quad):
    """poly evaluated term by term on the quadrature grid."""
    total = np.zeros(quad.weight.shape, dtype=complex)
    for exps, c in poly.terms.items():
        term = complex(c)
        for g, e in zip(quad.grids, exps):
            term = term * g ** e
        total = total + term
    return total


@pytest.mark.parametrize("n, nodes", [(1, 64), (2, 32)])
def test_fft_inner_product_equals_grid_mean(n, nodes):
    quad = TorusQuadrature(n, nodes=nodes, q=0.4, t0=0.2)
    ctx = QSeriesCtx(0.4)
    # terms off the symmetric ones, so that a sign or index slip shows
    f = qwhittaker_recursion(n, (2, 1)[:n], ctx) + LaurentPoly(n, {(1,) * n: 0.3})
    g = (monomial_symmetric(n, (3,)).map_coefficients(float)
         + LaurentPoly(n, {(2,) + (-1,) * (n - 1): 0.5j}))
    F_, G = _grid_values(f, quad), _grid_values(g, quad)
    order = 2 ** n * math.factorial(n)

    def mean(a, b):
        return complex(np.mean(a * np.conj(b) * quad.weight)) / order

    def pi(*xs):
        return np.exp(0.7 * xs[0] + sum(0.2 / x for x in xs))

    cases = [(inner_product(f, g, quad), mean(F_, G)),
             (inner_product(g, g, quad), mean(G, G)),
             (inner_product(pi, g, quad), mean(pi(*quad.grids), G)),
             (inner_product(g, pi, quad), mean(G, pi(*quad.grids)))]
    for got, want in cases:
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


@pytest.mark.parametrize("n, nodes, t0", [(1, 64, 0.0), (2, 48, 0.0), (2, 32, 0.3)])
def test_real_weight_equals_complex_product(n, nodes, t0):
    quad = TorusQuadrature(n, nodes=nodes, q=0.5, t0=t0)
    ref = quad._weight(quad.truncation, quad.grids)
    assert quad.weight.dtype == np.float64
    assert np.abs(quad.weight - ref).max() <= 1e-13 * np.abs(ref).max()


def test_short_truncation_raises_on_every_construction():
    for _ in range(2):
        # every construction probes its own truncation and keeps the residual
        short = TorusQuadrature(1, nodes=64, q=0.5, truncation=45)
        full = TorusQuadrature(1, nodes=64, q=0.5)
        assert full.truncation_residual < 1e-15 < short.truncation_residual <= 1e-10
        with pytest.raises(ValueError, match="truncation 5 too short"):
            TorusQuadrature(1, nodes=64, q=0.5, truncation=5)
        with pytest.raises(ValueError, match="truncation 60 too short"):
            TorusQuadrature(1, nodes=64, q=0.9, truncation=60)
        # the probe points must not sit on a_1 = a_2, where every rank-2 weight is 0
        with pytest.raises(ValueError, match="truncation 30 too short"):
            TorusQuadrature(2, nodes=16, q=0.5, truncation=30)


def test_default_truncation_follows_q():
    assert pochhammer_depth(0.5) == 60 and pochhammer_depth(0.0) == 60
    assert 0.9 ** pochhammer_depth(0.9) < 1e-17 <= 0.9 ** (pochhammer_depth(0.9) - 1)
    assert TorusQuadrature(1, nodes=64, q=0.9).truncation == pochhammer_depth(0.9)


def test_law_matches_grid_quadrature_reference():
    lt = law(2, 0.25, (1, 1), 0.5, 8)
    ref = {tuple(json.loads(z)): v for z, v in REFERENCE["law_n2"].items()}
    assert set(lt.table) == set(ref)
    for z, v in ref.items():
        assert abs(lt.table[z] - v["p"]) <= v["noise"]
        assert lt.noise[z] == pytest.approx(v["noise"], rel=1e-12)
    lt1 = law(1, 2.0, (1.0,), 0.5, 40)
    ref1 = {tuple(json.loads(z)): p for z, p in REFERENCE["law_n1"].items()}
    assert set(lt1.table) == set(ref1)
    assert max(abs(lt1.table[z] - p) for z, p in ref1.items()) <= 1e-13


def test_law_reports_what_its_clamp_removed():
    lt = law(2, 0.25, (1, 1), 0.5, 8)
    assert lt.stats["clamped_states"] == 3 and lt.stats["clamped_mass"] < 0
    assert lt.stats["clamped_states"] <= sum(1 for p in lt.table.values() if p == 0)
    lt0 = law(1, 0.0, (1.3,), 0.5, 10)
    assert (lt0.stats["clamped_states"] == 0) == (lt0.stats["clamped_mass"] == 0)


def test_law_error_shows_the_clamp_that_the_mass_defect_hides():
    lt = law(1, 1.0, (1.0,), 0.9, 15)
    assert abs(lt.stats["mass_defect"]) < 1e-6 < lt.error
    assert lt.error == pytest.approx(5.0e-6, rel=0.01)
    assert lt.error == (abs(lt.stats["mass_defect"]) + abs(lt.stats["clamped_mass"])
                        + sum(lt.noise.values()))


def test_rank_two_moments_are_pinned():
    # k > 0 drops the states within 20 noise floors of 0 (44 of 91 here)
    assert moments(2, 1, 0.5, (1.3, 0.9), 0.5, window=12)["direct"] == 4.729184380643159
    assert moments(2, 2, 0.5, (1.3, 0.9), 0.5, window=12)["direct"] == 59.884197080978275


def _product_law(t, a, q, zmax, dps, factors, nodes=512):
    """The rank-1 law as first written, the reference for ``_rank_one_law``:
    every node of the full grid, with the weight and (q;q)_inf as products
    of ``factors`` Pochhammer factors."""
    with mp.workdps(dps):
        qm, tm, am = mp.mpf(q), mp.mpf(t), mp.mpf(a)
        cos1 = [mp.cos(2 * mp.pi * j / nodes) for j in range(nodes)]
        weight = []
        for c1 in cos1:
            c2 = 2 * c1 ** 2 - 1
            w, qk = mp.mpf(1), mp.mpf(1)
            for _ in range(factors):
                w *= 1 - 2 * qk * c2 + qk ** 2
                qk *= qm
            weight.append(w)
        pi_vals = [mp.e ** (2 * tm * c) for c in cos1]
        qq_inf, qk = mp.mpf(1), qm
        for _ in range(factors):
            qq_inf *= 1 - qk
            qk *= qm
        h_prev, h_cur = [mp.mpf(1)] * nodes, [2 * c for c in cos1]
        v_prev, v_cur = mp.mpf(1), am + 1 / am
        qq_z, norm = mp.mpf(1), mp.e ** ((am + 1 / am) * tm)
        out = []
        for z in range(zmax + 1):
            hz = h_prev if z == 0 else h_cur
            vz = v_prev if z == 0 else v_cur
            ip = mp.fsum(p * w * h for p, w, h in zip(pi_vals, weight, hz)) / (2 * nodes)
            out.append(vz * (qq_inf / qq_z) * ip / norm)
            qq_z *= 1 - qm ** (z + 1)
            if z >= 1:
                fac = 1 - qm ** z
                h_prev, h_cur = h_cur, [2 * c * hc - fac * hp
                                        for c, hc, hp in zip(cos1, h_cur, h_prev)]
                v_prev, v_cur = v_cur, (am + 1 / am) * v_cur - fac * v_prev
        return out


@pytest.fixture
def fresh_rank_one_cache():
    spectral._rank_one_law.cache_clear()
    yield spectral._rank_one_law
    spectral._rank_one_law.cache_clear()


@pytest.mark.slow
def test_rank_one_law_matches_pochhammer_product(fresh_rank_one_cache):
    # 0.5^300 < 1e-90: the 300-factor products are exact at 80 digits
    q, window = 0.5, 40
    ref = _product_law(1.0, 1.3, q, window, 80, 300)
    got = fresh_rank_one_cache(1.0, 1.3, q, window)
    with mp.workdps(80):
        for z, (g, r) in enumerate(zip(got, ref)):
            # the law sums to 1, so these are relative to its mass; times
            # q^{-3z} they bound what the noise adds to the k = 3 moment
            assert abs(g - r) <= mp.mpf(10) ** -45
            assert abs(g - r) * mp.mpf(q) ** (-3 * z) <= mp.mpf(10) ** -24
        assert ref[window] < mp.mpf(10) ** -43


def test_rank_one_direct_matches_operator_at_q_04():
    m = moments(1, 2, 1.0, (1.3,), 0.4, window=40)
    assert abs(m["direct"] - m["operator"]) <= 1e-12 * abs(m["operator"])


def test_rank_one_direct_is_the_operator_double_at_the_ledger_point():
    for k in (1, 2):
        m = moments(1, k, 1.0, (1.3,), 0.5)
        assert m["direct"] == m["operator"]


@pytest.mark.parametrize("q, t, window", [(0.3, 1.0, 40), (0.5, 4.0, 25),
                                          (0.7, 0.25, 25), (0.9, 8.0, 40)])
def test_rank_one_precision_rule_has_sixty_digits_to_spare(fresh_rank_one_cache, monkeypatch,
                                                           q, t, window):
    def direct():
        return [spectral._direct_moment_rank_one(k, t, 1.3, q, zmax=window) for k in (1, 2, 3)]

    at_rule = direct()
    rule = spectral._rank_one_dps
    monkeypatch.setattr(spectral, "_rank_one_dps", lambda q, zmax: rule(q, zmax) + 60)
    fresh_rank_one_cache.cache_clear()
    assert direct() == at_rule


def test_rank_one_moments_share_one_law(fresh_rank_one_cache):
    for k in (1, 2):
        moments(1, k, 1.0, (1.3,), 0.5)
    info = fresh_rank_one_cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_pochhammer_depth_rejects_q_off_the_unit_disc():
    for q in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match=r"\|q\| < 1"):
            pochhammer_depth(q)
