import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

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
    assert abs(lt.mass_defect) < 1e-9
    assert all(p >= 0 for p in lt.table.values())
    lt2 = law(2, 0.5, (1.1, 0.9), 0.5, 8, tol=1e-5)
    assert abs(lt2.mass_defect) < 1e-5
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
    f = qwhittaker_recursion(n, (2, 1)[:n], ctx) + LaurentPoly.monomial((1,) * n, 0.3)
    g = (monomial_symmetric(n, (3,)).map_coefficients(float)
         + LaurentPoly.monomial((2,) + (-1,) * (n - 1), 0.5j))
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
    TorusQuadrature(1, nodes=64, q=0.5)
    for _ in range(2):
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
