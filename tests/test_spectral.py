import json
import math
from fractions import Fraction as F
from pathlib import Path
from typing import Sequence

import mpmath as mp
import numpy as np
import pytest

from sympgt import spectral
from sympgt.algebra import (INF, LaurentPoly, QSeriesCtx, Scalar, _f, bracket_poly,
                            pochhammer_depth, q_binomial, q_hermite, q_pochhammer)
from sympgt.characters import monomial_symmetric, qwhittaker_recursion
from sympgt.combinatorics import canon, partitions_max_weight
from sympgt.dynamics import build_generator
from sympgt.spectral import (
    TorusQuadrature,
    conjecture_distance,
    contour_moment,
    gram_schmidt_koornwinder,
    inner_product,
    koornwinder_apply,
    law,
    moments,
    norm_squared_factor,
    orthogonality_matrix,
)

REFERENCE = json.loads((Path(__file__).parent / "data" / "torus_reference.json").read_text())


@pytest.fixture(scope="module")
def quad1():
    return TorusQuadrature(1, 512, q=0.4)


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


def test_orthogonality_matrix_rank_two():
    shapes = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    M = orthogonality_matrix(2, shapes, 0.4)
    assert np.abs(M - np.eye(len(shapes))).max() < 1e-6


def test_norm_factor_closed_form(quad1):
    # quadrature norm matches the closed form for a rank-1 shape
    ctx = QSeriesCtx(0.4)
    H3 = q_hermite(ctx, 3)
    assert abs(inner_product(H3, H3, quad1).real * norm_squared_factor((3,), 1, ctx) - 1) < 1e-8


def test_law_is_delta_at_time_zero():
    lt = law(1, 0.0, (1.3,), 0.5, 10)
    assert lt.table[()] == pytest.approx(1.0, abs=1e-10)
    assert all(p < 1e-10 for z, p in lt.table.items() if z)


def test_law_normalizes_and_nonnegative():
    lt = law(1, 1.0, (1.0,), 0.5, 40)
    assert abs(lt.stats["mass_defect"]) < 1e-9
    assert all(p >= 0 for p in lt.table.values())
    lt2 = law(2, 0.5, (1.1, 0.9), 0.5, 10)
    assert abs(lt2.stats["mass_defect"]) < 1e-6
    # uniformization adds nonnegative terms only
    assert all(p >= 0 for p in lt2.table.values())


def test_law_window_error():
    with pytest.raises(ValueError):
        law(1, 2.0, (1.0,), 0.5, 3)


def test_law_forward_equation():
    q, a, t, h = 0.5, (1.2,), 1.0, 1e-3
    gen = build_generator(2, 30, QSeriesCtx(F(1, 2)), (F(6, 5),))
    Q = gen.dense()
    tables = [law(1, s, a, q, 30).table for s in (t - h, t, t + h)]
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
    # the 3-fold term on 32 nodes per deformed circle; the nested circles'
    # uncapped grid had 1024^3 = 16 GiB of complex entries
    m = moments(1, 3, 0.25, (1.3,), 0.7, window=10)
    vals = [m["direct"], m["operator"], m["contour"]]
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(vals[i] - vals[j]) <= 1e-6 * abs(vals[j])


@pytest.mark.parametrize("k, t, q, tol", [(2, 1.0, 0.3, 1e-12), (2, 4.0, 0.3, 1e-12),
                                          (2, 1.0, 0.2, 1e-12), (3, 1.0, 0.5, 1e-9),
                                          (3, 0.25, 0.9, 1e-9)])
def test_contour_route_matches_the_operator_at_small_q_and_k_3(k, t, q, tol):
    # the nested circles were 1.4e-4, 1.6e10 and 1.6e11 relative off at the
    # k = 2 points, and did not exist at k = 3, q = 0.5
    m = moments(1, k, t, (1.3,), q)
    assert abs(m["contour"] - m["operator"]) <= tol * m["operator"]


@pytest.mark.parametrize("k, t, a, q, message", [
    (3, 1.0, (1.3,), 0.3, "32 and 16 nodes per circle differ by"),
    (2, 3.0, (2.0,), 0.1, "the contour integrand overflows a double"),
])
def test_contour_route_raises_one_line_past_its_estimate(k, t, a, q, message):
    # pyproject makes a RuntimeWarning fail the test, so this also checks
    # that numpy does not warn of the overflow first
    with pytest.raises(ValueError, match=message) as exc:
        contour_moment(1, k, t, a, q)
    assert "\n" not in str(exc.value)


def test_rank_two_moment_overflow_raises_before_the_generator(monkeypatch):
    # q^(-3 * 60) at q = 0.01 is 1e360; the 1,891-state generator took
    # about 4 s to build before the overflow was found in its row
    def no_generator(*args):
        raise AssertionError("the generator was built")

    monkeypatch.setattr(spectral, "build_generator", no_generator)
    with pytest.raises(ValueError, match="q\\^\\(-k z_1\\) overflows a double at --window 60"):
        moments(2, 3, 1.0, (1.3, 0.9), 0.01, window=60)


def test_contour_moment_reads_its_rank_from_n():
    with pytest.raises(ValueError, match="--a needs one rate per rank, 2 for --n 2, got 1"):
        contour_moment(2, 1, 0.5, (1.3,), 0.5)


def test_moments_trivial_cases():
    routes = ("direct", "operator", "contour")
    m = moments(1, 0, 1.0, (1.3,), 0.5)
    assert all(abs(m[r] - 1) < 1e-9 for r in routes)
    m0 = moments(1, 1, 0.0, (1.3,), 0.5, window=5)
    assert all(abs(m0[r] - 1) < 1e-9 for r in routes)


def basic_hypergeometric_3phi2(ctx: QSeriesCtx, numerators: Sequence[Scalar],
                               denominators: Sequence[Scalar], z: Scalar,
                               max_terms: int | None = None) -> Scalar:
    """3phi2 series sum_k (a1,a2,a3;q)_k / ((b1,b2;q)_k (q;q)_k) z^k.

    The series must terminate (some numerator q-Pochhammer hits zero) unless
    max_terms is supplied."""
    if len(numerators) != 3 or len(denominators) != 2:
        raise ValueError("3phi2 takes three numerator and two denominator parameters")
    q = ctx.q
    total: Scalar = 0
    term: Scalar = F(1) if ctx.exact else 1.0
    k = 0
    while True:
        total = total + term
        # Multiply the k-th factor ratio to move from term k to term k+1.
        num = 1
        for aa in numerators:
            num *= 1 - aa * q ** k
        den = 1 - q ** (k + 1)
        for bb in denominators:
            den *= 1 - bb * q ** k
        if den == 0:
            raise ZeroDivisionError("3phi2 denominator parameter hit a pole")
        term = term * num * z / den
        k += 1
        if term == 0:
            return total
        if max_terms is not None and k >= max_terms:
            return total
        if max_terms is None and k > 10000:
            raise ValueError("non-terminating 3phi2 without truncation depth")


def big_q_hermite(ctx: QSeriesCtx, l: int, t0: Scalar, x: Scalar,
                  method: str = "phi") -> Scalar:
    """Continuous big q-Hermite polynomial H_l(x;t0|q), evaluated at the
    Laurent point x.  Two routes:

    - "phi":       t0^{-l} 3phi2(q^{-l}, t0 x, t0/x ; 0, 0 | q; q)
    - "expansion": t0^{-l} sum_r binom(l,r)_q t0^r q^{r^2-lr} <x;t0>_{q,r}
    """
    if t0 == 0:
        raise ValueError("t0 must be nonzero")
    if x == 0:
        raise ValueError("x must be nonzero")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    q, t0, x = ctx.q, _f(t0), _f(x)
    if method == "phi":
        series = basic_hypergeometric_3phi2(
            ctx, [_f(q) ** (-l), t0 * x, t0 / x], [0, 0], q, max_terms=l + 1)
        return t0 ** (-l) * series
    if method == "expansion":
        total: Scalar = 0
        for r in range(l + 1):
            total = total + (q_binomial(ctx, l, r) * t0 ** r
                             * q ** (r * r - l * r)
                             * bracket_poly(ctx, t0, r).evaluate((x,)))
        return t0 ** (-l) * total
    raise ValueError(f"unknown method {method!r}")


def test_3phi2_terminating():
    ctx = QSeriesCtx(F(1, 2))
    q = F(1, 2)
    # a1 = q^{-2} makes the series terminate after 3 terms
    val = basic_hypergeometric_3phi2(ctx, (q ** -2, F(1, 3), F(1, 5)), (F(0), F(0)), q)
    s = F(0)
    term = F(1)
    for k in range(3):
        s += term
        num = (1 - q ** -2 * q ** k) * (1 - F(1, 3) * q ** k) * (1 - F(1, 5) * q ** k)
        term = term * num / (1 - q ** (k + 1)) * q
    assert val == s


@pytest.mark.parametrize("q", [F(1, 3), F(1, 2), F(2, 5)])
def test_big_q_hermite_two_routes_agree(q):
    ctx = QSeriesCtx(q)
    for t0 in (F(1, 3), F(7, 10)):
        for x in (F(2), F(3, 2), F(5, 7)):
            for l in range(6):
                assert big_q_hermite(ctx, l, t0, x, method="phi") == \
                    big_q_hermite(ctx, l, t0, x, method="expansion")


def test_big_q_hermite_small_t0_limit_is_q_hermite():
    # exact arithmetic avoids the catastrophic cancellation of the small-t0
    # regime; the limit t0 -> 0 recovers the one-parameter polynomials
    ctx = QSeriesCtx(F(1, 2))
    x = F(3)
    t0 = F(1, 10 ** 8)
    for l in range(6):
        h = q_hermite(ctx, l).evaluate((x,))
        v = big_q_hermite(ctx, l, t0, x, method="phi")
        assert abs(float(v - h)) < 1e-5 * max(1.0, abs(float(h)))


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
    d = conjecture_distance(1, (3,), q, fam)
    assert d < 0.05  # O(t0) coefficient drift
    fam0 = gram_schmidt_koornwinder(1, q, 1e-4, 3)
    d0 = conjecture_distance(1, (3,), q, fam0)
    assert d0 < d


def test_conjecture_probe_rank_two_reported():
    q, t0 = 0.4, 1e-3
    fam = gram_schmidt_koornwinder(2, q, t0, 2)
    for lam in [(1, 0), (1, 1), (2, 0)]:
        d = conjecture_distance(2, lam, q, fam)
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

    # law reads a grid function against a polynomial through _against
    P = np.exp(0.7 * quad.grids[0] + sum(0.2 / x for x in quad.grids))
    cases = [(inner_product(f, g, quad), mean(F_, G)),
             (inner_product(g, g, quad), mean(G, G)),
             (spectral._against(quad.spectrum(P), g) / order, mean(P, G))]
    for got, want in cases:
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def _complex_weight(quad: TorusQuadrature) -> np.ndarray:
    """The weight on quad's grid as the complex product of its 2n + 4 binom(n, 2)
    Pochhammer symbols (2n more with t0)."""
    poch = lambda x: q_pochhammer(QSeriesCtx(quad.q), x, INF)
    w = np.ones(quad.weight.shape, dtype=complex)
    for aj in quad.grids:
        w = w * poch(aj ** 2) * poch(aj ** -2)
        if quad.t0:
            w = w / (poch(quad.t0 * aj) * poch(quad.t0 / aj))
    for j in range(quad.n):
        for k in range(j + 1, quad.n):
            aj, ak = quad.grids[j], quad.grids[k]
            w = w * poch(aj * ak) * poch(ak / aj) * poch(aj / ak) * poch(1 / (aj * ak))
    return w


@pytest.mark.parametrize("n, nodes, t0", [(1, 64, 0.0), (2, 48, 0.0), (2, 32, 0.3)])
def test_real_weight_equals_complex_product(n, nodes, t0):
    quad = TorusQuadrature(n, nodes=nodes, q=0.5, t0=t0)
    ref = _complex_weight(quad)
    assert quad.weight.dtype == np.float64
    assert np.abs(quad.weight - ref).max() <= 1e-13 * np.abs(ref).max()


def test_torus_grid_past_the_budget_raises_before_allocating():
    # a rank-3 grid of 512^3 points would take 2.1 GB per complex array; the
    # check comes before the first allocation
    with pytest.raises(ValueError, match="--n 3 needs a torus grid of 512\\^3 points"):
        TorusQuadrature(3, 512, 0.5)


@pytest.mark.parametrize("n, q, max_weight", [(3, 0.7, 2), (3, 0.8, 2), (2, 0.95, 2),
                                               (1, 0.95, 4)])
def test_orthogonality_where_the_weight_is_large(n, q, max_weight):
    # the weight reaches 3e7 at (3, 0.7) and 4e28 at (2, 0.95), so its rounding
    # alone passes any absolute gate, yet the matrix is the identity to 6e-11
    shapes = sorted({canon(z) for z in partitions_max_weight(n, max_weight)})
    M = orthogonality_matrix(n, shapes, q)
    assert np.abs(M - np.eye(len(shapes))).max() < 1e-9


@pytest.mark.parametrize("n, nodes, t0", [(1, 64, 0.0), (2, 48, 0.3), (3, 18, 0.0)])
def test_in_place_spectra_equal_fftn_over_size_bitwise(n, nodes, t0):
    quad = TorusQuadrature(n, nodes=nodes, q=0.5, t0=t0)
    assert "weight_spectrum" not in vars(quad)  # computed on first read
    want = np.fft.fftn(quad.weight) / quad.weight.size
    assert quad.weight_spectrum.tobytes() == want.tobytes()
    assert quad.weight_spectrum is quad.weight_spectrum
    F = np.exp(0.7 * quad.grids[0] + sum(0.2 / x for x in quad.grids))
    for f in (F, F.real):
        want = np.fft.fftn(f * quad.weight) / quad.weight.size
        assert quad.spectrum(f).tobytes() == want.tobytes()


def test_torus_law_transforms_its_integrand_only(monkeypatch):
    # the law reads the spectrum of F w alone, so the weight's is never made
    shapes = []
    transform = spectral._mean_spectrum
    monkeypatch.setattr(spectral, "_mean_spectrum",
                        lambda spec: shapes.append(spec.shape) or transform(spec))
    spectral._torus_law(2, 0.25, (1.0, 1.0), 0.5, 8)
    assert len(shapes) == 1


@pytest.mark.parametrize("n, q", [(1, 0.998), (2, 0.999)])
def test_weight_past_double_range_raises_naming_q(n, q):
    # |(e^{i phi};q)_inf|^2 overflows before the grid is sized
    with pytest.raises(ValueError, match=f"--q {q} puts the torus weight's"):
        spectral._torus_nodes(n, q, 4)


def test_default_truncation_follows_q():
    assert pochhammer_depth(0.5) == 60 and pochhammer_depth(0.0) == 60
    assert 0.9 ** pochhammer_depth(0.9) < 1e-17 <= 0.9 ** (pochhammer_depth(0.9) - 1)
    ctx = QSeriesCtx(0.9)
    assert q_pochhammer(ctx, 0.3, INF) == q_pochhammer(ctx, 0.3, pochhammer_depth(0.9))


def test_law_matches_grid_quadrature_reference():
    # the sized torus law lies within the 512-node reference's floors
    ref = {tuple(json.loads(z)): v for z, v in REFERENCE["law_n2"].items()}
    torus = spectral._torus_law(2, 0.25, (1.0, 1.0), 0.5, 8)
    assert set(torus) == set(ref)
    for z, v in ref.items():
        assert abs(torus[z] - v["p"]) <= v["noise"]
    lt1 = law(1, 2.0, (1.0,), 0.5, 40)
    ref1 = {tuple(json.loads(z)): p for z, p in REFERENCE["law_n1"].items()}
    assert set(lt1.table) == set(ref1)
    assert max(abs(lt1.table[z] - p) for z, p in ref1.items()) <= 1e-13


def _tv(p: dict, r: dict) -> float:
    return 0.5 * sum(abs(p[z] - r[z]) for z in r)


@pytest.mark.parametrize("t, a, q, window", [(0.25, (1, 1), 0.5, 8), (0.5, (1.3, 0.9), 0.5, 12),
                                              (1.0, (1, 1), 0.3, 12)])
def test_sized_law_matches_the_512_node_law(monkeypatch, t, a, q, window):
    # the torus law on the sized grid and on 512 nodes per axis, each against
    # the generator row; the FFT's rounding at the far states, where p is
    # below 1e-16, gives TV 1.3e-9, 8.9e-8 and 9.7e-10 here
    row = law(2, t, a, q, window).table
    sized = spectral._torus_law(2, t, a, q, window)
    monkeypatch.setattr(spectral, "_torus_nodes", lambda *args, **kwargs: 512)
    full = spectral._torus_law(2, t, a, q, window)
    assert set(sized) == set(full) == set(row)
    assert _tv(sized, row) <= 2e-7 and _tv(full, row) <= 2e-7


def test_grid_sizes_are_smooth_and_follow_the_integrand():
    assert [spectral._smooth_above(m) for m in (0, 26, 59, 64, 71, 72, 100)] == \
        [1, 27, 64, 72, 72, 81, 108]
    # window 8, plus 2n B = 40 for the weight at q = 0.5 and 11 for e^{2t cos}
    assert spectral._torus_nodes(2, 0.5, 8, t=0.25) == spectral._smooth_above(8 + 40 + 11)
    assert spectral._torus_nodes(2, 0.5, 8) < spectral._torus_nodes(2, 0.5, 8, t=2.0)
    assert spectral._torus_nodes(1, 0.5, 4) < spectral._torus_nodes(1, 0.5, 4, t0=0.3)
    assert spectral._torus_nodes(2, 0.3, 4) < spectral._torus_nodes(2, 0.9, 4)


def test_law_past_the_dense_budget_raises_before_any_work(monkeypatch):
    monkeypatch.setattr(spectral, "build_generator", None)
    with pytest.raises(ValueError, match="--window 40 at --n 3 spans 12341 shapes, past the "
                                         "4096 of a dense generator; use a smaller --window"):
        law(3, 0.25, (1.3, 0.9, 1.1), 0.5, 40)


def test_law_error_is_the_leaked_mass():
    # above rank 1 the law is the generator row, which leaks 9.0e-9 here
    row = build_generator(4, 8, QSeriesCtx(0.5), (1.0, 1.0)).transient(0.25, ())
    lt = law(2, 0.25, (1, 1), 0.5, 8)
    assert lt.table == row.table and len(lt.table) == 45
    assert lt.error == lt.stats["mass_defect"] == 1.0 - sum(lt.table.values())
    assert lt.error == pytest.approx(9.0312e-9, rel=1e-4)


def test_rank_one_law_is_the_exact_law_with_its_negative_tail_clamped():
    # at q = 0.9 the FFT law clamped 2 states holding -3.3e-6 of mass at
    # window 15, and put -1.71 of mass past window 40; the exact law is
    # positive here (2.2e-43 at z = 40), and its mpmath rounding, below
    # 1e-30, is all that could make a value negative
    lt = law(1, 1.0, (1.0,), 0.9, 40)
    exact = spectral._rank_one_law(1.0, 1.0, 0.9, 40)
    assert list(lt.table.values()) == [max(float(p), 0.0) for p in exact]
    assert min(exact) > -1e-30
    assert abs(lt.stats["mass_defect"]) <= 1e-15
    assert lt.error == abs(lt.stats["mass_defect"])


def test_rank_two_moments_are_pinned():
    # the direct route over the generator row against the operator route;
    # the FFT law read 59.883 against 59.956 at k = 2
    for k in (1, 2):
        m = moments(2, k, 0.5, (1.3, 0.9), 0.5, window=24)
        assert abs(m["direct"] - m["operator"]) <= 1e-9 * abs(m["operator"])


def test_transient_keeps_the_far_states_that_a_moment_weights():
    # q^{-3z} weights z = 40 by 2^120: cut at 1e-16, the Poisson sum left
    # this 5.9e-4 off the operator route
    q, a, t = 0.5, (1.3,), 1.0
    row = build_generator(2, 40, QSeriesCtx(q), a).transient(t, ())
    direct = row.mean(lambda z: q ** (-3 * sum(z)))
    Pi = lambda pt: np.exp(sum((u + 1 / u) * t for u in pt))
    operator = sum(math.comb(3, j) * koornwinder_apply(Pi, a, 1, q, j).real
                   for j in range(4)) / spectral.pi_norm(a, t)
    assert abs(direct - operator) <= 1e-10 * operator


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


def test_rank_one_law_is_thirty_digits_exact_at_q_09(fresh_rank_one_cache, monkeypatch):
    # against the same law 60 digits past the rule: mpf arithmetic at the
    # rule's precision was 1.15e-24 off here, the 512-node fixed-point
    # trapezoid 8.2e-33, the Fourier-side sum 2.1e-57
    got = fresh_rank_one_cache(8.0, 1.3, 0.9, 40)
    rule = spectral._rank_one_dps
    monkeypatch.setattr(spectral, "_rank_one_dps", lambda q, zmax: rule(q, zmax) + 60)
    fresh_rank_one_cache.cache_clear()
    ref = fresh_rank_one_cache(8.0, 1.3, 0.9, 40)
    with mp.workdps(120):
        assert max(abs(g - r) for g, r in zip(got, ref)) <= mp.mpf(10) ** -30


def test_rank_one_direct_matches_operator_at_q_04():
    m = moments(1, 2, 1.0, (1.3,), 0.4, window=40)
    assert abs(m["direct"] - m["operator"]) <= 1e-12 * abs(m["operator"])


@pytest.mark.parametrize("a, window, tol", [
    # h_z(3) grows like 3^z: at the moment sums' precision the law was
    # 1.6e-12 relative off
    (3.0, 80, 1e-13),
    # the 512-node trapezoid aliased (direct read -6.6e250)
    pytest.param(1.3, 400, 1e-12, marks=pytest.mark.slow),
    # h_z(0.7) outgrew the moment sums' precision (direct 914x off)
    pytest.param(0.7, 300, 1e-12, marks=pytest.mark.slow),
])
def test_rank_one_direct_matches_operator_at_k_3(a, window, tol):
    m = moments(1, 3, 1.0, (a,), 0.5, window=window)
    assert abs(m["direct"] - m["operator"]) <= tol * abs(m["operator"])


def test_rank_one_law_at_t_0_is_the_empty_shape(fresh_rank_one_cache):
    # the 512-node trapezoid aliased here: its k = 3 moment read 1.00113
    law_z = fresh_rank_one_cache(0.0, 1.3, 0.5, 300)
    assert law_z[0] == 1
    assert all(abs(p) * 2 ** (3 * z) <= 1e-30 for z, p in enumerate(law_z) if z)
    assert spectral._direct_moment_rank_one(3, 0.0, 1.3, 0.5, zmax=300) == 1.0


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
