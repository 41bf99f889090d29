import hashlib
from collections import Counter
from fractions import Fraction as F

import pytest

from sympgt import characters
from sympgt.algebra import LaurentPoly, QSeriesCtx, q_hermite
from sympgt.characters import (
    cauchy_identity_check,
    monomial_symmetric,
    pieri_apply,
    pieri_coefficients,
    qwhittaker_kernel,
    qwhittaker_pattern_sum,
    qwhittaker_recursion,
    schur_typeA,
    symplectic_schur_patterns,
    symplectic_schur_tableaux,
    symplectic_schur_weyl,
)
from sympgt.combinatorics import canon, interlacings, padded, part, partitions_max_weight

POINTS2 = [(F(2), F(3)), (F(1, 2), F(5)), (F(3, 7), F(7, 2)),
           (F(5, 3), F(2, 9)), (F(4), F(9, 5))]
POINTS3 = [(F(2), F(3), F(5)), (F(1, 2), F(3, 4), F(7, 5)),
           (F(5, 2), F(7, 3), F(9, 4)), (F(3), F(1, 5), F(8, 3)),
           (F(11, 6), F(13, 7), F(2, 11))]


def test_monomial_symmetric_examples():
    assert monomial_symmetric(1, (2,)) == LaurentPoly(1, {(2,): 1, (-2,): 1})
    m10 = monomial_symmetric(2, (1,))
    assert m10 == LaurentPoly(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    m11 = monomial_symmetric(2, (1, 1))
    assert m11 == LaurentPoly(2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})
    assert len(m11.terms) == 4  # orbit deduplicated


def test_symplectic_schur_rank1_geometric():
    for l in range(5):
        expect = LaurentPoly(1, {(2 * k - l,): 1 for k in range(l + 1)})
        assert symplectic_schur_tableaux(1, (l,)) == expect
        for a in (F(2), F(3, 5), F(7, 4)):
            assert symplectic_schur_weyl(1, (l,), (a,)) == expect.evaluate((a,))


def test_symplectic_schur_11_example():
    s = symplectic_schur_tableaux(2, (1, 1))
    expect = LaurentPoly(2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 1})
    assert s == expect


def test_weyl_vs_tableaux_vs_patterns():
    for n, points in ((2, POINTS2), (3, POINTS3)):
        for lam in partitions_max_weight(n, 4):
            st = symplectic_schur_tableaux(n, lam)
            assert symplectic_schur_patterns(n, lam) == st
            for a in points:
                assert symplectic_schur_weyl(n, lam, a) == st.evaluate(a)


def test_weyl_singular_point_raises():
    with pytest.raises(ValueError, match="--a 1 is not a generic point"):
        symplectic_schur_weyl(1, (2,), (F(1),))
    with pytest.raises(ValueError, match="--a 0.5 is not rational"):
        symplectic_schur_weyl(1, (2,), (0.5,))


# References: the exact routes with one normalised Fraction per entry, product
# and sum, against which the integer routes must agree bitwise.

def _det_fraction(rows):
    """Bareiss elimination on Fraction entries."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _weyl_rows(n, lam, a, numerator=True):
    lam = padded(lam, n)
    exps = [(lam[j] if numerator else 0) + n - j for j in range(n)]
    return [[F(ai) ** e - F(ai) ** (-e) for e in exps] for ai in a]


def _weyl_fraction(n, lam, a):
    return _det_fraction(_weyl_rows(n, lam, a)) / _det_fraction(_weyl_rows(n, lam, a, False))


def _pattern_sum_fraction(N, z, ctx):
    nvars = (N + 1) // 2

    def terms():
        for p in characters.enumerate_patterns(z, N):
            sizes = [0] + [sum(lv) for lv in p.levels]
            coeff = 1
            exps = [0] * nvars
            for k in range(1, N + 1):
                coeff = coeff * characters.slice_binomials(
                    ctx, k, p.levels[k - 2] if k > 1 else (), p.levels[k - 1])
                delta = sizes[k] - sizes[k - 1]
                exps[(k - 1) // 2] += delta if k % 2 else -delta
            yield exps, coeff

    return LaurentPoly(nvars, terms())


def _recursion_fraction(n, lam, ctx):
    if n == 1:
        return q_hermite(ctx, part(lam, 1))
    return LaurentPoly(n, ((e + d, c * w)
                           for nu, ker in characters._kernels(ctx, padded(lam, n)).items()
                           for e, c in _recursion_fraction(n - 1, nu, ctx).terms.items()
                           for d, w in ker.terms.items()))


WEYL_POINTS = {1: [(F(-2),), (F(-3, 5),), (-4,)],
               2: [(F(-2), F(3)), (F(-1, 2), F(-5, 3)), (F(2), F(-2))],
               3: [(F(-2), F(2), F(7, 3)), (F(-3), F(1, 3), F(-5, 2)),
                   (F(-1, 2), F(-7, 4), F(9, 5))]}


def test_weyl_matches_the_fraction_reference():
    for n, points in WEYL_POINTS.items():
        for lam in partitions_max_weight(n, 5):
            for a in points:
                got, want = symplectic_schur_weyl(n, lam, a), _weyl_fraction(n, lam, a)
                assert repr(got) == repr(want)
    # at (-2, 2, 7/3) the leading 2x2 minor of the shape-(1) numerator
    # vanishes, so the elimination's second pivot is 0 and it swaps rows
    m = _weyl_rows(3, (1,), WEYL_POINTS[3][0])
    assert m[0][0] * m[1][1] - m[1][0] * m[0][1] == 0 and m[0][0] != 0


@pytest.mark.parametrize("q", [F(1, 3), F(2, 5), F(0), F(-1, 2), F(1), F(-1), F(3, 2), 0.5])
def test_integer_routes_match_the_fraction_references(q):
    # the same coefficients, of the same type, in the same term order
    ctx = QSeriesCtx(q)
    for n in (1, 2, 3):
        for lam in partitions_max_weight(n, 4):
            for got, want in ((qwhittaker_pattern_sum(2 * n, lam, ctx),
                               _pattern_sum_fraction(2 * n, lam, ctx)),
                              (qwhittaker_recursion(n, lam, ctx), _recursion_fraction(n, lam, ctx))):
                assert got.canonical() == want.canonical()
                assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def test_fraction_sums_over_denominators_that_do_not_divide():
    # 1/2 + 1/3 multiplies the denominators, + 5/12 keeps the larger one
    triples = [((1,), 1, 2), ((0,), 1, 3), ((1,), 1, 3), ((1,), 5, 12), ((0,), -1, 3)]
    assert list(characters._fraction_sums(triples)) == [((1,), F(5, 4)), ((0,), 0)]


def test_recursion_caches_each_shape_under_its_own_key():
    ctx = QSeriesCtx(F(2, 7))
    first = qwhittaker_recursion(3, (2, 1), ctx)
    assert qwhittaker_recursion(3, (2, 1), ctx) is first
    cached = {key: p for key, p in characters._recursion_cache.items() if key[2:] == (F(2, 7), True)}
    assert len(cached) > 3
    for (n, lam, _q, _exact), p in cached.items():
        assert p == _recursion_fraction(n, lam, ctx)


def test_pattern_sum_rank1_is_q_hermite():
    ctx = QSeriesCtx(F(1, 3))
    assert qwhittaker_pattern_sum(2, (0,), ctx) == LaurentPoly.one(1)
    for l in range(6):
        assert qwhittaker_pattern_sum(2, (l,), ctx) == q_hermite(ctx, l)


@pytest.mark.parametrize("q", [F(1, 3), F(2, 5)])
def test_pattern_sum_equals_recursion(q):
    ctx = QSeriesCtx(q)
    for n in (2, 3):
        maxw = 5 if n == 2 else 3
        for lam in partitions_max_weight(n, maxw):
            assert qwhittaker_pattern_sum(2 * n, lam, ctx) == \
                qwhittaker_recursion(n, lam, ctx)


def test_kernel_no_interlacing_is_zero():
    ctx = QSeriesCtx(F(1, 3))
    assert qwhittaker_kernel(ctx, (5,), (1, 1), 2) == LaurentPoly(1)


def test_q_to_zero_degenerates_to_symplectic_schur():
    ctx = QSeriesCtx(F(0))
    for n in (1, 2, 3):
        for lam in partitions_max_weight(n, 4):
            assert qwhittaker_recursion(n, lam, ctx) == symplectic_schur_tableaux(n, lam)


def test_wn_invariance():
    ctx = QSeriesCtx(F(2, 5))
    for n in (2, 3):
        for lam in partitions_max_weight(n, 3):
            p = qwhittaker_recursion(n, lam, ctx)
            # the cyclic shift a_i -> a_{i+1}, and a_i -> a_i^{-1}
            assert LaurentPoly(n, {e[-1:] + e[:-1]: c for e, c in p.terms.items()}) == p
            for i in range(n):
                assert LaurentPoly(n, {e[:i] + (-e[i],) + e[i + 1:]: c
                                       for e, c in p.terms.items()}) == p


def test_triangularity():
    ctx = QSeriesCtx(F(1, 3))
    for n in (2, 3):
        for lam in partitions_max_weight(n, 4):
            p = qwhittaker_recursion(n, lam, ctx)
            from sympgt.combinatorics import padded
            assert p.coefficient(padded(lam, n)) == 1


def test_pieri_rank1():
    ctx = QSeriesCtx(F(1, 2))
    a = F(3, 2)
    for k in range(1, 6):
        g = lambda mu: q_hermite(ctx, mu[0] if mu else 0).evaluate((a,))
        lhs = pieri_apply(1, (k,), ctx, g)
        assert lhs == (a + 1 / a) * q_hermite(ctx, k).evaluate((a,))


def test_pieri_eigenrelation_rank2():
    ctx = QSeriesCtx(F(1, 2))
    a = (F(2), F(3))
    lam = (2, 1)
    g = lambda mu: qwhittaker_recursion(2, mu, ctx).evaluate(a)
    lhs = pieri_apply(2, lam, ctx, g)
    ev = sum(x + 1 / x for x in a)
    assert lhs == ev * g(lam)


def test_pieri_zero_coefficients():
    ctx = QSeriesCtx(F(1, 2))
    coeffs = pieri_coefficients(2, (2, 2), ctx)
    assert (2, +1) not in coeffs   # equal parts kill the second up move
    coeffs0 = pieri_coefficients(2, (1,), ctx)
    assert (2, -1) not in coeffs0  # lambda_n = 0 kills the last down move


def test_schur_typeA():
    assert schur_typeA(1, (3,)) == LaurentPoly(1, {(3,): 1})
    s21 = schur_typeA(3, (2, 1))
    assert sum(s21.terms.values()) == 8
    assert s21.evaluate((F(1), F(1), F(1))) == 8


def test_cauchy_identity_truncation():
    # residual decays like (b*max(a,1/a))^M = (2/3)^M here
    r8 = cauchy_identity_check(1, 8, (F(1, 2),), (F(1, 3),))
    r12 = cauchy_identity_check(1, 12, (F(1, 2),), (F(1, 3),))
    assert r8 < (2 / 3) ** 9 / (1 - 2 / 3) * 4
    assert r12 < 0.3 * r8
    assert cauchy_identity_check(2, 6, (F(1, 2), F(2, 5)), (F(0), F(0))) == 0


def test_recursion_memo_keeps_exact_and_float_apart():
    # 0.375 == F(3, 8) and the two hash alike; each must get its own entry
    floats = qwhittaker_recursion(1, (2,), QSeriesCtx(0.375))
    exact = qwhittaker_recursion(1, (2,), QSeriesCtx(F(3, 8)))
    assert all(isinstance(c, float) for c in floats.terms.values())
    assert all(isinstance(c, F) for c in exact.terms.values())
    assert exact == q_hermite(QSeriesCtx(F(3, 8)), 2)
    exact2 = qwhittaker_recursion(2, (2, 1), QSeriesCtx(F(3, 8)))
    floats2 = qwhittaker_recursion(2, (2, 1), QSeriesCtx(0.375))
    assert all(isinstance(c, F) for c in exact2.terms.values())
    assert all(isinstance(c, float) for c in floats2.terms.values())


def test_builders_make_one_polynomial_not_one_per_term(monkeypatch):
    # each builder passes its stream of terms to one constructor call, so the
    # number of polynomials made does not grow with the tableaux or patterns
    made = []
    init = LaurentPoly.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
    tableaux = symplectic_schur_tableaux(3, (3, 2, 1))
    assert len(made) == 1 and sum(tableaux.terms.values()) > 100
    made.clear()
    patterns = qwhittaker_pattern_sum(6, (3, 2, 1), QSeriesCtx(F(1, 3)))
    assert len(made) == 1 and len(patterns.terms) > 10


def test_pattern_sum_builds_each_slice_weight_once(monkeypatch):
    ctx = QSeriesCtx(F(2, 5))
    want = qwhittaker_pattern_sum(6, (3, 1, 1), ctx)
    calls = Counter()
    inner = characters.slice_binomials

    def counting(ctx, k, lower, upper):
        calls[k, lower, upper] += 1
        return inner(ctx, k, lower, upper)

    monkeypatch.setattr(characters, "slice_binomials", counting)
    assert qwhittaker_pattern_sum(6, (3, 1, 1), ctx) == want
    assert set(calls.values()) == {1}
    assert sum(1 for _ in characters.enumerate_patterns((3, 1, 1), 6)) * 6 > len(calls)


# SHA-256 of the canonical forms below.  They hold every output bit of the
# float recursion and kernel, whose rounding follows the order in which the
# slice q-binomials are multiplied, and of symplectic_schur_patterns, the
# pattern character at q = 0
PINS = {
    "recursion 0.5": "cc1532ce325afd5527330a1f8169bf84223d4f8c14275f779594b9bcae15a33c",
    "kernel 1/3": "4c0acd005e5cbeccf03f69be2cb229413f0964c72173b8ada041d4e0708cdf8f",
    "kernel 0.5": "392cfdc988722a2344813edece4672ff75d0a60e56f5b1325189c5af3207644c",
    "schur patterns": "8027ddf5e599950a3b1999b57dc531a15e82504eddacddb836b34c93ade6b19f",
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_recursion_is_pinned():
    ctx = QSeriesCtx(0.5)
    assert _digest(f"{n} {z} {qwhittaker_recursion(n, z, ctx).canonical()}"
                   for n in (2, 3) for z in partitions_max_weight(n, 5)) == PINS["recursion 0.5"]


@pytest.mark.parametrize("q", [F(1, 3), 0.5])
def test_kernel_is_pinned_on_the_pairs_the_recursion_visits(q):
    ctx = QSeriesCtx(q)
    lines = []
    for n in (2, 3):
        for lam in partitions_max_weight(n, 5):
            lam_p = padded(lam, n)
            for nu in dict.fromkeys(canon(nu) for mu in interlacings(lam_p, n)
                                    for nu in interlacings(mu, n - 1)):
                lines.append(f"{n} {nu} {lam} {qwhittaker_kernel(ctx, nu, lam_p, n).canonical()}")
    assert _digest(lines) == PINS[f"kernel {q}"]


@pytest.mark.parametrize("q", [F(1, 3), 0.5, F(0)])
def test_one_walk_kernels_are_the_single_kernels_term_for_term(q):
    # same nu, same terms in the same order, so the recursion sums the same
    # pairs as when it built each kernel by its own walk
    ctx = QSeriesCtx(q)
    for n in (2, 3):
        for lam in partitions_max_weight(n, 5):
            lam_p = padded(lam, n)
            nus = dict.fromkeys(canon(nu) for mu in interlacings(lam_p, n)
                                for nu in interlacings(mu, n - 1))
            single = {nu: qwhittaker_kernel(ctx, nu, lam_p, n) for nu in nus}
            kernels = characters._kernels(ctx, lam_p)
            assert list(kernels) == [nu for nu, ker in single.items() if ker]
            for nu, ker in kernels.items():
                assert list(ker.terms.items()) == list(single[nu].terms.items())


def test_schur_patterns_are_pinned():
    assert _digest(f"{n} {lam} {symplectic_schur_patterns(n, lam).canonical()}"
                   for n in (1, 2, 3) for lam in partitions_max_weight(n, 4)) \
        == PINS["schur patterns"]
