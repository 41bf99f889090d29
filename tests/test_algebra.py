import math
import random
from fractions import Fraction as F

import pytest

from sympgt import algebra
from sympgt.algebra import (
    INF,
    LaurentPoly,
    QSeriesCtx,
    bracket_poly,
    q_binomial,
    q_hermite,
    q_pochhammer,
)

QS = [F(1, 3), F(1, 2), F(2, 5)]


def test_q_pochhammer_small():
    ctx = QSeriesCtx(F(1, 2))
    assert q_pochhammer(ctx, F(1, 3), 0) == 1
    assert q_pochhammer(ctx, F(1, 3), 1) == F(2, 3)
    assert q_pochhammer(ctx, F(1, 3), 2) == F(2, 3) * (1 - F(1, 6))


def test_q_pochhammer_infinite_truncation_stability():
    a = q_pochhammer(QSeriesCtx(0.4), 0.4, INF)
    b = q_pochhammer(QSeriesCtx(0.4), 0.4, 200)
    assert abs(a - b) < 1e-12


def test_q_pochhammer_infinite_exact_rejected():
    with pytest.raises(ValueError):
        q_pochhammer(QSeriesCtx(F(1, 2)), F(1, 3), INF)


@pytest.mark.parametrize("q", QS)
def test_q_binomial_symmetry_and_range(q):
    ctx = QSeriesCtx(q)
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(ctx, n, k) == q_binomial(ctx, n, n - k)
    with pytest.raises(ValueError):
        q_binomial(ctx, 3, -1)
    with pytest.raises(ValueError):
        q_binomial(ctx, 3, 4)


def test_q_binomial_memo_keeps_exact_and_float_apart():
    # 0.5 == Fraction(1, 2) and both hash alike, so only the exactness in
    # the memo key keeps the float value from being served in exact mode
    approx = q_binomial(QSeriesCtx(0.5), 7, 3)
    exact = q_binomial(QSeriesCtx(F(1, 2)), 7, 3)
    assert isinstance(approx, float) and isinstance(exact, F)
    assert exact == F(11811, 4096) and approx == pytest.approx(11811 / 4096, rel=1e-15)
    assert isinstance(q_binomial(QSeriesCtx(0.5), 7, 3), float)
    for _ in range(2):  # a bad call raises every time, memo or not
        with pytest.raises(ValueError):
            q_binomial(QSeriesCtx(0.5), 7, 8)


@pytest.mark.parametrize("q", [F(0), F(-1, 2), F(1, 2), F(1, 3), F(2, 5), F(3, 7)])
def test_exact_q_binomial_is_the_product_form(q):
    # the product of Fractions, as the exact branch computed it before it
    # moved to integer numerators and a power of q's denominator
    algebra._q_binomial_cache.clear()
    ctx = QSeriesCtx(q)
    for n in range(41):
        for k in range(n + 1):
            num = den = F(1)
            for j in range(1, k + 1):
                num *= 1 - q ** (n - k + j)
                den *= 1 - q ** j
            got = q_binomial(ctx, n, k)
            assert isinstance(got, F) and got == num / den


@pytest.mark.parametrize("q", [F(1), F(-1)])
def test_exact_q_binomial_at_q_plus_minus_one_is_the_q_pascal_rule(q):
    algebra._q_binomial_cache.clear()
    ctx = QSeriesCtx(q)
    pascal = {}
    for n in range(13):
        for k in range(n + 1):
            pascal[n, k] = F(1) if k in (0, n) else (
                pascal[n - 1, k - 1] + q ** k * pascal[n - 1, k])
            got = q_binomial(ctx, n, k)
            assert isinstance(got, F) and got == pascal[n, k]
            if q == 1:
                assert got == math.comb(n, k)
    if q == -1:
        assert [q_binomial(ctx, n, k) for n, k in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3))] \
            == [0, 1, 2, 2, 0]


@pytest.mark.parametrize("q", QS)
def test_q_binomial_identities(q):
    ctx = QSeriesCtx(q)
    B = lambda n, k: q_binomial(ctx, n, k)
    q_factorial = lambda n: q_pochhammer(ctx, q, n) / (1 - q) ** n
    for n in range(1, 11):
        for k in range(n + 1):
            # factorial form
            assert B(n, k) == q_factorial(n) / (q_factorial(k) * q_factorial(n - k))
            # Pascal recurrences, both arms
            if 1 <= k <= n - 1:
                assert B(n, k) == B(n - 1, k - 1) + q ** k * B(n - 1, k)
                assert B(n, k) == q ** (n - k) * B(n - 1, k - 1) + B(n - 1, k)
            # absorption
            if k >= 1:
                assert (1 - q ** k) * B(n, k) == (1 - q ** n) * B(n - 1, k - 1)


def test_laurent_ring_axioms():
    x = LaurentPoly(2, {(1, 0): 1})
    y = LaurentPoly(2, {(0, 1): 1})
    p = 3 * x + y ** 2 - LaurentPoly.constant(2, F(1, 2))
    r = x * y - y
    s = x ** 3 + 2 * r
    assert (p + r) + s == p + (r + s)
    assert p * (r + s) == p * r + p * s
    assert p * r == r * p
    assert p - p == LaurentPoly(2)
    assert p * LaurentPoly.one(2) == p


def test_laurent_inverse_and_eval():
    p = LaurentPoly(1, {(1,): 1}) ** 2 + LaurentPoly(1, {(-1,): 1}) ** 2
    assert p.evaluate((F(2),)) == F(17, 4)


def test_laurent_constructor_sums_pairs():
    pairs = [((1, 0), F(1, 2)), ((0, -1), 3), ((1, 0), F(1, 2)),
             ((2, 2), F(1, 3)), ((2, 2), F(-1, 3))]
    p = LaurentPoly(2, pairs)
    assert p.terms == {(1, 0): 1, (0, -1): 3}
    assert p == LaurentPoly(2, {(1, 0): 1, (0, -1): 3})
    assert LaurentPoly(2, iter(pairs)) == p
    assert LaurentPoly(2, [([1.0, 0.0], 2)]).terms == {(1, 0): 2}
    assert LaurentPoly(2, [((1, 1), 0), ((0, 0), 0.0)]).terms == {}
    with pytest.raises(ValueError, match="length mismatch"):
        LaurentPoly(2, [((1, 0), 1), ((1,), 1)])
    with pytest.raises(ValueError, match="length mismatch"):
        LaurentPoly(2, {(1, 0, 0): 1})


def _naive_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _naive_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


@pytest.mark.parametrize("seed", range(5))
def test_laurent_ring_matches_naive_dicts(seed):
    rng = random.Random(seed)

    def rand_terms():
        return {tuple(rng.randint(-2, 2) for _ in range(3)): F(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 12))}

    for _ in range(10):
        f, g = rand_terms(), rand_terms()
        pf, pg = LaurentPoly(3, f), LaurentPoly(3, g)
        nf, ng = pf.terms, pg.terms
        assert nf == {e: c for e, c in f.items() if c != 0}
        assert (pf + pg).terms == _naive_add(nf, ng)
        assert (pf - pg).terms == _naive_add(nf, {e: -c for e, c in ng.items()})
        assert (pf * pg).terms == _naive_mul(nf, ng)


def test_laurent_canonical_text():
    p = LaurentPoly(2, {(2, -1): F(3, 7), (0, 0): -2, (-1, 4): F(1, 2)})
    assert p.canonical() == "3/7 * a1^2 a2^-1 + -2 + 1/2 * a1^-1 a2^4"
    assert LaurentPoly(2).canonical() == "0"


@pytest.mark.parametrize("q", QS)
def test_q_hermite_palindromic(q):
    ctx = QSeriesCtx(q)
    for l in range(7):
        h = q_hermite(ctx, l)
        assert LaurentPoly(1, {(-e,): c for (e,), c in h.terms.items()}) == h
        # top coefficient is monic
        assert h.coefficient((l,)) == 1


def test_q_hermite_q0_is_type_c_character_rank1():
    # at q=0 all q-binomials are 1, so H_l(a|0) = sum_{k=0}^{l} a^{2k-l}
    ctx = QSeriesCtx(F(0))
    for l in range(6):
        h = q_hermite(ctx, l)
        assert all(h.coefficient((2 * k - l,)) == 1 for k in range(l + 1))


def test_expanding_bracket():
    ctx = QSeriesCtx(F(1, 2))
    t0, x = F(1, 3), F(2)
    bracket = lambda r: bracket_poly(ctx, t0, r).evaluate((x,))
    assert bracket(0) == 1
    assert bracket(1) == x + 1 / x - t0 - 1 / t0
    v2 = (x + 1 / x - t0 - 1 / t0) * (x + 1 / x - t0 * F(1, 2) - 1 / (t0 * F(1, 2)))
    assert bracket(2) == v2


def _evaluate_term_by_term(p, point):
    total = 0
    for exps, c in p.terms.items():
        val = c
        for a, e in zip(point, exps):
            if e:
                val *= a ** e
        total = total + val
    return total


@pytest.mark.parametrize("point", [
    (F(6, 5), F(3, 7), F(5, 2)),
    (0.8, 1.3, 1.1),
    (0.8 + 0.1j, 1.3 - 0.2j, 0.5 + 0.5j),
])
def test_evaluate_equals_the_term_by_term_product(point):
    p = LaurentPoly(3, [((3, -2, 0), F(1, 3)), ((0, -2, 1), 2), ((3, 0, -1), F(-3, 2)),
                        ((-1, 1, 0), F(2, 7)), ((0, 0, 0), 5), ((3, -2, 1), F(7, 11)),
                        ((-1, -2, -1), F(1, 9)), ((0, 1, -1), F(4, 3))])
    r = LaurentPoly(3, [((e, -e, 2 - e), F(1, 1 + e * e)) for e in range(-4, 5)])
    for poly in (p, r, p * r, p * p + r):
        got, want = poly.evaluate(point), _evaluate_term_by_term(poly, point)
        assert got == want and repr(got) == repr(want)


def test_exact_points_give_exact_values():
    # an int entry under a negative exponent gives a Fraction, not a float
    assert repr(LaurentPoly(1, {(-1,): 1}).evaluate((2,))) == "Fraction(1, 2)"
    assert repr(LaurentPoly(2, {(1, -1): 1}).evaluate((1, 3))) == "Fraction(1, 3)"
    assert repr(LaurentPoly(2, {(2, 1): 3, (0, 1): -1}).evaluate((2, 5))) == "55"
    assert repr(LaurentPoly(2, {(2, 0): 3}).evaluate((2, F(1, 2)))) == "12"


@pytest.mark.parametrize("seed", range(5))
def test_exact_evaluate_equals_the_term_by_term_product(seed):
    rng = random.Random(seed)

    def rational():
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    for _ in range(20):
        terms = [(tuple(rng.randint(-3, 3) for _ in range(3)),
                  rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 6)))))
                 for _ in range(rng.randint(1, 10))]
        p = LaurentPoly(3, terms)
        point = (rational(), rational(), rational())
        # a1 - a2 vanishes at the point: every coefficient of the product
        # survives, but the terms cancel in the sum
        zero = LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})
        for poly, pt in ((p, point), (p * p - p, point), (p * zero, point[:1] * 2 + point[2:])):
            got, want = poly.evaluate(pt), _evaluate_term_by_term(poly, pt)
            assert got == want and repr(got) == repr(want)
