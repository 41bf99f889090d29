import random
from fractions import Fraction as F

import pytest

from sympgt.algebra import LaurentPoly, QSeriesCtx, q_binomial, q_hermite
from sympgt.branching import (
    BranchingPair,
    branching_polynomial,
    c_factor,
    conjecture_checks,
    contribution_A,
    separated_unit_gaps,
    single_block_index,
)
from sympgt.characters import qwhittaker_kernel
from sympgt.combinatorics import canon, interlacings, padded, part, partitions_max_weight


def test_pair_derivation():
    p = BranchingPair(3, (4, 3, 1), (4,))
    assert p.m == 4 and p.d == 2
    assert len(p.Jc) == 2
    with pytest.raises(ValueError):
        BranchingPair(3, (1, 1, 1), ())  # a column grows by three
    with pytest.raises(ValueError, match="two horizontal strips"):
        BranchingPair(2, (2, 1), (3,))  # the third column of nu sticks out of lam


def test_c_factor_closed_form():
    # both closed forms from the extreme-coefficient computation
    q = F(1, 3)
    ctx = QSeriesCtx(q)
    for n, lam, nu in [(3, (4, 3, 1), (4,)), (3, (3, 2), (2, 1)),
                      (2, (3, 1), (2,)), (4, (4, 2, 2, 1), (3, 2, 1))]:
        pair = BranchingPair(n, lam, nu)
        lam_p = padded(lam, n)
        c = c_factor(pair, ctx)
        prod = 1
        for i in range(1, n + 1):
            mn_prev = min(part(nu, i - 1), lam_p[i - 1]) if i > 1 else lam_p[0]
            mn_cur = min(part(nu, i), part(lam_p, i + 1))
            prod *= q_binomial(ctx, lam_p[i - 1] - part(lam_p, i + 1), lam_p[i - 1] - mn_prev)
            prod *= q_binomial(ctx, mn_prev - mn_cur, mn_prev - part(nu, i))
        assert c == prod


def test_contribution_trivial_and_zero():
    ctx = QSeriesCtx(F(2, 5))
    pair = BranchingPair(3, (4, 3, 1), (4,))
    assert contribution_A(pair, (), (), F(1, 2), ctx) == 1
    # out-of-order assignment on the consecutive block vanishes
    j1, j2 = pair.Jc
    assert contribution_A(pair, (j2,), (j1,), F(1, 2), ctx) == 0
    with pytest.raises(ValueError):
        contribution_A(pair, (), (), 0, ctx)


def test_leading_term_randomized():
    ctx = QSeriesCtx(F(1, 3))
    rng = random.Random(7)
    checked = 0
    shapes = [lam for lam in partitions_max_weight(5, 8)]
    while checked < 100:
        lam = canon(shapes[rng.randrange(len(shapes))])
        n = max(len(lam), 1) + rng.randrange(2)
        if len(lam) > n or n < 2:
            continue
        lam_p = padded(lam, n)
        mus = list(interlacings(lam_p, n))
        mu = mus[rng.randrange(len(mus))]
        nus = list(interlacings(mu, n - 1))
        nu = canon(nus[rng.randrange(len(nus))])
        try:
            pair = BranchingPair(n, lam, nu)
        except ValueError:
            continue
        rep = conjecture_checks(pair, ctx)
        assert rep["leading_term"], (n, lam, nu)
        checked += 1


def test_single_block_case_converges():
    # unique open window of width 2; errors decay like t0
    ctx = QSeriesCtx(F(2, 5))
    pair = BranchingPair(3, (4, 3, 1), (4,))
    assert single_block_index(pair) is not None
    rep = conjecture_checks(pair, ctx, t0_ladder=[F(1, 10), F(1, 100), F(1, 1000)])
    ratios = rep["single_block"]["ratios"]
    assert all(0.05 <= r <= 0.2 for r in ratios)


def test_single_block_limit_is_scaled_q_hermite():
    # in this configuration the kernel itself equals c * H_d(x)
    ctx = QSeriesCtx(F(2, 5))
    pair = BranchingPair(3, (4, 3, 1), (4,))
    kernel = qwhittaker_kernel(ctx, pair.nu, pair.lam, pair.n)
    c = c_factor(pair, ctx)
    assert kernel == q_hermite(ctx, pair.d) * c


def test_unit_gaps_case_t0_independent():
    ctx = QSeriesCtx(F(2, 5))
    pair = BranchingPair(5, (4, 4, 3, 1, 1), (3, 3, 2, 1))
    assert separated_unit_gaps(pair) is not None
    kernel = qwhittaker_kernel(ctx, pair.nu, pair.lam, pair.n)
    for t0 in (F(3, 10), F(7, 10), F(13, 10), F(1, 2)):
        assert branching_polynomial(pair, t0, ctx) == kernel


def test_branching_polynomial_palindromic():
    ctx = QSeriesCtx(F(1, 3))
    pair = BranchingPair(3, (4, 3, 1), (4,))
    p = branching_polynomial(pair, F(1, 2), ctx)
    assert LaurentPoly(1, {(-e,): c for (e,), c in p.terms.items()}) == p


def test_d_zero_pair():
    ctx = QSeriesCtx(F(1, 3))
    pair = BranchingPair(2, (2, 2), ())
    assert pair.d == 0
    p = branching_polynomial(pair, F(1, 2), ctx)
    assert p == LaurentPoly.constant(1, c_factor(pair, ctx))
