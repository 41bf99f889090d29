from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import expm

from sympgt.algebra import QSeriesCtx
from sympgt.characters import qwhittaker_pattern_sum
from sympgt.combinatorics import interlacings, level_len, partitions_max_weight
from sympgt.dynamics import (
    GeneratorMatrix,
    PatternState,
    SimConfig,
    L_rate,
    R_rate,
    _char,
    _right_impulse,
    bar_a,
    build_generator,
    helper_row_randomized,
    l_prob,
    r_prob,
    randomized_rates,
    sample_initial,
    simulate,
    step_berele,
    step_randomized,
    verify_intertwining_cascade,
    verify_intertwining_randomized,
    zero_state,
)


class StubRng:
    """Deterministic uniform stream for exercising cascade branches."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def exponential(self, scale):
        return scale


def test_rank_one_randomized_rates():
    q = F(1, 2)
    ctx = QSeriesCtx(q)
    a = (F(3, 2),)
    st = PatternState([[4]])
    rates = randomized_rates(st, ctx, a)
    assert (F(3, 2), 1, 1, +1) in rates
    assert (F(2, 3) * (1 - q ** 4), 1, 1, -1) in rates
    assert len(rates) == 2


def test_wall_probabilities():
    q = F(1, 2)
    ctx = QSeriesCtx(q)
    # rank-one cascade: wall success probability is q^(y-x)
    assert r_prob(ctx, (1,), (3,), 1) == q ** 2
    assert l_prob(ctx, (1,), (3,), 1) == 0
    # blocked pulls when levels touch
    assert r_prob(ctx, (3,), (3,), 1) == 1


def test_cascade_branches_rank_one():
    q = 0.5
    ctx = QSeriesCtx(q)
    # wall succeeds: both particles move right
    st = [[1], [3]]
    snap = [list(l) for l in st]
    _right_impulse(ctx, snap, st, 1, 1, StubRng([0.2]), [], 0.0)
    assert st == [[2], [4]]
    # wall suppressed: lower particle pulled left
    st = [[1], [3]]
    snap = [list(l) for l in st]
    _right_impulse(ctx, snap, st, 1, 1, StubRng([0.9]), [], 0.0)
    assert st == [[1], [2]]
    # bottom edge clock always moves right
    st = [[1], [3]]
    snap = [list(l) for l in st]
    _right_impulse(ctx, snap, st, 2, 1, StubRng([]), [], 0.0)
    assert st == [[1], [4]]


def test_randomized_matches_helper_rows_two_levels():
    # with two levels the per-particle rates coincide with the helper matrix
    q, a = F(1, 2), (F(2, 1),)
    ctx = QSeriesCtx(q)
    x, y = (1,), (3,)
    st = PatternState([[1], [3]])
    rates = {}
    for r, k, j, s in randomized_rates(st, ctx, a):
        if k == 2:
            rates[(x, (y[0] + s,))] = rates.get((x, (y[0] + s,)), 0) + r
    row = helper_row_randomized(2, x, y, ctx, a)
    assert rates[(x, (4,))] == pytest.approx(float(row[(x, (4,))]))
    assert rates[(x, (2,))] == pytest.approx(float(row[(x, (2,))]))


@pytest.mark.parametrize("q", [F(0), F(1, 3)])
def test_char_oracle_matches_pattern_sum_exactly(q):
    # odd N is the slice sum over the even recursion: only this test pins it
    ctx = QSeriesCtx(q)
    a = (F(6, 5), F(3, 7), F(5, 2))
    for N in range(1, 6):
        for z in partitions_max_weight(level_len(N), 4):
            got = _char(N, z, ctx, a)
            assert isinstance(got, F)
            assert got == qwhittaker_pattern_sum(N, z, ctx).evaluate(a[:(N + 1) // 2])


def test_char_oracle_matches_pattern_sum_float():
    ctx = QSeriesCtx(0.5)
    a = (1.2, 0.9, 1.7)
    for N in range(1, 6):
        for z in partitions_max_weight(level_len(N), 4):
            expect = qwhittaker_pattern_sum(N, z, ctx).evaluate(a[:(N + 1) // 2])
            assert _char(N, z, ctx, a) == pytest.approx(expect, rel=1e-12, abs=0)


def test_char_memo_keeps_exact_and_float_apart():
    exact_ctx = QSeriesCtx(F(1, 2))
    assert isinstance(_char(3, (2, 1), QSeriesCtx(0.5), (1.0, 1.0)), float)
    assert isinstance(_char(3, (2, 1), exact_ctx, (F(1), F(1))), F)
    assert isinstance(_char(2, (3,), exact_ctx, (1.0,)), float)
    assert isinstance(_char(2, (3,), exact_ctx, (F(1),)), F)


def test_generator_rows_conserve_even():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2),)
    gen = build_generator(2, 10, ctx, a)
    for i, z in enumerate(gen.states):
        total = sum(gen.rows[i].values()) + gen.diagonal[i]
        if gen.boundary[i]:
            assert total != 0
        else:
            assert total == 0


def test_generator_rows_conserve_odd_wall():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2), F(4, 5))
    gen = build_generator(3, 6, ctx, a)
    interior = 0
    for i, z in enumerate(gen.states):
        if gen.boundary[i]:
            continue
        total = sum(gen.rows[i].values()) + gen.diagonal[i]
        assert total == 0
        interior += 1
    assert interior > 10


def _two_level_probes(N, shapes):
    from sympgt.combinatorics import level_len, padded

    probes = []
    for y in shapes:
        y = padded(y, level_len(N))
        for x in interlacings(y, level_len(N - 1)):
            probes.append((x, y))
    return probes


def test_intertwining_randomized_even():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2), F(4, 5))
    probes = _two_level_probes(4, [(2, 1), (1, 1), (2, 0), (3, 1), (2, 2), (3, 0)])
    assert len(probes) >= 20
    results = verify_intertwining_randomized(4, probes, ctx, a)
    assert all(ok for *_, ok in results)


def test_intertwining_randomized_odd():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2), F(4, 5), F(5, 4))
    probes = _two_level_probes(5, [(2, 1, 0), (1, 1, 1), (2, 2, 1),
                                   (3, 1, 0), (2, 1, 1), (3, 2, 1), (2, 0, 0)])
    assert len(probes) >= 20
    results = verify_intertwining_randomized(5, probes, ctx, a)
    assert all(ok for *_, ok in results)


def test_intertwining_cascade_rank_two():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2), F(4, 5))
    probes = []
    for z in [(2, 1), (1, 1), (2, 0), (3, 1)]:
        for y in interlacings(z, 2):
            for x in interlacings(y, 1):
                probes.append((x, y, z))
    assert len(probes) >= 20
    results = verify_intertwining_cascade(2, probes, ctx, a)
    assert all(ok for *_, ok in results)


def test_sample_initial_distribution():
    # two levels over bottom shape (3): P(x) ~ a^(2x-3) * binom(3, 3-x)
    q, a = 0.5, (1.3,)
    ctx = QSeriesCtx(q)
    from sympgt.algebra import q_binomial

    weights = np.array([a[0] ** (2 * x - 3) * float(q_binomial(QSeriesCtx(F(1, 2)), 3, 3 - x))
                        for x in range(4)])
    weights /= weights.sum()
    rng = np.random.Generator(np.random.Philox(12345))
    counts = np.zeros(4)
    n_draws = 4000
    for _ in range(n_draws):
        st = sample_initial((3,), 2, ctx, a, rng)
        counts[st.levels[0][0]] += 1
    emp = counts / n_draws
    assert np.abs(emp - weights).max() < 0.03


def test_simulate_berele_matches_generator():
    q, a, t = 0.5, (1.0,), 1.0
    cfg = SimConfig(model="berele", N=2, a=a, q=q, t=t, replicas=4000, seed=7)
    hist = simulate(cfg)
    gen = build_generator(2, 30, QSeriesCtx(F(1, 2)), (F(1, 1),))
    Q = gen.dense()
    p = expm(t * Q)[gen.index[()], :]
    emp = np.zeros(len(gen.states))
    for shape, c in hist.items():
        emp[gen.index[shape]] += c
    emp /= emp.sum()
    tv = 0.5 * np.abs(emp - p).sum()
    assert tv < 0.05


def test_simulate_randomized_matches_generator():
    q, t = 0.5, 0.8
    a = (1.2, 0.9)
    cfg = SimConfig(model="randomized", N=3, a=a, q=q, t=t, replicas=3000, seed=11)
    hist = simulate(cfg)
    gen = build_generator(3, 12, QSeriesCtx(F(1, 2)), (F(6, 5), F(9, 10)))
    Q = gen.dense()
    p = expm(t * Q)[gen.index[()], :]
    emp = np.zeros(len(gen.states))
    for shape, c in hist.items():
        emp[gen.index[shape]] += c
    emp /= emp.sum()
    tv = 0.5 * np.abs(emp - p).sum()
    assert tv < 0.06


def test_simulate_seeded_histograms_are_pinned():
    # histograms recorded with characters from the pattern sum: the oracle
    # behind the initial law must leave the sampled stream unchanged
    cfg = SimConfig("randomized", 3, (1.2, 0.9), 0.5, 0.8, 300, 5, start=(2, 1))
    assert simulate(cfg) == {
        (1,): 4, (1, 1): 7, (2,): 19, (2, 1): 35, (2, 2): 6, (3,): 35,
        (3, 1): 56, (3, 2): 12, (4,): 23, (4, 1): 38, (4, 2): 13, (4, 3): 1,
        (5,): 10, (5, 1): 21, (5, 2): 6, (5, 3): 2, (6,): 1, (6, 1): 4,
        (6, 2): 1, (6, 3): 2, (7,): 1, (7, 1): 2, (7, 2): 1}
    cfg = SimConfig("berele", 4, (1.1, 0.8), 0.4, 0.5, 300, 5, start=(2, 1))
    assert simulate(cfg) == {
        (1,): 1, (1, 1): 4, (2,): 4, (2, 1): 46, (2, 2): 20, (3,): 5,
        (3, 1): 63, (3, 2): 31, (3, 3): 2, (4,): 13, (4, 1): 48, (4, 2): 16,
        (4, 3): 2, (5,): 3, (5, 1): 19, (5, 2): 11, (5, 3): 5, (6, 1): 6,
        (7, 1): 1}


def test_simulate_validates_patterns():
    cfg = SimConfig(model="randomized", N=4, a=(1.1, 0.8), q=0.4, t=0.5,
                    replicas=50, seed=3)
    hist = simulate(cfg)
    assert sum(hist.values()) == 50
    cfg2 = SimConfig(model="berele", N=4, a=(1.1, 0.8), q=0.4, t=0.5,
                     replicas=50, seed=3, start=(1,))
    hist2 = simulate(cfg2)
    assert sum(hist2.values()) == 50


def test_berele_requires_even_levels():
    st = zero_state(3)
    rng = np.random.Generator(np.random.Philox(1))
    with pytest.raises(ValueError):
        step_berele(st, QSeriesCtx(0.5), (1.0, 1.0), rng)


def test_step_preserves_interlacing():
    rng = np.random.Generator(np.random.Philox(42))
    ctx = QSeriesCtx(0.5)
    a = (1.2, 0.8)
    st = zero_state(4)
    for _ in range(300):
        step_randomized(st, ctx, a, rng)
        st.pattern().validate()
    st = zero_state(4)
    for _ in range(300):
        step_berele(st, ctx, a, rng)
        st.pattern().validate()


def test_bar_a_interleaving():
    a = (2.0, 5.0)
    assert bar_a(a, 1) == 2.0 and bar_a(a, 2) == 0.5
    assert bar_a(a, 3) == 5.0 and bar_a(a, 4) == 0.2
