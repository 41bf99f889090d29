import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from sympgt import characters, dynamics
from sympgt.acceptance import _two_level_probes
from sympgt.algebra import QSeriesCtx
from sympgt.characters import (_char, _link, bar_a, qwhittaker_pattern_sum,
                               qwhittaker_recursion)
from sympgt.combinatorics import _chains, interlacings, level_len, padded, partitions_max_weight
from sympgt.dynamics import (
    GeneratorMatrix,
    SimConfig,
    L_rate,
    R_rate,
    ShapeLaw,
    _cascade,
    _event_rates,
    _Layout,
    _round,
    build_generator,
    helper_randomized,
    l_prob,
    r_prob,
    sample_initial,
    simulate,
    verify_intertwining_cascade,
    verify_intertwining_randomized,
)


class StubRng:
    """Deterministic uniform stream for exercising cascade branches."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        assert len(self.values) >= n
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out, dtype=float)


def _batch(patterns):
    """Batch laid out by _Layout(N) holding the given N-level patterns."""
    lay = _Layout(len(patterns[0]))
    S = lay.empty(len(patterns))
    for row, levels in zip(S, patterns):
        for k, lv in enumerate(levels, start=1):
            row[lay.level(k)] = lv
    return lay, S


def _levels(lay, row):
    return [list(map(int, lv)) for lv in lay.pattern(row).levels]


def _rates(S, lay, ctx, a):
    """The randomized model's rates of the rows of S, in a new array."""
    return _event_rates(S, lay, ctx, "randomized", a, np.empty((len(S), 2 * lay.P)))


def _power_rates(S, lay, q, a):
    """The randomized rates as whole-batch gathers and q ** e, the form the
    table of q^e replaced."""
    ak = np.array([float(bar_a(a, k)) for k in range(1, lay.N + 1)])
    col, k, j = lay.col, lay.k, lay.j
    C, Cm, Cp = S[:, col[k, j]], S[:, col[k, j - 1]], S[:, col[k, j + 1]]
    Um, U = S[:, col[k - 1, j - 1]], S[:, col[k - 1, j]]
    right = (1 - q ** (Um - C)) * (1 - q ** (C - Cp + 1)) / (1 - q ** (C - U + 1))
    left = (1 - q ** (C - U)) * (1 - q ** (Cm - C + 1)) / (1 - q ** (Um - C + 1))
    return np.concatenate([ak[k - 1] * right, left / ak[k - 1]], axis=1)


def test_rank_one_randomized_rates():
    lay, S = _batch([[(4,)]])
    rates = _rates(S, lay, QSeriesCtx(0.5), (1.5,))
    # right: a; left: (1 - q^4) / a
    assert rates.tolist() == [[1.5, (1 - 0.5 ** 4) / 1.5]]


def test_batched_rates_equal_exact_rates():
    # every pattern with N <= 5 and bottom weight <= 4: the batched float
    # rates follow the scalar float R_rate/L_rate arithmetic (numpy's power
    # may differ from the C library's pow in the last bit, hence a few ulps)
    # and agree with the exact rates to rounding
    a_exact = (F(6, 5), F(3, 7), F(5, 2))
    a = tuple(map(float, a_exact))
    exact, ctx = QSeriesCtx(F(1, 3)), QSeriesCtx(1 / 3)
    for N in range(1, 6):
        patterns = [levels for z in partitions_max_weight(level_len(N), 4)
                    for levels in _chains(padded(z, level_len(N)),
                                          [level_len(k) for k in range(N - 1, 0, -1)])]
        lay, S = _batch(patterns)
        got = _rates(S, lay, ctx, a)
        for row, levels in zip(got, patterns):
            expect_float, expect_exact = [], []
            for side in (R_rate, L_rate):
                for k, cur in enumerate(levels, start=1):
                    upper = levels[k - 2] if k > 1 else ()
                    for j in range(1, len(cur) + 1):
                        f = float(side(ctx, upper, cur, j))
                        e = side(exact, upper, cur, j)
                        if side is R_rate:
                            expect_float.append(float(bar_a(a, k)) * f)
                            expect_exact.append(float(bar_a(a_exact, k) * e))
                        else:
                            expect_float.append(f / float(bar_a(a, k)))
                            expect_exact.append(float(e / bar_a(a_exact, k)))
            assert row.tolist() == pytest.approx(expect_float, rel=1e-14, abs=0)
            assert row.tolist() == pytest.approx(expect_exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("q", [0.5, 1 / 3, 0.0, -0.4])
def test_table_rates_equal_the_power_rates_bitwise(q):
    # every pattern with N <= 5 and bottom weight <= 4, and the same patterns
    # shifted far right, where the table grows past q's underflow
    a = (1.2, 0.9, 1.1)
    for N in range(1, 6):
        patterns = [levels for z in partitions_max_weight(level_len(N), 4)
                    for levels in _chains(padded(z, level_len(N)),
                                          [level_len(k) for k in range(N - 1, 0, -1)])]
        lay, S = _batch(patterns)
        far = S.copy()
        far[:, :lay.P] += 3000
        for batch in (S, far):
            got = _rates(batch, lay, QSeriesCtx(q), a)
            assert np.array_equal(got, _power_rates(batch, lay, q, a))


def test_wall_probabilities():
    q = F(1, 2)
    ctx = QSeriesCtx(q)
    # rank-one cascade: wall success probability is q^(y-x)
    assert r_prob(ctx, (1,), (3,), 1) == q ** 2
    assert l_prob(ctx, (1,), (3,), 1) == 0
    # blocked pulls when levels touch
    assert r_prob(ctx, (3,), (3,), 1) == 1


def test_cascade_branches_rank_one():
    ctx = QSeriesCtx(0.5)
    # rows: wall succeeds (both particles move right), wall suppressed (lower
    # particle pulled left), bottom edge clock (always moves right, no draw)
    lay, S = _batch([[(1,), (3,)]] * 3)
    rng = StubRng([0.2, 0.9])
    _cascade(S, lay, ctx, np.array([1, 1, 2]), rng)
    assert not rng.values
    assert [_levels(lay, row) for row in S] == [[[2], [4]], [[1], [2]], [[1], [4]]]


def test_cascade_branches_rank_two():
    # N = 4 reaches the wall particle of level 3 and pulls through two
    # levels; each uniform sits 1e-9 below (success) or above (failure) the
    # probability the scalar r_prob/l_prob give on the pre-event pattern
    ctx = QSeriesCtx(0.4)
    start = [(2,), (3,), (4, 1), (5, 2)]
    r = lambda k, j: float(r_prob(ctx, start[k - 1], start[k], j))
    l = lambda k, j: float(l_prob(ctx, start[k - 1], start[k], j))
    yes = lambda p: p - 1e-9
    no = lambda p: p + 1e-9
    cases = [
        # edge clock of level 2: (2,1) right; (3,1) pushed; (4,1) pushed
        (2, [yes(r(2, 1)), yes(r(3, 1))], [(2,), (4,), (5, 1), (6, 2)]),
        # ... (4,1) not pushed: impulse on (4,2)
        (2, [yes(r(2, 1)), no(r(3, 1))], [(2,), (4,), (5, 1), (5, 3)]),
        # (3,1) not pushed: wall impulse on (3,2), which moves with (4,2)
        (2, [no(r(2, 1)), yes(r(3, 2))], [(2,), (4,), (4, 2), (5, 3)]),
        # ... the wall suppresses it: (4,2) pulled left
        (2, [no(r(2, 1)), no(r(3, 2))], [(2,), (4,), (4, 1), (5, 1)]),
        # wall of level 1 suppressed: (2,1) left, then (3,2) left, then
        # (4,2) left, since l_prob at the wall of level 3 is 0
        (1, [no(r(1, 1)), yes(l(2, 1)), no(l(3, 2))], [(2,), (2,), (4, 0), (5, 1)]),
        # ... (3,1) left, then (4,2) left
        (1, [no(r(1, 1)), no(l(2, 1)), yes(l(3, 1))], [(2,), (2,), (3, 1), (5, 1)]),
        # ... (3,1) left, then (4,1) left
        (1, [no(r(1, 1)), no(l(2, 1)), no(l(3, 1))], [(2,), (2,), (3, 1), (4, 2)]),
    ]
    assert l(3, 2) == 0
    for level, uniforms, expect in cases:
        lay, S = _batch([start])
        rng = StubRng(uniforms)
        _cascade(S, lay, ctx, np.array([level]), rng)
        assert not rng.values
        assert _levels(lay, S[0]) == [list(lv) for lv in expect]
        lay.pattern(S[0]).validate()


def test_randomized_matches_helper_rows_two_levels():
    # with two levels the per-particle rates coincide with the helper matrix
    q, a = F(1, 2), (F(2, 1),)
    ctx = QSeriesCtx(q)
    x, y = (1,), (3,)
    lay, S = _batch([[x, y]])
    right, left = _rates(S, lay, QSeriesCtx(0.5), (2.0,))[0, [1, 3]]
    row, _ = helper_randomized(2, x, y, ctx, a)
    assert right == pytest.approx(float(row[(x, (4,))]))
    assert left == pytest.approx(float(row[(x, (2,))]))


@pytest.mark.parametrize("q", [F(0), F(1, 3)])
def test_char_oracle_matches_pattern_sum_exactly(q):
    # the slice recursion against the definition, a sum over whole patterns
    ctx = QSeriesCtx(q)
    a = (F(6, 5), F(3, 7), F(5, 2))
    for N in range(1, 7):
        for z in partitions_max_weight(level_len(N), 4):
            got = _char(N, z, ctx, a)
            assert isinstance(got, F)
            assert got == qwhittaker_pattern_sum(N, z, ctx).evaluate(a[:(N + 1) // 2])


def test_char_oracle_matches_pattern_sum_float():
    ctx = QSeriesCtx(0.5)
    a = (1.2, 0.9, 1.7)
    for N in range(1, 7):
        for z in partitions_max_weight(level_len(N), 4):
            expect = qwhittaker_pattern_sum(N, z, ctx).evaluate(a[:(N + 1) // 2])
            assert _char(N, z, ctx, a) == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("q", [F(0), F(1, 3), F(1, 2)])
def test_char_oracle_matches_symbolic_recursion_exactly(q):
    ctx = QSeriesCtx(q)
    a = (F(6, 5), F(3, 7), F(5, 2))
    for n in (1, 2, 3):
        for z in partitions_max_weight(n, 6):
            got = _char(2 * n, z, ctx, a)
            assert isinstance(got, F)
            assert got == qwhittaker_recursion(n, z, ctx).evaluate(a[:n])


def test_char_oracle_float_rank_three_matches_exact():
    # the exact values are pinned to the symbolic recursion above; this pins
    # the rounding of the float recursion on the larger rank-3 shapes
    a = (F(13, 10), F(4, 5), F(11, 10))
    shapes = [z for z in partitions_max_weight(3, 24) if not z or z[0] <= 8]
    assert len(shapes) == 165
    for z in shapes:
        expect = float(_char(6, z, QSeriesCtx(F(1, 2)), a))
        got = _char(6, z, QSeriesCtx(0.5), tuple(map(float, a)))
        assert got == pytest.approx(expect, rel=1e-13, abs=0)


def test_char_memo_keeps_exact_and_float_apart():
    exact_ctx = QSeriesCtx(F(1, 2))
    assert _char(2, (3,), exact_ctx, (2,)) == _char(2, (3,), exact_ctx, (F(2),))
    assert isinstance(_char(2, (3,), exact_ctx, (2,)), F)
    assert isinstance(_char(3, (2, 1), QSeriesCtx(0.5), (1.0, 1.0)), float)
    assert isinstance(_char(3, (2, 1), exact_ctx, (F(1), F(1))), F)
    assert isinstance(_char(2, (3,), exact_ctx, (1.0,)), float)
    assert isinstance(_char(2, (3,), exact_ctx, (F(1),)), F)


def test_dynamics_reads_the_oracle_of_characters():
    assert dynamics._char is characters._char
    assert dynamics._link is characters._link


def test_link_is_a_markov_kernel():
    ctx = QSeriesCtx(F(1, 3))
    a = (F(3, 2), F(4, 5), F(5, 4))
    for N in range(1, 6):
        for z in partitions_max_weight(level_len(N), 4):
            top = padded(z, level_len(N))
            assert sum(_link(N, x, top, ctx, a)
                       for x in interlacings(top, level_len(N - 1))) == 1


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


def test_generator_rank_three_float_rows_conserve():
    gen = build_generator(6, 8, QSeriesCtx(0.5), (1.0, 1.0, 1.0))
    interior = [i for i, b in enumerate(gen.boundary) if not b]
    assert len(gen.states) == 165 and len(interior) == 120
    for i in interior:
        assert abs(sum(gen.rows[i].values()) + gen.diagonal[i]) <= 1e-12


def test_generator_rank_three_exact_rows_conserve():
    gen = build_generator(6, 5, QSeriesCtx(F(1, 2)), (F(6, 5), F(3, 7), F(5, 2)))
    interior = [i for i, b in enumerate(gen.boundary) if not b]
    assert len(gen.states) == 56 and len(interior) == 35
    for i in interior:
        assert sum(gen.rows[i].values()) + gen.diagonal[i] == 0


def _assert_transient_matches_expm(gen, t, starts):
    ref = expm(t * gen.dense())
    for z in starts:
        row = gen.transient(t, z)
        assert list(row.table) == gen.states
        assert np.abs(np.array(list(row.table.values())) - ref[gen.index[z]]).max() <= 1e-13


def test_transient_matches_expm_at_the_ledger_point():
    gen = build_generator(2, 40, QSeriesCtx(F(1, 2)), (F(1),))
    _assert_transient_matches_expm(gen, 2.0, [(), (3,), (40,)])


@pytest.mark.parametrize("ctx, a", [(QSeriesCtx(0.5), (1.3, 0.9)),
                                    (QSeriesCtx(F(1, 2)), (F(13, 10), F(9, 10)))])
def test_transient_matches_expm_rank_two(ctx, a):
    gen = build_generator(4, 10, ctx, a)
    _assert_transient_matches_expm(gen, 0.5, gen.states[::7])


def test_transient_splits_long_horizons():
    gen = build_generator(2, 40, QSeriesCtx(F(1, 2)), (F(1),))
    scaled = GeneratorMatrix(gen.states, gen.index,
                             [{j: 200 * v for j, v in row.items()} for row in gen.rows],
                             [200 * d for d in gen.diagonal], gen.boundary)
    assert -scaled.dense().diagonal().min() * 2.0 > 500  # e^{-Lambda t} would underflow
    _assert_transient_matches_expm(scaled, 2.0, [(), (20,)])
    at_zero = gen.transient(0.0, (3,))
    assert at_zero.table == {z: float(z == (3,)) for z in gen.states} and at_zero.error == 0


def test_transient_reports_the_mass_its_boundary_leaks():
    # the error is 1 - sum p, and it falls strictly as the cap C rises
    errors = []
    for C in (4, 6, 8):
        row = build_generator(4, C, QSeriesCtx(0.5), (1.3, 0.9)).transient(1.0, ())
        assert abs(row.error - (1 - sum(row.table.values()))) <= 1e-15
        errors.append(row.error)
    assert errors[0] > errors[1] > errors[2] > 0
    assert errors[0] == pytest.approx(0.155, abs=1e-3)


def test_shape_law_tv():
    p = ShapeLaw({(): 0.25, (1,): 0.75}, 0.0)
    r = ShapeLaw({(1,): 0.5, (2,): 0.5}, 0.0)
    assert p.tv(p) == 0 and p.tv(r) == r.tv(p) == 0.5
    assert p.tv(ShapeLaw({(3,): 1.0}, 0.0)) == 1
    assert p.mean(lambda z: sum(z) + 1) == 1.75


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


@pytest.mark.parametrize("q", [F(1, 3), F(0), F(2, 5)])
def test_intertwining_cascade_rank_one(q):
    # at rank 1 the edge clock drives the wall: z moves left when y does not
    # push it right; the table bumped z_2, which rank 1 does not have
    probes = [(x, y, z) for z in [(0,), (1,), (2,), (3,), (5,)]
              for y in interlacings(z, 1) for x in interlacings(y, 0)]
    assert len(probes) == 16
    results = verify_intertwining_cascade(1, probes, QSeriesCtx(q), (F(6, 5),))
    assert len(results) == 47
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
    n_draws = 40000
    S = sample_initial((3,), 2, ctx, a, rng, n_draws)
    assert (S[:, 1] == 3).all()
    emp = np.bincount(S[:, 0].astype(int), minlength=4) / n_draws
    assert np.abs(emp - weights).max() < 0.01


def _tv_to_generator(cfg, C, ctx, a):
    """TV distance between a simulated histogram and the time-t row of
    expm(t Q) of the truncated shape-chain generator, by scipy."""
    emp = ShapeLaw({z: c / cfg.replicas for z, c in simulate(cfg).items()}, 0.0)
    gen = build_generator(cfg.N, C, ctx, a)
    p = expm(cfg.t * gen.dense())[gen.index[cfg.start], :]
    return emp.tv(ShapeLaw(dict(zip(gen.states, p)), 0.0))


def test_simulate_berele_matches_generator():
    cfg = SimConfig(model="berele", N=2, a=(1.0,), q=0.5, t=1.0, replicas=50000, seed=7)
    assert _tv_to_generator(cfg, 30, QSeriesCtx(F(1, 2)), (F(1, 1),)) < 0.015


def test_simulate_randomized_matches_generator():
    cfg = SimConfig(model="randomized", N=3, a=(1.2, 0.9), q=0.5, t=0.8,
                    replicas=50000, seed=11)
    assert _tv_to_generator(cfg, 12, QSeriesCtx(F(1, 2)), (F(6, 5), F(9, 10))) < 0.015


@pytest.mark.parametrize("model", ["randomized", "berele"])
def test_simulate_rank_two_matches_generator(model):
    # N <= 3 never reaches the wall particles of level 3: only N = 4 runs
    # check the cascade branches there against the generator
    cfg = SimConfig(model=model, N=4, a=(1.1, 0.8), q=0.4, t=0.5,
                    replicas=50000, seed=13, start=(2, 1))
    assert _tv_to_generator(cfg, 10, QSeriesCtx(0.4), (1.1, 0.8)) < 0.02


def test_simulate_seeded_histograms_are_pinned():
    # histograms recorded with the batched engine: one Philox stream per
    # seed, so any change to the draw order shows here
    cfg = SimConfig("randomized", 3, (1.2, 0.9), 0.5, 0.8, 300, 5, start=(2, 1))
    assert simulate(cfg) == {
        (1,): 2, (1, 1): 6, (2,): 23, (2, 1): 37, (3,): 29, (3, 1): 51,
        (3, 2): 15, (3, 3): 1, (4,): 13, (4, 1): 53, (4, 2): 13, (4, 3): 1,
        (5,): 6, (5, 1): 18, (5, 2): 14, (6,): 2, (6, 1): 8, (6, 2): 2,
        (6, 3): 1, (7, 1): 4, (8, 1): 1}
    cfg = SimConfig("berele", 4, (1.1, 0.8), 0.4, 0.5, 300, 5, start=(2, 1))
    assert simulate(cfg) == {
        (1,): 4, (1, 1): 1, (2,): 8, (2, 1): 52, (2, 2): 12, (3,): 13,
        (3, 1): 88, (3, 2): 24, (3, 3): 4, (4,): 7, (4, 1): 32, (4, 2): 15,
        (4, 3): 4, (5,): 4, (5, 1): 14, (5, 2): 7, (5, 3): 4, (6, 2): 4,
        (6, 3): 1, (7, 1): 1, (8, 1): 1}


SIM_REFERENCE = json.loads((Path(__file__).parent / "data" / "simulate_reference.json").read_text())


@pytest.mark.parametrize("case", SIM_REFERENCE["cases"],
                         ids=lambda c: f"{c['model']}-N{c['N']}-q{c['q']}-{c['replicas']}")
def test_simulate_matches_the_recorded_histograms(case):
    cfg = SimConfig(case["model"], case["N"], tuple(case["a"]), case["q"], case["t"],
                    case["replicas"], case["seed"], tuple(case["start"]))
    assert simulate(cfg) == {tuple(z): c for z, c in case["histogram"]}


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_simulate_does_not_depend_on_the_chunk_size(chunk, monkeypatch):
    for cfg in (SimConfig("randomized", 3, (1.2, 0.9), -0.4, 0.8, 300, 4, start=(2, 1)),
                SimConfig("berele", 4, (1.1, 0.8), 0.4, 0.5, 300, 5, start=(2, 1))):
        expect = simulate(cfg)
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK", chunk)
            assert simulate(cfg) == expect


def test_cascade_at_q_zero_raises_no_float_error():
    # q^e with e < 0 is inf at q = 0; the cascade computes only the q^e it reads
    with np.errstate(all="raise"):
        hist = simulate(SimConfig("berele", 4, (1, 1), 0.0, 1.0, 2000, 1))
    assert sum(hist.values()) == 2000
    # a seeded cascade histogram at q > 0, recorded before that guard
    cfg = SimConfig("berele", 4, (1.3, 0.9), 0.5, 1.0, 300, 3)
    assert simulate(cfg) == {
        (): 3, (1,): 24, (1, 1): 8, (2,): 50, (2, 1): 29, (2, 2): 3, (3,): 39,
        (3, 1): 35, (3, 2): 8, (4,): 26, (4, 1): 23, (4, 2): 12, (4, 3): 4,
        (5,): 8, (5, 1): 9, (5, 2): 5, (5, 3): 1, (6,): 3, (6, 1): 4, (6, 2): 2,
        (6, 3): 2, (7,): 2}


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
    cfg = SimConfig(model="berele", N=3, a=(1.0, 1.0), q=0.5, t=1.0,
                    replicas=10, seed=1)
    with pytest.raises(ValueError):
        simulate(cfg)


def test_step_preserves_interlacing():
    # 300 rounds of one event per replica on a 64-replica batch, in chunks of
    # 16 rows, with a horizon no clock reaches; every replica validated after
    # every round; the sentinels never move
    ctx = QSeriesCtx(0.5)
    a = (1.2, 0.8)
    for model in ("randomized", "berele"):
        rng = np.random.Generator(np.random.Philox(42))
        lay = _Layout(4)
        S, clock = lay.empty(64), np.zeros(64)
        buf = np.empty((16, 4 if model == "berele" else 2 * lay.P))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK", 16)
            for _ in range(300):
                kept, retired = _round(S, clock, np.inf, lay, ctx, model, a, rng, buf)
                assert kept == 64 and sum(map(len, retired)) == 0
                for row in S:
                    lay.pattern(row).validate()
        assert (S[:, lay.inf] == np.inf).all() and (S[:, lay.zero] == 0).all()
        assert S[:, :lay.P].sum() > 0


def test_bar_a_interleaving():
    a = (2.0, 5.0)
    assert bar_a(a, 1) == 2.0 and bar_a(a, 2) == 0.5
    assert bar_a(a, 3) == 5.0 and bar_a(a, 4) == 0.2
    assert isinstance(bar_a((3,), 2), F) and bar_a((3,), 2) == F(1, 3)


def test_intertwining_cascade_rank_three():
    # rank 3 is the only rank where helper_row_cascade pulls through a
    # particle that is not the wall (its i + 1 < n branches)
    ctx = QSeriesCtx(F(1, 3))
    a = (F(6, 5), F(3, 7), F(5, 2))
    probes = [(x, y, z) for z in [(1, 1, 0), (2, 1, 0), (2, 1, 1), (2, 2, 1), (3, 1, 0)]
              for y in interlacings(z, 3) for x in interlacings(y, 2)]
    assert len(probes) == 56
    results = verify_intertwining_cascade(3, probes, ctx, a)
    assert len(results) == 308
    assert all(ok for *_, ok in results)
