"""Diffusion-level checks: kernels, Phi family, SDEs, polymer identity."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympgt
import sympgt.continuous
from sympgt.combinatorics import level_len
from sympgt.continuous import (_BLOCK, _STEPS, _WIDE, _drift_ladder, _log_cumsum_exp,
                               _log_q_nn_rest, _log_q_nnm1_rest,
                               _log_sum_exp, _log_trapz_weights, _phi_point,
                               _polymer_generator, _polymer_samples, _product_grid,
                               _Replay, _sde_drift,
                               grad_log_phi, h_b, h_d, log_phi, log_q_nn, log_q_nnm1,
                               phi, phi2_bessel,
                               phi_eigen_residual, polymer_reversal_gap,
                               sde_simulate, verify_operator_identities,
                               wedge_start)

POLYMER = json.loads((Path(__file__).parent / "data" / "polymer_reference.json").read_text())
PHI = json.loads((Path(__file__).parent / "data" / "phi_reference.json").read_text())
SO_REF = json.loads((Path(__file__).parent / "data" / "so_whittaker_reference.json").read_text())


def test_params_validation():
    x0 = wedge_start(2)
    sde_simulate(2, (0.9, 0.4), x0, t=0.0, h=0.1, replicas=1, seed=0)
    with pytest.raises(ValueError, match="lam must be strictly decreasing"):
        sde_simulate(2, (0.4, 0.9), x0, t=0.0, h=0.1, replicas=1, seed=0)
    with pytest.raises(ValueError, match="lam must be positive"):
        sde_simulate(2, (-0.5,), x0, t=0.0, h=0.1, replicas=1, seed=0)
    assert _drift_ladder((0.9, 0.4), 4) == (0.9, -0.9, 0.4, -0.4)


def test_phi1_exact():
    assert phi(1, (0.7,), 1.3) == pytest.approx(math.exp(0.7 * 1.3))


def test_phi2_matches_bessel_closed_form():
    for x in np.linspace(-2.0, 3.0, 9):
        p = phi(2, (0.9,), float(x))
        b = phi2_bessel(0.9, float(x))
        assert abs(p - b) / b < 1e-6


def test_phi1_hd_eigen_analytic():
    f = lambda xv: math.exp(0.7 * xv[0])
    for x in (-0.5, 0.0, 1.2):
        val = f((x,))
        assert abs(h_d(f, (x,), 0.7) - 0.5 * 0.49 * val) < 1e-8 * val


def test_kernel_intertwinings_grids():
    # 25-point grids of (x, y) pairs for each rank
    pts = np.linspace(-1.0, 1.0, 5)
    grid1 = [((float(a),), (float(b),)) for a in pts for b in pts]
    rep1 = verify_operator_identities(0.5, grid1)
    assert rep1["nn_max"] < 1e-6
    grid2 = [((float(a), float(a) - 0.7), (float(b), float(b) - 1.1))
             for a in pts for b in pts]
    rep2 = verify_operator_identities(0.5, grid2)
    assert rep2["nn_max"] < 1e-6
    assert rep2["nnm1_max"] < 1e-6


def test_kernel_intertwining_theta_zero():
    rep = verify_operator_identities(0.0, [((0.3,), (-0.2,))])
    assert rep["nn_max"] < 1e-6


def test_phi_eigen_residuals():
    assert phi_eigen_residual(1, (0.9,), (0.4,)) < 1e-4
    lam = (0.9, 0.4)
    f3 = lambda xv: phi(3, lam, xv)
    x = (0.5, -0.3)
    v3 = f3(np.array(x))
    assert abs(h_d(f3, x, lam[1]) - 0.5 * (0.81 + 0.16) * v3) / v3 < 1e-4


def test_phi4_eigen_residual():
    lam = (0.9, 0.4)
    assert phi_eigen_residual(2, lam, (0.5, -0.3)) < 1e-4


def test_phi4_eigen_residual_evaluates_phi_nine_times(monkeypatch):
    # the centre and 4 stencil points per coordinate; the centre only once
    points = []

    def counting_log_phi(N, lam, x):
        points.append(tuple(x))
        return 0.0

    monkeypatch.setattr(sympgt.continuous, "log_phi", counting_log_phi)
    phi_eigen_residual(2, (0.9, 0.4), (0.5, -0.3))
    assert len(points) == 9
    assert points.count((0.5, -0.3)) == 1


@pytest.mark.slow
def test_phi4_eigen_residual_five_points():
    lam = (0.9, 0.4)
    for x in ((0.5, -0.3), (0.0, -1.0), (1.0, 0.2), (-0.5, -0.8), (1.5, 0.5)):
        assert phi_eigen_residual(2, lam, x) <= 1e-4


def test_phi_matches_pinned_values():
    for lam, values in PHI["phi2"].items():
        for x, v in values.items():
            assert phi(2, (float(lam),), float(x)) == pytest.approx(float(v), rel=1e-12)
    lam, x = (0.9, 0.4), (0.5, -0.3)
    assert phi(3, lam, x) == pytest.approx(float(PHI["phi3"]), rel=1e-12)
    assert phi(4, lam, x) == pytest.approx(float(PHI["phi4"]), rel=1e-12)


def _complex_log_phi(N, lam, x):
    """log_phi as first written: each level's whole kernel, theta term
    included, on the grid, and a complex log-sum-exp whose rows are shifted
    by the max of their real part."""
    x = _phi_point(N, lam, x)
    m = 1000 if N <= 3 else 100
    u = np.linspace(min(x.min(), 0.0) - 12.0, x.max() + 12.0, m)
    logw = _log_trapz_weights(m - 1, u[1] - u[0])
    pts, log_f, lw = np.zeros((1, 0)), np.zeros(1), np.zeros(1)
    for k in range(1, N + 1):
        at, lw_at = (x[None, :], None) if k == N else _product_grid(u, logw, level_len(k))
        kernel = log_q_nnm1 if k % 2 else log_q_nn
        a = kernel(lam[(k - 1) // 2], at[:, None, :], pts[None, :, :]) + (log_f + lw)
        shift = a.real.max(axis=1)
        pts, log_f, lw = at, np.log(np.exp(a - shift[:, None]).sum(axis=1)) + shift, lw_at
    return log_f[0].item()


@pytest.mark.parametrize("N, lam, x", [
    (2, (0.8,), (1.5,)), (2, (0.7j,), (-3.0,)),
    (3, (0.9, 0.4), (2.0, 0.5)), (3, (0.7j, 0.3j), (1.0, -1.0)),
    (4, (0.9, 0.4), (0.5, -0.3)), (4, (0.7j, 0.3j), (3.0, 1.0)),
])
def test_real_kernel_grid_matches_the_complex_log_sum_exp(N, lam, x):
    # the grid holds the kernel's real part, and theta's row and column terms
    # are added apart from it
    want = _complex_log_phi(N, lam, x)
    assert abs(log_phi(N, lam, x) - want) <= 1e-13 * abs(want)


@functools.cache
def _whole_level_log_phi(N, lam, x):
    """log_phi with each level's kernel formed whole, (len(at), len(pts)) at
    once: the form before the row blocks."""
    x = _phi_point(N, lam, x)
    m = 1000 if N <= 3 else 100
    u = np.linspace(min(x.min(), 0.0) - 12.0, x.max() + 12.0, m)
    logw = _log_trapz_weights(m - 1, u[1] - u[0])
    pts, log_f, lw = np.zeros((1, 0)), np.zeros(1), np.zeros(1)
    for k in range(1, N + 1):
        at, lw_at = (x[None, :], None) if k == N else _product_grid(u, logw, level_len(k))
        rest, sign = (_log_q_nnm1_rest, 1) if k % 2 else (_log_q_nn_rest, -1)
        theta = lam[(k - 1) // 2]
        col = log_f + lw - sign * theta * pts.sum(-1)
        a = rest(at[:, None, :], pts[None, :, :])
        a += col.real
        m = a.max(axis=1)
        a -= m[:, None]
        np.exp(a, out=a)
        if np.iscomplexobj(col):
            total = a @ np.cos(col.imag) + 1j * (a @ np.sin(col.imag))
        else:
            total = a.sum(axis=1)
        pts, log_f, lw = at, np.log(total) + m + sign * theta * at.sum(-1), lw_at
    return log_f[0].item()


# the points of phi_reference.json and so_whittaker_reference.json (the
# latter as so_whittaker passes them: complex lam, x shifted by log 2), and
# imaginary lam at N = 3 and 4
_BLOCKED_CASES = (
    [(2, (float(lam),), (float(x),)) for lam in PHI["phi2"] for x in ("-2.0", "0.5", "3.0")]
    + [(N, (0.9, 0.4), (0.5, -0.3)) for N in (3, 4)]
    + [(3, (0.7j, 0.3j), (1.0, -1.0)), (4, (0.7j, 0.3j), (3.0, 1.0))]
    + [(4, tuple(complex(l) for l in p["lam"]), tuple(v + math.log(2.0) for v in p["x"]))
       for p in SO_REF["points"]])


# a real lam reduces each row by its own sum, the same bits at any block;
# a complex lam's BLAS products keep them at blocks of a multiple of 64
@pytest.mark.parametrize("N, lam, x, rows", [
    (N, lam, x, rows) for N, lam, x in _BLOCKED_CASES for rows in (1, 7, 64, 256, 10 ** 6)
    if rows % 64 == 0 or not any(isinstance(l, complex) for l in lam)])
def test_row_blocked_levels_equal_the_whole_levels_bitwise(monkeypatch, N, lam, x, rows):
    monkeypatch.setattr(sympgt.continuous, "_PHI_ROWS", rows)
    assert log_phi(N, lam, x) == _whole_level_log_phi(N, lam, x)


@pytest.mark.parametrize("N, lam, x", [
    (2, (0.9,), (0.1, 0.2)),     # a level-2 point has one coordinate
    (3, (0.9,), (0.5, -0.3)),    # level 3 needs two lambdas
    (4, (0.9, 0.4), (0.5,)),     # a level-4 point has two coordinates
    (5, (0.9, 0.4, 0.2), (0.5, -0.3, -1.0)),  # N <= 4 only
    (0, (0.9,), ()),
    (2, (0.9,), (-13.0,)),       # below the measured region
    (4, (0.9, 0.4), (13.0, 0.0)),  # above it
    (3, (0.9, 0.4), (0.0, 2.5)),   # out of order by more than 2
])
def test_phi_rejects_bad_input(N, lam, x):
    for f in (phi, log_phi):
        with pytest.raises(ValueError):
            f(N, lam, x)


@pytest.mark.parametrize("lam", [0.8, 0.9])
def test_log_phi2_deep_in_wall_region(lam):
    # Phi^{(2)}(-12) is about e^{-1141}: it underflows, its log must not
    import mpmath as mp
    with mp.workdps(30):
        exact = float(mp.log(2 ** mp.mpf(lam) * 2
                             * mp.besselk(2 * mp.mpf(lam), 2 * mp.sqrt(2) * mp.exp(6))))
    assert abs(log_phi(2, (lam,), -12.0) - exact) <= 1e-10 * abs(exact)
    assert np.isfinite(grad_log_phi(2, (lam,), (-12.0,))).all()


def test_phi_flattening_on_ray():
    # e^{-<lam,x>} Phi^{(N)} flattens as the ray moves into the chamber
    deltas = []
    prev = None
    for s in (1.0, 3.0, 5.0, 7.0):
        v = math.log(phi(2, (0.9,), s)) - 0.9 * s
        if prev is not None:
            deltas.append(abs(v - prev))
        prev = v
    assert deltas[0] > deltas[1] > deltas[2]


def test_sde_drift_fields():
    # N=1 wall drift is always positive in the zero-noise reading
    d = _sde_drift([np.array([0.3])], (0.9,))
    assert d[0][0] == pytest.approx(0.9 + math.exp(-0.3))
    # N=3 wall particle: e^{-x} - e^{x - below}
    levels = [np.array([0.5]), np.array([0.8]), np.array([1.2, -0.1])]
    d3 = _sde_drift(levels, (0.9, -0.9, 0.4))
    assert d3[2][1] == pytest.approx(0.4 + math.exp(0.1) - math.exp(-0.1 - 0.8))
    assert d3[2][0] == pytest.approx(0.4 + math.exp(0.8 - 1.2))


def test_bottom_drift_matches_grad_log_phi():
    # conditional mean of the SDE drift equals the gradient of log Phi
    lam = (0.9,)
    for x in (-0.5, 0.3, 1.0):
        u = np.linspace(x - 14, x + 14, 4000)
        w = np.exp(lam[0] * (2 * u - x) - np.exp(u - x) - 2 * np.exp(-u))
        mean_drift = -lam[0] + np.trapezoid(np.exp(u - x) * w, u) / np.trapezoid(w, u)
        g = grad_log_phi(2, lam, (x,))
        assert abs(mean_drift - g[0]) < 1e-6


def test_sde_reproducible_and_finite():
    x0 = wedge_start(2)
    r1 = sde_simulate(2, (0.9,), x0, t=0.5, h=0.01, replicas=20, seed=11)
    r2 = sde_simulate(2, (0.9,), x0, t=0.5, h=0.01, replicas=20, seed=11)
    assert np.array_equal(r1["bottom"], r2["bottom"])
    assert r1["flagged"] == 0
    assert np.isfinite(r1["bottom"]).all()


@pytest.mark.parametrize("N, lam, x0, t, h, replicas, seed, flagged, bottom", [
    # nsub = 3 at every step from this start
    (2, (0.9,), [[-1.0], [0.0]], 1.5, 0.5, 5, 3, 0,
     [[1.2498539120637648], [0.6431027882276614], [0.3938186371566189],
      [0.3129255513761533], [2.834489064445515]]),
    # level 1 leaps about 40 in its first of 4096 substeps and level 2,
    # 12.2 below it, is flagged on the noise of that substep
    (2, (0.9,), [[-12.0], [15.5]], 2.0, 1.0, 8, 1, 2,
     [[62.72855359734133], [63.94739136982483], [62.85375267050786],
      [62.844327128232784], [64.66079880530343], [60.974667449013936]]),
    (3, (0.9, 0.4), [[-3.0], [-4.0], [-2.0, -9.0]], 0.5, 0.25, 4, 4, 0,
     [[-1.5555558321980687, -1.0796515532191573], [-1.5394780621479933, -0.9303821157276162],
      [-0.43695390200341, -1.0047136573055813], [-2.4901265828190673, -0.6612672156439231]]),
    # levels of sizes 1, 1, 2, 2; the wall drift e^4 of level 3 sets 55
    # substeps at first, and later steps advance 1, 3, 4 or all 6 replicas
    (4, (0.9, 0.4), [[-1.0], [-2.0], [-1.0, -4.0], [-1.5, -3.5]], 1.0, 0.5, 6, 5, 0,
     [[-0.13923496467309646, -0.057905711991042164], [0.2537783335170887, -0.38040797142967614],
      [-0.39113412163369726, -1.8073445251325344], [1.299167114167458, -0.36171937067835236],
      [0.6433403743928292, -0.6391069245159093], [-1.2112329789677982, -1.1646839800324822]]),
])
def test_sde_seeded_paths_are_pinned(N, lam, x0, t, h, replicas, seed, flagged, bottom):
    # recorded when each substep computed its own drift, the first one
    # included
    rep = sde_simulate(N, lam, x0, t, h, replicas, seed)
    assert rep["flagged"] == flagged
    assert rep["bottom"].tolist() == bottom


def test_sde_bottom_law_matches_scalar_engine():
    # `sde --N 2 --lambda 0.9 --t 1` (h = 1e-3, wedge start) with the earlier
    # per-replica scalar engine, 1000 replicas, seed 1: bottom mean and std
    ref_n, ref_mean, ref_std = 1000, 0.11722017943306022, 0.6589193630118396
    rep = sde_simulate(2, (0.9,), wedge_start(2), t=1.0,
                       h=1e-3, replicas=2000, seed=1)
    assert rep["flagged"] == 0
    b = rep["bottom"][:, 0]
    n, mean, std = len(b), b.mean(), b.std()
    # within 4 standard errors of the difference of two independent samples
    assert abs(mean - ref_mean) < 4 * math.sqrt(ref_std ** 2 / ref_n + std ** 2 / n)
    assert abs(std - ref_std) < 4 * math.sqrt(ref_std ** 2 / (2 * ref_n) + std ** 2 / (2 * n))


def test_wedge_start_shape():
    x0 = wedge_start(4)
    assert [len(lv) for lv in x0] == [1, 1, 2, 2]
    assert x0[3][0] > x0[3][1]


def test_polymer_identity_rank_one():
    rep = polymer_reversal_gap(1, (0.8,), 1.0, paths=2000, seed=7)
    assert rep["paths"] == 2000 and rep["relative_gap"] <= 1e-12
    assert type(_polymer_generator(0).bit_generator).__name__ == "SFC64"


def test_polymer_identity_rank_two_reported():
    # a partial last block, and a ladder (0.8, -0.8) other than the ledger's
    rep = polymer_reversal_gap(2, (0.8,), 1.0, paths=2 * _BLOCK + 17, seed=8)
    assert rep["paths"] == 2 * _BLOCK + 17 and rep["relative_gap"] <= 1e-12


def test_log_cumsum_exp_matches_logaddexp_accumulate():
    # random-walk rows, every third one spanning more than _WIDE
    a = np.cumsum(np.random.default_rng(1).standard_normal((30, 513)), axis=1)
    a[::3] += np.linspace(0.0, 1.5 * _WIDE, 513)
    wide = (a.max(axis=1) - a.min(axis=1)) > _WIDE
    assert wide.sum() == 10
    ref = np.logaddexp.accumulate(a, axis=1)
    got = a.copy()
    assert _log_cumsum_exp(got) == 10
    assert np.array_equal(got[wide], ref[wide])
    assert np.abs(got[~wide] - ref[~wide]).max() <= 1e-13
    # a block of ordinary rows only
    ordinary = a[~wide].copy()
    assert _log_cumsum_exp(ordinary) == 0
    assert np.abs(ordinary - ref[~wide]).max() <= 1e-13


def test_blockwise_draws_equal_one_draw():
    # block-major order: each block of n replicas draws its levels in turn
    # into one (n, steps) buffer, which equals one (levels, n, steps) draw
    levels, replicas, steps = 3, 2 * _BLOCK + 37, 16
    one = _polymer_generator(np.random.SeedSequence(4))
    rng = _polymer_generator(np.random.SeedSequence(4))
    buf = np.empty((_BLOCK, steps))
    for r0 in range(0, replicas, _BLOCK):
        whole = one.standard_normal((levels, min(_BLOCK, replicas - r0), steps))
        for want in whole:
            block = buf[:len(want)]
            rng.standard_normal(out=block)
            assert np.array_equal(block, want)


def _reference_samples(rng, drifts, t, steps, replicas, integrated):
    """The unstreamed sampler: one (levels, n, steps) draw per block of n
    replicas and np.logaddexp ufunc loops."""
    dt = t / steps
    logw = np.log(np.r_[dt / 2, np.full(steps - 1, dt), dt / 2])
    samples = []
    for r0 in range(0, replicas, _BLOCK):
        n = min(_BLOCK, replicas - r0)
        inc = rng.standard_normal((len(drifts), n, steps)) * math.sqrt(dt)
        inc += np.asarray(drifts)[:, None, None] * dt
        b = np.concatenate([np.zeros((len(drifts), n, 1)), np.cumsum(inc, axis=2)], axis=2)
        log_i = b[0] if integrated else np.zeros((n, steps + 1))
        for k in range(1 if integrated else 0, len(drifts)):
            log_i = b[k] + np.logaddexp.accumulate(log_i - b[k] + logw, axis=1)
        samples.append(np.logaddexp.reduce(log_i + logw, axis=1) if integrated
                       else log_i[:, -1])
    return np.concatenate(samples)


@pytest.mark.parametrize("t", [2.0, 400.0, 2000.0])
def test_streamed_polymer_matches_unstreamed_reference(t):
    # at t = 400 one level of each sample mixes wide and ordinary rows in a
    # block; at t = 2000 every row of both running levels is wide; the last
    # block is partial
    drifts, replicas = _drift_ladder((0.9, 0.4), 3), _BLOCK + 45
    want = {2.0: lambda w: w == 0, 400.0: lambda w: 0 < w < replicas,
            2000.0: lambda w: w == 2 * replicas}[t]
    for integrated in (False, True):
        ref = _reference_samples(np.random.Generator(np.random.Philox(2)), drifts,
                                 t, 512, replicas, integrated)
        got, wide = _polymer_samples(np.random.Generator(np.random.Philox(2)), drifts,
                                     t, replicas, integrated)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert want(wide)


def test_endpoint_level_matches_logaddexp_reduce_on_wide_rows():
    # Z's first level at t = 2000: log I_0 = 0, so its rows are -b + logw
    steps, dt = 512, 2000.0 / 512
    rng = np.random.Generator(np.random.Philox(3))
    inc = rng.standard_normal((300, steps)) * math.sqrt(dt) + 0.9 * dt
    b = np.concatenate([np.zeros((300, 1)), np.cumsum(inc, axis=1)], axis=1)
    rows = -b + np.log(np.r_[dt / 2, np.full(steps - 1, dt), dt / 2])
    assert (rows.max(axis=1) - rows.min(axis=1) > _WIDE).all()
    ref = np.logaddexp.reduce(rows, axis=1)
    got = _log_sum_exp(rows.copy())
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    drifts = _drift_ladder((0.9, 0.4), 2)
    ref = _reference_samples(np.random.Generator(np.random.Philox(2)), drifts,
                             2000.0, steps, 300, False)
    got, wide = _polymer_samples(np.random.Generator(np.random.Philox(2)), drifts,
                                 2000.0, 300, False)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert wide == 300  # only the first level keeps a running integral


@pytest.mark.parametrize("case", POLYMER["ledger"], ids=lambda c: f"N{c['N']}")
def test_polymer_identity_ledger_figures_are_unchanged(case):
    rep = polymer_reversal_gap(case["N"], tuple(case["lam"]), case["t"],
                               paths=case["paths"], seed=case["seed"])
    assert rep == {k: case[k] for k in ("paths", "gap", "relative_gap", "stats")}


@pytest.mark.parametrize("case", POLYMER["summaries"],
                         ids=lambda c: f"N{c['N']}-t{c['t']:g}")
def test_polymer_samples_are_unchanged(case):
    N, lam, t = case["N"], tuple(case["lam"]), case["t"]
    ss = np.random.SeedSequence(case["seed"]).spawn(2)
    ladder = _drift_ladder(lam, N)
    z, _ = _polymer_samples(_polymer_generator(ss[0]), ladder, t,
                            case["replicas"], integrated=False)
    y, _ = _polymer_samples(_polymer_generator(ss[1]), ladder[::-1], t,
                            case["replicas"], integrated=True)
    levels = POLYMER["quantile_levels"]
    for got, ref in [(np.quantile(z, levels), case["z"]), (np.quantile(y, levels), case["y"])]:
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("t", [2.0, 2000.0])
def test_level_one_is_a_time_reversal_path_by_path(t):
    rep = polymer_reversal_gap(1, (0.9,), t, paths=2000, seed=7)
    assert rep["paths"] == 2000
    assert rep["relative_gap"] <= 1e-12
    if t == 2000.0:
        # every path spans more than _WIDE e-folds, so both endpoints rest on
        # _log_sum_exp's max shift
        rng = _polymer_generator(np.random.SeedSequence(7))
        dt = t / 512
        b = np.cumsum(rng.standard_normal((2000, 512)) * math.sqrt(dt) + 0.9 * dt, axis=1)
        assert (np.maximum(b.max(axis=1), 0) - np.minimum(b.min(axis=1), 0) > _WIDE).all()


@pytest.mark.parametrize("paths, gap, relative", [
    (2000, 1.0658141036401503e-14, 1.7681587394402172e-15),
    (700, 1.0658141036401503e-14, 1.7681587394402172e-15),
    (300, 1.0658141036401503e-14, 2.274561514641576e-15),
    (256, 1.0658141036401503e-14, 2.274561514641576e-15),
])
def test_level_one_gap_is_pinned(paths, gap, relative):
    # recorded from SFC64 on seed 7; the Philox stream of that seed read
    # gaps 9.8e-15, 8.0e-15, 7.1e-15 and 7.1e-15, the same whether the
    # whole (paths, 512) draw was taken at once or _BLOCK paths at a time
    assert polymer_reversal_gap(1, (0.9,), 2.0, paths, seed=7) == {
        "paths": paths, "gap": gap, "relative_gap": relative, "stats": {"wide_rows": 0}}


def test_level_one_gap_needs_the_reversal():
    # the same normals unreversed give a different integral on every path
    rng = _polymer_generator(np.random.SeedSequence(7))
    normals = rng.standard_normal((2000, 512))
    z, _ = _polymer_samples(_Replay(normals), (0.9,), 2.0, 2000, integrated=False)
    y, _ = _polymer_samples(_Replay(normals), (0.9,), 2.0, 2000, integrated=True)
    assert np.abs(z - y).max() > 1.0


def test_replay_hands_out_rows_in_order():
    rows = np.arange(12.0).reshape(6, 2)
    replay, out = _Replay(rows), np.empty((4, 2))
    assert replay.standard_normal(out=out) is out
    assert np.array_equal(out, rows[:4])
    replay.standard_normal(out=out[:2])
    assert np.array_equal(out[:2], rows[4:])


@pytest.mark.parametrize("N", [3, 4])
def test_polymer_identity_holds_path_by_path_at_levels_three_and_four(N):
    rep = polymer_reversal_gap(N, (0.9, 0.4), 2.0, paths=2000, seed=N + 6)
    assert rep["paths"] == 2000 and rep["relative_gap"] <= 1e-12


def _one_block_gap(N, seed, y_lam=(0.9, 0.4), reverse_ladder=True, reverse_time=True):
    """polymer_reversal_gap's relative gap over one block of _BLOCK paths at
    t = 2 and lam = (0.9, 0.4), with Y built from ``y_lam``, its ladder
    read forwards unless ``reverse_ladder``, and its normals renumbered
    from the top but not reversed in time unless ``reverse_time``."""
    normals = _polymer_generator(np.random.SeedSequence(seed)).standard_normal(
        (N, _BLOCK, _STEPS))
    z, _ = _polymer_samples(_Replay(normals.reshape(-1, _STEPS)),
                            _drift_ladder((0.9, 0.4), N), 2.0, _BLOCK, integrated=False)
    y_ladder = _drift_ladder(y_lam, N)
    y_normals = normals[::-1, :, ::-1] if reverse_time else normals[::-1]
    y, _ = _polymer_samples(_Replay(y_normals.reshape(-1, _STEPS)),
                            y_ladder[::-1] if reverse_ladder else y_ladder, 2.0, _BLOCK,
                            integrated=True)
    return float(np.abs(z - y).max()) / max(1.0, float(np.abs(z).max()))


@pytest.mark.parametrize("N, y_lam, reverse_ladder, reverse_time", [
    (2, (0.85, 0.4), True, True),
    (2, (0.9, 0.4), False, True),
    (2, (0.9, 0.4), True, False),
    # the level-2 ladder (0.9, -0.9) never reads lam_2; level 3 does
    (3, (0.9, 0.35), True, True),
], ids=["lambda1-0.85", "unreversed-ladder", "unreversed-time", "N3-lambda2-0.35"])
def test_the_gap_gate_fails_a_wrong_y(N, y_lam, reverse_ladder, reverse_time):
    seed = N + 6
    assert _one_block_gap(N, seed) == polymer_reversal_gap(
        N, (0.9, 0.4), 2.0, paths=_BLOCK, seed=seed)["relative_gap"] <= 1e-12
    # 1.5e-2 for lambda_1 = 0.85, 0.46 and 0.52 unreversed, 1.6e-2 for lambda_2
    assert _one_block_gap(N, seed, y_lam, reverse_ladder, reverse_time) > 1e-3


def test_polymer_wide_rows_are_reported():
    rep = polymer_reversal_gap(2, (0.9, 0.4), 2000.0, paths=300, seed=5)
    # every row of Z's first level and of the one Y recurrence level is
    # wide; Z's last level computes only its endpoint, by a max-shifted
    # log-sum-exp that is exact at any row width, so it never takes that path
    assert rep["stats"] == {"wide_rows": 2 * 300}
    assert rep["relative_gap"] <= 1e-12


@pytest.mark.parametrize("kwargs, message", [
    (dict(N=0, lam=(0.9,), t=1.0, paths=10), "--N must be at least 1"),
    (dict(N=3, lam=(0.9,), t=1.0, paths=10), "--lambda needs at least 2 values"),
    (dict(N=1, lam=(0.9,), t=-1.0, paths=10), "--t must be positive"),
    (dict(N=1, lam=(0.9,), t=1.0, paths=0), "--replicas must be at least 1"),
])
def test_polymer_identity_check_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        polymer_reversal_gap(seed=1, **kwargs)


def _loaded_after_importing_every_module(module: str) -> bool:
    code = ("import importlib, pkgutil, sys, sympgt, sympgt.cli\n"
            "for m in pkgutil.iter_modules(sympgt.__path__):\n"
            "    importlib.import_module('sympgt.' + m.name)\n"
            f"print({module!r} in sys.modules)")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip() == "True"


def test_importing_every_module_leaves_scipy_stats_unloaded():
    assert not _loaded_after_importing_every_module("scipy.stats")


def test_importing_every_module_leaves_concurrent_futures_unloaded():
    # it pulls in logging, and every import of the package would pay for that
    assert not _loaded_after_importing_every_module("concurrent.futures")


def test_markov_ledger_checks_load_no_scipy():
    code = ("import sys\n"
            "from sympgt.acceptance import check_simulation_vs_law\n"
            "from sympgt.continuous import polymer_reversal_gap\n"
            "polymer_reversal_gap(2, (0.9, 0.4), 1.0, paths=500, seed=1)\n"
            "check_simulation_vs_law()\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.linalg', 'scipy.special')\n"
            "             if m in sys.modules))")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
