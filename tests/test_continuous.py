"""Diffusion-level checks: kernels, Phi family, SDEs, polymer identity."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympgt
from sympgt.continuous import (_BLOCK, _WIDE, ContinuousParams, _drift_ladder,
                               _log_cumsum_exp, _polymer_samples, _sde_drift,
                               grad_log_phi, h_b, h_d, phi, phi2_bessel,
                               phi_eigen_residual, polymer_identity_check,
                               polymer_y_integral, polymer_z, q_nn, q_nnm1,
                               sde_simulate, verify_operator_identities,
                               wedge_start)

POLYMER = json.loads((Path(__file__).parent / "data" / "polymer_reference.json").read_text())


def test_params_validation():
    ContinuousParams(2, (0.9, 0.4))
    with pytest.raises(ValueError):
        ContinuousParams(2, (0.4, 0.9))
    with pytest.raises(ValueError):
        ContinuousParams(1, (-0.5,))
    assert ContinuousParams(2, (0.9, 0.4)).drift_table(4) == (0.9, -0.9, 0.4, -0.4)


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
    rep1 = verify_operator_identities(1, 0.5, grid1)
    assert rep1["nn_max"] < 1e-6
    grid2 = [((float(a), float(a) - 0.7), (float(b), float(b) - 1.1))
             for a in pts for b in pts]
    rep2 = verify_operator_identities(2, 0.5, grid2)
    assert rep2["nn_max"] < 1e-6
    assert rep2["nnm1_max"] < 1e-6


def test_kernel_intertwining_theta_zero():
    rep = verify_operator_identities(1, 0.0, [((0.3,), (-0.2,))])
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
    params = ContinuousParams(1, (0.9,))
    x0 = wedge_start(2, gap=4.0)
    r1 = sde_simulate(2, params, x0, t=0.5, h=0.01, replicas=20, seed=11)
    r2 = sde_simulate(2, params, x0, t=0.5, h=0.01, replicas=20, seed=11)
    assert np.array_equal(r1["bottom"], r2["bottom"])
    assert r1["flagged"] == 0
    assert np.isfinite(r1["bottom"]).all()


def test_sde_bottom_law_matches_scalar_engine():
    # `sde --N 2 --lambda 0.9 --t 1` (h = 1e-3, wedge start) with the earlier
    # per-replica scalar engine, 1000 replicas, seed 1: bottom mean and std
    ref_n, ref_mean, ref_std = 1000, 0.11722017943306022, 0.6589193630118396
    rep = sde_simulate(2, ContinuousParams(1, (0.9,)), wedge_start(2), t=1.0,
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


def test_kernels_positive():
    assert q_nn(0.5, (0.3,), (-0.2,)) > 0
    assert q_nnm1(0.5, (0.5, -0.3), (0.1,)) > 0


def test_polymer_identity_rank_one():
    rep = polymer_identity_check(1, (0.8,), 1.0, replicas=20000, seed=7)
    assert rep["ks"] <= 0.02
    assert "conjectural" in rep["conditional"]


def test_polymer_identity_rank_two_reported():
    rep = polymer_identity_check(2, (0.8,), 1.0, replicas=20000, seed=8)
    # soft: reported, generous bound guards against statistical flukes
    assert rep["ks"] <= 0.03


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
    levels, replicas, steps = 3, 2 * _BLOCK + 37, 16
    one = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    whole = one.standard_normal((levels, replicas, steps))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    buf = np.empty((_BLOCK, steps))
    for k in range(levels):
        for r0 in range(0, replicas, _BLOCK):
            want = whole[k, r0:r0 + _BLOCK]
            block = buf[:len(want)]
            rng.standard_normal(out=block)
            assert np.array_equal(block, want)


def _reference_samples(rng, drifts, t, steps, replicas, integrated):
    """The unstreamed sampler: one (levels, replicas, steps) draw and
    np.logaddexp ufunc loops."""
    dt = t / steps
    inc = rng.standard_normal((len(drifts), replicas, steps)) * math.sqrt(dt)
    inc += np.asarray(drifts)[:, None, None] * dt
    b = np.concatenate([np.zeros((len(drifts), replicas, 1)), np.cumsum(inc, axis=2)], axis=2)
    logw = np.log(np.r_[dt / 2, np.full(steps - 1, dt), dt / 2])
    log_i = b[0] if integrated else np.zeros((replicas, steps + 1))
    for k in range(1 if integrated else 0, len(drifts)):
        log_i = b[k] + np.logaddexp.accumulate(log_i - b[k] + logw, axis=1)
    return np.logaddexp.reduce(log_i + logw, axis=1) if integrated else log_i[:, -1]


@pytest.mark.parametrize("t", [2.0, 400.0])
def test_streamed_polymer_matches_unstreamed_reference(t):
    # at t = 400 one level of each sample mixes wide and ordinary rows in a block
    drifts, replicas = _drift_ladder((0.9, 0.4), 3), _BLOCK + 45
    for integrated in (False, True):
        ref = _reference_samples(np.random.Generator(np.random.Philox(2)), drifts,
                                 t, 64, replicas, integrated)
        got, wide = _polymer_samples(np.random.Generator(np.random.Philox(2)), drifts,
                                     t, 64, replicas, integrated)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        assert (wide == 0) if t == 2.0 else (0 < wide < replicas)


@pytest.mark.parametrize("case", POLYMER["ledger"], ids=lambda c: f"N{c['N']}")
def test_polymer_identity_ledger_figures_are_unchanged(case):
    rep = polymer_identity_check(case["N"], tuple(case["lam"]), case["t"],
                                 replicas=case["replicas"], seed=case["seed"])
    assert (rep["ks"], rep["pvalue"]) == (case["ks"], case["pvalue"])
    assert rep["z_mean"] == pytest.approx(case["z_mean"], abs=1e-12)
    assert rep["y_mean"] == pytest.approx(case["y_mean"], abs=1e-12)
    assert rep["stats"] == {"wide_rows": 0}


@pytest.mark.parametrize("case", POLYMER["summaries"],
                         ids=lambda c: f"N{c['N']}-t{c['t']:g}")
def test_polymer_samples_are_unchanged(case):
    N, lam, t = case["N"], tuple(case["lam"]), case["t"]
    ss = np.random.SeedSequence(case["seed"]).spawn(2)
    z = polymer_z(np.random.Generator(np.random.Philox(ss[0])), N, lam, t, 512,
                  case["replicas"])
    y = polymer_y_integral(np.random.Generator(np.random.Philox(ss[1])), N,
                           tuple(reversed(_drift_ladder(lam, N))), t, 512, case["replicas"])
    levels = POLYMER["quantile_levels"]
    for got, ref in [(np.quantile(z, levels), case["z"]), (np.quantile(y, levels), case["y"])]:
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_polymer_wide_rows_are_reported():
    rep = polymer_identity_check(2, (0.9, 0.4), 2000.0, replicas=300, seed=5)
    # every row of both Z levels and of the one Y recurrence level is wide
    assert rep["stats"] == {"wide_rows": 3 * 300}
    assert math.isfinite(rep["z_mean"]) and math.isfinite(rep["y_mean"])


@pytest.mark.parametrize("kwargs, message", [
    (dict(N=0, lam=(0.9,), t=1.0, replicas=10), "--N must be at least 1"),
    (dict(N=3, lam=(0.9,), t=1.0, replicas=10), "--lambda needs at least 2 values"),
    (dict(N=1, lam=(0.9,), t=-1.0, replicas=10), "--t must be positive"),
    (dict(N=1, lam=(0.9,), t=1.0, replicas=0), "--replicas must be at least 1"),
    (dict(N=1, lam=(0.9,), t=1.0, replicas=10, steps=0), "steps must be at least 1"),
])
def test_polymer_identity_check_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        polymer_identity_check(seed=1, **kwargs)


def test_importing_every_module_leaves_scipy_stats_unloaded():
    code = ("import importlib, pkgutil, sys, sympgt, sympgt.cli\n"
            "for m in pkgutil.iter_modules(sympgt.__path__):\n"
            "    importlib.import_module('sympgt.' + m.name)\n"
            "print('scipy.stats' in sys.modules)")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
