"""Diffusion-level checks: kernels, Phi family, SDEs, polymer identity."""

import math

import numpy as np
import pytest

from sympgt.continuous import (ContinuousParams, _sde_drift, grad_log_phi,
                               h_b, h_d, phi, phi2_bessel,
                               phi_eigen_residual, polymer_identity_check,
                               q_nn, q_nnm1, sde_simulate,
                               verify_operator_identities, wedge_start)


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
