"""Scaling limits: lattice-rescaled characters converging to classical
so(2n+1) Whittaker functions.  The targets are the Givental integral, read
off the Phi^{(2n)} kernel quadrature of continuous.log_phi, and at rank one
the closed form 2 K_{2 lam}(2 e^{-x/2}) through mpmath's Bessel K."""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import mpmath as mp
import numpy as np

from .continuous import _PHI_RANGE, log_phi


class ScalingCtx:
    """Lattice scaling at mesh eps: q = e^{-eps}, a_l = e^{i eps lam_l},
    shift m(eps) = -floor(log(eps)/eps) and normalizer
    A(eps) = -pi^2/(6 eps) - log(eps/2pi)/2.  An immutable value: it holds
    eps, lam, m and A and no tables, so a value computed from it does not
    depend on what was computed before."""

    def __init__(self, eps: float, lam: Sequence[float]):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"--eps must lie in (0,1), got {eps}")
        self.eps = float(eps)
        self.lam = tuple(float(l) for l in lam)
        self.m = -math.floor(math.log(eps) / eps)
        self.A = -math.pi ** 2 / (6.0 * eps) - 0.5 * math.log(eps / (2.0 * math.pi))

    def log_pochhammer(self, kmax: int) -> np.ndarray:
        """Array L with L[k] = log (q;q)_k for 0 <= k <= kmax, one prefix sum."""
        j = np.arange(1, kmax + 1, dtype=float)
        return np.concatenate([[0.0], np.cumsum(np.log(-np.expm1(-self.eps * j)))])

    # -- lattice embedding ---------------------------------------------------
    def _floor(self, v: float) -> int:
        # nudge guards against 0.3/0.1 = 2.999... style representation error
        return math.floor(v / self.eps + 1e-9)

    def z_shape(self, n: int, x: Sequence[float]) -> tuple:
        """Top-level lattice shape for scaled coordinates x (length n)."""
        z = tuple(self._floor(x[i]) + (2 * n - 2 * i) * self.m
                  for i in range(n))
        if any(z[i] < z[i + 1] for i in range(n - 1)) or z[-1] < 0:
            raise ValueError("x too disordered for this eps: shape not a partition")
        return z

    def snap_distance(self, x: Sequence[float]) -> float:
        """Max distance from x to the eps-lattice points actually used."""
        return max(abs(xi - self.eps * self._floor(xi)) for xi in x)


def _psi_rank_one(sctx: ScalingCtx, L: np.ndarray, z: int) -> complex:
    """The rank-1 lattice sum at the shape z, with L = sctx.log_pochhammer(k)
    for some k >= z."""
    ks = np.arange(z + 1)
    logw = L[z] - L[ks] - L[z - ks] + sctx.A
    phase = np.exp(1j * sctx.eps * sctx.lam[0] * (2 * ks - z))
    return complex(sctx.eps * np.sum(np.exp(logw) * phase))


def scaled_qwhittaker(sctx: ScalingCtx, n: int, x: Sequence[float]) -> complex:
    """Rescaled character eps^{n^2} e^{n^2 A} P_z(a;q) as the nested lattice
    sum, evaluated in log space.  Supported for n <= 2 (cost)."""
    if n not in (1, 2):
        raise ValueError("scaled sums implemented for n <= 2 only")
    if len(x) != n:
        raise ValueError("x must have length n")
    z = sctx.z_shape(n, x)
    L = sctx.log_pochhammer(z[0])
    if n == 1:
        return _psi_rank_one(sctx, L, z[0])
    return _psi_rank_two(sctx, L, z)


def _psi_rank_two(sctx: ScalingCtx, L: np.ndarray, z: tuple) -> complex:
    """The rank-2 nested sum over the middle level (z31, z32) and the bottom
    level k, z32 <= k <= z31, with the rank-1 sums psi(k) innermost, all
    read from the one table L = sctx.log_pochhammer(z[0]).  For each z31
    the (z32, k) terms form one array whose entries with k < z32 carry log
    weight -inf, so each z31 costs one masked array sum."""
    eps, A, l2 = sctx.eps, sctx.A, sctx.lam[1]
    psit = np.array([_psi_rank_one(sctx, L, k) for k in range(z[0] + 1)])
    sz = z[0] + z[1]
    z32 = np.arange(z[1] + 1)
    col = z32[:, None]
    # pairing (z, z3), its z32 factor: binom(z2, z2-z32)
    w_z32 = L[z[1]] - L[z[1] - z32] - L[z32] + A
    total = 0.0 + 0.0j
    for z31 in range(z[1], z[0] + 1):
        # pairing (z, z3), its z31 factor: binom(z1-z2, z1-z31)
        w1 = L[z[0] - z[1]] - L[z[0] - z31] - L[z31 - z[1]] + A + w_z32
        ks = np.arange(z31 + 1)
        gap = ks - col
        # pairing (z3, z2): binom(z31-z32, z31-k), zero weight for k < z32
        w2 = np.where(gap >= 0, L[z31 - col] - L[z31 - ks] - L[np.maximum(gap, 0)] + A,
                      -np.inf)
        inner = np.exp(w2 + 1j * eps * l2 * (z31 - gap)) @ psit[:z31 + 1]
        total += eps * np.sum(np.exp(1j * eps * l2 * (z31 + z32 - sz) + w1) * inner)
    return complex(eps ** 2 * total)


# ---------------------------------------------------------------------------
# classical Whittaker functions
# ---------------------------------------------------------------------------

def so3_whittaker(lam: complex, x: float) -> float:
    """Closed form 2 K_{2 lam}(2 e^{-x/2}), the Macdonald function by
    mpmath; for real or purely imaginary lam (order i*mu in the scaling
    comparisons) it is real, and its real part is returned."""
    return 2.0 * float(mp.re(mp.besselk(2 * lam, 2.0 * math.exp(-x / 2.0))))


def so_whittaker(n: int, lam, x) -> complex:
    """Givental integral for the so(2n+1) Whittaker function, n <= 2, as
    2^{-sum lam} Phi^{(2n)}(lam, x + log 2): shifting every variable of the
    Phi integral by log 2 turns its wall term 2 e^{-u} into e^{-u} and
    scales the integral by 2^{sum lam}.  lam may be complex (imaginary
    values give the oscillatory regime), and only lam[:n] is read.  See
    continuous.log_phi for the quadrature, the region where its error was
    measured (x + log 2 in it, else ValueError) and that error."""
    lam = tuple(complex(l) for l in np.atleast_1d(lam))[:n]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n not in (1, 2) or len(lam) < n or x.shape != (n,):
        raise ValueError(f"so(2n+1) Whittaker functions take n = 1 or 2, n lambda values and "
                         f"x of n coordinates, not n = {n}, {len(lam)} lambda values and "
                         f"x = {x.tolist()}")
    try:
        return 2.0 ** -sum(lam) * cmath.exp(log_phi(2 * n, lam, x + math.log(2.0)))
    except ValueError as exc:
        lo, hi = (v - math.log(2.0) for v in _PHI_RANGE[2 * n])
        raise ValueError(f"so({2 * n + 1}) Whittaker function is measured on [{lo:.4g}, "
                         f"{hi:.4g}] with x_(i+1) <= x_i + 2, not at {x.tolist()}") from exc


def convergence_table(n: int, lam: Sequence[float], xs: Sequence,
                      eps_list: Sequence[float]) -> list:
    """Rows (x, eps, scaled value, so-target, abs error, snap distance) for
    the imaginary-direction family; targets from so_whittaker."""
    if not all(math.isfinite(l) for l in lam):
        raise ValueError(f"--lambda entries must be finite, got {list(lam)}")
    points = [tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist()) for x in xs]
    targets = {xv: so_whittaker(n, tuple(1j * l for l in lam), xv).real
               for xv in points}
    rows = []
    for eps in eps_list:
        sctx = ScalingCtx(eps, lam)
        for xv in points:
            val = scaled_qwhittaker(sctx, n, xv)
            rows.append({"x": xv, "eps": eps, "value": val,
                         "target": targets[xv],
                         "abs_error": abs(val - targets[xv]),
                         "snap": sctx.snap_distance(xv)})
    return rows
