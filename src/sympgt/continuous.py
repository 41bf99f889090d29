"""Diffusion-level machinery: wall Toda operators, the Phi kernel family,
interacting SDEs on real patterns, and the polymer identity check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import ks_2samp


@dataclass(frozen=True)
class ContinuousParams:
    n: int
    lam: tuple

    def __post_init__(self):
        if len(self.lam) != self.n:
            raise ValueError("lam must have length n")
        if any(self.lam[i] <= self.lam[i + 1] for i in range(self.n - 1)):
            raise ValueError("lam must be strictly decreasing")
        if self.lam[-1] <= 0:
            raise ValueError("lam must be positive")

    def drift_table(self, N: int) -> tuple:
        """Level drifts: odd level 2i-1 carries lam_i, even level 2i carries
        -lam_i."""
        return _drift_ladder(self.lam, N)


def _drift_ladder(lam: Sequence[float], N: int) -> tuple:
    """Drifts of levels 1..N: lam_i on level 2i-1 and -lam_i on level 2i."""
    return tuple(lam[(k - 1) // 2] * (1 if k % 2 else -1) for k in range(1, N + 1))


def level_dim(k: int) -> int:
    return (k + 1) // 2


# ---------------------------------------------------------------------------
# operators and kernels
# ---------------------------------------------------------------------------

_STEPS = (-2, -1, 1, 2)


def _half_laplacian(f: Callable, x: np.ndarray, val: float, h: float) -> tuple:
    """sum(d^2/dx_i^2) f / 2 at x by 4th-order central differences, with the
    stencil values f(x + k h e_n), k in _STEPS, along the last axis."""
    out = 0.0
    for i in range(len(x)):
        pts = []
        for k in _STEPS:
            xp = x.copy()
            xp[i] += k * h
            pts.append(f(xp))
        out += 0.5 * (-pts[3] + 16 * pts[2] - 30 * val + 16 * pts[1] - pts[0]) / (12 * h * h)
    return out, pts


def _first_derivative(pts: Sequence[float], h: float) -> float:
    """4th-order central first derivative from the stencil values at _STEPS."""
    return (pts[0] - 8 * pts[1] + 8 * pts[2] - pts[3]) / (12 * h)


def h_b(f: Callable, x: Sequence[float], h: float = 1e-3) -> float:
    """Wall Toda operator sum(d^2/dx_i^2)/2 - sum e^{x_{i+1}-x_i} - e^{-x_n}
    via 4th-order central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    val = f(x)
    out, _ = _half_laplacian(f, x, val, h)
    for i in range(n - 1):
        out -= math.exp(x[i + 1] - x[i]) * val
    out -= math.exp(-x[n - 1]) * val
    return out


def h_d(f: Callable, x: Sequence[float], theta: float, h: float = 1e-3) -> float:
    """Operator sum(d^2/dx_i^2)/2 - sum e^{x_{i+1}-x_i} + e^{-x_n} d/dx_n
    - theta e^{-x_n}."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    val = f(x)
    out, pts = _half_laplacian(f, x, val, h)
    d1_last = _first_derivative(pts, h)
    for i in range(n - 1):
        out -= math.exp(x[i + 1] - x[i]) * val
    out += math.exp(-x[n - 1]) * (d1_last - theta * val)
    return out


def h_d_adjoint(f: Callable, y: Sequence[float], theta: float,
                h: float = 1e-3) -> float:
    """Lebesgue adjoint of h_d acting on y: the first-order term becomes
    -d/dy_n (e^{-y_n} f)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    val = f(y)
    out, pts = _half_laplacian(f, y, val, h)
    d1_last = _first_derivative([math.exp(-(y[n - 1] + k * h)) * p
                                 for k, p in zip(_STEPS, pts)], h)
    for i in range(n - 1):
        out -= math.exp(y[i + 1] - y[i]) * val
    out -= d1_last + theta * math.exp(-y[n - 1]) * val
    return out


def q_nn(theta: float, x: Sequence[float], y: Sequence[float]) -> float:
    """Kernel linking same-size levels: exp(theta(|y|-|x|) - 2e^{-y_n}
    - sum e^{y_i-x_i} - sum e^{x_{i+1}-y_i})."""
    n = len(x)
    e = theta * (sum(y) - sum(x)) - 2.0 * math.exp(-y[n - 1])
    for i in range(n):
        e -= math.exp(y[i] - x[i])
    for i in range(n - 1):
        e -= math.exp(x[i + 1] - y[i])
    return math.exp(e)


def q_nnm1(theta: float, x: Sequence[float], y: Sequence[float]) -> float:
    """Kernel dropping one coordinate: exp(theta(|x|-|y|)
    - sum (e^{x_{i+1}-y_i} + e^{y_i-x_i}))."""
    e = theta * (sum(x) - sum(y))
    for i in range(len(x) - 1):
        e -= math.exp(x[i + 1] - y[i]) + math.exp(y[i] - x[i])
    return math.exp(e)


def verify_operator_identities(n: int, theta: float, grid: Sequence,
                               h: float = 1e-3) -> dict:
    """Residuals of both kernel intertwinings on a grid of (x, y) pairs,
    normalized by the kernel value."""
    res_nn, res_nnm1 = [], []
    for x, y in grid:
        x, y = tuple(x), tuple(y)
        k0 = q_nn(theta, x, y)
        lhs = h_b(lambda xv, _y=y: q_nn(theta, xv, _y), x, h)
        rhs = h_d_adjoint(lambda yv, _x=x: q_nn(theta, _x, yv), y, theta, h)
        res_nn.append(abs(lhs - rhs) / k0)
        y1 = y[:len(x) - 1] if len(y) >= len(x) else y
        k1 = q_nnm1(theta, x, y1)
        lhs1 = h_d(lambda xv, _y=y1: q_nnm1(theta, xv, _y), x, theta, h)
        lhs1 -= 0.5 * theta ** 2 * k1
        if len(y1) > 0:
            rhs1 = h_b(lambda yv, _x=x: q_nnm1(theta, _x, yv), y1, h)
        else:
            rhs1 = 0.0
        res_nnm1.append(abs(lhs1 - rhs1) / k1 if len(y1) else float("nan"))
    return {"nn_max": max(res_nn), "nnm1_max": max(res_nnm1)}


# ---------------------------------------------------------------------------
# the Phi family via kernel quadrature
# ---------------------------------------------------------------------------

def _box(x, pad: float = 12.0):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return float(xs.min() - pad), float(xs.max() + pad)


def phi(N: int, lam: Sequence[float], x, nodes: int = 600) -> float:
    """Phi^{(N)} at a single point by iterated kernel quadrature, N <= 4.
    Levels alternate via the two kernels, starting from Phi^{(1)} = e^{l1 x}."""
    if N == 1:
        xv = float(x[0]) if isinstance(x, (tuple, list, np.ndarray)) else float(x)
        return math.exp(lam[0] * xv)
    if N == 2:
        xv = float(x[0]) if isinstance(x, (tuple, list, np.ndarray)) else float(x)
        return float(_phi2_grid(lam[0], np.array([xv]), nodes)[0])
    if N == 3:
        x1, x2 = float(x[0]), float(x[1])
        lo, hi = _box([x1, x2])
        u = np.linspace(lo, hi, nodes)
        p2 = _phi2_grid(lam[0], u, nodes)
        ker = np.exp(lam[1] * (x1 + x2 - u) - np.exp(x2 - u) - np.exp(u - x1))
        return float(np.trapezoid(ker * p2, u))
    if N == 4:
        x1, x2 = float(x[0]), float(x[1])
        lo, hi = _box([x1, x2])
        nn = max(80, nodes // 4)
        u = np.linspace(lo, hi, nn)
        p3 = _phi3_grid(lam, u, u, nodes)
        y1 = u[:, None]
        y2 = u[None, :]
        ker = np.exp(lam[1] * (y1 + y2 - x1 - x2) - 2 * np.exp(-y2)
                     - np.exp(y1 - x1) - np.exp(y2 - x2) - np.exp(x2 - y1))
        inner = np.trapezoid(ker * p3, u, axis=1)
        return float(np.trapezoid(inner, u))
    raise ValueError("phi implemented for N <= 4 only")


def _phi2_grid(l1: float, xs: np.ndarray, nodes: int) -> np.ndarray:
    lo, hi = _box(xs)
    u = np.linspace(lo, hi, nodes)
    f = np.exp(l1 * (2 * u[None, :] - xs[:, None]) - 2 * np.exp(-u)[None, :]
               - np.exp(u[None, :] - xs[:, None]))
    return np.trapezoid(f, u, axis=1)


def _phi3_grid(lam, y1s: np.ndarray, y2s: np.ndarray, nodes: int) -> np.ndarray:
    """Phi^{(3)} on the product grid y1s x y2s."""
    lo, hi = _box([y1s.min(), y2s.min(), y1s.max(), y2s.max()])
    u = np.linspace(lo, hi, nodes)
    p2 = _phi2_grid(lam[0], u, nodes)
    a = y1s[:, None, None]
    b = y2s[None, :, None]
    c = u[None, None, :]
    ker = np.exp(lam[1] * (a + b - c) - np.exp(b - c) - np.exp(c - a))
    return np.trapezoid(ker * p2[None, None, :], u, axis=2)


def phi2_bessel(lam: float, x: float) -> float:
    """Closed form for phi(2): 2^lam * 2 K_{2 lam}(2 sqrt(2) e^{-x/2}).
    Derived by completing the square of the one-dimensional integral; it is
    the unique Bessel form that is also an eigenfunction of h_b."""
    from .limits import bessel_k
    return 2.0 ** lam * 2.0 * bessel_k(2 * lam, 2 * math.sqrt(2) * math.exp(-x / 2))


def grad_log_phi(N: int, lam: Sequence[float], x, h: float = 1e-3,
                 nodes: int = 600) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (math.log(phi(N, lam, xp, nodes))
                  - math.log(phi(N, lam, xm, nodes))) / (2 * h)
    return out


def phi_eigen_residual(n: int, lam: Sequence[float], x, h: float = 1e-3,
                       nodes: int = 600) -> float:
    """|H^B Phi^{(2n)} - (sum lam_i^2 / 2) Phi^{(2n)}| / Phi^{(2n)}."""
    N = 2 * n
    f = lambda xv: phi(N, lam, xv, nodes)
    val = phi(N, lam, x, nodes)
    ev = 0.5 * sum(l * l for l in lam)
    return abs(h_b(f, np.atleast_1d(x), h) - ev * val) / abs(val)


# ---------------------------------------------------------------------------
# SDE simulation on the triangular array
# ---------------------------------------------------------------------------

def _sde_drift(levels: list, bar: tuple) -> list:
    """Drift vector per level: Brownian drift plus interaction terms.  A
    level's coordinates run along its last axis; leading axes (one row per
    replica) broadcast, so 1-D levels give the drift of a single pattern."""
    out = []
    for k in range(1, len(levels) + 1):
        x = levels[k - 1]
        below = levels[k - 2] if k > 1 else None
        l = x.shape[-1]
        d = np.full(x.shape, float(bar[k - 1]))
        if k == 1:
            d[..., 0] += np.exp(-x[..., 0])
            out.append(d)
            continue
        d[..., 0] += np.exp(below[..., 0] - x[..., 0])
        for m in range(1, l):
            if k % 2 == 1 and m == l - 1:
                d[..., m] += np.exp(-x[..., m]) - np.exp(x[..., m] - below[..., m - 1])
            else:
                d[..., m] += (np.exp(below[..., m] - x[..., m])
                              - np.exp(x[..., m] - below[..., m - 1]))
        out.append(d)
    return out


def _max_abs(drift: list) -> np.ndarray:
    """Largest |drift| coordinate of each replica, over all levels."""
    return np.max([np.abs(d).max(axis=-1) for d in drift], axis=0)


def wedge_start(N: int, gap: float = 8.0, top: float = 0.0) -> list:
    """Near-minus-infinity proxy: within each level successive coordinates
    drop by gap, and each level sits gap below the one above it."""
    levels = []
    for k in range(1, N + 1):
        l = level_dim(k)
        base = top + (k - N) * gap
        levels.append(np.array([base - i * gap for i in range(l)]))
    return levels


def sde_simulate(N: int, params: ContinuousParams, x0: list, t: float,
                 h: float, replicas: int, seed: int,
                 max_substeps: int = 4096) -> dict:
    """Euler-Maruyama paths of all replicas as one batch; returns the
    bottom-level endpoints and the count of replicas flagged, either for a
    substep whose largest drift times the substep exceeds 50 or for a
    non-finite endpoint.

    All replicas share one grid of outer steps of length h.  At the start of
    each outer step a replica splits it into nsub equal substeps, nsub =
    ceil(2 max(1, step max|drift|)) capped at max_substeps; the substeps then
    advance in lockstep over the replicas that still have one left.  All
    draws come from one ``Philox(SeedSequence(seed))`` stream: each substep
    draws, over the replicas it advances, one block of standard normals of
    shape (replicas, level size) per level, level 1 first."""
    bar = params.drift_table(N)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    levels = [np.tile(np.asarray(lv, dtype=float), (replicas, 1)) for lv in x0]
    ok = np.ones(replicas, dtype=bool)
    clock = 0.0
    # exp overflows to inf on runaway paths, and inf - inf gives NaN drifts;
    # a non-finite largest drift fails the substep test, so those replicas
    # are flagged
    with np.errstate(over="ignore", invalid="ignore"):
        while clock < t - 1e-12:
            step = min(h, t - clock)
            live = np.flatnonzero(ok)
            scale = np.maximum(1.0, step * _max_abs(_sde_drift([lv[live] for lv in levels], bar)))
            nsub = np.fmin(max_substeps, np.maximum(1, np.ceil(2 * scale)))
            for s in range(int(nsub.max(initial=0))):
                busy = (nsub > s) & ok[live]
                rows, sub = live[busy], step / nsub[busy, None]
                x = [lv[rows] for lv in levels]
                drift = _sde_drift(x, bar)
                blown = ~(_max_abs(drift) * sub[:, 0] <= 50.0)
                ok[rows[blown]] = False
                rows, sub = rows[~blown], sub[~blown]
                for lv, xv, d in zip(levels, x, drift):
                    noise = rng.standard_normal((len(rows), lv.shape[1]))
                    lv[rows] = xv[~blown] + sub * d[~blown] + np.sqrt(sub) * noise
            clock += step
    for lv in levels:
        ok &= np.isfinite(lv).all(axis=1)
    return {"bottom": levels[N - 1][ok], "flagged": int(replicas - ok.sum())}


# ---------------------------------------------------------------------------
# polymer partition functions
# ---------------------------------------------------------------------------

def _bm_paths(rng, drifts: Sequence[float], t: float, steps: int,
              replicas: int) -> np.ndarray:
    """Brownian paths array of shape (len(drifts), replicas, steps+1)."""
    dt = t / steps
    inc = rng.standard_normal((len(drifts), replicas, steps)) * math.sqrt(dt)
    inc += np.asarray(drifts)[:, None, None] * dt
    paths = np.concatenate([np.zeros((len(drifts), replicas, 1)),
                            np.cumsum(inc, axis=2)], axis=2)
    return paths


def _log_trapz_weights(steps: int, dt: float) -> np.ndarray:
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = dt / 2
    return np.log(w)


def polymer_z(rng, N: int, lam: Sequence[float], t: float, steps: int,
              replicas: int) -> np.ndarray:
    """Z^N(t) samples: nested simplex integral via the running log-sum-exp
    recurrence I_k(t) = e^{b_k(t)} int_0^t e^{-b_k(s)} I_{k-1}(s) ds."""
    b = _bm_paths(rng, _drift_ladder(lam, N), t, steps, replicas)
    dt = t / steps
    logw = _log_trapz_weights(steps, dt)[None, :]
    log_i = np.zeros((replicas, steps + 1))
    for k in range(N):
        arg = log_i - b[k] + logw
        log_i = b[k] + np.logaddexp.accumulate(arg, axis=1)
    return log_i[:, -1]


def polymer_y_integral(rng, N: int, nu: Sequence[float], t: float, steps: int,
                       replicas: int) -> np.ndarray:
    """log int_0^t e^{Y^N(s)} ds samples, Y built on drifts nu."""
    g = _bm_paths(rng, nu, t, steps, replicas)
    dt = t / steps
    logw = _log_trapz_weights(steps, dt)[None, :]
    log_j = g[0]
    for k in range(1, N):
        arg = log_j - g[k] + logw
        log_j = g[k] + np.logaddexp.accumulate(arg, axis=1)
    return np.squeeze(np.logaddexp.reduce(log_j + logw, axis=1))


def polymer_identity_check(N: int, lam: Sequence[float], t: float,
                           replicas: int, seed: int,
                           steps: int = 512) -> dict:
    """Two-sample KS between Z^N(t) and log int_0^t e^{Y^N}: the reversed
    drift vector for Y is the drift ladder of Z read backwards."""
    nu = list(reversed(_drift_ladder(lam, N)))
    ss = np.random.SeedSequence(seed).spawn(2)
    z = polymer_z(np.random.Generator(np.random.Philox(ss[0])),
                  N, lam, t, steps, replicas)
    y = polymer_y_integral(np.random.Generator(np.random.Philox(ss[1])),
                           N, nu, t, steps, replicas)
    stat, pvalue = ks_2samp(z, y)
    return {"ks": float(stat), "pvalue": float(pvalue),
            "replicas": replicas, "steps": steps,
            "z_mean": float(np.mean(z)), "y_mean": float(np.mean(y)),
            "conditional": "distributional identity holds unconditionally; "
                           "links to pattern diffusions remain conjectural"}
