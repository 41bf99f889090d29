"""Diffusion-level machinery: wall Toda operators, the Phi kernel family,
interacting SDEs on real patterns, and the polymer identity check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


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

_BLOCK = 256
# a row whose entries span more than this many e-folds underflows in
# exp(a - max); such rows keep the exact np.logaddexp.accumulate
_WIDE = 700.0


def _log_trapz_weights(steps: int, dt: float) -> np.ndarray:
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = dt / 2
    return np.log(w)


def _log_cumsum_exp(a: np.ndarray) -> int:
    """Replace each row of the 2-D array ``a`` by its running log-sum-exp
    log(cumsum(exp(a - m))) + m, m the row max, in place; rows wider than
    _WIDE (max - min) use np.logaddexp.accumulate instead.  Returns the
    number of such wide rows."""
    m = a.max(axis=1, keepdims=True)
    wide = np.flatnonzero(m[:, 0] - a.min(axis=1) > _WIDE)
    exact = np.logaddexp.accumulate(a[wide], axis=1)
    a -= m
    np.exp(a, out=a)
    np.cumsum(a, axis=1, out=a)
    with np.errstate(divide="ignore"):  # wide rows may underflow to log(0)
        np.log(a, out=a)
    a += m
    a[wide] = exact
    return len(wide)


def _polymer_samples(rng, drifts: Sequence[float], t: float, steps: int,
                     replicas: int, integrated: bool) -> tuple:
    """Samples of the nested recurrence log I_k = b_k + log int_0^. e^{log
    I_{k-1} - b_k} (trapezoid in log space) over the levels b_k, and the
    count of rows that took the wide-row path of _log_cumsum_exp.

    Without ``integrated`` the recurrence starts at log I = 0 and the sample
    is log I_N(t); with it, log I_1 = b_1 and the sample is
    log int_0^t e^{log I_N(s)} ds.  Level k's Brownian path (drift
    drifts[k], started at 0) is drawn _BLOCK replicas at a time, level-major
    then replica-major, so the normals are those of one (levels, replicas,
    steps) draw; only the running log-integral of shape (replicas, steps+1)
    is kept between levels."""
    dt = t / steps
    sqrt_dt = math.sqrt(dt)
    logw = _log_trapz_weights(steps, dt)
    log_i = np.zeros((replicas, steps + 1))
    noise = np.empty((_BLOCK, steps))
    path = np.zeros((_BLOCK, steps + 1))
    wide = 0
    for k, drift in enumerate(drifts):
        for r0 in range(0, replicas, _BLOCK):
            rows = log_i[r0:r0 + _BLOCK]
            inc, b = noise[:len(rows)], path[:len(rows)]
            rng.standard_normal(out=inc)
            inc *= sqrt_dt
            inc += drift * dt
            np.cumsum(inc, axis=1, out=b[:, 1:])
            if integrated and k == 0:
                rows[...] = b
                continue
            rows -= b
            rows += logw
            wide += _log_cumsum_exp(rows)
            rows += b
    if not integrated:
        return log_i[:, -1].copy(), wide  # a copy, so log_i can be freed
    # max-shifted log-sum-exp of the trapezoid terms, in place
    log_i += logw
    m = log_i.max(axis=1)
    log_i -= m[:, None]
    np.exp(log_i, out=log_i)
    return np.log(log_i.sum(axis=1)) + m, wide


def polymer_z(rng, N: int, lam: Sequence[float], t: float, steps: int,
              replicas: int) -> np.ndarray:
    """Z^N(t) samples: nested simplex integral via the running log-sum-exp
    recurrence I_k(t) = e^{b_k(t)} int_0^t e^{-b_k(s)} I_{k-1}(s) ds.

    Streamed: each level's Brownian increments are drawn and integrated
    _BLOCK replicas at a time, in the order of one (N, replicas, steps)
    normal draw, and only one (replicas, steps + 1) running log-integral
    lives between levels."""
    return _polymer_samples(rng, _drift_ladder(lam, N), t, steps, replicas,
                            integrated=False)[0]


def polymer_y_integral(rng, N: int, nu: Sequence[float], t: float, steps: int,
                       replicas: int) -> np.ndarray:
    """log int_0^t e^{Y^N(s)} ds samples, Y built on drifts nu (streamed as
    in polymer_z)."""
    return _polymer_samples(rng, nu[:N], t, steps, replicas, integrated=True)[0]


def polymer_identity_check(N: int, lam: Sequence[float], t: float,
                           replicas: int, seed: int,
                           steps: int = 512) -> dict:
    """Two-sample KS between Z^N(t) and log int_0^t e^{Y^N}: the reversed
    drift vector for Y is the drift ladder of Z read backwards.  ``stats``
    counts the rows, over both samples and all levels, that took the exact
    wide-row path of the running log-sum-exp."""
    if N < 1:
        raise ValueError(f"--N must be at least 1, got {N}")
    if len(lam) < level_dim(N):
        raise ValueError(f"--lambda needs at least {level_dim(N)} values for --N {N}, "
                         f"got {len(lam)}")
    if not t > 0:
        raise ValueError(f"--t must be positive, got {t}")
    if replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {replicas}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    # scipy.stats takes about 1 s to import, so only a KS test pays for it
    from scipy.stats import ks_2samp

    ladder = _drift_ladder(lam, N)
    ss = np.random.SeedSequence(seed).spawn(2)
    z, wide_z = _polymer_samples(np.random.Generator(np.random.Philox(ss[0])),
                                 ladder, t, steps, replicas, integrated=False)
    y, wide_y = _polymer_samples(np.random.Generator(np.random.Philox(ss[1])),
                                 ladder[::-1], t, steps, replicas, integrated=True)
    stat, pvalue = ks_2samp(z, y)
    return {"ks": float(stat), "pvalue": float(pvalue),
            "replicas": replicas, "steps": steps,
            "z_mean": float(np.mean(z)), "y_mean": float(np.mean(y)),
            "stats": {"wide_rows": wide_z + wide_y},
            "conditional": "distributional identity holds unconditionally; "
                           "links to pattern diffusions remain conjectural"}
