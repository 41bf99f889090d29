"""Diffusion-level machinery: wall Toda operators, the Phi kernel family,
interacting SDEs on real patterns, and the polymer identity check.

The polymer identity holds path by path at every level, and
polymer_reversal_gap checks it so: Z, the top of the hierarchy of
partition functions, and Y, the integrated partition function of the
reversed drift ladder, run on the same normals.  Reversing time on each
path and renumbering the levels from the top maps Z's integral onto Y's
(the time reversal of Matsumoto-Yor, applied to every level), and the
trapezoid weights are symmetric under reversal, so the two agree to
rounding.  The sampler runs block-major: each block of paths draws its
levels in turn and runs the whole recurrence, keeping a running
log-integral between levels, except on the last level of Z, where only the
endpoint log I_N(t) is computed.  Every polymer draw comes from an SFC64
generator (_polymer_generator): the standard normals are most of the
sampler's cost, and SFC64 draws the same ziggurat normals as Philox about
a third faster."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .combinatorics import level_len
from .dynamics import _Layout


def _drift_ladder(lam: Sequence[float], N: int) -> tuple:
    """Drifts of levels 1..N: lam_i on level 2i-1 and -lam_i on level 2i."""
    return tuple(lam[(k - 1) // 2] * (1 if k % 2 else -1) for k in range(1, N + 1))


def _check_n_lambda_replicas(N: int, lam: Sequence[float], replicas: int) -> None:
    """The input checks that ``sde`` and ``polymer`` share, each naming its
    flag: N >= 1, a finite lam for every odd level up to N, and replicas >= 1."""
    if N < 1:
        raise ValueError(f"--N must be at least 1, got {N}")
    if len(lam) < level_len(N):
        raise ValueError(f"--lambda needs at least {level_len(N)} values for --N {N}, "
                         f"got {len(lam)}")
    if not all(math.isfinite(l) for l in lam):
        raise ValueError(f"--lambda entries must be finite, got {list(lam)}")
    if replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {replicas}")


# ---------------------------------------------------------------------------
# operators and kernels
# ---------------------------------------------------------------------------

# finite-difference step of every derivative below
_H = 1e-3


def central_derivatives(f: Callable, x: Sequence[float], i: int, f0: float) -> tuple:
    """First and second derivative of f along coordinate i at x, by 4th-order
    central differences over the points x + k _H e_i, k = -2..2; f0 = f(x)."""
    fk = []
    for k in (-2, -1, 1, 2):
        xp = np.array(x, dtype=float)
        xp[i] += k * _H
        fk.append(f(xp))
    m2, m1, p1, p2 = fk
    return ((m2 - 8 * m1 + 8 * p1 - p2) / (12 * _H),
            (-m2 + 16 * m1 - 30 * f0 + 16 * p1 - p2) / (12 * _H * _H))


def _toda(f: Callable, x: Sequence[float]) -> tuple:
    """(sum(d^2/dx_i^2)/2 - sum e^{x_{i+1}-x_i}) f at x, with f(x) and
    df/dx_n: the part h_b, h_d and h_d_adjoint share."""
    x = np.asarray(x, dtype=float)
    val = f(x)
    out = -np.exp(np.diff(x)).sum() * val
    for i in range(len(x)):
        d1, d2 = central_derivatives(f, x, i, val)
        out += 0.5 * d2
    return out, val, d1


def _h_b_and_value(f: Callable, x: Sequence[float]) -> tuple:
    """(h_b f, f) at x, from one _toda stencil."""
    out, val, _ = _toda(f, x)
    return out - math.exp(-x[-1]) * val, val


def h_b(f: Callable, x: Sequence[float]) -> float:
    """Wall Toda operator sum(d^2/dx_i^2)/2 - sum e^{x_{i+1}-x_i} - e^{-x_n}."""
    return _h_b_and_value(f, x)[0]


def h_d(f: Callable, x: Sequence[float], theta: float) -> float:
    """Operator sum(d^2/dx_i^2)/2 - sum e^{x_{i+1}-x_i} + e^{-x_n} d/dx_n
    - theta e^{-x_n}."""
    out, val, d1 = _toda(f, x)
    return out + math.exp(-x[-1]) * (d1 - theta * val)


def h_d_adjoint(f: Callable, y: Sequence[float], theta: float) -> float:
    """Lebesgue adjoint of h_d acting on y: the first-order term becomes
    -d/dy_n (e^{-y_n} f) = -e^{-y_n} (df/dy_n - f)."""
    out, val, d1 = _toda(f, y)
    return out - math.exp(-y[-1]) * (d1 + (theta - 1.0) * val)


def _log_q_nn_rest(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log_q_nn without its theta term, real for real x and y."""
    return (-2.0 * np.exp(-y[..., -1]) - np.exp(y - x).sum(-1)
            - np.exp(x[..., 1:] - y[..., :-1]).sum(-1))


def _log_q_nnm1_rest(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log_q_nnm1 without its theta term, real for real x and y."""
    return -(np.exp(x[..., 1:] - y) + np.exp(y - x[..., :-1])).sum(-1)


def log_q_nn(theta: float, x, y) -> np.ndarray:
    """Log of the kernel linking same-size levels: theta(|y|-|x|) - 2e^{-y_n}
    - sum e^{y_i-x_i} - sum e^{x_{i+1}-y_i}.  Coordinates run along the last
    axis; leading axes broadcast."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return theta * (y.sum(-1) - x.sum(-1)) + _log_q_nn_rest(x, y)


def log_q_nnm1(theta: float, x, y) -> np.ndarray:
    """Log of the kernel dropping one coordinate (x has n, y has n - 1):
    theta(|x|-|y|) - sum (e^{x_{i+1}-y_i} + e^{y_i-x_i}).  Coordinates run
    along the last axis; leading axes broadcast."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return theta * (x.sum(-1) - y.sum(-1)) + _log_q_nnm1_rest(x, y)


def verify_operator_identities(theta: float, grid: Sequence) -> dict:
    """Largest residuals of the kernel intertwinings on a grid of (x, y)
    pairs, normalized by the kernel value; rank 1 has no lower level, so no
    nnm1_max."""
    res_nn, res_nnm1 = [], []
    for x, y in grid:
        x, y = tuple(x), tuple(y)
        lhs = h_b(lambda xv: np.exp(log_q_nn(theta, xv, y)), x)
        rhs = h_d_adjoint(lambda yv: np.exp(log_q_nn(theta, x, yv)), y, theta)
        res_nn.append(abs(lhs - rhs) / np.exp(log_q_nn(theta, x, y)))
        y1 = y[:len(x) - 1]  # empty at rank 1, which has no lower level
        if y1:
            k1 = np.exp(log_q_nnm1(theta, x, y1))
            lhs1 = (h_d(lambda xv: np.exp(log_q_nnm1(theta, xv, y1)), x, theta)
                    - 0.5 * theta ** 2 * k1)
            rhs1 = h_b(lambda yv: np.exp(log_q_nnm1(theta, x, yv)), y1)
            res_nnm1.append(abs(lhs1 - rhs1) / k1)
    # np.max, unlike max, keeps a NaN residual
    out = {"nn_max": np.max(res_nn)}
    if res_nnm1:
        out["nnm1_max"] = np.max(res_nnm1)
    return out


def kernel_identity_residuals(n: int, theta: float) -> dict:
    """verify_operator_identities at rank n on the 25 pairs (x, y) over a
    5-point grid on [-1, 1]; at rank 2, x = (a, a - 0.7) and y = (b, b - 1.1)."""
    pts = [float(v) for v in np.linspace(-1.0, 1.0, 5)]
    if n == 1:
        grid = [((a,), (b,)) for a in pts for b in pts]
    else:
        grid = [((a, a - 0.7), (b, b - 1.1)) for a in pts for b in pts]
    return _in_double_range(theta, lambda: verify_operator_identities(theta, grid))


def _in_double_range(theta: float, residuals: Callable[[], dict]) -> dict:
    """residuals(), once theta and every residual are finite: a theta far
    from 0 takes Phi past the range of math.exp, or a kernel residual to
    inf or NaN."""
    if not math.isfinite(theta):
        raise ValueError(f"--theta must be finite, got {theta}")
    message = (f"--theta {theta} takes the values past double range; "
               "use a smaller --theta in absolute value")
    try:
        with np.errstate(all="ignore"):  # checked below
            out = residuals()
    except OverflowError:
        raise ValueError(message) from None
    if not all(math.isfinite(v) for v in out.values()):
        raise ValueError(message)
    return out


# ---------------------------------------------------------------------------
# the Phi family via kernel quadrature
# ---------------------------------------------------------------------------

# Per N, the interval that holds every coordinate of the points at which
# log_phi's quadrature error was measured; those points also have
# x_{i+1} <= x_i + 2.  Level 1 is e^{lam x}, exact anywhere.
_PHI_RANGE = {1: (-math.inf, math.inf), 2: (-12.5, 60.0), 3: (-12.5, 60.0), 4: (-2.0, 12.0)}


def _phi_point(N: int, lam: Sequence[float], x) -> np.ndarray:
    """x as a float vector, once 1 <= N <= 4, lam has at least level_len(N)
    entries and x is a point of level_len(N) coordinates in the measured
    region of _PHI_RANGE."""
    if not 1 <= N <= 4:
        raise ValueError(f"Phi^(N) is implemented for 1 <= N <= 4, not N = {N}")
    d = level_len(N)
    if len(lam) < d:
        raise ValueError(f"Phi^({N}) needs {d} lambda values, got {len(lam)}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise ValueError(f"Phi^({N}) takes a point of {d} coordinates, got {x.tolist()}")
    lo, hi = _PHI_RANGE[N]
    if not (lo <= x.min() and x.max() <= hi and (np.diff(x) <= 2.0).all()):
        raise ValueError(f"Phi^({N}) is measured at coordinates in [{lo}, {hi}] with "
                         f"x_(i+1) <= x_i + 2, not at {x.tolist()}")
    return x


def _product_grid(u: np.ndarray, logw: np.ndarray, d: int) -> tuple:
    """The d-fold product of the nodes u, one point per row, and the log
    trapezoid weight of each point."""
    idx = np.indices((len(u),) * d).reshape(d, -1).T
    return u[idx], logw[idx].sum(axis=1)


# Grid points per row block of a log_phi level: the (rows, len(pts)) kernel
# of one block is the largest array log_phi holds.  Keep it a multiple of
# 64: on OpenBLAS the complex-lam products a @ cos, a @ sin give the bits of
# the whole level at row blocks of 64 and 2000 but not of 1, 7, 333 or 655.
_PHI_ROWS = 256


def _log_row_sums(a: np.ndarray, col: np.ndarray, cos_sin) -> np.ndarray:
    """log sum_y e^{a_xy + col_y} per row x of the kernel block a, max-shifted
    per row; cos_sin holds cos and sin of col.imag when col is complex."""
    a += col.real
    top = a.max(axis=1)
    a -= top[:, None]
    np.exp(a, out=a)
    if cos_sin is None:
        total = a.sum(axis=1)
    else:
        total = a @ cos_sin[0] + 1j * (a @ cos_sin[1])
    return np.log(total) + top


def log_phi(N: int, lam: Sequence[complex], x) -> complex:
    """log Phi^{(N)}(x) by iterated kernel quadrature in log space, 1 <= N <= 4.

    Level 0 is the empty point with Phi^{(0)} = 1.  Level k follows from
    level k - 1 by q_nnm1 (k odd) or q_nn (k even) at theta = lam_{ceil(k/2)},
    so level 1 is e^{lam_1 x}.  Every level but the last is held on the
    product grid of one trapezoid node set, linspace(min(min x, 0) - 12,
    max x + 12, M): the lower levels lie below max x and above the wall
    near 0 or min x, whichever is lower.  Each integral is a max-shifted
    log-sum-exp, so no value underflows.  M = 1000 for N <= 3 and 100 at
    N = 4.  A level's kernel is formed _PHI_ROWS grid points at a time and
    only the level's log-values are kept, so the largest array is one
    (_PHI_ROWS, M) block: a call's traced peak is about 1 MiB at N = 4 and
    4 MiB at N = 3.

    theta enters either kernel only as +-theta (|x| - |y|), a row term plus a
    column term, so each level's grid holds the real rest of the kernel
    (``_log_q_nn_rest`` or ``_log_q_nnm1_rest``) plus the real part of the
    column term
    c_y = -+theta |y| + log f_y + lw_y.  Each row is shifted by its max and
    exponentiated once in reals; a complex lam then weights the terms by
    e^{i Im c_y}, and the row term +-theta |x| is added back after the log.
    So lam may be complex, and the value is then the complex log.

    Measured quadrature error, relative, on the region of _PHI_RANGE (other
    points raise ValueError).  Phi^{(2)} against its Bessel form, at 30
    points of [-12.5, 60] and lam = 0.8, 0.1, 3, 0.7i, 1.5i: within 1.4e-10,
    the worst at -12.5, and within 3e-12 for x >= -10.  Phi^{(3)} and
    Phi^{(4)}, against M doubled, at lam = (0.9, 0.4) and (0.7i, 0.3i) on
    grids of the region: within 4e-13 at N = 3; at N = 4 within 6e-8, the
    worst at (12, -2), within 3e-10 for x in [-1, 8]^2, and within 1e-13
    at the five points of the rank-2 eigen test.  Through
    limits.so_whittaker, rank 1 is within 1e-13 of mpmath's besselk at
    x = -10, -8, 0.5, 3, 12 and lam = 0.7i, 0.4, and rank 2 within 1.2e-14
    of tests/data/so_whittaker_reference.json."""
    x = _phi_point(N, lam, x)
    m = 1000 if N <= 3 else 100
    u = np.linspace(min(x.min(), 0.0) - 12.0, x.max() + 12.0, m)
    logw = _log_trapz_weights(m - 1, u[1] - u[0])
    pts, log_f, lw = np.zeros((1, 0)), np.zeros(1), np.zeros(1)
    for k in range(1, N + 1):
        at, lw_at = (x[None, :], None) if k == N else _product_grid(u, logw, level_len(k))
        # q_nnm1 (k odd) carries theta (|x| - |y|), q_nn (k even) theta (|y| - |x|)
        rest, sign = (_log_q_nnm1_rest, 1) if k % 2 else (_log_q_nn_rest, -1)
        theta = lam[(k - 1) // 2]
        col = log_f + lw - sign * theta * pts.sum(-1)
        cos_sin = (np.cos(col.imag), np.sin(col.imag)) if np.iscomplexobj(col) else None
        out = np.empty(len(at), dtype=col.dtype)
        for r in range(0, len(at), _PHI_ROWS):
            rows = at[r:r + _PHI_ROWS, None, :]
            out[r:r + _PHI_ROWS] = _log_row_sums(rest(rows, pts[None, :, :]), col, cos_sin)
        pts, log_f, lw = at, out + sign * theta * at.sum(-1), lw_at
    return log_f[0].item()


def phi(N: int, lam: Sequence[float], x) -> float:
    """Phi^{(N)}(x) = exp(log_phi(N, lam, x)), 1 <= N <= 4; see log_phi for
    the nodes, the box and the measured quadrature error."""
    return math.exp(log_phi(N, lam, x))


def phi2_bessel(lam: float, x: float) -> float:
    """Closed form for phi(2): 2^lam * 2 K_{2 lam}(2 sqrt(2) e^{-x/2}), that is
    2^lam so3_whittaker(lam, x - log 2), since shifting the variable by
    log 2 turns the wall term 2 e^{-y} into e^{-y}."""
    from .limits import so3_whittaker
    return 2.0 ** lam * so3_whittaker(lam, x - math.log(2.0))


def phi2_bessel_errors(lam: float) -> dict:
    """Relative error of phi(2) against phi2_bessel at the 11 points of
    linspace(-2, 3, 11), keyed by the point to one decimal."""
    def error(x: float) -> float:
        exact = phi2_bessel(lam, x)
        return abs(phi(2, (lam,), x) - exact) / abs(exact)
    return _in_double_range(lam, lambda: {f"{x:.1f}": error(float(x))
                                          for x in np.linspace(-2.0, 3.0, 11)})


def grad_log_phi(N: int, lam: Sequence[float], x) -> np.ndarray:
    """Gradient of log_phi at x by the 4th-order central_derivatives."""
    x = _phi_point(N, lam, x)
    f = lambda xv: log_phi(N, lam, xv)
    f0 = f(x)
    return np.array([central_derivatives(f, x, i, f0)[0] for i in range(len(x))])


def phi_eigen_residual(n: int, lam: Sequence[float], x) -> float:
    """|H^B Phi^{(2n)} - (sum lam_i^2 / 2) Phi^{(2n)}| / Phi^{(2n)}; the h_b
    stencil centre supplies Phi^{(2n)}(x), so it is evaluated once."""
    hb, val = _h_b_and_value(lambda xv: phi(2 * n, lam, xv), np.atleast_1d(x))
    return abs(hb - 0.5 * sum(l * l for l in lam) * val) / abs(val)


def phi_eigen_residuals(lam: float) -> dict:
    """phi_eigen_residual at rank 1 at x = -0.5, 0 and 1, keyed by str(x)."""
    return _in_double_range(lam, lambda: {str(x): phi_eigen_residual(1, (lam,), x)
                                          for x in (-0.5, 0.0, 1.0)})


# ---------------------------------------------------------------------------
# SDE simulation on the triangular array
# ---------------------------------------------------------------------------

def _sde_terms(lay: _Layout, lam: Sequence[float]) -> tuple:
    """The tables ``_sde_drift`` reads, one entry per particle (k, j) of the
    layout: the row of (k - 1, j), which is the 0 sentinel row where level
    k - 1 has no such particle; the row of (k - 1, j - 1), or at j = 1 the
    particle's own row; 1.0 where j >= 2, else 0.0; and the Brownian drift
    of level k.  The last two are columns, to broadcast over replicas."""
    k, j = lay.k, lay.j
    has_left = j > 1
    return (lay.col[k - 1, j], np.where(has_left, lay.col[k - 1, j - 1], np.arange(lay.P)),
            has_left[:, None].astype(float), np.array(_drift_ladder(lam, lay.N))[k - 1, None])


def _sde_drift(X: np.ndarray, terms: tuple) -> np.ndarray:
    """Drift of every particle of a batch X laid out by ``_Layout``, one row
    per particle and one column per replica, with ``terms`` from
    ``_sde_terms``: bar_k + e^(x(k-1, j) - x) - [j >= 2] e^(x - x(k-1, j-1)).
    Past the end of level k - 1 the first term is the wall term e^(-x).  At
    j = 1 the second term is 0.0 times e^0: an e^(-inf) there would be exact
    too, but numpy's exp runs several times slower on it."""
    below, below_left, has_left, bar = terms
    x = X[:len(below)]
    return (np.exp(X.take(below, axis=0) - x)
            - has_left * np.exp(x - X.take(below_left, axis=0)) + bar)


def wedge_start(N: int) -> list:
    """Near-minus-infinity proxy: within each level successive coordinates
    drop by 8, and each level sits 8 below the one above it; level N
    starts at 0."""
    levels = []
    for k in range(1, N + 1):
        l = level_len(k)
        base = (k - N) * 8.0
        levels.append(np.array([base - i * 8.0 for i in range(l)]))
    return levels


def sde_simulate(N: int, lam: Sequence[float], x0: list, t: float,
                 h: float, replicas: int, seed: int) -> dict:
    """Euler-Maruyama paths of all replicas as one batch; returns the
    bottom-level endpoints and the count of replicas flagged for a substep
    whose largest drift times the substep exceeds 50.  A substep moves only
    the replicas that pass that test, so from a finite start every endpoint
    is finite.

    The batch is one particle-major array of shape (P + 2, replicas) laid
    out by ``_Layout(N)``: particle (k, j) is row ``col[k, j]``, and the two
    sentinel rows follow.  All replicas share one grid of outer steps of
    length h.  At the start of each outer step a replica splits it into nsub
    equal substeps, nsub = ceil(2 max(1, step max|drift|)) capped at 4096,
    so always at least 2; the substeps then advance in lockstep over the
    replicas that still have one left.  All draws come from one
    ``Philox(SeedSequence(seed))`` stream: each substep draws one block of
    n P standard normals for the n replicas it advances, split level by
    level, level 1 first, into (n, level size) blocks read row-major.  That
    is the stream that one draw per level per substep consumed.

    Bad input raises a one-line ValueError: lam not strictly decreasing or
    not positive, and, naming the CLI flag, N < 1, fewer than ceil(N / 2)
    lam values, t < 0 or not finite, h <= 0 (the clock would never advance)
    or not finite, replicas < 1, or a start coordinate that is not finite;
    and x0 not of one vector of level_len(k) coordinates per level k = 1..N.
    At t = 0 the start is returned.  A run that flags every replica raises a
    one-line ValueError that names the start."""
    if any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("lam must be strictly decreasing")
    if lam[-1] <= 0:
        raise ValueError("lam must be positive")
    _check_n_lambda_replicas(N, lam, replicas)
    if not 0 <= t < math.inf:
        raise ValueError(f"--t must be nonnegative and finite, got {t}")
    if not 0 < h < math.inf:
        raise ValueError(f"--h must be positive and finite, got {h}")
    levels = [np.asarray(lv, dtype=float) for lv in x0]
    sizes = [(level_len(k),) for k in range(1, N + 1)]
    if [lv.shape for lv in levels] != sizes:
        raise ValueError(f"x0 needs levels of shapes {sizes} for N = {N}, "
                         f"got {[lv.shape for lv in levels]}")
    coords = np.concatenate(levels)
    if not np.isfinite(coords).all():
        raise ValueError(f"--start coordinates must be finite, got {coords.tolist()}")
    lay = _Layout(N)
    P, terms = lay.P, _sde_terms(lay, lam)
    # (row offset, size) of each level, in the order the noise is drawn
    blocks = [(lay.off[k], lay.lens[k]) for k in range(1, N + 1)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    X = np.ascontiguousarray(lay.empty(replicas).T)
    X[:P] = coords[:, None]
    ok = np.ones(replicas, dtype=bool)
    clock = 0.0
    # exp overflows to inf on runaway paths, and inf - inf gives NaN drifts;
    # a non-finite largest drift fails the substep test, so those replicas
    # are flagged
    with np.errstate(over="ignore", invalid="ignore"):
        # once every replica is flagged no step has any work
        while clock < t - 1e-12 and ok.any():
            step = min(h, t - clock)
            # Y carries the replicas of this step that have a substep left,
            # in replica order; it shrinks only when a replica runs out of
            # substeps or is flagged, and writes back to X as it shrinks, to
            # nothing when the step ends
            cols = ok.nonzero()[0]
            Y = X.take(cols, axis=1)
            drift = _sde_drift(Y, terms)
            top = np.abs(drift).max(axis=0)
            nsub = np.fmin(4096, np.ceil(2 * np.maximum(1.0, step * top)))
            sub = step / nsub
            root, last = np.sqrt(sub), nsub.max()
            s = 0
            while True:
                busy = nsub > s
                go = busy & (top * sub <= 50.0)
                keep = go.nonzero()[0]
                if len(keep) < len(cols):
                    ok[cols[busy & ~go]] = False
                    X[:, cols] = Y
                    Y, drift, top, cols, nsub, sub, root = (
                        a.take(keep, axis=-1) for a in (Y, drift, top, cols, nsub, sub, root))
                    if not cols.size:
                        break
                n = len(cols)
                noise = rng.standard_normal(n * P)
                Z = np.concatenate([noise[n * o:n * (o + l)].reshape(n, l).T for o, l in blocks])
                Y[:P] += sub * drift
                Y[:P] += root * Z
                s += 1
                # after the last substep no replica is busy and top goes unread
                if s < last:
                    drift = _sde_drift(Y, terms)
                    top = np.abs(drift).max(axis=0)
            clock += step
    if not ok.any():
        start = [np.asarray(lv, dtype=float).tolist() for lv in x0]
        raise ValueError(f"all {replicas} replicas were flagged: from the start {start} "
                         f"the drift outruns 4096 substeps of --h {h}; give a --start whose "
                         "level 1 sits nearer 0, where its wall drift e^(-x) is small")
    return {"bottom": np.ascontiguousarray(X[lay.level(N), ok].T),
            "flagged": int(replicas - ok.sum())}


# ---------------------------------------------------------------------------
# polymer partition functions
# ---------------------------------------------------------------------------

_BLOCK = 256
# time steps of every polymer path on [0, t]
_STEPS = 512
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


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """Row sums log(sum(exp(a))) of the real 2-D array ``a``, shifted by the
    row max m, so a row is exact at any width (the terms at m sum to at
    least 1); overwrites ``a``."""
    m = a.max(axis=1)
    a -= m[:, None]
    np.exp(a, out=a)
    return np.log(a.sum(axis=1)) + m


def _polymer_generator(seed) -> np.random.Generator:
    """The generator of every polymer draw: SFC64 seeded by ``seed``, an
    int or a SeedSequence.  Its ziggurat normals cost about two thirds of
    Philox's: 21M of them, drawn in (256, 512) blocks on one core of an
    Intel Xeon with numpy 2.4, take 0.26 s against 0.38 s."""
    return np.random.Generator(np.random.SFC64(seed))


def _polymer_samples(rng, drifts: Sequence[float], t: float, replicas: int,
                     integrated: bool) -> tuple:
    """Samples of the nested recurrence log I_k = b_k + log int_0^. e^{log
    I_{k-1} - b_k} (trapezoid in log space) over the levels b_k, and the
    count of rows that took the wide-row path of _log_cumsum_exp.

    Without ``integrated`` the recurrence starts at log I = 0 and the sample
    is log I_N(t); its last level computes only that endpoint, by one
    max-shifted log-sum-exp per row, and never takes the wide-row path.
    With ``integrated``, log I_1 = b_1 and the sample is
    log int_0^t e^{log I_N(s)} ds.  The replicas run _BLOCK at a time,
    block-major: a block draws level k's Brownian path (drift drifts[k],
    started at 0) for k = 1..N in turn and runs the whole recurrence before
    the next block starts, so the normals are those of one (levels, n,
    _STEPS) draw per block of n replicas, and only three (_BLOCK, _STEPS + 1)
    buffers and the output are held."""
    dt = t / _STEPS
    sqrt_dt = math.sqrt(dt)
    logw = _log_trapz_weights(_STEPS, dt)
    out = np.empty(replicas)
    noise = np.empty((_BLOCK, _STEPS))
    path = np.zeros((_BLOCK, _STEPS + 1))
    log_i = np.empty((_BLOCK, _STEPS + 1))
    last = len(drifts) - 1
    wide = 0
    for r0 in range(0, replicas, _BLOCK):
        n = min(_BLOCK, replicas - r0)
        rows, inc, b = log_i[:n], noise[:n], path[:n]
        rows[...] = 0.0
        for k, drift in enumerate(drifts):
            rng.standard_normal(out=inc)
            inc *= sqrt_dt
            inc += drift * dt
            if integrated and k == 0:
                np.cumsum(inc, axis=1, out=rows[:, 1:])  # log I_1 = b_1
                continue
            np.cumsum(inc, axis=1, out=b[:, 1:])
            rows -= b
            rows += logw
            if k == last and not integrated:
                out[r0:r0 + n] = _log_sum_exp(rows) + b[:, -1]
                continue
            wide += _log_cumsum_exp(rows)
            rows += b
        if integrated:
            rows += logw
            out[r0:r0 + n] = _log_sum_exp(rows)
    return out, wide


class _Replay:
    """Stands in for the Generator of _polymer_samples: each
    standard_normal(out=) call fills ``out`` with the next rows of a fixed
    array of normals and returns it."""

    def __init__(self, normals: np.ndarray):
        self._rows, self._at = normals, 0

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        out[...] = self._rows[self._at:self._at + len(out)]
        self._at += len(out)
        return out


def polymer_reversal_gap(N: int, lam: Sequence[float], t: float, paths: int,
                         seed: int) -> dict:
    """The polymer identity at level N, path by path.  Z^N(t) = log I_N(t) =
    log int exp sum_k [b_k(u_{k+1}) - b_k(u_k)] over 0 < u_1 < ... < u_N <
    u_{N+1} = t, b_k the Brownian path of level k with drift ladder[k], and
    the Y side log int_0^t e^{Y^N(s)} ds runs on the ladder read backwards.
    Y's level j is driven by Z's level N + 1 - j reversed in time: reversing
    time on each path and renumbering the levels from the top maps the one
    integral onto the other (at N = 1 the time reversal of Matsumoto-Yor),
    and the trapezoid weights are symmetric under reversal, so Z = Y on
    every path to rounding.  The paths run _BLOCK at a time: each block
    draws one (N, n, 512 steps) array of normals from
    ``SFC64(SeedSequence(seed))`` (see _polymer_generator), and both sides
    run on it through _Replay and _polymer_samples before the next block is
    drawn.  Returns ``paths``, the gap max |Z - Y|, ``relative_gap``, the
    gap over max(1, max |Z|), and ``stats``, the rows of both sides that
    took the wide-row path of the running log-sum-exp."""
    _check_n_lambda_replicas(N, lam, paths)
    if not 0 < t < math.inf:
        raise ValueError(f"--t must be positive and finite, got {t}")
    ladder = _drift_ladder(lam, N)
    rng = _polymer_generator(np.random.SeedSequence(seed))
    gap = top = 0.0
    wide = 0
    for r0 in range(0, paths, _BLOCK):
        n = min(_BLOCK, paths - r0)
        normals = rng.standard_normal((N, n, _STEPS))
        z, wide_z = _polymer_samples(_Replay(normals.reshape(-1, _STEPS)), ladder, t, n,
                                     integrated=False)
        y, wide_y = _polymer_samples(_Replay(normals[::-1, :, ::-1].reshape(-1, _STEPS)),
                                     ladder[::-1], t, n, integrated=True)
        gap = max(gap, float(np.abs(z - y).max()))
        top = max(top, float(np.abs(z).max()))
        wide += wide_z + wide_y
    return {"paths": paths, "gap": gap, "relative_gap": gap / max(1.0, top),
            "stats": {"wide_rows": wide}}
