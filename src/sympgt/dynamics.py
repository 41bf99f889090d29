"""Continuous-time Markov dynamics on wall-restricted patterns: the cascade
process driven by edge clocks, the fully randomized process where every
particle carries its own clock, exact generator assembly for the bottom-level
shape chain, level-conditional initial sampling, and exact verification of
the intertwining identities that make the bottom level autonomous."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import INF, QSeriesCtx, Scalar, _f
from .characters import qwhittaker_recursion, slice_binomials
from .combinatorics import (
    GTPattern,
    canon,
    interlacings,
    level_len,
    padded,
    part,
    partitions_max_weight,
)


def _qpow(q: Scalar, e) -> Scalar:
    """q^e with q^infinity = 0."""
    if e == INF or e == math.inf:
        return 0
    return q ** int(e)


def _coord(v: Sequence[int], i: int):
    """1-based access with v_0 = +infinity and v_j = 0 past the end."""
    if i <= 0:
        return INF
    return v[i - 1] if i <= len(v) else 0


# ---------------------------------------------------------------------------
# jump probabilities / rates
# ---------------------------------------------------------------------------

def r_prob(ctx: QSeriesCtx, x: Sequence[int], y: Sequence[int], i: int) -> Scalar:
    """Push-right probability r_i(y;x) for upper level x over lower level y."""
    q = ctx.q
    num = _qpow(q, _coord(y, i) - _coord(x, i)) * (1 - _qpow(q, _coord(x, i - 1) - _coord(y, i)))
    den = 1 - _qpow(q, _coord(x, i - 1) - _coord(x, i))
    return num / den if den != 0 else 0


def l_prob(ctx: QSeriesCtx, x: Sequence[int], y: Sequence[int], i: int) -> Scalar:
    """Pull-left probability l_i(y;x) for upper level x over lower level y."""
    q = ctx.q
    num = _qpow(q, _coord(x, i) - _coord(y, i + 1)) * (1 - _qpow(q, _coord(y, i + 1) - _coord(x, i + 1)))
    den = 1 - _qpow(q, _coord(x, i) - _coord(x, i + 1))
    return num / den if den != 0 else 0


def R_rate(ctx: QSeriesCtx, upper: Sequence[int], cur: Sequence[int], j: int) -> Scalar:
    """Right-jump factor of particle j on a level with previous level `upper`."""
    q = ctx.q
    num = (1 - _qpow(q, _coord(upper, j - 1) - _coord(cur, j))) \
        * (1 - _qpow(q, _coord(cur, j) - _coord(cur, j + 1) + 1))
    den = 1 - _qpow(q, _coord(cur, j) - _coord(upper, j) + 1)
    return num / den if den != 0 else 0


def L_rate(ctx: QSeriesCtx, upper: Sequence[int], cur: Sequence[int], j: int) -> Scalar:
    """Left-jump factor of particle j on a level with previous level `upper`."""
    q = ctx.q
    num = (1 - _qpow(q, _coord(cur, j) - _coord(upper, j))) \
        * (1 - _qpow(q, _coord(cur, j - 1) - _coord(cur, j) + 1))
    den = 1 - _qpow(q, _coord(upper, j - 1) - _coord(cur, j) + 1)
    return num / den if den != 0 else 0


def bar_a(a: Sequence, k: int):
    """Interleaved rate vector: odd levels carry a_l, even levels 1/a_l."""
    l = (k + 1) // 2
    return a[l - 1] if k % 2 else 1 / a[l - 1]


# ---------------------------------------------------------------------------
# state and events
# ---------------------------------------------------------------------------

@dataclass
class PatternState:
    levels: list           # mutable list of lists, level k at index k-1
    clock: float = 0.0

    @property
    def N(self) -> int:
        return len(self.levels)

    def pattern(self) -> GTPattern:
        return GTPattern([tuple(lv) for lv in self.levels])

    def bottom(self) -> tuple:
        return canon(self.levels[-1])


@dataclass
class EventLogEntry:
    time: float
    level: int
    index: int
    direction: int          # +1 right, -1 left
    cause: str              # own-clock | push | pull


def zero_state(N: int) -> PatternState:
    return PatternState([[0] * level_len(k) for k in range(1, N + 1)])


# ---------------------------------------------------------------------------
# cascade dynamics (edge clocks only)
# ---------------------------------------------------------------------------

def _after_right(ctx, snap, levels, k, j, rng, log, t):
    """Particle (k, j) just moved right; propagate the move downward."""
    N = len(levels)
    if k == N:
        return
    if rng.random() < float(r_prob(ctx, snap[k - 1], snap[k], j)):
        levels[k][j - 1] += 1
        log.append(EventLogEntry(t, k + 1, j, +1, "push"))
        _after_right(ctx, snap, levels, k + 1, j, rng, log, t)
    else:
        _right_impulse(ctx, snap, levels, k + 1, j + 1, rng, log, t)


def _after_left(ctx, snap, levels, k, j, rng, log, t):
    """Particle (k, j) just moved left; trigger one lower neighbour left."""
    N = len(levels)
    if k == N:
        return
    if rng.random() < float(l_prob(ctx, snap[k - 1], snap[k], j)):
        levels[k][j] -= 1
        log.append(EventLogEntry(t, k + 1, j + 1, -1, "pull"))
        _after_left(ctx, snap, levels, k + 1, j + 1, rng, log, t)
    else:
        levels[k][j - 1] -= 1
        log.append(EventLogEntry(t, k + 1, j, -1, "pull"))
        _after_left(ctx, snap, levels, k + 1, j, rng, log, t)


def _right_impulse(ctx, snap, levels, k, j, rng, log, t):
    """Particle (k, j) attempts a right jump.  A wall particle (last index of
    an odd level) can be suppressed, converting the move into a left pull of
    the particle below; every other attempt succeeds."""
    N = len(levels)
    if k % 2 == 1 and j == (k + 1) // 2 and k < N:
        if rng.random() < float(r_prob(ctx, snap[k - 1], snap[k], j)):
            levels[k - 1][j - 1] += 1
            log.append(EventLogEntry(t, k, j, +1, "push"))
            levels[k][j - 1] += 1
            log.append(EventLogEntry(t, k + 1, j, +1, "push"))
            _after_right(ctx, snap, levels, k + 1, j, rng, log, t)
        else:
            levels[k][j - 1] -= 1
            log.append(EventLogEntry(t, k + 1, j, -1, "pull"))
            _after_left(ctx, snap, levels, k + 1, j, rng, log, t)
    else:
        levels[k - 1][j - 1] += 1
        log.append(EventLogEntry(t, k, j, +1, "push"))
        _after_right(ctx, snap, levels, k, j, rng, log, t)


def step_berele(state: PatternState, ctx: QSeriesCtx, a: Sequence[float],
                rng, log: Optional[list] = None) -> PatternState:
    """One exponential event of the cascade dynamics (N must be even): an
    edge particle fires and the push/pull cascade runs to the bottom."""
    N = state.N
    if N % 2:
        raise ValueError("cascade dynamics requires an even number of levels")
    rates = [float(bar_a(a, k)) for k in range(1, N + 1)]
    total = sum(rates)
    state.clock += rng.exponential(1.0 / total)
    u = rng.random() * total
    k = 1
    while u > rates[k - 1]:
        u -= rates[k - 1]
        k += 1
    if log is None:
        log = []
    snap = [list(lv) for lv in state.levels]
    log.append(EventLogEntry(state.clock, k, 1, +1, "own-clock"))
    _right_impulse(ctx, snap, state.levels, k, 1, rng, log, state.clock)
    return state


# ---------------------------------------------------------------------------
# fully randomized dynamics (a clock on every particle)
# ---------------------------------------------------------------------------

def randomized_rates(state: PatternState, ctx: QSeriesCtx, a: Sequence[float]) -> list:
    """All active jump rates as (rate, k, j, direction)."""
    out = []
    for k in range(1, state.N + 1):
        upper = state.levels[k - 2] if k > 1 else ()
        cur = state.levels[k - 1]
        ak = float(bar_a(a, k))
        for j in range(1, len(cur) + 1):
            r = ak * float(R_rate(ctx, upper, cur, j))
            if r > 0:
                out.append((r, k, j, +1))
            l = float(L_rate(ctx, upper, cur, j)) / ak
            if l > 0:
                out.append((l, k, j, -1))
    return out


def _apply_push_chain(state: PatternState, k: int, j: int, direction: int,
                      log: Optional[list], t: float, cause: str) -> None:
    """Move particle (k, j) and push lower particles that sat at the same
    position (same index for right moves, shifted index for left moves)."""
    levels = state.levels
    while True:
        old = levels[k - 1][j - 1]
        levels[k - 1][j - 1] += direction
        if log is not None:
            log.append(EventLogEntry(t, k, j, direction, cause))
        cause = "push"
        if k == state.N:
            return
        nxt = j if direction > 0 else j + 1
        below = levels[k]
        if nxt <= len(below) and below[nxt - 1] == old:
            k, j = k + 1, nxt
            continue
        return


def step_randomized(state: PatternState, ctx: QSeriesCtx, a: Sequence[float],
                    rng, log: Optional[list] = None) -> PatternState:
    """One event of the fully randomized dynamics via competing exponentials."""
    rates = randomized_rates(state, ctx, a)
    total = sum(r for r, *_ in rates)
    state.clock += rng.exponential(1.0 / total)
    u = rng.random() * total
    for r, k, j, direction in rates:
        if u <= r:
            _apply_push_chain(state, k, j, direction, log, state.clock, "own-clock")
            return state
        u -= r
    # numerical guard: take the last event
    r, k, j, direction = rates[-1]
    _apply_push_chain(state, k, j, direction, log, state.clock, "own-clock")
    return state


# ---------------------------------------------------------------------------
# character oracle
# ---------------------------------------------------------------------------

_char_cache: dict = {}


def _char(N: int, z, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Pattern character of N levels with bottom level z, evaluated at a.
    Even N is the rank-N/2 level recursion.  Odd N adds the unmatched slice
    between levels N-1 and N to the even character below it:
    sum_x a_n^{|z|-|x|} slice_binomials(N, x, z) char(N-1, x).

    Memoized in ``_char_cache`` under ``(N, z, q, exact, a, types of a)``:
    the exactness flag and the types keep exact and float values apart,
    since ``0.5 == Fraction(1, 2)`` and ``1.0 == Fraction(1)`` compare and
    hash equal."""
    if N == 0:
        return 1
    z = canon(z)
    pt = tuple(a[:(N + 1) // 2])
    key = (N, z, ctx.q, ctx.exact, pt, tuple(map(type, pt)))
    value = _char_cache.get(key)
    if value is None:
        if N % 2 == 0:
            value = qwhittaker_recursion(N // 2, z, ctx).evaluate(pt)
        else:
            top = padded(z, level_len(N))
            value = sum(_slice_weight(N, x, top, ctx, a) * _char(N - 1, x, ctx, a)
                        for x in interlacings(top, level_len(N - 1)))
        _char_cache[key] = value
    return value


def _slice_weight(N: int, lower, upper, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Lambda weight of the bottom slice (level N-1 over level N)."""
    return _f(bar_a(a, N)) ** (sum(upper) - sum(lower)) * slice_binomials(ctx, N, lower, upper)


# ---------------------------------------------------------------------------
# initial sampling
# ---------------------------------------------------------------------------

def sample_initial(z: Sequence[int], N: int, ctx: QSeriesCtx, a: Sequence[float],
                   rng) -> PatternState:
    """Exact draw from the normalized pattern weights with bottom level z, by
    sampling each level's conditional distribution from the bottom up."""
    levels = [padded(z, level_len(N))]
    for k in range(N, 1, -1):
        cur = levels[0]
        cands = list(interlacings(cur, level_len(k - 1)))
        weights = []
        for x in cands:
            w = float(bar_a(a, k)) ** (sum(cur) - sum(x)) \
                * float(slice_binomials(ctx, k, x, cur)) \
                * float(_char(k - 1, x, ctx, a))
            weights.append(w)
        tot = sum(weights)
        u = rng.random() * tot
        for x, w in zip(cands, weights):
            if u <= w:
                levels.insert(0, x)
                break
            u -= w
        else:
            levels.insert(0, cands[-1])
    st = PatternState([list(lv) for lv in levels])
    st.pattern().validate()
    return st


# ---------------------------------------------------------------------------
# bottom-level generator
# ---------------------------------------------------------------------------

@dataclass
class GeneratorMatrix:
    states: list                    # list of shape tuples
    index: dict                     # shape -> row number
    rows: list                      # list of dicts col -> rate (off-diagonal)
    diagonal: list
    boundary: list                  # True when the row touches the cap

    def dense(self) -> np.ndarray:
        n = len(self.states)
        Q = np.zeros((n, n))
        for i, row in enumerate(self.rows):
            for jdx, v in row.items():
                Q[i, jdx] = float(v)
            Q[i, i] = float(self.diagonal[i])
        return Q


def shape_rate(N: int, z: tuple, zp: tuple, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Off-diagonal bottom-level rate: character ratio times the one-box
    factor (zero unless the shapes differ by one box)."""
    l = level_len(N)
    z_p, zp_p = padded(z, l), padded(zp, l)
    diff = [b - c for b, c in zip(zp_p, z_p)]
    nz = [i for i, d in enumerate(diff) if d != 0]
    if len(nz) != 1 or abs(diff[nz[0]]) != 1:
        return 0
    i = nz[0] + 1
    q = ctx.q
    if diff[nz[0]] == 1:
        f = 1 - _qpow(q, _coord(z_p, i - 1) - z_p[i - 1])
    else:
        f = 1 - _qpow(q, z_p[i - 1] - _coord(z_p, i + 1))
    if f == 0:
        return 0
    return _char(N, zp, ctx, a) / _char(N, z, ctx, a) * f


def shape_diagonal(N: int, z: tuple, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    n = (N + 1) // 2
    if N % 2 == 0:
        return -sum(a[i] + 1 / _f(a[i]) for i in range(n))
    d = -sum(a[i] + 1 / _f(a[i]) for i in range(n - 1))
    return d - a[n - 1] - (1 - _qpow(ctx.q, part(z, n))) / _f(a[n - 1])


def build_generator(N: int, C: int, ctx: QSeriesCtx, a: Sequence) -> GeneratorMatrix:
    """Shape-chain generator on {z : z_1 <= C}; rows whose state touches the
    cap are flagged as boundary (their true exit rates exceed the truncated
    row)."""
    l = level_len(N)
    states = sorted(z for z in partitions_max_weight(l, C * l) if part(z, 1) <= C)
    index = {z: i for i, z in enumerate(states)}
    rows, diag, boundary = [], [], []
    for z in states:
        row = {}
        z_p = padded(z, l)
        for i in range(l):
            for s in (1, -1):
                zp = list(z_p)
                zp[i] += s
                if any(zp[j] < zp[j + 1] for j in range(l - 1)) or zp[-1] < 0:
                    continue
                zp_c = canon(zp)
                if zp_c not in index:
                    continue
                rate = shape_rate(N, z, zp_c, ctx, a)
                if rate != 0:
                    row[index[zp_c]] = row.get(index[zp_c], 0) + rate
        rows.append(row)
        diag.append(shape_diagonal(N, z, ctx, a))
        boundary.append(part(z, 1) >= C)
    return GeneratorMatrix(states, index, rows, diag, boundary)


# ---------------------------------------------------------------------------
# intertwining verification
# ---------------------------------------------------------------------------

def _m_two_level(N: int, x, y, ctx, a) -> Scalar:
    return _slice_weight(N, x, y, ctx, a) * _char(N - 1, x, ctx, a) / _char(N, y, ctx, a)


def _bump(v, i, s):
    w = list(v)
    w[i - 1] += s
    return tuple(w)


def _is_partition(v) -> bool:
    return all(v[i] >= v[i + 1] for i in range(len(v) - 1)) and v[-1] >= 0


def helper_row_randomized(N: int, x: tuple, y: tuple, ctx: QSeriesCtx, a: Sequence) -> dict:
    """Nonzero off-diagonal helper-matrix entries out of the two-level state
    (x, y), where x is the level above the bottom level y.  Covers both the
    even-bottom and odd-bottom tables."""
    n = (N + 1) // 2
    an = a[n - 1]
    lx = len(x)
    out: dict = {}

    def qrate(xp):
        return shape_rate(N - 1, canon(x), canon(xp), ctx, a)

    # moves of the upper shape x, driving y along when they collide
    for i in range(1, lx + 1):
        up = _bump(x, i, +1)
        if _is_partition(up):
            r = qrate(up)
            if r != 0:
                if part(y, i) == x[i - 1]:
                    tgt = (up, _bump(y, i, +1))
                else:
                    tgt = (up, y)
                out[tgt] = out.get(tgt, 0) + r
        dn = _bump(x, i, -1)
        if _is_partition(dn):
            r = qrate(dn)
            if r != 0:
                if i < len(y) and part(y, i + 1) == x[i - 1]:
                    tgt = (dn, _bump(y, i + 1, -1))
                else:
                    tgt = (dn, y)
                out[tgt] = out.get(tgt, 0) + r
    # own moves of the bottom level y
    aN = _f(bar_a(a, N))
    for i in range(1, len(y) + 1):
        r = aN * R_rate(ctx, x, y, i)
        if r != 0:
            out[(x, _bump(y, i, +1))] = out.get((x, _bump(y, i, +1)), 0) + r
        l = L_rate(ctx, x, y, i) / aN
        if l != 0:
            out[(x, _bump(y, i, -1))] = out.get((x, _bump(y, i, -1)), 0) + l
    return out


def helper_diag_randomized(N: int, x: tuple, y: tuple, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    n = (N + 1) // 2
    d = shape_diagonal(N - 1, canon(x), ctx, a)
    aN = _f(bar_a(a, N))
    for i in range(1, len(y) + 1):
        d = d - aN * R_rate(ctx, x, y, i) - L_rate(ctx, x, y, i) / aN
    return d


def verify_intertwining_randomized(N: int, probes: Sequence, ctx: QSeriesCtx,
                                   a: Sequence) -> list:
    """For each probe (x', y') check, for every bottom shape y reachable in
    one step from y' (and y = y'), the exact identity

        Q(y, y') m(x', y') = sum_x m(x, y) A((x, y), (x', y')).

    Returns a list of (probe, y, lhs, rhs, ok)."""
    results = []
    for xp, yp in probes:
        xp, yp = tuple(xp), tuple(yp)
        m_target = _m_two_level(N, xp, yp, ctx, a)
        ys = {tuple(padded(canon(yp), len(yp)))}
        for i in range(1, len(yp) + 1):
            for s in (1, -1):
                cand = _bump(yp, i, s)
                if _is_partition(cand):
                    ys.add(cand)
        for y in sorted(ys):
            if canon(y) == canon(yp):
                lhs = shape_diagonal(N, canon(y), ctx, a) * m_target
            else:
                lhs = shape_rate(N, canon(y), canon(yp), ctx, a) * m_target
            rhs: Scalar = 0
            for x in interlacings(padded(y, level_len(N)), level_len(N - 1)):
                m_src = _m_two_level(N, x, tuple(y), ctx, a)
                if (x, tuple(y)) == (xp, yp):
                    rhs = rhs + m_src * helper_diag_randomized(N, x, tuple(y), ctx, a)
                row = helper_row_randomized(N, x, tuple(y), ctx, a)
                rhs = rhs + m_src * row.get((xp, yp), 0)
            results.append(((xp, yp), tuple(y), lhs, rhs, lhs == rhs))
    return results


# --- cascade (three-level) helper ------------------------------------------

def helper_row_cascade(n: int, x: tuple, y: tuple, z: tuple, ctx: QSeriesCtx,
                       a: Sequence) -> dict:
    """Nonzero off-diagonal entries of the cascade helper matrix out of
    (x, y, z) with x of length n-1 and y, z of length n."""
    out: dict = {}

    def add(tgt, v):
        if v != 0:
            out[tgt] = out.get(tgt, 0) + v

    def qx(xp):
        return shape_rate(2 * (n - 1), canon(x), canon(xp), ctx, a)

    an = _f(a[n - 1])
    # upward moves of the collapsed lower block
    for i in range(1, n):
        up = _bump(x, i, +1)
        if _is_partition(up):
            r = qx(up)
            if r != 0:
                ri_yx = r_prob(ctx, x, y, i)
                add((up, _bump(y, i, +1), _bump(z, i, +1)), r * ri_yx * r_prob(ctx, y, z, i))
                add((up, _bump(y, i, +1), _bump(z, i + 1, +1)), r * ri_yx * (1 - r_prob(ctx, y, z, i)))
                if i + 1 < n:
                    add((up, _bump(y, i + 1, +1), _bump(z, i + 1, +1)),
                        r * (1 - ri_yx) * r_prob(ctx, y, z, i + 1))
                    add((up, _bump(y, i + 1, +1), _bump(z, i + 2, +1)),
                        r * (1 - ri_yx) * (1 - r_prob(ctx, y, z, i + 1)))
                else:
                    # the pulled particle is the wall of the odd level
                    add((up, _bump(y, n, +1), _bump(z, n, +1)),
                        r * (1 - ri_yx) * r_prob(ctx, y, z, n))
                    add((up, y, _bump(z, n, -1)),
                        r * (1 - ri_yx) * (1 - r_prob(ctx, y, z, n)))
        dn = _bump(x, i, -1)
        if _is_partition(dn):
            r = qx(dn)
            if r != 0:
                li_yx = l_prob(ctx, x, y, i)
                add((dn, _bump(y, i, -1), _bump(z, i, -1)),
                    r * (1 - li_yx) * (1 - l_prob(ctx, y, z, i)))
                add((dn, _bump(y, i, -1), _bump(z, i + 1, -1)),
                    r * (1 - li_yx) * l_prob(ctx, y, z, i))
                if i + 1 < n:
                    add((dn, _bump(y, i + 1, -1), _bump(z, i + 1, -1)),
                        r * li_yx * (1 - l_prob(ctx, y, z, i + 1)))
                    add((dn, _bump(y, i + 1, -1), _bump(z, i + 2, -1)),
                        r * li_yx * l_prob(ctx, y, z, i + 1))
                else:
                    add((dn, _bump(y, n, -1), _bump(z, n, -1)), r * li_yx)
    # edge clocks of the two bottom levels
    add((x, _bump(y, 1, +1), _bump(z, 1, +1)), an * r_prob(ctx, y, z, 1))
    add((x, _bump(y, 1, +1), _bump(z, 2, +1)), an * (1 - r_prob(ctx, y, z, 1)))
    add((x, y, _bump(z, 1, +1)), 1 / an)
    return {k: v for k, v in out.items() if v != 0}


def verify_intertwining_cascade(n: int, probes: Sequence, ctx: QSeriesCtx,
                                a: Sequence) -> list:
    """Exact check of the cascade helper identity for three-level probes
    (x', y', z'):  Q(z, z') m(x', y', z') = sum m(x, y, z) A(...)."""
    an = _f(a[n - 1])
    diag = -sum(_f(ai) + 1 / _f(ai) for ai in a[:n])
    results = []

    def m3(x, y, z):
        # weight of the two bottom slices over the collapsed block of rank n-1
        w = an ** (2 * sum(y) - sum(x) - sum(z)) \
            * slice_binomials(ctx, 2 * n - 1, x, y) * slice_binomials(ctx, 2 * n, y, z)
        return w * _char(2 * (n - 1), x, ctx, a) / _char(2 * n, z, ctx, a)

    for xp, yp, zp in probes:
        xp, yp, zp = tuple(xp), tuple(yp), tuple(zp)
        m_target = m3(xp, yp, zp)
        zs = {zp}
        for i in range(1, n + 1):
            for s in (1, -1):
                cand = _bump(zp, i, s)
                if _is_partition(cand):
                    zs.add(cand)
        for z in sorted(zs):
            if canon(z) == canon(zp):
                lhs = diag * m_target
            else:
                lhs = shape_rate(2 * n, canon(z), canon(zp), ctx, a) * m_target
            rhs: Scalar = 0
            for y in interlacings(z, n):
                for x in interlacings(y, n - 1):
                    m_src = m3(x, tuple(y), tuple(z))
                    if (x, tuple(y), tuple(z)) == (xp, yp, zp):
                        rhs = rhs + m_src * diag
                    row = helper_row_cascade(n, x, tuple(y), tuple(z), ctx, a)
                    rhs = rhs + m_src * row.get((xp, yp, zp), 0)
            results.append(((xp, yp, zp), tuple(z), lhs, rhs, lhs == rhs))
    return results


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    model: str                      # "berele" | "randomized"
    N: int
    a: tuple
    q: float
    t: float
    replicas: int
    seed: int
    start: tuple = ()               # bottom shape of the initial law
    truncation: int = 60


def simulate(config: SimConfig) -> dict:
    """Run independent replicas with per-replica splittable streams; returns
    a histogram {bottom shape: count} at time t."""
    if config.t <= 0:
        raise ValueError("time horizon must be positive")
    ctx = QSeriesCtx(config.q, truncation=config.truncation)
    step = step_berele if config.model == "berele" else step_randomized
    if config.model == "berele" and config.N % 2:
        raise ValueError("cascade model needs even N")
    hist: dict = {}
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicas)
    for ss in seeds:
        rng = np.random.Generator(np.random.Philox(ss))
        st = sample_initial(config.start, config.N, ctx, config.a, rng)
        while True:
            prev = [list(lv) for lv in st.levels]
            prev_clock = st.clock
            step(st, ctx, config.a, rng)
            if st.clock > config.t:
                st.levels = prev
                st.clock = prev_clock
                break
        key = st.bottom()
        hist[key] = hist.get(key, 0) + 1
    return hist
