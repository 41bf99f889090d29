"""Continuous-time Markov dynamics on wall-restricted patterns: the cascade
process driven by edge clocks, the fully randomized process where every
particle carries its own clock (both simulated for all replicas at once, as
numpy batches), exact generator assembly for the bottom-level shape chain,
level-conditional initial sampling, and exact verification of the
intertwining identities that make the bottom level autonomous.

The shape chain is the Doob transform of the Pieri operator by the
character P: a one-box move z -> z' with Pieri coefficient c has rate
P(z') / P(z) c.  ``characters.pieri_coefficients`` is the only source of
one-box moves and their factors."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import INF, QSeriesCtx, Scalar, _f
from .characters import _char, _link, _slice_weight, bar_a, pieri_coefficients
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
    return INF if i <= 0 else part(v, i)


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


# ---------------------------------------------------------------------------
# replica batches
# ---------------------------------------------------------------------------

class _Layout:
    """Columns of a batch of N-level patterns, one replica per row.

    Particle (k, j), 1 <= j <= level_len(k), sits in column off[k] + j - 1.
    Two sentinel columns follow the P particles: column P holds +inf (the
    coordinate v_0) and column P + 1 holds 0 (coordinates past the end of a
    level), so ``col[k, i]`` turns every ``_coord(level k, i)`` into one
    gather.  Rows 0 and N + 1 of ``col`` stand for the empty levels around
    the pattern."""

    def __init__(self, N: int):
        self.N = N
        lens = [0] + [level_len(k) for k in range(1, N + 1)] + [0]
        self.lens = np.array(lens)
        self.off = np.concatenate(([0], np.cumsum(lens)))[:-1]
        self.P = P = sum(lens)
        self.inf, self.zero = P, P + 1
        self.col = np.full((N + 2, max(lens) + 2), self.zero)
        self.col[:, 0] = self.inf
        for k in range(1, N + 1):
            self.col[k, 1:lens[k] + 1] = self.off[k] + np.arange(lens[k])
        # level and index of every particle, in column order
        self.k = k = np.repeat(np.arange(1, N + 1), lens[1:N + 1])
        self.j = j = np.arange(P) - self.off[k] + 1
        # the particle a push reaches next: same index one level down for a
        # right move, next index for a left move; +inf where there is none,
        # since +inf never equals a coordinate
        self.below_right, self.below_left = (
            np.where(c == self.zero, self.inf, c)
            for c in (self.col[k + 1, j], self.col[k + 1, j + 1]))

    def level(self, k: int) -> slice:
        return slice(self.off[k], self.off[k] + self.lens[k])

    def empty(self, replicas: int) -> np.ndarray:
        """A batch with every particle at 0 and the sentinels set."""
        S = np.zeros((replicas, self.P + 2))
        S[:, self.inf] = math.inf
        return S

    def pattern(self, row) -> GTPattern:
        return GTPattern([row[self.level(k)] for k in range(1, self.N + 1)])


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den == 0, as in r_prob and l_prob."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _distinct_rows(rows: np.ndarray) -> tuple:
    """(distinct rows, index of each row's distinct row, counts): what
    ``np.unique(rows, axis=0, ...)`` returns, by a lexicographic argsort
    instead of its much slower sort of rows as structured records."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    group = np.empty(len(rows), dtype=int)
    group[order] = np.cumsum(first) - 1
    return rows[first], group, np.diff(np.append(np.flatnonzero(first), len(rows)))


def _event_rates(S: np.ndarray, lay: _Layout, ctx: QSeriesCtx, model: str,
                 a: Sequence[float]) -> np.ndarray:
    """Rates of the events of each replica (row) of S.

    Cascade model: the edge clock of level k rings at rate bar_a(a, k),
    whatever the state.  Randomized model: columns 0..P-1 are the right
    jumps a_k R_rate, columns P..2P-1 the left jumps L_rate / a_k of every
    particle, in the arithmetic order of R_rate and L_rate; q ** inf == 0
    plays the part of _qpow.  The denominators are 1 - q^e with e >= 1 on
    any valid pattern, so they never vanish."""
    ak = np.array([float(bar_a(a, k)) for k in range(1, lay.N + 1)])
    if model == "berele":
        return np.broadcast_to(ak, (len(S), lay.N))
    q, col, k, j = float(ctx.q), lay.col, lay.k, lay.j
    C, Cm, Cp = S[:, col[k, j]], S[:, col[k, j - 1]], S[:, col[k, j + 1]]
    Um, U = S[:, col[k - 1, j - 1]], S[:, col[k - 1, j]]
    right = (1 - q ** (Um - C)) * (1 - q ** (C - Cp + 1)) / (1 - q ** (C - U + 1))
    left = (1 - q ** (C - U)) * (1 - q ** (Cm - C + 1)) / (1 - q ** (Um - C + 1))
    return np.concatenate([ak[k - 1] * right, left / ak[k - 1]], axis=1)


def _push_chain(S: np.ndarray, lay: _Layout, c: np.ndarray, step: np.ndarray) -> None:
    """Move particle column c of each row by step (+1 or -1), and push the
    particle of the next level that sat at the same position (same index for
    right moves, next index for left moves), level by level."""
    rows = np.arange(len(S))
    while rows.size:
        old = S[rows, c]
        S[rows, c] = old + step
        nxt = np.where(step > 0, lay.below_right[c], lay.below_left[c])
        more = S[rows, nxt] == old
        rows, c, step = rows[more], nxt[more], step[more]


_IMPULSE, _AFTER_RIGHT, _AFTER_LEFT = 0, 1, 2


def _cascade(S: np.ndarray, lay: _Layout, ctx: QSeriesCtx, level: np.ndarray, rng) -> None:
    """Right impulse of particle (level, 1) in each row of S, with the
    push/pull cascade run to the bottom level.

    Each row carries a state (impulse / after-right / after-left, k, j) that
    moves down at most one level per iteration:

    * impulse at (k, j): a wall particle (last index of an odd level k < N)
      draws a uniform against r_prob; on success (k, j) and (k+1, j) move
      right and the state is after-right at (k+1, j), on failure (k+1, j)
      moves left and the state is after-left at (k+1, j).  Any other particle
      moves right and the state is after-right at (k, j).
    * after-right at (k < N, j): on a uniform below r_prob, (k+1, j) moves
      right and the state is after-right at (k+1, j); otherwise it is an
      impulse at (k+1, j+1).
    * after-left at (k < N, j): on a uniform below l_prob, (k+1, j+1) moves
      left and the state is after-left at (k+1, j+1); otherwise (k+1, j)
      moves left and the state is after-left at (k+1, j).

    Probabilities are read from a snapshot taken before the event.  Each
    iteration draws ``rng.random(n)`` once, one uniform per row that needs
    one, in row order."""
    N, col, q = lay.N, lay.col, float(ctx.q)
    snap = S.copy()
    rows = np.arange(len(S))
    k = np.asarray(level)
    j = np.ones_like(k)
    mode = np.full_like(k, _IMPULSE)
    while rows.size:
        going = (mode == _IMPULSE) | (k < N)
        rows, k, j, mode = rows[going], k[going], j[going], mode[going]
        impulse = mode == _IMPULSE
        wall = impulse & (k % 2 == 1) & (j == lay.lens[k]) & (k < N)
        draws = wall | ~impulse
        u = np.ones(len(rows))
        u[draws] = rng.random(int(draws.sum()))
        # r_prob(level k, level k+1, j) and l_prob(level k, level k+1, j);
        # q^e only where e >= 0, as the rows with e < 0 never read theirs
        x = lambda i: snap[rows, col[k, j + i]]
        y = lambda i: snap[rows, col[k + 1, j + i]]
        qe = lambda e: np.power(q, e, out=np.zeros_like(e), where=e >= 0)
        r = _ratio(qe(y(0) - x(0)) * (1 - qe(x(-1) - y(0))), 1 - qe(x(-1) - x(0)))
        l = _ratio(qe(x(0) - y(1)) * (1 - qe(y(1) - x(1))), 1 - qe(x(0) - x(1)))
        right, left = mode == _AFTER_RIGHT, mode == _AFTER_LEFT
        ok = u < np.where(left, l, r)
        here, there = col[k, j], col[k + 1, j]
        moved = impulse & (~wall | ok)
        S[rows[moved], here[moved]] += 1
        moved = (wall | right) & ok
        S[rows[moved], there[moved]] += 1
        moved = (wall | left) & ~ok
        S[rows[moved], there[moved]] -= 1
        moved = left & ok
        S[rows[moved], col[k[moved] + 1, j[moved] + 1]] -= 1
        mode = np.where(impulse, np.where(wall & ~ok, _AFTER_LEFT, _AFTER_RIGHT),
                        np.where(right & ~ok, _IMPULSE, mode))
        j = j + ((right & ~ok) | (left & ok))
        k = k + draws


def _apply_events(S: np.ndarray, lay: _Layout, ctx: QSeriesCtx, model: str,
                  cum: np.ndarray, rng) -> None:
    """One event in each row of S, chosen by inverse CDF on the row's
    cumulative rates ``cum`` with one uniform per row: the first event whose
    cumulative rate exceeds the uniform times the total, so a zero-rate event
    is never chosen."""
    total = cum[:, -1]
    # a uniform just below 1 times total can round up to total
    u = np.minimum(rng.random(len(S)) * total, np.nextafter(total, 0))
    event = (cum <= u[:, None]).sum(axis=1)
    if model == "berele":
        _cascade(S, lay, ctx, event + 1, rng)
    else:
        _push_chain(S, lay, event % lay.P, np.where(event < lay.P, 1, -1))


# ---------------------------------------------------------------------------
# initial sampling
# ---------------------------------------------------------------------------

def sample_initial(z: Sequence[int], N: int, ctx: QSeriesCtx, a: Sequence[float],
                   rng, replicas: int) -> np.ndarray:
    """Exact draws of `replicas` patterns from the normalized pattern weights
    with bottom level z, as a batch laid out by ``_Layout(N)``: each level's
    conditional law given the level below it, from the bottom up.

    For each level N-1, ..., 1 in turn, one uniform per replica is drawn.
    Replicas are grouped by their current row; each group's candidate
    weights are computed once, and a replica takes the first candidate whose
    cumulative weight reaches its uniform times the total.  Every distinct
    pattern drawn is validated."""
    lay = _Layout(N)
    S = lay.empty(replicas)
    S[:, lay.level(N)] = padded(z, level_len(N))
    for k in range(N, 1, -1):
        u = rng.random(replicas)
        tops, group, _ = _distinct_rows(S[:, lay.level(k)])
        for g, top in enumerate(map(tuple, tops.astype(int).tolist())):
            cands = list(interlacings(top, level_len(k - 1)))
            cum = np.cumsum([float(_slice_weight(k, x, top, ctx, a) * _char(k - 1, x, ctx, a))
                             for x in cands])
            members = np.flatnonzero(group == g)
            pick = np.searchsorted(cum, u[members] * cum[-1], side="left")
            S[members, lay.level(k - 1)] = np.array(cands)[np.minimum(pick, len(cands) - 1)]
    for row in _distinct_rows(S)[0]:
        lay.pattern(row).validate()
    return S


# ---------------------------------------------------------------------------
# bottom-level generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeLaw:
    """A law of the bottom shape: ``table`` maps each shape to its
    probability, ``error`` bounds the total mass by which ``table`` can be
    off, ``noise`` maps shapes to their noise floor (empty where the producer
    has none) and ``stats`` holds what the producer counted."""
    table: dict
    error: float
    noise: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def tv(self, other: "ShapeLaw") -> float:
        """Total variation 1/2 sum |p - p'| over the union of the supports."""
        return 0.5 * sum(abs(self.table.get(z, 0.0) - other.table.get(z, 0.0))
                         for z in set(self.table) | set(other.table))

    def mean(self, f: Callable) -> float:
        """sum_z f(z) p_z."""
        return sum(f(z) * p for z, p in self.table.items())


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

    def transient(self, t: float, start) -> ShapeLaw:
        """Row ``start`` (a shape) of expm(t Q), by uniformization: with
        Lambda = max |Q_ii| and P = I + Q / Lambda, expm(t Q) is the Poisson
        mixture sum_n e^{-Lambda t} (Lambda t)^n / n! P^n, and a row vector
        is carried through v <- v P.  The sum stops at the first n >= Lambda t
        at which the Poisson mass past n, bounded by w_n Lambda t /
        (n + 1 - Lambda t), is below 1e-16.  When Lambda t > 500, t is split
        into ceil(Lambda t / 500) equal pieces, so e^{-Lambda t} never
        underflows.  Boundary rows leak mass, which only makes P
        substochastic: the law's ``error`` is that leaked mass, 1 - sum v."""
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        Q = self.dense()
        v = np.zeros(len(self.states))
        v[self.index[start]] = 1.0
        lam = float(-Q.diagonal().min(initial=0.0))
        if lam * t > 0:
            P = Q / lam
            P[np.diag_indices_from(P)] += 1
            pieces = math.ceil(lam * t / 500)
            lt = lam * t / pieces
            for _ in range(pieces):
                w = math.exp(-lt)
                term, v = v, w * v
                n = 0
                while n < lt or w * lt / (n + 1 - lt) >= 1e-16:
                    n += 1
                    term = term @ P
                    w *= lt / n
                    v += w * term
        return ShapeLaw(dict(zip(self.states, v)), max(0.0, 1.0 - float(v.sum())))


def _moves(N: int, z, ctx: QSeriesCtx):
    """The one-box moves out of shape z at level N: (i, s, z', c) with
    z' = z + s e_i padded to level_len(N) and c its Pieri coefficient.  The
    coefficient of a move off the partition cone is zero, and
    ``pieri_coefficients`` leaves it out, so every z' is a partition."""
    z_p = padded(z, level_len(N))
    for (i, s), c in pieri_coefficients(len(z_p), z_p, ctx).items():
        zp = list(z_p)
        zp[i - 1] += s
        yield i, s, tuple(zp), c


def _rate(N: int, z, zp, c: Scalar, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Shape-chain rate of the move z -> zp with Pieri coefficient c: the
    Doob transform P(zp) / P(z) c of the Pieri operator by the character."""
    return _char(N, zp, ctx, a) / _char(N, z, ctx, a) * c


def shape_rate(N: int, z: tuple, zp: tuple, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Off-diagonal bottom-level rate of z -> zp: zero unless zp is one of
    the one-box moves out of z."""
    zp = padded(zp, level_len(N))
    return next((_rate(N, z, w, c, ctx, a) for _, _, w, c in _moves(N, z, ctx) if w == zp), 0)


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
        for _, _, zp, c in _moves(N, z, ctx):
            j = index.get(canon(zp))
            # no character is evaluated for a move past the cap
            if j is not None:
                row[j] = _rate(N, z, zp, c, ctx, a)
        rows.append(row)
        diag.append(shape_diagonal(N, z, ctx, a))
        boundary.append(part(z, 1) >= C)
    return GeneratorMatrix(states, index, rows, diag, boundary)


# ---------------------------------------------------------------------------
# intertwining verification
# ---------------------------------------------------------------------------

def _bump(v, i, s):
    return (*v[:i - 1], v[i - 1] + s, *v[i:])


def _add(out: dict, tgt, v) -> None:
    """Add a nonzero rate v to the entry tgt of the helper row out."""
    if v != 0:
        out[tgt] = out.get(tgt, 0) + v


def _check_level(name: str, v: tuple, length: int) -> None:
    if len(v) != length:
        raise ValueError(f"level {name} must have length {length}, got {tuple(v)}")


def helper_row_randomized(N: int, x: tuple, y: tuple, ctx: QSeriesCtx, a: Sequence) -> dict:
    """Nonzero off-diagonal helper-matrix entries out of the two-level state
    (x, y), where x is the level above the bottom level y, with
    level_len(N - 1) and level_len(N) parts.  Covers both the even-bottom
    and odd-bottom tables."""
    _check_level("x", x, level_len(N - 1))
    _check_level("y", y, level_len(N))
    out: dict = {}
    # moves of the upper shape x, driving y along when they collide
    for i, s, xp, c in _moves(N - 1, x, ctx):
        if s > 0 and part(y, i) == x[i - 1]:
            tgt = (xp, _bump(y, i, +1))
        elif s < 0 and i < len(y) and part(y, i + 1) == x[i - 1]:
            tgt = (xp, _bump(y, i + 1, -1))
        else:
            tgt = (xp, y)
        _add(out, tgt, _rate(N - 1, x, xp, c, ctx, a))
    # own moves of the bottom level y
    aN = bar_a(a, N)
    for i in range(1, len(y) + 1):
        _add(out, (x, _bump(y, i, +1)), aN * R_rate(ctx, x, y, i))
        _add(out, (x, _bump(y, i, -1)), L_rate(ctx, x, y, i) / aN)
    return out


def helper_diag_randomized(N: int, x: tuple, y: tuple, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    _check_level("x", x, level_len(N - 1))
    _check_level("y", y, level_len(N))
    d = shape_diagonal(N - 1, canon(x), ctx, a)
    aN = bar_a(a, N)
    for i in range(1, len(y) + 1):
        d = d - aN * R_rate(ctx, x, y, i) - L_rate(ctx, x, y, i) / aN
    return d


def _verify_intertwining(N: int, probes: Sequence, ctx: QSeriesCtx, a: Sequence,
                         m, sources, row, diagonal) -> list:
    """The exact identity Q(b, b') m(s') = sum_{s in sources(b)} m(s) A(s, s')
    for each probe s' with bottom level b' and each b in {b'} and the moves
    out of b', where A is the helper matrix with off-diagonal row(*s) and
    diagonal diagonal(*s).  Returns a list of (s', b, lhs, rhs, ok).

    A source serves many (s', b) pairs, so m, row and diagonal are
    computed at most once per source within one call; the cached rows are
    only read, never changed."""
    m, row, diagonal = map(functools.cache, (m, row, diagonal))
    results = []
    for probe in probes:
        probe = tuple(map(tuple, probe))
        bp = probe[-1]
        m_target = m(*probe)
        for b in sorted({bp, *(w for _, _, w, _ in _moves(N, bp, ctx))}):
            lhs = (shape_diagonal(N, canon(b), ctx, a) if b == bp
                   else shape_rate(N, canon(b), canon(bp), ctx, a)) * m_target
            rhs: Scalar = 0
            for src in sources(b):
                m_src = m(*src)
                if src == probe:
                    rhs = rhs + m_src * diagonal(*src)
                rhs = rhs + m_src * row(*src).get(probe, 0)
            results.append((probe, b, lhs, rhs, lhs == rhs))
    return results


def verify_intertwining_randomized(N: int, probes: Sequence, ctx: QSeriesCtx,
                                   a: Sequence) -> list:
    """For each probe (x', y') check, for every bottom shape y reachable in
    one step from y' (and y = y'), the exact identity

        Q(y, y') m(x', y') = sum_x m(x, y) A((x, y), (x', y')).

    Returns a list of (probe, y, lhs, rhs, ok)."""
    return _verify_intertwining(
        N, probes, ctx, a,
        m=lambda x, y: _link(N, x, y, ctx, a),
        sources=lambda y: ((x, y) for x in interlacings(y, level_len(N - 1))),
        row=lambda x, y: helper_row_randomized(N, x, y, ctx, a),
        diagonal=lambda x, y: helper_diag_randomized(N, x, y, ctx, a))


# --- cascade (three-level) helper ------------------------------------------

def helper_row_cascade(n: int, x: tuple, y: tuple, z: tuple, ctx: QSeriesCtx,
                       a: Sequence) -> dict:
    """Nonzero off-diagonal entries of the cascade helper matrix out of
    (x, y, z) with x of length n-1 and y, z of length n."""
    _check_level("x", x, n - 1)
    _check_level("y", y, n)
    _check_level("z", z, n)
    out: dict = {}
    add = functools.partial(_add, out)
    an = _f(a[n - 1])
    # moves of the collapsed lower block
    for i, s, xp, c in _moves(2 * (n - 1), x, ctx):
        r = _rate(2 * (n - 1), x, xp, c, ctx, a)
        if s > 0:
            ri_yx = r_prob(ctx, x, y, i)
            add((xp, _bump(y, i, +1), _bump(z, i, +1)), r * ri_yx * r_prob(ctx, y, z, i))
            add((xp, _bump(y, i, +1), _bump(z, i + 1, +1)), r * ri_yx * (1 - r_prob(ctx, y, z, i)))
            if i + 1 < n:
                add((xp, _bump(y, i + 1, +1), _bump(z, i + 1, +1)),
                    r * (1 - ri_yx) * r_prob(ctx, y, z, i + 1))
                add((xp, _bump(y, i + 1, +1), _bump(z, i + 2, +1)),
                    r * (1 - ri_yx) * (1 - r_prob(ctx, y, z, i + 1)))
            else:
                # the pulled particle is the wall of the odd level
                add((xp, _bump(y, n, +1), _bump(z, n, +1)),
                    r * (1 - ri_yx) * r_prob(ctx, y, z, n))
                add((xp, y, _bump(z, n, -1)),
                    r * (1 - ri_yx) * (1 - r_prob(ctx, y, z, n)))
        else:
            li_yx = l_prob(ctx, x, y, i)
            add((xp, _bump(y, i, -1), _bump(z, i, -1)),
                r * (1 - li_yx) * (1 - l_prob(ctx, y, z, i)))
            add((xp, _bump(y, i, -1), _bump(z, i + 1, -1)),
                r * (1 - li_yx) * l_prob(ctx, y, z, i))
            if i + 1 < n:
                add((xp, _bump(y, i + 1, -1), _bump(z, i + 1, -1)),
                    r * li_yx * (1 - l_prob(ctx, y, z, i + 1)))
                add((xp, _bump(y, i + 1, -1), _bump(z, i + 2, -1)),
                    r * li_yx * l_prob(ctx, y, z, i + 1))
            else:
                add((xp, _bump(y, n, -1), _bump(z, n, -1)), r * li_yx)
    # edge clocks of the two bottom levels
    add((x, _bump(y, 1, +1), _bump(z, 1, +1)), an * r_prob(ctx, y, z, 1))
    add((x, _bump(y, 1, +1), _bump(z, 2, +1)), an * (1 - r_prob(ctx, y, z, 1)))
    add((x, y, _bump(z, 1, +1)), 1 / an)
    return {k: v for k, v in out.items() if v != 0}


def verify_intertwining_cascade(n: int, probes: Sequence, ctx: QSeriesCtx,
                                a: Sequence) -> list:
    """Exact check of the cascade helper identity for three-level probes
    (x', y', z'):  Q(z, z') m(x', y', z') = sum m(x, y, z) A(...), with m
    the two links from the bottom level z to y and from y to x."""
    return _verify_intertwining(
        2 * n, probes, ctx, a,
        m=lambda x, y, z: _link(2 * n, y, z, ctx, a) * _link(2 * n - 1, x, y, ctx, a),
        sources=lambda z: ((x, y, z) for y in interlacings(z, n)
                           for x in interlacings(y, n - 1)),
        row=lambda x, y, z: helper_row_cascade(n, x, y, z, ctx, a),
        diagonal=lambda x, y, z: shape_diagonal(2 * n, canon(z), ctx, a))


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


def simulate(config: SimConfig) -> dict:
    """Run `config.replicas` independent replicas as one batch; returns a
    histogram {bottom shape: count} at time t.

    All draws come from one ``Philox(SeedSequence(config.seed))`` stream, in
    this order: ``sample_initial`` draws the initial patterns; then each
    round, over the replicas still running, draws one standard exponential
    per replica (its waiting time is that draw over its total rate), retires
    the replicas whose clock passes t with their state unchanged, and draws
    one uniform per remaining replica to pick its event; the cascade then
    draws its uniforms level by level (see ``_cascade``).  The same seed and
    config give the same histogram."""
    if config.t <= 0:
        raise ValueError("time horizon must be positive")
    if config.model == "berele" and config.N % 2:
        raise ValueError("cascade model needs even N")
    ctx = QSeriesCtx(config.q)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    lay = _Layout(config.N)
    S = sample_initial(config.start, config.N, ctx, config.a, rng, config.replicas)
    clock = np.zeros(len(S))
    finished = [S[:0, lay.level(config.N)]]     # zero replicas: an empty histogram
    while len(S):
        cum = np.cumsum(_event_rates(S, lay, ctx, config.model, config.a), axis=1)
        clock += rng.standard_exponential(len(S)) / cum[:, -1]
        running = clock <= config.t
        finished.append(S[~running][:, lay.level(config.N)])
        S, clock, cum = S[running], clock[running], cum[running]
        _apply_events(S, lay, ctx, config.model, cum, rng)
    shapes, _, counts = _distinct_rows(np.concatenate(finished))
    return {canon(z): int(c) for z, c in zip(shapes, counts)}
