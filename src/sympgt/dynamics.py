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
from .characters import _char, _link, _slice_weight, bar_a, check_rates, pieri_coefficients
from .combinatorics import (
    GTPattern,
    _chains,
    canon,
    interlacings,
    level_len,
    padded,
    part,
    partitions_max_weight,
)


def _qpow(q: Scalar, e) -> Scalar:
    """q^e with q^infinity = 0."""
    if e == INF:
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

# rows of a batch whose event rates are held at once: with them, a round
# holds S, its clock and one wait per row, not (rows, events) arrays
_CHUNK = 8192


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
                 a: Sequence[float], out: np.ndarray) -> np.ndarray:
    """Rates of the events of each replica (row) of S, written into and
    returned as ``out``, one row per row of S.

    Cascade model: the edge clock of level k rings at rate bar_a(a, k),
    whatever the state.  Randomized model: columns 0..P-1 are the right
    jumps a_k R_rate, columns P..2P-1 the left jumps L_rate / a_k of every
    particle, in the arithmetic order of R_rate and L_rate, one particle
    column at a time.  Each q^e is read from the table np.power(q, 0..K+1),
    K the batch's largest coordinate plus 2, with entries K and K + 1 set to
    0: every finite exponent is at most K - 1, and a difference with the
    +inf sentinel is clamped to K, so its q^e and q^(e+1) read 0, as q **
    inf does in _qpow.  The denominators are 1 - q^e with e >= 1 on any
    valid pattern, so they never vanish."""
    ak = np.array([float(bar_a(a, k)) for k in range(1, lay.N + 1)])
    if model == "berele":
        out[...] = ak
        return out
    K = int(S[:, :lay.P].max(initial=0)) + 2
    qe = np.power(float(ctx.q), np.arange(K + 2.0))
    qe[K:] = 0
    qe1 = qe[1:]

    def e(hi, lo):
        """Table index of q^(S[:, hi] - S[:, lo])."""
        return np.minimum(S[:, hi] - S[:, lo], K).astype(np.intp)

    col = lay.col
    for p, (k, j) in enumerate(zip(lay.k, lay.j)):
        c = col[k, j]
        um_c, c_u = e(col[k - 1, j - 1], c), e(c, col[k - 1, j])
        cm_c, c_cp = e(col[k, j - 1], c), e(c, col[k, j + 1])
        out[:, p] = ak[k - 1] * ((1 - qe[um_c]) * (1 - qe1[c_cp]) / (1 - qe1[c_u]))
        out[:, lay.P + p] = (1 - qe[c_u]) * (1 - qe1[cm_c]) / (1 - qe1[um_c]) / ak[k - 1]
    return out


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
    pattern drawn is validated, once: the distinct rows are found _CHUNK
    rows at a time, so no sort of the whole batch is held."""
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
    distinct = [_distinct_rows(S[i:i + _CHUNK])[0] for i in range(0, replicas, _CHUNK)]
    for row in _distinct_rows(np.concatenate([S[:0], *distinct]))[0]:
        lay.pattern(row).validate()
    return S


# ---------------------------------------------------------------------------
# bottom-level generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeLaw:
    """A law of the bottom shape: ``table`` maps each shape to its
    probability, ``error`` bounds the total mass by which ``table`` can be
    off and ``stats`` holds what the producer counted."""
    table: dict
    error: float
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
        is carried through v <- v P.  Every term is nonnegative, so each
        entry of v carries relative rounding only.  The sum stops at the
        first n >= Lambda t at which the Poisson mass past n, bounded by
        w_n Lambda t / (n + 1 - Lambda t), is below 1e-300: a cut at the
        scale of the total mass, such as 1e-16, drops the far states' small
        probabilities, which an observable like q^{-k z_1} weights up, and
        1e-300 still keeps w_n a normal double.  When Lambda t > 500, t is
        split into ceil(Lambda t / 500) equal pieces, so e^{-Lambda t} never
        underflows.  Boundary rows leak mass, which only makes P
        substochastic: the law's ``error`` is that leaked mass, 1 - sum v."""
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        P = self.dense()
        v = np.zeros(len(self.states))
        v[self.index[start]] = 1.0
        lam = float(-P.diagonal().min(initial=0.0))
        if lam * t > 0:
            # P = I + Q / Lambda, in place: one dense matrix
            P /= lam
            P[np.diag_indices_from(P)] += 1
            pieces = math.ceil(lam * t / 500)
            lt = lam * t / pieces
            for _ in range(pieces):
                w = math.exp(-lt)
                term, v = v, w * v
                n = 0
                while n < lt or w * lt / (n + 1 - lt) >= 1e-300:
                    n += 1
                    term = term @ P
                    w *= lt / n
                    v += w * term
        return ShapeLaw(dict(zip(self.states, v.tolist())), max(0.0, 1.0 - float(v.sum())))


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


def helper_randomized(N: int, x: tuple, y: tuple, ctx: QSeriesCtx, a: Sequence) -> tuple:
    """(row, diagonal) of the helper matrix at the two-level state (x, y),
    where x is the level above the bottom level y, with level_len(N - 1)
    and level_len(N) parts: row holds the nonzero off-diagonal entries,
    diagonal is the shape chain's diagonal at x minus each own move of y.
    Covers both the even-bottom and odd-bottom tables."""
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
    d = shape_diagonal(N - 1, canon(x), ctx, a)
    aN = bar_a(a, N)
    for i in range(1, len(y) + 1):
        right, left = aN * R_rate(ctx, x, y, i), L_rate(ctx, x, y, i) / aN
        _add(out, (x, _bump(y, i, +1)), right)
        _add(out, (x, _bump(y, i, -1)), left)
        d = d - right - left
    return out, d


def _verify_intertwining(N: int, probes: Sequence, ctx: QSeriesCtx, a: Sequence,
                         m, sources, helper) -> list:
    """The exact identity Q(b, b') m(s') = sum_{s in sources(b)} m(s) A(s, s')
    for each probe s' with bottom level b' and each b in {b'} and the moves
    out of b', where A is the helper matrix and helper(*s) = (row, diagonal)
    gives its off-diagonal row and its diagonal entry at s.  Returns a list
    of (s', b, lhs, rhs, ok).

    The helper row of every source is built, so a row that cannot be built
    fails the check, but m(s) is computed and m(s) A(s, s') added only
    where A(s, s') is nonzero: a zero term leaves the sum as it is, and the
    rows hold no diagonal entry, so the nonzero terms and their order are
    those of adding every product.  rhs starts as m(s') * 0, the zero of
    the identity's scalars.  A source serves many (s', b) pairs
    and a bottom shape b' many probes, so m, helper, the sources of b and
    the column Q(., b') are computed at most once per source, b or b'
    within one call; the cached rows are only read, never changed."""
    m, helper = functools.cache(m), functools.cache(helper)
    sources_of = functools.cache(lambda b: tuple(sources(b)))

    @functools.cache
    def column(bp):
        return [(b, shape_diagonal(N, canon(b), ctx, a) if b == bp
                 else shape_rate(N, canon(b), canon(bp), ctx, a))
                for b in sorted({bp, *(w for _, _, w, _ in _moves(N, bp, ctx))})]

    results = []
    for probe in probes:
        probe = tuple(map(tuple, probe))
        m_target = m(*probe)
        for b, q_entry in column(probe[-1]):
            lhs = q_entry * m_target
            rhs = m_target * 0
            for src in sources_of(b):
                row, diagonal = helper(*src)
                v = row.get(probe, 0) + (diagonal if src == probe else 0)
                if v != 0:
                    rhs = rhs + m(*src) * v
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
        sources=lambda y: _chains(y, (level_len(N - 1),)),
        helper=lambda x, y: helper_randomized(N, x, y, ctx, a))


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
    # edge clocks of the two bottom levels; at n = 1 particle 1 of y is the
    # wall, which pulls z left when it does not push it right
    add((x, _bump(y, 1, +1), _bump(z, 1, +1)), an * r_prob(ctx, y, z, 1))
    if n > 1:
        add((x, _bump(y, 1, +1), _bump(z, 2, +1)), an * (1 - r_prob(ctx, y, z, 1)))
    else:
        add((x, y, _bump(z, 1, -1)), an * (1 - r_prob(ctx, y, z, 1)))
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
        sources=lambda z: _chains(z, (n, n - 1)),
        helper=lambda x, y, z: (helper_row_cascade(n, x, y, z, ctx, a),
                                shape_diagonal(2 * n, canon(z), ctx, a)))


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


def _round(S: np.ndarray, clock: np.ndarray, t: float, lay: _Layout, ctx: QSeriesCtx,
           model: str, a: Sequence[float], rng, buf: np.ndarray) -> tuple:
    """One round of ``simulate`` over the rows of S and their clocks.

    Draws one standard exponential per row; a row's clock grows by its draw
    over its total rate, and the rows whose clock passes t retire with
    their state unchanged.  Each kept row then takes one event, by inverse
    CDF on its cumulative rates with one uniform: the first event whose
    cumulative rate exceeds the uniform times the total, so a zero-rate
    event is never chosen.  The rates, in ``buf``, are computed _CHUNK rows
    at a time; each chunk draws the uniforms of its kept rows, in row
    order, so the round draws as one call per kind would.  The kept rows
    move, in order, to the front of S and clock.  The randomized model runs
    each chunk's push chains at once; the cascade model runs ``_cascade``
    over all kept rows after the last chunk, since its uniforms follow all
    of the round's.  Returns (number of rows kept, bottom levels of the
    retired rows)."""
    wait = rng.standard_exponential(len(S))
    retired, events, kept = [], [], 0
    for i0 in range(0, len(S), _CHUNK):
        rows = slice(i0, min(i0 + _CHUNK, len(S)))
        cum = _event_rates(S[rows], lay, ctx, model, a, buf[:rows.stop - i0])
        # a running sum column by column adds in np.cumsum's order, so the
        # floats are the same, without cumsum's short per-row loops
        for j in range(1, cum.shape[1]):
            cum[:, j] += cum[:, j - 1]
        clock[rows] += wait[rows] / cum[:, -1]
        running = clock[rows] <= t
        retired.append(S[rows, lay.level(lay.N)][~running])
        cum = cum[running]
        total = cum[:, -1]
        # a uniform just below 1 times total can round up to total
        u = np.minimum(rng.random(len(cum)) * total, np.nextafter(total, 0))
        event = np.zeros(len(cum), dtype=np.intp)
        for column in cum.T:
            event += column <= u
        # the kept rows of this chunk sit at or after their new place
        new = slice(kept, kept + len(cum))
        S[new], clock[new] = S[rows][running], clock[rows][running]
        if model == "berele":
            events.append(event)
        else:
            _push_chain(S[new], lay, event % lay.P, np.where(event < lay.P, 1, -1))
        kept = new.stop
    if model == "berele":
        _cascade(S[:kept], lay, ctx, np.concatenate(events) + 1, rng)
    return kept, retired


def simulate(config: SimConfig) -> dict:
    """Run `config.replicas` independent replicas as one batch; returns a
    histogram {bottom shape: count} at time t.

    All draws come from one ``Philox(SeedSequence(config.seed))`` stream, in
    this order: ``sample_initial`` draws the initial patterns; then each
    round (see ``_round``), over the replicas still running, draws one
    standard exponential per replica (its waiting time is that draw over
    its total rate), retires the replicas whose clock passes t with their
    state unchanged, and draws one uniform per remaining replica to pick
    its event; the cascade then draws its uniforms level by level (see
    ``_cascade``).  A round works through the batch _CHUNK rows at a time,
    so it holds the batch, its clocks and waits and one (_CHUNK, events)
    buffer of rates.  The same seed and config give the same histogram.
    Bad input raises a one-line ValueError that names the CLI flag: t not
    positive and finite, N < 1, replicas < 0 or an entry of a not positive
    and finite."""
    if not 0 < config.t < INF:
        raise ValueError(f"--t: the time horizon must be positive and finite, got {config.t}")
    if config.N < 1:
        raise ValueError(f"--N must be at least 1, got {config.N}")
    if config.replicas < 0:
        raise ValueError(f"--replicas must be nonnegative, got {config.replicas}")
    check_rates(config.a)
    if config.model == "berele" and config.N % 2:
        raise ValueError("cascade model needs even N")
    ctx = QSeriesCtx(config.q)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    lay = _Layout(config.N)
    S = sample_initial(config.start, config.N, ctx, config.a, rng, config.replicas)
    clock = np.zeros(len(S))
    buf = np.empty((min(len(S), _CHUNK), config.N if config.model == "berele" else 2 * lay.P))
    finished = [S[:0, lay.level(config.N)]]     # zero replicas: an empty histogram
    while len(S):
        kept, retired = _round(S, clock, config.t, lay, ctx, config.model, config.a, rng, buf)
        finished += retired
        S, clock = S[:kept], clock[:kept]
    shapes, _, counts = _distinct_rows(np.concatenate(finished))
    return {canon(z): int(c) for z, c in zip(shapes, counts)}
