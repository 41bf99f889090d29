"""Torus quadrature for the hyperoctahedral inner product, the time-t law of
the bottom shape, the Koornwinder difference operator, moment formulas by
three independent routes (law summation, operator powers, and nested contour
integrals deformed onto small circles around their poles) and a
Gram-Schmidt probe for the t0-deformed family.

Inner products against a Laurent polynomial come from Fourier coefficients,
not from evaluating the polynomial on the grid: on the uniform N^n grid the
trapezoid mean of F x^-e w is entry [e mod N] of fftn(F w) / N^n.  So one
FFT of F w serves every polynomial paired with F, and two polynomials pair
through the spectrum of the weight alone.  The weight itself is a real
product of 1-D factors |(e^{i phi};q)_inf|^2, each evaluated once on the
N-point circle and gathered onto the grid by index.

Each torus grid is sized from what it integrates (``_torus_nodes``): entry
e of the spectrum is exact up to the Fourier modes of F w past N - |e|, so
N must exceed the largest |e| read plus the per-axis bandwidth of F w,
which is read off one 1-D FFT of each factor.

At rank 1 the law, and the direct moment route's sum of q^{-kz} p_z over
it, are computed in mpmath: there the weight times (q;q)_inf is the Jacobi
triple-product theta series, the trapezoid rule runs over half the circle
(every factor depends on cos theta alone), and the working precision is 30
digits past the amplification q^{-3 window} of the largest moment the
contour route checks."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import INF, LaurentPoly, QSeriesCtx, pochhammer_depth, q_pochhammer
from .characters import check_rates, monomial_symmetric, qwhittaker_recursion
from .combinatorics import padded, part, partitions_max_weight
from .dynamics import ShapeLaw


# every torus grid has at most this many points (2^24 complex entries are
# 256 MiB per array)
_GRID_POINTS = 2 ** 24


def _smooth_above(m: int) -> int:
    """The smallest 2^a 3^b above m, a size the FFT factors well."""
    sizes, p3 = [], 1
    while p3 // 3 <= m:
        # 2^a > m / 3^b first at a = bit length of m // 3^b
        sizes.append(p3 * 2 ** (m // p3).bit_length())
        p3 *= 3
    return min(sizes)


def _bandwidth(f: Callable) -> int:
    """The largest |k| whose Fourier coefficient of the function f on the
    unit circle reaches 1e-15 of the largest one, read off one FFT of f on
    256 points of the circle, or on twice as many until |k| is at most a
    quarter of them."""
    m = 256
    while True:
        c = np.abs(np.fft.fft(f(np.exp(2j * np.pi * np.arange(m) / m))))
        k = np.flatnonzero(c >= 1e-15 * c.max())
        width = int(np.minimum(k, m - k).max())
        if width <= m // 4:
            return width
        m *= 2


def _torus_nodes(n: int, q: float, reach: int, t: float = 0.0, t0: float = 0.0) -> int:
    """Nodes per axis of a torus grid whose spectrum of e^{2t cos theta_j}
    times the weight is exact, to 1e-15 of each factor's peak, at every index
    up to ``reach`` per axis: the smallest 2^a 3^b above reach plus the
    integrand's bandwidth per axis.  Along each axis the weight has
    |(e^{i phi};q)_inf|^2, of bandwidth B, at 2 theta_j (2B) and at
    theta_j +- theta_k for each other axis (B each), 2nB in all; the t0
    factor and e^{2t cos theta_j} add their own bandwidths."""
    poch = functools.partial(q_pochhammer, QSeriesCtx(float(q)), k=INF)
    width = 2 * n * _bandwidth(lambda c: np.abs(poch(c)) ** 2)
    if t0:
        width += _bandwidth(lambda c: 1 / np.abs(poch(t0 * c)) ** 2)
    if t:
        width += _bandwidth(lambda c: np.exp(2 * t * c.real))
    return _smooth_above(reach + width)


@dataclass
class TorusQuadrature:
    """Uniform trapezoid nodes on the n-torus with the orthogonality weight
    cached; spectrally accurate for Laurent-polynomial integrands on a grid
    sized by ``_torus_nodes``.  Each construction probes the weight at
    ``pochhammer_depth(q)`` factors per symbol against twice as many and keeps
    the residual as ``truncation_residual``.  A grid of more than
    _GRID_POINTS points raises before anything is allocated."""
    n: int
    nodes: int
    q: float = 0.5
    t0: float = 0.0
    truncation_residual: float = field(init=False, compare=False)
    _weight_spectrum: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"--n must be at least 1, got {self.n}")
        if self.nodes ** self.n > _GRID_POINTS:
            raise ValueError(f"--n {self.n} needs a torus grid of {self.nodes}^{self.n} "
                             f"points, past the budget of 2^{math.log2(_GRID_POINTS):g}; "
                             "use a smaller --n")
        depth = pochhammer_depth(self.q)
        # 16 points off the zeros of the weight: axis j is shifted by 0.7 j,
        # since a_j = a_k would zero every pair factor
        probe = [np.exp(1j * (2 * np.pi * np.arange(16) / 16 + 0.1 + 0.7 * j))
                 for j in range(self.n)]
        cur = self._weight(depth, probe)
        residual = float(np.abs(self._weight(2 * depth, probe) - cur).max())
        if residual > 1e-10:
            raise ValueError(f"pochhammer truncation {depth} too short "
                             f"for q = {self.q} (residual {residual:.1e})")
        # relative: at q = 0.9 the weight reaches 1e7, whose rounding
        # alone exceeds an absolute 1e-9
        if float(np.abs(cur.imag).max()) > 1e-9 * float(np.abs(cur).max()):
            raise ValueError("weight not real on the torus")
        self.truncation_residual = residual
        N = self.nodes
        circle = np.exp(2j * np.pi * np.arange(N) / N)
        idx = [np.arange(N).reshape([N if k == j else 1 for k in range(self.n)])
               for j in range(self.n)]
        self.grids = [circle[i] for i in idx]
        # |(e^{i phi};q)_inf|^2 at phi = 2 pi m / N: the weight is a product of
        # these at 2 theta_j and theta_j +- theta_k, gathered by index mod N
        poch = functools.partial(q_pochhammer, QSeriesCtx(float(self.q)), k=depth)
        factor = np.abs(poch(circle)) ** 2
        single = factor[2 * np.arange(N) % N]
        if self.t0:
            single = single / np.abs(poch(self.t0 * circle)) ** 2
        self.weight = np.ones([N] * self.n)
        for j in range(self.n):
            self.weight *= single[idx[j]]
            for k in range(j + 1, self.n):
                self.weight *= factor[(idx[j] + idx[k]) % N] * factor[(idx[k] - idx[j]) % N]

    def _weight(self, factors: int, grids: Sequence[np.ndarray]) -> np.ndarray:
        """The weight as the complex product of its 2n + 4 binom(n, 2)
        Pochhammer symbols (2n more with t0), each of the given number of
        factors, at the given points."""
        poch = functools.partial(q_pochhammer, QSeriesCtx(float(self.q)), k=factors)
        w = np.ones(np.broadcast(*grids).shape, dtype=complex)
        for aj in grids:
            w = w * poch(aj ** 2) * poch(aj ** -2)
            if self.t0:
                w = w / (poch(self.t0 * aj) * poch(self.t0 / aj))
        for j in range(self.n):
            for k in range(j + 1, self.n):
                aj, ak = grids[j], grids[k]
                w = w * poch(aj * ak) * poch(ak / aj) * poch(aj / ak) * poch(1 / (aj * ak))
        return w

    def spectrum(self, F: Optional[np.ndarray] = None) -> np.ndarray:
        """fftn(F * weight) / weight.size: entry [e mod nodes] is the grid mean
        of F * x^-e * weight.  Without F, the spectrum of the weight, cached."""
        if F is not None:
            return np.fft.fftn(F * self.weight) / self.weight.size
        if self._weight_spectrum is None:
            self._weight_spectrum = np.fft.fftn(self.weight) / self.weight.size
        return self._weight_spectrum


def _terms(p: LaurentPoly) -> tuple:
    """Exponents (terms x nvars) and complex coefficients of p."""
    exps = np.array(list(p.terms), dtype=np.intp).reshape(len(p.terms), p.nvars)
    return exps, np.array([complex(c) for c in p.terms.values()])


def _degree(polys: Sequence[LaurentPoly]) -> int:
    """The largest |exponent| in the terms of polys."""
    return max(abs(e) for p in polys for exps in p.terms for e in exps)


def _against(spec: np.ndarray, g: LaurentPoly) -> complex:
    """Grid mean of F conj(g) w from the spectrum of F w."""
    exps, coef = _terms(g)
    return complex(np.conj(coef) @ spec[tuple((exps % spec.shape[0]).T)])


def _pair(f: LaurentPoly, g: LaurentPoly, quad: TorusQuadrature) -> complex:
    """Grid mean of f conj(g) w: the double sum of f_e conj(g_d) against the
    weight spectrum at d - e."""
    ef, cf = _terms(f)
    eg, cg = _terms(g)
    diff = (eg[None, :, :] - ef[:, None, :]) % quad.nodes
    return complex(cf @ quad.spectrum()[tuple(np.moveaxis(diff, -1, 0))] @ np.conj(cg))


def _group_order(n: int) -> int:
    # order of the signed-permutation group acting on the torus
    return (2 ** n) * math.factorial(n)


def inner_product(f: LaurentPoly, g: LaurentPoly, quad: TorusQuadrature) -> complex:
    """Grid mean of f conj(g) w over the group order, for two polynomials:
    the pair is read against the Fourier coefficients of w alone."""
    return _pair(f, g, quad) / _group_order(quad.n)


def norm_squared_factor(z: Sequence[int], n: int, ctx: QSeriesCtx) -> float:
    """1 / <P_z, P_z>: the closed-form orthogonality constant."""
    z = padded(z, n)
    den = float(q_pochhammer(ctx, ctx.q, z[n - 1]))
    for j in range(n - 1):
        den *= float(q_pochhammer(ctx, ctx.q, z[j] - z[j + 1]))
    return float(q_pochhammer(ctx, ctx.q, INF)) ** n / den


# ---------------------------------------------------------------------------
# the time-t law of the bottom shape
# ---------------------------------------------------------------------------

def pi_norm(a: Sequence[float], t: float) -> float:
    """exp(sum(a + 1/a) t); a ValueError naming --t when that is not a
    finite double."""
    try:
        return math.exp(sum(x + 1 / x for x in a) * t)
    except OverflowError:
        raise ValueError(f"--t {t} is too large: exp(sum(a + 1/a) t) overflows "
                         "a double") from None


def _check_rank(n: int, a: Sequence) -> None:
    """Raise a one-line ValueError naming --a and --n unless the rate vector
    ``a`` has one entry per rank n."""
    if len(a) != n:
        raise ValueError(f"--a needs one rate per rank, {n} for --n {n}, got {len(a)}")


# the torus law's self-check: the same table on the next grid size may move
# no state by more than this many noise floors
_ALIAS_FLOORS = 10


def law(n: int, t: float, a: Sequence[float], q: float, window: int,
        tol: float = 1e-6) -> ShapeLaw:
    """Time-t distribution of the bottom shape started from the empty shape.
    At rank 1 it is ``_rank_one_law``, with a noise floor of 0.  At rank 2
    p_t(z) is the character at the real point times the torus coefficient of
    the exponential generating function, normalized by exp(sum(a+1/a) t);
    positive p_t(z) up to 1e-15 read 0.  Negative p_t(z) are clamped to 0.
    Rank 3 and above raise at once: there the float torus law cannot meet
    the 1e-6 mass gate on any grid.  ``error`` is |mass defect| + |clamped
    mass| + the summed noise floors; ``stats`` holds the mass defect
    1 - sum p (after the clamp), the clamped mass and the number of clamped
    states, and at rank 2 the grid's ``nodes`` per axis and ``alias_gap``
    (see ``_torus_law``).  The mass defect must lie within tol, and the
    alias gap within _ALIAS_FLOORS."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if n > 2:
        raise ValueError(f"--n {n}: the float torus law meets its {tol:.0e} mass gate at "
                         "ranks 1 and 2 only; use --n 1 or 2")
    if not 0 <= t < INF:
        raise ValueError(f"--t must be nonnegative and finite, got {t}")
    check_rates(a)
    _check_rank(n, a)
    a = tuple(float(x) for x in a)
    grid = {}
    if n == 1:
        if not 0 < q < 1:
            raise ValueError(f"--q must satisfy |q| < 1, and q > 0 at --n 1, got {q}")
        raw = {(z,) if z else (): (float(p), 0.0)
               for z, p in enumerate(_rank_one_law(t, a[0], q, window))}
    else:
        raw, grid = _torus_law(n, t, a, q, window)
    table = {z: max(p, 0.0) for z, (p, _) in raw.items()}
    noise = {z: floor for z, (_, floor) in raw.items()}
    clamped = sum((p for p, _ in raw.values() if p < 0), 0.0)
    clamped_states = sum(p < 0 for p, _ in raw.values())
    defect = 1.0 - sum(table.values())
    if defect > tol:
        raise ValueError(f"window mass defect {defect:.2e} exceeds {tol:.0e}; "
                         "enlarge the window")
    if defect < -tol:
        raise ValueError(f"window mass defect {defect:.2e} is below -{tol:.0e}: states "
                         "past the quadrature noise floor add mass; shrink the window")
    if grid and grid["alias_gap"] > _ALIAS_FLOORS:
        raise ValueError(f"the torus law on {grid['nodes']} nodes per axis moves by "
                         f"{grid['alias_gap']:.0f} noise floors on the next grid size; "
                         "use a smaller --t or --window")
    return ShapeLaw(table, abs(defect) + abs(clamped) + sum(noise.values()), noise,
                    {"mass_defect": defect, "clamped_mass": clamped,
                     "clamped_states": clamped_states, **grid})


def _torus_law(n: int, t: float, a: tuple, q: float, window: int) -> tuple:
    """State -> (p_t(z), noise floor) from one FFT on a torus grid sized by
    ``_torus_nodes`` for the characters' largest exponent and e^{2t cos},
    and the grid's stats: its ``nodes`` per axis and ``alias_gap``, the
    largest move of a state, in its noise floors, when the table is
    recomputed on the next larger size.  ``law`` raises past
    _ALIAS_FLOORS."""
    norm = pi_norm(a, t)  # at least every pi_val, so a finite norm means no overflow
    ctx = QSeriesCtx(q)
    states = sorted(z for z in partitions_max_weight(n, window * n)
                    if part(z, 1) <= window)
    polys = [qwhittaker_recursion(n, z, ctx) for z in states]

    def spectrum(nodes: int) -> tuple:
        """The spectrum of e^{2t cos} times the weight on nodes per axis, and
        the largest |value| of that product."""
        quad = TorusQuadrature(n, nodes, q)
        pi_vals = np.exp(sum(g + 1 / g for g in quad.grids) * t)
        return quad.spectrum(pi_vals), float(np.abs(pi_vals * quad.weight).max())

    nodes = _torus_nodes(n, q, _degree(polys), t=t)
    (spec, wmax), (check, _) = spectrum(nodes), spectrum(_smooth_above(nodes))
    out, gap = {}, 0.0
    for z, poly in zip(states, polys):
        nf = norm_squared_factor(z, n, ctx)
        at_a = float(poly.evaluate(a))
        p, p_check = (at_a * (_against(s, poly) / _group_order(n) * nf).real / norm
                      for s in (spec, check))
        floor = 1e-15 * wmax * at_a * nf / norm
        gap = max(gap, abs(p - p_check) / floor)
        out[z] = (0.0 if 0 <= p <= 1e-15 else p, floor)
    return out, {"nodes": nodes, "alias_gap": gap}


# ---------------------------------------------------------------------------
# Koornwinder difference operator
# ---------------------------------------------------------------------------

def _A_coeff(a: Sequence[complex], q: float, i: int) -> complex:
    den = (1 - a[i] ** 2) * (1 - q * a[i] ** 2)
    for j, aj in enumerate(a):
        if j != i:
            den *= (1 - a[i] * aj) * (1 - a[i] / aj)
    if abs(den) < 1e-8:
        raise ValueError("evaluation point too close to an operator pole")
    return 1 / den


def koornwinder_apply(F: Callable, a: Sequence[complex], n: int, q: float,
                      power: int = 1) -> complex:
    """(D^power F)(a): nested application of the 2n-term difference operator
    with shifts a_i -> q^{+-1} a_i."""
    if power == 0:
        return F(tuple(a))
    def G(pt):
        return koornwinder_apply(F, pt, n, q, power - 1)
    a = tuple(a)
    inv = tuple(1 / x for x in a)
    base = G(a)
    total = 0
    for i in range(n):
        up = a[:i] + (q * a[i],) + a[i + 1:]
        dn = a[:i] + (a[i] / q,) + a[i + 1:]
        total += _A_coeff(a, q, i) * (G(up) - base)
        total += _A_coeff(inv, q, i) * (G(dn) - base)
    return total


# ---------------------------------------------------------------------------
# contour moments
# ---------------------------------------------------------------------------

# each variable runs over circles of radius _RHO with _NODES nodes, one per
# pole or per cluster of poles closer than _MERGE; the values on _NODES and
# _NODES / 2 nodes must agree to _CONTOUR_TOL relative
_RHO = 0.01
_MERGE = 6 * _RHO
_NODES = 32
_CONTOUR_TOL = 1e-5


def _clusters(points: Sequence[complex]) -> list:
    """The points linked by gaps under _MERGE, as lists of indices."""
    groups: list = []
    for i, p in enumerate(points):
        near = [g for g in groups if min(abs(p - points[j]) for j in g) < _MERGE]
        groups = [g for g in groups if g not in near] + [sum(near, [i])]
    return groups


def _deformed_integral(l: int, t: float, a: Sequence[float], q: float, nodes: int) -> complex:
    """The l-fold integral over s_1 (outermost) .. s_l of prod_j
    ds_j / (2 pi i s_j) g(s_j) (e^{f(s_j)} prod_{i<j} R(s_i, s_j) - 1), with
    g(s) = 1 / ((1 - q s^2) prod (s - a_i)(s - 1/a_i)),
    f(s) = ((q - 1) s + (1/q - 1) / s) t and
    R(u, v) = (u - v)(u - 1/v) / ((u - q v)(u - 1/(q v))).

    Each nested circle encloses the a-poles and the images q s_m, 1/(q s_m)
    of the inner variables, but not 0.  Placed innermost first, each
    variable runs instead over small circles around just those points, at
    the inner variables' current nodes.  Points within _MERGE of each other
    at the inner circles' centres share one circle, about their mean and of
    radius _RHO plus their spread at each node: two circles around one pole
    would count it twice."""
    poles = [x for ai in a for x in (ai, 1 / ai)]
    phase = np.exp(2j * np.pi * np.arange(nodes) / nodes)

    def integrand_sum(xs, w):
        total = w
        for p, x in enumerate(xs):
            r = np.exp(((q - 1) * x + (1 / q - 1) / x) * t)
            for u in xs[p + 1:]:
                r = r * (u - x) * (u - 1 / x) / ((u - q * x) * (u - 1 / (q * x)))
            g = 1 / ((1 - q * x * x) * x)
            for ai in a:
                g = g / ((x - ai) * (x - 1 / ai))
            total = total * g * (r - 1)
        return complex(total.sum())

    # xs: the placed variables broadcast over their nodes, cs: their circles'
    # centres at the inner centres, w: the product of their weights
    def place(xs, cs, w):
        if len(xs) == l:
            return integrand_sum(xs, w)
        members = [(p, p) for p in poles]
        for x, c in zip(xs, cs):
            members += [(q * x, q * c), (1 / (q * x), 1 / (q * c))]
        total = 0j
        for group in _clusters([c for _, c in members]):
            pts = np.stack(np.broadcast_arrays(*[members[i][0] for i in group]))
            centre = pts.mean(0)
            mid = centre[..., None]
            s = mid + (_RHO + np.abs(pts - centre).max(0)[..., None]) * phase
            total += place([x[..., None] for x in xs] + [s],
                           cs + [np.mean([members[i][1] for i in group])],
                           w[..., None] * (s - mid) / nodes)
        return total

    return place([], [], np.ones(()))


def contour_moment(n: int, k: int, t: float, a: Sequence[float], q: float) -> float:
    """<q^{-k Z_1}> = sum_l binom(k, l) (-1)^l Re I_l (I_0 = 1) from the
    nested contour integrals I_l of Borodin-Corwin, each deformed onto small
    circles around its poles (``_deformed_integral``), so that no node comes
    near the essential singularity at 0 (k <= 3).  Raises a ValueError when
    a has not one entry per rank n, when the integrand overflows a double, or
    when _NODES and _NODES / 2 nodes per circle differ by more than
    _CONTOUR_TOL relative."""
    if k > 3:
        raise ValueError("contour route implemented for k <= 3")
    _check_rank(n, a)
    a = tuple(float(x) for x in a)
    total, spread = 1.0, 0.0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for l in range(1, k + 1):
                full = _deformed_integral(l, t, a, q, _NODES)
                half = _deformed_integral(l, t, a, q, _NODES // 2)
                total += math.comb(k, l) * (-1) ** l * full.real
                spread += math.comb(k, l) * abs(full - half)
    except FloatingPointError:
        raise ValueError(f"the contour integrand overflows a double at t = {t}, q = {q}; "
                         "use a smaller --t or a larger --q") from None
    if not spread <= _CONTOUR_TOL * abs(total):
        raise ValueError(f"the contour route has not converged at t = {t}, q = {q}: "
                         f"{_NODES} and {_NODES // 2} nodes per circle differ by "
                         f"{spread / abs(total):.1e} relative; use a smaller --k or --t, "
                         "or a larger --q")
    return total


def _rank_one_dps(q: float, zmax: int) -> int:
    """Working precision of the rank-1 law and moment sums: 30 digits past
    the amplification q^{-kz} of every k <= 3 and z <= zmax, and at least 40."""
    return max(40, 30 + math.ceil(3 * zmax * math.log10(1 / q)))


def _direct_moment_rank_one(k: int, t: float, a: float, q: float, zmax: int = 40) -> float:
    """Direct sum sum_z q^{-kz} p_z for n=1 over the law of ``_rank_one_law``,
    in that law's precision: q^{-kz} multiplies each p_z's rounding noise by
    up to q^{-3 zmax}, which the precision rule leaves 30 digits to spare.
    Raises when the window 0..zmax misses more than 1e-6 of the mass."""
    import mpmath as mp

    law_z = _rank_one_law(t, a, q, zmax)
    with mp.workdps(_rank_one_dps(q, zmax)):
        defect = 1 - mp.fsum(law_z)
        if defect > 1e-6:
            raise ValueError(f"window mass defect {float(defect):.2e} exceeds 1e-06; "
                             "enlarge the window")
        qm = mp.mpf(q)
        return float(mp.fsum(qm ** (-k * z) * p_z for z, p_z in enumerate(law_z)))


@functools.lru_cache(maxsize=8)
def _rank_one_law(t: float, a: float, q: float, zmax: int) -> tuple:
    """p_z for z = 0..zmax at rank 1, in ``_rank_one_dps(q, zmax)`` digits:
    the trapezoid rule on 512 points of the torus integral of
    e^{2t cos theta} h_z(cos theta) |(e^{2i theta};q)_inf|^2, times the
    character h_z at the real point, over (q;q)_z and exp((a + 1/a) t).

    By the Jacobi triple product the weight times (q;q)_inf is the theta
    series sum_{m>=1} (-1)^m q^{m(m-1)/2} (2 cos 2m theta - 2 cos 2(m-1) theta),
    summed by the Chebyshev recurrence in cos 2 theta until q^{m(m-1)/2} falls
    below 10^{-dps-5}; the (q;q)_inf of the normalization cancels against it.
    Every factor depends on theta through cos theta alone, and
    cos theta_j = cos theta_{N-j}, so the rule's sum over j = 0..N-1 has
    multiplicities 1, 2, ..., 2, 1 over j = 0..N/2; the weight vanishes at
    j = 0 and N/2, so it is twice the sum over j = 1..N/2-1.  The q-Hermite
    characters obey a three-term recurrence, on the nodes and at the real
    point alike.  e^{2t cos theta} enters as e^{2t (cos theta - 1)} <= 1,
    its e^{2t} moved into the normalization, so at any finite t the node
    exponentials stay at most 1.

    The node loops run in fixed point on Python integers: a value x is the
    integer round(x 2^B), B = ceil(dps log2 10) + 32 bits (32 guard bits
    past the working precision), and each product is (x y) >> B.  mpmath
    gives, at B bits and once each, cos theta_j, cos 2 theta_j, the damped
    exponential, the theta coefficients and the recurrence factors
    1 - q^z; the theta series, its product with the exponential, the
    node recurrence and the dot product with the nodes are then integer
    arithmetic, the last one exact.  The scalar recurrences (h_z at the
    real point, (q;q)_z, the normalization) and the division stay in
    mpmath at dps digits."""
    from operator import mul

    import mpmath as mp

    dps, nodes = _rank_one_dps(q, zmax), 512
    bits = math.ceil(dps * math.log2(10)) + 32

    def fix(x) -> int:
        return int(mp.nint(mp.ldexp(x, bits)))

    with mp.workprec(bits):
        qm = mp.mpf(q)
        # 2 (-1)^m q^{m(m-1)/2} for m = 1, 2, ... while q^{m(m-1)/2} >= cut
        theta_coef, qpow, m = [], mp.mpf(1), 1
        cut = mp.mpf(10) ** (-dps - 5)
        while qpow >= cut:
            theta_coef.append(fix(-2 * qpow if m % 2 else 2 * qpow))
            qpow *= qm ** m
            m += 1
        # cos of the angles 2 pi k / N, k = 0..N/2, gives cos theta_j at
        # k = j and cos 2 theta_j at k = 2j folded into 0..N/2
        cosk = [mp.cos(2 * mp.pi * k / nodes) for k in range(nodes // 2 + 1)]
        half = range(1, nodes // 2)
        cos1 = [fix(cosk[j]) for j in half]
        cos2 = [fix(cosk[min(2 * j, nodes - 2 * j)]) for j in half]
        damp = [fix(mp.exp(2 * t * (cosk[j] - 1))) for j in half]
        facs = [fix(1 - qm ** z) for z in range(1, zmax)]
    one = 1 << bits
    # e^{2t (cos theta - 1)} * weight * (q;q)_inf, the last as the theta
    # series in the Chebyshev T_m of cos 2 theta, at scale 2^B
    pw = []
    for c2, d in zip(cos2, damp):
        t_prev, t_cur, acc = one, c2, 0
        for cm in theta_coef:
            acc += cm * (t_cur - t_prev)
            t_prev, t_cur = t_cur, ((c2 * t_cur) >> (bits - 1)) - t_prev
        pw.append((acc * d) >> (2 * bits))
    # recurrence over the character degree on the nodes; dots at scale 2^{2B}
    two_c = [2 * c for c in cos1]
    h_prev, h_cur = [one] * len(cos1), two_c
    dots = [sum(pw) << bits]
    for z in range(1, zmax + 1):
        dots.append(sum(map(mul, pw, h_cur)))
        if z < zmax:
            fac = facs[z - 1]
            h_prev, h_cur = h_cur, [(tc * hc - fac * hp) >> bits
                                    for tc, hc, hp in zip(two_c, h_cur, h_prev)]
    with mp.workdps(dps):
        qm, tm, am = mp.mpf(q), mp.mpf(t), mp.mpf(a)
        v_prev, v_cur = mp.mpf(1), am + 1 / am
        qq_z = mp.mpf(1)
        # the rule is twice the half sum over nodes, then over the group order 2
        norm = nodes * mp.exp((am + 1 / am - 2) * tm)
        out = []
        for z, dot in enumerate(dots):
            vz = v_prev if z == 0 else v_cur
            out.append(vz * mp.ldexp(dot, -2 * bits) / (qq_z * norm))
            qq_z *= 1 - qm ** (z + 1)
            if z >= 1:
                v_prev, v_cur = v_cur, (am + 1 / am) * v_cur - (1 - qm ** z) * v_prev
        return tuple(out)


def moments(n: int, k: int, t: float, a: Sequence[float], q: float,
            window: int = 40) -> dict:
    """<q^{-k Z_1}> by three independent routes: direct law summation,
    Koornwinder operator powers, and the nested contour integrals deformed
    onto small circles around their poles (``contour_moment``, which raises
    where its two node counts disagree).  Above rank 1, direct is the mean
    over ``law``, whose ``error`` bounds its mass but not this sum: q^{-kz}
    amplifies the noise, so for k > 0 a state counts only when its
    probability exceeds 20 times its noise floor."""
    if not 0 < q < 1:
        raise ValueError(f"--q must lie in (0, 1), got {q}")
    if not 0 <= t < INF:
        raise ValueError(f"--t must be nonnegative and finite, got {t}")
    if not 0 <= k <= 3:
        raise ValueError(f"--k must lie in 0..3, the contour route's range, got {k}")
    if window < 1:
        raise ValueError(f"--window must be at least 1, got {window}")
    check_rates(a)
    _check_rank(n, a)
    a = tuple(float(x) for x in a)
    norm = pi_norm(a, t)
    if n == 1:
        direct = _direct_moment_rank_one(k, t, a[0], q, zmax=window)
    else:
        lt = law(n, t, a, q, window)
        direct = lt.mean(lambda z: q ** (-k * part(z, 1))
                         if k == 0 or lt.table[z] > 20 * lt.noise[z] else 0.0)

    def Pi(pt):
        return np.exp(sum((u + 1 / u) * t for u in pt))

    operator = sum(math.comb(k, j)
                   * complex(koornwinder_apply(Pi, a, n, q, j)).real
                   for j in range(k + 1)) / norm
    contour = contour_moment(n, k, t, a, q)
    return {"direct": direct, "operator": operator, "contour": contour}


# ---------------------------------------------------------------------------
# orthogonality checks and the Gram-Schmidt probe
# ---------------------------------------------------------------------------

def orthogonality_matrix(n: int, shapes: Sequence, q: float) -> np.ndarray:
    """Matrix <P_lam, P_mu> * norm factor; the identity when orthogonality
    holds for the recursion-defined family.  A pair reads the weight's
    spectrum at exponent differences up to twice the largest exponent, on a
    grid sized for that."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    ctx = QSeriesCtx(q)
    polys = [qwhittaker_recursion(n, tuple(z), ctx) for z in shapes]
    quad = TorusQuadrature(n, _torus_nodes(n, q, 2 * _degree(polys)), q)
    m = len(shapes)
    out = np.zeros((m, m))
    for i in range(m):
        ni = norm_squared_factor(shapes[i], n, ctx)
        for j in range(m):
            out[i, j] = inner_product(polys[i], polys[j], quad).real * ni
    return out


def gram_schmidt_koornwinder(n: int, q: float, t0: float, max_weight: int) -> dict:
    """Numerically orthogonalized monic family for the t0-deformed weight, in
    graded lexicographic order (a refinement of dominance).  Returns a map
    shape -> LaurentPoly with float coefficients."""
    if not 0 <= t0 < 1:
        raise ValueError("t0 must lie in [0, 1)")
    shapes = sorted(partitions_max_weight(n, max_weight),
                    key=lambda z: (sum(z), z))
    # every member has exponents up to max_weight, so a pair reads up to twice that
    quad = TorusQuadrature(n, _torus_nodes(n, q, 2 * max_weight, t0=t0), q, t0)
    family: dict = {}
    norms: dict = {}
    for lam in shapes:
        # modified Gram-Schmidt: project the running p on each earlier member
        p = monomial_symmetric(n, lam).map_coefficients(float)
        for mu in family:
            c = _pair(p, family[mu], quad).real / norms[mu]
            p = p - c * family[mu]
        nrm = _pair(p, p, quad).real
        if abs(nrm) < 1e-10:
            raise ValueError("Gram matrix numerically singular")
        family[lam] = p
        norms[lam] = nrm
    return family


def conjecture_distance(n: int, lam, q: float, family: dict) -> float:
    """Reported (never asserted) coefficient distance between member lam of a
    gram_schmidt_koornwinder family and the recursion-defined character."""
    from .combinatorics import canon
    lam = canon(lam)
    target = qwhittaker_recursion(n, lam, QSeriesCtx(q)).map_coefficients(float)
    diff = family[lam] - target
    return max((abs(c) for c in diff.terms.values()), default=0.0)
