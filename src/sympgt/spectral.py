"""Torus quadrature for the hyperoctahedral inner product, the time-t law of
the bottom shape, the Koornwinder difference operator, moment formulas by
three independent routes (law summation, operator powers, and nested contour
integrals deformed onto small circles around their poles) and a
Gram-Schmidt probe for the t0-deformed family.

Above rank 1 the law is the empty shape's row of the shape chain's
transition semigroup, by uniformization of its generator on a box of
shapes; the torus formula for it (``_torus_law``, one FFT) stays as the
ledger's cross-check.

Inner products against a Laurent polynomial come from Fourier coefficients,
not from evaluating the polynomial on the grid: on the uniform N^n grid the
trapezoid mean of F x^-e w is entry [e mod N] of fftn(F w) / N^n.  So one
FFT of F w serves every polynomial paired with F, and two polynomials pair
through the spectrum of the weight alone.  The weight itself is a real
product of 1-D factors |(e^{i phi};q)_inf|^2, each evaluated once on the
N-point circle and gathered onto the grid by index.  Each symbol stops at
the K factors where |q|^K < 1e-17 (``q_pochhammer`` at k = INF), so its
relative tail is at most |q|^K / (1 - |q|) to first order; no other form of
the weight is built.

Each torus grid is sized from what it integrates (``_torus_nodes``): entry
e of the spectrum is exact up to the Fourier modes of F w past N - |e|, so
N must exceed the largest |e| read plus the per-axis bandwidth of F w,
which is read off one 1-D FFT of each factor.

At rank 1 the law, and the direct moment route's sum of q^{-kz} p_z over it,
are torus integrals computed in mpmath with no grid at all: the weight times
(q;q)_inf is the Jacobi triple-product theta series, so each integral is a
finite sum of its coefficients against the Bessel coefficients of
e^{2t cos theta} and the q-binomial coefficients of the character.  The
working precision is 30 digits past the amplification q^{-3 window} of the
largest moment the contour route checks, plus the digits that the sum
loses to cancellation."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import INF, LaurentPoly, QSeriesCtx, q_pochhammer
from .characters import check_rates, monomial_symmetric, qwhittaker_recursion
from .combinatorics import canon, padded, part, partitions_max_weight
from .dynamics import ShapeLaw, build_generator


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


def _circle_factor(q: float, c: np.ndarray) -> np.ndarray:
    """|(c;q)_inf|^2 at points c of the unit circle, the weight's 1-D factor.
    Its peak, 4 (-q;q)_inf^2 at c = -1, grows like e^{pi^2 / (6 (1 - q))} as
    q -> 1 and passes double range from about q = 0.9977; there it raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.abs(q_pochhammer(QSeriesCtx(float(q)), c, INF)) ** 2
    if not np.isfinite(factor).all():
        raise ValueError(f"--q {q} puts the torus weight's |(e^(i phi);q)_inf|^2 past "
                         "double range; use a --q nearer 0")
    return factor


def _torus_nodes(n: int, q: float, reach: int, t: float = 0.0, t0: float = 0.0) -> int:
    """Nodes per axis of a torus grid whose spectrum of e^{2t cos theta_j}
    times the weight is exact, to 1e-15 of each factor's peak, at every index
    up to ``reach`` per axis: the smallest 2^a 3^b above reach plus the
    integrand's bandwidth per axis.  Along each axis the weight has
    |(e^{i phi};q)_inf|^2, of bandwidth B, at 2 theta_j (2B) and at
    theta_j +- theta_k for each other axis (B each), 2nB in all; the t0
    factor and e^{2t cos theta_j} add their own bandwidths."""
    width = 2 * n * _bandwidth(functools.partial(_circle_factor, q))
    if t0:
        poch = functools.partial(q_pochhammer, QSeriesCtx(float(q)), k=INF)
        width += _bandwidth(lambda c: 1 / np.abs(poch(t0 * c)) ** 2)
    if t:
        width += _bandwidth(lambda c: np.exp(2 * t * c.real))
    return _smooth_above(reach + width)


@dataclass
class TorusQuadrature:
    """Uniform trapezoid nodes on the n-torus with the orthogonality weight,
    computed at construction, and its spectrum, fftn(weight) / weight.size,
    computed on first read; spectrally accurate for Laurent-polynomial
    integrands on a grid sized by ``_torus_nodes``.  Each Pochhammer symbol
    of the weight stops at the K factors where |q|^K < 1e-17, so its
    relative tail is at most |q|^K / (1 - |q|) to first order.  A grid of
    more than _GRID_POINTS points raises before anything is allocated.

    Each spectrum is transformed and scaled in place in one complex array,
    so at the budget of 2^24 points the weight and one spectrum take 384 MiB;
    fftn(...) / size would add a complex copy at each step, about 900 MiB."""
    n: int
    nodes: int
    q: float
    t0: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"--n must be at least 1, got {self.n}")
        if self.nodes ** self.n > _GRID_POINTS:
            raise ValueError(f"--n {self.n} needs a torus grid of {self.nodes}^{self.n} "
                             f"points, past the budget of 2^{math.log2(_GRID_POINTS):g}; "
                             "use a smaller --n or --max-weight, or a --q nearer 0")
        N = self.nodes
        circle = np.exp(2j * np.pi * np.arange(N) / N)
        idx = [np.arange(N).reshape([N if k == j else 1 for k in range(self.n)])
               for j in range(self.n)]
        self.grids = [circle[i] for i in idx]
        # |(e^{i phi};q)_inf|^2 at phi = 2 pi m / N: the weight is a product of
        # these at 2 theta_j and theta_j +- theta_k, gathered by index mod N
        factor = _circle_factor(self.q, circle)
        single = factor[2 * np.arange(N) % N]
        if self.t0:
            poch = q_pochhammer(QSeriesCtx(float(self.q)), self.t0 * circle, INF)
            single = single / np.abs(poch) ** 2
        self.weight = np.ones([N] * self.n)
        for j in range(self.n):
            self.weight *= single[idx[j]]
            for k in range(j + 1, self.n):
                self.weight *= factor[(idx[j] + idx[k]) % N] * factor[(idx[k] - idx[j]) % N]

    @functools.cached_property
    def weight_spectrum(self) -> np.ndarray:
        """fftn(weight) / weight.size."""
        return _mean_spectrum(self.weight.astype(complex))

    def spectrum(self, F: np.ndarray) -> np.ndarray:
        """fftn(F * weight) / weight.size: entry [e mod nodes] is the grid mean
        of F * x^-e * weight."""
        return _mean_spectrum(np.asarray(F * self.weight, dtype=complex))


def _mean_spectrum(spec: np.ndarray) -> np.ndarray:
    """fftn(spec) / spec.size, overwriting the complex array spec."""
    np.fft.fftn(spec, out=spec)
    spec /= spec.size
    return spec


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
    return complex(cf @ quad.weight_spectrum[tuple(np.moveaxis(diff, -1, 0))] @ np.conj(cg))


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


# the law's mass defect must lie within this; the generator above rank 1 is
# a dense matrix, 128 MiB at _DENSE_STATES states
_MASS_TOL = 1e-6
_DENSE_STATES = 4096


def law(n: int, t: float, a: Sequence[float], q: float, window: int) -> ShapeLaw:
    """Time-t distribution of the bottom shape started from the empty shape,
    over the shapes with z_1 <= window.  At rank 1 it is ``_rank_one_law``,
    whose mpmath rounding (below 1e-30) can leave a tail value negative; those
    read 0.  Above rank 1 it is the empty shape's row of expm(t Q) for the
    shape-chain generator Q on that box, ``build_generator(2n, window)``
    and ``GeneratorMatrix.transient``: uniformization adds nonnegative terms
    only, so its one error is the mass that leaks through the cap.  A box of
    more than _DENSE_STATES shapes raises before any work.  ``error`` is the
    |mass defect| and ``stats`` holds the mass defect 1 - sum p, which must
    lie within _MASS_TOL."""
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if not 0 <= t < INF:
        raise ValueError(f"--t must be nonnegative and finite, got {t}")
    check_rates(a)
    _check_rank(n, a)
    if not (0 < q < 1 if n == 1 else -1 < q < 1):
        raise ValueError(f"--q must satisfy |q| < 1, and q > 0 at --n 1, got {q}")
    a = tuple(float(x) for x in a)
    if n == 1:
        table = {(z,) if z else (): max(float(p), 0.0)
                 for z, p in enumerate(_rank_one_law(t, a[0], q, window))}
    else:
        if window < 0:
            raise ValueError(f"--window must be nonnegative, got {window}")
        states = math.comb(window + n, n)
        if states > _DENSE_STATES:
            raise ValueError(f"--window {window} at --n {n} spans {states} shapes, past the "
                             f"{_DENSE_STATES} of a dense generator; use a smaller --window")
        table = build_generator(2 * n, window, QSeriesCtx(q), a).transient(t, ()).table
    defect = 1.0 - sum(table.values())
    if defect > _MASS_TOL:
        raise ValueError(f"window mass defect {defect:.2e} exceeds {_MASS_TOL:.0e}; "
                         "enlarge the window")
    return ShapeLaw(table, abs(defect), {"mass_defect": defect})


def _torus_law(n: int, t: float, a: tuple, q: float, window: int) -> dict:
    """State -> p_t(z) by the torus formula: the character at the real point
    times the torus coefficient of the exponential generating function,
    over the norm <P_z, P_z> and exp(sum(a + 1/a) t), from one FFT on a grid
    sized by ``_torus_nodes`` for the characters' largest exponent and
    e^{2t cos}.  ``law`` does not use it; the ledger's ``torus-law`` check
    holds it against the generator row."""
    norm = pi_norm(a, t)
    ctx = QSeriesCtx(q)
    states = sorted(z for z in partitions_max_weight(n, window * n)
                    if part(z, 1) <= window)
    polys = [qwhittaker_recursion(n, z, ctx) for z in states]
    quad = TorusQuadrature(n, _torus_nodes(n, q, _degree(polys), t=t), q)
    spec = quad.spectrum(np.exp(sum(g + 1 / g for g in quad.grids) * t))
    return {z: float(poly.evaluate(a)) / norm
            * (_against(spec, poly) / _group_order(n) * norm_squared_factor(z, n, ctx)).real
            for z, poly in zip(states, polys)}


# ---------------------------------------------------------------------------
# Koornwinder difference operator
# ---------------------------------------------------------------------------

def _A_coeff(a: Sequence[complex], q: float, i: int) -> complex:
    den = (1 - a[i] ** 2) * (1 - q * a[i] ** 2)
    for j, aj in enumerate(a):
        if j != i:
            den *= (1 - a[i] * aj) * (1 - a[i] / aj)
    if abs(den) < 1e-8:
        raise ValueError("--a lies on or next to a pole of the operator route's difference "
                         "operator (some a_i^2, a_i a_j or a_i / a_j an integer power of q); "
                         "use an --a off 1 and off those points")
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
    """Precision of the rank-1 moment sums, and the base of that of the law:
    30 digits past the amplification q^{-kz} of every k <= 3 and z <= zmax,
    and at least 40."""
    return max(40, 30 + math.ceil(3 * zmax * math.log10(1 / q)))


def _direct_moment_rank_one(k: int, t: float, a: float, q: float, zmax: int) -> float:
    """Direct sum sum_z q^{-kz} p_z for n=1 over the law of ``_rank_one_law``,
    in ``_rank_one_dps`` digits: q^{-kz} multiplies each p_z's rounding noise by
    up to q^{-3 zmax}, which the precision rule leaves 30 digits to spare.
    Raises when the window 0..zmax misses more than 1e-6 of the mass."""
    import mpmath as mp

    law_z = _rank_one_law(t, a, q, zmax)
    with mp.workdps(_rank_one_dps(q, zmax)):
        defect = 1 - mp.fsum(law_z)
        if defect > _MASS_TOL:
            raise ValueError(f"window mass defect {float(defect):.2e} exceeds {_MASS_TOL:.0e}; "
                             "enlarge the window")
        qm = mp.mpf(q)
        return float(mp.fsum(qm ** (-k * z) * p_z for z, p_z in enumerate(law_z)))


@functools.lru_cache(maxsize=8)
def _rank_one_law(t: float, a: float, q: float, zmax: int) -> tuple:
    """p_z for z = 0..zmax at rank 1: the torus integral of
    e^{2t cos theta} h_z(x) |(x^2;q)_inf|^2 at x = e^{i theta}, times the
    character h_z at the real point, over (q;q)_z and exp((a + 1/a) t),
    as a finite sum of Fourier coefficients.

    By the Jacobi triple product the weight times (q;q)_inf is
    sum_j w_j x^{2j}, with w_0 = 2 and w_{+-j} = c_j - c_{j+1} for
    c_m = (-1)^m q^{m(m-1)/2}, cut where q^{m(m-1)/2} < 10^-dps.  With
    I^_n = I_|n|(2t) e^{-2t}, the coefficients of e^{2t (cos theta - 1)},
    and h_z = sum_k [z k]_q x^{z-2k}, the integral is the constant term
    M_z = sum_k [z k]_q G_{z-2k}, G_d = sum_j w_j I^_{d+2j}, and
    p_z = h_z(a) M_z / (2 (q;q)_z e^{(a+1/a-2)t}).  The I^_n come from one
    backward (Miller) recurrence normalized to I^_0 + 2 sum I^_n = 1, started
    past the largest index read where t^n / n! >= I^_n is below 10^-dps;
    at t = 0, I^_n is 1 at n = 0 and 0 elsewhere.  h_z(a) and [z k]_q come
    from their three-term and q-Pascal recurrences.

    The rounding of M_z is that of its terms, up to [z k]_q <= 1 / (q;q)_z,
    and reaches p_z times h_z(a) / (q;q)_z, where
    h_z(a) <= (z + 1) max(a, 1/a)^z / (q;q)_z: so dps is ``_rank_one_dps``
    plus zmax |log10 a| + 3 log10(1 / (q;q)_zmax) plus ten guard digits."""
    import mpmath as mp

    lost = zmax * abs(math.log10(a)) - 3 * sum(math.log10(1 - q ** k)
                                               for k in range(1, zmax + 1))
    dps = _rank_one_dps(q, zmax) + math.ceil(lost) + 10
    with mp.workdps(dps):
        qm, tm, am = mp.mpf(q), mp.mpf(t), mp.mpf(a)
        # w_j for j = -M..M from c_1..c_M
        c, qpow, cut = [], mp.mpf(1), mp.mpf(10) ** -dps
        while qpow >= cut:
            c.append(-qpow if len(c) % 2 == 0 else qpow)
            qpow *= qm ** len(c)
        w = [x - y for x, y in zip(c, c[1:] + [0])]
        w = w[::-1] + [mp.mpf(2)] + w
        reach = len(c)
        # I^_n for n = 0..top, the largest index G_d reads
        top = zmax + 2 * reach
        if t == 0:
            bessel = [mp.mpf(1)] + [mp.mpf(0)] * top
        else:
            start, log_bound = 0, 0.0
            while start <= top or log_bound > -dps:
                start += 1
                log_bound += math.log10(t / start)
            bessel = [mp.mpf(0)] * start + [mp.mpf(1), mp.mpf(0)]
            for n in range(start, 0, -1):
                bessel[n - 1] = bessel[n + 1] + n / tm * bessel[n]
            scale = 2 * mp.fsum(bessel) - bessel[0]
            bessel = [b / scale for b in bessel]
        G = [mp.fdot(w, [bessel[abs(d + 2 * j)] for j in range(-reach, reach + 1)])
             for d in range(zmax + 1)]
        qpows = [qm ** k for k in range(zmax + 1)]
        # row z of the q-binomials, (q;q)_z and h_z(a), advanced together
        binom, qq_z, h_prev, h_z = [1], mp.mpf(1), mp.mpf(1), mp.mpf(1)
        norm = 2 * mp.exp((am + 1 / am - 2) * tm)
        out = []
        for z in range(zmax + 1):
            if z:
                binom = [1] + [binom[k - 1] + qpows[k] * binom[k] for k in range(1, z)] + [1]
                qq_z *= 1 - qpows[z]
                h_prev, h_z = h_z, (am + 1 / am) * h_z - (1 - qpows[z - 1]) * h_prev
            M_z = mp.fdot(binom, [G[abs(z - 2 * k)] for k in range(z + 1)])
            out.append(h_z * M_z / (qq_z * norm))
        return tuple(out)


def moments(n: int, k: int, t: float, a: Sequence[float], q: float,
            window: int = 40) -> dict:
    """<q^{-k Z_1}> by three independent routes: direct law summation,
    Koornwinder operator powers, and the nested contour integrals deformed
    onto small circles around their poles (``contour_moment``, which raises
    where its two node counts disagree).  Above rank 1, direct is the mean
    over ``law``'s generator row, whose Poisson sum keeps the far states'
    small probabilities that q^{-kz} weights up; the window bounds the mass
    past it, not this sum.  max_pairwise_relative is the routes' spread:
    the largest |v_i - v_j| / max(|v_j|, 1) over the pairs i < j of
    (direct, operator, contour)."""
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
        try:
            # the largest q^(-k z_1) of the window, before its generator is built
            q ** (-k * window)
            direct = law(n, t, a, q, window).mean(lambda z: q ** (-k * part(z, 1)))
        except OverflowError:
            raise ValueError(f"q^(-k z_1) overflows a double at --window {window}, --k {k}, "
                             f"--q {q}; use a smaller --window or --k, or a larger --q") from None

    def Pi(pt):
        return np.exp(sum((u + 1 / u) * t for u in pt))

    try:
        with np.errstate(over="raise", invalid="raise"):
            operator = sum(math.comb(k, j)
                           * complex(koornwinder_apply(Pi, a, n, q, j)).real
                           for j in range(k + 1)) / norm
    except FloatingPointError:
        raise ValueError(f"the operator route overflows a double at t = {t}, q = {q}; "
                         "use a smaller --t or a larger --q") from None
    contour = contour_moment(n, k, t, a, q)
    vals = (direct, operator, contour)
    spread = max(abs(vals[i] - vals[j]) / max(abs(vals[j]), 1.0)
                 for i in range(3) for j in range(i + 1, 3))
    return {"direct": direct, "operator": operator, "contour": contour,
            "max_pairwise_relative": spread}


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
    lam = canon(lam)
    target = qwhittaker_recursion(n, lam, QSeriesCtx(q)).map_coefficients(float)
    diff = family[lam] - target
    return max((abs(c) for c in diff.terms.values()), default=0.0)
