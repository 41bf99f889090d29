"""Torus quadrature for the hyperoctahedral inner product, the time-t law of
the bottom shape, the Koornwinder difference operator, moment formulas by
three independent routes (law summation, operator powers, nested contour
integrals) and a Gram-Schmidt probe for the t0-deformed family.

Inner products against a Laurent polynomial come from Fourier coefficients,
not from evaluating the polynomial on the grid: on the uniform N^n grid the
trapezoid mean of F x^-e w is entry [e mod N] of fftn(F w) / N^n.  So one
FFT of F w serves every polynomial paired with F, and two polynomials pair
through the spectrum of the weight alone.  The weight itself is a real
product of 1-D factors |(e^{i phi};q)_inf|^2, each evaluated once on the
N-point circle and gathered onto the grid by index.

At rank 1 the direct moment route sums q^{-kz} p_z over a law computed in
mpmath: there the weight times (q;q)_inf is the Jacobi triple-product theta
series, the trapezoid rule runs over half the circle (every factor depends
on cos theta alone), and the working precision is 30 digits past the
amplification q^{-3 window} of the largest moment the contour route checks."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .algebra import INF, LaurentPoly, QSeriesCtx, q_pochhammer
from .characters import monomial_symmetric, qwhittaker_recursion
from .combinatorics import padded, part, partitions_max_weight
from .dynamics import ShapeLaw

Evaluable = Union[LaurentPoly, Callable]


def pochhammer_depth(q: float) -> int:
    """Default truncation of (x;q)_infinity: at least 60 factors, and enough
    that |q|^K < 1e-17.  The product diverges for |q| >= 1."""
    if abs(q) >= 1:
        raise ValueError(f"--q must satisfy |q| < 1, got {q}")
    if abs(q) < 1e-17:
        return 60
    return max(60, math.floor(math.log(1e-17) / math.log(abs(q))) + 1)


@dataclass
class TorusQuadrature:
    """Uniform trapezoid nodes on the n-torus with the orthogonality weight
    cached; spectrally accurate for Laurent-polynomial integrands.  A
    truncation of 0 means ``pochhammer_depth(q)``; each construction probes
    it and keeps the probe's residual as ``truncation_residual``."""
    n: int
    nodes: int = 0
    q: float = 0.5
    t0: float = 0.0
    truncation: int = 0
    truncation_residual: float = field(init=False, compare=False)
    _weight_spectrum: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        if self.nodes == 0:
            self.nodes = 4096 if self.n == 1 else 512
        if self.truncation == 0:
            self.truncation = pochhammer_depth(self.q)
        # 16 points off the zeros of the weight: axis j is shifted by 0.7 j,
        # since a_j = a_k would zero every pair factor
        probe = [np.exp(1j * (2 * np.pi * np.arange(16) / 16 + 0.1 + 0.7 * j))
                 for j in range(self.n)]
        cur = self._weight(self.truncation, probe)
        residual = float(np.abs(self._weight(2 * self.truncation, probe) - cur).max())
        if residual > 1e-10:
            raise ValueError(f"pochhammer truncation {self.truncation} too short "
                             f"for q = {self.q} (residual {residual:.1e}); raise it")
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
        poch = functools.partial(q_pochhammer, QSeriesCtx(float(self.q), self.truncation), k=INF)
        factor = np.abs(poch(circle)) ** 2
        single = factor[2 * np.arange(N) % N]
        if self.t0:
            single = single / np.abs(poch(self.t0 * circle)) ** 2
        self.weight = np.ones([N] * self.n)
        for j in range(self.n):
            self.weight *= single[idx[j]]
            for k in range(j + 1, self.n):
                self.weight *= factor[(idx[j] + idx[k]) % N] * factor[(idx[k] - idx[j]) % N]

    def _weight(self, terms: int, grids: Sequence[np.ndarray]) -> np.ndarray:
        """The weight as the complex product of its 2n + 4 binom(n, 2)
        Pochhammer symbols (2n more with t0) at the given points."""
        poch = functools.partial(q_pochhammer, QSeriesCtx(float(self.q), terms), k=INF)
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


def inner_product(f: Evaluable, g: Evaluable, quad: TorusQuadrature) -> complex:
    """Grid mean of f conj(g) w over the group order, where at least one of
    f and g is a polynomial.  A polynomial g is read against the Fourier
    coefficients of f w (of w alone, when f is a polynomial too)."""
    if not isinstance(g, LaurentPoly):
        return inner_product(g, f, quad).conjugate()
    if isinstance(f, LaurentPoly):
        ip = _pair(f, g, quad)
    else:
        ip = _against(quad.spectrum(f(*quad.grids)), g)
    return complex(ip) / _group_order(quad.n)


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
    return math.exp(sum(x + 1 / x for x in a) * t)


def law(n: int, t: float, a: Sequence[float], q: float, window: int,
        quad: Optional[TorusQuadrature] = None, tol: float = 1e-6) -> ShapeLaw:
    """Time-t distribution of the bottom shape started from the empty shape:
    p_t(z) is the character at the real point times the torus coefficient of
    the exponential generating function, normalized by exp(sum(a+1/a) t).
    Negative p_t(z) are clamped to 0.  ``error`` is |mass defect| + |clamped
    mass| + the summed noise floors; ``stats`` holds the mass defect 1 - sum p
    (after the clamp), the clamped mass and the number of clamped states."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    quad = quad or TorusQuadrature(n, q=q)
    ctx = QSeriesCtx(q, truncation=quad.truncation)
    a = tuple(float(x) for x in a)
    states = sorted(z for z in partitions_max_weight(n, window * n)
                    if part(z, 1) <= window)
    two_t_cos = sum(g + 1 / g for g in quad.grids) * t
    pi_vals = np.exp(two_t_cos)
    norm = pi_norm(a, t)
    wmax = float(np.abs(pi_vals * quad.weight).max())
    spec = quad.spectrum(pi_vals)
    table, noise = {}, {}
    clamped_mass, clamped_states = 0.0, 0
    for z in states:
        poly = qwhittaker_recursion(n, z, ctx)
        nf = norm_squared_factor(z, n, ctx)
        coeff = _against(spec, poly) / _group_order(n) * nf
        at_a = float(poly.evaluate(a))
        p = at_a * coeff.real / norm
        if p < 0:
            clamped_mass += p
            clamped_states += 1
        table[z] = max(p, 0.0) if abs(p) > 1e-15 else 0.0
        noise[z] = 1e-15 * wmax * at_a * nf / norm
    defect = 1.0 - sum(table.values())
    if defect > tol:
        raise ValueError(f"window mass defect {defect:.2e} exceeds {tol:.0e}; "
                         "enlarge the window")
    if defect < -tol:
        raise ValueError(f"window mass defect {defect:.2e} is below -{tol:.0e}: states "
                         "past the quadrature noise floor add mass; shrink the window")
    return ShapeLaw(table, abs(defect) + abs(clamped_mass) + sum(noise.values()), noise,
                    {"mass_defect": defect, "clamped_mass": clamped_mass,
                     "clamped_states": clamped_states})


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

@dataclass
class ContourSpec:
    """Nested circles (outermost first) for the moment integrals: each must
    enclose the a-poles and the images of every inner circle under s -> qs
    and s -> 1/(qs), exclude the origin, and keep the inner circles clear of
    the reflected poles s/q and 1/(qs), by margins of 0.02 inside a circle
    and 0.003 outside it."""
    circles: list                   # [(center, radius)] outermost first

    def validate(self, a: Sequence[float], q: float) -> None:
        samples = np.exp(1j * np.linspace(0, 2 * np.pi, 720, endpoint=False))

        def inside(pts, c, r, want):
            d = np.abs(np.asarray(pts) - c)
            if want and not np.all(d < r - 0.02):
                raise ValueError("contour fails to enclose required poles; "
                                 "suggest increasing the radius")
            if not want and not np.all(d > r + 0.003):
                raise ValueError("contour encloses an excluded singularity; "
                                 "suggest shifting the center or shrinking")

        poles = [x for ai in a for x in (ai, 1 / ai)]
        for j, (c, r) in enumerate(self.circles):
            inside(poles, c, r, True)
            inside([0.0], c, r, False)
            for ci, ri in self.circles[j + 1:]:
                curve = ci + ri * samples
                inside(q * curve, c, r, True)
                inside(1 / (q * curve), c, r, True)
                outer_curve = c + r * samples
                inside_pts = np.concatenate([outer_curve / q, 1 / (q * outer_curve)])
                inside(inside_pts, ci, ri, False)


def default_contour_spec(a: Sequence[float], q: float, depth: int) -> ContourSpec:
    """Pole bookkeeping for real positive a: an innermost circle hugging the
    a-cluster, then successively larger circles enclosing the shifted images."""
    pts = [x for ai in a for x in (ai, 1 / ai)]
    lo, hi = min(pts), max(pts)
    circles = [( (lo + hi) / 2, (hi - lo) / 2 + 0.1 )]
    for _ in range(depth - 1):
        c, r = circles[0]
        # images of the inner circle under s -> qs and s -> 1/(qs)
        qc, qr = q * c, q * r
        ic = qc / (qc ** 2 - qr ** 2)
        ir = qr / abs(qc ** 2 - qr ** 2)
        hi_new = max(hi, qc + qr, ic + ir) + 0.06
        lo_new = max(min(lo, qc - qr, ic - ir) - 0.06, 0.03)
        center = (lo_new + hi_new) / 2
        radius = (hi_new - lo_new) / 2
        circles.insert(0, (center, radius))
    spec = ContourSpec(circles)
    spec.validate(a, q)
    return spec


# the l-fold contour grid has at most this many points (2^24 complex
# entries are 256 MiB per array)
_CONTOUR_GRID_POINTS = 2 ** 24


def contour_moment(n: int, k: int, t: float, a: Sequence[float], q: float) -> float:
    """<q^{-k Z_1}> via the nested contour representation (k <= 3).  The
    l-fold term uses min(1024, floor(2^(24 / l))) nodes per circle, so its
    grid stays within _CONTOUR_GRID_POINTS: 1024 for l <= 2, 256 for l = 3."""
    if k > 3:
        raise ValueError("contour route implemented for k <= 3")
    a = tuple(float(x) for x in a)
    total = 1.0   # l = 0 term
    for l in range(1, k + 1):
        sp = default_contour_spec(a, q, l)
        per_axis = min(1024, int(2 ** (math.log2(_CONTOUR_GRID_POINTS) / l)))
        phi = np.exp(2j * np.pi * np.arange(per_axis) / per_axis)
        ss, dw = [], []
        for d, (c, r) in enumerate(sp.circles):
            shape = [1] * l
            shape[d] = per_axis
            s = (c + r * phi).reshape(shape)
            ss.append(s)
            dw.append(((s - c) / s))

        def base(s):
            f = 1 / (1 - q * s ** 2)
            for ai in a:
                f = f / ((s - ai) * (s - 1 / ai))
            return f

        def exp_factor(s):
            return np.exp(((q - 1) * s + (1 / q - 1) / s) * t)

        # cross and the integrand are built in place, so that at most two
        # full l-fold grids are alive at once
        integrand = np.ones([1] * l, dtype=complex)
        for j in range(l):
            cross = np.ones([per_axis] * (j + 1) + [1] * (l - j - 1), dtype=complex)
            for i in range(j):
                cross *= ss[i] - ss[j]
                cross *= ss[i] - 1 / ss[j]
                cross /= (ss[i] - q * ss[j]) * (ss[i] - 1 / (q * ss[j]))
            cross *= exp_factor(ss[j])
            cross -= 1
            integrand = integrand * base(ss[j])
            integrand *= cross
            integrand *= dw[j]
            del cross
        val = complex(np.mean(integrand))
        total += math.comb(k, l) * ((-1) ** l) * val.real
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
    point alike."""
    import mpmath as mp

    dps, nodes = _rank_one_dps(q, zmax), 512
    with mp.workdps(dps):
        qm, tm, am = mp.mpf(q), mp.mpf(t), mp.mpf(a)
        cos1 = [mp.cos(2 * mp.pi * j / nodes) for j in range(1, nodes // 2)]
        # 2 (-1)^m q^{m(m-1)/2} for m = 1, 2, ... while q^{m(m-1)/2} >= cut
        theta_coef, qpow, m = [], mp.mpf(1), 1
        cut = mp.mpf(10) ** (-dps - 5)
        while qpow >= cut:
            theta_coef.append(-2 * qpow if m % 2 else 2 * qpow)
            qpow *= qm ** m
            m += 1
        # e^{2t cos theta} * weight * (q;q)_inf, the last as the theta series
        # in the Chebyshev T_m of cos 2 theta
        pw = []
        for c in cos1:
            c2 = 2 * c * c - 1
            t_prev, t_cur, w = mp.mpf(1), c2, mp.mpf(0)
            for cm in theta_coef:
                w += cm * (t_cur - t_prev)
                t_prev, t_cur = t_cur, 2 * c2 * t_cur - t_prev
            pw.append(w * mp.exp(2 * tm * c))
        # recurrence over the character degree on nodes and at the real point
        two_c = [2 * c for c in cos1]
        h_prev, h_cur = [mp.mpf(1)] * len(cos1), two_c
        v_prev, v_cur = mp.mpf(1), am + 1 / am
        qq_z = mp.mpf(1)
        # the rule is twice the half sum over nodes, then over the group order 2
        norm = nodes * mp.exp((am + 1 / am) * tm)
        out = []
        for z in range(zmax + 1):
            hz = h_prev if z == 0 else h_cur
            vz = v_prev if z == 0 else v_cur
            out.append(vz * mp.fdot(pw, hz) / (qq_z * norm))
            qq_z *= 1 - qm ** (z + 1)
            if z >= 1:
                fac = 1 - qm ** z
                h_prev, h_cur = h_cur, [tc * hc - fac * hp
                                        for tc, hc, hp in zip(two_c, h_cur, h_prev)]
                v_prev, v_cur = v_cur, (am + 1 / am) * v_cur - fac * v_prev
        return tuple(out)


def moments(n: int, k: int, t: float, a: Sequence[float], q: float,
            window: int = 40) -> dict:
    """<q^{-k Z_1}> by three independent routes: direct law summation,
    Koornwinder operator powers, and nested contour integrals.  Above rank
    1, direct is the mean over ``law``, whose ``error`` bounds its mass but
    not this sum: q^{-kz} amplifies the noise, so for k > 0 a state counts
    only when its probability exceeds 20 times its noise floor."""
    if not 0 < q < 1:
        raise ValueError(f"--q must lie in (0, 1), got {q}")
    if t < 0:
        raise ValueError(f"--t must be nonnegative, got {t}")
    if not 0 <= k <= 3:
        raise ValueError(f"--k must lie in 0..3, the contour route's range, got {k}")
    if window < 1:
        raise ValueError(f"--window must be at least 1, got {window}")
    a = tuple(float(x) for x in a)
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
                   for j in range(k + 1)) / pi_norm(a, t)
    contour = contour_moment(n, k, t, a, q)
    return {"direct": direct, "operator": operator, "contour": contour}


# ---------------------------------------------------------------------------
# orthogonality checks and the Gram-Schmidt probe
# ---------------------------------------------------------------------------

def orthogonality_matrix(n: int, shapes: Sequence, q: float,
                         quad: Optional[TorusQuadrature] = None) -> np.ndarray:
    """Matrix <P_lam, P_mu> * norm factor; the identity when orthogonality
    holds for the recursion-defined family."""
    quad = quad or TorusQuadrature(n, q=q)
    ctx = QSeriesCtx(q, truncation=quad.truncation)
    polys = [qwhittaker_recursion(n, tuple(z), ctx) for z in shapes]
    m = len(shapes)
    out = np.zeros((m, m))
    for i in range(m):
        ni = norm_squared_factor(shapes[i], n, ctx)
        for j in range(m):
            out[i, j] = inner_product(polys[i], polys[j], quad).real * ni
    return out


def reconstruct(g: Evaluable, points: Sequence, n: int, q: float, max_weight: int,
                quad: Optional[TorusQuadrature] = None) -> list:
    """Completeness probe: expand g in the orthogonal family truncated at
    |shape| <= max_weight and re-evaluate at the given torus points."""
    quad = quad or TorusQuadrature(n, q=q)
    ctx = QSeriesCtx(q, truncation=quad.truncation)
    shapes = [z for z in partitions_max_weight(n, max_weight)]
    out = []
    coeffs = []
    for z in shapes:
        p = qwhittaker_recursion(n, z, ctx)
        c = inner_product(g, p, quad) * norm_squared_factor(z, n, ctx)
        coeffs.append((p, c))
    for pt in points:
        pt = tuple(pt) if isinstance(pt, (tuple, list)) else (pt,)
        out.append(sum(c * complex(p.evaluate(pt)) for p, c in coeffs))
    return out


def gram_schmidt_koornwinder(n: int, q: float, t0: float, max_weight: int) -> dict:
    """Numerically orthogonalized monic family for the t0-deformed weight, in
    graded lexicographic order (a refinement of dominance).  Returns a map
    shape -> LaurentPoly with float coefficients."""
    if not 0 <= t0 < 1:
        raise ValueError("t0 must lie in [0, 1)")
    quad = TorusQuadrature(n, q=q, t0=t0, nodes=2048 if n == 1 else 256)
    shapes = sorted(partitions_max_weight(n, max_weight),
                    key=lambda z: (sum(z), z))
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


def conjecture_distance(n: int, lam, q: float, t0: float,
                        family: Optional[dict] = None) -> float:
    """Reported (never asserted) coefficient distance between the small-t0
    orthogonal family and the recursion-defined character."""
    from .combinatorics import canon
    lam = canon(lam)
    fam = family or gram_schmidt_koornwinder(n, q, t0, sum(lam))
    target = qwhittaker_recursion(n, lam, QSeriesCtx(q)).map_coefficients(float)
    diff = fam[lam] - target
    return max((abs(c) for c in diff.terms.values()), default=0.0)
