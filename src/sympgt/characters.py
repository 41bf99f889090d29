"""Characters and invariant functions: hyperoctahedral monomials, symplectic
Schur functions (Weyl ratio / tableau sum / pattern sum), type-A Schur
functions, q-deformed pattern characters with their level recursion, and the
Pieri difference operator.  ``slice_binomials`` is the one home of the
pattern weight: the oracle ``_char`` evaluates a pattern character at a
point by the slice recursion, and the Markov link ``_link`` is the slice
weight times the lower character over the upper one.

The tableau sum and the pattern sum are depth-first walks that build no
object per tableau or pattern: each keeps its current path (the filling,
or the slice weights) and the exponent vector on the stack and adds a
completed term per exponent vector, in the order of first appearance.  In
exact mode the Weyl ratio, the pattern sum and the level recursion
multiply and sum Python integers and make one Fraction per value or per
output coefficient; ``_char`` stays on Fractions.  The memos of
``qwhittaker_recursion`` and ``_char`` key on ints: ``QSeriesCtx.key`` for
q and its mode, and ``_point_keys`` for the point, so a lookup hashes no
Fraction."""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Iterator, Sequence

from .algebra import INF, LaurentPoly, QSeriesCtx, Scalar, _f, is_exact, q_binomial, q_hermite
from .combinatorics import (
    canon,
    enumerate_patterns_typeA,
    interlaces,
    interlacings,
    level_len,
    padded,
    part,
    partitions_max_weight,
)


# ---------------------------------------------------------------------------
# monomials and symplectic Schur
# ---------------------------------------------------------------------------

def monomial_symmetric(n: int, lam: Sequence[int]) -> LaurentPoly:
    """Sum of a^mu over the orbit of lam under permutations and sign flips
    of the exponents, each distinct exponent vector counted once."""
    lam = padded(lam, n)
    orbit = set()
    for perm in permutations(lam):
        for signs in product(*[(1, -1) if e else (1,) for e in perm]):
            orbit.add(tuple(s * e for s, e in zip(signs, perm)))
    return LaurentPoly(n, {mu: 1 for mu in orbit})


def symplectic_schur_weyl(n: int, lam: Sequence[int], a: Sequence[Scalar]) -> Fraction:
    """Weyl ratio of determinants at a rational point, in integers.  With
    a_i = p_i / r_i, the entry a_i^e - a_i^{-e} of a determinant whose
    largest exponent is E is (p_i^{2e} - r_i^{2e}) (p_i r_i)^{E-e} over
    (p_i r_i)^E; each integer determinant runs Bareiss elimination, and the
    ratio of the two is divided by prod_i (p_i r_i)^{lambda_1}, the
    difference of the row scales.  Requires a generic point (a_i not in
    {0, 1, -1}, a_i != a_j^{+-1}), where the denominator does not vanish;
    raises a ValueError naming --a otherwise."""
    lam = padded(lam, n)
    if len(a) != n:
        raise ValueError("point has wrong arity")
    if not all(map(is_exact, a)):
        raise ValueError(f"--a {','.join(map(str, a))} is not rational: the Weyl formula "
                         "is evaluated exactly")
    if any(ai in (0, 1, -1) for ai in a) or any(
            a[i] == a[j] or a[i] * a[j] == 1 for i in range(n) for j in range(i)):
        raise ValueError(f"--a {','.join(map(str, a))} is not a generic point: the Weyl "
                         "formula needs a_i not in {0, 1, -1} and a_i != a_j^(+-1)")
    pr = [(ai.numerator, ai.denominator) for ai in a]
    # 0-based column j holds exponent lambda_{j+1} + n - (j+1) + 1 = lam[j] + n - j
    exps_num = [lam[j] + n - j for j in range(n)]
    exps_den = [n - j for j in range(n)]

    def det(exps):
        E = exps[0]
        return _det_int([[(p ** (2 * e) - r ** (2 * e)) * (p * r) ** (E - e) for e in exps]
                         for p, r in pr])

    return Fraction(det(exps_num), det(exps_den) * math.prod(p * r for p, r in pr) ** lam[0])


def _det_int(m):
    """Fraction-free Gaussian elimination (Bareiss) on an integer matrix,
    in place; every division is exact."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def symplectic_schur_tableaux(n: int, lam: Sequence[int]) -> LaurentPoly:
    """Tableau generating function: sum over symplectic tableaux of shape lam
    of prod_i a_i^{(count of i) - (count of i-bar)}.

    The tableaux are filled cell by cell in row-major order, each cell
    taking every letter from the least that S1, S2 and S3 allow up to
    n-bar, depth first; the walk keeps the filling and its exponent vector
    (letter i adds 1 to entry i, i-bar subtracts 1), and counts each
    completed filling under its vector, in order of first appearance."""
    lam = canon(lam)
    if len(lam) > n:
        raise ValueError("shape has too many rows for the rank")
    cells = [(i, j) for i, r in enumerate(lam) for j in range(r)]
    grid = [[0] * r for r in lam]
    weight = [0] * n
    counts: dict = {}

    def fill(c: int) -> None:
        i, j = cells[c]
        row = grid[i]
        lo = 2 * i + 1                                # S3
        if j and row[j - 1] > lo:
            lo = row[j - 1]                           # S1
        if i and grid[i - 1][j] >= lo:
            lo = grid[i - 1][j] + 1                   # S2
        for x in range(lo, 2 * n + 1):
            row[j] = x
            v, step = (x - 1) >> 1, 1 if x & 1 else -1
            weight[v] += step
            if c + 1 < len(cells):
                fill(c + 1)
            else:
                key = tuple(weight)
                counts[key] = counts.get(key, 0) + 1
            weight[v] -= step

    if cells:
        fill(0)
    else:
        counts[tuple(weight)] = 1
    return LaurentPoly(n, counts)


# ---------------------------------------------------------------------------
# q-deformed pattern characters
# ---------------------------------------------------------------------------

def slice_binomials(ctx: QSeriesCtx, k: int, lower: Sequence[int], upper: Sequence[int]) -> Scalar:
    """q-binomial product attached to the step from level k-1 to level k.
    Level k has l = level_len(k) coordinates; the last coordinate carries an
    extra binomial only on even levels."""
    l = level_len(k)
    w: Scalar = 1
    for i in range(l - 1):
        w = w * q_binomial(ctx, upper[i] - upper[i + 1], upper[i] - part(lower, i + 1))
    if k % 2 == 0:
        w = w * q_binomial(ctx, upper[l - 1], upper[l - 1] - part(lower, l))
    return w


def qwhittaker_pattern_sum(N: int, z: Sequence[int], ctx: QSeriesCtx) -> LaurentPoly:
    """Pattern character of N levels with bottom level z: sum over patterns of
    the q-binomial slice weights, with variable a_l carrying exponent
    (|z^{2l-1}| - |z^{2l-2}|) - (|z^{2l}| - |z^{2l-1}|) and, for odd N, the
    unmatched top slice contributing a_n^{|z^N| - |z^{N-1}|}.

    The patterns are walked depth first from level N down to level 1, in
    the order of ``combinatorics._chains``, with no object per pattern.  The
    slices below a level (k, upper) are listed once per call, each with its
    weight and the step of |z^k| - |z^{k-1}| that it adds to the exponent
    vector; the walk keeps the exponent vector and the slice weights of
    the current path.  In exact mode a weight is its integer numerator and
    denominator, the walk carries their products down the path, and
    ``_fraction_sums`` adds each pattern's pair per exponent vector.  In
    float mode a pattern's weight is the product of its slice weights in
    level order, k = 1 to N, so the rounding is that of the product taken
    pattern by pattern."""
    nvars = (N + 1) // 2
    exact = ctx.exact
    exps = [0] * nvars
    path = [1] * N          # path[k - 1]: the weight of slice k on the current path
    leaves: list = []

    @functools.cache
    def slices(k: int, upper: tuple) -> list:
        size = sum(upper)
        out = []
        for lower in interlacings(upper, level_len(k - 1)):
            w = slice_binomials(ctx, k, lower, upper)
            step = size - sum(lower)
            n, d = (w.numerator, w.denominator) if exact else (1, 1)
            out.append((lower, step if k % 2 else -step, w, n, d))
        return out

    def walk(k: int, upper: tuple, num: int, den: int) -> None:
        v = (k - 1) // 2
        for lower, step, w, n, d in slices(k, upper):
            exps[v] += step
            path[k - 1] = w
            if k > 1:
                walk(k - 1, lower, num * n, den * d)
            elif exact:
                leaves.append((tuple(exps), num * n, den * d))
            else:
                leaves.append((tuple(exps), math.prod(path)))
            exps[v] -= step

    walk(N, padded(z, level_len(N)), 1, 1)
    return LaurentPoly(nvars, _fraction_sums(leaves) if exact else leaves)


def _fraction_sums(triples) -> Iterator[tuple]:
    """Sum ``(exponents, numerator, denominator)`` triples per exponent
    vector as one integer pair (N, D), with no gcd: where one denominator
    divides the other the sum keeps the larger, otherwise the two multiply.
    Yields one ``(exponents, Fraction(N, D))`` per vector, in order of first
    appearance."""
    acc: dict = {}
    for exps, n, d in triples:
        prev = acc.get(exps)
        if prev is None:
            acc[exps] = n, d
            continue
        N, D = prev
        if D % d == 0:
            acc[exps] = N + n * (D // d), D
        elif d % D == 0:
            acc[exps] = N * (d // D) + n, d
        else:
            acc[exps] = N * d + n * D, D * d
    return ((exps, Fraction(N, D)) for exps, (N, D) in acc.items())


def _kernel_term(ctx: QSeriesCtx, nu, mu, lam_p, upper: Scalar) -> tuple:
    """The term of Q(nu, lam) from the middle level mu, given the weight
    ``upper`` of the slice from mu to lam: the pair (exponent of a_n, the
    two slice weights' product)."""
    n = len(lam_p)
    return ((2 * sum(mu) - sum(nu) - sum(lam_p),),
            slice_binomials(ctx, 2 * n - 1, nu, mu) * upper)


def qwhittaker_kernel(ctx: QSeriesCtx, nu: Sequence[int], lam: Sequence[int], n: int) -> LaurentPoly:
    """Two-slice kernel Q(nu, lam) linking rank n-1 to rank n, a Laurent
    polynomial in a_n: the slice weights of levels 2n-1 and 2n summed over
    the middle levels mu, zero when none interlaces between nu and lam."""
    lam_p = padded(lam, n)
    nu_c = canon(nu)
    return LaurentPoly(1, (_kernel_term(ctx, nu_c, mu, lam_p,
                                        slice_binomials(ctx, 2 * n, mu, lam_p))
                           for mu in interlacings(lam_p, n) if interlaces(nu_c, mu)))


def _kernels(ctx: QSeriesCtx, lam_p: tuple) -> dict:
    """Every nonzero Q(nu, lam) at rank n = len(lam_p), keyed by canonical nu
    in order of first appearance, from one walk over the mu interlacing below
    lam and the nu interlacing below each mu; each mu's slice weight to lam
    is computed once.  Each kernel's terms come in the order of
    ``qwhittaker_kernel``'s walk, so the two agree bitwise."""
    n = len(lam_p)
    terms: dict = {}
    for mu in interlacings(lam_p, n):
        upper = slice_binomials(ctx, 2 * n, mu, lam_p)
        for nu in interlacings(mu, n - 1):
            nu = canon(nu)
            terms.setdefault(nu, []).append(_kernel_term(ctx, nu, mu, lam_p, upper))
    kernels = {nu: LaurentPoly(1, pairs) for nu, pairs in terms.items()}
    return {nu: ker for nu, ker in kernels.items() if ker}


_recursion_cache: dict = {}


def qwhittaker_recursion(n: int, lam: Sequence[int], ctx: QSeriesCtx) -> LaurentPoly:
    """Level recursion for the q-deformed character of 2n levels, as a
    Laurent polynomial: rank 1 is the one-variable q-Hermite polynomial;
    rank n is ``sum_nu P_nu(a_1..a_{n-1}) Q(nu, lam)(a_n)`` over the distinct
    nu two interlacing steps below lam, with every kernel from one walk
    (``_kernels``).  Each rank n-1 term c a^e times each kernel term w a_n^d
    is the pair ``(e + d, c * w)``, and the constructor sums the pairs in
    one pass; in exact mode c w is one integer numerator and denominator,
    ``_fraction_sums`` adds them per exponent vector, and the constructor
    gets one Fraction per vector.  The symbolic build serves where the whole polynomial is
    needed: ``compute``, the torus coefficients of ``law``,
    ``orthogonality_matrix``, the Gram-Schmidt probe and the ledger's exact
    identities.  The dynamics evaluate characters at a point by the slice
    recursion of ``_char`` instead.

    Memoized in ``_recursion_cache`` under ``(n, lam, ctx.key)``: the ctx
    key names q with its exactness, so ``q = 0.5`` and ``q = Fraction(1,
    2)`` (which compare and hash equal) stay apart."""
    lam = canon(lam)
    if len(lam) > n:
        raise ValueError("shape has too many rows for the rank")
    key = (n, lam, ctx.key)
    hit = _recursion_cache.get(key)
    if hit is not None:
        return hit
    if n == 1:
        result = q_hermite(ctx, part(lam, 1))
    else:
        lam_p = padded(lam, n)
        pairs = ((qwhittaker_recursion(n - 1, nu, ctx).terms.items(), ker.terms.items())
                 for nu, ker in _kernels(ctx, lam_p).items())
        if ctx.exact:
            result = LaurentPoly(n, _fraction_sums(
                (e + d, c.numerator * w.numerator, c.denominator * w.denominator)
                for lower, kernel in pairs for e, c in lower for d, w in kernel))
        else:
            result = LaurentPoly(n, ((e + d, c * w) for lower, kernel in pairs
                                     for e, c in lower for d, w in kernel))
    _recursion_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# character oracle and Markov link
# ---------------------------------------------------------------------------

def check_rates(a: Sequence) -> None:
    """Raise a one-line ValueError naming --a unless every entry of the rate
    vector ``a`` is positive and finite: bar_a divides by it and the
    dynamics read it as a clock rate."""
    for x in a:
        if not 0 < x < INF:
            raise ValueError(f"--a entries must be positive and finite, got {x}")


def bar_a(a: Sequence, k: int):
    """Interleaved rate vector: odd levels carry a_l, even levels 1/a_l
    (exact for an integer a_l)."""
    l = (k + 1) // 2
    return _f(a[l - 1]) if k % 2 else 1 / _f(a[l - 1])


def _slice_weight(N: int, lower, upper, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Lambda weight of the bottom slice (level N-1 over level N)."""
    return bar_a(a, N) ** (sum(upper) - sum(lower)) * slice_binomials(ctx, N, lower, upper)


_char_cache: dict = {}
_point_ids: dict = {}       # (prefix of a point, types of its entries) -> int
_last_point: tuple = (None, ())


def _point_keys(a: Sequence) -> tuple:
    """One small int per prefix a[:l] of the point, l = 0..len(a), naming
    its entries together with their types: ``0.5 == Fraction(1, 2)`` and
    ``1.0 == Fraction(1)`` compare and hash equal, and the types keep exact
    and float values apart.  Callers pass one point many times over, so the
    keys of the last point passed as a tuple are kept, and its entries are
    hashed once."""
    global _last_point
    last, keys = _last_point
    if a is last:
        return keys
    keys = tuple(_point_ids.setdefault((pt, tuple(map(type, pt))), len(_point_ids))
                 for pt in (tuple(a[:l]) for l in range(len(a) + 1)))
    if type(a) is tuple:
        _last_point = a, keys
    return keys


def _char(N: int, z, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Pattern character of N levels with bottom level z, evaluated at a, by
    one slice recursion for every N: the bottom slice weight times the
    character of the N-1 levels above it, summed over the levels x that
    interlace with z,
    sum_x bar_a(a, N)^{|z|-|x|} slice_binomials(N, x, z) char(N-1, x).

    Memoized in ``_char_cache`` under ``(N, z, ctx.key, point key)``, the
    point key naming the entries of a that N levels read
    (``_point_keys``): all ints, so a lookup hashes no Fraction."""
    if N == 0:
        return 1
    z = canon(z)
    key = (N, z, ctx.key, _point_keys(a)[(N + 1) // 2])
    value = _char_cache.get(key)
    if value is None:
        top = padded(z, level_len(N))
        value = sum(_slice_weight(N, x, top, ctx, a) * _char(N - 1, x, ctx, a)
                    for x in interlacings(top, level_len(N - 1)))
        _char_cache[key] = value
    return value


def _link(N: int, x, z, ctx: QSeriesCtx, a: Sequence) -> Scalar:
    """Markov link from level N to level N-1: the conditional weight of the
    level x above the bottom level z, P_{N-1}(x) w(x, z) / P_N(z)."""
    return _slice_weight(N, x, z, ctx, a) * _char(N - 1, x, ctx, a) / _char(N, z, ctx, a)


# ---------------------------------------------------------------------------
# Pieri operator
# ---------------------------------------------------------------------------

def pieri_coefficients(n: int, lam: Sequence[int], ctx: QSeriesCtx) -> dict:
    """Rates of the one-box moves lam -> lam +- e_i; a coefficient is exactly
    zero whenever the move leaves the partition cone (conventions lam_0 =
    infinity, lam_{n+1} = 0)."""
    lam = padded(lam, n)
    q = ctx.q
    coeffs = {}
    for i in range(1, n + 1):
        up = 1 if i == 1 else 1 - q ** (lam[i - 2] - lam[i - 1])
        down = (1 - q ** lam[n - 1]) if i == n else 1 - q ** (lam[i - 1] - lam[i])
        if up != 0:
            coeffs[(i, +1)] = up
        if down != 0:
            coeffs[(i, -1)] = down
    return coeffs


def pieri_apply(n: int, lam: Sequence[int], ctx: QSeriesCtx,
                g: Callable[[tuple], Scalar]) -> Scalar:
    """Apply the Pieri difference operator at lam to a function g on
    partitions: sum of rate * g(lam +- e_i) over the admissible moves."""
    lam_p = padded(lam, n)
    total: Scalar = 0
    for (i, s), c in pieri_coefficients(n, lam, ctx).items():
        mu = list(lam_p)
        mu[i - 1] += s
        total = total + c * g(canon(mu))
    return total


# ---------------------------------------------------------------------------
# type-A Schur and the truncated Cauchy identity
# ---------------------------------------------------------------------------

def schur_typeA(N: int, z: Sequence[int]) -> LaurentPoly:
    """Schur polynomial in N variables via Gelfand-Tsetlin patterns."""
    def terms():
        for levels in enumerate_patterns_typeA(z, N):
            sizes = [0] + [sum(lv) for lv in levels]
            yield tuple(sizes[k] - sizes[k - 1] for k in range(1, N + 1)), 1

    return LaurentPoly(N, terms())


def cauchy_identity_check(n: int, M: int, a: Sequence[Scalar], b: Sequence[Scalar]) -> float:
    """Residual of the truncated symplectic Cauchy identity:

        prod_{i<j}(1 - b_i b_j) prod_{i,j} 1/((1 - b_i a_j)(1 - b_i a_j^{-1}))
            = sum_mu Sp_mu(a) S_mu(b),  truncated at |mu| <= M.
    """
    lhs: Scalar = 1
    for i in range(n):
        for j in range(i + 1, n):
            lhs = lhs * (1 - b[i] * b[j])
    for i in range(n):
        for j in range(n):
            lhs = lhs / ((1 - b[i] * a[j]) * (1 - b[i] / a[j]))
    rhs: Scalar = 0
    for mu in partitions_max_weight(n, M):
        rhs = rhs + symplectic_schur_tableaux(n, mu).evaluate(tuple(a)) \
            * schur_typeA(n, mu).evaluate(tuple(b))
    return abs(float(lhs - rhs))
