"""Exact scalar arithmetic, multivariate Laurent polynomials and q-series.

Scalars are ``fractions.Fraction`` in exact mode or Python floats/complex in
numeric mode.  Everything downstream (characters, branching polynomials,
generators) is built on the types defined here.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import getitem
from typing import Sequence, Union

Scalar = Union[Fraction, int, float, complex]

INF = math.inf


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


@dataclass(frozen=True)
class QSeriesCtx:
    """Carries the deformation parameter q; infinite Pochhammer products in
    numeric mode are truncated at ``pochhammer_depth(q)`` factors."""
    q: Scalar

    def __post_init__(self):
        if not self.exact and not abs(self.q) < 1:
            raise ValueError("numeric mode requires |q| < 1")

    @property
    def exact(self) -> bool:
        return is_exact(self.q)


def pochhammer_depth(q: float) -> int:
    """Truncation of (x;q)_infinity: at least 60 factors, and enough that
    |q|^K < 1e-17.  The product diverges for |q| >= 1."""
    if abs(q) >= 1:
        raise ValueError(f"--q must satisfy |q| < 1, got {q}")
    if abs(q) < 1e-17:
        return 60
    return max(60, math.floor(math.log(1e-17) / math.log(abs(q))) + 1)


def q_pochhammer(ctx: QSeriesCtx, x: Scalar, k) -> Scalar:
    """(x;q)_k = prod_{j=0}^{k-1} (1 - x q^j); k may be math.inf in numeric
    mode, in which case the product stops at pochhammer_depth(q) factors."""
    q = ctx.q
    if k == INF:
        if ctx.exact:
            raise ValueError("infinite q-Pochhammer is unsupported in exact mode")
        k = pochhammer_depth(q)
    if k < 0 or k != int(k):
        raise ValueError("q-Pochhammer order must be a nonnegative integer or inf")
    result: Scalar = Fraction(1) if ctx.exact and is_exact(x) else 1.0
    qj: Scalar = 1 if ctx.exact else 1.0
    for _ in range(int(k)):
        result *= 1 - x * qj
        qj *= q
    return result


_q_binomial_cache: dict = {}


def q_binomial(ctx: QSeriesCtx, n: int, k: int) -> Scalar:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}), memoized on
    (q, exact, n, k), so that q = 0.5 and q = Fraction(1, 2) stay apart."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q-binomial requires 0 <= k <= n, got n={n}, k={k}")
    q = ctx.q
    key = (q, ctx.exact, n, k)
    value = _q_binomial_cache.get(key)
    if value is None:
        # Product form binom(n,k)_q = prod_{j=1}^{k} (1-q^{n-k+j})/(1-q^j).
        if ctx.exact and q in (1, -1):
            # factors 1 - q^j vanish at these roots of unity, but binom(n,k)_q
            # is a polynomial in q: C(n,k) at q = 1 and, by the q-Lucas
            # theorem, C(n//2, k//2) at q = -1 unless n is even and k odd
            value = Fraction(math.comb(n, k) if q == 1 else
                             0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2))
        elif ctx.exact:
            # With q = p/r, 1 - q^m = (r^m - p^m) / r^m, and binom(n,k)_q is a
            # polynomial of degree k(n-k) in q with integer coefficients, so
            # the ratio of integer products times r^{k(n-k)} divides exactly.
            p, r = q.numerator, q.denominator
            num = den = 1
            for j in range(1, k + 1):
                num *= r ** (n - k + j) - p ** (n - k + j)
                den *= r ** j - p ** j
            value = Fraction(num // den, r ** (k * (n - k)))
        else:
            num = den = 1.0
            for j in range(1, k + 1):
                num *= 1 - q ** (n - k + j)
                den *= 1 - q ** j
            value = num / den
        _q_binomial_cache[key] = value
    return value


class LaurentPoly:
    """Multivariate Laurent polynomial in variables a1..an with scalar
    coefficients keyed by integer exponent vectors.

    The constructor is the one place terms are merged: ``terms`` is a
    mapping or an iterable of ``(exponents, coefficient)`` pairs, in which
    an exponent vector may repeat.  Coefficients of equal exponent vectors
    are summed in the order given, exponents are converted to int tuples of
    length ``nvars`` (anything else raises), and zero sums are dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | Iterable[tuple] = ()):
        self.nvars = nvars
        acc = {}
        for exps, c in terms.items() if isinstance(terms, Mapping) else terms:
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            t = tuple(map(int, exps))
            acc[t] = acc.get(t, 0) + c
        self.terms = {e: c for e, c in acc.items() if c != 0}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def constant(nvars: int, c: Scalar) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly.constant(nvars, Fraction(1))

    # -- ring operations ---------------------------------------------------
    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.nvars, other)
        self._check(other)
        return LaurentPoly(self.nvars, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return LaurentPoly(self.nvars,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return LaurentPoly(self.nvars, ((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                                        for e1, c1 in self.terms.items()
                                        for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use explicit monomials for negative powers")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == LaurentPoly.constant(self.nvars, other).terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------
    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), Fraction(0))

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The sum of c prod a_i^{e_i} over the terms.

        When every point entry and every coefficient is an int or a Fraction
        the sum is done in integers: with a_i = p_i / r_i and variable i's
        exponents between lo_i and hi_i, each term is (c L) prod_i
        p_i^{e_i - lo_i} r_i^{hi_i - e_i}, L the lcm of the coefficient
        denominators, and the one Fraction made is that sum times
        prod_i p_i^{lo_i} / r_i^{hi_i}, over L.  The value is an int where the
        term-by-term product would be one, a Fraction otherwise, also at an
        int point with a negative exponent.  Float and complex points sum in
        term order, each power a_i^e computed once per call."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        if all(map(is_exact, point)) and all(map(is_exact, self.terms.values())):
            return self._evaluate_exact(point)
        powers = [{} for _ in point]
        total: Scalar = 0
        for exps, c in self.terms.items():
            val = c
            for a, e, pw in zip(point, exps, powers):
                if e:
                    if e not in pw:
                        pw[e] = a ** e
                    val *= pw[e]
            total = total + val
        return total

    def _evaluate_exact(self, point: Sequence[Union[Fraction, int]]) -> Union[Fraction, int]:
        coeffs = self.terms.values()
        L = math.lcm(*(c.denominator for c in coeffs))
        num, den = 1, L
        as_int = all(type(c) is int for c in coeffs)
        tables = []
        for a, col in zip(point, zip(*self.terms)):
            p, r = a.numerator, a.denominator
            lo, hi = min(col), max(col)
            tables.append({e: p ** (e - lo) * r ** (hi - e) for e in set(col)})
            # the factor p^lo / r^hi, each power on the side its sign puts it
            num *= p ** max(lo, 0) * r ** max(-hi, 0)
            den *= p ** max(-lo, 0) * r ** max(hi, 0)
            as_int = as_int and (lo == hi == 0 or type(a) is int and lo >= 0)
        num *= sum(c.numerator * (L // c.denominator) * math.prod(map(getitem, tables, exps))
                   for exps, c in self.terms.items())
        return num if as_int else Fraction(num, den)

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    # -- canonical text form -------------------------------------------------
    def canonical(self) -> str:
        """Serialize as `c * a1^e1 ... an^en + ...` with exact `p/q` rationals,
        terms in descending lexicographic exponent order."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            cs = str(Fraction(c)) if is_exact(c) else repr(c)
            vars_part = " ".join(f"a{i + 1}^{e}" for i, e in enumerate(exps) if e)
            pieces.append(f"{cs} * {vars_part}" if vars_part else cs)
        return " + ".join(pieces)

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {self.canonical()!r})"


def q_hermite(ctx: QSeriesCtx, l: int) -> LaurentPoly:
    """Continuous q-Hermite polynomial H_l(a|q) = sum_m binom(l,m)_q a^{2m-l}
    as a one-variable Laurent polynomial."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return LaurentPoly(1, (((2 * m - l,), q_binomial(ctx, l, m)) for m in range(l + 1)))


def bracket_poly(ctx: QSeriesCtx, t0: Scalar, r: int) -> LaurentPoly:
    """The expanding bracket <x;t0>_{q,r} = prod_{l=1}^{r} (x + x^{-1}
    - t0 q^{l-1} - t0^{-1} q^{-(l-1)}) as a Laurent polynomial in x."""
    if t0 == 0:
        raise ValueError("t0 must be nonzero")
    q, t0 = _f(ctx.q), _f(t0)
    out = LaurentPoly.one(1)
    for l in range(1, r + 1):
        c = t0 * q ** (l - 1) + q ** (1 - l) / t0
        out = out * LaurentPoly(1, {(1,): 1, (-1,): 1, (0,): -c})
    return out


def _f(x: Scalar) -> Scalar:
    # Promote ints to Fraction so 1/x stays exact.
    return Fraction(x) if isinstance(x, int) else x
