"""Branching polynomials in one variable with deformation parameter t0,
their expansion in the bracket basis, and the checks supporting the t0 -> 0
limit statement (leading-term identity and the two proven special cases)."""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence

from .algebra import LaurentPoly, QSeriesCtx, Scalar, _f, bracket_poly
from .characters import qwhittaker_kernel
from .combinatorics import canon, padded, part, transpose


class BranchingPair:
    """Shapes lam (at most n parts) and nu (at most n-1 parts) differing by
    two horizontal strips, with the derived index data used by the
    contribution formula."""

    def __init__(self, n: int, lam: Sequence[int], nu: Sequence[int]):
        self.n = n
        self.lam = canon(lam)
        self.nu = canon(nu)
        if len(self.lam) > n or len(self.nu) > n - 1:
            raise ValueError("shapes too long for the rank")
        lt, nt = transpose(self.lam), transpose(self.nu)
        self.m = len(lt)
        # every column of either shape, so that a nu sticking out of lam fails
        diffs = [part(lt, i) - part(nt, i) for i in range(1, max(self.m, len(nt)) + 1)]
        if any(x not in (0, 1, 2) for x in diffs):
            raise ValueError("shapes do not differ by two horizontal strips")
        self.d = sum(1 for x in diffs if x == 1)
        m = self.m
        self.nu_star = tuple(n - part(nt, m - j + 1) for j in range(1, m + 1))
        self.lam_star = tuple(n + 1 - part(lt, m - j + 1) for j in range(1, m + 1))
        self.Jc = tuple(j for j in range(1, m + 1)
                        if self.nu_star[j - 1] == self.lam_star[j - 1])
        assert len(self.Jc) == self.d


def c_factor(pair: BranchingPair, ctx: QSeriesCtx) -> Scalar:
    """Prefactor: product over column pairs j < k with transposed-nu strictly
    smaller at k and transposed-lam equal."""
    lt, nt = transpose(pair.lam), transpose(pair.nu)
    q = ctx.q
    c: Scalar = 1
    for j in range(1, pair.m + 1):
        for k in range(j + 1, pair.m + 1):
            if part(nt, k) < part(nt, j) and part(lt, k) == part(lt, j):
                c = c * (1 - q ** (1 + k - j)) / (1 - q ** (k - j))
    return c


def contribution_A(pair: BranchingPair, I_plus: Sequence[int], I_minus: Sequence[int],
                   t0: Scalar, ctx: QSeriesCtx) -> Scalar:
    """Contribution of the sign assignment (I_plus, I_minus) on the index set
    Jc; the first factor runs over ordered pairs (j, k) without a j < k
    restriction, which zeroes out-of-order assignments via the 1 - q^0
    numerator."""
    if t0 == 0:
        raise ValueError("t0 must be nonzero")
    Ip, Im = set(I_plus), set(I_minus)
    if Ip & Im or not Ip <= set(pair.Jc) or not Im <= set(pair.Jc):
        raise ValueError("sign sets must be disjoint subsets of Jc")
    q = _f(ctx.q)
    t0 = _f(t0)
    ns = pair.nu_star
    eps = {j: 1 if j in Ip else -1 if j in Im else 0 for j in pair.Jc}
    A: Scalar = 1
    for j in pair.Jc:
        for k in pair.Jc:
            # (i) equal nu* entries with a strictly larger sign at j
            if ns[j - 1] == ns[k - 1] and eps[j] > eps[k]:
                A = A * (1 - q ** (1 + k - j)) / (1 - q ** (k - j))
            # (ii) minus before plus across a unit nu* step
            if eps[j] == -1 and eps[k] == 1 and ns[j - 1] == ns[k - 1] + 1:
                A = A * (1 - q ** (1 + k - j)) / (1 - q ** (k - j))
            if A == 0:
                return A
            if j < k:
                # (iv) signed j next to an unsigned k
                if eps[j] != 0 and eps[k] == 0:
                    A = A * q ** (-eps[j])
                # (v) equal nu* entries with sign rising by one
                if ns[j - 1] == ns[k - 1] and eps[k] - eps[j] == 1:
                    A = A / q
    for j in pair.Jc:
        A = A * t0 ** (-eps[j])  # (iii)
    return A


def branching_coefficient(pair: BranchingPair, r: int, t0: Scalar, ctx: QSeriesCtx) -> Scalar:
    """Coefficient of the r-th bracket: prefactor times the sum of
    contributions over disjoint (I_plus, I_minus) with d - r signed indices."""
    total: Scalar = 0
    for size in range(pair.d - r + 1):
        for Ip in combinations(pair.Jc, size):
            rest = [j for j in pair.Jc if j not in Ip]
            for Im in combinations(rest, pair.d - r - size):
                total = total + contribution_A(pair, Ip, Im, t0, ctx)
    return c_factor(pair, ctx) * total


def branching_polynomial(pair: BranchingPair, t0: Scalar, ctx: QSeriesCtx) -> LaurentPoly:
    """One-variable branching polynomial: sum over r of the r-th coefficient
    times the expanding bracket of order r."""
    return LaurentPoly(1, chain.from_iterable(
        (bracket_poly(ctx, t0, r) * branching_coefficient(pair, r, t0, ctx)).terms.items()
        for r in range(pair.d + 1)))


# ---------------------------------------------------------------------------
# structural predicates for the two proven cases
# ---------------------------------------------------------------------------

def _gaps(n: int, lam, nu):
    lam_p, nu_c = padded(lam, n), canon(nu)
    out = []
    for j in range(1, n + 1):
        lo = max(part(nu_c, j), part(lam_p, j + 1))
        hi = min(part(nu_c, j - 1), part(lam_p, j)) if j > 1 else part(lam_p, 1)
        out.append(hi - lo)
    return out


def single_block_index(pair: BranchingPair) -> Optional[int]:
    """Index s when exactly one coordinate window is open and all others are
    pinched shut; None otherwise."""
    gaps = _gaps(pair.n, pair.lam, pair.nu)
    open_idx = [j + 1 for j, g in enumerate(gaps) if g > 0]
    return open_idx[0] if len(open_idx) == 1 else None


def separated_unit_gaps(pair: BranchingPair) -> Optional[tuple]:
    """Indices s_1 < ... < s_d when every open window has width one and no
    two are adjacent; None otherwise."""
    gaps = _gaps(pair.n, pair.lam, pair.nu)
    idx = [j + 1 for j, g in enumerate(gaps) if g > 0]
    if not idx or any(gaps[j - 1] != 1 for j in idx):
        return None
    if any(b - a <= 1 for a, b in zip(idx, idx[1:])):
        return None
    return tuple(idx)


def conjecture_checks(pair: BranchingPair, ctx: QSeriesCtx,
                      t0_ladder: Sequence[Scalar] = ()) -> dict:
    """Report on the t0 -> 0 limit statement for one pair:

    - leading_term: the x^{+-d} coefficients of the two-slice kernel equal
      the prefactor, exactly.
    - single_block (when applicable): max-coefficient distance between the
      branching polynomial and the kernel along the t0 ladder, with the
      ratios of successive errors (expected order t0).
    - unit_gaps (when applicable): exact equality at each ladder point.
    """
    kernel = qwhittaker_kernel(ctx, pair.nu, pair.lam, pair.n)
    c = c_factor(pair, ctx)
    report: dict = {
        "d": pair.d,
        "leading_term": kernel.coefficient((pair.d,)) == c
        and kernel.coefficient((-pair.d,)) == c,
    }
    ladder = [Fraction(t) if isinstance(t, str) else t for t in t0_ladder]
    s = single_block_index(pair)
    if s is not None and ladder:
        errors = []
        for t0 in ladder:
            diff = branching_polynomial(pair, t0, ctx) - kernel
            err = max((abs(float(cf)) for cf in diff.terms.values()), default=0.0)
            errors.append(err)
        ratios = [b / a for a, b in zip(errors, errors[1:]) if a > 0]
        report["single_block"] = {"s": s, "errors": errors, "ratios": ratios}
    srs = separated_unit_gaps(pair)
    if srs is not None and ladder:
        exact = all(branching_polynomial(pair, t0, ctx) == kernel for t0 in ladder)
        report["unit_gaps"] = {"indices": list(srs), "exact": exact}
    return report
