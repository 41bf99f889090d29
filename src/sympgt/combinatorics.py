"""Partitions, interlacing, symplectic tableaux and Gelfand-Tsetlin patterns.

Letters of the symplectic alphabet 1 < 1bar < 2 < 2bar < ... < n < nbar are
encoded as integers 1..2n: unbarred k maps to 2k-1, barred k to 2k.  Barred
letters render as `k~` in the ASCII form.
"""
from __future__ import annotations

from itertools import product
from operator import le, lt
from typing import Iterator, Sequence

Partition = tuple  # weakly decreasing tuple of nonnegative ints, no trailing zeros


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def canon(parts: Sequence[int]) -> Partition:
    """Canonical partition: trailing zeros stripped, validity checked."""
    parts = tuple(map(int, parts))
    if any(map(lt, parts, parts[1:])):
        raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def padded(lam: Sequence[int], n: int) -> tuple:
    """View with exactly n parts (zero-padded); errors if l(lam) > n."""
    lam = canon(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than {n} parts")
    return lam + (0,) * (n - len(lam))


def part(lam: Sequence[int], i: int) -> int:
    """1-based part access, zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def transpose(lam: Sequence[int]) -> Partition:
    lam = canon(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def interlaces(nu: Sequence[int], lam: Sequence[int]) -> bool:
    """nu interlaced below lam: lam1 >= nu1 >= lam2 >= nu2 >= ..."""
    nu, lam = canon(nu), canon(lam)
    k = max(len(nu), len(lam))
    for i in range(1, k + 1):
        if not (part(lam, i) >= part(nu, i) >= part(lam, i + 1)):
            return False
    return True


def partitions_max_weight(max_parts: int, max_weight: int) -> Iterator[Partition]:
    """All partitions with at most max_parts parts and weight <= max_weight."""
    def rec(prefix, bound, remaining, depth):
        yield canon(prefix)
        if depth == max_parts:
            return
        for p in range(1, min(bound, remaining) + 1):
            yield from rec(prefix + [p], p, remaining - p, depth + 1)

    yield from rec([], max_weight, max_weight, 0)


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------

def letter_encode(k: int, barred: bool) -> int:
    return 2 * k if barred else 2 * k - 1


def letter_str(letter: int) -> str:
    k, barred = (letter + 1) // 2, letter % 2 == 0
    return f"{k}~" if barred else str(k)


def letter_parse(tok: str) -> int:
    barred = tok.endswith("~")
    k = int(tok[:-1] if barred else tok)
    if k < 1:
        raise ValueError(f"bad letter {tok!r}")
    return letter_encode(k, barred)


# ---------------------------------------------------------------------------
# symplectic tableaux
# ---------------------------------------------------------------------------

class SymplecticTableau:
    """Rows of encoded letters; validity rules:

    S1: rows weakly increase
    S2: columns strictly increase
    S3: no entry smaller than letter k at the start of row k
        (encoded entry in row k is >= 2k-1)
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows if row)

    @classmethod
    def of(cls, rows: tuple) -> "SymplecticTableau":
        """The tableau with ``rows``, a tuple of nonempty tuples of ints,
        taken as they are: insertion builds its rows from ints already, so
        the constructor's ``int()`` per entry would only copy them."""
        T = cls.__new__(cls)
        T.rows = rows
        return T

    def validate(self, n: int) -> None:
        """Raise a ValueError for the first fault: a shape that is not a
        partition, then, over the cells in row-major order, an entry outside
        the alphabet 1..2n or a broken S1, S2 or S3 at that cell, in that
        order.  Each row is checked whole: its first entry against S3, its
        last against the alphabet, its entries against their right
        neighbours, and its length and entries against the row above.  Only
        a tableau that fails is read cell by cell, to name the fault."""
        rows = self.rows
        for i, row in enumerate(rows):
            if (row[0] <= 2 * i or row[-1] > 2 * n
                    or len(row) > 1 and not all(map(le, row, row[1:]))
                    or i and (len(rows[i - 1]) < len(row) or not all(map(lt, rows[i - 1], row)))):
                raise ValueError(
                    "shape rows must weakly decrease"
                    if any(len(r) < len(s) for r, s in zip(rows, rows[1:])) else
                    next(message for i, row in enumerate(rows) for j, x in enumerate(row)
                         for message in (
                        not 1 <= x <= 2 * n and f"entry {x} at ({i},{j}) outside alphabet of rank {n}",
                        j + 1 < len(row) and row[j + 1] < x
                        and f"S1 violated in row {i + 1}: {letter_str(x)} then {letter_str(row[j + 1])}",
                        i + 1 < len(rows) and j < len(rows[i + 1]) and rows[i + 1][j] <= x
                        and f"S2 violated in column {j + 1} between rows {i + 1},{i + 2}",
                        x <= 2 * i and f"S3 violated: entry {letter_str(x)} < {i + 1} in row {i + 1}")
                         if message))

    def __repr__(self):
        return f"SymplecticTableau({list(map(list, self.rows))})"


# ---------------------------------------------------------------------------
# symplectic Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------

def level_len(k: int) -> int:
    """Length of level k: levels 2l-1 and 2l both have l coordinates."""
    return (k + 1) // 2


class GTPattern:
    """Integer pattern z^1..z^N with z^{k-1} interlaced below z^k and all
    coordinates nonnegative; level k stored as a tuple of level_len(k)
    weakly decreasing entries (zeros kept so lengths are structural)."""

    __slots__ = ("levels",)

    def __init__(self, levels: Sequence[Sequence[int]]):
        self.levels = tuple(tuple(int(x) for x in lv) for lv in levels)

    def validate(self) -> None:
        for k, lv in enumerate(self.levels, start=1):
            if len(lv) != level_len(k):
                raise ValueError(f"level {k} must have {level_len(k)} coordinates")
            if any(x < 0 for x in lv):
                raise ValueError(f"negative coordinate at level {k}")
            if any(lv[i] < lv[i + 1] for i in range(len(lv) - 1)):
                raise ValueError(f"level {k} not weakly decreasing")
            if k > 1 and not interlaces(self.levels[k - 2], lv):
                raise ValueError(f"levels {k - 1} and {k} do not interlace")

    def __repr__(self):
        return f"GTPattern({list(map(list, self.levels))})"


def tableau_to_pattern(T: SymplecticTableau, n: int) -> GTPattern:
    """Level 2l-1 is the shape of the sub-tableau with letters <= l,
    level 2l the shape with letters <= lbar."""
    T.validate(n)
    levels = []
    for k in range(1, 2 * n + 1):
        counts = [sum(1 for x in row if x <= k) for row in T.rows]
        levels.append(padded(canon(tuple(c for c in counts if c)), level_len(k)))
    return GTPattern(levels)


def pattern_to_tableau(p: GTPattern) -> SymplecticTableau:
    """Inverse of tableau_to_pattern: fill the skew strip z^k / z^{k-1}
    with letter k."""
    p.validate()
    shape = p.levels[-1]
    rows = [[0] * r for r in shape]
    prev: tuple = ()
    for k, lv in enumerate(p.levels, start=1):
        for i in range(len(lv)):
            lo = part(prev, i + 1)
            for j in range(lo, lv[i]):
                rows[i][j] = k
        prev = lv
    return SymplecticTableau([r for r in rows if r])


def interlacings(lam: Sequence[int], length: int) -> Iterator[tuple]:
    """All weakly decreasing nonnegative tuples nu of the given length with
    nu interlaced below lam (lam padded as needed)."""
    ranges = [range(part(lam, i + 2), part(lam, i + 1) + 1) for i in range(length)]
    for nu in product(*ranges):
        yield nu


def _chains(bottom: tuple, lengths: Sequence[int]) -> Iterator[tuple]:
    """Every chain (..., nu_2, nu_1, bottom), nu_k of lengths[k - 1] entries
    interlaced below nu_{k-1}, lexicographic in nu_1, then in nu_2, and so
    on: the order in which ``interlacings`` yields.  A depth-first walk that
    yields each chain as a tuple of levels; the symplectic pattern sum of
    ``characters`` walks the same tree in the same order without building
    the chains."""
    if not lengths:
        yield (bottom,)
        return
    for nu in interlacings(bottom, lengths[0]):
        for chain in _chains(nu, lengths[1:]):
            yield chain + (bottom,)


# ---------------------------------------------------------------------------
# type-A patterns (Cauchy identity support)
# ---------------------------------------------------------------------------

def enumerate_patterns_typeA(shape: Sequence[int], N: int) -> Iterator[list]:
    """Type-A Gelfand-Tsetlin patterns with top row = shape (N levels,
    level k has k entries), listed from level 1 up, in the order of
    ``_chains``."""
    for levels in _chains(padded(shape, N), range(N - 1, 0, -1)):
        yield list(levels)
