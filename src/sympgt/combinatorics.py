"""Partitions, interlacing, symplectic tableaux and Gelfand-Tsetlin patterns.

Letters of the symplectic alphabet 1 < 1bar < 2 < 2bar < ... < n < nbar are
encoded as integers 1..2n: unbarred k maps to 2k-1, barred k to 2k.  Barred
letters render as `k~` in the ASCII form.
"""
from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

Partition = tuple  # weakly decreasing tuple of nonnegative ints, no trailing zeros


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def canon(parts: Sequence[int]) -> Partition:
    """Canonical partition: trailing zeros stripped, validity checked."""
    parts = tuple(int(p) for p in parts)
    for i in range(len(parts) - 1):
        if parts[i] < parts[i + 1]:
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

    @property
    def shape(self) -> Partition:
        return canon(tuple(len(r) for r in self.rows))

    def validate(self, n: int) -> None:
        shape = tuple(len(r) for r in self.rows)
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
            raise ValueError("shape rows must weakly decrease")
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if not 1 <= x <= 2 * n:
                    raise ValueError(f"entry {x} at ({i},{j}) outside alphabet of rank {n}")
                if j + 1 < len(row) and row[j + 1] < x:
                    raise ValueError(f"S1 violated in row {i + 1}: {letter_str(x)} then {letter_str(row[j + 1])}")
                if i + 1 < len(self.rows) and j < len(self.rows[i + 1]) \
                        and self.rows[i + 1][j] <= x:
                    raise ValueError(f"S2 violated in column {j + 1} between rows {i + 1},{i + 2}")
                if x < 2 * (i + 1) - 1:
                    raise ValueError(f"S3 violated: entry {letter_str(x)} < {i + 1} in row {i + 1}")

    def __eq__(self, other):
        return isinstance(other, SymplecticTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymplecticTableau({list(map(list, self.rows))})"


def enumerate_tableaux(shape: Sequence[int], n: int) -> Iterator[SymplecticTableau]:
    """All symplectic tableaux of the given shape over alphabet rank n,
    by brute-force cell-by-cell filling with early constraint pruning."""
    shape = canon(shape)
    if len(shape) > n:
        return
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    grid = [[0] * r for r in shape]

    def rec(idx: int):
        if idx == len(cells):
            yield SymplecticTableau([row[:] for row in grid])
            return
        i, j = cells[idx]
        lo = 2 * (i + 1) - 1                      # S3
        if j > 0:
            lo = max(lo, grid[i][j - 1])          # S1
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)      # S2
        for x in range(lo, 2 * n + 1):
            grid[i][j] = x
            yield from rec(idx + 1)
        grid[i][j] = 0

    yield from rec(0)


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

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

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
    on: the order in which ``interlacings`` yields."""
    if not lengths:
        yield (bottom,)
        return
    for nu in interlacings(bottom, lengths[0]):
        for chain in _chains(nu, lengths[1:]):
            yield chain + (bottom,)


def enumerate_patterns(shape: Sequence[int], N: int) -> Iterator[GTPattern]:
    """Every pattern with N levels and level N equal to shape, lexicographic
    in level N - 1, then in level N - 2, and so on down to level 1."""
    bottom = padded(shape, level_len(N))
    for levels in _chains(bottom, [level_len(k) for k in range(N - 1, 0, -1)]):
        yield GTPattern(levels)


# ---------------------------------------------------------------------------
# type-A patterns (Cauchy identity support)
# ---------------------------------------------------------------------------

def enumerate_patterns_typeA(shape: Sequence[int], N: int) -> Iterator[list]:
    """Type-A Gelfand-Tsetlin patterns with top row = shape (N levels,
    level k has k entries), listed from level 1 up, in the order of
    enumerate_patterns."""
    for levels in _chains(padded(shape, N), range(N - 1, 0, -1)):
        yield list(levels)
