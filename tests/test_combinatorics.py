from fractions import Fraction as F
from itertools import product

import pytest

from sympgt.combinatorics import (
    GTPattern,
    SymplecticTableau,
    _chains,
    canon,
    enumerate_patterns_typeA,
    interlaces,
    letter_parse,
    letter_str,
    level_len,
    padded,
    part,
    partitions_max_weight,
    pattern_to_tableau,
    tableau_to_pattern,
    transpose,
)


def _tableaux(shape, n):
    """Every symplectic tableau of the shape over rank n, as objects: the
    cell-by-cell filling that the tableau generating function walks."""
    shape = canon(shape)
    if len(shape) > n:
        return
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    grid = [[0] * r for r in shape]

    def rec(idx):
        if idx == len(cells):
            yield SymplecticTableau([row[:] for row in grid])
            return
        i, j = cells[idx]
        lo = 2 * (i + 1) - 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for x in range(lo, 2 * n + 1):
            grid[i][j] = x
            yield from rec(idx + 1)
        grid[i][j] = 0

    yield from rec(0)


def _patterns(shape, N):
    """Every symplectic pattern of N levels over the shape, as objects, in
    the order of the chain walk."""
    for levels in _chains(padded(shape, level_len(N)), [level_len(k) for k in range(N - 1, 0, -1)]):
        yield GTPattern(levels)


def test_canon_and_transpose():
    assert canon((3, 2, 0, 0)) == (3, 2)
    assert transpose((4, 3, 1)) == (3, 2, 2, 1)
    assert transpose(transpose((5, 5, 2, 1))) == (5, 5, 2, 1)
    assert transpose(()) == ()
    with pytest.raises(ValueError):
        canon((1, 2))


def test_orders_and_strips():
    assert interlaces((2, 1), (3, 1))
    assert not interlaces((2, 2), (3, 1))


def test_partitions_enumeration():
    got = set(partitions_max_weight(2, 3))
    assert got == {(), (1,), (2,), (3,), (1, 1), (2, 1)}


@pytest.mark.parametrize("n, w", [(1, 4), (2, 6), (3, 7), (4, 9), (5, 8)])
def test_partitions_max_weight_yields_each_partition_once(n, w):
    got = list(partitions_max_weight(n, w))
    brute = {canon(sorted(t, reverse=True))
             for t in product(range(w + 1), repeat=n) if sum(t) <= w}
    assert len(got) == len(set(got)) == len(brute)
    assert set(got) == brute


def test_letters():
    assert letter_parse("3~") == 6
    assert letter_parse("3") == 5
    assert letter_str(6) == "3~"
    assert letter_str(5) == "3"


def test_tableau_validation():
    # rows: 1 2 / 2 3~ / 3~  (n=3) -- encoded 1,3 / 3,6 / 6
    T = SymplecticTableau([[1, 3], [3, 6], [6]])
    T.validate(3)
    # S3 violation: letter 1 in row 2
    bad = SymplecticTableau([[1, 1], [2]])
    with pytest.raises(ValueError, match="S3"):
        bad.validate(2)
    # S2 violation: equal letters in a column
    bad2 = SymplecticTableau([[1], [3]])
    bad2.validate(2)
    with pytest.raises(ValueError, match="S2"):
        SymplecticTableau([[3], [3]]).validate(2)
    # S1 violation
    with pytest.raises(ValueError, match="S1"):
        SymplecticTableau([[3, 1]]).validate(2)


@pytest.mark.parametrize("rows, n, message", [
    # one fault each
    ([[1], [3, 4]], 2, "shape rows must weakly decrease"),
    ([[1, 5]], 2, "entry 5 at (0,1) outside alphabet of rank 2"),
    ([[3, 1]], 2, "S1 violated in row 1: 2 then 1"),
    ([[1, 3], [3, 3]], 2, "S2 violated in column 2 between rows 1,2"),
    ([[1, 1], [2]], 2, "S3 violated: entry 1~ < 2 in row 2"),
], ids=["shape", "alphabet", "S1", "S2", "S3"])
def test_validation_messages_are_pinned(rows, n, message):
    with pytest.raises(ValueError) as exc:
        SymplecticTableau(rows).validate(n)
    assert str(exc.value) == message


def _fault_by_cells(rows, n):
    """The message of the first fault, read cell by cell: the reference for
    ``validate``; None for a valid tableau."""
    shape = tuple(len(r) for r in rows)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        return "shape rows must weakly decrease"
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not 1 <= x <= 2 * n:
                return f"entry {x} at ({i},{j}) outside alphabet of rank {n}"
            if j + 1 < len(row) and row[j + 1] < x:
                return f"S1 violated in row {i + 1}: {letter_str(x)} then {letter_str(row[j + 1])}"
            if i + 1 < len(rows) and j < len(rows[i + 1]) and rows[i + 1][j] <= x:
                return f"S2 violated in column {j + 1} between rows {i + 1},{i + 2}"
            if x < 2 * (i + 1) - 1:
                return f"S3 violated: entry {letter_str(x)} < {i + 1} in row {i + 1}"
    return None


@pytest.mark.parametrize("shape", [(1,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                   (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)])
def test_validation_names_the_fault_the_cell_reading_names(shape):
    # every filling by letters 0..2n+1, so with every mix of faults, on
    # partitions and on shapes that are not
    n = 2
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    checked = 0
    for entries in product(range(2 * n + 2), repeat=len(cells)):
        rows = [[] for _ in shape]
        for (i, _j), x in zip(cells, entries):
            rows[i].append(x)
        want = _fault_by_cells(rows, n)
        if want is None:
            SymplecticTableau(rows).validate(n)
        else:
            with pytest.raises(ValueError) as exc:
                SymplecticTableau(rows).validate(n)
            assert str(exc.value) == want, rows
        checked += 1
    assert checked == (2 * n + 2) ** len(cells)


def test_pattern_validation():
    p = GTPattern([(1,), (2,), (4, 0), (5, 2)])
    p.validate()
    with pytest.raises(ValueError, match="interlace"):
        GTPattern([(1,), (3,), (2, 2)]).validate()
    with pytest.raises(ValueError, match="coordinates"):
        GTPattern([(1, 1)]).validate()


def test_tableau_pattern_bijection_worked_example():
    # rows: 1 1~ 2 2 2~ / 2~ 2~   with n=2
    T = SymplecticTableau([[1, 2, 3, 3, 4], [4, 4]])
    p = tableau_to_pattern(T, 2)
    assert p.levels == ((1,), (2,), (4, 0), (5, 2))
    assert pattern_to_tableau(p).rows == T.rows


def test_tableau_pattern_bijection_exhaustive():
    for shape in [(2,), (1, 1), (2, 1), (3, 1)]:
        n = 2 if len(shape) <= 2 else 3
        tabs = list(_tableaux(shape, n))
        pats = [tableau_to_pattern(T, n) for T in tabs]
        assert len({p.levels for p in pats}) == len(tabs)
        for T, p in zip(tabs, pats):
            p.validate()
            assert pattern_to_tableau(p).rows == T.rows
        # pattern enumeration agrees with the tableau count
        assert len(list(_patterns(shape, 2 * n))) == len(tabs)


def test_enumerate_patterns_counts():
    # single box, rank 2: tableau entries 1,1~,2,2~ -> 4 patterns
    assert len(list(_patterns((1,), 4))) == 4
    # all levels valid and bottom fixed
    for p in _patterns((2, 1), 4):
        p.validate()
        assert p.levels[-1] == (2, 1)


def test_typeA_pattern_count():
    # standard GT count for shape (2,1), 3 variables: dim = 8
    assert len(list(enumerate_patterns_typeA((2, 1), 3))) == 8


def _below(x, y) -> bool:
    """x interlaced below y, written out: y_i >= x_i >= y_{i+1}."""
    return all(y[i] >= x[i] >= (y[i + 1] if i + 1 < len(y) else 0) for i in range(len(x)))


def test_pattern_walk_order_is_the_sorted_brute_force_list():
    # the character sums add their terms in this order (the pattern sum's
    # own walk is pinned to it in test_characters), so a change of order
    # would move both sides of the term-order pins there at once
    for N in range(1, 7):
        for shape in partitions_max_weight(level_len(N), 6):
            top = padded(shape, level_len(N))
            chains = [(top,)]
            for k in range(N - 1, 0, -1):
                cands = [x for x in product(range(part(top, 1) + 1), repeat=level_len(k))
                         if list(x) == sorted(x, reverse=True)]
                chains = [(x,) + ch for ch in chains for x in cands if _below(x, ch[0])]
            # level N - 1 first, then N - 2, and so on down to level 1
            chains.sort(key=lambda ch: ch[-2::-1])
            assert list(_chains(top, [level_len(k) for k in range(N - 1, 0, -1)])) == chains, \
                (N, shape)


def test_typeA_pattern_counts_follow_the_hook_content_formula():
    for N in range(1, 6):
        for shape in partitions_max_weight(N, 6):
            cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
            cols = transpose(shape)
            dim = 1
            for i, j in cells:
                dim *= F(N + j - i, shape[i] - j + cols[j] - i - 1)
            assert len(list(enumerate_patterns_typeA(shape, N))) == dim, (N, shape)
