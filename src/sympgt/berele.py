"""Row insertion on symplectic tableaux: jeu de taquin sliding, single-letter
insertion with the cancellation rule, and the word-level driver that records
the shape path."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .combinatorics import SymplecticTableau, letter_parse


def jeu_de_taquin(rows: Sequence[Sequence[int]], hole: tuple) -> SymplecticTableau:
    """Slide the empty cell hole = (i, j) of a copy of rows to a corner, each
    step switching with the smaller of the right/below neighbours (below on
    ties, and whenever it is the only neighbour), then drop the corner box."""
    rows = [list(r) for r in rows]
    i, j = hole
    while True:
        right = rows[i][j + 1] if j + 1 < len(rows[i]) else None
        below = rows[i + 1][j] if i + 1 < len(rows) and j < len(rows[i + 1]) else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[i][j] = right
            j += 1
        else:
            rows[i][j] = below
            i += 1
    del rows[i][j]
    return SymplecticTableau.of(tuple(tuple(r) for r in rows if r))


def insert(P: SymplecticTableau, letter: int) -> SymplecticTableau:
    """Insert one letter by row bumping.  If letter l reaches row l and would
    bump l-bar, both are erased and the hole is slid away; otherwise bumping
    continues downward until a letter lands at the end of a row.

    Rows are tuples: a bump rebuilds the one row it changes, the rows below
    the last bump are P's own, and the bumped position is the first entry
    greater than the letter, found by bisection in the weakly increasing
    row."""
    rows = list(P.rows)
    cur = letter
    for i, row in enumerate(rows):
        pos = bisect_right(row, cur)
        if pos == len(row):
            rows[i] = row + (cur,)
            return SymplecticTableau.of(tuple(rows))
        bumped = row[pos]
        if cur == 2 * i + 1 and bumped == cur + 1:
            # letter i+1 meets its bar in row i+1: cancel both
            return jeu_de_taquin(rows, (i, pos))
        rows[i] = row[:pos] + (cur,) + row[pos + 1:]
        cur = bumped
    rows.append((cur,))
    return SymplecticTableau.of(tuple(rows))


@dataclass(frozen=True)
class InsertionRecord:
    word: tuple
    tableaux: tuple  # P^0 = empty, ..., P^m after the whole word
    shapes: tuple    # f^0 = (), ..., f^m, the shapes of the tableaux

    @property
    def tableau(self) -> SymplecticTableau:
        return self.tableaux[-1]


def _step(P: SymplecticTableau, shape: tuple, letter: int, n: int) -> tuple:
    """Insert letter into P, validate the result at rank n and check that
    its shape differs from shape, P's, by one box: (tableau, its shape).
    ``validate`` has checked that the rows, all nonempty, weakly shorten,
    so their lengths are the shape as they are."""
    P = insert(P, letter)
    P.validate(n)
    new = tuple(map(len, P.rows))
    if sum(new) - sum(shape) not in (-1, 1):
        raise AssertionError("shape did not change by one box")
    return P, new


def process_word(word: Union[str, Sequence[int]], n: int) -> InsertionRecord:
    """Insert the word letter by letter starting from the empty tableau,
    validating after each step and recording every tableau and the shape
    path.  Each step's tableau shares the rows that its insertion left
    alone with the one before it.  ``_insertion_tree`` makes the same steps
    for every word of one length at once."""
    if isinstance(word, str):
        letters = tuple(letter_parse(tok) for tok in word.split())
    else:
        letters = tuple(int(x) for x in word)
    if any(not 1 <= x <= 2 * n for x in letters):
        raise ValueError("letter outside the alphabet")
    tableaux = [SymplecticTableau([])]
    shapes: list = [()]
    for x in letters:
        P, shape = _step(tableaux[-1], shapes[-1], x, n)
        tableaux.append(P)
        shapes.append(shape)
    return InsertionRecord(letters, tuple(tableaux), tuple(shapes))


def _insertion_tree(n: int, length: int) -> Iterator[tuple]:
    """(rows of the final tableau, shape path) of ``process_word`` for each
    word of the given length over the letters 1..2n, in
    ``itertools.product`` order.  The words are walked depth first as a
    tree of prefixes, so each prefix is inserted, validated and checked
    once, by the same step as ``process_word``'s, however many words
    share it."""
    letters = range(1, 2 * n + 1)

    def walk(P, shapes):
        if len(shapes) > length:
            yield P.rows, shapes
            return
        for x in letters:
            Q, shape = _step(P, shapes[-1], x, n)
            yield from walk(Q, shapes + (shape,))

    return walk(SymplecticTableau([]), ((),))
