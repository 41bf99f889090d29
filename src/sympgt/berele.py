"""Row insertion on symplectic tableaux: jeu de taquin sliding, single-letter
insertion with the cancellation rule, and the word-level driver that records
the shape path."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .combinatorics import SymplecticTableau, canon, letter_parse


class PuncturedTableau:
    """Tableau grid with exactly one empty cell, stored as (rows, hole)."""

    __slots__ = ("rows", "hole")

    def __init__(self, rows: Sequence[Sequence[int]], hole: tuple):
        self.rows = [list(r) for r in rows]
        i, j = hole
        if not (0 <= i < len(self.rows) and 0 <= j < len(self.rows[i])):
            raise ValueError("hole outside the shape")
        self.hole = (i, j)


def jeu_de_taquin(T: PuncturedTableau) -> SymplecticTableau:
    """Slide the hole to a corner, each step switching with the smaller of
    the right/below neighbours (below on ties, and whenever it is the only
    neighbour), then drop the corner box."""
    rows = T.rows
    i, j = T.hole
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
    return SymplecticTableau(rows)


def insert(P: SymplecticTableau, letter: int) -> SymplecticTableau:
    """Insert one letter by row bumping.  If letter l reaches row l and would
    bump l-bar, both are erased and the hole is slid away; otherwise bumping
    continues downward until a letter lands at the end of a row."""
    rows = [list(r) for r in P.rows]
    cur = letter
    i = 0
    while True:
        if i == len(rows):
            rows.append([cur])
            break
        row = rows[i]
        pos = next((k for k, x in enumerate(row) if x > cur), None)
        if pos is None:
            row.append(cur)
            break
        bumped = row[pos]
        if cur == 2 * (i + 1) - 1 and bumped == cur + 1:
            # letter i+1 meets its bar in row i+1: cancel both
            return jeu_de_taquin(PuncturedTableau(rows, (i, pos)))
        row[pos] = cur
        cur = bumped
        i += 1
    return SymplecticTableau(rows)


@dataclass(frozen=True)
class InsertionRecord:
    word: tuple
    tableau: SymplecticTableau
    shapes: tuple  # f^0 = (), ..., f^m = shape of tableau


def process_word(word: Union[str, Sequence[int]], n: int) -> InsertionRecord:
    """Insert the word letter by letter starting from the empty tableau,
    validating after each step and recording the shape path."""
    if isinstance(word, str):
        letters = tuple(letter_parse(tok) for tok in word.split())
    else:
        letters = tuple(int(x) for x in word)
    if any(not 1 <= x <= 2 * n for x in letters):
        raise ValueError("letter outside the alphabet")
    P = SymplecticTableau([])
    shapes: list = [()]
    for x in letters:
        Q = insert(P, x)
        Q.validate(n)
        old, new = canon(P.shape), canon(Q.shape)
        if sum(new) - sum(old) not in (-1, 1):
            raise AssertionError("shape did not change by one box")
        shapes.append(new)
        P = Q
    return InsertionRecord(letters, P, tuple(shapes))
