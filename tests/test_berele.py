import random
from itertools import product

import pytest

from sympgt.berele import InsertionRecord, insert, jeu_de_taquin, process_word
from sympgt.combinatorics import SymplecticTableau, enumerate_tableaux, pattern_to_tableau


def test_jdt_worked_example():
    # hole at (1,1) of [_ 1 2 / 2 2]: slide right ("1<2"), then below on the tie
    out = jeu_de_taquin([[0, 1, 3], [3, 3]], (0, 0))
    assert out.rows == ((1, 3, 3), (3,))


def test_jdt_corner_hole():
    out = jeu_de_taquin([[1, 3], [3]], (1, 0))
    assert out.rows == ((1, 3),)


def test_jdt_fuzz_validity():
    rng = random.Random(3)
    cases = 0
    for shape in [(2,), (2, 1), (3, 2), (2, 2), (3, 2, 1)]:
        pool = list(enumerate_tableaux(shape, 3))
        rng.shuffle(pool)
        for T in pool[:20]:
            rows = [list(r) for r in T.rows]
            i = rng.randrange(len(rows))
            j = rng.randrange(len(rows[i]))
            # a hole at a random cell is artificial, and the slide may break
            # S3 there, so only the shape mechanics are checked: the slide
            # removes exactly one box
            out = jeu_de_taquin(rows, (i, j))
            assert sum(out.shape) == sum(shape) - 1
            cases += 1
    assert cases > 50


def test_insert_worked_example():
    # P = [1 1 2 2~ / 2 2~ 3 / 3 3~], insert 1~:
    # bump 2, bump 2~, cancel 2/2~, jdt -> [1 1 1~ 2~ / 2 3 / 3 3~]
    P = SymplecticTableau([[1, 1, 3, 4], [3, 4, 5], [5, 6]])
    P.validate(3)
    out = insert(P, 2)
    assert out.rows == ((1, 1, 2, 4), (3, 5), (5, 6))
    out.validate(3)


def test_insert_trivial_cases():
    empty = SymplecticTableau([])
    assert insert(empty, 5).rows == ((5,),)
    P = SymplecticTableau([[1, 3]])
    assert insert(P, 4).rows == ((1, 3, 4),)


def test_process_word_example():
    rec = process_word("3~ 2 1~ 3~ 1 2 1", 3)
    assert rec.shapes == ((), (1,), (1, 1), (1, 1, 1), (2, 1, 1), (2, 1), (2, 2), (2, 2, 1))
    assert rec.tableau.rows == ((1, 3), (3, 6), (6,))


def test_empty_word():
    rec = process_word("", 3)
    assert rec.shapes == ((),)
    assert rec.tableau.rows == ()


def test_injectivity_rank2_len5():
    seen = {}
    for w in product(range(1, 5), repeat=5):
        rec = process_word(w, 2)
        key = (rec.tableau.rows, rec.shapes)
        assert key not in seen, (w, seen[key])
        seen[key] = w
    assert len(seen) == 4 ** 5


def test_injectivity_rank3_len4():
    seen = {}
    for w in product(range(1, 7), repeat=4):
        rec = process_word(w, 3)
        key = (rec.tableau.rows, rec.shapes)
        assert key not in seen
        seen[key] = w
    assert len(seen) == 6 ** 4


def test_every_step_valid_random_words():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([2, 3])
        w = [rng.randrange(1, 2 * n + 1) for _ in range(rng.randrange(1, 9))]
        rec = process_word(w, n)  # validates internally each step
        assert rec.shapes[-1] == rec.tableau.shape
