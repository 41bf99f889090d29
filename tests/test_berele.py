import hashlib
import random
from itertools import product

import pytest

from sympgt import berele
from sympgt.acceptance import check_insertion
from sympgt.berele import (InsertionRecord, _insertion_tree, insert, jeu_de_taquin,
                           process_word)
from sympgt.combinatorics import (GTPattern, SymplecticTableau, _chains, canon, level_len,
                                  padded, pattern_to_tableau)

# SHA-256 of every tableau and shape path of process_word over the words of
# the insertion ledger check, recorded when insertion still built each row
# with list bumping
INSERTION_PIN = "b862cb722f8ce719f0b80656eb40c0f7df9aaaefd695f3b6b0150aee52ef785b"


def _ledger_words():
    for n, alphabet, length in ((2, 4, 5), (3, 6, 4)):
        for w in product(range(1, alphabet + 1), repeat=length):
            yield n, w


def _insert_by_lists(P, letter):
    """Row insertion on lists, scanning each row for the bumped entry: the
    reference for ``insert``."""
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
            return jeu_de_taquin(rows, (i, pos))
        row[pos] = cur
        cur = bumped
        i += 1
    return SymplecticTableau(rows)


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
        pool = [pattern_to_tableau(GTPattern(levels)) for levels in
                _chains(padded(shape, 3), [level_len(k) for k in range(5, 0, -1)])]
        rng.shuffle(pool)
        for T in pool[:20]:
            rows = [list(r) for r in T.rows]
            i = rng.randrange(len(rows))
            j = rng.randrange(len(rows[i]))
            # a hole at a random cell is artificial, and the slide may break
            # S3 there, so only the shape mechanics are checked: the slide
            # removes exactly one box
            out = jeu_de_taquin(rows, (i, j))
            assert sum(map(len, out.rows)) == sum(shape) - 1
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
        assert rec.shapes[-1] == canon(tuple(map(len, rec.tableau.rows)))


def test_insertion_is_list_bumping_and_pinned_over_the_ledger_words():
    lines = []
    for n, w in _ledger_words():
        rec = process_word(w, n)
        for P, x, after in zip(rec.tableaux, w, rec.tableaux[1:]):
            assert after.rows == _insert_by_lists(P, x).rows
            assert all(type(e) is int for row in after.rows for e in row)
        lines.append(f"{n} {w} {[T.rows for T in rec.tableaux]} {rec.shapes}")
    assert len(lines) == 2320
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == INSERTION_PIN


def test_every_step_is_validated(monkeypatch):
    # an insertion that goes wrong at step 3 is caught at step 3
    calls = []
    real = berele.insert

    def faulty(P, x):
        calls.append(x)
        return SymplecticTableau([[1, 1], [2]]) if len(calls) == 3 else real(P, x)

    monkeypatch.setattr(berele, "insert", faulty)
    with pytest.raises(ValueError) as exc:
        process_word("1 2 1~ 2", 2)
    assert str(exc.value) == "S3 violated: entry 1~ < 2 in row 2"
    assert len(calls) == 3


def test_insertion_tree_leaves_are_process_word_in_product_order():
    leaves = [leaf for n, length in ((2, 5), (3, 4)) for leaf in _insertion_tree(n, length)]
    expected = [(rec.tableau.rows, rec.shapes)
                for rec in (process_word(w, n) for n, w in _ledger_words())]
    assert len(leaves) == 2320
    assert leaves == expected


def test_insertion_tree_of_the_empty_word():
    assert list(_insertion_tree(2, 0)) == [((), ((),))]


def test_insertion_tree_inserts_each_prefix_once(monkeypatch):
    calls = []
    real = berele.insert

    def counting(P, x):
        calls.append(x)
        return real(P, x)

    monkeypatch.setattr(berele, "insert", counting)
    for n, length in ((2, 5), (3, 4)):
        list(_insertion_tree(n, length))
    assert len(calls) == sum(4 ** k for k in range(1, 6)) + sum(6 ** k for k in range(1, 5))
    assert len(calls) == 2918


def test_check_insertion_validates_every_step_of_the_walk(monkeypatch):
    # the walk's third insertion, of the first word 1 1 1 1 1 into the
    # tableau 1 1, goes wrong; the reference example inserts no 1 into a
    # tableau of two boxes, so it runs as before
    calls = []
    real = berele.insert

    def faulty(P, x):
        calls.append(x)
        if x == 1 and sum(map(len, P.rows)) == 2:
            return SymplecticTableau([[1, 1], [2]])
        return real(P, x)

    monkeypatch.setattr(berele, "insert", faulty)
    with pytest.raises(ValueError) as walk_exc:
        check_insertion()
    assert calls == [6, 3, 2, 6, 1, 3, 1, 1, 1, 1]
    with pytest.raises(ValueError) as word_exc:
        process_word((1, 1, 1), 2)
    assert str(walk_exc.value) == str(word_exc.value) == "S3 violated: entry 1~ < 2 in row 2"
