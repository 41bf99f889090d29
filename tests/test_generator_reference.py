"""Pins of the shape-chain generator and of the intertwining helper rows:
values, and the insertion order of every row, against
``data/generator_reference.json``."""
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from sympgt.acceptance import check_intertwining
from sympgt.algebra import QSeriesCtx
from sympgt.dynamics import (
    build_generator,
    helper_randomized,
    helper_row_cascade,
)

REF = json.loads((Path(__file__).parent / "data" / "generator_reference.json").read_text())


def _listed(row: dict, fmt) -> list:
    return [[[list(part) for part in tgt], fmt(v)] for tgt, v in row.items()]


@pytest.mark.parametrize("key, ctx, a, fmt", [
    ("exact_generator", QSeriesCtx(F(1, 3)), (F(6, 5), F(3, 7)), str),
    ("float_generator", QSeriesCtx(0.5), (1.3, 0.8, 1.1), repr),
])
def test_generator_matches_reference(key, ctx, a, fmt):
    ref = REF[key]
    gen = build_generator(ref["N"], ref["C"], ctx, a)
    assert [list(z) for z in gen.states] == ref["states"]
    assert [[[j, fmt(v)] for j, v in row.items()] for row in gen.rows] == ref["rows"]
    assert [fmt(d) for d in gen.diagonal] == ref["diagonal"]
    assert gen.boundary == ref["boundary"]


def test_helper_rows_match_reference():
    ctx = QSeriesCtx(F(1, 3))
    for ref in REF["randomized_rows"]:
        N, x, y, a = ref["N"], tuple(ref["x"]), tuple(ref["y"]), tuple(map(F, ref["a"]))
        row, diagonal = helper_randomized(N, x, y, ctx, a)
        assert _listed(row, str) == ref["row"]
        assert str(diagonal) == ref["diagonal"]
    for ref in REF["cascade_rows"]:
        x, y, z = (tuple(ref[k]) for k in "xyz")
        row = helper_row_cascade(ref["n"], x, y, z, ctx, tuple(map(F, ref["a"])))
        assert _listed(row, str) == ref["row"]


def test_intertwining_ledger_counts():
    rep = check_intertwining()
    assert rep["passed"]
    assert [r["identities"] for r in rep["reports"].values()] == [93, 124, 47, 166, 45]
    assert all(r["failures"] == 0 for r in rep["reports"].values())
