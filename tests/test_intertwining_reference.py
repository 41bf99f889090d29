"""Pins of the intertwining result lists against
``data/intertwining_reference.json``, the once-per-source build of the
helper rows inside one verify call, and the level-length checks of the
helper rows."""
import json
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from sympgt import dynamics
from sympgt.acceptance import _two_level_probes
from sympgt.algebra import QSeriesCtx
from sympgt.combinatorics import interlacings
from sympgt.dynamics import (
    helper_randomized,
    helper_row_cascade,
    verify_intertwining_cascade,
    verify_intertwining_randomized,
)

REF = json.loads((Path(__file__).parent / "data" / "intertwining_reference.json").read_text())
CTX = QSeriesCtx(F(1, 3))
A2, A3 = (F(6, 5), F(3, 7)), (F(6, 5), F(3, 7), F(5, 2))
RANDOMIZED = {
    "randomized-N4": (4, _two_level_probes(4, [(2, 1), (1, 1), (2, 0), (3, 1), (2, 2), (3, 0)]),
                      CTX, A2),
    "randomized-N5": (5, _two_level_probes(5, [(2, 1, 0), (1, 1, 1), (2, 2, 1), (3, 1, 0),
                                               (2, 2, 2), (3, 2, 1), (1, 0, 0), (2, 0, 0)]),
                      CTX, A3),
    "randomized-N4-float": (4, _two_level_probes(4, [(2, 1), (1, 1), (2, 0), (3, 1)]),
                            QSeriesCtx(0.5), (1.2, 0.43)),
}
CASCADE_PROBES = [(x, y, z) for z in [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]
                  for y in interlacings(z, 2) for x in interlacings(y, 1)]


def _reprs(results):
    return [[repr(v) for v in r] for r in results]


@pytest.mark.parametrize("key", list(RANDOMIZED))
def test_randomized_results_match_reference(key):
    assert _reprs(verify_intertwining_randomized(*RANDOMIZED[key])) == REF[key]


def test_cascade_results_match_reference():
    assert _reprs(verify_intertwining_cascade(2, CASCADE_PROBES, CTX, A2)) == REF["cascade-n2"]


def _counting(monkeypatch, name):
    calls = Counter()
    inner = getattr(dynamics, name)

    def wrapper(*args):
        calls[args[:-2]] += 1
        return inner(*args)

    monkeypatch.setattr(dynamics, name, wrapper)
    return calls


def test_each_helper_row_is_built_once_per_verify_call(monkeypatch):
    distinct = 0
    for key in ("randomized-N4", "randomized-N5"):
        calls = _counting(monkeypatch, "helper_randomized")
        verify_intertwining_randomized(*RANDOMIZED[key])
        assert set(calls.values()) == {1}
        distinct += len(calls)
    assert distinct == 106
    calls = _counting(monkeypatch, "helper_row_cascade")
    verify_intertwining_cascade(2, CASCADE_PROBES, CTX, A2)
    assert set(calls.values()) == {1} and len(calls) == 90


@pytest.mark.parametrize("call, expected", [
    (lambda: helper_randomized(4, (1,), (2, 1), CTX, A2), "level x must have length 2"),
    (lambda: helper_row_cascade(2, (1,), (2,), (2, 1), CTX, A2), "level y must have length 2"),
    (lambda: helper_row_cascade(2, (1, 0), (2, 1), (2, 1), CTX, A2), "level x must have length 1"),
])
def test_helper_rows_reject_wrong_level_lengths(call, expected):
    with pytest.raises(ValueError, match=expected):
        call()
