"""Pins of the intertwining result lists against
``data/intertwining_reference.json``, the once-per-source build of the
helper rows inside one verify call, the failure of the identity when one
helper entry is added or dropped, and the level-length checks of the
helper rows."""
import json
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from sympgt import dynamics
from sympgt.acceptance import _two_level_probes
from sympgt.algebra import QSeriesCtx
from sympgt.combinatorics import _chains, interlacings
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


def _mutated_source(N, probe, ctx, a, has_entry):
    """The first source over the probe's bottom level other than the probe
    whose helper row has (has_entry) or lacks an entry into the probe."""
    return next(src for src in _chains(probe[-1], (len(probe[0]),))
                if src != probe and (probe in helper_randomized(N, *src, ctx, a)[0]) == has_entry)


@pytest.mark.parametrize("has_entry", [False, True], ids=["extra-entry", "dropped-entry"])
def test_one_wrong_helper_entry_fails_the_identity(monkeypatch, has_entry):
    # skipping the zero entries of the helper rows must not hide a row that
    # gains or loses one nonzero entry into a probe
    N, probes, ctx, a = RANDOMIZED["randomized-N4"]
    probe = tuple(map(tuple, probes[0]))
    source = _mutated_source(N, probe, ctx, a, has_entry)
    inner = dynamics.helper_randomized

    def mutated(N, x, y, ctx, a):
        row, diagonal = inner(N, x, y, ctx, a)
        if (x, y) == source:
            row = {k: v for k, v in row.items() if k != probe}
            if not has_entry:
                row[probe] = F(1, 7)
        return row, diagonal

    monkeypatch.setattr(dynamics, "helper_randomized", mutated)
    failed = [(r[0], r[1]) for r in verify_intertwining_randomized(N, probes, ctx, a) if not r[-1]]
    assert failed == [(probe, probe[-1])]


@pytest.mark.parametrize("call, expected", [
    (lambda: helper_randomized(4, (1,), (2, 1), CTX, A2), "level x must have length 2"),
    (lambda: helper_row_cascade(2, (1,), (2,), (2, 1), CTX, A2), "level y must have length 2"),
    (lambda: helper_row_cascade(2, (1, 0), (2, 1), (2, 1), CTX, A2), "level x must have length 1"),
])
def test_helper_rows_reject_wrong_level_lengths(call, expected):
    with pytest.raises(ValueError, match=expected):
        call()
