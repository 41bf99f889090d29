"""Command-line surface: seeded reruns, report schema and input errors."""

import csv
import io
import json

import pytest

from sympgt import cli


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _csv_report(text):
    """(header dict, data rows) of a CSV report."""
    records = list(csv.reader(io.StringIO(text)))
    header = {r[0][2:]: r[1] for r in records if r[0].startswith("# ")}
    rows = [r for r in records if not r[0].startswith("# ")]
    return header, [dict(zip(rows[0], r)) for r in rows[1:]]


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "randomized", "--N", "3", "--a", "1.2,0.9", "--q", "0.5",
     "--t", "0.5", "--replicas", "200", "--seed", "4"],
    ["simulate", "--model", "berele", "--N", "4", "--a", "1.1,0.8", "--q", "0.4",
     "--t", "0.5", "--replicas", "200", "--seed", "4", "--start", "2,1"],
])
def test_simulate_rerun_is_byte_identical(capsys, argv):
    code, first, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv) == (0, first, "")
    header, rows = _csv_report(first)
    assert header["schema"] == "sympgt-report/2"
    assert sum(int(r["count"]) for r in rows) == 200


def test_sde_rerun_is_byte_identical(capsys):
    argv = ["sde", "--N", "2", "--lambda", "0.9", "--t", "0.05", "--h", "0.01",
            "--replicas", "8", "--seed", "4"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv) == (0, first, "")
    rep = json.loads(first)
    assert rep["schema"] == "sympgt-report/2"
    assert rep["flagged"] == 0 and len(rep["bottom_mean"]) == 1


def test_limit_rank_two_takes_points_as_pairs(capsys):
    code, out, _ = _run(capsys, ["limit", "--n", "2", "--lambda", "0.7,0.3",
                                 "--x", "0,-1,0.5,-0.5", "--eps", "0.1"])
    assert code == 0
    _, rows = _csv_report(out)
    assert [r["x"] for r in rows] == ["(0.0, -1.0)", "(0.5, -0.5)"]


@pytest.mark.parametrize("argv, message", [
    (["limit", "--n", "2", "--lambda", "0.7,0.3", "--x", "0,-1,1", "--eps", "0.1"],
     "--x takes points of 2 coordinates each"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "0", "--replicas", "5", "--seed", "1"],
     "time horizon must be positive"),
])
def test_bad_input_is_one_line_and_exit_code_2(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err
