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


def test_sde_start_is_grouped_into_levels(capsys):
    argv = ["sde", "--N", "3", "--lambda", "0.9,0.4", "--t", "0.05", "--h", "0.01",
            "--start", "1,0,0,0", "--replicas", "4", "--seed", "2"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rep = json.loads(out)
    assert rep["flagged"] == 0 and len(rep["bottom_mean"]) == 2
    code, out, _ = _run(capsys, ["sde", "--N", "2", "--lambda", "0.9", "--t", "0.05",
                                 "--h", "0.01", "--start", "-8,-16", "--replicas", "4",
                                 "--seed", "2"])
    assert code == 0 and len(json.loads(out)["bottom_mean"]) == 1


def test_law_at_q_near_one_with_a_small_window(capsys):
    code, out, _ = _run(capsys, ["law", "--n", "1", "--t", "1", "--a", "1", "--q", "0.9",
                                 "--window", "15"])
    assert code == 0
    header, rows = _csv_report(out)
    mass = sum(float(r["probability"]) for r in rows)
    assert len(rows) == 16 and abs(mass + float(header["mass_defect"]) - 1) < 1e-12


@pytest.mark.parametrize("argv, check", [
    (["compute", "qwhittaker", "--n", "2", "--lambda", "2,1", "--q", "1/3", "--a", "2,3"],
     lambda out: out == "455/9\n"),
    (["compute", "schur", "--n", "1", "--lambda", "2"],
     lambda out: "a1^2" in out and "a1^-2" in out),
    (["berele", "--word", "3~ 2 1~ 3~ 1 2 1", "--n", "3", "--trace"],
     lambda out: "shapes: () -> (1,)" in out and out.count("after ") == 7),
    (["law", "--n", "1", "--t", "0.5", "--a", "1", "--q", "0.5", "--window", "20"],
     lambda out: abs(float(_csv_report(out)[0]["mass_defect"])) < 1e-6),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0.5", "--k", "1", "--window", "10"],
     lambda out: set(json.loads(out)["moments"]["1"]) >= {"direct", "operator", "contour"}),
    (["polymer", "--N", "1", "--replicas", "200", "--seed", "3"],
     lambda out: json.loads(out)["replicas"] == 200),
    (["verify", "branching", "--lambda", "2,1", "--nu", "1", "--q", "1/3"],
     lambda out: json.loads(out)["leading_term"] is True),
    (["verify", "continuous", "--which", "eigen"],
     lambda out: max(json.loads(out)["eigen_residuals"].values()) < 1e-4),
    (["verify", "orthogonality", "--n", "2", "--q", "0.4", "--max-weight", "2"],
     lambda out: json.loads(out)["max_deviation_from_identity"] < 1e-13),
], ids=["compute-qwhittaker", "compute-schur", "berele", "law", "moments", "polymer",
        "verify-branching", "verify-continuous", "verify-orthogonality"])
def test_subcommand_runs(capsys, argv, check):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert check(out)


@pytest.mark.parametrize("argv, message", [
    (["limit", "--n", "2", "--lambda", "0.7,0.3", "--x", "0,-1,1", "--eps", "0.1"],
     "--x takes points of 2 coordinates each"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "0", "--replicas", "5", "--seed", "1"],
     "time horizon must be positive"),
    (["sde", "--N", "3", "--lambda", "0.9,0.4", "--t", "0.5", "--start", "1,0,0",
      "--replicas", "2", "--seed", "1"],
     "--start takes 4 coordinates for --N 3"),
    (["law", "--n", "1", "--t", "1", "--a", "1", "--q", "0.9"],
     "shrink the window"),
    (["polymer", "--N", "3", "--lambda", "0.9", "--replicas", "10", "--seed", "1"],
     "--lambda needs at least 2 values for --N 3"),
    (["polymer", "--N", "0", "--replicas", "10", "--seed", "1"],
     "--N must be at least 1"),
    (["polymer", "--N", "1", "--t", "-1", "--replicas", "10", "--seed", "1"],
     "--t must be positive"),
    (["polymer", "--N", "1", "--replicas", "0", "--seed", "1"],
     "--replicas must be at least 1"),
])
def test_bad_input_is_one_line_and_exit_code_2(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err
