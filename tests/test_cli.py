"""Command-line surface: seeded reruns, report schema and input errors."""

import argparse
import csv
import io
import json
import re
from pathlib import Path

import pytest

from sympgt import cli
from sympgt.acceptance import check_moments_three_way


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


def test_rank_one_law_at_q_09_and_window_40(capsys):
    # the 4096-node FFT law put -1.71 of mass past the window here and exited 2
    code, out, _ = _run(capsys, ["law", "--n", "1", "--t", "1", "--a", "1", "--q", "0.9"])
    assert code == 0
    header, rows = _csv_report(out)
    assert len(rows) == 41 and abs(float(header["mass_defect"])) <= 1e-15
    assert list(rows[0]) == ["shape", "probability"]


def test_rank_two_law_at_q_09_and_window_40(capsys):
    # the FFT law raised for every window here
    code, out, _ = _run(capsys, ["law", "--n", "2", "--t", "1", "--a", "1,1", "--q", "0.9"])
    assert code == 0
    header, rows = _csv_report(out)
    assert list(header)[-1] == "mass_defect" and list(rows[0]) == ["shape", "probability"]
    assert len(rows) == 861 and abs(float(header["mass_defect"])) <= 1e-6


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
     lambda out: json.loads(out)["replicas"] == 200
     and json.loads(out)["generator"] == "SFC64"),
    (["verify", "branching", "--lambda", "2,1", "--nu", "1", "--q", "1/3"],
     lambda out: json.loads(out)["leading_term"] is True),
    (["verify", "continuous", "--which", "eigen"],
     lambda out: max(json.loads(out)["eigen_residuals"].values()) < 1e-4),
    (["verify", "orthogonality", "--n", "2", "--q", "0.4", "--max-weight", "2"],
     lambda out: json.loads(out)["max_deviation_from_identity"] < 1e-13),
    (["verify", "orthogonality", "--n", "3", "--q", "0.4", "--max-weight", "2"],
     lambda out: json.loads(out)["max_deviation_from_identity"] < 1e-13),
    # the weight reaches 3e7 here, past any absolute gate on its rounding
    (["verify", "orthogonality", "--n", "3", "--q", "0.7", "--max-weight", "1"],
     lambda out: json.loads(out)["max_deviation_from_identity"] < 1e-9),
    (["law", "--n", "3", "--t", "0.02", "--a", "1.3,0.9,1.1", "--q", "0.5", "--window", "4"],
     lambda out: len(_csv_report(out)[1]) == 35
     and abs(float(_csv_report(out)[0]["mass_defect"])) < 1e-6),
], ids=["compute-qwhittaker", "compute-schur", "berele", "law", "moments", "polymer",
        "verify-branching", "verify-continuous", "verify-orthogonality",
        "verify-orthogonality-rank-3", "verify-orthogonality-rank-3-q07", "law-rank-3"])
def test_subcommand_runs(capsys, argv, check):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert check(out)


@pytest.mark.parametrize("argv, pinned", [
    (["compute", "qwhittaker", "--n", "3", "--lambda", "3,2,1", "--q", "1/3",
      "--method", "recursion"], "compute_qwhittaker_n3_321_q1_3.txt"),
    (["compute", "qwhittaker", "--n", "3", "--lambda", "3,2,1", "--q", "1/3",
      "--method", "patterns"], "compute_qwhittaker_n3_321_q1_3.txt"),
    (["compute", "schur", "--n", "3", "--lambda", "2,1"], "compute_schur_n3_21.txt"),
    (["compute", "schur", "--n", "3", "--lambda", "3,2,1", "--method", "patterns"],
     "compute_schur_n3_321.txt"),
    (["compute", "schur", "--n", "3", "--lambda", "3,2,1", "--method", "tableaux"],
     "compute_schur_n3_321.txt"),
    # the float pattern sum, which no ledger check or benchmark op runs
    (["compute", "qwhittaker", "--n", "3", "--lambda", "3,2,1", "--q", "0.5",
      "--method", "patterns"], "compute_qwhittaker_n3_321_q0_5.txt"),
], ids=["qwhittaker-recursion", "qwhittaker-patterns", "schur", "schur-patterns-321",
        "schur-tableaux-321", "qwhittaker-patterns-float"])
def test_compute_output_is_pinned(capsys, argv, pinned):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "data" / pinned).read_text()


def test_compute_qwhittaker_at_q_one(capsys):
    # q = 1 is a root of unity, where the product form of the q-binomial
    # divides by zero
    argv = ["compute", "qwhittaker", "--n", "1", "--lambda", "2", "--q", "1"]
    assert _run(capsys, argv) == (0, "1 * a1^2 + 2 + 1 * a1^-2\n", "")


@pytest.mark.parametrize("argv, flag", [
    (["compute", "qwhittaker", "--n", "1", "--lambda", "2", "--q", "-1/2"], "--q"),
    (["verify", "branching", "--lambda", "2,1", "--nu", "1", "--q", "1/3",
      "--t0-ladder", "-1/2"], "--t0-ladder"),
])
def test_a_negative_rational_may_follow_its_flag(capsys, argv, flag):
    i = argv.index(flag)
    glued = _run(capsys, argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:])
    assert glued[0] == 0
    assert _run(capsys, argv) == glued


def test_a_limit_row_does_not_depend_on_the_points_before_it(capsys):
    argv = ["limit", "--n", "1", "--lambda", "0.7", "--eps", "0.05", "--x"]
    code, alone, _ = _run(capsys, argv + ["2"])
    assert code == 0
    code, both, _ = _run(capsys, argv + ["-1,2"])
    assert code == 0
    assert both.splitlines()[-1] == alone.splitlines()[-1]
    assert both.splitlines()[-1].startswith('"(2.0,)",0.05,')


def test_moments_spread_is_the_ledgers(capsys):
    # the ledger's worst pair at (t, a, q) = (1, 1.3, 0.5) is the one at k = 2
    code, out, _ = _run(capsys, ["moments", "--t", "1", "--a", "1.3", "--q", "0.5",
                                 "--k", "1,2"])
    assert code == 0
    rep = json.loads(out)["moments"]
    assert list(rep["2"]) == ["direct", "operator", "contour", "max_pairwise_relative"]
    assert rep["2"]["max_pairwise_relative"] == check_moments_three_way()["worst_relative"]


@pytest.mark.parametrize("argv, message", [
    (["limit", "--n", "2", "--lambda", "0.7,0.3", "--x", "0,-1,1", "--eps", "0.1"],
     "--x takes points of 2 coordinates each"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "0", "--replicas", "5", "--seed", "1"],
     "time horizon must be positive"),
    (["sde", "--N", "3", "--lambda", "0.9,0.4", "--t", "0.5", "--start", "1,0,0",
      "--replicas", "2", "--seed", "1"],
     "--start takes 4 coordinates for --N 3"),
    (["law", "--n", "2", "--t", "1", "--a", "1,1", "--q", "0.9", "--window", "10"],
     "enlarge the window"),
    (["polymer", "--N", "3", "--lambda", "0.9", "--replicas", "10", "--seed", "1"],
     "--lambda needs at least 2 values for --N 3"),
    (["polymer", "--N", "0", "--replicas", "10", "--seed", "1"],
     "--N must be at least 1"),
    (["polymer", "--N", "1", "--t", "-1", "--replicas", "10", "--seed", "1"],
     "--t must be positive"),
    (["polymer", "--N", "1", "--replicas", "0", "--seed", "1"],
     "--replicas must be at least 1"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0"], "--q must lie in (0, 1)"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "1"], "--q must lie in (0, 1)"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "1.5"], "--q must lie in (0, 1)"),
    (["moments", "--t", "-1", "--a", "1.3", "--q", "0.5"], "--t must be nonnegative"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0.5", "--k", "4"], "--k must lie in 0..3"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0.5", "--k", "-1"], "--k must lie in 0..3"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0.5", "--window", "0"],
     "--window must be at least 1"),
    (["moments", "--t", "8", "--a", "1.3", "--q", "0.9", "--window", "10"],
     "enlarge the window"),
    (["law", "--n", "1", "--t", "1", "--a", "1", "--q", "1"], "--q must satisfy |q| < 1"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "1", "--h", "0", "--replicas", "2",
      "--seed", "1"], "--h must be positive"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "1", "--h", "-0.1", "--replicas", "2",
      "--seed", "1"], "--h must be positive"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "1", "--replicas", "0", "--seed", "1"],
     "--replicas must be at least 1"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "-1", "--replicas", "2", "--seed", "1"],
     "--t must be nonnegative"),
    (["sde", "--N", "0", "--lambda", "0.9", "--t", "1", "--replicas", "2", "--seed", "1"],
     "--N must be at least 1"),
    (["sde", "--N", "5", "--lambda", "0.9,0.4", "--t", "1", "--replicas", "2", "--seed", "1"],
     "--lambda needs at least 3 values for --N 5"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "1", "--replicas", "5", "--seed", "-1"], "--seed must be nonnegative"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "1", "--replicas", "2", "--seed", "-1"],
     "--seed must be nonnegative"),
    (["polymer", "--N", "1", "--replicas", "10", "--seed", "-1"], "--seed must be nonnegative"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "inf", "--replicas", "2", "--seed", "1"],
     "--t must be nonnegative and finite"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "inf", "--replicas", "5", "--seed", "1"], "--t: the time horizon must be positive"),
    (["polymer", "--N", "1", "--t", "inf", "--replicas", "10", "--seed", "1"],
     "--t must be positive and finite"),
    (["moments", "--t", "inf", "--a", "1.3", "--q", "0.5"], "--t must be nonnegative and finite"),
    (["moments", "--t", "nan", "--a", "1.3", "--q", "0.5"], "--t must be nonnegative and finite"),
    (["law", "--n", "1", "--t", "inf", "--a", "1", "--q", "0.5"],
     "--t must be nonnegative and finite"),
    (["simulate", "--model", "randomized", "--N", "0", "--a", "1", "--q", "0.5",
      "--t", "1", "--replicas", "3", "--seed", "1"], "--N must be at least 1"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
      "--t", "1", "--replicas", "-1", "--seed", "1"], "--replicas must be nonnegative"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "0", "--q", "0.5",
      "--t", "1", "--replicas", "3", "--seed", "1"], "--a entries must be positive and finite"),
    (["law", "--n", "1", "--t", "1", "--a", "0", "--q", "0.5"],
     "--a entries must be positive and finite"),
    (["moments", "--t", "1", "--a", "0", "--q", "0.5"], "--a entries must be positive and finite"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "nan", "--q", "0.5",
      "--t", "1", "--replicas", "3", "--seed", "1"], "--a entries must be positive and finite"),
    (["moments", "--t", "1", "--a", "inf", "--q", "0.5"], "--a entries must be positive and finite"),
    (["moments", "--t", "1", "--a", "-1.3", "--q", "0.5"],
     "--a entries must be positive and finite"),
    (["law", "--n", "1", "--t", "1", "--a", "-1", "--q", "0.5"],
     "--a entries must be positive and finite"),
    (["simulate", "--model", "randomized", "--N", "2", "--a", "-1", "--q", "0.5",
      "--t", "1", "--replicas", "3", "--seed", "1"], "--a entries must be positive and finite"),
    (["law", "--n", "2", "--t", "400", "--a", "1.3,0.9", "--q", "0.5", "--window", "5"],
     "enlarge the window"),
    (["compute", "schur", "--n", "2", "--lambda", "2,1", "--method", "recursion"],
     "--method recursion does not apply to schur"),
    (["compute", "qwhittaker", "--n", "2", "--lambda", "2,1"], "qwhittaker needs --q"),
    (["compute", "schur", "--n", "2", "--lambda", "2,1", "--method", "weyl"],
     "--method weyl needs --a"),
    (["compute", "qwhittaker", "--n", "2", "--lambda", "2,1", "--q", "1/3", "--method", "weyl"],
     "--method weyl does not apply to qwhittaker"),
    (["compute", "schur", "--n", "1", "--lambda", "2", "--method", "weyl", "--a", "1"],
     "--a 1 is not a generic point"),
    (["law", "--n", "3", "--t", "0.25", "--a", "1.3,0.9,1.1", "--q", "0.5"],
     "--window 40 at --n 3 spans 12341 shapes, past the 4096 of a dense generator; "
     "use a smaller --window"),
    (["moments", "--n", "3", "--t", "0.25", "--a", "1.3,0.9,1.1", "--q", "0.5"],
     "--window 40 at --n 3 spans 12341 shapes, past the 4096 of a dense generator; "
     "use a smaller --window"),
    (["verify", "orthogonality", "--n", "4", "--q", "0.4", "--max-weight", "2"],
     "--n 4 needs a torus grid of 81^4 points"),
    (["compute", "qwhittaker", "--n", "1", "--lambda", "2", "--q", "1/2", "--a", "0"],
     "--a entries must be nonzero"),
    (["compute", "schur", "--n", "1", "--lambda", "2", "--a", "0"],
     "--a entries must be nonzero"),
    (["law", "--n", "0", "--t", "1", "--a", "1", "--q", "0.5"], "--n must be at least 1"),
    (["verify", "orthogonality", "--n", "0", "--q", "0.4"], "--n must be at least 1"),
    (["limit", "--n", "0", "--lambda", "0.7", "--x", "0", "--eps", "0.1"],
     "--n must be at least 1"),
    (["limit", "--n", "1", "--lambda", "nan", "--x", "0", "--eps", "0.1"],
     "--lambda entries must be finite"),
    (["sde", "--N", "1", "--lambda", "nan", "--t", "0.1", "--replicas", "3", "--seed", "1"],
     "--lambda entries must be finite"),
    (["sde", "--N", "4", "--lambda", "0.9,0.4", "--t", "0.05", "--replicas", "20",
      "--seed", "1"], "all 20 replicas were flagged: from the start [[-24.0], [-16.0]"),
    (["law", "--n", "1", "--t", "1", "--a", "1", "--q", "0"], "q > 0 at --n 1"),
    (["moments", "--t", "1", "--a", "1.3", "--q", "0.3", "--k", "3"],
     "32 and 16 nodes per circle differ by"),
    (["moments", "--n", "1", "--t", "0.5", "--a", "1.3,0.9", "--q", "0.5", "--k", "1"],
     "--a needs one rate per rank, 1 for --n 1, got 2"),
    (["moments", "--n", "2", "--t", "0.5", "--a", "1.3", "--q", "0.5"],
     "--a needs one rate per rank, 2 for --n 2, got 1"),
    (["law", "--n", "2", "--t", "0.5", "--a", "1.3", "--q", "0.5"],
     "--a needs one rate per rank, 2 for --n 2, got 1"),
    (["law", "--n", "1", "--t", "0.5", "--a", "1.3,0.9", "--q", "0.5"],
     "--a needs one rate per rank, 1 for --n 1, got 2"),
    (["compute", "schur", "--n", "2", "--lambda", "2,1", "--a", "2"],
     "--a needs one entry per variable, 2 for --n 2, got 1"),
    (["compute", "schur", "--n", "2", "--lambda", "2,1", "--a", "2,3,4"],
     "--a needs one entry per variable, 2 for --n 2, got 3"),
    (["compute", "schur", "--n", "2", "--lambda", "2,1", "--method", "weyl", "--a", "2"],
     "--a needs one entry per variable, 2 for --n 2, got 1"),
    (["compute", "qwhittaker", "--n", "2", "--lambda", "2,1", "--q", "1/3", "--a", "2,3,4"],
     "--a needs one entry per variable, 2 for --n 2, got 3"),
    (["sde", "--N", "2", "--lambda", "0.4,0.9", "--t", "0.1", "--replicas", "3", "--seed", "1"],
     "lam must be strictly decreasing"),
    (["sde", "--N", "1", "--lambda", "-0.5", "--t", "0.1", "--replicas", "3", "--seed", "1"],
     "lam must be positive"),
    (["limit", "--n", "1", "--lambda", "0.7", "--x", "0", "--eps", "1.5"],
     "eps must lie in (0,1)"),
    (["berele", "--word", "5", "--n", "2"], "letter outside the alphabet"),
    (["berele", "--word", "x", "--n", "2"], "invalid literal for int() with base 10: 'x'"),
    (["sde", "--N", "1", "--lambda", "0.9", "--t", "1", "--h", "inf", "--replicas", "2",
      "--seed", "1"], "--h must be positive and finite, got inf"),
    (["law", "--n", "2", "--t", "0.25", "--a", "1,1", "--q", "0.5", "--window", "-1"],
     "--window must be nonnegative, got -1"),
    (["law", "--n", "2", "--t", "0.25", "--a", "1,1", "--q", "1.5", "--window", "4"],
     "--q must satisfy |q| < 1"),
    (["moments", "--n", "2", "--a", "1.3,0.9", "--k", "3", "--t", "1", "--q", "0.01",
      "--window", "60"], "overflows a double at --window 60, --k 3, --q 0.01"),
    (["moments", "--n", "1", "--a", "1.3", "--k", "3", "--t", "1", "--q", "0.01"],
     "the operator route overflows a double at t = 1.0, q = 0.01; use a smaller --t"),
    (["moments", "--n", "1", "--a", "1", "--k", "2", "--t", "1", "--q", "0.5"],
     "use an --a off 1"),
    (["verify", "branching", "--lambda", "2,1", "--nu", "3", "--q", "1/3"],
     "shapes do not differ by two horizontal strips"),
    (["verify", "continuous", "--which", "kernels", "--theta", "nan"],
     "--theta must be finite, got nan"),
    (["verify", "orthogonality", "--n", "3", "--q", "0.99"],
     "--n 3 needs a torus grid of 2592^3 points, past the budget of 2^24; "
     "use a smaller --n or --max-weight, or a --q nearer 0"),
    (["verify", "orthogonality", "--n", "1", "--q", "0.998"],
     "--q 0.998 puts the torus weight's |(e^(i phi);q)_inf|^2 past double range; "
     "use a --q nearer 0"),
    (["verify", "orthogonality", "--n", "2", "--q", "0.999"],
     "--q 0.999 puts the torus weight's |(e^(i phi);q)_inf|^2 past double range"),
    (["limit", "--n", "1", "--lambda", "0.7", "--x", "0", "--eps", "nan"],
     "--eps must lie in (0,1), got nan"),
])
def test_bad_input_is_one_line_and_exit_code_2(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("which, theta", [("phi2", "100"), ("eigen", "100"), ("phi2", "800"),
                                          ("eigen", "800"), ("kernels", "800")])
def test_a_theta_past_double_range_is_a_one_line_error(capsys, which, theta):
    # past double range phi overflows math.exp and the kernel residuals go NaN
    code, out, err = _run(capsys, ["verify", "continuous", "--which", which, "--theta", theta])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"--theta {float(theta)}" in err
    assert "use a smaller --theta" in err


# one cheap run of every subcommand; the sweep sets each of its numeric or
# list flags in turn to every value of _BAD_VALUES
_SWEEP_BASES = [
    ["compute", "qwhittaker", "--n", "1", "--lambda", "2", "--q", "1/2", "--a", "2"],
    ["compute", "schur", "--n", "1", "--lambda", "2", "--a", "2"],
    ["berele", "--word", "1 2~ 1", "--n", "1"],
    ["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5", "--t", "0.5",
     "--replicas", "5", "--seed", "1"],
    ["simulate", "--model", "berele", "--N", "2", "--a", "1", "--q", "0.5", "--t", "0.5",
     "--replicas", "5", "--seed", "1"],
    ["law", "--n", "1", "--t", "0.5", "--a", "1", "--q", "0.5", "--window", "10"],
    ["law", "--n", "2", "--t", "0.25", "--a", "1,1", "--q", "0.5", "--window", "4"],
    ["moments", "--t", "0.5", "--a", "1.3", "--q", "0.5", "--k", "1", "--window", "10"],
    ["limit", "--n", "1", "--lambda", "0.7", "--x", "0", "--eps", "0.1"],
    ["sde", "--N", "2", "--lambda", "0.9", "--t", "0.05", "--h", "0.01", "--replicas", "3",
     "--seed", "1"],
    ["polymer", "--N", "1", "--t", "0.5", "--replicas", "10", "--seed", "1"],
    ["verify", "branching", "--lambda", "2,1", "--nu", "1", "--q", "1/3"],
    ["verify", "orthogonality", "--n", "1", "--q", "0.4", "--max-weight", "2"],
    ["verify", "continuous", "--which", "phi2"],
]
_BAD_VALUES = ["0", "-1", "nan", "inf", "1.5", "-0.5"]


def _subparsers(parser, path=()):
    """(subcommand path, parser) of every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for a in subs:
        for name, p in a.choices.items():
            yield from _subparsers(p, path + (name,))


def _swept_flags(parser) -> list:
    """The option strings of the flags that take a typed value: every
    numeric or comma-list flag, not the choices and switches."""
    return [a.option_strings[-1] for a in parser._actions
            if a.option_strings and a.type is not None and not a.choices]


def _sweep_cases() -> list:
    """The argv of every base, swept flag and value."""
    leaves = dict(_subparsers(cli.build_parser()))
    swept = {path: flags for path, p in leaves.items() if (flags := _swept_flags(p))}
    bases = {}
    for argv in _SWEEP_BASES:
        path = next(path for path in swept if tuple(argv[:len(path)]) == path)
        bases.setdefault(path, []).append(argv)
    assert set(bases) == set(swept), "a subcommand with typed flags has no sweep base"
    cases = []
    for path, flags in swept.items():
        for base in bases[path]:
            for flag in flags:
                for value in _BAD_VALUES:
                    argv = list(base)
                    if flag in argv:
                        argv[argv.index(flag) + 1] = value
                    else:
                        argv += [flag, value]
                    cases.append(argv)
    return cases


def test_flag_sweep_ends_in_a_one_line_error_a_usage_error_or_finite_output(capsys):
    outcomes = {"one-line": 0, "usage": 0, "finite": 0}
    for argv in _sweep_cases():
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the value itself
            out, err = capsys.readouterr()
            assert exc.code == 2 and out == "" and "usage: sympgt" in err, argv
            outcomes["usage"] += 1
            continue
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.startswith("sympgt "), argv
            outcomes["one-line"] += 1
        else:
            assert (code, err) == (0, ""), argv
            assert not re.search("nan|inf", out, re.IGNORECASE), (argv, out)
            outcomes["finite"] += 1
    assert all(outcomes.values()), outcomes
