import json
from pathlib import Path

import pytest

from sympgt import acceptance, cli
from sympgt.acceptance import check_scaling_limit

REFERENCE = json.loads((Path(__file__).parent / "data" / "torus_reference.json").read_text())
POLYMER = json.loads((Path(__file__).parent / "data" / "polymer_reference.json").read_text())


def test_quick_ledger_passes(capsys):
    assert cli.main(["verify", "all", "--quick"]) == 0
    ledger = json.loads(capsys.readouterr().out)
    quick = [name for name, _fn, q in acceptance.REGISTRY if q]
    assert ledger["passed"] and ledger["hard_failures"] == []
    assert [r["name"] for r in ledger["checks"]] == quick
    # numpy bools would reach the JSON ledger as the string "True"
    assert all(type(r["passed"]) is bool and "soft" not in r for r in ledger["checks"])
    assert "soft_failures" not in ledger
    by_name = {r["name"]: r for r in ledger["checks"]}
    ortho = by_name["orthogonality"]
    assert max(ortho["rank1_max_error"], ortho["rank2_max_error"]) <= 1e-13
    assert (by_name["moments-three-way"]["worst_relative"]
            == REFERENCE["moments_three_way_worst_relative"])
    conjecture = by_name["orthogonality-conjecture"]
    for lam, d in REFERENCE["orthogonality_conjecture"].items():
        assert abs(conjecture["coefficient_distances"][lam] - d) <= 1e-12
    assert set(conjecture["t0_zero_distances"]) == {"rank1", "rank2", "rank3"}
    assert max(conjecture["t0_zero_distances"].values()) <= 1e-13
    torus = by_name["torus-law"]
    assert torus["states"] == 45 and torus["tv"] <= 1e-8 and 0 < torus["mass_defect"] <= 1e-8
    assert by_name["insertion"]["distinct_images"] == {"rank2": 1024, "rank3": 1296}
    assert by_name["koornwinder-eigenrelation"]["tolerance"] == 1e-12
    kernels = by_name["continuous-kernels"]
    assert kernels["tolerances"] == {"bessel": 1e-12, "intertwining": 1e-6, "eigen_residual": 1e-7}


@pytest.mark.slow
def test_full_ledger_passes():
    ledger = acceptance.run_all()
    assert len(ledger["checks"]) == len(acceptance.REGISTRY) == 16
    assert all(r["passed"] for r in ledger["checks"]), ledger["hard_failures"]
    assert ledger["passed"]


def test_simulation_vs_law_is_unchanged():
    rep = acceptance.check_simulation_vs_law()
    assert rep["passed"]
    for key, tv in REFERENCE["simulation_vs_law"].items():
        assert abs(rep[key] - tv) <= 1e-12
    # the generator row and the rank-1 Bessel sum, gated against each other
    assert rep["tv_between_references"] <= rep["tolerances"]["references"] == 1e-12


def test_polymer_identity_gates_level_one_by_path_and_level_two_in_law():
    rep = acceptance.check_polymer_identity()
    assert rep["passed"] and "soft" not in rep
    assert rep["level1"]["paths"] == 2000 and rep["level1"]["relative_gap"] <= 1e-12
    pin = next(c for c in POLYMER["ledger"] if c["N"] == 2)
    assert (rep["level2"]["ks"], rep["level2"]["pvalue"]) == (pin["ks"], pin["pvalue"])


def test_scaling_limit_check_passes():
    rep = check_scaling_limit()
    assert rep["passed"] and rep["monotone"]
    assert max(rep["final_errors"].values()) <= 5e-2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "verify", "all", "--quick"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "randomized", "--N", "2", "--a", "1", "--q", "0.5",
                  "--t", "1", "--replicas", "10", "--seed", "1", "--truncation", "40"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["law", "--n", "1", "--t", "0.5", "--a", "1", "--q", "0.5", "--window", "10"],
    ["verify", "branching", "--lambda", "2,1", "--nu", "1", "--q", "1/3"],
], ids=["table", "report"])
@pytest.mark.parametrize("flag", [["--format", "json"], ["--output", "x"]],
                         ids=["format", "output"])
def test_output_flags_are_rejected(capsys, argv, flag):
    # every subcommand prints its one output to stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: sympgt" in err and "unrecognized arguments" in err


def test_crashing_check_is_a_failed_report(monkeypatch):
    def crashes():
        raise RuntimeError("boom")

    def passes():
        return {"name": "passes", "passed": True, "seconds": 0.0}

    monkeypatch.setattr(acceptance, "REGISTRY",
                        [("crashes", crashes, True), ("passes", passes, True)])
    ledger = acceptance.run_all(quick=True)
    assert not ledger["passed"] and ledger["hard_failures"] == ["crashes"]
    crashed, passed = ledger["checks"]
    assert crashed["name"] == "crashes" and not crashed["passed"] and "soft" not in crashed
    assert crashed["error"] == "RuntimeError: boom"
    assert "RuntimeError: boom" in crashed["traceback"]
    assert passed["passed"]
