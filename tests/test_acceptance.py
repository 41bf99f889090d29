import json
from pathlib import Path

import pytest

from sympgt import acceptance, cli
from sympgt.acceptance import check_scaling_limit

REFERENCE = json.loads((Path(__file__).parent / "data" / "torus_reference.json").read_text())


def test_quick_ledger_passes():
    ledger = acceptance.run_all(quick=True)
    quick = [name for name, _fn, q in acceptance.REGISTRY if q]
    assert ledger["passed"] and ledger["soft_failures"] == []
    assert [r["name"] for r in ledger["checks"]] == quick
    by_name = {r["name"]: r for r in ledger["checks"]}
    ortho = by_name["orthogonality"]
    assert max(ortho["rank1_max_error"], ortho["rank2_max_error"]) <= 1e-13
    assert (by_name["moments-three-way"]["worst_relative"]
            == REFERENCE["moments_three_way_worst_relative"])
    dists = by_name["orthogonality-conjecture"]["coefficient_distances"]
    for lam, d in REFERENCE["orthogonality_conjecture"].items():
        assert abs(dists[lam] - d) <= 1e-12


@pytest.mark.slow
def test_full_ledger_passes():
    ledger = acceptance.run_all()
    assert len(ledger["checks"]) == len(acceptance.REGISTRY) == 15
    assert all(r["passed"] for r in ledger["checks"]), ledger["soft_failures"]
    assert ledger["passed"]


def test_simulation_vs_law_is_unchanged():
    rep = acceptance.check_simulation_vs_law()
    assert rep["passed"]
    for key, tv in REFERENCE["simulation_vs_law"].items():
        assert abs(rep[key] - tv) <= 1e-12


def test_scaling_limit_check_passes():
    rep = check_scaling_limit()
    assert rep["passed"] and rep["monotone"]
    assert max(rep["final_errors"].values()) <= 5e-2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "verify", "all", "--quick"])
    assert exc.value.code == 2


def test_crashing_check_is_a_failed_report(monkeypatch):
    def crashes():
        raise RuntimeError("boom")

    def passes():
        return {"name": "passes", "passed": True, "soft": False, "seconds": 0.0}

    monkeypatch.setattr(acceptance, "REGISTRY",
                        [("crashes", crashes, True), ("passes", passes, True)])
    ledger = acceptance.run_all(quick=True)
    assert not ledger["passed"] and ledger["hard_failures"] == ["crashes"]
    crashed, passed = ledger["checks"]
    assert crashed["name"] == "crashes" and not crashed["passed"] and not crashed["soft"]
    assert crashed["error"] == "RuntimeError: boom"
    assert "RuntimeError: boom" in crashed["traceback"]
    assert passed["passed"]
