import pytest

from sympgt import cli
from sympgt.acceptance import check_scaling_limit


def test_scaling_limit_check_passes():
    rep = check_scaling_limit()
    assert rep["passed"] and rep["monotone"]
    assert max(rep["final_errors"].values()) <= 5e-2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "verify", "all", "--quick"])
    assert exc.value.code == 2


def test_crashing_check_is_a_failed_report(monkeypatch):
    from sympgt import acceptance

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
