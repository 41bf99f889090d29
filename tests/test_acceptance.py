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
