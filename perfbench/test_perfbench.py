"""Self-tests of the benchmark's own parts.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def _crash(seed):
    raise ZeroDivisionError("boom")


def test_crashing_op_is_counted_and_does_not_stop_the_run(monkeypatch):
    fake = [ops.Op("crash", "api", _crash), ops.Op("fine", "api", lambda seed: (True, "ok")),
            ops.Op("wrong", "api", lambda seed: (False, "oracle")),
            ops.Op("defect", "api", _crash, known_defect=True)]
    monkeypatch.setitem(ops.WORKLOADS, "fake", fake)
    out = worker.run_workload("fake", 3, traced=False)
    assert [o["id"] for o in out["ops"]] == ["crash", "fine", "wrong"]
    assert out["ops"][0]["error"] == "ZeroDivisionError: boom"
    assert [o["passed"] for o in out["ops"]] == [False, True, False]
    assert out["known_defects"][0]["error"] == "ZeroDivisionError: boom"
    attempted, failed, failures = run.outcome([out, out])
    assert (attempted, failed) == (6, 4)
    assert run.describe(failures[0]) == "crash: ZeroDivisionError: boom"


def _bindings() -> dict:
    owners = [m for n, m in sys.modules.items() if n.startswith("sympgt")]
    from sympgt.algebra import LaurentPoly
    from sympgt.spectral import TorusQuadrature
    owners += [LaurentPoly, TorusQuadrature]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_rebinds_every_alias_and_restores_them():
    worker.import_modules()
    from sympgt import acceptance, algebra, characters, dynamics
    before = _bindings()
    original = characters.qwhittaker_pattern_sum
    tracer, _probe = layers.start()
    try:
        wrapped = characters.qwhittaker_pattern_sum
        assert wrapped is not original
        assert dynamics.qwhittaker_pattern_sum is wrapped
        assert acceptance.qwhittaker_pattern_sum is wrapped
        assert algebra.LaurentPoly.__radd__ is algebra.LaurentPoly.__add__
        ctx = algebra.QSeriesCtx(0.5)
        p = characters.qwhittaker_recursion(2, (1,), ctx)
        assert (p + p).evaluate((1.5, 2.0)) == 2 * p.evaluate((1.5, 2.0))
        assert tracer.totals("characters.qwhittaker_recursion")[0] >= 1
        assert tracer.totals("algebra.LaurentPoly.__add__")[0] >= 1
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fakepkg.m")
    exec("def child():\n    return 1\n\n"
         "def parent():\n    return child() + child()\n", mod.__dict__)
    child, parent = mod.child, mod.parent
    sys.modules["fakepkg.m"] = mod
    try:
        tracer.install({"m.child": child, "m.parent": parent}, package="fakepkg")
        with tracer.span("op.x"):                   # clock 0 .. 7
            assert mod.parent() == 2                # 1 .. 6, children 2 .. 3 and 4 .. 5
    finally:
        tracer.uninstall()
        del sys.modules["fakepkg.m"]
    assert mod.parent is parent and mod.child is child
    assert tracer.agg[("m.parent", "m.child")] == [2, 2.0, 2.0]
    assert tracer.agg[("op.x", "m.parent")] == [1, 5.0, 3.0]
    assert tracer.agg[("", "op.x")] == [1, 7.0, 2.0]
    assert tracer.spans == [("op.x", 0.0, 7.0, "")]
    assert tracer.totals("m.child") == (2, 2.0, 2.0)


def test_generator_functions_are_counted_not_timed():
    tracer = Tracer()

    def gen(n):
        yield from range(n)

    wrapped = tracer.wrapper_for("m.gen", gen)
    assert list(wrapped(4)) + list(wrapped(2)) == [0, 1, 2, 3, 0, 1]
    assert tracer.items["m.gen"] == [6]
    assert tracer.agg == {}


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(ops.WORKLOADS) == sorted(run.WORKLOADS)


def test_csv_report_parsing():
    text = "# schema,sympgt-report/1\n# mass_defect,1e-9\nshape,probability\n0,0.5\n1,0.5\n"
    header, rows = ops.parse_csv_report(text)
    assert header["mass_defect"] == "1e-9"
    assert [r["shape"] for r in rows] == ["0", "1"]


def test_cli_nonzero_exit_is_an_error():
    worker.import_modules()
    with pytest.raises(RuntimeError, match="exited with 2"):
        ops.run_cli(["law", "--n", "x"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
