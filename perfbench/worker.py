"""One workload process: import the package, run one workload's op list,
print one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run <workload> <seed> <trace 0|1>

``setup`` imports every module the workloads use, prints the speed probe's
scale and exits; the parent times it from launch.  ``run`` runs the timed
ops in order, then the known-defect ops outside the timed region, and
prints the ops' outcomes, the wall and reference time of the timed ops, the
peak resident memory and, when traced, the per-module metrics.  Each pass
is a fresh interpreter, so caches start cold.
"""
from __future__ import annotations

import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
import ops

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# On a shared machine the speed of the same code drifts by up to a half over
# minutes.  A fixed interpreter-bound loop, timed every PROBE_PERIOD_S from a
# timer signal while the measured code runs, tracks that drift; the reported
# times are wall times rescaled to a machine on which the loop takes
# REF_PROBE_S ("reference seconds").  The loop makes no container objects, so
# it never triggers the garbage collector and its time does not depend on
# the program's heap.
PROBE_PERIOD_S = 0.1
REF_PROBE_S = 0.001


def probe_loop() -> int:
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + i) % 2147483648
    return x


class SpeedProbe:
    """Samples the probe loop's time at enter, at exit and on every timer
    tick in between, so long ops are covered evenly."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def scale(self) -> float:
        """Reference seconds per wall second."""
        return REF_PROBE_S / statistics.fmean(self.samples)


def import_modules() -> dict:
    import importlib
    seconds = {}
    for name in layers.MODULES:
        t0 = time.perf_counter()
        importlib.import_module(f"sympgt.{name}")
        seconds[name] = time.perf_counter() - t0
    return seconds


def run_op(op, seed: int, tracer=None) -> dict:
    """Run one op; a raised exception is a failed op with its error text and
    does not stop the ops after it."""
    span = tracer.span(f"op.{op.id}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            passed, detail = op.fn(seed)
        error = ""
    except Exception as exc:  # noqa: BLE001 - op boundary, reported below
        passed, detail, error = False, "", f"{type(exc).__name__}: {exc}"
    return {"id": op.id, "kind": op.kind, "passed": bool(passed), "detail": detail,
            "error": error, "seconds": time.perf_counter() - t0}


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    imports = import_modules()
    oplist = ops.WORKLOADS[workload]
    tracer = counters = None
    if traced:
        tracer, counters = layers.start()
    try:
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            results = [run_op(op, seed, tracer) for op in oplist if not op.known_defect]
            run_s = time.perf_counter() - t0
        defects = [run_op(op, seed, tracer) for op in oplist if op.known_defect]
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"workload": workload, "seed": seed, "traced": traced, "run_s": run_s,
           "run_ref_s": run_s * probe.scale, "probes": len(probe.samples),
           "imports": imports, "ops": results, "known_defects": defects}
    if tracer is not None:
        out["layers"] = layers.per_layer(tracer, counters, results + defects, imports)
        out["trace"] = tracer.dump()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        with SpeedProbe() as probe:
            import_modules()
        print(json.dumps({"scale": probe.scale}), flush=True)
        return 0
    if len(argv) == 4 and argv[0] == "run":
        out = run_workload(argv[1], int(argv[2]), argv[3] == "1")
        sys.stdout.write(json.dumps(out) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
