"""Benchmark of the ``sympgt`` toolkit.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a fixed op list (see ``ops.py``) run in fresh
interpreters with cold caches:

* ``--trace 0`` launches the interpreter several times to time set-up, then
  runs the op list in fresh processes, one pass after another while the
  next pass still fits in ``--seconds`` counted from the start (always at
  least one pass), and reports the end-to-end metrics as medians over
  launches and passes.  Times are in reference seconds (see ``worker.py``);
  the report lines also give them in wall seconds.
* ``--trace 1`` runs one untraced and one traced pass and reports the
  per-module metrics; the tracing overhead is their wall-time difference.

The report goes to stdout, one line per figure, and its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run's full outcome, with every failure's error text, is
also written to ``.perfbench_out/``.  ``--workload all`` runs every
workload untraced and ends with a table of the end-to-end metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact", "markov", "torus")

# The toolkit is single-threaded; without this OpenBLAS starts one thread per
# core inside scipy's expm and the timings depend on the other load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0
SETUP_LAUNCHES = 5

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("passed_share", "share")]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("PYTHONPATH", None)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded its {DEADLINE_S:.0f} s budget")
    return left


def time_setup(deadline: float) -> tuple:
    """Wall and reference seconds from launching an interpreter until it has
    imported every ``sympgt`` module the workloads use."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "setup"], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("{"):
        raise BenchError(f"set-up launch failed with exit code {proc.returncode}")
    return elapsed, elapsed * json.loads(line)["scale"]


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One fresh interpreter running the workload's op list."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "run", workload, str(seed), "1" if traced else "0"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit(), "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), **versions,
            "blas_threads": BLAS_ENV}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def outcome(passes: list) -> tuple:
    """(attempted, failed, failures) over the timed ops of all passes."""
    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if not op["passed"]]
    return len(ops), len(failures), failures


def describe(op: dict) -> str:
    return f"{op['id']}: {op['error'] or op['detail'] or 'oracle failed'}"


def report_outcome(passes: list, say) -> tuple:
    """Print every failed op and each known defect; (attempted, failed)."""
    attempted, failed, failures = outcome(passes)
    for op in failures:
        say(f"FAILED {describe(op)}")
    for op in passes[-1]["known_defects"]:
        state = "passes now" if op["passed"] else "still fails"
        say(f"known defect {state}: {describe(op)}")
    return attempted, failed


def measure(workload: str, seed: int, seconds: int, deadline: float, say) -> dict:
    """Untraced run: set-up launches, then op-list passes, all within
    ``seconds`` except that the first pass always runs."""
    t0 = time.perf_counter()
    setups = [time_setup(deadline) for _ in range(SETUP_LAUNCHES)]
    say("setup launches (wall s, reference s): "
        + ", ".join(f"({w:.4f}, {r:.4f})" for w, r in setups))
    passes = []
    while True:
        t_pass = time.perf_counter()
        p = run_pass(workload, seed, False, deadline)
        passes.append(p)
        bad = sum(not op["passed"] for op in p["ops"])
        say(f"pass {len(passes)}: wall {p['run_s']:.4f} s, reference {p['run_ref_s']:.4f} s "
            f"({p['probes']} probes), {len(p['ops'])} ops, {bad} failed, "
            f"peak {p['peak_rss_mb']:.1f} MB")
        # Start another pass only if one as long as the last still fits.
        now = time.perf_counter()
        last = now - t_pass
        if now + last - t0 > seconds or now + 1.5 * last > deadline:
            break
    attempted, failed = report_outcome(passes, say)
    metrics = {
        "setup_s": statistics.median(r for _w, r in setups),
        "run_s": statistics.median(p["run_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_share": (attempted - failed) / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "wall": {"setup_s": statistics.median(w for w, _r in setups),
                     "run_s": statistics.median(p["run_s"] for p in passes)},
            "setups": setups, "passes": passes}


def trace(workload: str, seed: int, deadline: float, say) -> dict:
    """One untraced pass, then one traced pass; per-module metrics."""
    plain = run_pass(workload, seed, False, deadline)
    traced = run_pass(workload, seed, True, deadline)
    say(f"untraced run_s {plain['run_s']:.4f} s, traced run_s {traced['run_s']:.4f} s")
    layers = dict(traced["layers"])
    layers["trace.run_s"] = traced["run_s"]
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    attempted, failed = report_outcome([plain, traced], say)
    return {"attempted": attempted, "failed": failed, "metrics": layers,
            "passes": [plain, traced]}


def write_out(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sympgt" / "__init__.py").is_file():
        print(f"no sympgt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    def say(text: str) -> None:
        print(text, flush=True)

    if args.workload == "all":
        return run_all(args, say)
    meta = metadata_record(args.workload, args.seed, args.seconds, args.trace)
    say("meta: " + json.dumps(meta))
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            res = trace(args.workload, args.seed, deadline, say)
            unit = {name: u for name, u, _better in layers.spec()}
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline, say)
            unit = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {"meta": meta, **res})
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in res["metrics"].items()}
    if args.trace:
        for k in sorted(metrics):
            say(f"{k:56s} {metrics[k]['value']:.6g} {metrics[k]['unit']}")
    else:
        for k, u in END_TO_END:
            wall = f" (reference; wall {res['wall'][k]:.6g} {u})" if k in res["wall"] else ""
            say(f"{k:14s} {metrics[k]['value']:.6g} {u}{wall}")
        say(f"failed_share   {res['failed']}/{res['attempted']} ops")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(args, say) -> int:
    """Every workload untraced, then one table of the end-to-end metrics."""
    rows = {}
    for w in WORKLOADS:
        say(f"== {w}")
        try:
            res = measure(w, args.seed, args.seconds,
                          time.perf_counter() + DEADLINE_S, say)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        rows[w] = res
    say("setup_s and run_s in reference seconds, wall seconds in brackets")
    say(f"{'workload':9s} {'setup_s (s)':>20s} {'run_s (s)':>20s} "
        f"{'peak_rss_mb (MB)':>17s} {'failed_share':>13s} {'ops':>5s}")
    for w, res in rows.items():
        m, wall = res["metrics"], res["wall"]
        say(f"{w:9s} {m['setup_s']:9.4f} [{wall['setup_s']:8.4f}] "
            f"{m['run_s']:9.4f} [{wall['run_s']:8.4f}] "
            f"{m['peak_rss_mb']:17.1f} {res['failed'] / res['attempted']:13.4f} "
            f"{res['attempted']:5d}")
    print(json.dumps({w: {"attempted": r["attempted"], "failed": r["failed"],
                          "metrics": r["metrics"]} for w, r in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
