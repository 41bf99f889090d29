"""Steadiness evidence: repeat the untraced benchmark over several seeds and
report, for each workload and end-to-end metric, the median, the quartiles
and the spread (Q3 - Q1) / median next to the metric's bound.

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/steadiness.py --seeds 5 --workloads markov \\
        --compare perfbench/baseline.json --out .perfbench_out/markov5.json

Quartiles are ``statistics.quantiles(values, n=4)``.  The same figures are
given for the wall-clock set-up and run times, for comparison.  With
``--compare`` each median is also given as a share of the stored median,
worse-side positive, to show whether two sets of runs agree within the
bounds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["meta"], result["wall"] = record["meta"], record["wall"]
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--compare", type=Path, help="earlier output of this script")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seeds = list(range(1, args.seeds + 1))
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        runs = []
        for s in seeds:
            runs.append(one_run(w, s, spec["run_seconds"]))
            m = runs[-1]["metrics"]
            print(f"{w} seed {s}: " + ", ".join(f"{k} {v['value']:.4f}" for k, v in m.items()),
                  flush=True)
        rows = {}
        for name in bounds:
            rows[name] = summarize([r["metrics"][name]["value"] for r in runs])
        wall = {name: summarize([r["wall"][name] for r in runs]) for name in runs[0]["wall"]}
        report.setdefault("meta", {k: v for k, v in runs[0]["meta"].items()
                                   if k not in ("workload", "seed", "trace")})
        report["workloads"][w] = {"attempted": [r["attempted"] for r in runs],
                                  "failed": [r["failed"] for r in runs],
                                  "correct": all(r["correct"] for r in runs),
                                  "metrics": rows, "wall_seconds": wall}
    for w, res in report["workloads"].items():
        for name, row in res["metrics"].items():
            b = bounds[name]
            line = (f"{w:7s} {name:13s} median {row['median']:10.4f} {b['unit']:5s} "
                    f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} "
                    f"spread {row['spread']:.4f} (bound {b['bound']})")
            old = earlier.get(w, {}).get("metrics", {}).get(name)
            if old:
                shift = (row["median"] - old["median"]) / old["median"]
                if b["better"] == "higher":
                    shift = -shift
                line += f" worse-by {shift:+.4f}"
            print(line)
        for name, row in res["wall_seconds"].items():
            print(f"{w:7s} {name:13s} median {row['median']:10.4f} wall  "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread {row['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
