"""Op lists of the three workloads, each op with its own correctness oracle.

An op is one ledger check run by name, one ``cli.main([...])`` call (or a
pair of them), or one public API call.  Every op is a function of the
workload seed returning ``(passed, detail)``; an op that raises is a failed
op, recorded with its error text by the runner.  Nothing here edits the
package: ops call it only through its public functions.

Known defects are ops that fail on the current code.  They stay listed so
that the defect shows in every report, but they run after the timed ops and
are kept out of ``attempted``/``failed`` and out of ``run_s``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Op:
    id: str
    kind: str                       # "ledger" | "cli" | "api"
    fn: Callable[[int], tuple]      # seed -> (passed, detail)
    known_defect: bool = False


# ---------------------------------------------------------------------------
# helpers shared by the oracles
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> str:
    """Run ``sympgt <argv>`` in-process; return its stdout.  A nonzero exit
    code, including an argparse ``SystemExit``, raises ``RuntimeError``."""
    from sympgt import cli
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code not in (0, None):
        raise RuntimeError(f"sympgt {' '.join(argv)} exited with {code!r}")
    return out.getvalue()


def parse_csv_report(text: str) -> tuple:
    """Split a CSV report into its ``# key`` header and its data rows."""
    header, rows, fields = {}, [], None
    for rec in csv.reader(io.StringIO(text)):
        if rec and rec[0].startswith("# "):
            header[rec[0][2:]] = rec[1]
        elif fields is None:
            fields = rec
        else:
            rows.append(dict(zip(fields, rec)))
    if fields is None:
        raise ValueError("CSV report has no field row")
    return header, rows


def ledger(name: str) -> Callable[[int], tuple]:
    """Run one acceptance check by its registry name; its oracle is the
    report's own ``passed``."""
    def run(seed: int) -> tuple:
        from sympgt import acceptance
        for nm, fn, _quick in acceptance.REGISTRY:
            if nm == name:
                # Call through the module attribute so that a traced run sees
                # the check as a span of its own.
                rep = getattr(acceptance, fn.__name__)()
                return bool(rep["passed"]), ""
        raise KeyError(f"no ledger check named {name!r}")
    return run


# ---------------------------------------------------------------------------
# exact: Fraction characters and pattern enumeration, no grids, no RNG
# ---------------------------------------------------------------------------

def generator_rows(seed: int) -> tuple:
    """Every non-boundary row of the exact shape-chain generator sums to 0."""
    from sympgt.algebra import QSeriesCtx
    from sympgt.dynamics import build_generator
    gen = build_generator(4, 10, QSeriesCtx(Fraction(1, 2)),
                          (Fraction(6, 5), Fraction(3, 7)))
    interior = [i for i, b in enumerate(gen.boundary) if not b]
    bad = [gen.states[i] for i in interior
           if sum(gen.rows[i].values()) + gen.diagonal[i] != 0]
    ok = len(gen.states) == 66 and len(interior) == 55 and not bad
    return ok, f"{len(gen.states)} states, {len(interior)} interior rows, {len(bad)} nonzero"


def compute_two_methods(seed: int) -> tuple:
    base = ["compute", "qwhittaker", "--n", "3", "--lambda", "3,2,1", "--q", "1/3"]
    patterns = run_cli(base + ["--method", "patterns"])
    recursion = run_cli(base + ["--method", "recursion"])
    ok = bool(patterns.strip()) and patterns == recursion
    return ok, "" if ok else "patterns and recursion disagree"


def berele_trace(seed: int) -> tuple:
    text = run_cli(["berele", "--word", "3~ 2 1~ 3~ 1 2 1", "--n", "3", "--trace"])
    lines = text.splitlines()
    steps = [ln for ln in lines if ln.startswith("after ")]
    shapes = next(ln for ln in lines if ln.startswith("shapes: "))
    path = [tuple(int(x) for x in s.strip(" ()").split(",") if x.strip())
            for s in shapes[len("shapes: "):].split(" -> ")]
    ok = len(steps) == 7 and len(path) == 8 and path[0] == () and path[-1] == (2, 2, 1)
    return ok, f"{len(steps)} steps, final shape {path[-1]}"


def verify_branching(seed: int) -> tuple:
    rep = json.loads(run_cli(["verify", "branching", "--lambda", "4,3,1",
                              "--nu", "4", "--q", "2/5"]))
    ok = rep.get("leading_term") is True and rep["lambda"] == [4, 3, 1]
    return ok, f"leading_term={rep.get('leading_term')}"


# ---------------------------------------------------------------------------
# markov: per-event stepping and per-replica SDE substeps
# ---------------------------------------------------------------------------

REPLICAS = 2000
_SIM_FLAGS = ["--N", "3", "--a", "1,1", "--q", "0.5", "--t", "1",
              "--replicas", str(REPLICAS)]
_first_randomized: dict = {}      # seed -> output of the first randomized run


def _histogram_total(text: str) -> int:
    _header, rows = parse_csv_report(text)
    return sum(int(r["count"]) for r in rows)


def simulate_randomized(seed: int) -> tuple:
    text = run_cli(["simulate", "--model", "randomized", *_SIM_FLAGS, "--seed", str(seed)])
    _first_randomized[seed] = text
    total = _histogram_total(text)
    return total == REPLICAS, f"counts sum to {total}"


def simulate_randomized_rerun(seed: int) -> tuple:
    text = run_cli(["simulate", "--model", "randomized", *_SIM_FLAGS, "--seed", str(seed)])
    same = text == _first_randomized.get(seed)
    total = _histogram_total(text)
    return same and total == REPLICAS, f"byte-identical={same}, counts sum to {total}"


def simulate_berele(seed: int) -> tuple:
    flags = ["--N", "4"] + _SIM_FLAGS[2:]
    total = _histogram_total(run_cli(["simulate", "--model", "berele", *flags,
                                      "--seed", str(seed)]))
    return total == REPLICAS, f"counts sum to {total}"


def sde(seed: int) -> tuple:
    rep = json.loads(run_cli(["sde", "--N", "2", "--lambda", "0.9", "--t", "1",
                              "--replicas", "50", "--seed", str(seed)]))
    flagged = rep["flagged"]
    ok = (isinstance(flagged, int) and 0 <= flagged < 50
          and all(math.isfinite(v) for v in rep["bottom_mean"]))
    return ok, f"flagged={flagged}"


# ---------------------------------------------------------------------------
# torus: grid quadrature, contour moments, kernel quadrature, no RNG
# ---------------------------------------------------------------------------

def law_cli(n: int, t: str, a: str, q: str, window=None) -> Callable[[int], tuple]:
    """``sympgt law``; its probabilities plus the mass defect sum to 1."""
    argv = ["law", "--n", str(n), "--t", t, "--a", a, "--q", q]
    if window is not None:
        argv += ["--window", str(window)]

    def run(seed: int) -> tuple:
        header, rows = parse_csv_report(run_cli(argv))
        mass = sum(float(r["probability"]) for r in rows)
        defect = float(header["mass_defect"])
        ok = bool(rows) and abs(mass + defect - 1.0) <= 1e-6
        return ok, f"{len(rows)} states, mass {mass:.9f}, defect {defect:.2e}"
    return run


def limit_n2_cli(seed: int) -> tuple:
    _header, rows = parse_csv_report(run_cli(
        ["limit", "--n", "2", "--lambda", "0.7,0.3", "--x", "0,-1", "--eps", "0.1"]))
    return bool(rows), f"{len(rows)} rows"


def verify_phi2(seed: int) -> tuple:
    rep = json.loads(run_cli(["verify", "continuous", "--which", "phi2"]))
    errs = rep["closed_form_relative_errors"]
    worst = max(errs.values())
    return len(errs) == 11 and worst <= 1e-6, f"worst relative error {worst:.2e}"


def convergence_rank1(seed: int) -> tuple:
    """The scaling-limit ledger check's own computation and gate, with the
    shape passed as a sequence as ``convergence_table`` requires."""
    from sympgt.limits import convergence_table
    rows = convergence_table(1, (0.7,), [-1.0, 0.0, 1.0, 2.0], [0.1, 0.05, 0.02])
    by_x: dict = {}
    for r in rows:
        by_x.setdefault(r["x"], []).append(r["abs_error"])
    monotone = all(all(a > b for a, b in zip(e, e[1:])) for e in by_x.values())
    final = max(e[-1] for e in by_x.values())
    return monotone and final <= 5e-2, f"monotone={monotone}, final error {final:.2e}"


def convergence_rank2(seed: int) -> tuple:
    """The ``limit --n 2`` table with ``x`` given as a pair."""
    from sympgt.limits import convergence_table
    rows = convergence_table(2, (0.7, 0.3), [(0.0, -1.0)], [0.1])
    ok = len(rows) == 1 and all(math.isfinite(r["abs_error"]) for r in rows)
    return ok, f"abs error {rows[0]['abs_error']:.2e}"


WORKLOADS = {
    "exact": [
        Op("character-routes", "ledger", ledger("character-routes")),
        Op("two-route-equality", "ledger", ledger("two-route-equality")),
        Op("q-zero-degeneration", "ledger", ledger("q-zero-degeneration")),
        Op("pieri-identity", "ledger", ledger("pieri-identity")),
        Op("branching-limit", "ledger", ledger("branching-limit")),
        Op("insertion", "ledger", ledger("insertion")),
        Op("intertwining", "ledger", ledger("intertwining")),
        Op("build-generator", "api", generator_rows),
        Op("compute-qwhittaker", "cli", compute_two_methods),
        Op("berele-trace", "cli", berele_trace),
        Op("verify-branching", "cli", verify_branching),
    ],
    "markov": [
        Op("simulation-vs-law", "ledger", ledger("simulation-vs-law")),
        Op("polymer-identity", "ledger", ledger("polymer-identity")),
        Op("simulate-randomized", "cli", simulate_randomized),
        Op("simulate-randomized-rerun", "cli", simulate_randomized_rerun),
        Op("simulate-berele", "cli", simulate_berele),
        Op("sde", "cli", sde),
    ],
    "torus": [
        Op("law-n2", "cli", law_cli(2, "0.25", "1,1", "0.5", 8)),
        Op("moments-three-way", "ledger", ledger("moments-three-way")),
        Op("orthogonality", "ledger", ledger("orthogonality")),
        Op("koornwinder-eigenrelation", "ledger", ledger("koornwinder-eigenrelation")),
        Op("orthogonality-conjecture", "ledger", ledger("orthogonality-conjecture")),
        Op("continuous-kernels", "ledger", ledger("continuous-kernels")),
        Op("law-n1-window40", "cli", law_cli(1, "2", "1", "0.5", 40)),
        Op("verify-continuous-phi2", "cli", verify_phi2),
        Op("convergence-table-n1", "api", convergence_rank1),
        Op("convergence-table-n2", "api", convergence_rank2),
        Op("scaling-limit", "ledger", ledger("scaling-limit"), known_defect=True),
        Op("law-n1-q09", "cli", law_cli(1, "1", "1", "0.9"), known_defect=True),
        Op("limit-n2", "cli", limit_n2_cli, known_defect=True),
    ],
}
