"""Per-module metrics of the traced run.

``start`` wraps the public functions of every ``sympgt`` module, plus the
``LaurentPoly`` arithmetic, the torus quadrature set-up and the SDE drift,
and attaches the hooks that compute derived counts from the arguments and
results of the wrapped calls.  ``per_layer`` turns the recorded spans into
the metrics listed in ``SPEC``; every name in ``SPEC`` is reported on every
workload, as 0 where the workload does not reach it.
"""
from __future__ import annotations

import math

from ops import WORKLOADS
from tracer import Tracer, public_functions

# Import order: dependencies first, so each module's import time is its own
# plus that of the third-party modules it is the first to import.
MODULES = ["algebra", "combinatorics", "characters", "branching", "berele",
           "dynamics", "spectral", "continuous", "limits", "acceptance", "cli"]

# (function, fields) for metrics read straight from the span aggregates.
FUNCTIONS = [
    ("characters.qwhittaker_pattern_sum", ("calls", "self_s")),
    ("characters.slice_binomials", ("calls", "self_s")),
    ("characters.qwhittaker_recursion", ("calls", "self_s")),
    ("algebra.LaurentPoly.__add__", ("calls", "self_s")),
    ("algebra.LaurentPoly.__mul__", ("calls", "self_s")),
    ("algebra.LaurentPoly.evaluate", ("calls", "self_s")),
    ("algebra.q_binomial", ("calls", "self_s")),
    ("branching.conjecture_checks", ("self_s",)),
    ("berele.process_word", ("calls", "self_s")),
    ("dynamics.step_randomized", ("calls", "self_s")),
    ("dynamics.step_berele", ("calls", "self_s")),
    ("dynamics.randomized_rates", ("calls", "self_s")),
    ("dynamics.R_rate", ("calls",)),
    ("dynamics.sample_initial", ("calls", "self_s")),
    ("dynamics.simulate", ("calls", "self_s")),
    ("dynamics.build_generator", ("self_s",)),
    ("dynamics.shape_rate", ("calls",)),
    ("dynamics.verify_intertwining_randomized", ("self_s",)),
    ("dynamics.verify_intertwining_cascade", ("self_s",)),
    ("spectral.poly_on_grid", ("calls", "self_s")),
    ("spectral.inner_product", ("calls",)),
    ("spectral.law", ("self_s",)),
    ("spectral.contour_moment", ("self_s",)),
    ("spectral.koornwinder_apply", ("calls",)),
    ("spectral.orthogonality_matrix", ("self_s",)),
    ("spectral.gram_schmidt_koornwinder", ("self_s",)),
    ("continuous.phi", ("calls", "self_s")),
    ("continuous.verify_operator_identities", ("self_s",)),
    ("continuous.sde_simulate", ("self_s",)),
    ("continuous.polymer_identity_check", ("self_s",)),
    ("limits.convergence_table", ("self_s",)),
    ("limits.so_whittaker", ("calls", "self_s")),
    ("limits.scaled_qwhittaker", ("calls",)),
]

# Counts computed outside the package from wrapped calls.
DERIVED = [
    ("characters.qwhittaker_recursion.hit_ratio", "ratio", "higher"),
    ("combinatorics.enumerate_patterns.items", "count", "lower"),
    ("combinatorics.interlacings.items", "count", "lower"),
    ("dynamics.simulate.events_per_replica", "events/replica", "lower"),
    ("dynamics.build_generator.states", "count", "lower"),
    ("spectral.TorusQuadrature.init_s", "s", "lower"),
    ("spectral.poly_on_grid.point_terms", "count", "lower"),
    ("spectral.law.states", "count", "lower"),
    ("continuous.sde_simulate.replica_steps", "count", "lower"),
    ("continuous.sde_simulate.flagged", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_OP_PREFIX = {"ledger": "acceptance", "cli": "cli", "api": "api"}


def op_metric(op) -> str:
    return f"{_OP_PREFIX[op.kind]}.{op.id}.s"


def spec() -> list:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for fn, fields in FUNCTIONS:
        for f in fields:
            out.append((f"{fn}.{f}", "count" if f == "calls" else "s", "lower"))
    out += DERIVED
    seen = set()
    for oplist in WORKLOADS.values():
        for op in oplist:
            if op.id not in seen:
                seen.add(op.id)
                out.append((op_metric(op), "s", "lower"))
    out += [(f"import.{m}.s", "s", "lower") for m in MODULES]
    return out


def targets() -> dict:
    import importlib
    from sympgt import algebra, continuous, spectral
    out = {}
    for m in MODULES:
        out.update(public_functions(importlib.import_module(f"sympgt.{m}")))
    for attr in ("__add__", "__mul__", "evaluate"):
        out[f"algebra.LaurentPoly.{attr}"] = (algebra.LaurentPoly, attr)
    out["spectral.TorusQuadrature.__post_init__"] = (spectral.TorusQuadrature, "__post_init__")
    out["continuous._sde_drift"] = continuous._sde_drift
    return out


def start() -> tuple:
    """Install a tracer with the derived-count hooks; return it and the
    counters the hooks fill."""
    from sympgt import characters
    counters = {"replicas": 0, "generator_states": 0, "law_states": 0,
             "point_terms": 0, "flagged": 0,
             "cache_before": len(characters._recursion_cache)}

    def on_simulate(args, kwargs, result):
        counters["replicas"] += (args[0] if args else kwargs["config"]).replicas

    def on_generator(args, kwargs, result):
        counters["generator_states"] += len(result.states)

    def on_law(args, kwargs, result):
        counters["law_states"] += len(result.table)

    def on_poly_on_grid(args, kwargs, result):
        # terms x grid nodes: the point evaluations the term-by-term loop makes
        counters["point_terms"] += len(args[0].terms) * result.size

    def on_sde(args, kwargs, result):
        counters["flagged"] += result["flagged"]

    tracer = Tracer()
    tracer.hooks = {"dynamics.simulate": on_simulate,
                    "dynamics.build_generator": on_generator,
                    "spectral.law": on_law,
                    "spectral.poly_on_grid": on_poly_on_grid,
                    "continuous.sde_simulate": on_sde}
    tracer.install(targets())
    return tracer, counters


def per_layer(tracer: Tracer, counters: dict, results: list, imports: dict) -> dict:
    from sympgt import characters
    m = {}
    for fn, fields in FUNCTIONS:
        calls, self_s, _total = tracer.totals(fn)
        for f in fields:
            m[f"{fn}.{f}"] = calls if f == "calls" else self_s
    rec_calls = tracer.totals("characters.qwhittaker_recursion")[0]
    growth = len(characters._recursion_cache) - counters["cache_before"]
    m["characters.qwhittaker_recursion.hit_ratio"] = (
        (rec_calls - growth) / rec_calls if rec_calls else 0.0)
    m["combinatorics.enumerate_patterns.items"] = tracer.items.get(
        "combinatorics.enumerate_patterns", [0])[0]
    m["combinatorics.interlacings.items"] = tracer.items.get(
        "combinatorics.interlacings", [0])[0]
    steps = sum(tracer.calls_under("dynamics.simulate", f"dynamics.{s}")
                for s in ("step_randomized", "step_berele"))
    m["dynamics.simulate.events_per_replica"] = (
        steps / counters["replicas"] if counters["replicas"] else 0.0)
    m["dynamics.build_generator.states"] = counters["generator_states"]
    m["spectral.TorusQuadrature.init_s"] = tracer.totals(
        "spectral.TorusQuadrature.__post_init__")[2]
    m["spectral.poly_on_grid.point_terms"] = counters["point_terms"]
    m["spectral.law.states"] = counters["law_states"]
    m["continuous.sde_simulate.replica_steps"] = tracer.calls_under(
        "continuous.sde_simulate", "continuous._sde_drift")
    m["continuous.sde_simulate.flagged"] = counters["flagged"]
    by_id = {r["id"]: r["seconds"] for r in results}
    for oplist in WORKLOADS.values():
        for op in oplist:
            m[op_metric(op)] = by_id.get(op.id, 0.0)
    for mod in MODULES:
        m[f"import.{mod}.s"] = imports[mod]
    if not all(math.isfinite(v) for v in m.values()):
        raise ValueError("non-finite per-layer metric")
    return m
