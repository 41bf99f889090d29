"""Command-line surface: exact character computations, verification reports,
insertion traces, simulators and limit tables.

Rationals are written ``p/q`` on the command line; flags that genuinely take
floats say so.  Every stochastic subcommand requires ``--seed`` and identical
flags + seed give byte-identical output.  Reports embed the quadrature sizes,
tolerances and seeds that produced them.

Schema ``sympgt-report/2`` replaces ``sympgt-report/1``: ``simulate`` and
``sde`` now advance all replicas as one batch drawn from one Philox stream
per seed, so a seed gives different (equally distributed) samples than it
did under schema 1.  The ``simulate`` report has dropped its ``truncation``
key, and ``simulate`` its ``--truncation`` flag: the simulator reads no
truncation depth.  Bad input (a ``ValueError``) exits with code 2 and a
one-line message on stderr.

Each subcommand has one output, on stdout.  ``simulate``, ``law`` and
``limit`` print a table as CSV: one ``# key,value`` line per report field,
then the header row and the data rows.  ``moments``, ``sde``, ``polymer`` and
``verify`` print a report as indented JSON; ``compute`` and ``berele`` print
text.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

SCHEMA = "sympgt-report/2"


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational p/q, got {s!r}") from exc


def _shape(s: str) -> tuple:
    s = s.strip()
    if s in ("", "origin", "()"):
        return ()
    return tuple(int(x) for x in s.split(","))


def _floats(s: str) -> tuple:
    return tuple(float(x) for x in s.split(","))


def _rationals(s: str) -> tuple:
    return tuple(_rational(x) for x in s.split(","))


def _report(payload: dict) -> None:
    """Print a report as indented JSON; a Fraction prints as its str, p/q."""
    sys.stdout.write(json.dumps(payload, indent=2, default=str) + "\n")


def _table(header: dict, fields: list, rows: list) -> None:
    """Print a table as CSV: a '# key,value' line per header entry, then the
    field names and one line per row tuple."""
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerows([f"# {k}", v] for k, v in header.items())
    w.writerow(fields)
    w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    from .algebra import QSeriesCtx
    from .characters import (qwhittaker_pattern_sum, qwhittaker_recursion,
                             symplectic_schur_tableaux, symplectic_schur_weyl)
    n, lam = args.n, args.lam
    if args.a and len(args.a) != n:
        raise ValueError(f"--a needs one entry per variable, {n} for --n {n}, got {len(args.a)}")
    if args.a and 0 in args.a:
        raise ValueError(f"--a entries must be nonzero, got {','.join(map(str, args.a))}: "
                         "the characters are Laurent polynomials in a")
    if args.family == "schur":
        method = args.method or "tableaux"
        if method == "weyl":
            if not args.a:
                raise ValueError("--method weyl needs --a, the point of the Weyl formula")
            print(symplectic_schur_weyl(n, lam, args.a))
            return 0
        if method == "recursion":
            raise ValueError("--method recursion does not apply to schur; "
                             "use weyl, tableaux or patterns")
        # the pattern form is the pattern character at q = 0
        poly = (symplectic_schur_tableaux(n, lam) if method == "tableaux"
                else qwhittaker_pattern_sum(2 * n, lam, QSeriesCtx(0)))
    else:
        if args.q is None:
            raise ValueError("qwhittaker needs --q")
        ctx = QSeriesCtx(args.q)
        method = args.method or "recursion"
        if method == "patterns":
            poly = qwhittaker_pattern_sum(2 * n, lam, ctx)
        elif method == "recursion":
            poly = qwhittaker_recursion(n, lam, ctx)
        else:
            raise ValueError(f"--method {method} does not apply to qwhittaker; "
                             "use recursion or patterns")
    print(poly.evaluate(args.a) if args.a else poly.canonical())
    return 0


def _cmd_berele(args) -> int:
    from .berele import process_word
    from .combinatorics import letter_str
    rec = process_word(args.word, args.n)
    words = rec.word
    if args.trace:
        for letter, P, shape in zip(words, rec.tableaux[1:], rec.shapes[1:]):
            print(f"after {letter_str(letter)}:  shape {shape}")
            for row in P.rows:
                print("  " + " ".join(letter_str(x) for x in row))
    print("word:   " + " ".join(letter_str(x) for x in words))
    print("shapes: " + " -> ".join(str(s) for s in rec.shapes))
    print("tableau:")
    for row in rec.tableau.rows:
        print("  " + " ".join(letter_str(x) for x in row))
    return 0


def _cmd_simulate(args) -> int:
    from .dynamics import SimConfig, simulate
    cfg = SimConfig(args.model, args.N, args.a, args.q, args.t,
                    args.replicas, args.seed, start=args.start)
    hist = simulate(cfg)
    total = sum(hist.values())
    rows = [(",".join(map(str, z)) or "0", c, c / total) for z, c in sorted(hist.items())]
    _table({"schema": SCHEMA, "model": args.model, "N": args.N,
            "a": list(args.a), "q": args.q, "t": args.t,
            "replicas": args.replicas, "seed": args.seed},
           ["shape", "count", "frequency"], rows)
    return 0


def _cmd_law(args) -> int:
    from .spectral import law
    lt = law(args.n, args.t, args.a, args.q, args.window)
    rows = [(",".join(map(str, z)) or "0", p) for z, p in sorted(lt.table.items())]
    _table({"schema": SCHEMA, "n": args.n, "t": args.t, "a": list(args.a),
            "q": args.q, "window": args.window, **lt.stats},
           ["shape", "probability"], rows)
    return 0


def _cmd_moments(args) -> int:
    from .spectral import moments
    reps = {str(k): moments(args.n, k, args.t, args.a, args.q, window=args.window)
            for k in args.k}
    _report({"schema": SCHEMA, "n": args.n, "t": args.t, "a": list(args.a),
             "q": args.q, "window": args.window, "moments": reps})
    return 0


def _cmd_limit(args) -> int:
    from .limits import convergence_table
    n, xs = args.n, args.x
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    if len(xs) % n:
        raise ValueError(f"--x takes points of {n} coordinates each, "
                         f"but got {len(xs)} numbers")
    points = xs if n == 1 else [xs[i:i + n] for i in range(0, len(xs), n)]
    rows = [(r["x"], r["eps"], float(r["value"].real), float(r["value"].imag),
             r["target"], r["abs_error"], r["snap"])
            for r in convergence_table(n, args.lam, points, args.eps)]
    _table({"schema": SCHEMA, "n": args.n, "lambda": list(args.lam)},
           ["x", "eps", "value_re", "value_im", "target", "abs_error", "snap"], rows)
    return 0


def _cmd_sde(args) -> int:
    import numpy as np
    from .combinatorics import level_len
    from .continuous import sde_simulate, wedge_start
    x0 = wedge_start(args.N)
    if args.start:
        sizes = [level_len(k) for k in range(1, args.N + 1)]
        if len(args.start) != sum(sizes):
            raise ValueError(f"--start takes {sum(sizes)} coordinates for --N {args.N} "
                             f"(levels 1..{args.N} of sizes {','.join(map(str, sizes))}), "
                             f"but got {len(args.start)}")
        ends = np.cumsum(sizes)
        x0 = [np.array(args.start[e - l:e]) for l, e in zip(sizes, ends)]
    rep = sde_simulate(args.N, args.lam, x0, args.t, args.h,
                       args.replicas, args.seed)
    bottom = rep["bottom"]
    _report({"schema": SCHEMA, "N": args.N, "lambda": list(args.lam),
             "t": args.t, "h": args.h, "replicas": args.replicas,
             "seed": args.seed, "flagged": rep["flagged"],
             "bottom_mean": [float(v) for v in np.mean(bottom, axis=0)],
             "bottom_std": [float(v) for v in np.std(bottom, axis=0)]})
    return 0


def _cmd_polymer(args) -> int:
    from .continuous import polymer_identity_check
    rep = polymer_identity_check(args.N, args.lam, args.t,
                                 replicas=args.replicas, seed=args.seed)
    _report({"schema": SCHEMA, "N": args.N, "lambda": list(args.lam),
             "t": args.t, "seed": args.seed, **rep})
    return 0


def _cmd_verify(args) -> int:
    if args.what == "all":
        from .acceptance import run_all
        ledger = run_all(quick=args.quick)
        _report({"schema": SCHEMA, **ledger})
        return 0 if ledger["passed"] else 1

    if args.what == "branching":
        from .algebra import QSeriesCtx
        from .branching import BranchingPair, conjecture_checks
        pair = BranchingPair(args.n or max(len(args.lam), len(args.nu) + 1), args.lam, args.nu)
        rep = conjecture_checks(pair, QSeriesCtx(args.q), t0_ladder=args.t0_ladder)
        _report({"schema": SCHEMA, "lambda": list(args.lam), "nu": list(args.nu),
                 "q": args.q, "t0_ladder": args.t0_ladder, **rep})
        return 0

    if args.what == "orthogonality":
        import numpy as np
        from .combinatorics import canon, partitions_max_weight
        from .spectral import orthogonality_matrix
        shapes = sorted({canon(z) for z in partitions_max_weight(args.n, args.max_weight)})
        m = orthogonality_matrix(args.n, shapes, args.q)
        dev = float(np.abs(m - np.eye(len(shapes))).max())
        _report({"schema": SCHEMA, "n": args.n, "q": args.q,
                 "max_weight": args.max_weight, "shapes": shapes,
                 "max_deviation_from_identity": dev})
        return 0

    # continuous
    from .continuous import kernel_identity_residuals, phi2_bessel_errors, phi_eigen_residuals
    if args.which == "kernels":
        rep = {"rank1": kernel_identity_residuals(1, args.theta),
               "rank2": kernel_identity_residuals(2, args.theta)}
    elif args.which == "eigen":
        rep = {"eigen_residuals": phi_eigen_residuals(args.theta)}
    else:
        rep = {"closed_form_relative_errors": phi2_bessel_errors(args.theta)}
    _report({"schema": SCHEMA, "which": args.which, "theta": args.theta, **rep})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sympgt", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compute", help="exact character computations")
    p.add_argument("family", choices=["schur", "qwhittaker"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_shape, required=True)
    p.add_argument("--q", type=_rational)
    p.add_argument("--a", type=_rationals, help="rational evaluation point a1,a2,...")
    p.add_argument("--method", choices=["weyl", "tableaux", "patterns", "recursion"])
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("berele", help="insertion of a word, with shape path")
    p.add_argument("--word", required=True, help='e.g. "3~ 2 1~ 3~ 1 2 1"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_berele)

    p = sub.add_parser("simulate", help="pattern dynamics, histogram of the bottom shape")
    p.add_argument("--model", choices=["berele", "randomized"], required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=_floats, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=_shape, default=())
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("law", help="bottom-shape law: the exact torus integral at rank 1, "
                                   "the shape-chain generator's row above")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--a", type=_floats, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--window", type=int, default=40)
    p.set_defaults(fn=_cmd_law)

    p = sub.add_parser("moments", help="q-moments by three routes")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=(1, 2))
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--a", type=_floats, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--window", type=int, default=40)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("limit", help="scaled-character convergence table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_floats, required=True)
    p.add_argument("--x", type=_floats, required=True,
                   help="points, n numbers each: with --n 2, '0,-1,1,0' is (0,-1), (1,0)")
    p.add_argument("--eps", type=_floats, required=True)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("sde", help="interacting diffusions in the wall wedge")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_floats, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=_floats, default=(),
                   help="start coordinates, level 1 first, level k holding ceil(k/2); "
                        "default: a wedge near minus infinity")
    p.set_defaults(fn=_cmd_sde)

    p = sub.add_parser("polymer", help="partition-function identity check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_floats, default=(0.9, 0.4))
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_polymer)

    p = sub.add_parser("verify", help="verification reports and the full gate")
    vsub = p.add_subparsers(dest="what", required=True)

    v = vsub.add_parser("branching")
    v.add_argument("--lambda", dest="lam", type=_shape, required=True)
    v.add_argument("--nu", type=_shape, required=True)
    v.add_argument("--n", type=int)
    v.add_argument("--q", type=_rational, required=True)
    v.add_argument("--t0-ladder", dest="t0_ladder", type=_rationals, default=())
    v.set_defaults(fn=_cmd_verify)

    v = vsub.add_parser("orthogonality")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--q", type=float, required=True)
    v.add_argument("--max-weight", type=int, default=4)
    v.set_defaults(fn=_cmd_verify)

    v = vsub.add_parser("continuous")
    v.add_argument("--which", choices=["kernels", "eigen", "phi2"], required=True)
    v.add_argument("--theta", type=float, default=0.8,
                   help="drift/index parameter of the kernels")
    v.set_defaults(fn=_cmd_verify)

    v = vsub.add_parser("all")
    v.add_argument("--quick", action="store_true",
                   help="run the fast subset of the gate")
    v.set_defaults(fn=_cmd_verify)

    return top


def _glue_negative_lists(argv):
    """Let a flag's value start with a minus sign ('--x -1,0,1,2', '--q -1/2')
    by gluing the value onto its flag before argparse sees it."""
    import re
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (re.fullmatch(r"--\w[\w-]*", tok) and i + 1 < len(argv)
                and re.fullmatch(r"-[0-9][0-9.,/eE+-]*", argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_glue_negative_lists(argv))
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no flag
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.fn(args)
    except ValueError as exc:
        print(f"sympgt {args.cmd}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
