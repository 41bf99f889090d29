"""Every line of the numerical modules runs under the ledger and the benchmark ops.

A fresh interpreter (``python tests/test_line_reachability.py OUT``) runs
``acceptance.run_all()`` and then every op of ``perfbench/ops.py``, imported
by path and left as it is, under ``sys.settrace`` and ``threading.settrace``,
and writes the lines of ``src/sympgt`` that ran to OUT.  A line that never
ran counts when it holds code of a function body and is not part of a
``raise`` statement or the header of a handler that only raises.  Those lines must be exactly ``ALLOWED``, keyed by
(module, function, stripped source line) so that an edit elsewhere in a
file leaves the keys as they are (two lines of the same text in one
function share a key); each entry names why it does not run.
``cli.py`` is left out, since the smoke tests in ``test_cli.py`` run its
handlers.  A fresh interpreter keeps the caches that other tests fill from
hiding a line.
"""
import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sympgt"
SEED = 1

ITEM_1 = "ROADMAP item 1: no ledger check runs the direct moment route at rank >= 2"
ITEM_3 = "ROADMAP item 3: no ledger identity runs the SDE's interior drift or grad_log_phi"
ITEM_7 = "ROADMAP item 7: kept for the ledger check of the q = 0 cascade"
ITEM_13 = "ROADMAP item 13: reached only by tests, or by a CLI route that no op runs"
SCALAR_ADD = ("kept: a scalar plus a polynomial (sum() starts from 0) goes through "
              "__radd__, which is __add__, as perfbench's self-test asserts")
REPR = "kept: pytest prints these when an assertion about the object fails"
DATA = "data-dependent: no input of the ledger or the ops takes this branch"

_ALLOWED_LINES = {
    ITEM_1: {
        "dynamics.ShapeLaw.mean": [
            "return sum(f(z) * p for z, p in self.table.items())",
        ],
        "spectral.moments": [
            "direct = law(n, t, a, q, window).mean(lambda z: q ** (-k * part(z, 1)))",
            "q ** (-k * window)",
            # the operator route's "try:" runs, the rank >= 2 direct route's does not
            "try:",
        ],
    },
    ITEM_3: {
        "continuous._sde_drift": [
            "- np.exp(x[..., m] - below[..., m - 1]))",
            "d[..., m] += (np.exp(below[..., m] - x[..., m])",
            "d[..., m] += np.exp(-x[..., m]) - np.exp(x[..., m] - below[..., m - 1])",
            "if k % 2 == 1 and m == l - 1:",
        ],
        "continuous.grad_log_phi": [
            "f = lambda xv: log_phi(N, lam, xv)",
            "f0 = f(x)",
            "return np.array([central_derivatives(f, x, i, f0)[0] for i in range(len(x))])",
            "x = _phi_point(N, lam, x)",
        ],
    },
    ITEM_7: {
        "characters.cauchy_identity_check": [
            "* schur_typeA(n, mu).evaluate(tuple(b))",
            "for i in range(n):",
            "for j in range(i + 1, n):",
            "for j in range(n):",
            "for mu in partitions_max_weight(n, M):",
            "lhs = lhs * (1 - b[i] * b[j])",
            "lhs = lhs / ((1 - b[i] * a[j]) * (1 - b[i] / a[j]))",
            "lhs: Scalar = 1",
            "return abs(float(lhs - rhs))",
            "rhs = rhs + symplectic_schur_tableaux(n, mu).evaluate(tuple(a)) \\",
            "rhs: Scalar = 0",
        ],
        "characters.schur_typeA": [
            "return LaurentPoly(N, terms())",
        ],
        "characters.schur_typeA.terms": [
            "def terms():",
            "for levels in enumerate_patterns_typeA(z, N):",
            "sizes = [0] + [sum(lv) for lv in levels]",
            "yield tuple(sizes[k] - sizes[k - 1] for k in range(1, N + 1)), 1",
        ],
        "combinatorics.enumerate_patterns_typeA": [
            "for levels in _chains(padded(shape, N), range(N - 1, 0, -1)):",
            "yield list(levels)",
        ],
        "combinatorics.pattern_to_tableau": [
            "for i in range(len(lv)):",
            "for j in range(lo, lv[i]):",
            "for k, lv in enumerate(p.levels, start=1):",
            "lo = part(prev, i + 1)",
            "p.validate()",
            "prev = lv",
            "prev: tuple = ()",
            "return SymplecticTableau([r for r in rows if r])",
            "rows = [[0] * r for r in shape]",
            "rows[i][j] = k",
            "shape = p.levels[-1]",
        ],
        "combinatorics.tableau_to_pattern": [
            "T.validate(n)",
            "counts = [sum(1 for x in row if x <= k) for row in T.rows]",
            "for k in range(1, 2 * n + 1):",
            "levels = []",
            "levels.append(padded(canon(tuple(c for c in counts if c)), level_len(k)))",
            "return GTPattern(levels)",
        ],
    },
    ITEM_13: {
        "characters.qwhittaker_pattern_sum.walk": [
            "leaves.append((tuple(exps), math.prod(path)))",
        ],
    },
    SCALAR_ADD: {
        "algebra.LaurentPoly.__add__": [
            "other = LaurentPoly.constant(self.nvars, other)",
        ],
    },
    REPR: {
        "algebra.LaurentPoly.__repr__": [
            'return f"LaurentPoly({self.nvars}, {self.canonical()!r})"',
        ],
        "combinatorics.GTPattern.__repr__": [
            'return f"GTPattern({list(map(list, self.levels))})"',
        ],
        "combinatorics.SymplecticTableau.__repr__": [
            'return f"SymplecticTableau({list(map(list, self.rows))})"',
        ],
    },
    DATA: {
        # a check that raises becomes a failed report (test_acceptance crashes one)
        "acceptance._run_check": [
            '"error": f"{type(exc).__name__}: {exc}",',
            '"seconds": round(time.time() - t0, 3),',
            '"traceback": traceback.format_exc()}',
            "except Exception as exc:  # noqa: BLE001 - ledger boundary, reported",
            'return {"name": name, "passed": False,',
        ],
        "acceptance.check_branching_limit": [
            "continue",
            "except ValueError:",
            "leading_ok = False",
        ],
        # the failure lists of the ledger checks fill only when an identity fails
        "acceptance.check_character_routes": [
            "failures.append((n, lam, a))",
        ],
        "acceptance.check_koornwinder_eigenrelation": [
            "failures.append((n, lam, rel))",
        ],
        "acceptance.check_pieri_identity": [
            "failures.append((n, z, a))",
        ],
        "acceptance.check_q_zero_degeneration": [
            "failures.append((n, lam))",
        ],
        "acceptance.check_two_route_equality": [
            "failures.append((str(q), n, lam))",
        ],
        "algebra.LaurentPoly.canonical": [
            'return "0"',
        ],
        "algebra.pochhammer_depth": [
            "return 60",
        ],
        "algebra.q_binomial": [
            "0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2))",
            "value = Fraction(math.comb(n, k) if q == 1 else",
        ],
        "branching.contribution_A": [
            "A = A * (1 - q ** (1 + k - j)) / (1 - q ** (k - j))",
        ],
        # the pivot: no ledger matrix meets a zero pivot
        "characters._det_int": [
            "break",
            "for i in range(k + 1, n):",
            "if m[i][k] != 0:",
            "m[k], m[i] = m[i], m[k]",
            "return 0",
            "sign = -sign",
        ],
        # the product branch: in no ledger sum does one denominator fail to
        # divide the other
        "characters._fraction_sums": [
            "acc[exps] = N * d + n * D, D * d",
        ],
        # the ledger's one KS argument lies above 1 (D = 0.01305 at 2e4
        # replicas per side)
        "continuous._kolmogorov_sf": [
            "return 1.0",
            "return float(1 - math.sqrt(2 * math.pi) / x",
            "* np.exp(-(2 * k - 1) ** 2 * (math.pi ** 2 / (8 * x * x))).sum())",
        ],
        # the KS rounding, taken only up to 10^4 samples per side; the ledger
        # draws more
        "continuous._ks_two_sample": [
            "lcm = math.lcm(len(x), len(y))",
            "stat = round(stat * lcm) / lcm",
        ],
        "continuous.sde_simulate": [
            "start = [np.asarray(lv, dtype=float).tolist() for lv in x0]",
        ],
        "limits.so_whittaker": [
            "except ValueError as exc:",
            "lo, hi = (v - math.log(2.0) for v in _PHI_RANGE[2 * n])",
        ],
        "spectral._bandwidth": [
            "m *= 2",
        ],
        # every rank-1 law of the ledger and the ops is at t > 0
        "spectral._rank_one_law": [
            "bessel = [mp.mpf(1)] + [mp.mpf(0)] * top",
        ],
    },
}
ALLOWED = {(qual.split(".", 1)[0], qual.split(".", 1)[1], line): reason
           for reason, functions in _ALLOWED_LINES.items()
           for qual, lines in functions.items() for line in lines}


def _trace_ledger_and_ops() -> dict:
    """File -> sorted line numbers of src/sympgt that ran."""
    prefix = str(PACKAGE) + os.sep
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    threading.settrace(call)
    try:
        from sympgt import acceptance
        acceptance.run_all()
        path = ROOT / "perfbench" / "ops.py"
        spec = importlib.util.spec_from_file_location("perfbench_ops", path)
        ops = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ops)
        for workload in ops.WORKLOADS.values():
            for op in workload:
                try:
                    op.fn(SEED)
                except Exception:   # a failing op (a known defect) still ran its lines
                    pass
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {path: sorted(lines) for path, lines in hits.items()}


def _function_lines(code: types.CodeType) -> set:
    """Lines holding code of a function body, nested functions included;
    module and class bodies run at import, before any tracing, and are left
    out."""
    out, todo = set(), [code]
    while todo:
        co = todo.pop()
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
        if co.co_flags & inspect.CO_OPTIMIZED:
            out |= {line for _, _, line in co.co_lines() if line is not None}
    return out


def _owners(tree: ast.Module) -> dict:
    """Line -> qualified name of the innermost function or class around it."""
    owner: dict = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
            visit(child, name)

    visit(tree, "")
    return owner


def never_run(hits: dict) -> set:
    """(module, function, stripped line) of every function line that no
    trace event reached, raise statements apart."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        # a raise, and the header of a handler that only raises
        raises = {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1)}
        raises |= {node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                   and all(isinstance(stmt, ast.Raise) for stmt in node.body)}
        owner = _owners(tree)
        text = source.splitlines()
        ran = set(hits.get(str(path), ()))
        for line in _function_lines(compile(source, str(path), "exec")) - ran - raises:
            out.add((path.stem, owner.get(line, ""), text[line - 1].strip()))
    return out


@pytest.mark.slow
def test_every_function_line_runs_under_the_ledger_and_the_ops(tmp_path):
    out = tmp_path / "lines.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=900)
    dead = never_run(json.loads(out.read_text()))
    unexpected = sorted(dead - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - dead)
    assert not unexpected and not stale, (
        "never run and not allowed:\n" + "\n".join(map(repr, unexpected))
        + "\nallowed but run, or gone:\n" + "\n".join(map(repr, stale)))


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(_trace_ledger_and_ops()))
