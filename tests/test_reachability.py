"""Every definition in src/sympgt is reached from what the program runs.

The scan reads the package and perfbench/*.py with ``ast`` and changes
neither.  Its roots are ``cli.main``, the ledger (``acceptance.REGISTRY``
and ``acceptance.run_all``) and the package names that perfbench/*.py
references.  A definition is a module-level function, class or named
constant, or a method.  A reached definition reaches what it names:
- a bare name, through its module's own definitions and imports;
- ``self.m`` and ``cls.m``, the method m of the enclosing class;
- ``C.m`` and ``module.f``, through the class or module that C or module
  names;
- any other ``x.m``, every method named m, since the scan knows no types.
A reached class also reaches its dunder methods, which Python calls.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sympgt"

# kept for ledger checks still to come: the bottom-level autonomy of the
# SDE reads grad_log_phi (ROADMAP item 3), and the q = 0 cascade check
# takes the other five (item 7)
ALLOWED = {"continuous.grad_log_phi", "combinatorics.pattern_to_tableau",
           "combinatorics.tableau_to_pattern", "combinatorics.enumerate_patterns_typeA",
           "characters.schur_typeA", "characters.cauchy_identity_check"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Scan:
    def __init__(self):
        self.defs = {}        # qualified name -> (module, enclosing class, node)
        self.names = {}       # module -> {local name: qualified name or module}
        self.methods = {}     # method name -> qualified names
        trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
        self.modules = set(trees)
        for mod, tree in trees.items():
            names = self.names[mod] = {}
            for node in tree.body:
                for name in self._bound(node):
                    names[name] = f"{mod}.{name}"
                    self.defs[f"{mod}.{name}"] = (mod, None, node)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qual = f"{mod}.{node.name}.{sub.name}"
                            self.defs[qual] = (mod, node.name, sub)
                            self.methods.setdefault(sub.name, set()).add(qual)
            for node in ast.walk(tree):
                names.update(self._imports(node))

    @staticmethod
    def _bound(node) -> list:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id)]

    def _imports(self, node) -> dict:
        """Local names bound by an import of the package or one of its modules."""
        if not isinstance(node, ast.ImportFrom):
            return {}
        mod = node.module or ""
        if node.level == 1 or mod == "sympgt" or mod.startswith("sympgt."):
            mod = mod.removeprefix("sympgt").lstrip(".")
            out = {}
            for a in node.names:
                local = a.asname or a.name
                out[local] = f"{mod}.{a.name}" if mod else a.name
            return out
        return {}

    def refs(self, node, mod, cls, names=None) -> set:
        """The definitions that ``node`` names, in module ``mod`` and class ``cls``."""
        names = self.names[mod] if names is None else names
        if isinstance(node, ast.ClassDef):
            parts = node.decorator_list + node.bases + node.keywords + [
                s for s in node.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            parts = [node]
        out = set()
        for sub in (n for p in parts for n in ast.walk(p)):
            if isinstance(sub, ast.Name) and names.get(sub.id) in self.defs:
                out.add(names[sub.id])
            elif isinstance(sub, ast.Attribute):
                owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                if owner in ("self", "cls") and cls:
                    out.add(f"{mod}.{cls}.{sub.attr}")
                elif names.get(owner) in self.modules or names.get(owner) in self.defs:
                    out.add(f"{names[owner]}.{sub.attr}")
                else:
                    out |= self.methods.get(sub.attr, set())
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)  # perfbench names what it wraps by "module.name"
        return out & self.defs.keys()

    def roots(self) -> set:
        out = {"cli.main", "acceptance.REGISTRY", "acceptance.run_all"}
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {}
            for node in ast.walk(tree):
                names.update(self._imports(node))
            out |= self.refs(tree, "", None, names)
        return out

    def unreached(self) -> set:
        reached, todo = set(), list(self.roots())
        while todo:
            qual = todo.pop()
            if qual in reached:
                continue
            reached.add(qual)
            mod, cls, node = self.defs[qual]
            todo += self.refs(node, mod, cls)
            if isinstance(node, ast.ClassDef):
                todo += [f"{qual}.{s.name}" for s in node.body
                         if isinstance(s, ast.FunctionDef) and _is_dunder(s.name)]
        return self.defs.keys() - reached

    def lines(self, qual: str) -> int:
        node = self.defs[qual][2]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return node.end_lineno - first + 1


def test_every_definition_in_the_package_is_reached():
    scan = _Scan()
    dead = scan.unreached() - ALLOWED
    assert not dead, "only tests reach: " + ", ".join(
        f"{q} ({scan.lines(q)} lines)" for q in sorted(dead))


def test_the_allowlist_names_unreached_definitions_only():
    # an allowed name that the program has come to use, or that is gone,
    # leaves the allowlist
    scan = _Scan()
    assert ALLOWED <= scan.defs.keys()
    assert ALLOWED <= scan.unreached()
