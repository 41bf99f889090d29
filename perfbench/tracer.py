"""Outside-in span recorder for the ``sympgt`` package.

The recorder replaces functions with timing wrappers from outside the
package; the package itself is not edited.  Modules copy references with
``from .x import f``, so every alias of a wrapped function, in every loaded
``sympgt`` module and in the ``LaurentPoly`` class body, is rebound, and
``uninstall`` puts every original binding back.

Spans are kept in memory as aggregates per (caller, callee) pair: call
count, inclusive time and self time (duration minus the time covered by
child spans).  Only op-level spans, opened with ``span``, are kept one by
one with their start, end and parent.  Generator functions are not timed
(their body runs inside the caller); the items they yield are counted.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

ROOT = ""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list = []           # open frames: [name, start, child_time]
        self.agg: dict = {}             # (parent, name) -> [calls, total_s, self_s]
        self.items: dict = {}           # generator name -> [items yielded]
        self.spans: list = []           # op spans: (name, start, end, parent)
        self.hooks: dict = {}           # name -> fn(args, kwargs, result)
        self._patches: list = []        # (owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _close(self, frame) -> float:
        end = self.clock()
        self.stack.pop()
        dur = end - frame[1]
        parent = self.stack[-1][0] if self.stack else ROOT
        if self.stack:
            self.stack[-1][2] += dur
        rec = self.agg.get((parent, frame[0]))
        if rec is None:
            self.agg[(parent, frame[0])] = [1, dur, dur - frame[2]]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[2]
        return end

    @contextlib.contextmanager
    def span(self, name: str):
        """An op-level span, kept individually as well as aggregated."""
        parent = self.stack[-1][0] if self.stack else ROOT
        frame = [name, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = self._close(frame)
            self.spans.append((name, frame[1], end, parent))

    def _timed(self, name: str, fn):
        stack, clock, close = self.stack, self.clock, self._close
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    def _counted(self, name: str, fn):
        cell = self.items.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item
        return counted

    def wrapper_for(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._counted(name, fn)
        return self._timed(name, fn)

    # -- installing ---------------------------------------------------------

    def install(self, targets: dict, package: str = "sympgt") -> None:
        """Rebind every alias of each target.

        ``targets`` maps a metric name to a function, or to an ``(owner,
        attr)`` pair for methods.  Aliases are found by identity in every
        loaded module of ``package`` and in each owner class's body."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        owners = set()
        for name, target in targets.items():
            if isinstance(target, tuple):
                owner, attr = target
                owners.add(owner)
                fn = vars(owner)[attr]
            else:
                fn = target
            wrappers[id(fn)] = (fn, self.wrapper_for(name, fn))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for owner in [*modules, *owners]:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- reading ------------------------------------------------------------

    def totals(self, name: str) -> tuple:
        """(calls, self_s, inclusive_s) of ``name`` summed over callers.
        Inclusive time counts a recursive call inside its caller's too."""
        calls = self_s = total = 0.0
        for (_parent, nm), (c, tot, slf) in self.agg.items():
            if nm == name:
                calls += c
                self_s += slf
                total += tot
        return int(calls), self_s, total

    def calls_under(self, parent: str, name: str) -> int:
        rec = self.agg.get((parent, name))
        return rec[0] if rec else 0

    def dump(self) -> dict:
        return {
            "aggregates": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                           for (p, n), (c, t, s) in sorted(self.agg.items())],
            "items": {n: c[0] for n, c in sorted(self.items.items())},
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }


def public_functions(module) -> dict:
    """``{"<module>.<function>": fn}`` for the public functions a module
    defines itself (imported names are wrapped under their home module)."""
    short = module.__name__.rpartition(".")[2]
    return {f"{short}.{name}": obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}
