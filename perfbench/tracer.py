"""Spans around the calls into each ehrstar module, recorded from outside.

`Tracer.install` replaces each module's public functions, and the private
attributes through which the engine reaches its kernels, with wrappers
that record a span: name, start, end, parent span and item id. Every
module attribute bound to the same function object is patched, so a call
is traced whichever module it goes through. Spans stay in memory; `write`
stores them once, at the end of a run. Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("lattice", "intlinalg", "engine", "starbasis", "audit", "cli")
# The scan kernel is private; the engine calls it through this attribute.
PRIVATE = {"engine": ("_count_box_satisfying",)}
CLASSMETHODS = {"lattice": (("LatticeSimplex", "from_vertices"),)}
# binom is called about d^2 times per basis change; a span per call would
# swamp the trace. Its cost stays in its callers' self time.
EXCLUDED = {"starbasis.binom"}


def _box_size(args, result):
    """(candidates in the scanned box, lattice points found)."""
    lows, highs = args[0], args[1]
    return math.prod(max(hi - lo + 1, 0) for lo, hi in zip(lows, highs)), result


# Work counters read from a span's arguments or result: (name -> extractor).
COUNTERS = {
    "engine.box_points_simplex": lambda args, result: args[0].normalized_volume,
    "engine._count_box_satisfying": _box_size,
    "audit.search_nonunimodal": lambda args, result: (result.scanned, len(result.candidates)),
}

# The spans the per-layer metrics read; a name missing from the program is absent.
REQUIRED = (
    "lattice.LatticeSimplex.from_vertices",
    "intlinalg.diagonalize_lattice_basis",
    "intlinalg.scaled_inverse",
    "intlinalg.solve_rational",
    "engine.box_points_simplex",
    "engine.count_points",
    "engine._count_box_satisfying",
    "engine.f_star_from_profile",
    "starbasis.h_from_f",
    "starbasis.f_from_h",
    "starbasis.eval_ehrhart",
    "audit.full_audit",
    "audit.unimodality",
    "audit.check_hibi",
    "audit.search_nonunimodal",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, item, counter]
        self._stack: list[int] = []
        self._item = None
        self._patches: list[tuple[object, str, object, object]] = []
        self.wrapped: set[str] = set()

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1], tracer._item, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    rec[5] = counter(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        replacements = {}
        for modname in MODULES:
            mod = importlib.import_module(f"ehrstar.{modname}")
            for attr, obj in vars(mod).items():
                name = f"{modname}.{attr}"
                public = not attr.startswith("_") or attr in PRIVATE.get(modname, ())
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and public and name not in EXCLUDED):
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
                    self.wrapped.add(name)
            for cls_name, meth in CLASSMETHODS.get(modname, ()):
                cls = getattr(mod, cls_name, None)
                desc = vars(cls).get(meth) if cls is not None else None
                if isinstance(desc, classmethod):
                    name = f"{modname}.{cls_name}.{meth}"
                    self._patches.append((cls, meth, desc, classmethod(self._wrap(name, desc.__func__))))
                    self.wrapped.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "ehrstar" and not modname.startswith("ehrstar."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        for owner, attr, _orig, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _new in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def absent(self) -> list[str]:
        return [name for name in REQUIRED if name not in self.wrapped]

    # -- items ---------------------------------------------------------------------

    def begin_item(self, item_id: str, label: str) -> None:
        self._stack = [len(self.spans)]
        self.spans.append([f"item:{label}", time.perf_counter_ns(), 0, None, item_id, None])
        self._item = item_id

    def end_item(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter_ns()
        self._item = None
        self._stack = []

    # -- reduction -----------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self ns, and summed counters."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child_ns[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _item, counter) in enumerate(self.spans):
            key = "item" if name.startswith("item:") else name
            agg = out.setdefault(key, {"calls": 0, "total_ns": 0, "self_ns": 0, "counter": None})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
            if counter is not None:
                if isinstance(counter, tuple):
                    prev = agg["counter"] or (0,) * len(counter)
                    agg["counter"] = tuple(a + b for a, b in zip(prev, counter))
                else:
                    agg["counter"] = (agg["counter"] or 0) + counter
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
