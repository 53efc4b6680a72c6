"""Span tracing around hornkit's public functions, from outside the package.

``Tracer.install`` replaces each traced function at its defining module and
at every other ``hornkit`` module (and class) that binds the same object,
so calls through any import path are seen.  A traced name that is missing
from its defining module is an error: a refactor that removes or renames
it must update this table rather than let its metrics read zero.

Spans nest by call order.  Each span records its name and its parent's
name; the tracer keeps per-name call counts, self time (duration minus
the time covered by child spans), outermost inclusive time, and per
(parent, child) edge totals.  A generator is one call whose span is the
sum of its resumptions, so the consumer's work between items is not
charged to it.  Spans are aggregated in memory as they close, because a
cold Horn recursion makes too many to keep one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute path, is generator)
TARGETS = (
    ("exactla.rref", "exactla", "rref", False),
    ("exactla.intersect", "exactla", "intersect", False),
    ("exactla.nullspace", "exactla", "Mat.nullspace", False),
    ("tangent.X_from_flags", "tangent", "X_from_flags", False),
    ("tangent.tangents_with_flags", "tangent", "tangents_with_flags", False),
    ("tangent.generic_tangents", "tangent", "generic_tangents", False),
    ("tangent.transversality_verdict", "tangent", "transversality_verdict", False),
    ("tangent.schubert_position", "tangent", "schubert_position", False),
    ("strings.all_partitions", "strings", "all_partitions", True),
    ("horn.enumerate_horn", "horn", "enumerate_horn", True),
    ("horn.evaluate", "horn", "evaluate", False),
    ("horn.schur_expand", "horn", "schur_expand", False),
    ("horn.lr_oracle", "horn", "lr_oracle", False),
    ("horn.horn_verdict", "horn", "horn_verdict", False),
    ("witness.find_witness", "witness", "find_witness", False),
    ("witness.verify_witness", "witness", "verify_witness", False),
    ("cli.main", "cli", "main", False),
)

MODULES = ("strings", "exactla", "tangent", "horn", "witness", "cli")


class MissingTarget(Exception):
    """A traced name no longer exists where the table says it is defined."""


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.edges: dict[str, list] = defaultdict(lambda: [0, 0.0])  # parent>child
        self.counts: dict[str, int] = defaultdict(int)

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.incl_s[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        edge = self.edges[f"{parent[0] if parent else ''}>{name}"]
        edge[0] += 1
        edge[1] += dur

    def _wrap_fn(self, name, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            self.calls[name] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _wrap_gen(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._resumptions(name, fn(*args, **kwargs))

        return wrapper

    def _resumptions(self, name, inner):
        try:
            while True:
                self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self.counts[f"{name}.yielded"] += 1
                yield item
        finally:
            inner.close()

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hornkit.{m}") for m in MODULES}
        hooks = self._hooks()
        replaced = {}
        for name, mod, path, is_gen in TARGETS:
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                raise MissingTarget(f"hornkit.{mod}.{path} not found (span {name})")
            if is_gen:
                replaced[id(original)] = self._wrap_gen(name, original)
            else:
                on_call, on_return = hooks.get(name, (None, None))
                replaced[id(original)] = self._wrap_fn(name, original, on_call, on_return)
        # Rebind at every hornkit module and class that holds an original.
        holders = [m for key, m in sys.modules.items()
                   if key == "hornkit" or key.startswith("hornkit.")]
        holders += [v for m in list(holders) for v in vars(m).values()
                    if inspect.isclass(v) and v.__module__.startswith("hornkit")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in replaced:
                    setattr(holder, attr, replaced[id(value)])

    def _hooks(self) -> dict:
        from hornkit import exactla, tangent

        rref_sig = inspect.signature(exactla.rref)
        tv_sig = inspect.signature(tangent.transversality_verdict)

        def rref_cells(args, kwargs):
            bound = rref_sig.bind(*args, **kwargs)
            rows = list(bound.arguments["rows"])
            bound.arguments["rows"] = rows
            self.counts["exactla.rref.cells"] += len(rows) * bound.arguments["ncols"]
            return bound.args, bound.kwargs

        def trials_requested(args, kwargs):
            bound = tv_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["tangent.trials_requested"] += bound.arguments["trials"]
            return args, kwargs

        def witness_levels(trace):
            self.counts["witness.levels"] += len(trace.levels)

        return {
            "exactla.rref": (rref_cells, None),
            "tangent.transversality_verdict": (trials_requested, None),
            "witness.find_witness": (None, witness_levels),
        }

    # --- results -------------------------------------------------------------

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "edges": {k: list(v) for k, v in self.edges.items()},
            "counts": dict(self.counts),
        }


def merge(states: list[dict]) -> dict:
    """Sum tracer states from several processes."""
    out: dict = {"calls": {}, "self_s": {}, "incl_s": {}, "edges": {}, "counts": {}}
    for st in states:
        for key in ("calls", "self_s", "incl_s", "counts"):
            for name, v in st[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, (k, v) in st["edges"].items():
            e = out["edges"].setdefault(name, [0, 0.0])
            e[0] += k
            e[1] += v
    return out


def layer_metrics(st: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)).  A metric whose layer did
    not run in this workload is left out rather than reported as zero."""
    calls, self_s, incl = st["calls"], st["self_s"], st["incl_s"]
    counts, edges = st["counts"], st["edges"]

    def edge(parent, child, i):
        return edges.get(f"{parent}>{child}", [0, 0.0])[i]

    out = {}
    for name in ("exactla.rref", "exactla.intersect", "exactla.nullspace",
                 "tangent.X_from_flags", "horn.enumerate_horn", "horn.evaluate",
                 "strings.all_partitions", "horn.schur_expand"):
        if calls.get(name):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
    if calls.get("cli.main"):
        out["cli.main.self_s"] = (self_s["cli.main"], "s")
    if calls.get("exactla.rref"):
        out["exactla.rref.cells"] = (counts.get("exactla.rref.cells", 0), "count")
    if calls.get("horn.enumerate_horn"):
        out["horn.enumerate_horn.yielded"] = (
            counts.get("horn.enumerate_horn.yielded", 0), "count")
    for name in ("horn.lr_oracle", "tangent.transversality_verdict"):
        if calls.get(name):
            out[f"{name}.s"] = (incl[name], "s")
    if counts.get("tangent.trials_requested"):
        out["tangent.trials_ratio"] = (
            calls.get("tangent.generic_tangents", 0) / counts["tangent.trials_requested"],
            "ratio")
    if calls.get("tangent.schubert_position"):
        out["tangent.schubert_position.calls"] = (calls["tangent.schubert_position"], "count")
        out["tangent.schubert_position.s"] = (incl["tangent.schubert_position"], "s")
    if calls.get("witness.find_witness"):
        fw = "witness.find_witness"
        precheck = edge(fw, "horn.horn_verdict", 1) + edge(fw, "horn.lr_oracle", 1)
        levels = counts.get("witness.levels", 0)
        out["witness.precheck_s"] = (precheck, "s")
        out["witness.descent_s"] = (incl[fw] - precheck, "s")
        out["witness.levels"] = (levels, "count")
        out["witness.attempts_per_level"] = (
            edge(fw, "tangent.tangents_with_flags", 0) / levels if levels else 0.0,
            "ratio")
    return out
