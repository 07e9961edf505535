"""Span tracer for aqpath's layer boundaries, installed from outside the library.

Every boundary is a name that callers look up at call time, so the tracer
replaces that name where it is looked up and puts the original back on
``uninstall``:

- module functions are patched in the module that *calls* them.
  ``aqpath.construct.pack_segments`` and ``aqpath.oracle.pack_segments``
  are separate bindings of one function and are patched separately;
  ``aqpath.construct.construct`` is also what the recursive cases call.
- ``UnitFlowNet.max_flow`` and every ``neighbors`` method of the classes in
  ``aqpath.cube`` are patched on their class.

Modules are fetched with ``importlib.import_module``: ``aqpath/__init__.py``
rebinds the package attribute ``construct`` to the function, so
``import aqpath.construct as m`` would hand back the function, not the
module.

A boundary that no longer exists is recorded in ``absent`` and skipped, so
a refactor that removes one shows up in the report instead of crashing it.

Spans are ``(op, layer, name, parent, start, end)`` tuples kept in memory;
``parent`` is the index of the enclosing span, -1 at the top.  Neighbour
queries are counted, not spanned (an oracle sweep makes ~600k of them), so
their time stays in the self time of the layer that asked.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (layer, module, attribute path), patched where the callers look it up
FUNCTION_BOUNDARIES = (
    ("construct", "aqpath.construct", "construct"),
    ("flow", "aqpath.construct", "disjoint_paths"),
    ("flow", "aqpath.construct", "fan"),
    ("flow", "aqpath.construct", "linkage"),
    ("packing", "aqpath.construct", "pack_segments"),
    ("verify", "aqpath.construct", "check_family"),
    ("oracle", "aqpath.oracle", "max_dpaths"),
    ("packing", "aqpath.oracle", "pack_segments"),
    ("maxflow", "aqpath.flow", "UnitFlowNet.max_flow"),
)
CUBE_MODULE = "aqpath.cube"

# per-layer metrics reported by a traced run, with their units
LAYER_METRICS = (
    ("flow.calls", "count"),
    ("flow.self_s", "s"),
    ("flow.maxflow_calls", "count"),
    ("flow.maxflow_s", "s"),
    ("flow.units_pushed", "count"),
    ("flow.net_entries", "count"),
    ("packing.calls", "count"),
    ("packing.self_s", "s"),
    ("packing.maxflow_calls", "count"),
    ("packing.maxflow_s", "s"),
    ("packing.refuted", "count"),
    ("packing.search_calls", "count"),
    ("packing.budget_ticks", "count"),
    ("cube.neighbor_calls", "count"),
    ("cube.views_built", "count"),
    ("construct.calls", "count"),
    ("construct.self_s", "s"),
    ("construct.fallbacks", "count"),
    ("oracle.calls", "count"),
    ("oracle.self_s", "s"),
    ("oracle.profiles_tried", "count"),
    ("verify.calls", "count"),
    ("verify.self_s", "s"),
)


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    def __init__(self, boundaries=FUNCTION_BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.absent: list[str] = []
        self._neighbor_cells: list[list[int]] = []
        self._view_cells: list[list[int]] = []
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer, module, path in self.boundaries:
            name = f"{module}.{path}"
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            self.fired[name] = 0
            self._patch(owner, attr, self._span_wrapper(layer, name, fn))
        self._install_cube()

    def _install_cube(self) -> None:
        try:
            cube = importlib.import_module(CUBE_MODULE)
        except ImportError:
            self.absent.append(f"{CUBE_MODULE}.*.neighbors")
            return
        classes = [c for c in vars(cube).values()
                   if isinstance(c, type) and c.__module__ == cube.__name__
                   and "neighbors" in vars(c)]
        if not classes:
            self.absent.append(f"{CUBE_MODULE}.*.neighbors")
        for cls in classes:
            cell = [0]
            self._neighbor_cells.append(cell)
            self._patch(cls, "neighbors", _counting(vars(cls)["neighbors"], cell))
            cell = [0]
            self._view_cells.append(cell)
            self._patch(cls, "__init__", _counting(vars(cls)["__init__"], cell))

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn):
        spans, stack, counts, fired = self.spans, self.stack, self.counts, self.fired
        clock = time.perf_counter
        before, after = _HOOKS.get(layer, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            fired[name] += 1
            state = before(counts, args, kwargs) if before else None
            returned, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, layer, name, parent, start, end)
                if after:
                    after(counts, name, state, returned, result, args, kwargs)

        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[5] - s[4]
        calls = dict.fromkeys(("construct", "flow", "packing", "verify",
                               "oracle", "maxflow"), 0)
        self_s = dict.fromkeys(calls, 0.0)
        packing_mf_calls, packing_mf_s = 0, 0.0
        for i, (_, layer, _, parent, start, end) in enumerate(spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
            if layer == "maxflow" and self._under(parent, "packing"):
                packing_mf_calls += 1
                packing_mf_s += end - start
        c = self.counts.get
        return {
            "flow.calls": calls["flow"],
            "flow.self_s": self_s["flow"],
            "flow.maxflow_calls": calls["maxflow"],
            "flow.maxflow_s": self_s["maxflow"],
            "flow.units_pushed": c("maxflow.units", 0),
            "flow.net_entries": c("maxflow.entries", 0),
            "packing.calls": calls["packing"],
            "packing.self_s": self_s["packing"],
            "packing.maxflow_calls": packing_mf_calls,
            "packing.maxflow_s": packing_mf_s,
            "packing.refuted": c("packing.refuted", 0),
            "packing.search_calls": c("packing.search_calls", 0),
            "packing.budget_ticks": c("packing.budget_ticks", 0),
            "cube.neighbor_calls": sum(cell[0] for cell in self._neighbor_cells),
            "cube.views_built": sum(cell[0] for cell in self._view_cells),
            "construct.calls": calls["construct"],
            "construct.self_s": self_s["construct"],
            "construct.fallbacks": c("construct.fallbacks", 0),
            "oracle.calls": calls["oracle"],
            "oracle.self_s": self_s["oracle"],
            "oracle.profiles_tried": c("oracle.profiles_tried", 0),
            "verify.calls": calls["verify"],
            "verify.self_s": self_s["verify"],
        }

    def _under(self, idx: int, layer: str) -> bool:
        while idx >= 0:
            span = self.spans[idx]
            if span[1] == layer:
                return True
            idx = span[3]
        return False

    def boundary_report(self) -> dict[str, object]:
        """Calls per boundary; absent boundaries map to "absent"."""
        report: dict[str, object] = dict(self.fired)
        report[f"{CUBE_MODULE}.*.neighbors"] = (
            sum(cell[0] for cell in self._neighbor_cells)
            if self._neighbor_cells else "absent")
        for name in self.absent:
            report[name] = "absent"
        return report

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, layer, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "layer": layer, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def _counting(fn, cell):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _budget_arg(args, kwargs):
    return kwargs.get("budget", args[3] if len(args) > 3 else None)


def _packing_before(counts, args, kwargs):
    budget = _budget_arg(args, kwargs)
    return getattr(budget, "used", None)


def _packing_after(counts, name, used_before, returned, result, args, kwargs):
    if name.startswith("aqpath.oracle."):
        _add(counts, "oracle.profiles_tried", 1)
    used_after = getattr(_budget_arg(args, kwargs), "used", None)
    if used_before is not None and used_after is not None:
        ticks = used_after - used_before
        _add(counts, "packing.budget_ticks", ticks)
        if ticks > 1:
            _add(counts, "packing.search_calls", 1)
    if returned and result is None:
        _add(counts, "packing.refuted", 1)


def _maxflow_before(counts, args, kwargs):
    cap = getattr(args[0], "cap", None)
    if isinstance(cap, dict):
        _add(counts, "maxflow.entries", sum(len(row) for row in cap.values()))


def _maxflow_after(counts, name, state, returned, result, args, kwargs):
    if isinstance(result, int):
        _add(counts, "maxflow.units", result)


def _construct_after(counts, name, state, returned, result, args, kwargs):
    trace = getattr(result, "trace", None)
    if trace and getattr(trace[0], "fallback", False):
        _add(counts, "construct.fallbacks", 1)


_HOOKS = {
    "packing": (_packing_before, _packing_after),
    "maxflow": (_maxflow_before, _maxflow_after),
    "construct": (None, _construct_after),
}
