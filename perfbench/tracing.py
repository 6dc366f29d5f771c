"""In-memory tracing of the package's public functions, from outside.

``Tracer.install`` replaces functions and methods of the ``raagsplit``
modules with wrappers; ``uninstall`` puts the originals back.  The
untraced run never calls ``install``, so it runs the package as is.

Two kinds of wrapper:

* a span wrapper records ``[name, start_ns, end_ns, parent, op]`` for
  every call, where ``parent`` is the index of the enclosing span (-1
  at the top) and ``op`` the index of the benchmark op being run;
* a counter wrapper only counts calls.  The bitset kernels get counters
  only: they run hundreds of thousands of times per pass, and a span
  each would swamp what it measures.

A function that a later version of the package no longer has is
reported in ``absent`` and its metrics read 0; nothing raises.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (metric stem, module, attribute path); spans
SPANS = (
    ("formats.parse_graph", "raagsplit.formats", "parse_graph"),
    ("graphs.minimal_clique_separators", "raagsplit.graphs", "Graph.minimal_clique_separators"),
    ("graphs.induced_subgraph", "raagsplit.graphs", "Graph.induced_subgraph"),
    ("graphs.clique_number", "raagsplit.graphs", "Graph.clique_number"),
    ("splitting.splits_over_rank", "raagsplit.splitting", "splits_over_rank"),
    ("splitting.extend_clique_to_rank", "raagsplit.splitting", "extend_clique_to_rank"),
    ("splitting.splitting_spectrum", "raagsplit.splitting", "splitting_spectrum"),
    ("splitting.brute_force_splits", "raagsplit.splitting", "brute_force_splits"),
    ("ccd.complete_cut_decomposition", "raagsplit.ccd", "complete_cut_decomposition"),
    ("ccd.validate_ccd", "raagsplit.ccd", "validate_ccd"),
    ("ccd.graph_of_groups", "raagsplit.ccd", "graph_of_groups"),
    ("presentations.Presentation", "raagsplit.presentations", "Presentation.__init__"),
    ("presentations.star_split", "raagsplit.presentations", "star_split"),
    ("presentations.verify_star_split", "raagsplit.presentations", "verify_star_split"),
    ("presentations.raag_presentation", "raagsplit.presentations", "raag_presentation"),
    ("presentations.direct_amalgam", "raagsplit.presentations", "direct_amalgam"),
    ("lattice.deep_components", "raagsplit.lattice", "deep_components"),
)

# counters only
COUNTERS = (
    ("kernels.component_bits", "raagsplit.kernels", "component_bits"),
    ("kernels.components_bits", "raagsplit.kernels", "components_bits"),
    ("kernels.is_connected_bits", "raagsplit.kernels", "is_connected_bits"),
    ("kernels.first_clique_of_size_bits", "raagsplit.kernels", "first_clique_of_size_bits"),
    ("kernels.max_clique_size_bits", "raagsplit.kernels", "max_clique_size_bits"),
    ("presentations.free_reduce", "raagsplit.presentations", "free_reduce"),
)

# the scipy.ndimage calls inside lattice.deep_components, as one child span
NDIMAGE = "lattice.ndimage"

# Every per-layer metric, in report order, with its unit.  BENCHMARK.json
# lists the same names.
LAYER_METRICS = {
    "graphs.minimal_clique_separators.calls": "count",
    "graphs.minimal_clique_separators.self_s": "s",
    "graphs.separators_returned": "count",
    "graphs.induced_subgraph.calls": "count",
    "graphs.induced_subgraph.self_s": "s",
    "graphs.clique_number.self_s": "s",
    "kernels.component_bits.calls": "count",
    "kernels.components_bits.calls": "count",
    "kernels.is_connected_bits.calls": "count",
    "kernels.first_clique_of_size_bits.calls": "count",
    "kernels.max_clique_size_bits.calls": "count",
    "splitting.splits_over_rank.calls": "count",
    "splitting.splits_over_rank.self_s": "s",
    "splitting.extend_clique_to_rank.calls": "count",
    "splitting.extend_clique_to_rank.self_s": "s",
    "splitting.splitting_spectrum.self_s": "s",
    "splitting.brute_force_splits.calls": "count",
    "splitting.brute_force_splits.self_s": "s",
    "formats.parse_graph.self_s": "s",
    "ccd.complete_cut_decomposition.self_s": "s",
    "ccd.pieces": "count",
    "ccd.validate_ccd.self_s": "s",
    "ccd.graph_of_groups.self_s": "s",
    "presentations.Presentation.calls": "count",
    "presentations.Presentation.self_s": "s",
    "presentations.free_reduce.calls": "count",
    "presentations.star_split.self_s": "s",
    "presentations.verify_star_split.calls": "count",
    "presentations.verify_star_split.self_s": "s",
    "presentations.raag_presentation.self_s": "s",
    "presentations.direct_amalgam.self_s": "s",
    "lattice.deep_components.self_s": "s",
    "lattice.ndimage_s": "s",
    "lattice.cells": "count",
    "lattice.cells_per_s": "1/s",
    "import.interpreter_s": "s",
    "import.raagsplit_s": "s",
    "import.numpy_scipy_s": "s",
    "cli.after_import_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None when the
    module or attribute no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class _NdimageProxy:
    """Stands in for ``scipy.ndimage`` inside ``raagsplit.lattice`` and
    wraps every function fetched from it in one span name."""

    def __init__(self, tracer: "Tracer", real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        value = getattr(self._real, name)
        if callable(value):
            return self._tracer.span(NDIMAGE, value)
        return value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent, op]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name_id, clock(), 0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_separators(self, args, result):
        self.counts["graphs.separators_returned"] += len(result)

    def _count_pieces(self, args, result):
        self.counts["ccd.pieces"] += len(result.pieces)

    def _count_cells(self, args, result):
        sc = result.scenario
        self.counts["lattice.cells"] += (2 * sc.box_radius + 1) ** sc.ambient_rank

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        hooks = {
            "graphs.minimal_clique_separators": self._count_separators,
            "ccd.complete_cut_decomposition": self._count_pieces,
            "lattice.deep_components": self._count_cells,
        }
        for targets, wrap in ((SPANS, lambda stem, fn: self.span(stem, fn, hooks.get(stem))),
                              (COUNTERS, self.counter)):
            for stem, module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append(stem)
                    continue
                owner, attr, original = found
                self._replace(owner, attr, original, wrap(stem, original))
        lattice = sys.modules.get("raagsplit.lattice")
        if lattice is not None and hasattr(lattice, "ndimage"):
            self._set(lattice, "ndimage", _NdimageProxy(self, lattice.ndimage))
        else:
            self.absent.append(NDIMAGE)

    def _replace(self, owner, attr, original, wrapped) -> None:
        """Swap ``original`` for ``wrapped`` on its owner and wherever a
        package module imported it by name."""
        self._set(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "raagsplit" or name.startswith("raagsplit.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name, total duration minus the time its direct child
        spans cover, in seconds."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name_id, start, end, _, _), covered in zip(self.spans, child):
            name = self.names[name_id]
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
        return out

    def calls(self) -> Counter:
        out = Counter(self.counts)
        for name_id, *_ in self.spans:
            out[self.names[name_id]] += 1
        return out

    def total(self, name: str) -> float:
        """Wall seconds inside spans of ``name``, not counting nested
        spans of the same name twice."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0.0
        total = 0
        for nid, start, end, parent, _ in self.spans:
            if nid == name_id and (parent < 0 or self.spans[parent][0] != name_id):
                total += end - start
        return total / 1e9

    def dump(self) -> dict:
        return {
            "format": "spans are [name index, start ns, end ns, parent span index or -1, op index]",
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counts),
            "absent": self.absent,
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The in-process part of LAYER_METRICS, from one traced pass."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name in ("graphs.separators_returned", "ccd.pieces", "lattice.cells"):
            out[name] = tracer.counts.get(name, 0)
    out["lattice.ndimage_s"] = self_s.get(NDIMAGE, 0.0)
    lattice_s = tracer.total("lattice.deep_components")
    out["lattice.cells_per_s"] = out["lattice.cells"] / lattice_s if lattice_s else 0.0
    return out
