"""Span recorder and counters for the traced in-process run.

The program is not edited: :meth:`Tracer.install` replaces each public
function of the commkit layer modules, at every ``commkit.*`` module
attribute that refers to it (the defining module, importers such as
``commkit.cli`` or ``commkit.metrics``, and the package itself), with a
wrapper that records a span.  :meth:`Tracer.uninstall` puts the originals
back, so the same process can also run untraced jobs.

A span is (id, parent id, name, job id, thread, start, end).  Spans are
appended to one list (a single append is atomic under the GIL) and written
out when the run ends.  Counters are read from the wrapped functions' return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = (
    "graph",
    "community",
    "detect",
    "domsets",
    "slopes",
    "metrics",
    "keywords",
    "distributions",
    "pipeline",
    "cli",
)

# Called once per sampled subset, token or membership test; spans there
# would cost more than the work they time.  Their time counts as the
# caller's self time.
UNWRAPPED = frozenset(
    {
        "community.check_subset",
        "community.neighbors_in",
        "community.neighbors_out",
        "domsets.idr",
        "domsets.edr",
        "keywords.normalize_keyword",
        "keywords.tokenize",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.job = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._spans: list[tuple[int, int, str, int, int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()  # .stack: this thread's open span ids
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, parent: int | None = None):
        """Run ``fn`` inside a span; ``parent`` overrides this thread's current span."""
        stack = self._stack()
        span = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._spans.append((span, parent, name, self.job, threading.get_ident(), start, end))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # -- patching ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = [importlib.import_module(f"commkit.{layer}") for layer in LAYERS]
        wrappers: dict[int, Callable] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                if name == "pipeline.parallel_map":
                    fn_wrapped = self.wrap(name, self._parallel_map(fn))
                else:
                    fn_wrapped = self.wrap(name, fn, COUNTERS.get(name))
                wrappers[id(fn)] = fn_wrapped
        targets = [m for n, m in list(sys.modules.items()) if n == "commkit" or n.startswith("commkit.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value, wrapped))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def reinstall(self) -> None:
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def _parallel_map(self, original: Callable) -> Callable:
        """``parallel_map`` whose items run in spans parented by the map's span.

        Item wait is the time from the map's start (when the pool receives
        every item) to the item's start.
        """
        tracer = self

        def parallel_map(fn, items, workers):
            owner = tracer.current()
            submitted = perf_counter()

            def item(x):
                start = perf_counter()
                try:
                    return tracer.call("pipeline.parallel_map.item", fn, (x,), {}, parent=owner)
                finally:
                    end = perf_counter()
                    with tracer._lock:
                        tracer.counters["pipeline.parallel_map.item_wait_s"] += start - submitted
                        tracer.counters["pipeline.parallel_map.item_busy_s"] += end - start

            try:
                return original(item, items, workers)
            finally:
                tracer.count("pipeline.parallel_map.capacity_s", (perf_counter() - submitted) * workers)

        return parallel_map

    # -- analysis ----------------------------------------------------------

    def spans(self) -> list[tuple[int, int, str, int, int, float, float]]:
        """Every span as (id, parent, name, job, thread, start, end), by start."""
        return sorted(self._spans, key=lambda r: r[5])


def write_spans(path: Path, spans: list[tuple], own: list[float]) -> None:
    """Write spans with their self times (see :func:`self_times`) as CSV."""
    with path.open("w") as f:
        f.write("span_id,parent_id,job,thread,name,start_s,end_s,self_s\n")
        for (span, parent, name, job, thread, start, end), self_s in zip(spans, own):
            f.write(f"{span},{parent},{job},{thread},{name},{start!r},{end!r},{self_s!r}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children in the same thread never overlap; items of a thread pool can,
    hence the union.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[5], span[6]))
    result = []
    for span in spans:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(span[0], ())):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        result.append((span[6] - span[5]) - covered)
    return result


def layer_totals(spans: list[tuple], own: list[float]) -> dict[str, float]:
    """``<name>.s`` (summed span time), ``<name>.self_s`` and ``<name>.calls``.

    Summing is inclusive time because no commkit function calls itself.
    """
    totals: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        name = span[2]
        totals[f"{name}.s"] += span[6] - span[5]
        totals[f"{name}.self_s"] += self_s
        totals[f"{name}.calls"] += 1
    return totals


# -- counters read from return values ----------------------------------------


def _edges_loaded(tracer, args, kwargs, graph):
    tracer.count("graph.edges_loaded", graph.edge_count)


def _ppr(tracer, args, kwargs, vector):
    tracer.count("detect.ppr_support", len(vector.scores))
    tracer.count("detect.ppr_residual", len(vector.residual))


def _sweep(tracer, args, kwargs, result):
    tracer.count("detect.sweep_none", result is None)


def _detected(tracer, args, kwargs, detected):
    tracer.count("detect.kept", len(detected))


def _estimator(tracer, args, kwargs, result):
    record = result[1]
    if record is not None:
        tracer.count("slopes.exact_calls" if record.method == "exact" else "slopes.mc_calls", 1)
        tracer.count("slopes.subsets_evaluated", record.subset_count)


def _induced(tracer, args, kwargs, sub):
    community = args[0] if args else kwargs["community"]
    tracer.count("community.induced_subgraph.edges_kept", sub.edge_count)
    tracer.count("community.induced_subgraph.edges_scanned", community.graph.edge_count)


def _written(tracer, args, kwargs, target):
    tracer.count("pipeline.bytes_written", target.stat().st_size)


def _read(tracer, args, kwargs, rows):
    path = args[0] if args else kwargs["path"]
    tracer.count("pipeline.bytes_read", Path(path).stat().st_size)


COUNTERS = {
    "graph.load_graph": _edges_loaded,
    "detect.approximate_ppr": _ppr,
    "detect.sweep_cut": _sweep,
    "detect.detect_communities": _detected,
    "slopes.expected_ratio": _estimator,
    "community.induced_subgraph": _induced,
    "pipeline.write_table": _written,
    "pipeline.read_table": _read,
}
