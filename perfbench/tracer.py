"""Layer tracer for the traced benchmark passes.

The tracer wraps public functions of each layer of ``repro`` from the
outside, for the length of one pass, and restores every attribute it
replaced when it is uninstalled.  Nothing under ``src/`` knows about
it.  It runs in one of two modes, each on its own pass:

* ``spans`` — a *span* ``[name, parent, start, end]`` is recorded
  around each layer call.  The cell runner of each campaign is the
  root span of a cell; store writes and report rendering happen
  between cells and are roots of their own.  Spans stay in memory
  until the pass ends, in flat arrays rather than a list per span:
  arrays are not tracked by the garbage collector, so the spans
  neither trigger collections nor lengthen them, and GC and boot
  times stay the program's own.  Counters that the program keeps itself
  (``Simulator.events_processed``, ``Network.messages_delivered``,
  ``KernelStats``, ``DiffusiveBalancer.moves``/``rejoins``) are read
  when the cell's root span closes, and garbage collection is timed
  through ``gc.callbacks``.
* ``counts`` — the highest-frequency calls (``PeerCache.add``, inbox
  predicates, ``Topology.path_metrics`` and ``site_path_metrics``,
  ``Network.send``, admissions, proposals) are counted and nothing is
  timed.  Counting them on a pass of their own keeps the wrappers'
  cost out of the span times.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

_MISSING = object()

#: Cell runners of the benchmarked campaigns: the root span of a cell.
CELL_RUNNERS = (
    ("repro.experiments.applatency", "applatency_cell"),
    ("repro.experiments.migration", "migration_cell"),
    ("repro.experiments.multiuser2", "multiuser2_cell"),
)

#: Report renderers of the benchmarked campaigns.
REPORTS = (
    ("repro.experiments.applatency", "applatency_report"),
    ("repro.experiments.migration", "migration_report"),
    ("repro.experiments.multiuser2", "multiuser2_report"),
)

#: Module-level layer functions, as (module, name, span name).
FUNCTION_SPANS = (
    ("repro.alloc.ranks", "build_plan", "alloc.plan"),
    ("repro.alloc.diffusive", "neighbor_map", "alloc.neighbor_map"),
    ("repro.alloc.diffusive", "diffusive_moves", "alloc.diffusive_moves"),
    ("repro.middleware.controlplane", "run_multi_tenant",
     "controlplane.run"),
)

#: Collective entry points of the MPI cost model.
KERNEL_METHODS = ("layout", "barrier_time", "bcast_time", "reduce_time",
                  "allreduce_time", "gather_time", "ring_exchange_time",
                  "alltoall_time", "alltoallv_time",
                  "alltoallv_transfer_time")

#: Modules imported before patching, so that every ``from x import f``
#: binding already exists when the tracer rebinds it.
PRELOAD = ("repro.cli", "repro.cluster", "repro.experiments.engine",
           "repro.experiments.applatency", "repro.experiments.migration",
           "repro.experiments.multiuser2", "repro.middleware.mpd",
           "repro.middleware.controlplane", "repro.overlay.cache",
           "repro.net.transport", "repro.net.topology",
           "repro.sim.resources", "repro.mpi.costmodel", "repro.alloc",
           "repro.alloc.diffusive", "repro.ft.migration")

#: Tracer modes: one pass each.
MODES = ("spans", "counts")


class Tracer:
    """Spans, counters and GC pauses of one pass (see module doc)."""

    def __init__(self, mode: str = "spans") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self._names: List[str] = []
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self.counts: Dict[str, int] = defaultdict(int)
        self.gc_pause_s = 0.0
        self.installed_at = 0.0
        self.uninstalled_at = 0.0
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._clusters: List[Any] = []
        self._balancers: List[Any] = []
        self._gc_t0 = 0.0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        stack, clock = self._stack, time.perf_counter
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()
        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cell(self, fn: Callable) -> Callable:
        spanned = self._span("cell", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                self._harvest()
        return wrapper

    def _harvest(self) -> None:
        counts = self.counts
        for cluster in self._clusters:
            counts["sim.events"] += cluster.sim.events_processed
            counts["net.delivered"] += cluster.network.messages_delivered
            model = cluster.app_env._costmodel
            if model is not None:
                counts["mpi.pairwise_builds"] += model.stats.pairwise_builds
        for balancer in self._balancers:
            counts["ft.migrations"] += balancer.moves
            counts["ft.rejoins"] += balancer.rejoins
        self._clusters.clear()
        self._balancers.clear()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        self._set(cls, attr, make(getattr(cls, attr)))

    def _patch_function(self, module: str, attr: str,
                        make: Callable[[Callable], Callable]) -> None:
        """Rebind ``module.attr`` and every ``from module import attr``
        binding in the already-imported ``repro`` modules."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = make(original)
        for name, mod in sorted(sys.modules.items()):
            if (name.split(".")[0] == "repro"
                    and vars(mod).get(attr) is original):
                self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Patch the layers for this tracer's mode."""
        for module in PRELOAD:
            importlib.import_module(module)
        if self.mode == "spans":
            self._install_spans()
            gc.callbacks.append(self._on_gc)
        else:
            self._install_counts()
        self.installed_at = time.perf_counter()

    def _install_spans(self) -> None:
        from repro.cluster import ClusterSpec, P2PMPICluster
        from repro.experiments.engine import ResultStore
        from repro.ft.migration import DiffusiveBalancer
        from repro.mpi.costmodel import CollectiveCostModel
        from repro.sim.resources import FilterStore

        counts = self.counts
        for module, attr in CELL_RUNNERS:
            self._patch_function(module, attr, self._cell)
        for module, attr in REPORTS:
            self._patch_function(
                module, attr, lambda fn: self._span("report.render", fn))
        for module, attr, span in FUNCTION_SPANS:
            self._patch_function(
                module, attr, lambda fn, span=span: self._span(span, fn))

        def build(fn):
            @functools.wraps(fn)
            def wrapper(spec, *args, **kwargs):
                cluster = fn(spec, *args, **kwargs)
                self._clusters.append(cluster)
                return cluster
            return self._span("cluster.build", wrapper)
        self._patch_method(ClusterSpec, "build", build)

        def balancer_start(fn):
            @functools.wraps(fn)
            def wrapper(balancer, *args, **kwargs):
                self._balancers.append(balancer)
                return fn(balancer, *args, **kwargs)
            return wrapper
        self._patch_method(DiffusiveBalancer, "start", balancer_start)
        self._patch_method(P2PMPICluster, "boot",
                           lambda fn: self._span("overlay.boot", fn))
        self._patch_method(P2PMPICluster, "submit_and_run",
                           lambda fn: self._span("middleware.submit", fn))
        for attr in KERNEL_METHODS:
            self._patch_method(CollectiveCostModel, attr,
                               lambda fn: self._span("mpi.kernel", fn))
        for attr in ("put", "get"):
            self._patch_method(FilterStore, attr,
                               lambda fn: self._span("net.inbox", fn))

        def store_write(fn, appends):
            # save() rewrites its file; append_partial() grows its file.
            @functools.wraps(fn)
            def wrapper(store, spec, results):
                partial = store.partial_path_for(spec)
                before = (partial.stat().st_size
                          if appends and partial.exists() else 0)
                path = fn(store, spec, results)
                counts["store.bytes_written"] += (
                    Path(path).stat().st_size - before)
                return path
            return self._span("store.write", wrapper)
        self._patch_method(ResultStore, "save",
                           lambda fn: store_write(fn, False))
        self._patch_method(ResultStore, "append_partial",
                           lambda fn: store_write(fn, True))

    def _install_counts(self) -> None:
        from repro.middleware.controlplane import ControlPlane
        from repro.middleware.gatekeeper import Gatekeeper
        from repro.net.topology import Topology
        from repro.net.transport import Network
        from repro.overlay.cache import PeerCache
        from repro.sim.resources import FilterStore

        counts = self.counts

        def get(fn):
            @functools.wraps(fn)
            def wrapper(store, predicate=None):
                inner = predicate or (lambda item: True)

                def counted(item):
                    counts["net.inbox_predicate_evals"] += 1
                    return inner(item)
                return fn(store, counted)
            return wrapper
        self._patch_method(FilterStore, "get", get)
        for cls, attr, key in (
                (PeerCache, "add", "overlay.cache_adds"),
                (Topology, "path_metrics", "net.path_metrics_calls"),
                (Topology, "site_path_metrics",
                 "net.site_path_metrics_calls"),
                (Network, "send", "net.sends"),
                (ControlPlane, "propose", "controlplane.proposals")):
            self._patch_method(cls, attr,
                               lambda fn, key=key: self._count(key, fn))

        def try_admit(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                admitted = fn(*args, **kwargs)
                counts["middleware.try_admit_calls"] += 1
                counts["middleware.admitted"] += bool(admitted)
                return admitted
            return wrapper
        self._patch_method(Gatekeeper, "try_admit", try_admit)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            if info["generation"] == 2:
                self.counts["gc.gen2_collections"] += 1
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.uninstalled_at = time.perf_counter()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def pristine(self) -> bool:
        """Whether every attribute the tracer touched is as it found it."""
        return (self._on_gc not in gc.callbacks
                and all(vars(owner).get(attr, _MISSING) is original
                        for owner, attr, original in self._saved))

    def result(self) -> Dict[str, Any]:
        spans = [[self._names[n], None if p < 0 else p, start, end]
                 for n, p, start, end in zip(
                     self._span_name, self._span_parent, self._span_start,
                     self._span_end)]
        return {"mode": self.mode, "spans": spans,
                "counts": dict(self.counts),
                "gc_pause_s": self.gc_pause_s,
                "traced_s": self.uninstalled_at - self.installed_at,
                "patched": len(self._saved), "pristine": self.pristine()}


def self_times(spans: List[List[Any]]) -> Dict[str, Tuple[float, int]]:
    """``{span name: (total self time in s, span count)}``.

    A span's self time is its duration minus the durations of its
    direct children.
    """
    child_s = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: Dict[str, List[float]] = {}
    for i, (name, _parent, start, end) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (end - start) - child_s[i]
        acc[1] += 1
    return {name: (acc[0], int(acc[1])) for name, acc in out.items()}
