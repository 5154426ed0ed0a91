"""Outside-in layer tracing: time calls into each layer's public functions.

The program is not instrumented for this.  :class:`LayerTrace` swaps
each listed function or method for a wrapper that records one span per
call, runs the traced work, and puts the originals back.  A span is
``(name, start, end, parent)``; spans stay in memory and are written
once, at the end, as Chrome trace-event JSON.  A layer's self time is
the duration of its spans minus the time covered by their child spans,
so time spent in a nested call is charged to the innermost layer.

Layers are modules of ``repro``; see :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None for a module-level function, attribute)
Target = Tuple[str, Optional[str], str]

#: Each layer and the calls that are charged to it.
LAYERS: Dict[str, List[Target]] = {
    "workload": [
        ("repro.workload.trace_cache", "TraceCache", "theta_rows"),
        ("repro.workload.trace_cache", "TraceCache", "swf_jobs"),
        # a cache miss generates or parses the trace inside the lookup
        ("repro.workload.theta", "ThetaWorkloadGenerator", "build_rows"),
        ("repro.workload.swf", None, "load_swf"),
        # next() on the job stream: see _wrap_stream_iter
        ("repro.workload.stream", "JobStream", "__iter__"),
    ],
    "engine": [
        ("repro.sim.engine", "EventQueue", "push"),
        ("repro.sim.engine", "EventQueue", "pop_batch"),
    ],
    "sim": [("repro.sim.simulator", "Simulation", "run")],
    "coordinator": [
        ("repro.core.coordinator", "HybridCoordinator", name)
        for name in (
            "on_advance_notice",
            "on_planned_preempt",
            "on_od_arrival",
            "on_reservation_timeout",
            "on_od_completion",
            "on_job_release",
            "try_start_queued_od",
            "absorb_free",
        )
    ],
    "reservation": [
        ("repro.core.reservation", "ReservationBook", name)
        for name in ("advance", "active_reservations", "holding_reservations")
    ],
    "policy": [("repro.sched.policy", "SchedulingPolicy", "order")],
    "planner": [
        ("repro.sched.easy", "BackfillPlanner", "plan"),
        ("repro.sched.conservative", "ConservativeBackfillPlanner", "plan"),
    ],
    "profile": [
        ("repro.sched.profile", "ProfileView", "reset"),
        ("repro.sched.profile", "ProfileView", "shadow"),
        ("repro.sched.profile", "ProfileView", "build_profile"),
        ("repro.sched.profile", "AvailabilityTimeline", "set_block"),
        ("repro.sched.profile", "AvailabilityTimeline", "remove_block"),
    ],
    "metrics": [
        ("repro.metrics.accumulators", "SummaryAccumulator", "observe_finished"),
        ("repro.metrics.summary", None, "summarize"),
    ],
    "campaign": [
        ("repro.campaign.executor", None, "run_campaign"),
        ("repro.campaign.executor", None, "execute_cell"),
    ],
}

#: Per-layer counters beyond calls/self_s/share, in report order.
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("policy.queue_len_mean", "jobs"),
    ("planner.starts", "count"),
    ("planner.start_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.passes_run", "count"),
    ("sim.skip_ratio", "ratio"),
    ("engine.events_per_batch", "events"),
    ("reservation.calls_per_pass", "calls"),
    ("workload.cache_hit_ratio", "ratio"),
    ("campaign.overhead_per_cell_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(EXTRA_METRICS)
    return units


class SpanLog:
    """Spans held in flat arrays: name id, start, end and parent index.

    *clock* returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Dict[str, Tuple[int, int]]:
        """``{span name: (calls, self ns)}``: duration minus child spans."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        own = [0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            nid = name_of[i]
            calls[nid] += 1
            own[nid] += end[i] - start[i] - child[i]
        return {
            name: (calls[nid], own[nid]) for nid, name in enumerate(self.names)
        }

    def write_chrome(self, path: str) -> None:
        """All spans as gzipped Chrome trace-event JSON (``X`` events).

        ``args.parent`` is the index of the enclosing span in write
        order, or -1 for a root span.
        """
        t0 = self.start[0] if len(self.start) else 0
        quoted = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"traceEvents":[\n')
            for i in range(len(self.start)):
                fh.write(
                    '%s{"name":%s,"ph":"X","pid":1,"tid":1,"ts":%.3f,'
                    '"dur":%.3f,"args":{"parent":%d}}\n'
                    % (
                        "," if i else "",
                        quoted[self.name_of[i]],
                        (self.start[i] - t0) / 1e3,
                        (self.end[i] - self.start[i]) / 1e3,
                        self.parent[i],
                    )
                )
            fh.write("]}\n")


class LayerTrace:
    """Install span wrappers on every :data:`LAYERS` target, then remove them.

    Use as a context manager around the traced work only: outside the
    ``with`` block every target is the original object again.  Besides
    spans, a few wrappers look at results to count work (queue lengths,
    plans that started a job, events per batch).
    """

    def __init__(
        self,
        layers: Optional[Dict[str, List[Target]]] = None,
        log: Optional[SpanLog] = None,
    ) -> None:
        self.layers = LAYERS if layers is None else layers
        self.log = SpanLog() if log is None else log
        self.counts: Dict[str, int] = {}
        #: (owner object, attribute, original value) for every patch
        self._patched: List[Tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------
    def __enter__(self) -> "LayerTrace":
        try:
            for layer, targets in self.layers.items():
                for module, cls, attr in targets:
                    self._install(layer, module, cls, attr)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def remove(self) -> None:
        """Put back every original, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(
        self, layer: str, module: str, cls: Optional[str], attr: str
    ) -> None:
        mod = importlib.import_module(module)
        if cls is None:
            original = getattr(mod, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            # a module-level function may also be bound by name in the
            # modules that imported it; patch each of those bindings
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name.startswith("repro") and getattr(
                    other, attr, None
                ) is original:
                    self._patch(other, attr, wrapper)
            return
        owner = getattr(mod, cls)
        original = owner.__dict__[attr]
        name = f"{layer}.{cls}.{attr}"
        if attr == "__iter__":
            wrapper = self._wrap_stream_iter(name, original)
        else:
            wrapper = self._wrap(name, original)
        self._patch(owner, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # the owner's own binding, not an inherited one, is what goes back
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn: Callable) -> Callable:
        log = self.log
        nid = log.name_id(name)
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observer(self, name: str) -> Optional[Callable]:
        count = self._count
        if name == "policy.SchedulingPolicy.order":
            return lambda result: count("queue_len", len(result))
        if name.startswith("planner.") and name.endswith(".plan"):
            return lambda result: count("plans_started", bool(result))
        if name == "engine.EventQueue.pop_batch":
            return lambda result: count("batch_events", len(result))
        if name == "sim.Simulation.run":

            def observe_run(result) -> None:
                count("events", result.events_processed)
                count("passes_run", result.schedule_passes)
                count("passes_skipped", result.passes_skipped)

            return observe_run
        if name in ("workload.ThetaWorkloadGenerator.build_rows", "workload.load_swf"):
            return lambda result: count("cache_misses")
        return None

    def _wrap_stream_iter(self, name: str, original: Callable) -> Callable:
        """``JobStream.__iter__`` returning an iterator that spans ``next()``."""
        log = self.log
        nid = log.name_id(name.replace("__iter__", "next"))

        class TimedJobs:
            __slots__ = ("_it",)

            def __init__(self, it) -> None:
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = log.open(nid)
                try:
                    return next(self._it)
                finally:
                    log.close(idx)

        @functools.wraps(original)
        def wrapper(stream):
            return TimedJobs(original(stream))

        return wrapper

    # -- report ---------------------------------------------------------
    def report(self, traced_s: float, overhead: float) -> Dict[str, float]:
        """Every per-layer metric of :func:`metric_units`.

        *traced_s* is the wall time of the traced operations, the
        denominator of each share; *overhead* is reported as
        ``trace.overhead`` (traced over untraced time per operation).
        """
        per_name = self.log.self_times()
        calls = {layer: 0 for layer in self.layers}
        self_ns = {layer: 0 for layer in self.layers}
        for name, (n, own) in per_name.items():
            layer = name.split(".", 1)[0]
            calls[layer] += n
            self_ns[layer] += own
        out: Dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.share"] = self_ns[layer] / 1e9 / traced_s
        c = self.counts.get

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        n_order = per_name.get("policy.SchedulingPolicy.order", (0, 0))[0]
        n_plans = sum(
            n for name, (n, _) in per_name.items() if name.startswith("planner.")
        )
        n_batches = per_name.get("engine.EventQueue.pop_batch", (0, 0))[0]
        lookups = sum(
            per_name.get(f"workload.TraceCache.{m}", (0, 0))[0]
            for m in ("theta_rows", "swf_jobs")
        )
        cells = per_name.get("campaign.execute_cell", (0, 0))[0]
        out["policy.queue_len_mean"] = ratio(c("queue_len", 0), n_order)
        out["planner.starts"] = c("plans_started", 0)
        out["planner.start_ratio"] = ratio(c("plans_started", 0), n_plans)
        out["sim.events"] = c("events", 0)
        out["sim.passes_run"] = c("passes_run", 0)
        out["sim.skip_ratio"] = ratio(
            c("passes_skipped", 0), c("passes_run", 0) + c("passes_skipped", 0)
        )
        out["engine.events_per_batch"] = ratio(c("batch_events", 0), n_batches)
        out["reservation.calls_per_pass"] = ratio(
            calls.get("reservation", 0), c("passes_run", 0)
        )
        out["workload.cache_hit_ratio"] = ratio(
            lookups - c("cache_misses", 0), lookups
        )
        out["campaign.overhead_per_cell_s"] = ratio(
            self_ns.get("campaign", 0) / 1e9, cells
        )
        out["trace.overhead"] = overhead
        out["trace.coverage"] = ratio(sum(self_ns.values()) / 1e9, traced_s)
        return out
