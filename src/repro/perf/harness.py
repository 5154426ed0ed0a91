"""Warmup/repeat/min-of-k measurement shared by the whole bench fleet.

Every ``benchmarks/bench_*.py`` file and the ``perf run`` CLI time
code the same way:

* **warmup** iterations run first and are discarded (imports, caches,
  allocator warm-up);
* **repeat** timed iterations follow; the reported wall time is the
  *minimum* — the run least disturbed by the machine, the standard
  estimator for CI noise;
* when **memory** is requested, one *additional* untimed iteration
  runs under a live :class:`~repro.obs.memory.MemoryProbe` — kept out
  of the timed reps because tracemalloc taxes every allocation (2-3x
  on allocation-heavy code), and a wall-time history silently poisoned
  by a profiler would gate the wrong thing.

The measured callable may return a mapping of extra numeric metrics
(event counts, pass counts, output bytes); the mapping from the
*fastest* rep is merged into the record, and any ``*_processed`` /
``*_count`` style totals can be turned into rates by the caller.
:func:`bench` wraps a measurement into a stored :class:`PerfRecord`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.perf.record import PerfRecord, current_git_sha
from repro.perf.store import PerfStore


@dataclasses.dataclass
class Measurement:
    """One harness run: min-of-k wall time plus per-rep detail."""

    wall_time_s: float
    times_s: List[float]
    extra: Dict[str, float]
    memory: Dict[str, float]

    def metrics(self) -> Dict[str, float]:
        """The flat metric dict a :class:`PerfRecord` stores."""
        out: Dict[str, float] = {"wall_time_s": self.wall_time_s}
        out.update(self.extra)
        out.update(self.memory)
        if "events_processed" in self.extra and self.wall_time_s > 0:
            out["events_per_s"] = (
                self.extra["events_processed"] / self.wall_time_s
            )
        if "cells_processed" in self.extra and self.wall_time_s > 0:
            out["cells_per_min"] = (
                self.extra["cells_processed"] * 60.0 / self.wall_time_s
            )
        return out


def _as_float_map(value: Any) -> Dict[str, float]:
    if not isinstance(value, Mapping):
        return {}
    out = {}
    for k, v in value.items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out[str(k)] = float(v)
    return out


def measure(
    fn: Callable[[], Any],
    warmup: int = 1,
    repeat: int = 3,
    memory: bool = False,
) -> Measurement:
    """Time ``fn`` with warmup/repeat/min-of-k (see module docstring)."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    for _ in range(warmup):
        fn()
    times: List[float] = []
    extra: Dict[str, float] = {}
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if not times or elapsed < min(times):
            extra = _as_float_map(result)
        times.append(elapsed)

    mem: Dict[str, float] = {}
    if memory:
        from repro.obs.memory import MemoryProbe, gc_collections
        from repro.obs.registry import MetricsRegistry

        probe = MemoryProbe(MetricsRegistry())
        gc_before = gc_collections()
        try:
            with probe.section("perf.harness"):
                fn()
            sampled = probe.sample()
        finally:
            probe.close()
        mem = {
            "tracemalloc_peak_bytes": float(
                probe.registry.gauge("mem.tracemalloc.peak_bytes").value
            ),
            "tracemalloc_current_bytes": sampled.get(
                "mem.tracemalloc.current_bytes", 0.0
            ),
            "peak_rss_bytes": sampled.get("process.peak_rss_bytes", 0.0),
            "gc_collections": float(gc_collections() - gc_before),
        }
    return Measurement(
        wall_time_s=min(times), times_s=times, extra=extra, memory=mem
    )


def bench(
    scenario: str,
    params: Mapping[str, Any],
    fn: Callable[[], Any],
    store: Optional[PerfStore] = None,
    warmup: int = 1,
    repeat: int = 3,
    memory: bool = False,
    git_sha: Optional[str] = None,
) -> PerfRecord:
    """Measure ``fn`` and wrap the result as a (stored) perf record."""
    measurement = measure(fn, warmup=warmup, repeat=repeat, memory=memory)
    record = PerfRecord(
        scenario=scenario,
        params=dict(params),
        metrics=measurement.metrics(),
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        recorded_unix=time.time(),
    )
    if store is not None:
        store.append(record)
    return record
