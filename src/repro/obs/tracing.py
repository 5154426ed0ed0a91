"""Span tracing: nested timed regions with a bounded ring buffer.

A span is one timed region of one thread — a scheduling pass, a
campaign cell, a shard merge.  Spans nest: entering ``sim.pass`` while
``campaign.cell`` is open records the parent-child relation via per-
thread depth tracking, which is exactly what the Chrome trace-event /
Perfetto renderer needs to draw flame-style timelines
(:mod:`repro.obs.export`).

Memory is bounded by construction: completed spans land in a
``collections.deque(maxlen=capacity)`` ring, so a month-scale simulation
with millions of passes keeps only the newest ``capacity`` spans and a
counter of how many were started in total — the exporter reports the
truncation instead of the process OOMing.  The disabled path
(:class:`NullTracer`) hands out one shared no-op context manager, so an
always-wired ``with obs.span(...)`` costs two no-op calls when tracing
is off.

Timestamps are ``time.perf_counter()`` relative to the tracer's
creation, paired with one wall-clock anchor (``epoch_s``) so exported
traces can be correlated across processes.
"""

from __future__ import annotations

import struct
import threading
import time
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Tuple, Union

#: default ring capacity — ~8MB of spans at worst, far below sim state
DEFAULT_CAPACITY = 65_536


class SpanRecord(NamedTuple):
    """One completed span (times in seconds relative to tracer start).

    A NamedTuple, not a dataclass: span completion is on the traced hot
    path (one record per scheduling pass), and tuple construction is
    several times cheaper than a frozen dataclass ``__init__``.
    """

    name: str
    start_s: float
    duration_s: float
    thread_id: int
    depth: int
    attrs: Tuple[Tuple[str, object], ...] = ()

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


#: a :meth:`Tracer.record` span as stored in the ring: name index,
#: start_s, duration_s, thread id, depth.  ``bytes`` are not tracked by
#: the garbage collector, so a loop that records a span per iteration
#: adds no collector work; a tuple per span would, and on a 10k-pass
#: simulation those tuples alone pulled full collections into traced
#: runs.
_PACKED = struct.Struct("=IddQq")


class _SpanHandle:
    """The live context manager for one span; append-on-exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        local = tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer.n_started += 1
        attrs = self._attrs
        tracer.spans.append(
            SpanRecord(
                self._name,
                self._start - tracer.t0,
                end - self._start,
                threading.get_ident(),
                self._depth,
                tuple(attrs.items()) if attrs else (),
            )
        )


class Tracer:
    """Collects spans into a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        #: completed spans, oldest first; a ``bytes`` entry is a packed
        #: :meth:`record` span (:meth:`records` unpacks it)
        self.spans: Deque[Union[SpanRecord, bytes]] = deque(maxlen=capacity)
        #: names of :meth:`record` spans, by the index packed with them
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: spans ever completed, including ones the ring has dropped
        self.n_started = 0
        self.t0 = time.perf_counter()
        #: wall-clock instant matching relative time 0.0
        self.epoch_s = time.time()
        self._local = threading.local()

    def span(self, name: str, **attrs) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    def record(self, name: str, start: float) -> None:
        """Record an attribute-free span from ``perf_counter()`` *start*
        to now, at the calling thread's current depth.

        The cheap form of ``with span(name):`` for a region that opens
        no span inside it: no handle object, no depth bookkeeping, and
        the span is stored packed (see ``_PACKED``).  The simulator
        times each scheduling pass with it.
        """
        end = time.perf_counter()
        self.n_started += 1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self.spans.append(_PACKED.pack(
            name_id,
            start - self.t0,
            end - start,
            threading.get_ident(),
            getattr(self._local, "depth", 0),
        ))

    @property
    def n_dropped(self) -> int:
        return self.n_started - len(self.spans)

    def current_depth(self) -> int:
        """Nesting depth of the calling thread (0 outside any span)."""
        return getattr(self._local, "depth", 0)

    def records(self) -> List[SpanRecord]:
        """Completed spans, oldest first (ring order)."""
        names = self._names
        out: List[SpanRecord] = []
        for rec in self.spans:
            if rec.__class__ is bytes:
                name_id, start_s, duration_s, thread_id, depth = (
                    _PACKED.unpack(rec)
                )
                rec = SpanRecord(
                    names[name_id], start_s, duration_s, thread_id, depth
                )
            out.append(rec)
        return out

    def by_name(self) -> Dict[str, List[SpanRecord]]:
        out: Dict[str, List[SpanRecord]] = {}
        for rec in self.records():
            out.setdefault(rec.name, []).append(rec)
        return out

    def clear(self) -> None:
        self.spans.clear()
        self.n_started = 0


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled default: ``span()`` returns one shared no-op."""

    capacity = 0
    n_started = 0
    n_dropped = 0
    epoch_s = 0.0
    spans: Deque[SpanRecord] = deque(maxlen=0)

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, start: float) -> None:
        pass

    def current_depth(self) -> int:
        return 0

    def records(self) -> List[SpanRecord]:
        return []

    def by_name(self) -> Dict[str, List[SpanRecord]]:
        return {}

    def clear(self) -> None:
        pass
