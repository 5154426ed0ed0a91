"""The event heap / simulation clock."""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.sim.events import Event, EventType
from repro.util.errors import SimulationError


def _batch_tolerance(t: float) -> float:
    """Same-instant tolerance at simulation time *t*.

    Events meant for the same instant are pushed with times computed by
    different float expressions, so they can land a few ULPs apart.  A
    fixed absolute tolerance (the seed used ``1e-9``) silently stops
    batching them once ``ulp(t)`` exceeds it — beyond ``t ~ 1e8`` s
    (month-scale SWF offsets live there after a few replayed years) a
    one-ULP difference split same-instant batches and caused extra
    scheduling passes.  Scale the tolerance with the clock: a few ULPs
    at the current magnitude, floored at the seed's ``1e-9`` so
    behaviour at ordinary trace times is unchanged.
    """
    return max(1e-9, 4.0 * math.ulp(t))


#: priority order inside one same-instant batch (see ``events.py``)
_BATCH_ORDER = attrgetter("type", "seq")


class EventQueue:
    """A time-ordered event queue with deterministic tie-breaking.

    Stale-event handling is the caller's job (events carry payloads such as
    job epochs that handlers validate); the queue itself never cancels.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time (time of the last popped event)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, etype: EventType, **payload: Any) -> Event:
        """Schedule an event; *time* must not precede the current clock."""
        if time < self._now - 1e-6:
            raise SimulationError(
                f"cannot schedule {etype.name} at {time} before now={self._now}"
            )
        ev = Event(time=float(time), type=etype, seq=self._seq, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        ev = heapq.heappop(self._heap)
        self._now = ev.time
        return ev

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it, or None if empty."""
        return self._heap[0] if self._heap else None

    def pop_batch(self, out: Optional[List[Event]] = None) -> List[Event]:
        """Pop every event sharing the earliest timestamp, in priority order.

        The scheduler runs once per batch, after all state changes at that
        instant have been applied.  Same-instant grouping uses a
        ULP-relative tolerance (:func:`_batch_tolerance`) so batches are
        not split at large simulation times.  The heap orders by time
        first, so a batch spanning a few ULPs is re-sorted by
        ``(type, seq)`` — a finish a hair after a submit still runs
        first — and the clock is pinned to the batch's first time.

        *out*, when given, is cleared and reused as the batch list — the
        simulator's main loop passes the same list every iteration so the
        hot path allocates nothing per batch.
        """
        if out is None:
            batch: List[Event] = []
        else:
            batch = out
            batch.clear()
        if not self._heap:
            return batch
        t = self._heap[0].time
        tol = _batch_tolerance(t)
        while self._heap and self._heap[0].time - t <= tol:
            batch.append(self.pop())
        if len(batch) > 1:
            batch.sort(key=_BATCH_ORDER)
            self._now = t
        return batch

    def counts_by_type(self) -> Dict[str, int]:
        """Pending event counts per type (debugging aid)."""
        out: Dict[str, int] = {}
        for ev in self._heap:
            out[ev.type.name] = out.get(ev.type.name, 0) + 1
        return out
