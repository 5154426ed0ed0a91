"""The event heap / simulation clock."""

from __future__ import annotations

from heapq import heappop, heappush
from math import ulp
from operator import itemgetter
from typing import Dict, List, Optional

from repro.sim.events import Event, EventType
from repro.util.errors import SimulationError

#: priority order inside one same-instant batch (see ``events.py``)
_BATCH_ORDER = itemgetter(1, 2)  # (type, seq)

#: builds an :class:`Event` without the Python-level ``NamedTuple.__new__``
_new_event = tuple.__new__


class EventQueue:
    """A time-ordered event queue with deterministic tie-breaking.

    The heap holds :class:`Event` tuples, so ``heapq`` orders them with
    C-level tuple comparison on ``(time, type, seq)``.  Stale-event
    handling is the caller's job (events carry job epochs that handlers
    validate); the queue itself never cancels.
    """

    def __init__(self) -> None:
        #: the pending events as a heap; read-only outside this class
        #: (the simulator's loop tests it for emptiness without a call)
        self.heap: List[Event] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time (time of the last popped event)."""
        return self._now

    def __len__(self) -> int:
        return len(self.heap)

    def push(
        self, time: float, etype: EventType, job_id: int = 0, aux: int = 0
    ) -> Event:
        """Schedule an event; *time* must not precede the current clock."""
        if time < self._now - 1e-6:
            raise SimulationError(
                f"cannot schedule {etype.name} at {time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = _new_event(Event, (float(time), etype, seq, job_id, aux))
        heappush(self.heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self.heap:
            raise SimulationError("pop() on an empty event queue")
        ev = heappop(self.heap)
        self._now = ev.time
        return ev

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it, or None if empty."""
        return self.heap[0] if self.heap else None

    def next_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None if empty."""
        heap = self.heap
        return heap[0][0] if heap else None

    def pop_batch(self, out: Optional[List[Event]] = None) -> List[Event]:
        """Pop every event sharing the earliest timestamp, in priority order.

        The scheduler runs once per batch, after all state changes at that
        instant have been applied.

        Events meant for the same instant are pushed with times computed
        by different float expressions, so they can land a few ULPs apart.
        A fixed absolute tolerance (the seed used ``1e-9``) silently stops
        batching them once ``ulp(t)`` exceeds it — beyond ``t ~ 1e8`` s
        (month-scale SWF offsets live there after a few replayed years) a
        one-ULP difference split same-instant batches and caused extra
        scheduling passes.  The tolerance therefore scales with the clock:
        four ULPs at the batch's first time, floored at the seed's
        ``1e-9`` so behaviour at ordinary trace times is unchanged.  The
        heap orders by time first, so a batch spanning a few ULPs is
        re-sorted by ``(type, seq)`` — a finish a hair after a submit
        still runs first — and the clock is set to the batch's first time.

        *out*, when given, is cleared and reused as the batch list — the
        simulator's main loop passes the same list every iteration so the
        hot path allocates nothing per batch.
        """
        if out is None:
            batch: List[Event] = []
        else:
            batch = out
            batch.clear()
        heap = self.heap
        if not heap:
            return batch
        t = heap[0][0]
        self._now = t
        tol = 4.0 * ulp(t)
        if tol < 1e-9:
            tol = 1e-9
        append = batch.append
        append(heappop(heap))
        while heap and heap[0][0] - t <= tol:
            append(heappop(heap))
        if len(batch) > 1:
            batch.sort(key=_BATCH_ORDER)
        return batch

    def counts_by_type(self) -> Dict[str, int]:
        """Pending event counts per type (debugging aid)."""
        out: Dict[str, int] = {}
        for ev in self.heap:
            out[ev.type.name] = out.get(ev.type.name, 0) + 1
        return out
