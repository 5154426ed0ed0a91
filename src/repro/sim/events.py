"""Event types and ordering for the discrete-event engine.

Events at the *same* timestamp are processed in a fixed priority order so
simulations are deterministic regardless of heap insertion order:

1. ``JOB_FINISH`` — completions free nodes first;
2. ``JOB_FAILURE`` — failure injection (a finish at the same instant wins);
3. ``PLANNED_PREEMPT`` — CUP's scheduled preemptions fire next;
4. ``ADVANCE_NOTICE`` — on-demand notices;
5. ``JOB_SUBMIT`` — submissions / on-demand actual arrivals;
6. ``RESERVATION_TIMEOUT`` — reservation expiry;
7. ``END_OF_TRACE`` — bookkeeping sentinel.

A single scheduling pass runs after each same-timestamp batch.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class EventType(enum.IntEnum):
    """Event kinds, ordered by same-timestamp processing priority."""

    JOB_FINISH = 0
    JOB_FAILURE = 1
    PLANNED_PREEMPT = 2
    ADVANCE_NOTICE = 3
    JOB_SUBMIT = 4
    RESERVATION_TIMEOUT = 5
    END_OF_TRACE = 6


class Event(NamedTuple):
    """A scheduled simulator event: a plain tuple, so the heap compares in C.

    Ordering is ``(time, type, seq)``: ``seq`` is a unique, monotonically
    increasing tiebreaker assigned by the queue, so FIFO order holds
    within a (time, type) group and the payload fields are never
    compared.  The payload is two ints:

    * ``job_id`` — the job the event concerns (the on-demand job for
      ``PLANNED_PREEMPT`` and ``RESERVATION_TIMEOUT``);
    * ``aux`` — the allocation epoch for ``JOB_FINISH``/``JOB_FAILURE``,
      the victim's id for ``PLANNED_PREEMPT``, 0 otherwise.

    The field order is a contract with two hot loops that index the
    tuple instead of naming fields: ``EventQueue`` reads ``time`` as
    element 0, and ``Simulation.run`` unpacks each batch positionally.
    A change to the fields changes both.
    """

    time: float
    type: EventType
    seq: int
    job_id: int = 0
    aux: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(t={self.time:.1f}, {self.type.name}, "
            f"job_id={self.job_id}, aux={self.aux})"
        )
