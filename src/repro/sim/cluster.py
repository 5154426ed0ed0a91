"""Node-count accounting for a machine of identical nodes.

The paper's machines allocate whole nodes exclusively to jobs and nodes are
interchangeable, so the cluster state is fully captured by *counts*: a free
pool out of a fixed total.  Who holds the allocated nodes is the
simulator's business — each running job's record carries its own
allocation, the only copy of it.  Reservations for on-demand jobs are a
logical overlay kept by :class:`repro.core.reservation.ReservationBook` —
reserved-idle nodes live inside the free pool here and the book enforces
``total_held <= free``.

The cluster also integrates free-pool node-seconds over time so the
utilization metric can be cross-checked against per-job accounting: at
the end of every run the simulator checks that ``total × clock −
free_node_seconds`` equals the node-seconds its jobs' segments account
for.
"""

from __future__ import annotations

from repro.util.errors import InvariantViolation


class Cluster:
    """Free-pool bookkeeping for *total* identical nodes."""

    __slots__ = ("total", "free", "clock", "free_node_seconds")

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError("cluster must have at least one node")
        self.total = int(total)
        self.free = int(total)
        #: the time :meth:`advance` last integrated up to
        self.clock = 0.0
        #: integral of the free pool over time (includes reserved-idle)
        self.free_node_seconds = 0.0

    # ------------------------------------------------------------------
    def advance(self, t: float) -> None:
        """Accumulate the free-pool integral up to time *t*."""
        if t < self.clock - 1e-6:
            raise InvariantViolation(
                f"cluster clock moved backwards: {self.clock} -> {t}"
            )
        dt = t - self.clock
        if dt > 0.0:  # a non-positive step adds nothing
            self.free_node_seconds += dt * self.free
        self.clock = t

    # ------------------------------------------------------------------
    def allocate(self, nodes: int) -> None:
        """Take *nodes* nodes out of the free pool."""
        if nodes <= 0:
            raise InvariantViolation(f"allocation must be positive, got {nodes}")
        if nodes > self.free:
            raise InvariantViolation(
                f"requested {nodes} nodes, only {self.free} free"
            )
        self.free -= nodes

    def release(self, nodes: int) -> None:
        """Return *nodes* allocated nodes to the free pool."""
        if nodes <= 0:
            raise InvariantViolation(f"release must be positive, got {nodes}")
        if self.free + nodes > self.total:
            raise InvariantViolation(
                f"release of {nodes} nodes overfills the pool: "
                f"{self.free} of {self.total} already free"
            )
        self.free += nodes

    def resize(self, current: int, new: int) -> int:
        """Change an allocation of *current* nodes to *new*; returns the
        delta (+grow / -shrink)."""
        if new <= 0:
            raise InvariantViolation(f"resize target must be positive, got {new}")
        if new > current:
            self.allocate(new - current)
        elif new < current:
            self.release(current - new)
        return new - current
