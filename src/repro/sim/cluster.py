"""Node-count accounting for a machine of identical nodes.

The paper's machines allocate whole nodes exclusively to jobs and nodes are
interchangeable, so the cluster state is fully captured by *counts*: a free
pool plus one allocation count per running job.  Reservations for on-demand
jobs are a logical overlay kept by :class:`repro.core.reservation.ReservationBook`
— reserved-idle nodes live inside the free pool here and the book enforces
``total_held <= free``.

The cluster also integrates free-pool node-seconds over time so the
utilization metric can be cross-checked against per-job accounting.
"""

from __future__ import annotations

from typing import Dict

from repro.util.errors import InvariantViolation


class Cluster:
    """Allocation bookkeeping for *total* identical nodes."""

    __slots__ = (
        "total",
        "free",
        "running",
        "_alloc_total",
        "_last_t",
        "free_node_seconds",
    )

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError("cluster must have at least one node")
        self.total = int(total)
        self.free = int(total)
        #: job_id -> allocated node count
        self.running: Dict[int, int] = {}
        self._alloc_total = 0
        self._last_t = 0.0
        #: integral of the free pool over time (includes reserved-idle)
        self.free_node_seconds = 0.0

    # ------------------------------------------------------------------
    def advance(self, t: float) -> None:
        """Accumulate the free-pool integral up to time *t*."""
        if t < self._last_t - 1e-6:
            raise InvariantViolation(
                f"cluster clock moved backwards: {self._last_t} -> {t}"
            )
        dt = t - self._last_t
        if dt > 0.0:  # a non-positive step adds nothing
            self.free_node_seconds += dt * self.free
        self._last_t = t

    # ------------------------------------------------------------------
    def start_job(self, job_id: int, nodes: int) -> None:
        """Allocate *nodes* free nodes exclusively to *job_id*."""
        if nodes <= 0:
            raise InvariantViolation(f"job {job_id}: allocation must be positive")
        if job_id in self.running:
            raise InvariantViolation(f"job {job_id} already has an allocation")
        if nodes > self.free:
            raise InvariantViolation(
                f"job {job_id}: requested {nodes} nodes, only {self.free} free"
            )
        self.free -= nodes
        self.running[job_id] = nodes
        self._alloc_total += nodes
        self._check()

    def end_job(self, job_id: int) -> int:
        """Release a job's allocation back to the free pool; returns count."""
        if job_id not in self.running:
            raise InvariantViolation(f"job {job_id} has no allocation")
        nodes = self.running.pop(job_id)
        self.free += nodes
        self._alloc_total -= nodes
        self._check()
        return nodes

    def resize_job(self, job_id: int, new_nodes: int) -> int:
        """Change a job's allocation; returns the delta (+grow / -shrink)."""
        if job_id not in self.running:
            raise InvariantViolation(f"job {job_id} has no allocation")
        if new_nodes <= 0:
            raise InvariantViolation(
                f"job {job_id}: resize target must be positive, got {new_nodes}"
            )
        delta = new_nodes - self.running[job_id]
        if delta > self.free:
            raise InvariantViolation(
                f"job {job_id}: expand by {delta} exceeds free pool {self.free}"
            )
        self.free -= delta
        self.running[job_id] = new_nodes
        self._alloc_total += delta
        self._check()
        return delta

    # ------------------------------------------------------------------
    def allocation(self, job_id: int) -> int:
        """Current allocation of a running job."""
        if job_id not in self.running:
            raise InvariantViolation(f"job {job_id} has no allocation")
        return self.running[job_id]

    @property
    def used(self) -> int:
        """Total nodes currently allocated to running jobs."""
        return self.total - self.free

    def _check(self) -> None:
        if self.free < 0:
            raise InvariantViolation(f"free pool went negative: {self.free}")
        if self._alloc_total + self.free != self.total:
            raise InvariantViolation(
                f"node conservation broken: alloc={self._alloc_total} "
                f"free={self.free} total={self.total}"
            )
