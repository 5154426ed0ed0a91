"""Rigid-job execution timeline (§III-A).

A rigid job's life on the machine is a sequence of *segments*.  Each segment
begins with ``setup`` seconds of communication setup, then alternates
``tau``-second compute chunks with ``cost``-second checkpoint writes:

    |-- setup --|== tau ==|-ckpt-|== tau ==|-ckpt-| ... |== rest ==| done

Compute progress is only *retained* at completed checkpoints: preempting a
segment rolls the job back to its last completed checkpoint (or to the
segment's starting point if none completed).  A resumed job starts a fresh
segment — paying setup again — from the retained compute offset.

Two classes:

* :class:`RigidTimeline` — immutable closed-form math for one segment.
* :class:`RigidExecution` — the mutable per-job object that strings
  segments together across preemptions and accumulates the node-second
  accounting used by the utilization metric.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.jobs.job import Job
from repro.util.errors import InvariantViolation

#: Absolute slack for floating-point time comparisons.
EPS = 1e-6


class SegmentAccounting(NamedTuple):
    """Node-second decomposition of one closed segment.

    ``allocated == setup + compute + checkpoint`` and
    ``compute == retained + lost`` (all in node-seconds).  Both execution
    models return it; a malleable segment has ``checkpoint == lost == 0``.
    An immutable tuple: one is built per closed segment, on the job-finish
    hot path.
    """

    allocated: float
    setup: float
    compute: float
    checkpoint: float
    retained: float
    lost: float

    def validate(self) -> None:
        if abs(self.allocated - (self.setup + self.compute + self.checkpoint)) > 1e-3:
            raise InvariantViolation(
                f"segment accounting mismatch: alloc={self.allocated} "
                f"setup={self.setup} compute={self.compute} ckpt={self.checkpoint}"
            )
        if abs(self.compute - (self.retained + self.lost)) > 1e-3:
            raise InvariantViolation(
                f"compute split mismatch: compute={self.compute} "
                f"retained={self.retained} lost={self.lost}"
            )


def _checkpoints_within(work: float, interval: float) -> int:
    """Checkpoints written while computing *work* seconds from a segment's
    start: one per *interval*, none at the finish line."""
    if math.isinf(interval):
        return 0
    return max(0, math.ceil(work / interval - EPS) - 1)


class RigidTimeline:
    """Closed-form wall-clock math for a single rigid running segment.

    Parameters
    ----------
    start:
        Wall time the segment begins.
    setup:
        Setup seconds paid at the head of the segment.
    base_work:
        Compute-seconds already retained when the segment begins (0 for a
        fresh job; the last checkpoint offset for a resumed one).
    total_work:
        The job's full compute demand in compute-seconds.
    interval:
        Compute-seconds between checkpoints (``math.inf`` disables them).
    cost:
        Wall-clock seconds each checkpoint takes (no compute progresses).
    """

    __slots__ = (
        "start", "setup", "base_work", "total_work", "interval", "cost",
        "_n_checkpoints", "_finish",
    )

    def __init__(
        self,
        start: float,
        setup: float,
        base_work: float,
        total_work: float,
        interval: float,
        cost: float,
    ) -> None:
        if total_work <= 0:
            raise ValueError("total_work must be positive")
        if not (0.0 <= base_work < total_work):
            raise ValueError(
                f"base_work must be in [0, total_work): {base_work} vs {total_work}"
            )
        if interval <= 0:
            raise ValueError("interval must be positive (use inf to disable)")
        if cost < 0:
            raise ValueError("cost must be non-negative")
        if setup < 0:
            raise ValueError("setup must be non-negative")
        self.start = float(start)
        self.setup = float(setup)
        self.base_work = float(base_work)
        self.total_work = float(total_work)
        self.interval = float(interval)
        self.cost = float(cost)
        # the timeline is immutable: its checkpoint count and natural
        # finish are computed once
        remaining = self.total_work - self.base_work
        self._n_checkpoints = _checkpoints_within(remaining, self.interval)
        self._finish = (
            self.start + self.setup + remaining + self._n_checkpoints * self.cost
        )

    # ------------------------------------------------------------------
    @property
    def remaining_work(self) -> float:
        """Compute-seconds between ``base_work`` and completion."""
        return self.total_work - self.base_work

    @property
    def num_checkpoints(self) -> int:
        """Checkpoints taken before the segment completes.

        Marks sit at ``base_work + i * interval`` for ``i >= 1`` strictly
        below ``total_work`` — there is no point checkpointing at the
        finish line.
        """
        return self._n_checkpoints

    def finish_time(self) -> float:
        """Wall time the segment completes if never interrupted:
        ``start + setup + remaining_work + num_checkpoints * cost``."""
        return self._finish

    def wall_for_work(self, work: float) -> float:
        """Wall-clock duration to finish if the demand were *work*.

        Since estimates never undershoot actuals, the wall for the
        estimate never undershoots the true finish.
        """
        if work < self.base_work:
            raise ValueError("work estimate below already-retained work")
        r = work - self.base_work
        if r <= 0:
            return self.setup
        return self.setup + r + _checkpoints_within(r, self.interval) * self.cost

    def checkpoint_completion_time(self, i: int) -> float:
        """Wall time checkpoint *i* (1-based) finishes writing."""
        if not (1 <= i <= self.num_checkpoints):
            raise ValueError(
                f"checkpoint index {i} outside [1, {self.num_checkpoints}]"
            )
        return self.start + self.setup + i * (self.interval + self.cost)

    # ------------------------------------------------------------------
    def _elapsed_exec(self, t: float) -> float:
        """Post-setup execution seconds at wall time *t*, clamped."""
        return max(0.0, min(t, self._finish) - self.start - self.setup)

    def completed_checkpoints_at(self, t: float) -> int:
        """Checkpoints fully written by wall time *t*."""
        if math.isinf(self.interval):
            return 0
        if t >= self._finish - EPS:
            return self.num_checkpoints
        e = self._elapsed_exec(t)
        cycle = self.interval + self.cost
        return min(self.num_checkpoints, int((e + EPS) // cycle))

    def progress_at(self, t: float) -> float:
        """Raw compute-seconds executed beyond ``base_work`` by time *t*.

        Includes compute that would be *lost* if the job were preempted at
        *t* (work past the last completed checkpoint).
        """
        if t >= self._finish - EPS:
            return self.remaining_work
        e = self._elapsed_exec(t)
        if math.isinf(self.interval):
            return min(e, self.remaining_work)
        cycle = self.interval + self.cost
        full_cycles = int((e + EPS) // cycle)
        within = e - full_cycles * cycle
        p = full_cycles * self.interval + min(within, self.interval)
        return min(p, self.remaining_work)

    def retained_at(self, t: float) -> float:
        """Absolute retained compute offset if preempted at time *t*."""
        if t >= self._finish - EPS:
            return self.total_work
        k = self.completed_checkpoints_at(t)
        return min(self.total_work, self.base_work + k * self.interval if k else self.base_work)

    def last_checkpoint_completion_at_or_before(self, t: float) -> float | None:
        """Latest checkpoint-completion instant ``<= t``, or None.

        CUP preempts rigid victims "immediately after checkpointing": it
        schedules the preemption at this instant relative to the on-demand
        job's predicted arrival.
        """
        k = self.completed_checkpoints_at(t)
        if k == 0:
            return None
        return self.checkpoint_completion_time(k)

    def accounting_until(self, t: float, nodes: int) -> SegmentAccounting:
        """Node-second decomposition of the segment up to wall time *t*.

        *t* is clamped to the segment's natural finish; at or past the
        finish the segment retains all its remaining work (nothing lost).
        """
        end = min(t, self._finish)
        wall = max(0.0, end - self.start)
        setup_spent = min(wall, self.setup)
        progress = self.progress_at(end)
        ckpt_spent = max(0.0, wall - setup_spent - progress)
        retained_delta = self.retained_at(end) - self.base_work
        lost = progress - retained_delta
        acc = SegmentAccounting(
            allocated=wall * nodes,
            setup=setup_spent * nodes,
            compute=progress * nodes,
            checkpoint=ckpt_spent * nodes,
            retained=retained_delta * nodes,
            lost=lost * nodes,
        )
        acc.validate()
        return acc


class RigidExecution:
    """Mutable per-job execution state for rigid (and on-demand) jobs.

    One instance lives for the job's whole life and strings running
    segments together across preemptions.  On-demand jobs reuse this class
    with checkpointing disabled and zero setup — they are never preempted,
    so the rollback machinery is simply never exercised.
    """

    __slots__ = ("job", "nodes", "interval", "cost", "completed_work", "timeline")

    def __init__(self, job: Job, interval: float, cost: float) -> None:
        self.job = job
        self.nodes = job.size
        self.interval = float(interval)
        self.cost = float(cost)
        #: compute-seconds retained across segments (checkpoint offset)
        self.completed_work = 0.0
        self.timeline: RigidTimeline | None = None

    def start_segment(self, t: float, nodes: int) -> None:
        """Begin a (re)start on *nodes* (always ``job.size``) at wall time
        *t* from the retained offset."""
        if self.timeline is not None:
            raise InvariantViolation(
                f"job {self.job.job_id}: start_segment while already running"
            )
        if nodes != self.nodes:
            raise InvariantViolation(
                f"{self.job.job_type.value} job {self.job.job_id} started on "
                f"{nodes} != {self.nodes} nodes"
            )
        self.timeline = RigidTimeline(
            start=t,
            setup=self.job.setup_time,
            base_work=self.completed_work,
            total_work=self.job.runtime,
            interval=self.interval,
            cost=self.cost,
        )

    def finish_time(self) -> float:
        """Wall time the current segment completes the job."""
        if self.timeline is None:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        return self.timeline._finish

    def predict_wall(self, nodes: int) -> float:
        """Wall time to finish by the user's estimate if a segment started
        now (on *nodes*, always ``job.size``) from the retained offset.

        The estimate counts from the job's start, so it is raised to just
        above the retained work when a resumed job has already passed it.
        """
        base = self.completed_work
        work = max(self.job.estimate, base + EPS) - base
        return (
            self.job.setup_time + work
            + _checkpoints_within(work, self.interval) * self.cost
        )

    def predicted_finish(self) -> float:
        """Finish prediction based on the user's estimate (for EASY)."""
        if self.timeline is None:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        return self.timeline.start + self.predict_wall(self.nodes)

    def preemption_loss(self, t: float) -> float:
        """Node-seconds that would be wasted by preempting at time *t*.

        Lost compute since the last checkpoint plus the setup the resumed
        segment will have to re-pay — the victim-ordering key of §III-B
        ("ascending order of their preemption overheads").
        """
        if self.timeline is None:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        tl = self.timeline
        lost = tl.progress_at(t) - (tl.retained_at(t) - tl.base_work)
        return (lost + self.job.setup_time) * self.nodes

    def last_checkpoint_completion_at_or_before(self, t: float) -> float | None:
        if self.timeline is None:
            return None
        return self.timeline.last_checkpoint_completion_at_or_before(t)

    def preempt(self, t: float) -> SegmentAccounting:
        """Close the current segment by preemption at time *t*.

        Rolls retained work back to the last completed checkpoint and
        returns the segment accounting (caller merges it into JobStats).
        """
        if self.timeline is None:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        if t > self.timeline._finish + EPS:
            raise InvariantViolation(
                f"job {self.job.job_id}: preempt at {t} after finish "
                f"{self.timeline._finish}"
            )
        acc = self.timeline.accounting_until(t, self.nodes)
        self.completed_work = self.timeline.retained_at(t)
        self.timeline = None
        return acc

    def complete(self, t: float) -> SegmentAccounting:
        """Close the current segment by natural completion at time *t*.

        Equal, field for field, to ``timeline.accounting_until(finish)``
        in closed form: at its natural finish a segment has executed and
        retained all of its remaining work, so nothing is lost.  The float
        expressions are the ones ``accounting_until`` evaluates there.
        """
        tl = self.timeline
        if tl is None:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        ft = tl._finish
        if abs(t - ft) > 1e-3:
            raise InvariantViolation(
                f"job {self.job.job_id}: complete() at {t}, natural finish {ft}"
            )
        nodes = self.nodes
        wall = max(0.0, ft - tl.start)
        setup_spent = min(wall, tl.setup)
        progress = tl.total_work - tl.base_work
        acc = SegmentAccounting(
            allocated=wall * nodes,
            setup=setup_spent * nodes,
            compute=progress * nodes,
            checkpoint=max(0.0, wall - setup_spent - progress) * nodes,
            retained=progress * nodes,
            lost=0.0,
        )
        acc.validate()
        self.completed_work = self.job.runtime
        self.timeline = None
        return acc
