"""Job models: types, state machine, and execution models.

This subpackage implements §III-A of the paper:

* :class:`~repro.jobs.job.Job` — the static description of a job (what a
  user submits) plus mutable scheduling bookkeeping.
* :class:`~repro.jobs.checkpoint.CheckpointModel` — per-checkpoint cost
  (600 s / 1200 s by size) and Daly's optimal interval.
* :class:`~repro.jobs.rigid_exec.RigidTimeline` /
  :class:`~repro.jobs.rigid_exec.RigidExecution` — the piecewise
  setup→compute→checkpoint wall-clock timeline of a rigid job, with
  preemption rollback to the last completed checkpoint.  On-demand jobs
  use the same model with checkpointing off.
* :class:`~repro.jobs.malleable_exec.MalleableExecution` — the
  linear-speedup work model (``t = t_single / n + t_setup``) with free
  shrink/expand and loss-free preemption.

Both execution models share one interface (``start_segment``,
``predict_wall``, ``predicted_finish``, ``preempt``/``complete`` returning
one :class:`~repro.jobs.rigid_exec.SegmentAccounting`, ...), so the
simulator never asks which kind of job it runs; :func:`new_execution`
picks a job's model.
"""

import math
from typing import Union

from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType, NoticeClass
from repro.jobs.malleable_exec import MalleableExecution
from repro.jobs.rigid_exec import RigidExecution, RigidTimeline, SegmentAccounting

Execution = Union[RigidExecution, MalleableExecution]


def new_execution(job: Job, checkpoint: CheckpointModel) -> Execution:
    """The execution model of *job*: rigid jobs checkpoint per
    *checkpoint*; on-demand jobs never checkpoint."""
    if job.is_malleable:
        return MalleableExecution(job)
    if job.is_rigid:
        return RigidExecution(
            job, checkpoint.interval(job.size), checkpoint.cost(job.size)
        )
    return RigidExecution(job, math.inf, 0.0)


__all__ = [
    "CheckpointModel",
    "Execution",
    "Job",
    "JobState",
    "JobType",
    "NoticeClass",
    "MalleableExecution",
    "RigidExecution",
    "RigidTimeline",
    "SegmentAccounting",
    "new_execution",
]
