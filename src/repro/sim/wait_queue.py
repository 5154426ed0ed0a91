"""The scheduler's wait queue, kept sorted as jobs enter and leave it.

Under a time-invariant policy the queue is kept by the policy's static
key, so a scheduling pass reads the policy order without sorting; under
an aging policy it is kept by job id and the policy sorts it each pass.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Dict, List, Sequence

from repro.jobs.job import Job, JobState, JobType
from repro.sched.policy import SchedulingPolicy
from repro.util.errors import SimulationError


class WaitQueue:
    """Queued jobs in key order, with an index of the on-demand ones.

    Invariants (:meth:`validate`): every job is ``QUEUED``; ``_keys[i] ==
    _key(jobs[i])``, sorted and unique (the job id is the last component);
    ``_ondemand`` holds exactly the queue's on-demand jobs.
    """

    __slots__ = ("jobs", "_keys", "_key", "_ondemand", "_policy", "_prioritize_od")

    def __init__(
        self, policy: SchedulingPolicy, prioritize_ondemand: bool
    ) -> None:
        static_key = policy.static_key(prioritize_ondemand=prioritize_ondemand)
        #: the queued jobs in key order; read, never mutated, by callers
        self.jobs: List[Job] = []
        self._keys: list = []
        self._key = static_key or attrgetter("job_id")
        #: the policy that orders each pass; ``None`` when the key order
        #: is the policy order
        self._policy = None if static_key is not None else policy
        self._prioritize_od = prioritize_ondemand
        self._ondemand: Dict[int, Job] = {}

    def add(self, job: Job) -> None:
        """Insert *job* at its key's position."""
        key = self._key(job)
        i = bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self.jobs.insert(i, job)
        if job.job_type is JobType.ONDEMAND:
            self._ondemand[job.job_id] = job

    def remove(self, job: Job) -> None:
        """Take *job* out of the queue to start it."""
        i = bisect_left(self._keys, self._key(job))
        if i == len(self.jobs) or self.jobs[i] is not job:
            raise SimulationError(
                f"job {job.job_id} started while not in the wait queue"
            )
        del self.jobs[i]
        del self._keys[i]
        self._ondemand.pop(job.job_id, None)

    def planning_order(self, now: float) -> Sequence[Job]:
        """The queue in the policy's order at *now*."""
        if self._policy is None:
            return self.jobs  # planners only read it
        return self._policy.order(
            self.jobs, now, prioritize_ondemand=self._prioritize_od
        )

    def waiting_ondemand(self) -> Sequence[Job]:
        """The queued on-demand jobs, earliest arrival first."""
        if not self._ondemand:
            return ()
        return sorted(
            self._ondemand.values(), key=lambda j: (j.submit_time, j.job_id)
        )

    def validate(self) -> None:
        for job in self.jobs:
            if job.state is not JobState.QUEUED:
                raise SimulationError(
                    f"job {job.job_id} in queue but state {job.state}"
                )
        keys = [self._key(job) for job in self.jobs]
        if keys != self._keys or keys != sorted(keys):
            raise SimulationError(
                "wait queue out of key order or out of step with its keys"
            )
        ondemand = {j.job_id: j for j in self.jobs if j.is_ondemand}
        if ondemand != self._ondemand:
            raise SimulationError(
                "waiting on-demand index differs from the queue's "
                f"on-demand jobs: {sorted(self._ondemand)} vs "
                f"{sorted(ondemand)}"
            )
