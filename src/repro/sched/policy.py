"""Queue-ordering policy interface.

A policy only decides the *order* of the wait queue at each scheduling
instance; starting jobs (including EASY backfilling) and manipulating
running jobs (the paper's mechanisms) happen elsewhere.

On-demand jobs that failed to start instantly are placed "at the front of
the queue" (§III-B.2); every policy therefore sorts by a two-level key
``(not is_ondemand_retry, policy_key)``.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence, Tuple

from repro.jobs.job import Job


class SchedulingPolicy(abc.ABC):
    """Orders the wait queue at each scheduling instance."""

    #: short identifier used in reports
    name: str = "abstract"

    #: True when :meth:`key` ignores ``now`` — i.e. the queue order can
    #: only change when the queue itself changes.  The simulator's
    #: incremental pass skipping relies on this: a pass may be skipped
    #: after a no-op event batch only if mere passage of time cannot
    #: reorder the queue.  The simulator's kept-sorted wait queue relies
    #: on it too (:meth:`static_key`).  Set False in any aging/time-decay
    #: policy.
    time_invariant: bool = True

    @abc.abstractmethod
    def key(self, job: Job, now: float) -> Tuple:
        """Sort key for *job* (ascending).  Lower sorts earlier."""

    def _sort_key(
        self, now: float, prioritize_ondemand: bool = True
    ) -> Callable[[Job], Tuple]:
        """The total-order key :meth:`order` sorts by at *now*.

        On-demand jobs first (unless ``prioritize_ondemand`` is False),
        then the policy key; the job id is always the final tiebreaker,
        so no two queued jobs share a key.
        """
        key = self.key
        if prioritize_ondemand:
            return lambda j: (not j.is_ondemand, *key(j, now), j.job_id)
        return lambda j: (*key(j, now), j.job_id)

    def static_key(
        self, prioritize_ondemand: bool = True
    ) -> Optional[Callable[[Job], Tuple]]:
        """The key :meth:`order` sorts by, as a function of the job alone.

        Defined only for :attr:`time_invariant` policies, whose key does
        not depend on ``now``: the simulator computes it once per queued
        job and keeps the wait queue sorted by it, so a pass needs no
        :meth:`order` call.  ``None`` for aging policies.
        """
        if not self.time_invariant:
            return None
        return self._sort_key(0.0, prioritize_ondemand)

    def order(
        self,
        queue: Sequence[Job],
        now: float,
        prioritize_ondemand: bool = True,
    ) -> List[Job]:
        """Return the queue sorted: on-demand retries first, then policy key.

        ``prioritize_ondemand=False`` (the baseline configuration) drops
        the front-of-queue boost so on-demand jobs sort like any other.
        The job id is always the final tiebreaker so ordering is total and
        deterministic.
        """
        return sorted(queue, key=self._sort_key(now, prioritize_ondemand))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"
