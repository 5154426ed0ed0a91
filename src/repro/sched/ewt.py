"""Priority-Rules-Based scheduling on Estimated Waiting Time (PRB/EWT).

accasim's dispatcher catalog describes PRB scheduling "based on the
estimated waiting time of the jobs" [BorghesiCLMB15]: every job class
carries an *estimated waiting time* (EWT) — the delay its users are
assumed to tolerate — and the queue is ordered by the urgency ratio

    urgency(job, now) = (wait(job, now) + EWT(job)) / EWT(job)

descending.  A job with a small EWT (on-demand work here) overtakes
quickly; a long batch job with a generous EWT ages slowly toward the
front, so nothing starves.  The ratio grows with ``now`` — this is an
*aging* policy, so :attr:`~repro.sched.policy.SchedulingPolicy.time_invariant`
is False and the simulator never skips a scheduling pass on the
time-invariance argument (only the always-safe empty-queue skip
applies; the incremental-vs-full differential suite still holds).

Backfilling needs no special support: the policy only orders the queue,
and both planners consume the ordered queue through the unified
``plan(profile, ordered_queue, loanable, predict_wall)`` surface — the
queue head's reservation comes from ``ProfileView.shadow`` exactly as
under FCFS.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.jobs.job import Job, JobType
from repro.sched.policy import SchedulingPolicy
from repro.util.errors import ConfigurationError
from repro.util.timeconst import HOUR, MINUTE


class EwtPolicy(SchedulingPolicy):
    """Order by descending ``(wait + EWT) / EWT`` (PRB/EWT).

    Parameters
    ----------
    ondemand_ewt_s:
        EWT of on-demand jobs — small, so their urgency explodes almost
        immediately (they are near-interactive).
    short_ewt_s / long_ewt_s:
        EWT of batch jobs whose runtime *estimate* is at most /
        above ``short_estimate_s`` — the two-class split accasim's
        workload configs use (debug/short vs production queues).
    short_estimate_s:
        Estimate threshold separating the two batch classes.
    """

    name = "prb_ewt"
    time_invariant = False

    def __init__(
        self,
        ondemand_ewt_s: float = MINUTE,
        short_ewt_s: float = 0.5 * HOUR,
        long_ewt_s: float = 2 * HOUR,
        short_estimate_s: float = HOUR,
    ) -> None:
        for label, value in (
            ("ondemand_ewt_s", ondemand_ewt_s),
            ("short_ewt_s", short_ewt_s),
            ("long_ewt_s", long_ewt_s),
        ):
            if value <= 0:
                raise ConfigurationError(f"{label} must be positive")
        if short_estimate_s < 0:
            raise ConfigurationError("short_estimate_s must be >= 0")
        self.ondemand_ewt_s = float(ondemand_ewt_s)
        self.short_ewt_s = float(short_ewt_s)
        self.long_ewt_s = float(long_ewt_s)
        self.short_estimate_s = float(short_estimate_s)

    def _sort_key(
        self, now: float, prioritize_ondemand: bool = True
    ) -> Callable[[Job], Tuple]:
        """The total-order key at *now*, bound once per :meth:`order` call.

        The class EWTs are bound here and each key reads
        ``job.job_type`` directly, so building a key costs no method or
        property call; this is the one place the urgency ratio is
        computed (:meth:`key` derives from it).
        """
        ondemand_ewt = self.ondemand_ewt_s
        short_ewt = self.short_ewt_s
        long_ewt = self.long_ewt_s
        short_estimate = self.short_estimate_s
        ondemand = JobType.ONDEMAND

        def sort_key(job: Job) -> Tuple:
            kind = job.job_type
            if kind is ondemand:
                ewt = ondemand_ewt
            elif job.estimate <= short_estimate:
                ewt = short_ewt
            else:
                ewt = long_ewt
            submit = job.submit_time
            urgency = (now - submit + ewt) / ewt
            if prioritize_ondemand:
                return (kind is not ondemand, -urgency, submit, job.job_id)
            return (-urgency, submit, job.job_id)

        return sort_key

    def key(self, job: Job, now: float) -> Tuple:
        return self._sort_key(now, prioritize_ondemand=False)(job)[:-1]
