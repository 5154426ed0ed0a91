"""Batch scheduling policies (the substrate the mechanisms plug into).

The paper's mechanisms are "designed to be used in conjunction with the
existing scheduling policies: while a scheduling policy determines the
order of waiting jobs, our mechanisms manipulate the running jobs".

* :class:`~repro.sched.policy.SchedulingPolicy` — queue-ordering interface.
* :class:`~repro.sched.fcfs.FcfsPolicy` — first-come-first-serve (default).
* :class:`~repro.sched.fcfs.SjfPolicy` / :class:`~repro.sched.fcfs.LjfPolicy`
  — shortest/largest-job-first, used by ablation benchmarks.
* :class:`~repro.sched.ewt.EwtPolicy` — PRB/EWT aging priority
  [BorghesiCLMB15]; :class:`~repro.sched.score.ScorePolicy` —
  composable weighted-sum priority [GalleguillosMOD17].
* :mod:`repro.sched.registry` — the policy registry: every queue
  ordering behind ``register_policy`` / ``get_policy`` /
  ``list_policies`` / ``policy_names``.
* :mod:`repro.sched.easy` — EASY backfilling: shadow-time reservation for
  the queue head, conservative backfill of later jobs, and loans of
  reserved-idle nodes to backfilled jobs (§III-B.1).
"""

from repro.sched.conservative import AvailabilityProfile, ConservativeBackfillPlanner
from repro.sched.easy import BackfillPlanner, StartDecision
from repro.sched.ewt import EwtPolicy
from repro.sched.fcfs import FcfsPolicy, LjfPolicy, SjfPolicy
from repro.sched.policy import SchedulingPolicy
from repro.sched.registry import (
    get_policy,
    list_policies,
    policy_names,
    register_policy,
)
from repro.sched.score import ScorePolicy

__all__ = [
    "AvailabilityProfile",
    "ConservativeBackfillPlanner",
    "BackfillPlanner",
    "StartDecision",
    "EwtPolicy",
    "FcfsPolicy",
    "SjfPolicy",
    "LjfPolicy",
    "SchedulingPolicy",
    "ScorePolicy",
    "get_policy",
    "list_policies",
    "policy_names",
    "register_policy",
]
