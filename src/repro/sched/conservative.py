"""Conservative backfilling (substrate extension; EASY is the default).

EASY (§II-B) reserves a start time only for the *head* of the queue, so a
backfill can delay anyone behind the head.  Conservative backfilling gives
**every** queued job a reservation in queue order: a job may only jump
ahead if it delays none of the reservations made before it.  The paper
evaluates EASY only; this planner exists for the ablation suite, and as
the natural "stricter fairness" point of comparison for the mechanisms.

Implementation: a step-function *availability profile* over future time
(:class:`repro.sched.profile.AvailabilityProfile`), materialised from the
scheduling instant's :class:`~repro.sched.profile.ProfileView` — in
incremental mode that is a sort-free copy of the shared availability
timeline.  Jobs are inserted in queue order at the earliest feasible
start; a job whose reserved start is *now* actually starts.  Malleable
jobs are reserved at their maximum size (choosing per-reservation sizes
would make the profile search quadratic in sizes for marginal benefit);
reserved-idle loans are an EASY-specific device and are not used here.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.jobs.job import Job
from repro.sched.easy import StartDecision, WallPredictor
from repro.sched.profile import AvailabilityProfile, ProfileView

__all__ = ["AvailabilityProfile", "ConservativeBackfillPlanner"]

EPS = 1e-6


class ConservativeBackfillPlanner:
    """Plan starts so no earlier-queued job's reservation is delayed.

    Drop-in alternative to :class:`repro.sched.easy.BackfillPlanner`
    (same ``plan`` signature; the loanable pool is ignored).
    """

    def __init__(self, flexible_malleable: bool = True) -> None:
        # kept for signature parity; reservations always use max size
        self.flexible_malleable = flexible_malleable

    def plan(
        self,
        profile: ProfileView,
        ordered_queue: Sequence[Job],
        loanable: Sequence[Tuple[int, int]],
        predict_wall: WallPredictor,
    ) -> List[StartDecision]:
        now = profile.now
        working = profile.build_profile()
        avail = working.avail
        # Capacity cutoff.  Every breakpoint past segment 0 lies strictly
        # after now + EPS (``from_sorted`` folds releases at or before
        # that into segment 0, and ``_insert_breakpoint`` ignores times
        # within EPS of ``times[0]``), so a start at or before now + EPS
        # can only come from segment 0, which needs ``avail[0] >= size``.
        # ``reserve`` only ever lowers ``avail[0]``.  Once it drops below
        # the smallest size still to come, no later job can start now,
        # and the reservations they would make can only move the
        # reservations of jobs that are themselves past the cutoff — so
        # stopping there yields exactly the decisions of a full pass.
        # need_after[i]: smallest size among ordered_queue[i:]
        need_after = list(
            accumulate((job.size for job in reversed(ordered_queue)), min)
        )
        need_after.reverse()
        decisions: List[StartDecision] = []
        blocked_seen = False
        for i, job in enumerate(ordered_queue):
            if avail[0] < need_after[i]:
                break
            nodes = job.size
            wall = predict_wall(job, nodes)
            start = working.earliest_start(nodes, wall)
            working.reserve(start, wall, nodes)
            if start <= now + EPS:
                decisions.append(
                    StartDecision(
                        job=job,
                        nodes=nodes,
                        free_used=nodes,
                        # a start past an earlier (still waiting) job is a
                        # backfill; in-order starts are not
                        backfilled=blocked_seen,
                    )
                )
            else:
                blocked_seen = True
        return decisions
