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
start (one :meth:`~repro.sched.profile.AvailabilityProfile.reserve_earliest`
walk each); a job whose reserved start is *now* actually starts.
Malleable jobs are reserved at their maximum size (choosing
per-reservation sizes would make the profile search quadratic in sizes
for marginal benefit); reserved-idle loans are an EASY-specific device
and are not used here.

Wall-aware capacity cutoff: a pass only decides which jobs start *now*.
With ``s`` / ``w`` the smallest size / predicted wall among
``ordered_queue[i:]``, it stops at job ``i`` once some segment of
``[now, now + w)`` has fewer than ``s`` free nodes.  That is exact: a
job starts now only if every segment its window ``[now, now + wall)``
touches has ``avail >= size``, every later window is at least ``w``
long and so touches that segment too, and reservations only lower
``avail``, so the test that fails now fails for the rest of the pass.
The reservations skipped past the cutoff only move those of jobs also
past it.  The old ``avail[0] < s`` rule is the case where the short
segment is segment 0.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.jobs.job import Job
from repro.sched.easy import StartDecision, WallPredictor
from repro.sched.profile import EPS, AvailabilityProfile, ProfileView

__all__ = ["AvailabilityProfile", "ConservativeBackfillPlanner"]


class ConservativeBackfillPlanner:
    """Plan starts so no earlier-queued job's reservation is delayed.

    Drop-in alternative to :class:`repro.sched.easy.BackfillPlanner`
    (same ``plan`` signature; the loanable pool is ignored).
    """

    def plan(
        self,
        profile: ProfileView,
        ordered_queue: Sequence[Job],
        loanable: Sequence[Tuple[int, int]],
        predict_wall: WallPredictor,
    ) -> List[StartDecision]:
        now = profile.now
        working = profile.build_profile()
        times = working.times
        avail = working.avail
        walls = [predict_wall(job, job.size) for job in ordered_queue]
        # need_after[i] / wall_after[i]: smallest size / predicted wall
        # among ordered_queue[i:]
        need_after = list(
            accumulate((job.size for job in reversed(ordered_queue)), min)
        )
        need_after.reverse()
        wall_after = list(accumulate(reversed(walls), min))
        wall_after.reverse()
        decisions: List[StartDecision] = []
        blocked_seen = False
        for i, job in enumerate(ordered_queue):
            # wall-aware capacity cutoff (see the module docstring): stop
            # once a segment of [now, now + wall_after[i]) is short of
            # need_after[i]; `cut` is the window end reserve_earliest
            # computes for a start at now (times[0] == now)
            need = need_after[i]
            cut = now + wall_after[i] - EPS
            n = len(times)
            k = 0
            while avail[k] >= need:
                k += 1
                if k == n or times[k] >= cut:
                    break
            else:
                break
            nodes = job.size
            start = working.reserve_earliest(nodes, walls[i])
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
