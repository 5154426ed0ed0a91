"""EASY backfilling with reservation-aware loans (§II-B, §III-B.1).

Classic EASY: jobs start in policy order while they fit; when the queue
head does not fit, it receives a *shadow* reservation at the earliest time
enough nodes will be free (based on running jobs' predicted ends), and
later jobs may jump ahead iff they do not delay that reservation — either
they finish before the shadow time or they only use nodes the head will
not need ("extra" nodes).

Two paper-specific twists:

* **Reserved-node loans.**  Nodes held idle for an on-demand job may be
  used by *backfilled* jobs (never by head-of-queue starts); the borrower
  is preempted the instant the on-demand job arrives.  Loaned nodes are
  invisible to the shadow computation (they are pledged to the on-demand
  job, modelled as a pseudo-running block), so borrowing never delays the
  head — only the borrower's draw on the genuinely-free pool is checked
  against the extra-node budget.
* **Malleable sizing.**  A malleable job can start anywhere in
  ``[min_size, size]`` with linear speedup, so the planner picks the
  largest feasible size; when a head-fit fails it retries a smaller size
  that fits the backfill window or the extra-node budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.jobs.job import Job, JobType
from repro.sched.profile import ProfileView

__all__ = ["BackfillPlanner", "StartDecision", "WallPredictor"]

EPS = 1e-6

#: Callable giving the predicted wall-clock duration (setup + estimated
#: remaining compute + checkpoint overheads) of *job* started now on
#: *nodes* nodes.  Provided by the simulator, which knows execution state.
WallPredictor = Callable[[Job, int], float]


@dataclass
class StartDecision:
    """One job start chosen by the planner.

    ``free_used + sum(loans.values()) == nodes``; ``loans`` maps
    reservation id -> nodes borrowed from that reservation's idle holding.
    """

    job: Job
    nodes: int
    free_used: int
    loans: Dict[int, int] = field(default_factory=dict)
    backfilled: bool = False


class BackfillPlanner:
    """Plans job starts for one scheduling instance.

    Parameters
    ----------
    backfill_depth:
        Scan at most this many queued jobs behind the head (None = all;
        0 turns backfilling off, leaving plain in-order starts).
    allow_loans:
        Whether backfilled jobs may borrow reserved-idle nodes.
    """

    def __init__(
        self,
        backfill_depth: Optional[int] = None,
        allow_loans: bool = True,
        flexible_malleable: bool = True,
    ) -> None:
        self.backfill_depth = backfill_depth
        self.allow_loans = allow_loans
        self.flexible_malleable = flexible_malleable

    # ------------------------------------------------------------------
    def plan(
        self,
        profile: ProfileView,
        ordered_queue: Sequence[Job],
        loanable: Sequence[Tuple[int, int]],
        predict_wall: WallPredictor,
    ) -> List[StartDecision]:
        """Choose the set of jobs to start at this instant.

        Parameters
        ----------
        profile:
            The scheduling instant's availability: ``profile.free`` is
            the genuinely free pool (cluster free minus all reserved
            holdings) and ``profile.shadow`` answers the head's earliest
            fit from running jobs' predicted releases and reservation
            pseudo-blocks.
        ordered_queue:
            The wait queue in policy order; read, never modified (the
            simulator may pass its own kept-sorted queue).
        loanable:
            ``(reservation_id, held_nodes)`` for active not-yet-arrived
            reservations, in loan-priority order.
        """
        now = profile.now
        free = profile.free
        decisions: List[StartDecision] = []
        queue = ordered_queue
        flexible = self.flexible_malleable

        # Phase 1 — start jobs in order while they fit in the free pool
        # (the baseline pins malleable jobs at full size).
        head_idx = 0
        while head_idx < len(queue):
            job = queue[head_idx]
            size = job.size
            if (job.smallest_size if flexible else size) > free:
                break
            nodes = min(size, free)
            decisions.append(
                StartDecision(job=job, nodes=nodes, free_used=nodes)
            )
            free -= nodes
            head_idx += 1

        if head_idx >= len(queue) or self.backfill_depth == 0:
            return decisions

        # Phase 2 — shadow reservation for the blocked head (a profile
        # query; phase 1 consumed free nodes, so pass the reduced pool).
        head = queue[head_idx]
        shadow = profile.shadow(
            head.smallest_size if flexible else head.size, free=free
        )

        # Phase 3 — backfill the remaining queue.  A fit is legal iff it
        # cannot delay the head's shadow reservation: either the job's
        # predicted end is before the shadow time, or the nodes it takes
        # from the *free* pool fit in the extra budget (loaned reserved
        # nodes never delay the head).  ``loan_total`` tracks the pool's
        # remaining held nodes as loans are granted; a loan never takes
        # more than an entry holds, so it stays the exact sum.
        loan_pool: List[List[int]] = []
        loan_total = 0
        if self.allow_loans and loanable:
            loan_pool = [[rid, held] for rid, held in loanable]
            loan_total = sum(held for _, held in loan_pool)
        shadow_time = shadow.time + EPS
        extra = shadow.extra_nodes
        ondemand = JobType.ONDEMAND
        candidates = queue[head_idx + 1 :]
        if self.backfill_depth is not None:
            candidates = candidates[: self.backfill_depth]
        for job in candidates:
            if free <= 0 and loan_total <= 0:
                break
            size = job.size
            min_size = job.smallest_size if flexible else size
            # on-demand jobs never borrow reserved nodes: a borrower is
            # preempted when the owning on-demand job arrives, and
            # on-demand jobs must never be preempted (§III-A)
            pool = 0 if job.job_type is ondemand else loan_total
            avail = free + pool
            if min_size > avail:
                continue
            # Attempt 1: the largest size, if it ends by the shadow time.
            nodes = size if size < avail else avail
            if now + predict_wall(job, nodes) <= shadow_time:
                free_used = nodes if nodes < free else free
            else:
                # Attempt 2: the free draw fits the extra-node budget (no
                # time limit); prefer the largest such size.  A smaller
                # malleable size is slower, so there is nothing further
                # to try.
                budget = min(free, max(extra, 0))
                if budget + pool < min_size:
                    continue
                nodes = min(size, budget + pool)
                free_used = nodes if nodes < budget else budget
                extra -= free_used
            free -= free_used
            loans: Dict[int, int] = {}
            if nodes > free_used:
                # borrow the rest in loan-priority order
                need = nodes - free_used
                loan_total -= need
                for entry in loan_pool:
                    take = min(entry[1], need)
                    if take > 0:
                        loans[entry[0]] = take
                        entry[1] -= take
                        need -= take
                        if need == 0:
                            break
            decisions.append(
                StartDecision(
                    job=job,
                    nodes=nodes,
                    free_used=free_used,
                    loans=loans,
                    backfilled=True,
                )
            )
        return decisions
