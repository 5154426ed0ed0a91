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
  ``[min_size, max_size]`` with linear speedup, so the planner picks the
  largest feasible size; when a head-fit fails it retries a smaller size
  that fits the backfill window or the extra-node budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.jobs.job import Job, JobType
from repro.sched.profile import ProfileView, ShadowInfo

__all__ = [
    "BackfillPlanner",
    "ShadowInfo",
    "StartDecision",
    "WallPredictor",
]

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
    backfill_enabled:
        ``False`` degrades to plain FCFS (used by ablations).
    backfill_depth:
        Scan at most this many queued jobs behind the head (None = all).
    allow_loans:
        Whether backfilled jobs may borrow reserved-idle nodes.
    """

    def __init__(
        self,
        backfill_enabled: bool = True,
        backfill_depth: Optional[int] = None,
        allow_loans: bool = True,
        flexible_malleable: bool = True,
    ) -> None:
        self.backfill_enabled = backfill_enabled
        self.backfill_depth = backfill_depth
        self.allow_loans = allow_loans
        self.flexible_malleable = flexible_malleable

    def _min_size(self, job: Job) -> int:
        """Smallest start size (baseline pins malleable jobs at full size)."""
        return job.smallest_size if self.flexible_malleable else job.size

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

        # Phase 1 — start jobs in order while they fit in the free pool.
        head_idx = 0
        while head_idx < len(queue):
            job = queue[head_idx]
            if self._min_size(job) > free:
                break
            nodes = min(job.max_size, free)
            decisions.append(
                StartDecision(job=job, nodes=nodes, free_used=nodes)
            )
            free -= nodes
            head_idx += 1

        if head_idx >= len(queue) or not self.backfill_enabled:
            return decisions

        # Phase 2 — shadow reservation for the blocked head (a profile
        # query; phase 1 consumed free nodes, so pass the reduced pool).
        head = queue[head_idx]
        shadow = profile.shadow(self._min_size(head), free=free)

        # Phase 3 — backfill the remaining queue.  ``loan_total`` tracks
        # the pool's remaining held nodes as loans are granted; a loan
        # never takes more than an entry holds, so it stays the exact sum.
        loan_pool: List[List[int]] = (
            [[rid, held] for rid, held in loanable] if self.allow_loans else []
        )
        loan_total = sum(held for _, held in loan_pool)
        flexible = self.flexible_malleable
        shadow_time = shadow.time
        extra = shadow.extra_nodes
        candidates = queue[head_idx + 1 :]
        if self.backfill_depth is not None:
            candidates = candidates[: self.backfill_depth]
        for job in candidates:
            if free <= 0 and loan_total <= 0:
                break
            min_size = job.smallest_size if flexible else job.size
            # on-demand jobs never borrow reserved nodes: a borrower is
            # preempted when the owning on-demand job arrives, and
            # on-demand jobs must never be preempted (§III-A)
            pool = 0 if job.job_type is JobType.ONDEMAND else loan_total
            if min_size > free + pool:
                continue
            pick = self._fit_backfill(
                now, job, min_size, free, loan_pool, pool, shadow_time,
                extra, predict_wall,
            )
            if pick is None:
                continue
            nodes, free_used, loans, used_extra = pick
            decisions.append(
                StartDecision(
                    job=job,
                    nodes=nodes,
                    free_used=free_used,
                    loans=loans,
                    backfilled=True,
                )
            )
            free -= free_used
            if used_extra:
                extra -= free_used
            if loans:
                loan_total -= nodes - free_used
                for entry in loan_pool:
                    entry[1] -= loans.get(entry[0], 0)
        return decisions

    # ------------------------------------------------------------------
    @staticmethod
    def _split(loan_pool: Sequence[Sequence[int]], need: int) -> Dict[int, int]:
        """Borrow *need* nodes from the pool in loan-priority order."""
        loans: Dict[int, int] = {}
        for rid, held in loan_pool:
            if need <= 0:
                break
            take = min(held, need)
            if take > 0:
                loans[rid] = take
                need -= take
        return loans

    @classmethod
    def _fit_backfill(
        cls,
        now: float,
        job: Job,
        min_size: int,
        free: int,
        loan_pool: Sequence[Sequence[int]],
        loan_total: int,
        shadow_time: float,
        extra: int,
        predict_wall: WallPredictor,
    ) -> Optional[Tuple[int, int, Dict[int, int], bool]]:
        """Try to fit *job* as a backfill; returns (nodes, free_used, loans,
        counted_against_extra) or None.

        The caller has checked ``min_size <= free + loan_total``, where
        ``loan_total`` is the reserved nodes this job may borrow (0 for
        an on-demand job).  A fit is legal iff it cannot delay the head's
        shadow reservation: either the job's predicted end is before the
        shadow time, or the nodes it takes from the *free* pool fit in
        the extra budget (loaned reserved nodes never delay the head).
        """
        # Attempt 1: largest possible size; qualifies if it ends in time.
        nodes = min(job.max_size, free + loan_total)
        if now + predict_wall(job, nodes) <= shadow_time + EPS:
            free_used = min(nodes, free)
            return nodes, free_used, cls._split(loan_pool, nodes - free_used), False

        # Attempt 2: qualify via the extra-node budget (no time limit) —
        # the free draw must fit in `extra`; prefer the largest such size.
        free_budget = min(free, max(extra, 0))
        if free_budget + loan_total >= min_size:
            nodes = min(job.max_size, free_budget + loan_total)
            free_used = min(nodes, free_budget)
            return nodes, free_used, cls._split(loan_pool, nodes - free_used), True

        # Attempt 3 (rigid only): a smaller malleable size could still fit
        # the time window; for malleable jobs smaller = slower, so there is
        # nothing further to try.
        return None
