"""The hybrid-workload coordinator: on-demand lifecycle logic (§III-B).

The coordinator owns the :class:`~repro.core.reservation.ReservationBook`
and the :class:`~repro.core.ledger.LenderLedger` and implements the four
decision points of the paper as methods the simulator calls:

========================  =====================================================
event                      method
========================  =====================================================
advance notice             :meth:`HybridCoordinator.on_advance_notice`
actual arrival             :meth:`HybridCoordinator.on_od_arrival`
estimated-arrival timeout  :meth:`HybridCoordinator.on_reservation_timeout`
completion                 :meth:`HybridCoordinator.on_od_completion`
(CUP planned preemption)   :meth:`HybridCoordinator.on_planned_preempt`
(any node release)         :meth:`HybridCoordinator.on_job_release`
========================  =====================================================

It talks to the simulator through a narrow duck-typed surface
(:class:`SimulatorOps` documents it) so it can be unit-tested against a
stub.  Wall-clock decision latency of every arrival is recorded to support
Observation 10 ("less than 10 milliseconds to make a decision").
"""

from __future__ import annotations

import time as _time
from typing import List, Optional, Protocol

from repro.core.ledger import Lease, LeaseKind, LenderLedger
from repro.core.mechanisms import ArrivalStrategy, Mechanism, NoticeStrategy
from repro.core.preemption import VictimCandidate, select_victims
from repro.core.reservation import PlannedPreemption, Reservation, ReservationBook
from repro.core.shrink import ShrinkCandidate, plan_even_shrink
from repro.jobs.job import Job, JobState
from repro.obs.registry import Histogram
from repro.util.errors import InvariantViolation
from repro.util.timeconst import MINUTE

#: §IV-B: "We set the threshold to release the reserved nodes to 10
#: minutes after the on-demand job's estimated arrival time."
RESERVATION_GRACE_S = 10 * MINUTE


class RunningView(Protocol):
    """What the coordinator needs to know about one running job."""

    job: Job
    nodes: int

    def predicted_finish(self) -> float: ...

    def preemption_loss(self, t: float) -> float: ...

    def last_checkpoint_completion_at_or_before(self, t: float) -> Optional[float]: ...


class SimulatorOps(Protocol):
    """The simulator surface the coordinator drives."""

    @property
    def now(self) -> float: ...

    def usable_free(self) -> int: ...

    def running_views(self) -> List[RunningView]: ...

    def preempt_running_job(self, job_id: int, reason: str) -> int: ...

    def shrink_running_malleable(self, job_id: int, take: int) -> int: ...

    def expand_running_malleable(self, job_id: int, give: int) -> int: ...

    def start_od_job(self, job: Job) -> None: ...

    def resume_from_queue(self, job: Job, nodes: int) -> None: ...

    def push_planned_preempt(self, fire: float, od_id: int, victim_id: int) -> None: ...

    def push_reservation_timeout(self, fire: float, od_id: int) -> None: ...

    def lookup_job(self, job_id: int) -> Optional[Job]: ...

    def mark_sched_dirty(self) -> None: ...


class HybridCoordinator:
    """Implements one mechanism's behaviour on top of a simulator."""

    def __init__(
        self,
        mechanism: Optional[Mechanism],
        ops: SimulatorOps,
    ) -> None:
        self.mechanism = mechanism
        self.ops = ops
        self.book = ReservationBook()
        self.ledger = LenderLedger()
        #: wall-clock seconds spent deciding each on-demand arrival, in
        #: fixed buckets: O(buckets) memory however many arrive
        self.decision_latency = Histogram("sched.decision.latency_s")
        #: counts for reporting
        self.lease_resumes = 0
        self.lease_expands = 0

    # ------------------------------------------------------------------
    # Advance notice (§III-B.1)
    # ------------------------------------------------------------------
    def on_advance_notice(self, job: Job) -> None:
        """Handle an on-demand job's advance notice per the mechanism."""
        if self.mechanism is None:
            return  # baseline: notices are ignored entirely
        if self.mechanism.notice is NoticeStrategy.NOTHING:
            return
        if job.estimated_arrival is None:
            raise InvariantViolation(
                f"on-demand job {job.job_id} noticed without estimated arrival"
            )
        now = self.ops.now
        collecting = self.mechanism.notice is NoticeStrategy.COLLECT_UNTIL_ACTUAL
        res = self.book.create(
            od_job_id=job.job_id,
            need=job.size,
            notice_time=now,
            estimated_arrival=job.estimated_arrival,
            expiry_time=job.estimated_arrival + RESERVATION_GRACE_S,
            collecting=collecting,
        )
        self.book.grab_free(res, self.ops.usable_free())
        if self.mechanism.notice is NoticeStrategy.COLLECT_UNTIL_PREDICTED:
            self._plan_cup(res, job)
        self.ops.push_reservation_timeout(res.expiry_time, job.job_id)
        # the new reservation changed the usable-free pool / loanable set
        self.ops.mark_sched_dirty()

    def _plan_cup(self, res: Reservation, job: Job) -> None:
        """CUP: earmark expected releases, plan preemptions for the rest.

        Earmarks and plans are *future* supply — they do not change the
        reservation's ``deficit`` until the nodes actually land — so this
        method tracks the uncovered remainder explicitly.
        """
        arrival = res.estimated_arrival
        still_needed = res.deficit
        if still_needed <= 0:
            return
        views = [v for v in self.ops.running_views() if not v.job.is_ondemand]

        # Step 1 — earmark running jobs expected to end before the arrival.
        enders = [v for v in views if v.predicted_finish() <= arrival]
        enders.sort(key=lambda v: (v.predicted_finish(), v.job.job_id))
        for v in enders:
            if still_needed <= 0:
                return
            available = (
                v.nodes
                - self.book.loans_on(v.job.job_id)
                - self.book.pledged_on(v.job.job_id)
            )
            pledge = min(still_needed, max(0, available))
            if pledge > 0:
                self.book.add_earmark(res, v.job.job_id, pledge)
                still_needed -= pledge

        # Step 2 — plan preemptions, cheapest victims first.  Rigid victims
        # fire right after their last checkpoint completion before the
        # arrival; malleable victims, which take no checkpoints, fire at
        # the arrival instant (the planned-preempt event sorts before the
        # arrival event).
        if still_needed <= 0:
            return
        later = [v for v in views if v.predicted_finish() > arrival]
        later.sort(key=lambda v: (v.job.setup_time * v.nodes, v.job.job_id))
        now = self.ops.now
        for v in later:
            if still_needed <= 0:
                return
            available = (
                v.nodes
                - self.book.loans_on(v.job.job_id)
                - self.book.pledged_on(v.job.job_id)
            )
            if available <= 0:
                continue
            fire = arrival
            last_ckpt = v.last_checkpoint_completion_at_or_before(arrival)
            if last_ckpt is not None and last_ckpt >= now:
                fire = last_ckpt
            pledge = min(still_needed, available)
            self.book.add_planned(
                res,
                PlannedPreemption(
                    victim_job_id=v.job.job_id, fire_time=fire, pledge=pledge
                ),
            )
            self.ops.push_planned_preempt(fire, res.od_job_id, v.job.job_id)
            still_needed -= pledge

    # ------------------------------------------------------------------
    # CUP planned preemption firing
    # ------------------------------------------------------------------
    def on_planned_preempt(self, od_job_id: int, victim_job_id: int) -> None:
        """Execute a CUP-planned preemption if it is still valid."""
        res = self.book.get(od_job_id)
        if res is None or res.arrived:
            return
        plan = res.planned.get(victim_job_id)
        if plan is None or plan.cancelled:
            return
        plan.cancelled = True
        victim = self.ops.lookup_job(victim_job_id)
        if victim is None or victim.state is not JobState.RUNNING:
            # retired from a streamed run's window, or no longer running
            return
        room = res.need - res.held - sum(res.loans.values())
        if room <= 0:
            return
        released = self.ops.preempt_running_job(victim_job_id, reason="cup-planned")
        claimed = self.on_job_release(victim_job_id, released, claim_for=od_job_id)
        if claimed > 0:
            self.ledger.add(
                Lease(
                    od_job_id=od_job_id,
                    lender_job_id=victim_job_id,
                    nodes=claimed,
                    kind=LeaseKind.PREEMPTED,
                )
            )

    # ------------------------------------------------------------------
    # Actual arrival (§III-B.2)
    # ------------------------------------------------------------------
    def on_od_arrival(self, job: Job) -> bool:
        """Handle the actual arrival; returns True if started instantly."""
        t0 = _time.perf_counter()
        try:
            return self._handle_arrival(job)
        finally:
            self.decision_latency.observe(_time.perf_counter() - t0)

    def _handle_arrival(self, job: Job) -> bool:
        if self.mechanism is None:
            # Baseline ("FCFS/EASY without special treatments"): the
            # on-demand job is an ordinary submission — no reservation, no
            # queue priority.  The regular schedule pass at this timestamp
            # may still start it instantly via the free pool or backfill.
            return False
        res = self.book.get(job.job_id)
        if res is None:
            # N mechanism, no-notice job, or expired reservation: open an
            # arrival-time reservation so the same bookkeeping handles
            # collection while the job waits in the queue.
            res = self.book.create(
                od_job_id=job.job_id,
                need=job.size,
                notice_time=self.ops.now,
                estimated_arrival=self.ops.now,
                expiry_time=float("inf"),
                collecting=True,
            )
        res.arrived = True
        # Arrival supersedes any remaining CUP preparation ("we stop the
        # preparation and use the strategies in the following subsection").
        self.book.cancel_plans(res)
        res.collecting = True

        self._fill_from_free(res)

        # Reclaim loaned reserved nodes by preempting borrowers (only as
        # many as needed; borrowers whose loans are not needed keep them).
        if res.held < res.need and res.loans:
            self._reclaim_loans(res)

        if res.held < res.need:
            deficit = res.need - res.held
            if self.mechanism.arrival is ArrivalStrategy.SHRINK_PREEMPT:
                freed = self._try_shrink(job, deficit)
                if freed:
                    self._fill_from_free(res)
                else:
                    self._try_preempt(job, res)
            else:
                self._try_preempt(job, res)

        if res.held >= res.need:
            self._launch(job, res)
            return True
        # Not satisfiable instantly: the job stays at the front of the
        # queue; its (collecting) reservation keeps soaking up releases.
        return False

    def _fill_from_free(self, res: Reservation) -> None:
        """Raise ``held`` toward ``need`` from the usable free pool."""
        usable = self.ops.usable_free()
        room = res.need - res.held
        take = min(max(0, usable), max(0, room))
        if take > 0:
            res.held += take
            self.book.total_held += take

    def _reclaim_loans(self, res: Reservation) -> None:
        """Preempt backfilled borrowers until the holding covers the need."""
        borrowers = sorted(res.loans.keys())
        views = {v.job.job_id: v for v in self.ops.running_views()}
        # Cheapest borrowers first (they are backfilled, hence small/short).
        borrowers.sort(
            key=lambda b: (
                views[b].preemption_loss(self.ops.now) if b in views else 0.0,
                b,
            )
        )
        for borrower in borrowers:
            if res.held >= res.need:
                break
            job = self.ops.lookup_job(borrower)
            if job is None or job.state is not JobState.RUNNING or job.is_ondemand:
                # On-demand jobs are never preempted; the planner never
                # loans them reserved nodes, so this is pure defence.
                continue
            released = self.ops.preempt_running_job(borrower, reason="loan-reclaim")
            self.on_job_release(borrower, released, claim_for=res.od_job_id)
        # Any loans that were not needed are forgiven: the borrowers simply
        # keep running on what are now ordinary allocations.
        if res.held >= res.need:
            res.loans.clear()

    def _try_shrink(self, od_job: Job, deficit: int) -> bool:
        """SPAA step: shrink running malleable jobs evenly; True on success."""
        candidates = []
        for v in self.ops.running_views():
            if not v.job.is_malleable:
                continue
            floor = max(
                v.job.smallest_size, self.book.loans_on(v.job.job_id)
            )
            if v.nodes > floor:
                candidates.append(
                    ShrinkCandidate(
                        job_id=v.job.job_id, current=v.nodes, minimum=floor
                    )
                )
        plan = plan_even_shrink(candidates, deficit)
        if plan is None:
            return False
        for job_id, take in sorted(plan.items()):
            self.ops.shrink_running_malleable(job_id, take)
            self.ledger.add(
                Lease(
                    od_job_id=od_job.job_id,
                    lender_job_id=job_id,
                    nodes=take,
                    kind=LeaseKind.SHRUNK,
                )
            )
        return True

    def _try_preempt(self, od_job: Job, res: Reservation) -> bool:
        """PAA step: preempt cheapest victims to cover the deficit."""
        deficit = res.need - res.held
        candidates = []
        for v in self.ops.running_views():
            if v.job.is_ondemand:
                continue
            usable = v.nodes - self.book.loans_on(v.job.job_id)
            if usable <= 0:
                continue
            candidates.append(
                VictimCandidate(
                    job_id=v.job.job_id,
                    nodes=usable,
                    loss=v.preemption_loss(self.ops.now),
                )
            )
        victims = select_victims(candidates, deficit)
        if victims is None:
            return False
        for victim in victims:
            if res.held >= res.need:
                break
            released = self.ops.preempt_running_job(
                victim.job_id, reason="paa-arrival"
            )
            claimed = self.on_job_release(
                victim.job_id, released, claim_for=res.od_job_id
            )
            if claimed > 0:
                self.ledger.add(
                    Lease(
                        od_job_id=od_job.job_id,
                        lender_job_id=victim.job_id,
                        nodes=claimed,
                        kind=LeaseKind.PREEMPTED,
                    )
                )
        return True

    def _launch(self, job: Job, res: Reservation) -> None:
        """Start the on-demand job on its secured nodes."""
        if res.held < res.need:
            raise InvariantViolation(
                f"on-demand job {job.job_id}: launch with held={res.held} "
                f"< need={res.need}"
            )
        # Melt the holding back into the free pool, then allocate from it.
        self.book.deactivate(job.job_id)
        self.ops.start_od_job(job)

    # ------------------------------------------------------------------
    # Queue-side retry for on-demand jobs that missed instant start
    # ------------------------------------------------------------------
    def try_start_queued_od(self, job: Job) -> bool:
        """Called by the schedule pass for waiting on-demand jobs.

        Only used when a mechanism is active (baseline on-demand jobs go
        through the ordinary policy/backfill path instead).
        """
        res = self.book.get(job.job_id)
        if res is None:
            if self.ops.usable_free() >= job.size:
                self.ops.start_od_job(job)
                return True
            return False
        self._fill_from_free(res)
        if res.held >= res.need:
            self._launch(job, res)
            return True
        return False

    # ------------------------------------------------------------------
    # Timeout (§III-B.4)
    # ------------------------------------------------------------------
    def on_reservation_timeout(self, od_job_id: int) -> None:
        """Release reserved nodes for a no-show on-demand job."""
        res = self.book.get(od_job_id)
        if res is None or res.arrived:
            return
        self.book.deactivate(od_job_id)
        self.absorb_free()
        # held nodes melted back into (or moved within) the free pool
        self.ops.mark_sched_dirty()

    # ------------------------------------------------------------------
    # Completion (§III-B.3)
    # ------------------------------------------------------------------
    def on_od_completion(self, job: Job) -> None:
        """Return leased nodes to lenders; resume or expand them."""
        self.book.deactivate(job.job_id)
        for lease in self.ledger.settle(job.job_id):
            lender = self.ops.lookup_job(lease.lender_job_id)
            if lender is None:
                # lender already completed (and, in a streamed run, was
                # retired): its returned nodes simply melt into the pool
                continue
            if lender.state is JobState.QUEUED and lender.stats.preemptions > 0:
                usable = self.ops.usable_free()
                if usable >= lender.smallest_size:
                    nodes = min(lender.size, usable)
                    self.ops.resume_from_queue(lender, nodes)
                    self.lease_resumes += 1
            elif lender.state is JobState.RUNNING and lease.kind is LeaseKind.SHRUNK:
                give = min(lease.nodes, self.ops.usable_free())
                if give > 0:
                    self.ops.expand_running_malleable(lender.job_id, give)
                    self.lease_expands += 1
            # Otherwise the lender is done or already running again; the
            # returned nodes melt into the common pool.
        self.absorb_free()

    # ------------------------------------------------------------------
    # Node-release plumbing
    # ------------------------------------------------------------------
    def on_job_release(
        self, job_id: int, released: int, claim_for: Optional[int] = None
    ) -> int:
        """Distribute released nodes; returns the targeted claim captured."""
        claimed = self.book.on_job_release(job_id, released, claim_for=claim_for)
        self.absorb_free()
        return claimed

    def absorb_free(self) -> None:
        """Let CUA-style collectors soak up whatever is now usable-free."""
        self.book.absorb_free(self.ops.usable_free())
