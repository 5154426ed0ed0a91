"""Reservations for on-demand jobs: holdings, loans, earmarks, plans.

A :class:`Reservation` tracks everything an advance-notice strategy has
lined up for one announced on-demand job:

* ``held`` — idle nodes set aside right now.  Held nodes live inside the
  cluster's *free* pool (the cluster does not know about reservations);
  the book guarantees ``sum(held) <= cluster.free`` by construction: every
  increment of ``held`` is backed by an explicit free-node budget passed
  in by the coordinator.
* ``loans`` — held nodes lent to *backfilled* jobs (§III-B.1: "the nodes
  reserved for on-demand jobs can be used to backfill jobs").  A loan
  stays *secured*: the borrower is preempted when the on-demand job
  arrives, or the nodes flow back into ``held`` if the borrower finishes
  first.
* ``earmarks`` — CUP's pledges on running jobs whose estimated end
  precedes the predicted arrival; honoured when the job releases nodes.
* ``planned`` — CUP's scheduled preemptions (rigid victims right after a
  checkpoint completion, malleable victims at the predicted arrival).

The book serialises competition between on-demand jobs: "the released
nodes are assigned to the on-demand job with the earliest advance notice".
It holds open reservations only: :meth:`ReservationBook.deactivate`
drops a reservation and its reverse-index entries, so the book's memory
is O(open reservations), not O(trace).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.errors import InvariantViolation


@dataclass
class PlannedPreemption:
    """One CUP-scheduled preemption of a running job."""

    victim_job_id: int
    fire_time: float
    pledge: int
    cancelled: bool = False


@dataclass
class Reservation:
    """Everything lined up for one announced on-demand job."""

    od_job_id: int
    need: int
    notice_time: float
    estimated_arrival: float
    expiry_time: float
    #: CUA-style passive absorption of free nodes (False for CUP)
    collecting: bool = False
    held: int = 0
    loans: Dict[int, int] = field(default_factory=dict)
    earmarks: Dict[int, int] = field(default_factory=dict)
    planned: Dict[int, PlannedPreemption] = field(default_factory=dict)
    arrived: bool = False

    @property
    def secured(self) -> int:
        """Nodes the on-demand job can count on at arrival (held + loans)."""
        return self.held + sum(self.loans.values())

    @property
    def deficit(self) -> int:
        """Nodes still missing relative to the request."""
        return max(0, self.need - self.secured)


def _priority(res: Reservation) -> Tuple[float, int]:
    """Competition order: earliest advance notice first (fixed at create)."""
    return (res.notice_time, res.od_job_id)


class ReservationBook:
    """All open reservations, ordered by advance-notice time.

    A reservation is *active* exactly while it is in the book: created by
    :meth:`create`, removed by :meth:`deactivate`.
    """

    def __init__(self) -> None:
        self._by_od: Dict[int, Reservation] = {}
        #: the same reservations in :func:`_priority` order
        self._ordered: List[Reservation] = []
        self.total_held = 0
        self.held_node_seconds = 0.0
        self._last_t = 0.0
        #: reverse index: running job id -> [(od_job_id, pledge)]
        self._earmarks_on: Dict[int, List[Tuple[int, int]]] = {}
        self._planned_on: Dict[int, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    def advance(self, t: float) -> None:
        """Integrate reserved-idle node-seconds up to *t*."""
        if t < self._last_t - 1e-6:
            raise InvariantViolation(
                f"reservation clock moved backwards: {self._last_t} -> {t}"
            )
        dt = max(0.0, t - self._last_t)
        self.held_node_seconds += dt * self.total_held
        self._last_t = t

    # ------------------------------------------------------------------
    def get(self, od_job_id: int) -> Optional[Reservation]:
        return self._by_od.get(od_job_id)

    def active_reservations(self) -> List[Reservation]:
        """Active reservations in earliest-notice order (priority order)."""
        return list(self._ordered)

    def holding_reservations(self) -> List[Reservation]:
        """Active reservations currently holding nodes.

        Used by the simulator's pass skipping to spot *clock-tracking*
        pseudo-blocks (see ``Simulation._has_clock_tracking_block``).
        """
        return [r for r in self._ordered if r.held > 0]

    def create(
        self,
        od_job_id: int,
        need: int,
        notice_time: float,
        estimated_arrival: float,
        expiry_time: float,
        collecting: bool,
    ) -> Reservation:
        if od_job_id in self._by_od:
            raise InvariantViolation(
                f"on-demand job {od_job_id} already has an active reservation"
            )
        res = Reservation(
            od_job_id=od_job_id,
            need=need,
            notice_time=notice_time,
            estimated_arrival=estimated_arrival,
            expiry_time=expiry_time,
            collecting=collecting,
        )
        self._by_od[od_job_id] = res
        insort(self._ordered, res, key=_priority)
        return res

    # ------------------------------------------------------------------
    def grab_free(self, res: Reservation, usable_free: int) -> int:
        """Move up to ``deficit`` usable free nodes into ``held``."""
        take = min(max(0, usable_free), res.deficit)
        if take > 0:
            res.held += take
            self.total_held += take
        return take

    def loan_out(self, res: Reservation, borrower_job_id: int, nodes: int) -> None:
        """Lend *nodes* of ``held`` to a backfilled job."""
        if nodes <= 0 or nodes > res.held:
            raise InvariantViolation(
                f"reservation {res.od_job_id}: cannot loan {nodes} of "
                f"{res.held} held nodes"
            )
        res.held -= nodes
        self.total_held -= nodes
        res.loans[borrower_job_id] = res.loans.get(borrower_job_id, 0) + nodes

    def add_earmark(self, res: Reservation, job_id: int, pledge: int) -> None:
        if pledge <= 0:
            raise InvariantViolation("earmark pledge must be positive")
        res.earmarks[job_id] = res.earmarks.get(job_id, 0) + pledge
        self._earmarks_on.setdefault(job_id, []).append((res.od_job_id, pledge))

    def add_planned(self, res: Reservation, plan: PlannedPreemption) -> None:
        if plan.victim_job_id in res.planned:
            raise InvariantViolation(
                f"reservation {res.od_job_id} already plans to preempt "
                f"job {plan.victim_job_id}"
            )
        res.planned[plan.victim_job_id] = plan
        self._planned_on.setdefault(plan.victim_job_id, []).append(
            (res.od_job_id, plan.pledge)
        )

    def pledged_on(self, job_id: int) -> int:
        """Total nodes active reservations already expect from *job_id*.

        Counts live earmarks plus non-cancelled planned preemptions; used
        by CUP planning so two reservations never pledge the same nodes.
        """
        total = 0
        for od_id in {o for o, _ in self._earmarks_on.get(job_id, ())}:
            res = self.get(od_id)
            if res is not None:
                total += res.earmarks.get(job_id, 0)
        for od_id in {o for o, _ in self._planned_on.get(job_id, ())}:
            res = self.get(od_id)
            if res is not None:
                plan = res.planned.get(job_id)
                if plan is not None and not plan.cancelled:
                    total += plan.pledge
        return total

    def loans_on(self, job_id: int) -> int:
        """Total reserved nodes *job_id* is currently borrowing."""
        return sum(r.loans.get(job_id, 0) for r in self._ordered)

    # ------------------------------------------------------------------
    def on_job_release(
        self,
        job_id: int,
        released: int,
        claim_for: Optional[int] = None,
    ) -> int:
        """Distribute a finished/preempted job's nodes among reservations.

        Order: (1) loans return to their owning reservations; (2) the
        targeted claim (PAA / planned preemption) for *claim_for*; (3) CUP
        earmarks registered on this job; (4) nothing else — passive CUA
        absorption is a separate step (:meth:`absorb_free`) because CUA
        may also soak up nodes that were already free.

        Returns the number of nodes the *claim_for* reservation captured.
        """
        remaining = released

        # (1) loans return to held (they were already "secured").
        for res in self.active_reservations():
            loan = res.loans.pop(job_id, 0)
            if loan > 0:
                if loan > remaining:
                    raise InvariantViolation(
                        f"job {job_id} released {released} nodes but owes "
                        f"{loan} loaned nodes to reservation {res.od_job_id}"
                    )
                res.held += loan
                self.total_held += loan
                remaining -= loan

        # (2) targeted claim for the on-demand job we preempted for.
        claimed = 0
        if claim_for is not None:
            res = self.get(claim_for)
            if res is not None:
                claimed = min(res.deficit, remaining)
                if claimed > 0:
                    res.held += claimed
                    self.total_held += claimed
                    remaining -= claimed

        # (3) CUP earmarks on this job, earliest notice first.
        if job_id in self._earmarks_on:
            for res in self.active_reservations():
                pledge = res.earmarks.pop(job_id, 0)
                if pledge <= 0 or remaining <= 0:
                    continue
                take = min(pledge, res.deficit, remaining)
                if take > 0:
                    res.held += take
                    self.total_held += take
                    remaining -= take
            self._earmarks_on.pop(job_id, None)
        return claimed

    def absorb_free(self, usable_free: int) -> int:
        """Let CUA-style collectors soak up usable free nodes.

        Called whenever the free pool may have grown.  Collectors are
        served earliest-notice-first (§III-B.1 competition rule).  Returns
        the total absorbed.
        """
        absorbed = 0
        budget = max(0, usable_free)
        if budget == 0:
            return 0
        for res in self.active_reservations():
            if not res.collecting:
                continue
            take = min(res.deficit, budget)
            if take > 0:
                res.held += take
                self.total_held += take
                budget -= take
                absorbed += take
            if budget == 0:
                break
        return absorbed

    # ------------------------------------------------------------------
    def cancel_plans(self, res: Reservation) -> None:
        """Cancel pending planned preemptions and drop earmarks."""
        for plan in res.planned.values():
            plan.cancelled = True
        for job_id in res.earmarks:
            self._unindex(self._earmarks_on, job_id, res.od_job_id)
        res.earmarks.clear()

    @staticmethod
    def _unindex(
        index: Dict[int, List[Tuple[int, int]]], job_id: int, od_job_id: int
    ) -> None:
        """Drop *od_job_id*'s entries from ``index[job_id]``."""
        entries = index.get(job_id)
        if entries is None:
            return
        kept = [e for e in entries if e[0] != od_job_id]
        if kept:
            index[job_id] = kept
        else:
            del index[job_id]

    def deactivate(self, od_job_id: int) -> int:
        """Close a reservation; its held nodes melt back into plain free.

        Returns the number of nodes that were held.  Loans simply become
        ordinary allocations of the borrowers; pending plans are cancelled.
        The reservation leaves the book together with its reverse-index
        entries.
        """
        res = self._by_od.pop(od_job_id, None)
        if res is None:
            return 0
        self.cancel_plans(res)
        for victim_id in res.planned:
            self._unindex(self._planned_on, victim_id, od_job_id)
        i = bisect_left(self._ordered, _priority(res), key=_priority)
        if self._ordered[i] is not res:
            raise InvariantViolation(
                f"reservation {od_job_id} missing from the priority order"
            )
        del self._ordered[i]
        held = res.held
        res.held = 0
        self.total_held -= held
        res.loans.clear()
        return held

    # ------------------------------------------------------------------
    def validate(self, cluster_free: int) -> None:
        """Consistency checks (used by tests and debug runs)."""
        if self._ordered != sorted(self._by_od.values(), key=_priority):
            raise InvariantViolation(
                "priority order and id index hold different reservations"
            )
        total = 0
        for res in self._ordered:
            if res.held < 0:
                raise InvariantViolation(
                    f"reservation {res.od_job_id}: negative held {res.held}"
                )
            if res.secured > res.need:
                raise InvariantViolation(
                    f"reservation {res.od_job_id}: secured {res.secured} "
                    f"exceeds need {res.need}"
                )
            total += res.held
        if total != self.total_held:
            raise InvariantViolation(
                f"held total drifted: tracked {self.total_held}, actual {total}"
            )
        if total > cluster_free:
            raise InvariantViolation(
                f"held {total} exceeds cluster free pool {cluster_free}"
            )
