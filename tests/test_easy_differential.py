"""Differential tests: EASY planner against the plain reference planner.

``BackfillPlanner.plan`` runs its backfill phase as one inline loop: it
keeps a running ``loan_total`` instead of re-summing the loan pool per
candidate, reads each candidate's size, minimum size and on-demand flag
once, rejects candidates that cannot fit before predicting a wall,
tests the shadow-time fit and then the extra-node fit in place, and
splits a loan across reservations only when the start borrows nodes.
The reference below is the plain form: its ``_fit_backfill`` re-derives
every quantity for each candidate and always splits.  Both must return
the same starts, with the same sizes, free-pool draws, loans and
backfill flags.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.jobs.job import Job, JobType
from repro.sched.easy import BackfillPlanner
from repro.sched.profile import ProfileView

EPS = 1e-6


# ----------------------------------------------------------------------
# Reference planner: every quantity re-derived per candidate
# ----------------------------------------------------------------------
class RefPlanner:
    def __init__(
        self,
        backfill_depth=None,
        allow_loans=True,
        flexible_malleable=True,
    ):
        self.backfill_depth = backfill_depth
        self.allow_loans = allow_loans
        self.flexible_malleable = flexible_malleable

    def _min_size(self, job):
        return job.smallest_size if self.flexible_malleable else job.size

    def plan(self, profile, ordered_queue, loanable, predict_wall):
        now = profile.now
        free = profile.free
        decisions = []
        queue = list(ordered_queue)
        loan_pool = [[rid, held] for rid, held in loanable]

        head_idx = 0
        while head_idx < len(queue):
            job = queue[head_idx]
            if self._min_size(job) > free:
                break
            nodes = min(job.size, free)
            decisions.append((job.job_id, nodes, nodes, {}, False))
            free -= nodes
            head_idx += 1

        if head_idx >= len(queue):
            return decisions

        head = queue[head_idx]
        shadow = profile.shadow(self._min_size(head), free=free)

        extra = shadow.extra_nodes
        candidates = queue[head_idx + 1 :]
        if self.backfill_depth is not None:
            candidates = candidates[: self.backfill_depth]
        for job in candidates:
            if free <= 0 and not any(held > 0 for _, held in loan_pool):
                break
            pick = self._fit_backfill(
                now, job, free, loan_pool, shadow.time, extra, predict_wall
            )
            if pick is None:
                continue
            nodes, free_used, loans, used_extra = pick
            decisions.append((job.job_id, nodes, free_used, loans, True))
            free -= free_used
            if used_extra:
                extra -= free_used
            for rid, k in loans.items():
                for entry in loan_pool:
                    if entry[0] == rid:
                        entry[1] -= k
        return decisions

    def _fit_backfill(
        self, now, job, free, loan_pool, shadow_time, extra, predict_wall
    ) -> Optional[Tuple[int, int, Dict[int, int], bool]]:
        may_loan = self.allow_loans and not job.is_ondemand
        loan_total = sum(h for _, h in loan_pool) if may_loan else 0
        avail = free + loan_total
        min_size = self._min_size(job)
        if min_size > avail:
            return None

        def split(nodes):
            free_used = min(nodes, free)
            need = nodes - free_used
            loans = {}
            for entry in loan_pool:
                if need <= 0:
                    break
                rid, held = entry
                take = min(held, need)
                if take > 0:
                    loans[rid] = take
                    need -= take
            return free_used, loans

        nodes = min(job.size, avail)
        free_used, loans = split(nodes)
        end = now + predict_wall(job, nodes)
        if end <= shadow_time + EPS:
            return nodes, free_used, loans, False

        budget = min(free, max(extra, 0)) + loan_total
        if budget >= min_size:
            nodes = min(job.size, budget)
            free_used = min(nodes, min(free, max(extra, 0)))
            need = nodes - free_used
            loans = {}
            for entry in loan_pool:
                if need <= 0:
                    break
                rid, held = entry
                take = min(held, need)
                if take > 0:
                    loans[rid] = take
                    need -= take
            if need == 0:
                return nodes, free_used, loans, True
        return None


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def queued_job(draw, job_id: int) -> Job:
    kind = draw(st.sampled_from(list(JobType)))
    size = draw(st.integers(min_value=1, max_value=48))
    estimate = draw(st.floats(min_value=10.0, max_value=8000.0))
    return Job(
        job_id=job_id,
        job_type=kind,
        submit_time=0.0,
        size=size,
        runtime=estimate,
        estimate=estimate,
        min_size=(
            draw(st.integers(min_value=1, max_value=size))
            if kind is JobType.MALLEABLE
            else None
        ),
    )


@st.composite
def planning_inputs(draw):
    now = draw(st.sampled_from([0.0, 100.0, 3.0e6]))
    free = draw(st.integers(min_value=0, max_value=48))
    blocks = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=6000.0),
                st.integers(min_value=1, max_value=32),
            ),
            max_size=10,
        )
    )
    # held 0 is an exhausted entry
    loanable = [
        (rid, held)
        for rid, held in enumerate(
            draw(st.lists(st.integers(min_value=0, max_value=24), max_size=4)),
            start=1000,
        )
    ]
    n_jobs = draw(st.integers(min_value=0, max_value=16))
    queue = [draw(queued_job(i)) for i in range(n_jobs)]
    planner_kw = dict(
        # depth 0 (backfilling off) drawn often: the planner returns
        # early there, the reference does not
        backfill_depth=draw(
            st.one_of(st.none(), st.just(0), st.integers(0, 6))
        ),
        allow_loans=draw(st.booleans()),
        flexible_malleable=draw(st.booleans()),
    )
    view = ProfileView.from_blocks(
        now, free, [(now + off, n) for off, n in blocks]
    )
    return view, queue, loanable, planner_kw


def wall(job: Job, nodes: int) -> float:
    """Estimate, stretched for a malleable job started below full size."""
    return job.estimate * job.size / nodes


def decisions(planner, view, queue, loanable) -> List[tuple]:
    return [
        (d.job.job_id, d.nodes, d.free_used, d.loans, d.backfilled)
        for d in planner.plan(
            profile=view,
            ordered_queue=queue,
            loanable=loanable,
            predict_wall=wall,
        )
    ]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=600, deadline=None)
@given(planning_inputs())
def test_planner_matches_reference(inputs):
    view, queue, loanable, kw = inputs
    expected = RefPlanner(**kw).plan(view, queue, loanable, wall)
    assert decisions(BackfillPlanner(**kw), view, queue, loanable) == expected


def _rigid(job_id, size, estimate):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=size,
        runtime=estimate,
        estimate=estimate,
    )


def test_second_borrower_sees_the_pool_after_the_first_loan():
    # no free nodes; the head waits for a release at t=500.  Two short
    # backfills borrow from a 10-node pool: the first takes 6, leaving 4,
    # so the 6-node second one no longer fits but the 4-node third does
    view = ProfileView.from_blocks(0.0, 0, [(500.0, 40)])
    queue = [
        _rigid(0, 40, 1000.0),
        _rigid(1, 6, 100.0),
        _rigid(2, 6, 100.0),
        _rigid(3, 4, 100.0),
    ]
    loanable = [(7, 3), (8, 7)]
    got = decisions(BackfillPlanner(), view, queue, loanable)
    assert got == [(1, 6, 0, {7: 3, 8: 3}, True), (3, 4, 0, {8: 4}, True)]
    assert got == RefPlanner().plan(view, queue, loanable, wall)


def test_ondemand_candidate_never_borrows():
    view = ProfileView.from_blocks(0.0, 2, [(500.0, 40)])
    od = Job(
        job_id=1,
        job_type=JobType.ONDEMAND,
        submit_time=0.0,
        size=5,
        runtime=100.0,
        estimate=100.0,
    )
    queue = [_rigid(0, 40, 1000.0), od, _rigid(2, 5, 100.0)]
    got = decisions(BackfillPlanner(), view, queue, [(7, 10)])
    # the on-demand job cannot start on 2 free nodes; the rigid one
    # borrows 3 reserved nodes to start
    assert got == [(2, 5, 2, {7: 3}, True)]
    assert got == RefPlanner().plan(view, queue, [(7, 10)], wall)
