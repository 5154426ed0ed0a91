"""Integration scenarios with hand-computed timelines.

Each test builds a tiny trace on a 100-node machine, runs the full
simulator, and asserts exact start/finish times and accounting derived by
hand.  Together they exercise every §III-B decision path: instant start
from free nodes, PAA preemption + lease resume, SPAA shrink + expand,
CUA collection + reserved-node backfill loans, CUP planned preemption
right after a checkpoint, early arrival cancelling a CUP plan, reservation
timeout, and the baseline's no-special-treatment behaviour.
"""

import pytest

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType, NoticeClass
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.util.errors import SimulationError


def rigid(job_id, submit, size, runtime, estimate=None, setup=0.0):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=submit,
        size=size,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        setup_time=setup,
    )


def malleable(job_id, submit, size, min_size, runtime, estimate=None, setup=0.0):
    return Job(
        job_id=job_id,
        job_type=JobType.MALLEABLE,
        submit_time=submit,
        size=size,
        min_size=min_size,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        setup_time=setup,
    )


def ondemand(job_id, submit, size, runtime, notice=None, estimated=None, estimate=None):
    cls = NoticeClass.NONE
    if notice is not None:
        if submit == estimated:
            cls = NoticeClass.ACCURATE
        elif submit < estimated:
            cls = NoticeClass.EARLY
        else:
            cls = NoticeClass.LATE
    return Job(
        job_id=job_id,
        job_type=JobType.ONDEMAND,
        submit_time=submit,
        size=size,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        notice_class=cls,
        notice_time=notice,
        estimated_arrival=estimated,
    )


def cfg(**kw):
    base = dict(
        system_size=100,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )
    base.update(kw)
    return SimConfig(**base)


#: checkpoint model pinned to an exact 2000 s interval via the min clamp
CKPT_2000 = CheckpointModel(node_mtbf_s=1.0, min_interval_s=2000.0)


def run(jobs, mechanism=None, config=None):
    sim = Simulation(jobs, config or cfg(), mechanism)
    return sim.run()


def by_id(result, job_id):
    return next(j for j in result.jobs if j.job_id == job_id)


class TestPlainScheduling:
    def test_single_rigid_job_timeline(self):
        res = run([rigid(1, submit=10.0, size=50, runtime=1000.0, setup=100.0)])
        j = by_id(res, 1)
        assert j.stats.first_start == 10.0
        assert j.stats.end_time == pytest.approx(10.0 + 100.0 + 1000.0)
        assert j.turnaround == pytest.approx(1100.0)

    def test_checkpoint_overhead_extends_runtime(self):
        res = run(
            [rigid(1, 0.0, 100, 10000.0, setup=100.0)],
            config=cfg(checkpoint=CKPT_2000),
        )
        j = by_id(res, 1)
        # 4 checkpoints (marks 2000..8000), 600 s each
        assert j.stats.end_time == pytest.approx(100.0 + 10000.0 + 4 * 600.0)
        assert j.stats.checkpoint_node_seconds == pytest.approx(100 * 2400.0)

    def test_fcfs_second_job_waits(self):
        res = run(
            [rigid(1, 0.0, 80, 1000.0), rigid(2, 10.0, 80, 500.0)]
        )
        assert by_id(res, 2).stats.first_start == pytest.approx(1000.0)

    def test_easy_backfill_jumps_short_narrow_job(self):
        # job2 (wide) blocked behind job1; job3 is short and fits beside 1.
        res = run(
            [
                rigid(1, 0.0, 60, 5000.0),
                rigid(2, 10.0, 100, 1000.0),
                rigid(3, 20.0, 40, 1000.0),
            ]
        )
        assert by_id(res, 3).stats.first_start == pytest.approx(20.0)
        assert by_id(res, 2).stats.first_start == pytest.approx(5000.0)

    def test_backfill_never_delays_head(self):
        # job3 is narrow but too long to finish before job1 ends.
        res = run(
            [
                rigid(1, 0.0, 60, 5000.0),
                rigid(2, 10.0, 100, 1000.0),
                rigid(3, 20.0, 40, 50000.0),
            ]
        )
        assert by_id(res, 2).stats.first_start == pytest.approx(5000.0)
        assert by_id(res, 3).stats.first_start == pytest.approx(6000.0)

    def test_malleable_starts_shrunk_when_pool_small(self):
        res = run(
            [
                rigid(1, 0.0, 70, 1000.0),
                malleable(2, 10.0, size=100, min_size=20, runtime=300.0),
            ]
        )
        j = by_id(res, 2)
        assert j.stats.first_start == pytest.approx(10.0)
        assert j.stats.segment_sizes == [30]
        # linear speedup: work 300*100 node-s on 30 nodes
        assert j.stats.end_time == pytest.approx(10.0 + 1000.0)

    def test_all_jobs_complete_and_states_final(self):
        res = run(
            [rigid(i, i * 5.0, 30, 500.0) for i in range(1, 8)]
        )
        assert all(j.state is JobState.COMPLETED for j in res.jobs)


class TestPaaPreemption:
    def make_trace(self):
        return [
            rigid(1, 0.0, 100, 10000.0, estimate=12000.0, setup=100.0),
            ondemand(2, 5000.0, 40, 1000.0),
        ]

    def test_od_starts_instantly_by_preempting(self):
        res = run(self.make_trace(), Mechanism.parse("N&PAA"))
        od = by_id(res, 2)
        assert od.start_delay == pytest.approx(0.0)
        assert od.stats.end_time == pytest.approx(6000.0)

    def test_victim_rolls_back_without_checkpoints(self):
        res = run(self.make_trace(), Mechanism.parse("N&PAA"))
        victim = by_id(res, 1)
        assert victim.stats.preemptions == 1
        # progress 4900 compute seconds, nothing retained (no checkpoints)
        assert victim.stats.lost_node_seconds == pytest.approx(100 * 4900.0)
        assert victim.stats.wasted_setup_node_seconds == pytest.approx(100 * 100.0)

    def test_victim_resumes_via_lease_on_od_completion(self):
        res = run(self.make_trace(), Mechanism.parse("N&PAA"))
        victim = by_id(res, 1)
        # od ends at 6000; lease (40) + free (60) covers the full resume
        assert victim.stats.last_start == pytest.approx(6000.0)
        assert victim.stats.end_time == pytest.approx(6000.0 + 100.0 + 10000.0)
        assert res.lease_resumes == 1

    def test_od_never_preempted(self):
        res = run(self.make_trace(), Mechanism.parse("N&PAA"))
        assert by_id(res, 2).stats.preemptions == 0

    def test_insufficient_preemptable_queues_od(self):
        # od1 occupies 80 nodes; od2 (50) cannot preempt another od.
        trace = [
            ondemand(1, 0.0, 80, 1000.0),
            rigid(2, 0.0, 20, 2000.0),
            ondemand(3, 100.0, 50, 500.0),
        ]
        res = run(trace, Mechanism.parse("N&PAA"))
        od2 = by_id(res, 3)
        # must wait for od1's finish at 1000 (rigid job alone is not enough)
        assert od2.stats.first_start == pytest.approx(1000.0)
        assert od2.start_delay == pytest.approx(900.0)
        # the rigid job was not pointlessly preempted
        assert by_id(res, 2).stats.preemptions == 0


class TestSpaaShrink:
    def make_trace(self):
        return [
            malleable(1, 0.0, size=100, min_size=20, runtime=2000.0),
            ondemand(2, 500.0, 40, 1000.0),
        ]

    def test_shrink_instead_of_preempt(self):
        res = run(self.make_trace(), Mechanism.parse("N&SPAA"))
        m = by_id(res, 1)
        od = by_id(res, 2)
        assert od.start_delay == pytest.approx(0.0)
        assert m.stats.preemptions == 0
        assert m.stats.shrinks == 1

    def test_expand_on_od_completion_and_exact_finish(self):
        res = run(self.make_trace(), Mechanism.parse("N&SPAA"))
        m = by_id(res, 1)
        assert m.stats.expands == 1
        # work 200000; 50000 done by t=500 at 100 nodes; 60000 more by
        # t=1500 at 60 nodes; remaining 90000 at 100 nodes -> ends 2400
        assert m.stats.end_time == pytest.approx(2400.0)
        assert res.lease_expands == 1

    def test_spaa_falls_back_to_paa_when_supply_short(self):
        trace = [
            malleable(1, 0.0, size=100, min_size=90, runtime=2000.0),
            ondemand(2, 500.0, 40, 1000.0),
        ]
        res = run(trace, Mechanism.parse("N&SPAA"))
        m = by_id(res, 1)
        od = by_id(res, 2)
        # supply = 10 < 40 -> PAA preempts the malleable job entirely
        assert m.stats.preemptions == 1
        assert od.start_delay == pytest.approx(0.0)

    def test_no_compute_lost_on_malleable_preemption(self):
        trace = [
            malleable(1, 0.0, size=100, min_size=90, runtime=2000.0),
            ondemand(2, 500.0, 40, 1000.0),
        ]
        res = run(trace, Mechanism.parse("N&SPAA"))
        assert by_id(res, 1).stats.lost_node_seconds == 0.0


class TestCuaCollection:
    def make_trace(self):
        return [
            rigid(1, 0.0, 40, 1000.0),  # releases 40 nodes at t=1000
            rigid(2, 0.0, 60, 1900.0),  # releases 60 nodes at t=1900
            rigid(3, 1040.0, 100, 400.0),  # wide head, blocks the queue
            rigid(4, 1050.0, 40, 500.0),  # backfills onto reserved nodes
            ondemand(5, 2100.0, 60, 1000.0, notice=600.0, estimated=2100.0),
        ]

    def test_collection_avoids_all_preemption(self):
        res = run(self.make_trace(), Mechanism.parse("CUA&PAA"))
        od = by_id(res, 5)
        assert od.start_delay == pytest.approx(0.0)
        assert all(j.stats.preemptions == 0 for j in res.jobs)

    def test_backfill_borrows_reserved_nodes(self):
        res = run(self.make_trace(), Mechanism.parse("CUA&PAA"))
        d = by_id(res, 4)
        # free pool is empty at t=1050; only the reservation's 40 held
        # nodes (collected from job 1) can host it.
        assert d.stats.first_start == pytest.approx(1050.0)
        assert d.stats.end_time == pytest.approx(1550.0)

    def test_wide_head_starts_after_od(self):
        res = run(self.make_trace(), Mechanism.parse("CUA&PAA"))
        assert by_id(res, 3).stats.first_start == pytest.approx(3100.0)

    def test_without_cua_the_od_preempts(self):
        res = run(self.make_trace(), Mechanism.parse("N&PAA"))
        # nodes were not collected, so the arrival must preempt someone
        assert any(j.stats.preemptions > 0 for j in res.jobs)


class TestCupPlanning:
    def make_trace(self):
        return [
            rigid(1, 0.0, 100, 10000.0, estimate=12000.0, setup=100.0),
            ondemand(2, 3000.0, 50, 1000.0, notice=1500.0, estimated=3000.0),
        ]

    def test_planned_preemption_fires_right_after_checkpoint(self):
        res = run(
            self.make_trace(),
            Mechanism.parse("CUP&PAA"),
            config=cfg(checkpoint=CKPT_2000),
        )
        victim = by_id(res, 1)
        # checkpoint 1 completes at 100 + 2000 + 600 = 2700 (< arrival 3000);
        # CUP preempts exactly there, so no compute is lost.
        assert victim.stats.preemptions == 1
        assert victim.stats.lost_node_seconds == pytest.approx(0.0)

    def test_od_instant_from_planned_nodes(self):
        res = run(
            self.make_trace(),
            Mechanism.parse("CUP&PAA"),
            config=cfg(checkpoint=CKPT_2000),
        )
        od = by_id(res, 2)
        assert od.start_delay == pytest.approx(0.0)
        assert od.stats.end_time == pytest.approx(4000.0)

    def test_victim_resumes_from_checkpoint_after_od(self):
        res = run(
            self.make_trace(),
            Mechanism.parse("CUP&PAA"),
            config=cfg(checkpoint=CKPT_2000),
        )
        victim = by_id(res, 1)
        assert victim.stats.last_start == pytest.approx(4000.0)
        # resumes at compute offset 2000: 8000 left + setup 100 +
        # 3 checkpoints (marks 4000, 6000, 8000) * 600
        assert victim.stats.end_time == pytest.approx(4000.0 + 100.0 + 8000.0 + 1800.0)

    def test_early_arrival_cancels_plan(self):
        trace = [
            rigid(1, 0.0, 100, 10000.0, estimate=12000.0, setup=100.0),
            ondemand(2, 2000.0, 50, 1000.0, notice=1000.0, estimated=4000.0),
        ]
        res = run(
            trace, Mechanism.parse("CUP&PAA"), config=cfg(checkpoint=CKPT_2000)
        )
        victim = by_id(res, 1)
        od = by_id(res, 2)
        assert od.start_delay == pytest.approx(0.0)
        # arrival at 2000 precedes the planned 2700 firing: PAA preempts at
        # 2000 instead, losing the 1900 s of un-checkpointed progress.
        assert victim.stats.preemptions == 1
        assert victim.stats.lost_node_seconds == pytest.approx(100 * 1900.0)


class TestWallMemo:
    """A queued job's wall prediction is memoized until it starts; a
    preempted job re-enters the queue with a fresh prediction."""

    def run_recording(self, config):
        trace = [
            rigid(1, 0.0, 100, 10000.0, setup=100.0),
            ondemand(2, 3000.0, 40, 1000.0),
            # queued behind the victim, so the conservative planner
            # plans the victim instead of cutting the pass off
            rigid(3, 3500.0, 10, 100.0),
        ]
        sim = Simulation(trace, config, Mechanism.parse("N&PAA"))
        calls = []
        predict = sim._predict_wall

        def recording(job, nodes):
            wall = predict(job, nodes)
            fresh = sim._compute_wall(job, nodes)
            calls.append((sim.now, job.job_id, wall, fresh))
            return wall

        sim._predict_wall = recording
        return sim, sim.run(), calls

    def test_requeued_victim_predicted_from_retained_work(self):
        sim, res, calls = self.run_recording(
            cfg(checkpoint=CKPT_2000, backfill_mode="conservative")
        )
        victim = by_id(res, 1)
        assert victim.stats.preemptions == 1
        # every memoized answer equals the uncached computation
        assert all(wall == fresh for _, _, wall, fresh in calls)
        before = [w for t, j, w, _ in calls if j == 1 and t < 3000.0]
        after = [w for t, j, w, _ in calls if j == 1 and t >= 3000.0]
        # fresh start: setup + 10000 compute + 4 checkpoints (600 s)
        assert before == [pytest.approx(100.0 + 10000.0 + 4 * 600.0)]
        # checkpoint 1 (done at 2700) retained 2000 s of work: setup +
        # 8000 left + 3 checkpoints (marks 4000, 6000, 8000)
        assert after and all(
            w == pytest.approx(100.0 + 8000.0 + 3 * 600.0) for w in after
        )
        assert not sim._wall_memo

    def test_stale_memo_entry_fails_validation(self):
        sim = Simulation([rigid(1, 0.0, 10, 100.0)], cfg())
        sim._wall_memo[1] = (10, 100.0)
        with pytest.raises(SimulationError, match="not in the queue"):
            sim.validate_state()


class TestReservationTimeout:
    def test_reserved_nodes_released_after_grace(self):
        trace = [
            rigid(1, 0.0, 100, 2000.0),
            # LATE on-demand: estimated 2500, actual 4000 (> grace 600)
            ondemand(2, 4000.0, 50, 1000.0, notice=1000.0, estimated=2500.0),
            rigid(3, 1500.0, 100, 2000.0),
        ]
        res = run(trace, Mechanism.parse("CUA&PAA"))
        waiter = by_id(res, 3)
        # holding is released at 2500 + 600 = 3100, unblocking job 3
        assert waiter.stats.first_start == pytest.approx(3100.0)
        # the on-demand job still starts instantly at 4000 via PAA —
        # job 3 (running 3100-5100) is preempted from scratch
        od = by_id(res, 2)
        assert od.start_delay == pytest.approx(0.0)
        assert waiter.stats.preemptions == 1


class TestBaseline:
    def test_no_preemption_no_priority(self):
        trace = [
            rigid(1, 0.0, 100, 10000.0),
            ondemand(2, 5000.0, 40, 1000.0),
        ]
        res = run(trace, None)
        od = by_id(res, 2)
        assert by_id(res, 1).stats.preemptions == 0
        assert od.stats.first_start == pytest.approx(10000.0)

    def test_baseline_od_can_start_from_free_pool(self):
        trace = [
            rigid(1, 0.0, 40, 10000.0),
            ondemand(2, 5000.0, 40, 1000.0),
        ]
        res = run(trace, None)
        assert by_id(res, 2).start_delay == pytest.approx(0.0)

    def test_baseline_ignores_notices(self):
        trace = [
            rigid(1, 0.0, 100, 3000.0),
            ondemand(2, 2100.0, 50, 1000.0, notice=600.0, estimated=2100.0),
        ]
        res = run(trace, None)
        # no reservation: od waits for the rigid job to finish
        assert by_id(res, 2).stats.first_start == pytest.approx(3000.0)


class TestResultBookkeeping:
    def test_decision_latency_recorded_per_arrival(self):
        trace = [
            rigid(1, 0.0, 100, 10000.0),
            ondemand(2, 5000.0, 40, 1000.0),
            ondemand(3, 6000.0, 20, 500.0),
        ]
        res = run(trace, Mechanism.parse("N&PAA"))
        assert res.decision_latency.count == 2
        assert res.decision_latency.max_s < 0.01
        assert res.decision_latency.p50_s <= res.decision_latency.p95_s
        assert res.decision_latency.p95_s <= res.decision_latency.max_s

    def test_events_and_passes_counted(self):
        res = run([rigid(1, 0.0, 10, 100.0)])
        assert res.events_processed >= 2
        assert res.schedule_passes >= 1

    def test_pass_skipping_accounted_and_off_under_full_replan(self):
        trace = [rigid(i, i * 10.0, 10, 100.0) for i in range(5)]
        from repro.workload.trace import clone_jobs

        incremental = run(clone_jobs(trace))
        full = run(clone_jobs(trace), config=cfg(force_full_replan=True))
        assert full.passes_skipped == 0
        # every batch runs a pass in full mode; incremental executes no
        # more than that, and skipped + executed covers the same batches
        assert incremental.schedule_passes <= full.schedule_passes
        assert (
            incremental.schedule_passes + incremental.passes_skipped
            == full.schedule_passes
        )

    def test_makespan_and_horizon(self):
        res = run([rigid(1, 5.0, 10, 100.0)])
        assert res.makespan == pytest.approx(105.0)
        assert res.horizon == pytest.approx(100.0)
