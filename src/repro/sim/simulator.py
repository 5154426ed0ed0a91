"""The trace-driven, event-driven scheduling simulator (CQSim analogue).

"A real system takes jobs from user submission, while CQSim takes jobs by
reading the job arrival information in the trace.  Rather than executing
jobs on system, CQSim simulates the execution by advancing the simulation
clock according to the job runtime information in the trace."

One :class:`Simulation` object runs one trace under one (mechanism,
policy) pair.  Jobs enter through one admission path, in submit order,
just ahead of the event clock — a materialized list is simply a stream
whose notice horizon is known exactly.  The event loop pops
same-timestamp batches (finishes before planned preemptions before
notices before submissions before timeouts) and runs one scheduling pass
after each batch.  All mutation of running jobs —
start, preemption, shrink, expansion — funnels through the methods of this
class so node accounting and per-job statistics stay consistent; the
:class:`~repro.core.coordinator.HybridCoordinator` drives those methods
through the ``SimulatorOps`` surface.

The mutation funnel also maintains the **incremental scheduling state**:
a shared :class:`~repro.sched.profile.AvailabilityTimeline` of running
jobs' predicted releases (updated in place instead of re-derived inside
every planner call) and a dirty bit that lets :meth:`run` skip the
scheduling pass of batches that provably cannot change any decision — an
event batch made entirely of stale events, or any batch with an empty
wait queue.  The full-replan reference these shortcuts are checked
against (rebuild the profile from the running set every pass, never skip
a stale batch) lives in the test suite.

Per-job execution math (setup, checkpoints, speedup, wall prediction)
lives in the :mod:`repro.jobs` execution models, built at admission, and
the kept-sorted queue is a :class:`~repro.sim.wait_queue.WaitQueue`; the
simulator branches on job kind only to refuse resizing a non-malleable job.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union,
)

from repro.core.coordinator import HybridCoordinator
from repro.obs import get_obs
from repro.core.mechanisms import Mechanism
from repro.core.reservation import Reservation
from repro.jobs import Execution, new_execution
from repro.jobs.job import Job, JobState, NoticeClass
from repro.jobs.malleable_exec import MalleableExecution
from repro.metrics.accumulators import SummaryAccumulator
from repro.sched.conservative import ConservativeBackfillPlanner
from repro.sched.easy import BackfillPlanner
from repro.sched.policy import SchedulingPolicy
from repro.sched.registry import get_policy
from repro.sched.profile import AvailabilityTimeline, ProfileView
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventType
from repro.sim.schedlog import LogEntry, LogKind
from repro.sim.wait_queue import WaitQueue
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStreams
from repro.workload.stream import JobStream, as_stream

EPS = 1e-6


class JobRecord:
    """One admitted job's simulator-side state, from admission to retirement.

    The record is created when the job enters the in-flight window and
    dropped when it retires; while the job runs, the same object sits in
    ``Simulation.running``.  Its execution model holds the only copy of
    the job's allocation (``execution.nodes``) and serves as the
    coordinator's ``RunningView``.
    """

    __slots__ = ("job", "execution", "epoch", "started_at", "memo")

    def __init__(self, job: Job, execution: Execution) -> None:
        self.job = job
        #: the job's execution model, kept across preemptions
        self.execution = execution
        #: bumped on start, preemption and resize: finish and failure
        #: events carry the epoch they were pushed under, so stale ones
        #: are recognised and dropped
        self.epoch = 0
        #: the running segment's start (a failure restart starts one)
        self.started_at = 0.0
        #: ``(nodes, predicted wall)`` while queued; dropped at start
        #: (see ``Simulation._predict_wall``)
        self.memo: Optional[Tuple[int, float]] = None


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample stream (count / p50 / p95 / p99 /
    max / mean).

    Stored instead of the raw sample list: a 10k-job campaign cell used
    to drag tens of thousands of floats through every result record for
    two percentiles nobody recomputed.
    """

    count: int = 0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0
    mean_s: float = 0.0

    @classmethod
    def from_histogram(cls, h) -> "LatencyStats":
        """Derive from an obs registry :class:`~repro.obs.registry.Histogram`
        (same sample stream, one source of truth; percentiles are
        bucket-approximate, mean/max exact)."""
        if not h.count:
            return cls()
        return cls(
            count=h.count,
            p50_s=h.percentile(0.50),
            p95_s=h.percentile(0.95),
            p99_s=h.percentile(0.99),
            max_s=h.vmax,
            mean_s=h.mean,
        )


@dataclass
class SimulationResult:
    """Everything a run produced; summarised by :mod:`repro.metrics`."""

    jobs: List[Job]
    mechanism: Optional[str]
    policy: str
    system_size: int
    makespan: float
    first_submit: float
    last_end: float
    reserved_idle_node_seconds: float
    free_node_seconds: float
    #: the streaming metrics funnel, fed at segment close and job
    #: completion: the one source of summary and breakdown metrics
    accumulator: SummaryAccumulator
    decision_latency: LatencyStats = field(default_factory=LatencyStats)
    events_processed: int = 0
    schedule_passes: int = 0
    passes_skipped: int = 0
    wall_time_s: float = 0.0
    lease_resumes: int = 0
    lease_expands: int = 0
    failures_injected: int = 0

    @property
    def horizon(self) -> float:
        return max(self.last_end - self.first_submit, EPS)


class Simulation:
    """One trace-driven simulation run.

    Parameters
    ----------
    jobs:
        The workload, always consumed as a submit-ordered stream: jobs
        are admitted lazily just ahead of the event clock and retired
        from the in-flight window the moment they complete.  A
        :class:`~repro.workload.stream.JobStream` (or any bare
        iterator/generator of submit-ordered jobs) keeps memory
        O(in-flight); the result then carries only the
        :class:`~repro.metrics.accumulators.SummaryAccumulator`
        (``result.jobs == []``).  A sequence is admitted in stable
        submit-time order with its exact notice horizon, and is kept
        whole as ``result.jobs`` in the caller's order.  Each job is
        mutated in place (state + stats), so pass a fresh copy per run
        (:func:`repro.workload.trace.clone_jobs`).
    config:
        Machine/behaviour knobs; defaults follow §IV-B.
    mechanism:
        One of the six mechanisms, or ``None`` for the baseline
        (FCFS/EASY with no special treatment of any job class).
    decision_log:
        Any object with ``write(str)``, or ``None``.  Each scheduler
        decision is written to it as one :class:`~repro.sim.schedlog.LogEntry`
        JSON line the moment it is made; the caller owns the sink and
        closes it.  With ``None`` no decision is formatted at all.

    The queue policy is ``config.policy``, built by
    :mod:`repro.sched.registry` with ``config.policy_params`` as the
    factory knobs; unset, it is FCFS.  The planner is
    ``config.backfill_mode``.
    """

    def __init__(
        self,
        jobs: Union[Sequence[Job], JobStream, Iterable[Job]],
        config: Optional[SimConfig] = None,
        mechanism: Optional[Mechanism] = None,
        decision_log: Optional[TextIO] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.decision_log = decision_log
        self.mechanism = mechanism
        self.policy: SchedulingPolicy = get_policy(
            self.config.policy or "fcfs", self.config.policy_params
        )
        if isinstance(jobs, Sequence):
            # a list is a stream whose notice horizon is known exactly;
            # the stable sort keeps equal-submit jobs in list order
            self.jobs: List[Job] = list(jobs)
            self._validate_jobs()
            stream = JobStream(
                sorted(self.jobs, key=lambda j: j.submit_time),
                notice_horizon_s=max(
                    (
                        j.submit_time - j.notice_time
                        for j in self.jobs
                        if self._is_noticed(j)
                    ),
                    default=0.0,
                ),
            )
            self._n_jobs_hint = len(self.jobs)
        else:  # a JobStream, or a bare iterator with the default horizon
            self.jobs = []
            stream = as_stream(jobs)
            self._n_jobs_hint = -1
        #: the job-finish metrics funnel: the one source of summary and
        #: breakdown metrics
        self.metrics = SummaryAccumulator(
            instant_threshold_s=self.config.instant_threshold_s
        )
        #: the in-flight window: one record per admitted job that is not
        #: yet retired
        self.records: Dict[int, JobRecord] = {}
        self._stream_it: Iterator[Job] = iter(stream)
        # +1 s pad: admission only ever moves *earlier*, and the pad
        # absorbs producers whose declared horizon is exact-to-the-ULP
        self._notice_horizon_s = stream.notice_horizon_s + 1.0
        self._stream_next: Optional[Job] = next(self._stream_it, None)
        #: admission bookkeeping that replaces end-of-run scans of the
        #: job list
        self._last_admit_submit = -math.inf
        self._admit_first_submit = math.inf
        self._admit_last_end = 0.0
        self._n_arrivals_admitted = 0
        self._n_completed = 0

        self.equeue = EventQueue()
        #: the simulation clock: the time of the batch being processed,
        #: read from the event queue once per batch by :meth:`run`
        self.now = 0.0
        self.cluster = Cluster(self.config.system_size)
        self.coordinator = HybridCoordinator(mechanism, self)
        if self.config.backfill_mode == "conservative":
            self.planner = ConservativeBackfillPlanner()
        else:
            self.planner = BackfillPlanner(
                backfill_depth=self.config.backfill_depth,
                allow_loans=self.config.allow_reserved_loans,
                flexible_malleable=self.config.flexible_malleable,
            )
        self.queue = WaitQueue(
            self.policy, prioritize_ondemand=mechanism is not None
        )
        #: the running jobs' records (the same objects as in ``records``)
        self.running: Dict[int, JobRecord] = {}
        self._events_processed = 0
        self._schedule_passes = 0
        self._passes_skipped = 0
        #: incrementally maintained (release, nodes) blocks per running
        #: job
        self.timeline = AvailabilityTimeline()
        #: True when something planning-relevant (queue, free pool,
        #: reservations, predicted releases) changed since the last
        #: executed scheduling pass
        self._sched_dirty = True
        # built lazily on first draw: SeedSequence + Generator setup is
        # ~20% of a short cell's wall time and most configs never inject
        # a failure; laziness cannot perturb draws (the stream is seeded
        # independently of construction order)
        self._failure_rng = None
        self._failures_injected = 0
        # Instrumentation (repro.obs): metric objects are resolved once
        # here — with the default disabled bundle every one is a shared
        # no-op, so the funnel pays a single no-op method call per hit.
        # Per-event totals are flushed in bulk at the end of run().
        obs = self._obs = get_obs()
        self._c_timeline_upserts = obs.counter("sim.timeline.upserts")
        self._c_timeline_removes = obs.counter("sim.timeline.removes")
        self._c_dirty = {
            cause: obs.counter(f"sim.dirty.{cause}")
            for cause in (
                "start",
                "finish",
                "preempt",
                "resize",
                "submit",
                "coordinator",
            )
        }
        # Hot-path reuse: one batch list, one reservation-overlay list,
        # and one timeline-backed ProfileView serve the whole run, so
        # the per-batch loop allocates nothing for its fixed machinery.
        self._batch: List[Event] = []
        self._resv_overlay: List = []
        self._view = ProfileView(0.0, 0, timeline=self.timeline)

    # ------------------------------------------------------------------
    def _validate_job(self, job: Job) -> None:
        if job.size > self.config.system_size:
            raise ConfigurationError(
                f"job {job.job_id} needs {job.size} nodes but the "
                f"system has {self.config.system_size}"
            )
        if job.state is not JobState.PENDING:
            raise ConfigurationError(
                f"job {job.job_id} enters the simulation in state "
                f"{job.state.value}; pass fresh jobs (clone_jobs)"
            )

    def _validate_jobs(self) -> None:
        seen = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ConfigurationError(f"duplicate job id {job.job_id}")
            seen.add(job.job_id)
            self._validate_job(job)

    @staticmethod
    def _is_noticed(job: Job) -> bool:
        return (
            job.is_ondemand
            and job.notice_class is not NoticeClass.NONE
            and job.notice_time is not None
        )

    # ------------------------------------------------------------------
    # Admission: every workload arrives as a submit-ordered stream
    # ------------------------------------------------------------------
    def _pump_stream(self) -> None:
        """Admit stream jobs whose events could precede the next batch.

        Invariant: a job left *unadmitted* has every event strictly in
        the future.  The stream is submit-ordered and every notice fires
        within ``notice_horizon_s`` of its submission, so the next job
        is safe to defer exactly when ``submit - horizon`` lies beyond
        the head of the event heap; once that stops holding (or the heap
        runs dry) the job is admitted, which pushes its events at times
        no earlier than the head.  Called before each batch pop, this
        keeps the in-flight window tight without ever scheduling an
        event in the past.
        """
        nxt = self._stream_next
        if nxt is None:
            return
        horizon = self._notice_horizon_s
        next_time = self.equeue.next_time
        while nxt is not None:
            front = next_time()
            if front is not None and nxt.submit_time - horizon > front:
                break
            self._admit(nxt)
            nxt = next(self._stream_it, None)
        self._stream_next = nxt

    def _admit(self, job: Job) -> None:
        """Bring one job into the in-flight window."""
        if job.submit_time + EPS < self._last_admit_submit:
            raise ConfigurationError(
                f"job stream is not sorted by submit time: job "
                f"{job.job_id} submits at {job.submit_time} after "
                f"{self._last_admit_submit}"
            )
        if job.submit_time > self._last_admit_submit:
            self._last_admit_submit = job.submit_time
        self._validate_job(job)
        if job.job_id in self.records:
            raise ConfigurationError(f"duplicate job id {job.job_id}")
        if job.submit_time < self._admit_first_submit:
            self._admit_first_submit = job.submit_time
        noticed = self._is_noticed(job)
        if noticed and job.submit_time - job.notice_time > self._notice_horizon_s:
            # admitted this late, the notice could already lie in the past
            raise ConfigurationError(
                f"job {job.job_id}: advance notice leads its submission "
                f"by {job.submit_time - job.notice_time:g} s, beyond the "
                f"stream's declared notice horizon of "
                f"{self._notice_horizon_s - 1.0:g} s"
            )
        if job.no_show:
            self.metrics.observe_noshow(job)
            if not noticed:
                return  # pushes no events: nothing to retain
        else:
            self._n_arrivals_admitted += 1
        self.records[job.job_id] = JobRecord(
            job, new_execution(job, self.config.checkpoint)
        )
        if not job.no_show:
            self.equeue.push(job.submit_time, EventType.JOB_SUBMIT, job.job_id)
        if noticed:
            self.equeue.push(
                job.notice_time, EventType.ADVANCE_NOTICE, job.job_id
            )

    def _retire(self, job_id: int) -> None:
        """Drop a settled job from the in-flight window.

        Late references are all benign by construction:
        :meth:`lookup_job` reports a retired job as ``None`` and every
        coordinator path treats that as "already done", while stale
        finish/failure events bounce off the epoch guard before touching
        ``records``.
        """
        self.records.pop(job_id, None)

    # ------------------------------------------------------------------
    # SimulatorOps surface (driven by the coordinator)
    # ------------------------------------------------------------------
    def usable_free(self) -> int:
        """Free nodes not held by any reservation."""
        return self.cluster.free - self.coordinator.book.total_held

    def running_views(self) -> List[Execution]:
        return [rec.execution for rec in self.running.values()]

    def lookup_job(self, job_id: int) -> Optional[Job]:
        """The in-flight job with this id, or ``None`` once retired.

        Completed jobs leave the window, so a late reference (a planned
        preemption whose victim already finished, a lease whose lender
        completed before its on-demand borrower) sees ``None`` — which
        callers treat as "job already done".
        """
        rec = self.records.get(job_id)
        return rec.job if rec is not None else None

    def push_planned_preempt(self, fire: float, od_id: int, victim_id: int) -> None:
        self.equeue.push(
            max(fire, self.now), EventType.PLANNED_PREEMPT, od_id, victim_id
        )

    def push_reservation_timeout(self, fire: float, od_id: int) -> None:
        if math.isfinite(fire):
            self.equeue.push(
                max(fire, self.now), EventType.RESERVATION_TIMEOUT, od_id
            )

    def mark_sched_dirty(self) -> None:
        """Note a planning-relevant state change made outside the funnel.

        The coordinator calls this when it mutates reservation state
        directly (notice-time reservations, timeout releases); every
        funnel method on this class marks itself.
        """
        self._sched_dirty = True
        self._c_dirty["coordinator"].inc()

    # ------------------------------------------------------------------
    # Job lifecycle operations
    # ------------------------------------------------------------------
    def _start_job(
        self,
        job: Job,
        nodes: int,
        loans: Optional[Dict[int, int]] = None,
    ) -> None:
        """Start *job* on *nodes* nodes, borrowing per *loans* if given."""
        job_id = job.job_id
        self.queue.remove(job)
        rec = self.records[job_id]
        rec.memo = None
        t = self.now
        self.cluster.allocate(nodes)
        if loans:
            for rid, k in loans.items():
                res = self.coordinator.book.get(rid)
                if res is None:
                    raise SimulationError(
                        f"loan from vanished reservation {rid} for job {job_id}"
                    )
                self.coordinator.book.loan_out(res, job_id, k)
        ex = rec.execution
        ex.start_segment(t, nodes)
        rec.epoch += 1
        rec.started_at = t
        self.running[job_id] = rec
        self._sched_dirty = True
        self._c_dirty["start"].inc()
        self.timeline.set_block(job_id, ex.predicted_finish(), nodes)
        self._c_timeline_upserts.inc()
        job.set_state(JobState.RUNNING)
        st = job.stats
        if st.first_start is None:
            st.first_start = t
        st.last_start = t
        self.equeue.push(
            ex.finish_time(), EventType.JOB_FINISH, job_id, rec.epoch
        )
        self._maybe_schedule_failure(rec)
        if self.decision_log is not None:
            self._log(
                t, LogKind.START, job_id, nodes,
                "resume" if st.preemptions else "",
            )

    def start_od_job(self, job: Job) -> None:
        """Start an on-demand job at its full size from the free pool."""
        self._start_job(job, job.size, None)

    def resume_from_queue(self, job: Job, nodes: int) -> None:
        """Lease-return resume (§III-B.3), bypassing the policy order."""
        self._start_job(job, nodes, None)

    def _fold_segment(self, rj: JobRecord, acc, preempted: bool) -> None:
        """Fold the segment *rj* just closed into its job's stats and
        the run's usage series.

        *acc* is the execution model's accounting of the segment; the
        setup of a *preempted* segment is all waste.
        """
        st = rj.job.stats
        start, end = rj.started_at, self.now
        if end > start + EPS:
            self.metrics.observe_segment(start, end, acc.allocated)
        st.allocated_node_seconds += acc.allocated
        st.setup_node_seconds += acc.setup
        if preempted:
            st.wasted_setup_node_seconds += acc.setup
        st.retained_node_seconds += acc.retained
        st.lost_node_seconds += acc.lost
        st.checkpoint_node_seconds += acc.checkpoint

    def preempt_running_job(self, job_id: int, reason: str) -> int:
        """Preempt a running job; returns the released node count.

        The caller (coordinator) is responsible for distributing the
        released nodes via ``on_job_release`` so targeted claims and loan
        returns happen in the right order.
        """
        rj = self.running.pop(job_id, None)
        if rj is None:
            raise SimulationError(f"preempt of non-running job {job_id}")
        self._sched_dirty = True
        self._c_dirty["preempt"].inc()
        self.timeline.remove_block(job_id)
        self._c_timeline_removes.inc()
        job = rj.job
        self._fold_segment(rj, rj.execution.preempt(self.now), preempted=True)
        job.stats.preemptions += 1
        job.set_state(JobState.QUEUED)
        self.queue.add(job)
        rj.epoch += 1
        released = rj.execution.nodes
        self.cluster.release(released)
        if self.decision_log is not None:
            self._log(self.now, LogKind.PREEMPT, job_id, released, reason)
        return released

    def shrink_running_malleable(self, job_id: int, take: int) -> int:
        """Shrink a running malleable job by *take* nodes; returns *take*."""
        rj = self.running.get(job_id)
        if rj is None:
            raise SimulationError(f"shrink of non-running job {job_id}")
        if not isinstance(rj.execution, MalleableExecution):
            raise SimulationError(f"shrink of non-malleable job {job_id}")
        old_nodes = rj.execution.nodes
        new_nodes = old_nodes - take
        rj.execution.resize(self.now, new_nodes)
        self.cluster.resize(old_nodes, new_nodes)
        rj.job.stats.shrinks += 1
        self._reschedule_finish(rj)
        if self.decision_log is not None:
            self._log(self.now, LogKind.SHRINK, job_id, take)
        return take

    def expand_running_malleable(self, job_id: int, give: int) -> int:
        """Expand a running malleable job by up to *give* nodes."""
        rj = self.running.get(job_id)
        if rj is None:
            raise SimulationError(f"expand of non-running job {job_id}")
        if not isinstance(rj.execution, MalleableExecution):
            raise SimulationError(f"expand of non-malleable job {job_id}")
        old_nodes = rj.execution.nodes
        new_nodes = min(rj.job.size, old_nodes + give)
        if new_nodes == old_nodes:
            return 0
        rj.execution.resize(self.now, new_nodes)
        grown = self.cluster.resize(old_nodes, new_nodes)
        rj.job.stats.expands += 1
        self._reschedule_finish(rj)
        if self.decision_log is not None:
            self._log(self.now, LogKind.EXPAND, job_id, grown)
        return grown

    def _reschedule_finish(self, rj: JobRecord) -> None:
        rj.epoch += 1
        self._sched_dirty = True
        self._c_dirty["resize"].inc()
        ex = rj.execution
        self.timeline.set_block(rj.job.job_id, ex.predicted_finish(), ex.nodes)
        self._c_timeline_upserts.inc()
        self.equeue.push(
            ex.finish_time(), EventType.JOB_FINISH, rj.job.job_id, rj.epoch
        )
        # Redraw the failure gap for the new epoch; the exponential is
        # memoryless, so a fresh draw is statistically equivalent.
        self._maybe_schedule_failure(rj)

    def _maybe_schedule_failure(self, rj: JobRecord) -> None:
        """Arm a failure event for this allocation if injection is on."""
        fm = self.config.failures
        if not fm.enabled:
            return
        if self._failure_rng is None:
            self._failure_rng = RngStreams(
                self.config.failure_seed
            ).get("failures")
        gap = fm.draw_time_to_failure(rj.execution.nodes, self._failure_rng)
        at = self.now + gap
        if at < rj.execution.finish_time() - EPS:
            self.equeue.push(
                at, EventType.JOB_FAILURE, rj.job.job_id, rj.epoch
            )

    def _log(
        self, time: float, kind: LogKind, job_id: int, nodes: int,
        detail: str = "",
    ) -> None:
        """Write one decision to the decision log; callers check first
        that there is one, so a run without a log formats nothing."""
        self.decision_log.write(
            LogEntry(time, kind, job_id, nodes, detail).to_json_line() + "\n"
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    # Every handler takes an event's two payload ints (see ``Event``);
    # the ones that need only the job id ignore the second.
    def _handle_submit(self, job_id: int, _aux: int = 0) -> None:
        job = self.records[job_id].job
        job.set_state(JobState.QUEUED)
        self.queue.add(job)
        self._sched_dirty = True
        self._c_dirty["submit"].inc()
        if self.decision_log is not None:
            self._log(self.now, LogKind.SUBMIT, job_id, job.size)
        if job.is_ondemand:
            self.coordinator.on_od_arrival(job)

    def _handle_notice(self, job_id: int, _aux: int = 0) -> None:
        job = self.records[job_id].job
        job.set_state(JobState.NOTICED)
        if self.decision_log is not None:
            self._log(
                self.now, LogKind.NOTICE, job_id, job.size,
                f"eta={job.estimated_arrival:.0f}",
            )
        self.coordinator.on_advance_notice(job)
        if job.no_show and self.coordinator.book.get(job_id) is None:
            # no reservation was opened (baseline / NOTHING strategy),
            # so no timeout will ever fire for this no-show: this notice
            # was its last event
            self._retire(job_id)

    def _handle_finish(self, job_id: int, epoch: int) -> None:
        rj = self.running.get(job_id)
        if rj is None or rj.epoch != epoch:
            return  # stale event from before a resize/preemption
        self._sched_dirty = True
        self._c_dirty["finish"].inc()
        self.timeline.remove_block(job_id)
        self._c_timeline_removes.inc()
        job = rj.job
        now = self.now
        self._fold_segment(rj, rj.execution.complete(now), preempted=False)
        del self.running[job_id]
        job.set_state(JobState.COMPLETED)
        job.stats.end_time = now
        released = rj.execution.nodes
        self.cluster.release(released)
        if self.decision_log is not None:
            self._log(now, LogKind.FINISH, job_id, released)
        self.metrics.observe_finished(job)
        if job.is_ondemand:
            self.coordinator.on_od_completion(job)
        else:
            self.coordinator.on_job_release(job_id, released)
        self._n_completed += 1
        if now > self._admit_last_end:
            self._admit_last_end = now
        self._retire(job_id)

    def _handle_failure(self, job_id: int, epoch: int) -> None:
        """A node under this job failed: roll back and restart in place.

        The allocation is kept (§II-A: rigid applications "restart from
        the latest checkpoint in the event of an interruption"); the job
        pays a fresh setup and, for rigid jobs, loses the compute after
        its last completed checkpoint.
        """
        rj = self.running.get(job_id)
        if rj is None or rj.epoch != epoch:
            return  # stale: the segment this failure was drawn for is gone
        self._failures_injected += 1
        st = rj.job.stats
        self._fold_segment(rj, rj.execution.preempt(self.now), preempted=True)
        st.failures += 1
        ex = rj.execution
        ex.start_segment(self.now, ex.nodes)
        rj.started_at = self.now
        self._reschedule_finish(rj)
        if self.decision_log is not None:
            self._log(self.now, LogKind.FAILURE, job_id, ex.nodes)

    def _handle_timeout(self, od_id: int, _aux: int = 0) -> None:
        self.coordinator.on_reservation_timeout(od_id)
        job = self.lookup_job(od_id)
        if job is not None and job.no_show:
            # the expired reservation was this announced no-show's last
            # trace of activity
            if job.state not in (JobState.PENDING, JobState.NOTICED):
                raise SimulationError(
                    f"no-show job {od_id} somehow reached state "
                    f"{job.state.value}"
                )
            self._retire(od_id)

    # ------------------------------------------------------------------
    # Scheduling pass
    # ------------------------------------------------------------------
    def _predict_wall(self, job: Job, nodes: int) -> float:
        """Estimated wall-clock duration of *job* if started now on *nodes*.

        Planners only ask about queued jobs, and a queued job's execution
        state (completed work, remaining work) cannot change until it
        starts, so the prediction is memoized per job and dropped when
        the job starts or retires.  A preempted job re-enters the queue
        after that drop and gets a fresh prediction from its retained
        progress.
        """
        rec = self.records[job.job_id]
        hit = rec.memo
        if hit is not None and hit[0] == nodes:
            return hit[1]
        wall = rec.execution.predict_wall(nodes)
        rec.memo = (nodes, wall)
        return wall

    def _reservation_blocks(self, active: Sequence[Reservation]) -> List:
        """Reservation pseudo-blocks: held nodes release when the owning
        on-demand job is predicted to finish.  Recomputed per pass from
        the pass's snapshot of *active* reservations (the release time of
        an *arrived* reservation tracks ``now``) into a single reused
        list; active reservations are few, so this overlay stays cheap."""
        blocks = self._resv_overlay
        blocks.clear()
        for r in active:
            if r.held <= 0:
                continue
            od = self.records[r.od_job_id].job
            release = (
                self.now + od.estimate
                if r.arrived
                else r.estimated_arrival + od.estimate
            )
            # clamp to strictly after now: the profile builder folds
            # blocks at t <= now + EPS into *present* free capacity,
            # and held nodes are by definition not startable now — the
            # conservative planner would otherwise start backfills on
            # them without loans (oversubscribing the free pool)
            blocks.append((max(release, self.now + 2 * EPS), r.held))
        return blocks

    def _availability_view(
        self, usable: int, active: Sequence[Reservation]
    ) -> ProfileView:
        """This instant's planner-facing availability profile."""
        return self._view.reset(
            self.now, usable, self._reservation_blocks(active)
        )

    def _has_clock_tracking_block(self) -> bool:
        """Does any reservation pseudo-block's release move with ``now``?

        Running jobs' predicted finishes are fixed between funnel
        mutations, but a reservation's pseudo-block releases at
        ``max(release, now)`` where ``release`` is ``now + estimate``
        for an *arrived* reservation (always clock-tracking) or
        ``estimated_arrival + estimate`` for a pending one — which also
        starts tracking the clock once that instant is overdue (the
        ``max`` clamps it to ``now``; reachable for LATE-notice jobs
        with short estimates inside the grace window).  Such a block
        can reorder against fixed blocks as time passes, voiding the
        stale-batch skip's time-invariance argument.
        """
        for r in self.coordinator.book.holding_reservations():
            if r.arrived:
                return True
            od = self.records[r.od_job_id].job
            if r.estimated_arrival + od.estimate <= self.now + EPS:
                return True
        return False

    def _can_skip_pass(self) -> bool:
        """Is this pass over a non-empty queue provably a no-op?

        (:meth:`run` skips an empty-queue pass itself.)  The test is
        exact, never heuristic — skipping must not be able to change a
        single decision:

        * **Nothing changed.**  No funnel mutation, queue change, or
          reservation change happened since the last executed pass —
          the event batch was entirely stale events — so the planner
          would see byte-identical inputs except ``now``.  With a
          time-invariant policy the queue order is unchanged, and as
          ``now`` advances against releases fixed in time, backfill
          windows only shrink and extra-node budgets cannot change, so
          a plan that started nothing then starts nothing now.  That
          argument requires every block's release to actually be fixed
          — a clock-tracking reservation pseudo-block (it can reorder
          against fixed blocks and grow the extra-node budget) refuses
          this skip (:meth:`_has_clock_tracking_block`).
        """
        return (
            not self._sched_dirty
            and self.policy.time_invariant
            and not self._has_clock_tracking_block()
        )

    def _schedule_pass(self) -> None:
        """One scheduling pass: start what the planner picks now."""
        self._sched_dirty = False
        book = self.coordinator.book
        queue = self.queue
        # Pre-phase: waiting on-demand jobs assemble nodes via their
        # (still-collecting) reservations, earliest arrival first.
        if self.mechanism is not None:
            for od in queue.waiting_ondemand():
                self.coordinator.try_start_queued_od(od)
        if not queue.jobs:
            return
        usable = self.usable_free()
        # nothing below mutates the book before planning: one snapshot,
        # skipped when no reservation holds nodes (only those lend nodes
        # or add pseudo-blocks)
        active = book.active_reservations() if book.total_held else ()
        loanable = [
            (r.od_job_id, r.held)
            for r in active
            if not r.arrived and r.held > 0
        ]
        if usable <= 0 and not loanable:
            return
        decisions = self.planner.plan(
            profile=self._availability_view(usable, active),
            ordered_queue=queue.planning_order(self.now),
            loanable=loanable,
            predict_wall=self._predict_wall,
        )
        for d in decisions:
            self._start_job(d.job, d.nodes, d.loans or None)

    # ------------------------------------------------------------------
    # Invariant validation (tests / debug runs)
    # ------------------------------------------------------------------
    def validate_state(self) -> None:
        self.coordinator.book.validate(self.cluster.free)
        for job_id, rj in self.running.items():
            if rj.job.state is not JobState.RUNNING:
                raise SimulationError(
                    f"job {job_id} in running set but state {rj.job.state}"
                )
        allocated = sum(rj.execution.nodes for rj in self.running.values())
        if self.cluster.free + allocated != self.cluster.total:
            raise SimulationError(
                f"node conservation broken: {allocated} allocated + "
                f"{self.cluster.free} free != {self.cluster.total} total"
            )
        self.queue.validate()
        queued = {job.job_id for job in self.queue.jobs}
        stale = [
            job_id
            for job_id, rec in self.records.items()
            if rec.memo is not None and job_id not in queued
        ]
        if stale:
            raise SimulationError(
                "wall predictions memoized for jobs not in the queue: "
                f"{sorted(stale)}"
            )
        if self.usable_free() < 0:
            raise SimulationError(
                f"reservations hold {self.coordinator.book.total_held} nodes "
                f"but only {self.cluster.free} are free"
            )
        self.timeline.validate_against(
            {
                job_id: (rj.execution.predicted_finish(), rj.execution.nodes)
                for job_id, rj in self.running.items()
            }
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the trace to completion and return the result record."""
        t0 = _time.perf_counter()
        # handlers indexed by the int event type, each called with the
        # event's two payload ints
        by_type = {
            EventType.JOB_FINISH: self._handle_finish,
            EventType.JOB_FAILURE: self._handle_failure,
            EventType.PLANNED_PREEMPT: self.coordinator.on_planned_preempt,
            EventType.ADVANCE_NOTICE: self._handle_notice,
            EventType.JOB_SUBMIT: self._handle_submit,
            EventType.RESERVATION_TIMEOUT: self._handle_timeout,
        }
        handlers = [by_type.get(etype) for etype in EventType]
        equeue = self.equeue
        pending = equeue.heap
        cluster = self.cluster
        book = self.coordinator.book
        queue = self.queue.jobs  # mutated in place, never rebound
        batch_buf = self._batch
        validate = self.config.validate_invariants
        traced = self._obs.enabled
        tracer = self._obs.tracer
        clock = _time.perf_counter
        with self._obs.span("sim.run", jobs=self._n_jobs_hint), \
                self._obs.memory.section("sim.run"):
            while True:
                self._pump_stream()
                if not pending:
                    break
                batch = equeue.pop_batch(batch_buf)
                # the one clock read per batch: pop_batch set the clock
                # to the batch's first time
                now = self.now = equeue.now
                cluster.advance(now)
                book.advance(now)
                self._events_processed += len(batch)
                # positional unpacking of the Event layout (see Event)
                for _t, etype, _seq, job_id, aux in batch:
                    handlers[etype](job_id, aux)
                # one scheduling pass per batch unless it is provably a no-op
                if not queue:
                    # empty queue: nothing to order or start, and no
                    # waiting on-demand job for the pre-phase (those sit
                    # in the queue too); any pending dirtiness is
                    # consumed, as a no-op pass would
                    self._sched_dirty = False
                    self._passes_skipped += 1
                elif self._can_skip_pass():
                    self._passes_skipped += 1
                elif traced:
                    # the hottest traced region: Tracer.record, not a
                    # ``with span`` (the pass opens no span inside it)
                    self._schedule_passes += 1
                    start = clock()
                    self._schedule_pass()
                    tracer.record("sim.pass", start)
                else:
                    self._schedule_passes += 1
                    self._schedule_pass()
                if validate:
                    self.validate_state()
        # bulk-flush loop totals: one counter call per run, not per event
        obs = self._obs
        obs.counter("sim.events.processed").inc(self._events_processed)
        obs.counter("sim.passes.run").inc(self._schedule_passes)
        obs.counter("sim.passes.skipped").inc(self._passes_skipped)
        latency = self.coordinator.decision_latency
        if obs.enabled:
            # one run's histogram as a snapshot: O(buckets) to fold in
            obs.registry.merge_dict(
                {"histograms": {latency.name: latency.to_dict()}}
            )

        if self.running or queue:
            raise SimulationError(
                f"simulation drained its events with {len(self.running)} jobs "
                f"running and {len(queue)} queued — scheduling deadlock "
                f"(free={self.cluster.free}, "
                f"held={self.coordinator.book.total_held})"
            )

        # The admission/finish counters and the retained window answer
        # what a scan of the whole job list would.
        for rec in self.records.values():
            job = rec.job
            if not job.no_show:
                raise SimulationError("some jobs never completed")
            if job.state not in (JobState.PENDING, JobState.NOTICED):
                raise SimulationError(
                    f"no-show job {job.job_id} somehow reached state "
                    f"{job.state.value}"
                )
        if self._n_completed != self._n_arrivals_admitted:
            raise SimulationError("some jobs never completed")
        # node-seconds the machine held == node-seconds the jobs' segments
        # account for (tolerance: float rounding of the two integrals)
        capacity = cluster.total * cluster.clock
        held = capacity - cluster.free_node_seconds
        accounted = self.metrics.allocated_node_seconds
        if abs(held - accounted) > 1e-9 * capacity:
            raise SimulationError(
                f"node-seconds not conserved: the cluster held {held!r} "
                f"but job segments account for {accounted!r}"
            )
        first_submit = (
            self._admit_first_submit
            if math.isfinite(self._admit_first_submit)
            else 0.0
        )
        last_end = self._admit_last_end
        return SimulationResult(
            jobs=self.jobs,
            mechanism=self.mechanism.name if self.mechanism else None,
            policy=self.policy.name,
            system_size=self.config.system_size,
            makespan=last_end,
            first_submit=first_submit,
            last_end=last_end,
            reserved_idle_node_seconds=self.coordinator.book.held_node_seconds,
            free_node_seconds=self.cluster.free_node_seconds,
            decision_latency=LatencyStats.from_histogram(latency),
            events_processed=self._events_processed,
            schedule_passes=self._schedule_passes,
            passes_skipped=self._passes_skipped,
            wall_time_s=_time.perf_counter() - t0,
            lease_resumes=self.coordinator.lease_resumes,
            lease_expands=self.coordinator.lease_expands,
            failures_injected=self._failures_injected,
            accumulator=self.metrics,
        )
