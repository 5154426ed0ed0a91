"""Tests for the opt-in scheduler decision log, streamed as JSONL."""

import io

import pytest

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobType, NoticeClass
from repro.sim.config import SimConfig
from repro.sim.schedlog import LogEntry, LogKind, iter_from_file
from repro.experiments.runner import run_one
from repro.sim.simulator import Simulation
from repro.util.errors import ConfigurationError
from repro.workload.spec import theta_spec


def cfg():
    return SimConfig(
        system_size=100,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )


def run_logged(jobs, mechanism):
    """Simulate with a StringIO decision log; returns the parsed entries."""
    log = io.StringIO()
    Simulation(jobs, cfg(), Mechanism.parse(mechanism), decision_log=log).run()
    return list(map(LogEntry.from_json_line, log.getvalue().splitlines()))


def trace():
    return [
        Job(job_id=1, job_type=JobType.RIGID, submit_time=0.0, size=100,
            runtime=10000.0, estimate=12000.0, setup_time=100.0),
        Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=5000.0, size=40,
            runtime=1000.0, estimate=1000.0,
            notice_class=NoticeClass.ACCURATE, notice_time=3500.0,
            estimated_arrival=5000.0),
        Job(job_id=3, job_type=JobType.MALLEABLE, submit_time=11000.0,
            size=60, min_size=12, runtime=500.0, estimate=500.0),
    ]


class TestLogEntry:
    def test_json_round_trip(self):
        entry = LogEntry(3600.0, LogKind.PREEMPT, 7, 64, "paa-arrival")
        assert LogEntry.from_json_line(entry.to_json_line()) == entry

    def test_iter_from_file_skips_blank_lines(self, tmp_path):
        a = LogEntry(10.0, LogKind.SUBMIT, 1)
        b = LogEntry(20.0, LogKind.START, 1, nodes=4)
        path = tmp_path / "log.jsonl"
        path.write_text(f"{a.to_json_line()}\n\n{b.to_json_line()}\n")
        assert list(iter_from_file(path)) == [a, b]


class TestSimulationLogging:
    def test_off_by_default(self, monkeypatch):
        def no_entry(*args):
            raise AssertionError("a decision was logged with no sink")

        monkeypatch.setattr("repro.sim.simulator.LogEntry", no_entry)
        res = Simulation(trace(), cfg(), Mechanism.parse("N&PAA")).run()
        assert res.accumulator.n_jobs == 3

    def test_failed_run_keeps_the_decisions_made_so_far(self, tmp_path):
        """run_one streams to its file, so a run that raises mid-way
        leaves every decision before the fault."""
        jobs = trace()
        jobs[1], jobs[2] = jobs[2], jobs[1]  # out of submit order
        path = tmp_path / "cell.jsonl"
        with pytest.raises(ConfigurationError, match="sorted by submit"):
            run_one(theta_spec(days=1), 0, None, cfg(), iter(jobs), str(path))
        entries = list(iter_from_file(path))
        assert entries and entries[0].kind is LogKind.SUBMIT

    def test_full_lifecycle_recorded(self):
        kinds = {e.kind for e in run_logged(trace(), "N&PAA")}
        assert LogKind.SUBMIT in kinds
        assert LogKind.NOTICE in kinds
        assert LogKind.START in kinds
        assert LogKind.FINISH in kinds
        assert LogKind.PREEMPT in kinds  # od preempts the rigid job

    def test_preempt_reason_recorded(self):
        entries = run_logged(trace(), "N&PAA")
        preempts = [e for e in entries if e.kind is LogKind.PREEMPT]
        assert preempts and preempts[0].detail == "paa-arrival"
        assert preempts[0].job_id == 1

    def test_job_history_is_ordered_and_complete(self):
        history = [e for e in run_logged(trace(), "N&PAA") if e.job_id == 1]
        kinds = [e.kind for e in history]
        # submit -> start -> preempt -> start(resume) -> finish
        assert kinds == [
            LogKind.SUBMIT,
            LogKind.START,
            LogKind.PREEMPT,
            LogKind.START,
            LogKind.FINISH,
        ]
        times = [e.time for e in history]
        assert times == sorted(times)
        assert history[3].detail == "resume"

    def test_shrink_expand_logged_under_spaa(self):
        jobs = [
            Job(job_id=1, job_type=JobType.MALLEABLE, submit_time=0.0,
                size=100, min_size=20, runtime=2000.0, estimate=2000.0),
            Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=500.0,
                size=40, runtime=1000.0, estimate=1000.0),
        ]
        entries = run_logged(jobs, "N&SPAA")
        shrinks = [e for e in entries if e.kind is LogKind.SHRINK]
        assert shrinks
        assert any(e.kind is LogKind.EXPAND for e in entries)
        assert shrinks[0].job_id == 1 and shrinks[0].nodes == 40
