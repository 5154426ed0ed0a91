"""Tests for the continuous performance observatory (:mod:`repro.perf`).

Covers the record schema (hashing, NaN/inf round-trips), the JSONL
store (atomic appends, torn tails, bad lines), the measurement harness,
the regression engine's edge cases (missing baseline, single-sample
history, non-finite metrics, machine-fingerprint mismatch), the
``repro-hybrid perf`` CLI end to end — including the acceptance
scenario: a deliberately injected 2x slowdown must exit non-zero and
name the regression, while an identical re-run passes clean — and the
memory-profiling hooks in :mod:`repro.obs.memory`.

The perf-trend dashboard is pinned by a golden file; regenerate after
an intentional rendering change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_perf.py

and review the diff like any other code change.
"""

import json
import math
import os
import pathlib
import subprocess
import tracemalloc

import pytest

from repro.perf.harness import Measurement, bench, measure
from repro.perf.record import (
    PerfRecord,
    current_git_sha,
    decode_metrics,
    encode_metrics,
    machine_fingerprint,
    scenario_hash,
)
from repro.perf.regress import (
    Verdict,
    compare_latest,
    compare_record,
    metric_direction,
    render_verdicts,
)
from repro.perf.report import render_perf_html
from repro.perf.store import PerfStore

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: a fixed fingerprint so store/regress tests are machine-independent
MACHINE_A = {"cpu_count": 8, "python": "3.11", "platform": "Linux-x86_64"}
MACHINE_B = {"cpu_count": 64, "python": "3.12", "platform": "Linux-aarch64"}


def rec(
    wall=1.0,
    scenario="sim_core",
    params=None,
    machine=MACHINE_A,
    git_sha="c0ffee1",
    **metrics,
):
    metrics.setdefault("wall_time_s", wall)
    return PerfRecord(
        scenario=scenario,
        params=params if params is not None else {"n_jobs": 1000},
        metrics=metrics,
        machine=dict(machine),
        git_sha=git_sha,
        recorded_unix=0.0,
    )


class TestRecord:
    def test_scenario_hash_is_content_addressed(self):
        a = scenario_hash("sim_core", {"n_jobs": 1000})
        assert a == scenario_hash("sim_core", {"n_jobs": 1000})
        assert a != scenario_hash("sim_core", {"n_jobs": 2000})
        assert a != scenario_hash("sim_corex", {"n_jobs": 1000})
        # key order must not matter
        assert scenario_hash("s", {"a": 1, "b": 2}) == scenario_hash(
            "s", {"b": 2, "a": 1}
        )

    def test_round_trip(self):
        record = rec(wall=1.5, events_per_s=2000.0)
        back = PerfRecord.from_dict(record.to_dict())
        assert back == record

    def test_post_init_fills_hash(self):
        record = rec()
        assert record.scenario_hash == scenario_hash(
            "sim_core", {"n_jobs": 1000}
        )

    def test_nan_inf_encode_as_strings(self):
        encoded = encode_metrics(
            {"a": float("nan"), "b": float("inf"), "c": float("-inf"), "d": 1}
        )
        assert encoded == {"a": "nan", "b": "inf", "c": "-inf", "d": 1.0}
        # the encoded form survives strict (allow_nan=False) JSON
        strict = json.dumps(encoded, allow_nan=False)
        decoded = decode_metrics(json.loads(strict))
        assert math.isnan(decoded["a"])
        assert decoded["b"] == float("inf")
        assert decoded["c"] == float("-inf")
        assert decoded["d"] == 1.0

    def test_machine_fingerprint_fields(self):
        fp = machine_fingerprint()
        assert set(fp) == {"cpu_count", "python", "platform"}
        assert fp["cpu_count"] >= 1

    def test_current_git_sha_in_repo(self):
        sha = current_git_sha(str(pathlib.Path(__file__).parent.parent))
        assert sha != "unknown" and len(sha) >= 7

    def test_current_git_sha_marks_a_dirty_tree(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "f.txt").write_text("a\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "init")
        clean = current_git_sha(str(tmp_path))
        assert clean != "unknown" and not clean.endswith("-dirty")
        (tmp_path / "untracked.txt").write_text("x\n")
        assert current_git_sha(str(tmp_path)) == clean  # untracked: clean
        (tmp_path / "f.txt").write_text("b\n")
        assert current_git_sha(str(tmp_path)) == f"{clean}-dirty"


class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        store = PerfStore(tmp_path / "perf.jsonl")
        assert store.load() == []  # missing file is an empty history
        r1, r2 = rec(wall=1.0), rec(wall=2.0, git_sha="c0ffee2")
        store.append(r1)
        store.append(r2)
        loaded = store.load()
        assert loaded == [r1, r2]

    def test_nan_record_survives_the_store(self, tmp_path):
        store = PerfStore(tmp_path / "perf.jsonl")
        store.append(rec(wall=float("nan"), peak=float("inf")))
        (loaded,) = store.load()
        assert math.isnan(loaded.metrics["wall_time_s"])
        assert loaded.metrics["peak"] == float("inf")

    def test_bad_interior_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        store = PerfStore(path)
        store.append(rec(wall=1.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{this is not json\n")
        store.append(rec(wall=2.0))
        loaded = store.load()
        assert [r.metrics["wall_time_s"] for r in loaded] == [1.0, 2.0]
        assert store.n_bad_lines == 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        store = PerfStore(path)
        store.append(rec(wall=1.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"scenario": "half')  # no newline: torn append
        loaded = store.load()
        assert len(loaded) == 1
        assert store.n_bad_lines == 0  # a torn tail is not corruption

    def test_filter_and_latest_baseline(self, tmp_path):
        store = PerfStore(tmp_path / "perf.jsonl")
        for i in range(8):
            store.append(rec(wall=float(i), git_sha=f"sha{i}"))
        store.append(rec(wall=9.0, params={"n_jobs": 77}))
        store.append(rec(wall=9.0, scenario="html_report", params={}))
        assert len(store.filter(scenario="sim_core")) == 9
        h = scenario_hash("sim_core", {"n_jobs": 1000})
        assert len(store.filter(scenario_hash=h)) == 8
        window = store.latest_baseline(h, n=3)
        assert [r.metrics["wall_time_s"] for r in window] == [5.0, 6.0, 7.0]
        assert store.latest_baseline(h, n=3, machine=MACHINE_B) == []

    def test_concurrent_style_interleaving(self, tmp_path):
        # two stores on the same path (as two processes would be)
        path = tmp_path / "perf.jsonl"
        a, b = PerfStore(path), PerfStore(path)
        a.append(rec(wall=1.0))
        b.append(rec(wall=2.0))
        a.append(rec(wall=3.0))
        assert [r.metrics["wall_time_s"] for r in PerfStore(path).load()] == [
            1.0, 2.0, 3.0,
        ]


class TestHarness:
    def test_measure_counts_and_min(self):
        calls = []

        def fn():
            calls.append(1)
            return {"events_processed": 100, "note": "ignored-non-numeric"}

        m = measure(fn, warmup=2, repeat=3)
        assert len(calls) == 5
        assert len(m.times_s) == 3
        assert m.wall_time_s == min(m.times_s)
        assert m.extra == {"events_processed": 100.0}
        metrics = m.metrics()
        assert metrics["events_per_s"] == pytest.approx(
            100.0 / m.wall_time_s
        )

    def test_measure_rejects_zero_repeat(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeat=0)

    def test_memory_rep_is_untimed_and_restores_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        timed_calls = []

        def fn():
            timed_calls.append(tracemalloc.is_tracing())
            blob = [0] * 50_000
            return {"n": len(blob)}

        m = measure(fn, warmup=0, repeat=2, memory=True)
        # the two timed reps ran untraced; only the extra rep traced
        assert timed_calls[:2] == [False, False]
        assert timed_calls[2] is True
        assert not tracemalloc.is_tracing()
        assert m.memory["tracemalloc_peak_bytes"] > 50_000 * 8 * 0.9
        assert m.memory["peak_rss_bytes"] > 0

    def test_bench_appends_a_record(self, tmp_path):
        store = PerfStore(tmp_path / "perf.jsonl")
        record = bench(
            "toy", {"k": 1}, lambda: {"events_processed": 10},
            store=store, warmup=0, repeat=1,
        )
        assert record.scenario_hash == scenario_hash("toy", {"k": 1})
        assert record.git_sha == current_git_sha()
        assert record.recorded_unix > 0
        (loaded,) = store.load()
        assert loaded.scenario_hash == record.scenario_hash
        assert "wall_time_s" in loaded.metrics


class TestRegress:
    def history(self, *walls, **kw):
        return [rec(wall=w, git_sha=f"sha{i}", **kw)
                for i, w in enumerate(walls)]

    def wall_verdict(self, verdicts):
        (v,) = [v for v in verdicts if v.metric == "wall_time_s"]
        return v

    def test_directions(self):
        assert metric_direction("wall_time_s") == "lower"
        assert metric_direction("tracemalloc_peak_bytes") == "lower"
        assert metric_direction("events_per_s") == "higher"

    def test_ok_within_tolerance(self):
        v = self.wall_verdict(
            compare_record(rec(wall=1.1), self.history(1.0, 1.0, 1.0))
        )
        assert v.status == "ok" and not v.failed

    def test_2x_slowdown_is_a_regression(self):
        v = self.wall_verdict(
            compare_record(rec(wall=2.0), self.history(1.0, 1.0, 1.0))
        )
        assert v.status == "regression" and v.failed
        assert v.ratio == pytest.approx(2.0)

    def test_higher_is_better_direction(self):
        history = self.history(1.0, events_per_s=1000.0)
        v = [
            v for v in compare_record(
                rec(wall=1.0, events_per_s=400.0), history
            )
            if v.metric == "events_per_s"
        ][0]
        assert v.status == "regression"
        improved = [
            v for v in compare_record(
                rec(wall=1.0, events_per_s=2000.0), history
            )
            if v.metric == "events_per_s"
        ][0]
        assert improved.status == "improvement" and not improved.failed

    def test_missing_baseline_is_not_a_failure(self):
        verdicts = compare_record(rec(wall=1.0), [])
        assert all(v.status == "no-baseline" for v in verdicts)
        assert not any(v.failed for v in verdicts)

    def test_single_sample_history_still_judges(self):
        v = self.wall_verdict(
            compare_record(rec(wall=2.0), self.history(1.0))
        )
        assert v.status == "regression" and v.n_baseline == 1

    def test_rolling_median_ignores_one_outlier(self):
        # one noisy 10s baseline among honest 1s ones must not move the bar
        v = self.wall_verdict(
            compare_record(rec(wall=1.1), self.history(1.0, 10.0, 1.0, 1.0))
        )
        assert v.status == "ok" and v.baseline == 1.0

    def test_nan_current_reports_not_finite(self):
        v = self.wall_verdict(
            compare_record(rec(wall=float("nan")), self.history(1.0))
        )
        assert v.status == "not-finite" and not v.failed

    def test_nonfinite_baselines_are_dropped_from_the_window(self):
        history = self.history(1.0, float("inf"), float("nan"), 1.0)
        v = self.wall_verdict(compare_record(rec(wall=1.05), history))
        assert v.status == "ok" and v.n_baseline == 2

    def test_machine_mismatch_skips_with_warning_not_crash(self):
        history = self.history(1.0, 1.0, machine=MACHINE_B)
        verdicts = compare_record(rec(wall=9.0, machine=MACHINE_A), history)
        assert all(v.status == "machine-mismatch" for v in verdicts)
        assert not any(v.failed for v in verdicts)
        assert "different machine" in verdicts[0].note

    def test_ignore_machine_judges_anyway(self):
        history = self.history(1.0, 1.0, machine=MACHINE_B)
        v = self.wall_verdict(
            compare_record(
                rec(wall=9.0, machine=MACHINE_A), history,
                ignore_machine=True,
            )
        )
        assert v.status == "regression"

    def test_mixed_machines_prefer_same_fingerprint(self):
        history = self.history(9.0, 9.0, machine=MACHINE_B) + self.history(
            1.0, 1.0, machine=MACHINE_A
        )
        v = self.wall_verdict(
            compare_record(rec(wall=1.0, machine=MACHINE_A), history)
        )
        assert v.status == "ok" and v.baseline == 1.0

    def test_compare_latest_judges_only_the_newest_per_scenario(self):
        current = self.history(5.0, 1.0)  # older slow record superseded
        verdicts = compare_latest(current, self.history(1.0, 1.0))
        assert not any(v.failed for v in verdicts)

    def test_render_verdicts_tally(self):
        verdicts = compare_record(rec(wall=2.0), self.history(1.0))
        text = render_verdicts(verdicts)
        assert "FAIL" in text and "regression=1" in text
        ok_text = render_verdicts(compare_record(rec(1.0), self.history(1.0)))
        assert ok_text.splitlines()[-1].startswith("PASS")


class TestPerfCli:
    def run_cli(self, argv, capsys):
        from repro.experiments.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def seed_baseline(self, path, wall=1.0, n=3):
        store = PerfStore(path)
        fp = machine_fingerprint()
        for i in range(n):
            store.append(
                rec(wall=wall, events_per_s=1000.0 / wall,
                    machine=fp, git_sha=f"base{i}")
            )
        return store

    def test_injected_2x_slowdown_fails_and_names_the_regression(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.jsonl"
        history = tmp_path / "history.jsonl"
        self.seed_baseline(baseline, wall=1.0)
        # the deliberately injected 2x slowdown
        PerfStore(history).append(
            rec(wall=2.0, events_per_s=500.0, machine=machine_fingerprint())
        )
        code, out = self.run_cli(
            ["perf", "compare", "--history", str(history),
             "--baseline", str(baseline)],
            capsys,
        )
        assert code == 1
        assert "regression" in out
        assert "sim_core" in out and "wall_time_s" in out
        assert "FAIL" in out

    def test_identical_rerun_passes_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        history = tmp_path / "history.jsonl"
        self.seed_baseline(baseline, wall=1.0)
        PerfStore(history).append(
            rec(wall=1.0, events_per_s=1000.0, machine=machine_fingerprint())
        )
        for _ in range(2):  # identical re-runs stay green
            code, out = self.run_cli(
                ["perf", "compare", "--history", str(history),
                 "--baseline", str(baseline)],
                capsys,
            )
            assert code == 0
            assert "PASS" in out

    def test_machine_mismatch_warns_but_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        history = tmp_path / "history.jsonl"
        store = PerfStore(baseline)
        store.append(rec(wall=1.0, machine=MACHINE_B))
        PerfStore(history).append(rec(wall=9.0, machine=MACHINE_A))
        code, out = self.run_cli(
            ["perf", "compare", "--history", str(history),
             "--baseline", str(baseline)],
            capsys,
        )
        assert code == 0
        assert "machine-mismatch" in out
        # and --ignore-machine turns the same data into a failure
        code, out = self.run_cli(
            ["perf", "compare", "--history", str(history),
             "--baseline", str(baseline), "--ignore-machine"],
            capsys,
        )
        assert code == 1

    def test_perf_run_records_and_compares_end_to_end(
        self, tmp_path, capsys
    ):
        history = tmp_path / "history.jsonl"
        argv = [
            "perf", "run", "--scenario", "sim_core",
            "-p", "n_jobs=120", "--warmup", "0", "--repeat", "1",
            "--history", str(history),
        ]
        code, out = self.run_cli(argv, capsys)
        assert code == 0 and "sim_core" in out
        (record,) = PerfStore(history).load()
        assert record.metrics["events_processed"] > 0
        assert record.scenario_hash == scenario_hash(
            "sim_core", {"n_jobs": 120}
        )
        # compare a fresh identical run against it: clean pass.  The
        # gate reads the deterministic event count, not wall time — two
        # single-shot timings of a 120-job run are too noisy to judge
        # (timing verdicts: test_identical_rerun_passes_clean and
        # test_injected_2x_slowdown_fails_and_names_the_regression)
        code, out = self.run_cli(argv, capsys)
        assert code == 0
        code, out = self.run_cli(
            ["perf", "compare", "--history", str(history),
             "--baseline", str(history), "--metrics", "events_processed"],
            capsys,
        )
        assert code == 0 and "PASS" in out

    def test_perf_record_guards_existing_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        baseline = tmp_path / "smoke.jsonl"
        monkeypatch.delenv("REPRO_UPDATE_BASELINE", raising=False)
        argv = [
            "perf", "record", "--scenario", "sim_core",
            "-p", "n_jobs=60", "--warmup", "0", "--repeat", "1",
            "--baseline", str(baseline),
        ]
        code, _out = self.run_cli(argv, capsys)
        assert code == 0 and len(PerfStore(baseline).load()) == 1
        with pytest.raises(SystemExit, match="REPRO_UPDATE_BASELINE"):
            self.run_cli(argv, capsys)
        monkeypatch.setenv("REPRO_UPDATE_BASELINE", "1")
        code, _out = self.run_cli(argv, capsys)
        assert code == 0 and len(PerfStore(baseline).load()) == 2

    def test_perf_report_html_and_text(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        self.seed_baseline(history, wall=1.0)
        out_html = tmp_path / "trend.html"
        code, out = self.run_cli(
            ["perf", "report", "--history", str(history),
             "--html", str(out_html)],
            capsys,
        )
        assert code == 0 and out_html.exists()
        doc = out_html.read_text(encoding="utf-8")
        assert "<svg" in doc and "https://" not in doc
        code, out = self.run_cli(
            ["perf", "report", "--history", str(history)], capsys
        )
        assert code == 0 and "sim_core" in out


def golden_history():
    """A fixed two-scenario history: byte-stable inputs only."""
    records = []
    for i, wall in enumerate((1.00, 1.05, 0.95, 1.02, 2.10)):
        records.append(
            PerfRecord(
                scenario="sim_core",
                params={"n_jobs": 1000},
                metrics={
                    "wall_time_s": wall,
                    "events_per_s": 2000.0 / wall,
                    "tracemalloc_peak_bytes": 6.0e6 + i * 1e5,
                    "schedule_passes": 1000.0,
                },
                machine=dict(MACHINE_A),
                git_sha=f"c00000{i}",
                recorded_unix=0.0,
            )
        )
    for i, wall in enumerate((0.40, float("nan"), 0.42)):
        records.append(
            PerfRecord(
                scenario="html_report",
                params={"n_records": 2000},
                metrics={"wall_time_s": wall, "html_bytes": 180000.0},
                machine=dict(MACHINE_A),
                git_sha=f"d00000{i}",
                recorded_unix=0.0,
            )
        )
    return records


class TestTrendDashboard:
    def render(self):
        records = golden_history()
        verdicts = compare_latest(records, records[:-1])
        return render_perf_html(records, verdicts=verdicts)

    def test_matches_golden(self):
        content = self.render()
        path = GOLDEN_DIR / "perf_trend.html"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            path.parent.mkdir(exist_ok=True)
            path.write_text(content, encoding="utf-8")
            pytest.skip("golden file perf_trend.html regenerated")
        assert path.exists(), (
            "golden file perf_trend.html missing — run with "
            "REPRO_UPDATE_GOLDEN=1"
        )
        assert content == path.read_text(encoding="utf-8"), (
            "perf_trend.html drifted from the golden bytes; if the "
            "rendering change is intentional, regenerate with "
            "REPRO_UPDATE_GOLDEN=1 and review the diff"
        )

    def test_render_is_stable_and_self_contained(self):
        doc = self.render()
        assert doc == self.render()
        assert "https://" not in doc and "http://" not in doc.replace(
            "http://www.w3.org", ""
        )
        assert "sim_core" in doc and "html_report" in doc
        # commit shas label the x axis; the regression shows up red
        assert "c000004" in doc and "delta-reg" in doc

    def test_empty_history_renders(self):
        doc = render_perf_html([])
        assert "empty history" in doc


class TestMemoryProbe:
    def test_null_probe_is_free_and_shared(self):
        from repro.obs import DISABLED, get_obs
        from repro.obs.memory import NULL_MEMORY_PROBE

        assert DISABLED.memory is NULL_MEMORY_PROBE
        assert get_obs().memory.sample() == {}
        s1 = NULL_MEMORY_PROBE.section("a")
        s2 = NULL_MEMORY_PROBE.section("b")
        assert s1 is s2  # one shared no-op context manager
        with s1:
            pass

    def test_enabled_obs_memory_sections_and_gauges(self):
        from repro.obs import enabled_obs

        assert not tracemalloc.is_tracing()
        with enabled_obs(memory=True) as obs:
            assert obs.memory.enabled and obs.memory.tracing
            with obs.memory.section("test.blob"):
                blob = [0] * 30_000
            assert len(blob) == 30_000
            snap = obs.snapshot()
        assert not tracemalloc.is_tracing()  # state restored on exit
        gauges = snap["gauges"]
        assert gauges["process.rss_bytes"] > 0
        assert gauges["gc.collections"] >= 0
        assert gauges["mem.tracemalloc.peak_bytes"] > 0
        hist = snap["histograms"]["mem.section.test.blob.peak_bytes"]
        assert hist["count"] == 1 and hist["max"] >= 30_000 * 8 * 0.9

    def test_enabled_obs_without_memory_keeps_null_probe(self):
        from repro.obs import enabled_obs
        from repro.obs.memory import NULL_MEMORY_PROBE

        with enabled_obs() as obs:
            assert obs.memory is NULL_MEMORY_PROBE
            assert not tracemalloc.is_tracing()

    def test_probe_does_not_stop_foreign_tracemalloc(self):
        from repro.obs.memory import MemoryProbe
        from repro.obs.registry import MetricsRegistry

        tracemalloc.start()
        try:
            probe = MemoryProbe(MetricsRegistry())
            probe.close()  # not the owner: must leave tracing on
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_sim_run_has_a_memory_section(self):
        from repro.obs import enabled_obs
        from repro.perf.scenarios import make_sim_core

        with enabled_obs(memory=True) as obs:
            make_sim_core({"n_jobs": 60})()
            snap = obs.snapshot()
        assert "mem.section.sim.run.peak_bytes" in snap["histograms"]

    def test_trace_export_carries_process_gauges(self):
        from repro.obs import enabled_obs
        from repro.obs.export import render_summary, trace_data

        with enabled_obs() as obs:
            obs.counter("demo.hits").inc()
            doc = trace_data(obs)
        gauges = doc["otherData"]["metrics"]["gauges"]
        assert gauges["process.rss_bytes"] > 0
        assert "gc.collections" in gauges
        summary = render_summary(doc)
        assert "Gauges" in summary and "process.rss_bytes" in summary
