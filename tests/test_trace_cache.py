"""Tests for the process-wide content-addressed trace cache."""

import os

import pytest

from repro.obs import enabled_obs
from repro.util.errors import ConfigurationError
from repro.workload.spec import WorkloadSpec
from repro.workload.theta import generate_trace, stream_jobs_from_rows
from repro.workload.trace_cache import (
    TraceCache,
    get_trace_cache,
    reset_trace_cache,
    spec_hash,
)

SWF_TEXT = """\
; Version: 2.2
1  100  5 3600 64  -1 -1 64 7200 -1 1 10 -1 2 -1 -1 -1 -1
2  200  1 1800 128 -1 -1 128 3600 -1 1 11 -1 3 -1 -1 -1 -1
4  400  2 900  32  -1 -1 32 -1   -1 1 12 -1 -1 -1 -1 -1 -1
"""

SPEC = WorkloadSpec(days=0.25, system_size=256, target_load=0.6)


@pytest.fixture()
def swf_path(tmp_path):
    p = tmp_path / "log.swf"
    p.write_text(SWF_TEXT)
    return str(p)


@pytest.fixture(autouse=True)
def fresh_singleton():
    reset_trace_cache()
    yield
    reset_trace_cache()


class TestSwfCache:
    def test_second_lookup_is_a_hit(self, swf_path):
        cache = TraceCache()
        with enabled_obs() as obs:
            first = cache.swf_jobs(swf_path)
            second = cache.swf_jobs(swf_path)
            counters = obs.snapshot()["counters"]
        assert second is first  # shared tuple, parsed once
        assert counters["workload.trace_cache.misses"] == 1
        assert counters["workload.trace_cache.hits"] == 1

    def test_rewriting_the_log_invalidates(self, swf_path):
        cache = TraceCache()
        first = cache.swf_jobs(swf_path)
        with open(swf_path, "a") as fh:
            fh.write("5 500 1 600 16 -1 -1 16 1200 -1 1 13 -1 4 -1 -1 -1 -1\n")
        second = cache.swf_jobs(swf_path)
        assert second is not first
        assert len(second) == len(first) + 1

    def test_touching_mtime_invalidates(self, swf_path):
        cache = TraceCache()
        first = cache.swf_jobs(swf_path)
        st = os.stat(swf_path)
        os.utime(swf_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        assert cache.swf_jobs(swf_path) is not first

    def test_options_are_part_of_the_key(self, swf_path):
        cache = TraceCache()
        plain = cache.swf_jobs(swf_path)
        divided = cache.swf_jobs(swf_path, {"cores_per_node": 64})
        assert divided is not plain
        assert divided[0].size == 1 and plain[0].size == 64

    def test_relative_and_absolute_paths_share_an_entry(self, swf_path):
        cache = TraceCache()
        first = cache.swf_jobs(swf_path)
        rel = os.path.relpath(swf_path)
        assert cache.swf_jobs(rel) is first


class TestSwfDigest:
    def test_digest_is_the_sha256_of_the_bytes(self, swf_path):
        import hashlib

        expected = hashlib.sha256(SWF_TEXT.encode()).hexdigest()
        assert TraceCache().swf_sha256(swf_path) == expected

    def test_hashed_once_until_the_file_changes(self, swf_path, monkeypatch):
        cache = TraceCache()
        first = cache.swf_sha256(swf_path)
        opened = []
        real_open = open
        monkeypatch.setattr(
            "builtins.open",
            lambda *a, **k: opened.append(a[0]) or real_open(*a, **k),
        )
        assert cache.swf_sha256(os.path.relpath(swf_path)) == first
        assert opened == []
        with real_open(swf_path, "a") as fh:
            fh.write("5 500 1 600 16 -1 -1 16 1200 -1 1 13 -1 4 -1 -1 -1 -1\n")
        assert cache.swf_sha256(swf_path) != first
        assert len(opened) == 1

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nope.swf"):
            TraceCache().swf_sha256(str(tmp_path / "nope.swf"))


class TestThetaRowsCache:
    def test_keyed_by_spec_and_seed(self):
        cache = TraceCache()
        a = cache.theta_rows(SPEC, 0)
        assert cache.theta_rows(SPEC, 0) is a
        assert cache.theta_rows(SPEC, 1) is not a
        other = WorkloadSpec(days=0.5, system_size=256, target_load=0.6)
        assert cache.theta_rows(other, 0) is not a

    def test_equal_specs_share_an_entry(self):
        cache = TraceCache()
        twin = WorkloadSpec(days=0.25, system_size=256, target_load=0.6)
        assert cache.theta_rows(twin, 3) is cache.theta_rows(SPEC, 3)
        assert spec_hash(twin) == spec_hash(SPEC)

    def test_streamed_jobs_off_cached_rows_match_generate(self):
        cache = TraceCache()
        rows = cache.theta_rows(SPEC, 7)
        streamed = list(stream_jobs_from_rows(SPEC, rows))
        materialized = generate_trace(SPEC, seed=7)
        assert len(streamed) == len(materialized)
        for s, m in zip(streamed, materialized):
            assert (s.job_id, s.submit_time, s.size, s.runtime) == (
                m.job_id,
                m.submit_time,
                m.size,
                m.runtime,
            )
            assert s.job_type is m.job_type

    def test_rows_survive_a_simulating_consumer(self):
        # consumers build fresh Jobs; the cached rows must be reusable
        from repro.experiments.runner import run_one
        from repro.metrics.summary import deterministic_view

        cache = get_trace_cache()
        first = run_one(SPEC, 0, None)
        second = run_one(SPEC, 0, None)
        assert deterministic_view(first) == deterministic_view(second)
        assert cache.stats()["row_entries"] == 1


class TestLruAndReset:
    def test_lru_evicts_oldest(self):
        cache = TraceCache(max_entries=2)
        with enabled_obs() as obs:
            cache.theta_rows(SPEC, 0)
            cache.theta_rows(SPEC, 1)
            cache.theta_rows(SPEC, 2)  # evicts seed 0
            counters = obs.snapshot()["counters"]
        assert counters["workload.trace_cache.evictions"] == 1
        assert cache.stats()["row_entries"] == 2
        with enabled_obs() as obs:
            cache.theta_rows(SPEC, 0)  # miss again
            assert obs.snapshot()["counters"][
                "workload.trace_cache.misses"
            ] == 1

    def test_recent_use_refreshes_lru_position(self):
        cache = TraceCache(max_entries=2)
        a = cache.theta_rows(SPEC, 0)
        cache.theta_rows(SPEC, 1)
        cache.theta_rows(SPEC, 0)  # refresh seed 0
        cache.theta_rows(SPEC, 2)  # evicts seed 1, not 0
        assert cache.theta_rows(SPEC, 0) is a

    def test_clear_drops_everything(self, swf_path):
        cache = TraceCache()
        cache.swf_jobs(swf_path)
        cache.theta_rows(SPEC, 0)
        cache.clear()
        assert cache.stats() == {"swf_entries": 0, "row_entries": 0}

    def test_singleton_reset(self):
        first = get_trace_cache()
        assert get_trace_cache() is first
        reset_trace_cache()
        assert get_trace_cache() is not first
