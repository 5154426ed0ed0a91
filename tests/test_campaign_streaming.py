"""Streaming campaign pipeline: equivalence, ordering, batched dispatch.

The streamed path (generator-backed cells off the shared
:class:`~repro.workload.trace_cache.TraceCache`, batched pool
dispatch) must be a pure execution-strategy change:
every store a campaign produces is **byte-identical** to a reference
store built cell by cell from materialized job lists — ``run_one`` on
``generate_trace`` / ``retype_jobs`` output, and
``ondemand_jobs_per_week`` for trace-characterization cells — across
mechanisms, scheduling policies, checkpoint/failure axes, and
SWF-backed cells.
"""

import sys

import numpy as np
import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign, run_worker
from repro.campaign.distrib.worker import known_keys
from repro.campaign.executor import (
    _batch_size,
    _retype_kwargs,
    trace_affine_order,
)
from repro.campaign.distrib.merge import merge_shards
from repro.campaign.store import CellRecord
from repro.experiments.runner import run_one
from repro.jobs.job import JobType
from repro.metrics.summary import deterministic_view
from repro.workload.ondemand import burstiness_cv, ondemand_jobs_per_week
from repro.workload.swf import load_swf, retype_jobs
from repro.workload.theta import generate_trace
from repro.workload.trace_cache import reset_trace_cache

sys.path.insert(0, "tests")
from policy_cases import POLICY_CASES  # noqa: E402

SWF_TEXT = """\
; MaxNodes: 512
1  100  5 3600 64  -1 -1 64 7200 -1 1 10 -1 2 -1 -1 -1 -1
2  200  1 1800 128 -1 -1 128 3600 -1 1 11 -1 3 -1 -1 -1 -1
4  400  2 900  32  -1 -1 32 -1   -1 1 12 -1 -1 -1 -1 -1 -1
"""

SMALL = {
    "name": "streamed",
    "days": 1,
    "target_load": 0.6,
    "system_size": 512,
    "mechanism": [None, "N&PAA"],
    "seeds": [1, 2],
}

ALL_MECHANISMS = (
    None,
    "N&PAA",
    "N&SPAA",
    "CUA&PAA",
    "CUA&SPAA",
    "CUP&PAA",
    "CUP&SPAA",
)


def small_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL, **overrides})


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_trace_cache()
    yield
    reset_trace_cache()


def materialized_jobs(cell):
    """The cell's full job list, built without the trace cache."""
    spec = cell.workload_spec()
    if cell.trace_file is None:
        return generate_trace(spec, seed=cell.seed)
    rigid = load_swf(cell.trace_file, **dict(cell.trace_options))
    rng = np.random.default_rng(cell.seed)
    return retype_jobs(rigid, rng=rng, **_retype_kwargs(spec))


def reference_record(cell) -> CellRecord:
    """One cell's record computed from its materialized job list."""
    jobs = materialized_jobs(cell)
    if cell.kind == "trace":
        weekly = ondemand_jobs_per_week(
            jobs,
            horizon_s=(
                cell.workload_spec().horizon_s
                if cell.trace_file is None
                else None
            ),
        )
        payload = {
            "n_jobs": len(jobs),
            "type_shares": {
                t.value: sum(j.job_type is t for j in jobs) / len(jobs)
                for t in JobType
            },
            "weekly_ondemand": weekly,
            "burstiness_cv": burstiness_cv(weekly),
        }
        return CellRecord(
            key=cell.key(), config=cell.config(), status="ok",
            payload=payload,
        )
    summary = run_one(
        cell.workload_spec(),
        cell.seed,
        cell.mechanism_obj(),
        cell.sim_config(),
        jobs=jobs,
    )
    return CellRecord(
        key=cell.key(), config=cell.config(), status="ok",
        summary=summary.to_dict(),
    )


def stores_for(spec: CampaignSpec):
    """(campaign store bytes, materialized reference bytes) for one spec."""
    streamed, materialized = ResultStore(), ResultStore()
    result = run_campaign(spec, store=streamed)
    assert result.n_failed == 0
    for cell in spec.expand():
        materialized.put(reference_record(cell))
    return streamed.canonical_bytes(), materialized.canonical_bytes()


class TestStreamedStoreEquivalence:
    def test_small_grid_byte_identical(self):
        streamed, materialized = stores_for(small_spec())
        assert streamed == materialized

    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_every_mechanism(self, mechanism):
        spec = small_spec(mechanism=[mechanism], seeds=[1])
        streamed, materialized = stores_for(spec)
        assert streamed == materialized

    @pytest.mark.parametrize("policy,backfill_mode", POLICY_CASES)
    def test_every_policy(self, policy, backfill_mode):
        spec = small_spec(
            policy=[policy],
            backfill_mode=[backfill_mode],
            mechanism=[None],
            seeds=[1],
        )
        streamed, materialized = stores_for(spec)
        assert streamed == materialized

    def test_checkpoint_and_failure_axes(self):
        # failure cells exercise the (lazily built) failure RNG on both
        # paths; checkpoint variants share one cached trace when streamed
        spec = small_spec(
            mechanism=["CUP&SPAA"],
            checkpoint_multiplier=[0.5, 2.0],
            failure_mtbf_days=[0.0, 30.0],
            seeds=[1],
        )
        streamed, materialized = stores_for(spec)
        assert streamed == materialized

    def test_swf_backed_cells(self, tmp_path):
        log = tmp_path / "log.swf"
        log.write_text(SWF_TEXT)
        spec = small_spec(trace_file=[str(log)], seeds=[1, 2])
        streamed, materialized = stores_for(spec)
        assert streamed == materialized

    def test_trace_kind_payloads_match(self):
        spec = small_spec(kind="trace", mechanism=[None])
        streamed, materialized = stores_for(spec)
        assert streamed == materialized


class TestRunOneIterable:
    def test_bare_generator_matches_list(self):
        from repro.workload.spec import WorkloadSpec

        spec = WorkloadSpec(days=1.0, system_size=512, target_load=0.6)
        jobs = generate_trace(spec, seed=3)
        as_list = run_one(spec, 3, None, jobs=generate_trace(spec, seed=3))
        as_gen = run_one(spec, 3, None, jobs=iter(jobs))
        assert deterministic_view(as_list) == deterministic_view(as_gen)


class TestTraceAffineOrder:
    def test_preserves_cell_set(self):
        cells = small_spec(
            checkpoint_multiplier=[0.5, 1.0], seeds=[1, 2, 3]
        ).expand()
        ordered = trace_affine_order(cells)
        assert sorted(c.key() for c in ordered) == sorted(
            c.key() for c in cells
        )

    def test_groups_shared_traces_adjacently(self):
        from repro.workload.trace_cache import spec_hash

        cells = small_spec(
            checkpoint_multiplier=[0.5, 1.0], seeds=[1, 2, 3]
        ).expand()
        ordered = trace_affine_order(cells)
        seen = []
        for cell in ordered:
            ident = (spec_hash(cell.workload_spec()), cell.seed)
            if ident in seen:
                # a trace already visited must be the most recent one:
                # each group is contiguous
                assert seen[-1] == ident
            else:
                seen.append(ident)
        # 3 seeds x one workload spec -> 3 groups of 4 cells
        assert len(seen) == 3

    def test_invalid_cells_are_kept_not_raised(self):
        cells = small_spec(
            spec_overrides={"min_size": 100_000}
        ).expand()
        ordered = trace_affine_order(cells)
        assert len(ordered) == len(cells)

    def test_is_deterministic(self):
        cells = small_spec(seeds=[3, 1, 2]).expand()
        assert [c.key() for c in trace_affine_order(cells)] == [
            c.key() for c in trace_affine_order(list(reversed(cells)))
        ]


class TestBatchedDispatch:
    def test_batch_size_bounds(self):
        assert _batch_size(0, 4) == 1
        assert _batch_size(1, 4) == 1
        assert _batch_size(64, 2) == 8  # capped
        assert _batch_size(16, 2) == 2
        assert 1 <= _batch_size(1000, 1) <= 8

    def test_pool_batched_run_matches_serial(self):
        spec = small_spec()
        serial = ResultStore()
        run_campaign(spec, store=serial, workers=1)
        pooled = ResultStore()
        result = run_campaign(
            spec, store=pooled, workers=2, batch_size=2, max_inflight=2
        )
        assert result.n_failed == 0
        assert pooled.canonical_bytes() == serial.canonical_bytes()

    def test_pool_failed_cells_still_isolated(self):
        # an invalid cell inside a batch errors alone; batchmates finish
        spec = small_spec(
            system_size=[512, 1],  # size-1 machine: min_size > system
        )
        store = ResultStore()
        result = run_campaign(spec, store=store, workers=2, batch_size=3)
        assert result.n_failed == 4  # the system_size=1 half
        assert result.n_ran == 8
        ok = [r for r in store.records() if r.status == "ok"]
        assert len(ok) == 4


class TestWorkerClaimBatch:
    def test_claim_batch_worker_matches_solo(self, tmp_path):
        d = tmp_path / "c"
        spec = small_spec()
        ResultStore(d).write_spec(spec.to_dict())
        summary = run_worker(
            d, shard="w0", ttl_s=30, poll_s=0.05, claim_batch=3
        )
        assert summary.n_executed == 4 and summary.n_failed == 0
        assert len(known_keys(d)) == 4
        merge_shards(d)
        solo = run_campaign(spec, store=ResultStore())
        merged = ResultStore(d)
        for record in solo.records:
            assert deterministic_view(
                merged.get(record.key).summary
            ) == deterministic_view(record.summary)

    def test_claim_batch_larger_than_grid(self, tmp_path):
        d = tmp_path / "c"
        spec = small_spec()
        ResultStore(d).write_spec(spec.to_dict())
        summary = run_worker(
            d, shard="w0", ttl_s=30, poll_s=0.05, claim_batch=64
        )
        assert summary.n_executed == 4 and summary.n_failed == 0

    def test_claim_batch_respects_max_cells(self, tmp_path):
        d = tmp_path / "c"
        ResultStore(d).write_spec(small_spec().to_dict())
        summary = run_worker(
            d, shard="w0", poll_s=0.05, claim_batch=8, max_cells=2
        )
        assert summary.n_executed == 2
        assert len(known_keys(d)) == 2
