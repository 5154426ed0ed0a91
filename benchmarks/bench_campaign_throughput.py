"""Campaign cell throughput on the streamed, trace-cached path.

The streaming campaign pipeline (generator-backed cells, the process-
wide :class:`~repro.workload.trace_cache.TraceCache`, and trace-affine
execution order) exists to make many-small-cell grids cheap: every
cell of a mechanism x checkpoint sweep shares one generated
``(spec, seed)`` trace.  This benchmark runs
the ``campaign_throughput`` scenario — a fig6/fig7-shaped grid of
baseline + six mechanisms crossed with three checkpoint multipliers,
21 cells per generated trace — and records its cells/min, and asserts
that **per-worker memory is independent of per-cell trace length**:
one streamed 100k-job cell routed through
:func:`~repro.experiments.runner.run_one` stays under the same 64 MiB
absolute tracemalloc ceiling the simulator-core streaming benches
assert.

``REPRO_BENCH_CAMPAIGN_CELLS`` scales the grid (default 2016 cells).
Timings land in the session :class:`~repro.perf.store.PerfStore` under
the same scenario hashes as ``repro-hybrid perf run --scenario
campaign_throughput``.
"""

import os

from repro.perf.harness import bench
from repro.perf.scenarios import (
    bench_sim_config as _config,
    make_campaign_throughput,
    stream_synth_jobs,
)
from repro.workload.trace_cache import reset_trace_cache

from conftest import emit, perf_store  # noqa: F401 - fixtures

#: grid size; 2016 = 96 seeds x (7 mechanisms x 3 checkpoints)
CAMPAIGN_CELLS = int(os.environ.get("REPRO_BENCH_CAMPAIGN_CELLS", "2016"))
#: a streamed cell's worker-side heap must not scale with its trace —
#: same absolute bound as bench_sim_core's streamed scenarios
CELL_MEMORY_CEILING_BYTES = 64 * 2**20
CELL_MEMORY_JOBS = 100_000


def test_campaign_throughput(emit, perf_store):  # noqa: F811
    """Record the streamed campaign's cells/min on a >= 2k-cell grid."""
    params = {"n_cells": CAMPAIGN_CELLS}
    record = bench(
        "campaign_throughput",
        params,
        make_campaign_throughput(params),
        store=perf_store,
        warmup=0,
        repeat=1,
    )
    rate = record.metrics["cells_per_min"]
    emit(
        "bench_campaign_throughput",
        (
            f"campaign throughput, {CAMPAIGN_CELLS} cells: "
            f"{rate:.0f} cells/min (serial)"
        ),
    )


def test_streamed_cell_memory_ceiling(emit, perf_store):  # noqa: F811
    """One 100k-job streamed cell stays under the absolute worker
    heap ceiling — peak memory is O(in-flight), not O(trace).

    The jobs are handed to :func:`run_one` as a bare generator, which
    also exercises the any-submit-ordered-iterable contract (coerced
    via ``as_stream`` inside ``Simulation``) on the campaign workers'
    exact entry point.
    """
    from repro.experiments.runner import run_one
    from repro.perf.scenarios import SYSTEM
    from repro.workload.spec import theta_spec

    reset_trace_cache()
    spec = theta_spec(days=1.0, system_size=SYSTEM, min_size=128)
    config = _config()

    def once():
        run_one(
            spec,
            0,
            None,
            config,
            jobs=iter(stream_synth_jobs(CELL_MEMORY_JOBS)),
        )
        return {"jobs_processed": float(CELL_MEMORY_JOBS)}

    record = bench(
        "campaign_cell_memory",
        {"n_jobs": CELL_MEMORY_JOBS},
        once,
        store=perf_store,
        warmup=0,
        repeat=1,
        memory=True,
    )
    peak = record.metrics["tracemalloc_peak_bytes"]
    emit(
        "bench_campaign_cell_memory",
        (
            f"streamed cell memory, {CELL_MEMORY_JOBS} jobs: "
            f"tracemalloc peak {peak / 2**20:.1f} MiB "
            f"(ceiling {CELL_MEMORY_CEILING_BYTES / 2**20:.0f} MiB "
            f"absolute), wall {record.metrics['wall_time_s']:.1f}s"
        ),
    )
    assert peak < CELL_MEMORY_CEILING_BYTES, (
        f"streamed cell peak {peak / 2**20:.1f} MiB exceeds the "
        f"{CELL_MEMORY_CEILING_BYTES / 2**20:.0f} MiB ceiling at "
        f"{CELL_MEMORY_JOBS} jobs — a campaign worker's memory is "
        "scaling with its cell's trace length"
    )
