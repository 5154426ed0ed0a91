"""Shared scale knobs for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures at a
laptop-friendly scale and prints the exhibit (run pytest with ``-s`` to
see it inline; it is also written to ``benchmarks/out/``).  Environment
variables scale the campaign up to paper scale:

=================  =======  =========================================
variable           default  meaning
=================  =======  =========================================
REPRO_BENCH_DAYS   14       trace horizon in days (paper: 365)
REPRO_BENCH_TRACES 2        random trace replicas per cell (paper: 10)
REPRO_BENCH_WORKERS auto    worker processes for grids
=================  =======  =========================================
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.campaign.spec import CampaignSpec
from repro.core.mechanisms import ALL_MECHANISMS
from repro.perf.store import PerfStore

OUT_DIR = pathlib.Path(__file__).parent / "out"


def out_dir(*parts: str) -> pathlib.Path:
    """The benchmark artifact directory (gitignored), created on demand.

    Every benchmark routes its outputs through this one helper —
    ``out_dir()`` for files, ``out_dir("progress_index")`` for a
    subdirectory — so artifacts never land anywhere CI doesn't upload.
    """
    path = OUT_DIR.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def bench_days() -> float:
    return float(os.environ.get("REPRO_BENCH_DAYS", "14"))


def bench_traces() -> int:
    return int(os.environ.get("REPRO_BENCH_TRACES", "2"))


def bench_workers() -> int:
    default = max(1, min(4, (os.cpu_count() or 2) - 1))
    return int(os.environ.get("REPRO_BENCH_WORKERS", str(default)))


@pytest.fixture(scope="session")
def campaign() -> CampaignSpec:
    """The standard benchmark campaign: the six mechanisms on the
    Theta-scale W5 workload, one cell per trace seed."""
    return CampaignSpec(
        name="bench",
        days=(bench_days(),),
        mechanism=tuple(m.name for m in ALL_MECHANISMS),
        seeds=tuple(2022 + i for i in range(bench_traces())),
    )


@pytest.fixture(scope="session")
def workers() -> int:
    """Worker processes for the benchmark grids."""
    return bench_workers()


@pytest.fixture(scope="session")
def emit():
    """Print an exhibit and persist it under benchmarks/out/."""

    def _emit(name: str, text: str) -> None:
        (out_dir() / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit


@pytest.fixture(scope="session")
def perf_store() -> PerfStore:
    """The session's perf history (``benchmarks/out/perf_history.jsonl``).

    Every benchmark appends its measurements here through
    :func:`repro.perf.harness.bench`, so one CI run leaves one
    comparable JSONL trajectory instead of scattered prints.
    """
    return PerfStore(out_dir() / "perf_history.jsonl")
