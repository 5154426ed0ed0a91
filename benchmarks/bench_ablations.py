"""Ablations — design choices DESIGN.md calls out, beyond the paper.

Each ablation flips one knob of the best all-round mechanism (CUA&SPAA)
and reports the same Fig. 6 metrics:

* reserved-node backfill loans on/off (§III-B.1's utilization lever);
* EASY backfilling on/off (the baseline scheduler's key feature);
* malleable flexibility on/off (scheduler-chosen start sizes);
* queue-ordering policy (FCFS vs SJF vs LJF) under the same mechanism;
* malleable minimum-size fraction (20 % default vs 50 %).

All ablations run through the campaign engine against one shared
content-addressed store (``benchmarks/out/``), so re-running the suite —
or any single ablation — is pure cache hits for unchanged cells; each
variant sets its knob in the campaign's override dicts (the policy name
on the campaign policy axis), which hash the variants apart.
"""

import pathlib
from dataclasses import replace

from repro.campaign.executor import run_campaign
from repro.campaign.store import ResultStore
from repro.core.mechanisms import Mechanism
from repro.metrics.report import format_summary_rows, format_table
from repro.metrics.summary import average_summaries

MECH = Mechanism.parse("CUA&SPAA")

#: one shared cell pool for every ablation variant (content-addressed,
#: so variants never collide and identical cells are computed once)
CACHE_DIR = pathlib.Path(__file__).parent / "out" / "ablation_campaign"


def _grid_row(campaign, workers, **axes):
    """Averaged CUA&SPAA summary for one ablation variant, via campaign.

    *axes* replace fields of the benchmark campaign (an override dict,
    the policy axis); the defaults are the unablated design.
    """
    cspec = replace(campaign, name="ablations", mechanism=(MECH.name,), **axes)
    run = run_campaign(cspec, store=ResultStore(CACHE_DIR), workers=workers)
    if run.n_failed:
        failed = [r for r in run.records if not r.ok]
        raise RuntimeError(
            f"{run.n_failed} ablation cells failed; first error:\n"
            f"{failed[0].error}"
        )
    return average_summaries([r.summary_metrics() for r in run.ok_records])


def test_ablation_reserved_loans(benchmark, campaign, workers, emit):
    """Reserved-idle nodes loaned to backfill vs held strictly idle."""

    def run():
        on = _grid_row(campaign, workers)
        off = _grid_row(
            campaign, workers, sim_overrides={"allow_reserved_loans": False}
        )
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_reserved_loans",
        format_table(
            ["loans", "util", "turnaround[h]", "instant"],
            [
                ["on", on.system_utilization, on.avg_turnaround_h, on.instant_start_rate],
                ["off", off.system_utilization, off.avg_turnaround_h, off.instant_start_rate],
            ],
            title="Ablation — backfilling onto reserved nodes",
        ),
    )
    # loans exist to claw back the reservations' idle cost
    assert on.system_utilization >= off.system_utilization - 0.02
    assert on.instant_start_rate > 0.9 and off.instant_start_rate > 0.9


def test_ablation_backfill(benchmark, campaign, workers, emit):
    """EASY backfilling on/off under the hybrid mechanism."""

    def run():
        on = _grid_row(campaign, workers)
        off = _grid_row(campaign, workers, sim_overrides={"backfill_depth": 0})
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_backfill",
        format_table(
            ["backfill", "util", "turnaround[h]"],
            [
                ["on", on.system_utilization, on.avg_turnaround_h],
                ["off", off.system_utilization, off.avg_turnaround_h],
            ],
            title="Ablation — EASY backfilling",
        ),
    )
    assert on.system_utilization >= off.system_utilization - 0.02
    assert on.avg_turnaround_h <= off.avg_turnaround_h * 1.3


def test_ablation_malleable_flexibility(benchmark, campaign, workers, emit):
    """Scheduler-chosen malleable start sizes vs rigid-like fixed sizes."""

    def run():
        flex = _grid_row(campaign, workers)
        stiff = _grid_row(
            campaign, workers, sim_overrides={"flexible_malleable": False}
        )
        return flex, stiff

    flex, stiff = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_malleable_flex",
        format_table(
            ["malleable", "turnaround[h]", "malleable[h]", "util"],
            [
                ["flexible", flex.avg_turnaround_h, flex.avg_turnaround_malleable_h, flex.system_utilization],
                ["fixed", stiff.avg_turnaround_h, stiff.avg_turnaround_malleable_h, stiff.system_utilization],
            ],
            title="Ablation — malleable start-size flexibility",
        ),
    )
    # flexibility is the malleable incentive: it must not hurt them
    assert (
        flex.avg_turnaround_malleable_h
        <= stiff.avg_turnaround_malleable_h * 1.1
    )


def test_ablation_ordering_policy(benchmark, campaign, workers, emit):
    """The mechanisms compose with any queue-ordering policy (§III)."""

    def run():
        return {
            name: _grid_row(campaign, workers, policy=(name,))
            for name in ("fcfs", "sjf", "ljf")
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_policy",
        format_table(
            ["policy", "turnaround[h]", "util", "instant"],
            [
                [name, s.avg_turnaround_h, s.system_utilization, s.instant_start_rate]
                for name, s in rows.items()
            ],
            title="Ablation — queue ordering policy under CUA&SPAA",
        ),
    )
    # instant start is mechanism-driven, not policy-driven
    for s in rows.values():
        assert s.instant_start_rate > 0.9


def test_ablation_malleable_min_size(benchmark, campaign, workers, emit):
    """Deeper shrinkability (smaller min sizes) gives SPAA more supply."""

    def run():
        out = {}
        for frac in (0.2, 0.5):
            out[frac] = _grid_row(
                campaign,
                workers,
                spec_overrides={"malleable_min_size_frac": frac},
            )
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_min_size",
        format_summary_rows(
            list(rows.values()),
            title="Ablation — malleable min size 20% vs 50% (CUA&SPAA)",
        ),
    )
    # shallower shrink (50%) forces more malleable preemptions
    assert (
        rows[0.2].preemption_ratio_malleable
        <= rows[0.5].preemption_ratio_malleable + 0.05
    )
