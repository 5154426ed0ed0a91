"""Extension benchmarks — features beyond the paper's experiments.

* **Failure injection** (`repro.sim.failures`): checkpoint-frequency
  behaviour in the regime Daly's formula actually assumes, and in the
  mixed failure+preemption regime of a hybrid machine.
* **Conservative backfilling** vs EASY under the mechanisms.
* **On-demand no-shows** (§III-B.4): how much do phantom reservations
  cost the rest of the workload?
"""

from dataclasses import replace

from repro.core.mechanisms import Mechanism
from repro.experiments.runner import run_mechanism_grid
from repro.metrics.report import format_table

MECH = Mechanism.parse("CUA&SPAA")


def _mech_row(campaign, workers, **axes):
    """CUA&SPAA averaged over the seeds, *axes* replaced."""
    cspec = replace(campaign, mechanism=(MECH.name,), **axes)
    return run_mechanism_grid(cspec, workers=workers)[MECH.name]


def test_failures_vs_checkpoint_frequency(benchmark, campaign, workers, emit):
    """Lost compute vs checkpoint frequency, with failures injected.

    With an aggressive node MTBF (0.5 year) failures interrupt rigid jobs
    often; more frequent checkpoints must bound the rolled-back compute.
    """

    def run():
        return {
            mult: _mech_row(
                campaign,
                workers,
                checkpoint_multiplier=(mult,),
                failure_mtbf_days=(0.5 * 365,),
            )
            for mult in (0.5, 1.0, 2.0)
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_failures",
        format_table(
            ["ckpt interval", "lost compute", "ckpt overhead", "util", "turnaround[h]"],
            [
                [
                    f"x{mult:g}",
                    s.lost_compute_frac,
                    s.checkpoint_frac,
                    s.system_utilization,
                    s.avg_turnaround_h,
                ]
                for mult, s in rows.items()
            ],
            title="Extension — checkpointing under injected failures "
            "(node MTBF 0.5 y, CUA&SPAA)",
        ),
    )
    # Daly's regime: sparser checkpoints lose more compute to failures
    assert rows[0.5].lost_compute_frac <= rows[2.0].lost_compute_frac + 1e-4


def test_conservative_vs_easy(benchmark, campaign, workers, emit):
    """The mechanisms on top of conservative instead of EASY backfilling."""

    def run():
        easy = _mech_row(campaign, workers, backfill_mode=("easy",))
        conservative = _mech_row(
            campaign, workers, backfill_mode=("conservative",)
        )
        return easy, conservative

    easy, conservative = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_conservative",
        format_table(
            ["backfilling", "util", "turnaround[h]", "instant"],
            [
                ["easy", easy.system_utilization, easy.avg_turnaround_h,
                 easy.instant_start_rate],
                ["conservative", conservative.system_utilization,
                 conservative.avg_turnaround_h,
                 conservative.instant_start_rate],
            ],
            title="Extension — EASY vs conservative backfilling (CUA&SPAA)",
        ),
    )
    # instant start is mechanism-driven, independent of the backfill flavour
    assert easy.instant_start_rate > 0.9
    assert conservative.instant_start_rate > 0.9


def test_noshow_sensitivity(benchmark, campaign, workers, emit):
    """Phantom on-demand notices: reserved-then-released node cost."""

    def run():
        return {
            frac: _mech_row(
                campaign,
                workers,
                spec_overrides={"ondemand_noshow_frac": frac},
            )
            for frac in (0.0, 0.3)
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_noshow",
        format_table(
            ["no-show frac", "util", "reserved idle", "instant", "noshows"],
            [
                [
                    f"{frac:.0%}",
                    s.system_utilization,
                    s.reserved_idle_frac,
                    s.instant_start_rate,
                    s.n_noshow,
                ]
                for frac, s in rows.items()
            ],
            title="Extension — on-demand no-shows under CUA&SPAA",
        ),
    )
    assert rows[0.3].n_noshow > 0
    # arrived jobs keep their responsiveness despite the phantoms
    assert rows[0.3].instant_start_rate > 0.9
