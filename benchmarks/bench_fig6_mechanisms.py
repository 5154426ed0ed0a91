"""Fig. 6 — the headline grid: six mechanisms x five notice mixes (W1-W5).

Regenerates, for every workload of Table III, the paper's per-mechanism
panels: average turnaround (all/rigid/malleable), system utilization,
on-demand instant start rate, and the rigid/malleable preemption ratios.

Shape checks encode the paper's Observations 1, 3, 5, 6, 8 and 9; the
full paper-vs-measured record lives in EXPERIMENTS.md.
"""

import statistics

from repro.experiments.figures import fig6_mechanisms


def test_fig6(benchmark, campaign, workers, emit):
    out = benchmark.pedantic(
        lambda: fig6_mechanisms(campaign, workers=workers), rounds=1, iterations=1
    )
    emit("fig6_mechanisms", out["text"])
    sweep = out["sweep"]

    # O9: every mechanism starts nearly all on-demand jobs instantly,
    # under every notice-accuracy mix.
    for mix, grid in sweep.items():
        for name, s in grid.items():
            assert s.instant_start_rate > 0.9, (mix, name, s.instant_start_rate)

    # O8: malleable preemption ratio >= rigid preemption ratio.
    for mix, grid in sweep.items():
        for name, s in grid.items():
            assert s.preemption_ratio_malleable >= s.preemption_ratio_rigid, (
                mix,
                name,
            )

    # O3: averaged over mixes, SPAA preempts fewer malleable jobs than PAA.
    def mean_over_mixes(name, field):
        return statistics.mean(
            getattr(sweep[m][name], field) for m in sweep
        )

    for notice in ("N", "CUA", "CUP"):
        paa = mean_over_mixes(f"{notice}&PAA", "preemption_ratio_malleable")
        spaa = mean_over_mixes(f"{notice}&SPAA", "preemption_ratio_malleable")
        assert spaa <= paa + 0.02, (notice, paa, spaa)

    # O6: CUA/CUP mechanisms give malleable jobs the turnaround incentive.
    for name in ("CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA"):
        rigid_t = mean_over_mixes(name, "avg_turnaround_rigid_h")
        mall_t = mean_over_mixes(name, "avg_turnaround_malleable_h")
        assert mall_t < rigid_t, (name, mall_t, rigid_t)

    # O10: decisions stay far under the 10-30 s scheduler budget.
    for mix, grid in sweep.items():
        for name, s in grid.items():
            assert s.decision_latency_max_s < 0.1
