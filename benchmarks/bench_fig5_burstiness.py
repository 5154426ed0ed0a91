"""Fig. 5 — weekly on-demand submission counts: the bursty pattern.

The paper shows three sample traces whose weekly on-demand counts swing
heavily ("users tend to submit a bunch of on-demand jobs in a short
period of time").  We regenerate the weekly series and check the swings
via the coefficient of variation.
"""

from dataclasses import replace

from repro.experiments.figures import fig5_burstiness
from repro.workload.ondemand import burstiness_cv


def test_fig5(benchmark, campaign, workers, emit):
    # burstiness needs a few months of weeks to be visible
    cspec = replace(campaign, days=(max(campaign.days[0], 56),))
    out = benchmark.pedantic(
        lambda: fig5_burstiness(cspec, workers=workers),
        rounds=1,
        iterations=1,
    )
    emit("fig5_burstiness", out["text"])
    cvs = [burstiness_cv(counts) for counts in out["series"].values()]
    assert max(cvs) > 0.3, f"weekly on-demand counts too smooth: cv={cvs}"
