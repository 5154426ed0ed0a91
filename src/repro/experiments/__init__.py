"""Experiment harness: one driver per paper table/figure.

* :mod:`repro.experiments.runner` — run one cell, or average a campaign
  grid per mechanism over its trace seeds.
* :mod:`repro.experiments.figures` — drivers named after the paper's
  exhibits (``table1``, ``table2``, ``fig3`` ... ``fig7``); each takes
  the :class:`~repro.campaign.spec.CampaignSpec` it runs and returns
  structured results plus the same rows/series the paper reports.
* :mod:`repro.experiments.cli` — ``repro-hybrid`` command-line front end;
  it turns the exhibit flags into that ``CampaignSpec``.
"""

from repro.experiments.runner import run_mechanism_grid, run_one
from repro.experiments.figures import (
    fig3_size_mix,
    fig4_type_mix,
    fig5_burstiness,
    fig6_mechanisms,
    fig7_checkpointing,
    headline_comparison,
    table1_workload,
    table2_baseline,
    table3_mixes,
)

__all__ = [
    "run_mechanism_grid",
    "run_one",
    "headline_comparison",
    "fig3_size_mix",
    "fig4_type_mix",
    "fig5_burstiness",
    "fig6_mechanisms",
    "fig7_checkpointing",
    "table1_workload",
    "table2_baseline",
    "table3_mixes",
]
