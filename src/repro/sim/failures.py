"""Node-failure injection (extension beyond the paper's experiments).

The paper's rigid jobs checkpoint at Daly's optimum *because of
failures*, yet its simulations never inject any — Observation 13 then
shows preemptions dominating the interruption budget.  This module closes
the loop: an exponential failure process per running job lets the
benchmark suite study checkpoint frequency under the regime Daly's
formula actually assumes, and under the mixed failure+preemption regime
of a real hybrid machine.

Model
-----
A job spanning ``n`` nodes fails as a series system: its failure rate is
``n / node_mtbf``.  On a failure the job loses everything after its last
completed checkpoint (rigid) or nothing but its setup (malleable — the
loosely-coupled tasks are re-dispatched), then restarts *in place* at
the failure instant, paying a fresh setup: the paper's §II-A "restart
from the latest checkpoint in the event of an interruption".  The
restarted segment starts at once, so the job holds no node the segment
does not account for.  On-demand jobs restart from scratch (they never
checkpoint) — with their short runtimes the expected loss is
negligible.

Failure draws come from a dedicated named RNG stream, so enabling
failures does not perturb any workload-generation randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class FailureModel:
    """Per-node exponential failure process.

    Parameters
    ----------
    enabled:
        Off by default — the paper's evaluation injects no failures.
    node_mtbf_s:
        Mean time between failures of a single node.  A job on ``n``
        nodes draws interruption gaps from ``Exp(node_mtbf_s / n)``.
    """

    enabled: bool = False
    node_mtbf_s: float = 5.0 * 365.0 * 86400.0

    def __post_init__(self) -> None:
        if self.node_mtbf_s <= 0:
            raise ConfigurationError("node_mtbf_s must be positive")

    def job_mtbf(self, nodes: int) -> float:
        """Series-system MTBF for a job spanning *nodes* nodes."""
        if nodes <= 0:
            raise ValueError("nodes must be positive")
        return self.node_mtbf_s / nodes

    def draw_time_to_failure(
        self, nodes: int, rng: np.random.Generator
    ) -> float:
        """Sample the wall-clock gap until this allocation's next failure."""
        return float(rng.exponential(self.job_mtbf(nodes)))

    @staticmethod
    def disabled() -> "FailureModel":
        return FailureModel(enabled=False)
