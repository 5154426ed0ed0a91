"""The full-replan reference simulation (a test oracle, not a mode).

:class:`FullReplanSimulation` plans the way the seed simulator did: it
rebuilds every scheduling pass's availability view from the running
set with :meth:`ProfileView.from_blocks` instead of reading the shared
:class:`~repro.sched.profile.AvailabilityTimeline`, and it never takes
the stale-batch skip.  Decisions and simulation-time metrics must match
:class:`~repro.sim.simulator.Simulation` exactly; only the
``schedule_passes``/``passes_skipped`` counters (and wall time) differ.

The empty-queue skip stays on: with nothing queued a pass starts
nothing in either simulation.  :attr:`skip_checks` counts the
non-empty-queue batches, so ``result.schedule_passes ==
sim.skip_checks`` proves that every one of them ran a pass.
"""

from typing import Sequence

from repro.core.reservation import Reservation
from repro.metrics.summary import WALLCLOCK_METRICS, SummaryMetrics
from repro.sched.profile import ProfileView
from repro.sim.simulator import Simulation

#: counters that differ between the incremental simulator and the oracle
PASS_COUNTERS = frozenset({"schedule_passes", "passes_skipped"})


class FullReplanSimulation(Simulation):
    """:class:`Simulation` with a per-pass rebuilt profile and no
    stale-batch skip."""

    skip_checks = 0

    def _can_skip_pass(self) -> bool:
        self.skip_checks += 1
        return False

    def _availability_view(
        self, usable: int, active: Sequence[Reservation]
    ) -> ProfileView:
        blocks = [
            (ex.predicted_finish(), ex.nodes) for ex in self.running_views()
        ]
        blocks.extend(self._reservation_blocks(active))
        return ProfileView.from_blocks(self.now, usable, blocks)


def run_full_replan(*args, **kwargs):
    """Run the oracle and check it never took the stale-batch skip."""
    sim = FullReplanSimulation(*args, **kwargs)
    result = sim.run()
    assert result.schedule_passes == sim.skip_checks, (
        "the full-replan oracle skipped a non-empty-queue pass"
    )
    return result


def replan_invariant_view(summary: SummaryMetrics) -> dict:
    """The summary fields the oracle and the simulator must agree on.

    ``events_processed`` stays in: both dispatch the same event stream.
    """
    return {
        k: v
        for k, v in summary.to_dict().items()
        if k not in WALLCLOCK_METRICS and k not in PASS_COUNTERS
    }
