"""CQSim-style discrete-event scheduling simulator substrate.

* :mod:`repro.sim.events` — event types and deterministic same-time ordering.
* :mod:`repro.sim.engine` — the event heap / simulation clock.
* :mod:`repro.sim.cluster` — free-pool counts for a machine of identical
  nodes (allocation is at node granularity, jobs are exclusive; each
  running job's record in the simulator holds its own node count).
* :mod:`repro.sim.wait_queue` — the wait queue, kept sorted by the
  policy's static key (or job id) as jobs enter and leave it.
* :mod:`repro.sim.simulator` — the :class:`Simulation` that ties the job
  models, scheduling policy, and hybrid-workload coordinator together.
"""

from repro.sim.cluster import Cluster
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventType
from repro.sim.failures import FailureModel
from repro.sim.schedlog import LogEntry, LogKind
from repro.sim.simulator import Simulation, SimulationResult

__all__ = [
    "Cluster",
    "FailureModel",
    "LogEntry",
    "LogKind",
    "EventQueue",
    "Event",
    "EventType",
    "Simulation",
    "SimulationResult",
]
