"""Simulation configuration (§IV-B defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.jobs.checkpoint import CheckpointModel
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.util.timeconst import MINUTE

#: Theta's node count (Table I).
THETA_NODES = 4392


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    The reservation grace is not a knob: §IV-B fixes it at 10 minutes
    after the on-demand job's estimated arrival
    (:data:`repro.core.coordinator.RESERVATION_GRACE_S`).

    Parameters
    ----------
    system_size:
        Number of identical compute nodes (Theta: 4392).
    instant_threshold_s:
        An on-demand job counts as "started instantly" if its start delay
        does not exceed this (arrival-instant starts have delay 0).
    checkpoint:
        Checkpoint cost/interval model for rigid jobs.
    backfill_depth:
        How many queued jobs behind the blocked head EASY may backfill
        (None = the whole queue; 0 turns backfilling off).
    allow_reserved_loans:
        Whether backfilled jobs may borrow reserved-idle nodes (§III-B.1).
    flexible_malleable:
        When True the scheduler may start malleable jobs anywhere in
        ``[min_size, max_size]``; the baseline configuration sets this
        False so malleable jobs behave like rigid jobs ("without special
        treatments").
    failures / failure_seed:
        Node-failure injection (extension; off by default — the paper's
        simulations inject none).  The seed feeds a dedicated RNG stream
        so enabling failures perturbs no other randomness.
    validate_invariants:
        Run (slow) cross-component consistency checks after every event
        batch; enabled by the test suite.
    """

    system_size: int = THETA_NODES
    instant_threshold_s: float = MINUTE
    checkpoint: CheckpointModel = field(default_factory=CheckpointModel)
    backfill_depth: int | None = None
    #: "easy" (paper default) or "conservative" (every queued job gets a
    #: reservation; extension for the ablation suite)
    backfill_mode: str = "easy"
    allow_reserved_loans: bool = True
    flexible_malleable: bool = True
    failures: FailureModel = field(default_factory=FailureModel.disabled)
    failure_seed: int = 0
    #: registered queue-ordering name (see ``repro.sched.registry``);
    #: ``None`` is FCFS.  The planner is ``backfill_mode``'s alone.
    policy: "str | None" = None
    #: tuning knobs passed to the policy factory (e.g. the score
    #: weights or the EWT class table); only valid with ``policy``
    policy_params: Mapping[str, object] = field(default_factory=dict)
    validate_invariants: bool = False

    def __post_init__(self) -> None:
        if self.system_size <= 0:
            raise ConfigurationError("system_size must be positive")
        if self.instant_threshold_s < 0:
            raise ConfigurationError("instant_threshold_s must be >= 0")
        if self.backfill_depth is not None and self.backfill_depth < 0:
            raise ConfigurationError("backfill_depth must be None or >= 0")
        if self.backfill_mode not in ("easy", "conservative"):
            raise ConfigurationError(
                f"backfill_mode must be 'easy' or 'conservative', "
                f"got {self.backfill_mode!r}"
            )
        if self.policy is not None:
            # resolving validates both the name (unknown names list the
            # registry) and the params (bad knobs raise here, not
            # mid-simulation); the import is deferred so `sim` never
            # hard-depends on `sched` at module-import time
            from repro.sched.registry import get_policy

            get_policy(self.policy, self.policy_params)
        elif self.policy_params:
            raise ConfigurationError(
                "policy_params given without a policy; set policy to "
                "one of the registered names"
            )
