"""Experiment-level configuration.

One :class:`ExperimentConfig` describes a full evaluation campaign: the
workload spec, the simulator knobs, which mechanisms to compare, how many
random trace replicas to average ("we repeat the same experiment on ten
randomly generated traces and the results ... are averaged"), and how to
fan the runs out across processes.

The paper runs one-year traces; the default here is a four-week horizon so
the full Fig. 6 grid regenerates in minutes on a laptop — pass
``days=365`` for the paper-scale run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.util.timeconst import DAY
from repro.workload.spec import (
    NOTICE_MIXES,
    NoticeMix,
    WorkloadSpec,
    theta_spec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import CampaignSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """A full campaign description."""

    spec: WorkloadSpec = field(default_factory=lambda: theta_spec(days=28))
    sim: SimConfig = field(default_factory=SimConfig)
    mechanisms: List[Mechanism] = field(
        default_factory=lambda: list(ALL_MECHANISMS)
    )
    #: number of random trace replicas averaged per cell
    n_traces: int = 3
    base_seed: int = 2022
    #: worker processes for the grid (1 = serial, deterministic order)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_traces <= 0:
            raise ConfigurationError("n_traces must be positive")
        if self.workers <= 0:
            raise ConfigurationError("workers must be positive")
        if self.spec.system_size != self.sim.system_size:
            raise ConfigurationError(
                f"workload system_size ({self.spec.system_size}) != simulator "
                f"system_size ({self.sim.system_size})"
            )

    def seeds(self) -> List[int]:
        return [self.base_seed + i for i in range(self.n_traces)]

    def with_spec(self, spec: WorkloadSpec) -> "ExperimentConfig":
        return replace(self, spec=spec)

    def with_sim(self, sim: SimConfig) -> "ExperimentConfig":
        return replace(self, sim=sim)

    def to_campaign_spec(
        self,
        name: str,
        mixes: Optional[Sequence[NoticeMix]] = None,
        include_baseline: bool = False,
        kind: str = "sim",
    ) -> "CampaignSpec":
        """Translate this one-shot config into a declarative campaign.

        The campaign axes capture (days, load, system size, mix,
        mechanism, backfill, checkpoint multiplier, failure MTBF, seed);
        any *other* non-default knob of the workload spec or simulator
        is preserved in the campaign's override dicts, so the expanded
        cells reproduce this config exactly — and hash differently from
        campaigns with different knobs.
        """
        from repro.campaign.spec import CampaignSpec

        mix_values = tuple(
            _mix_value(m) for m in (mixes or [self.spec.notice_mix])
        )
        mechanisms: List[Optional[str]] = [m.name for m in self.mechanisms]
        if include_baseline:
            mechanisms = [None, *mechanisms]
        failures = self.sim.failures
        mtbf_days = failures.node_mtbf_s / DAY if failures.enabled else 0.0
        return CampaignSpec(
            name=name,
            days=(self.spec.days,),
            target_load=(self.spec.target_load,),
            system_size=(self.spec.system_size,),
            notice_mix=mix_values,
            mechanism=tuple(mechanisms),
            backfill_mode=(self.sim.backfill_mode,),
            checkpoint_multiplier=(self.sim.checkpoint.interval_multiplier,),
            failure_mtbf_days=(mtbf_days,),
            seeds=tuple(self.seeds()),
            kind=kind,
            spec_overrides=_spec_overrides(self.spec),
            sim_overrides=_sim_overrides(self.sim),
            policy=(self.sim.policy,),
            policy_params=(
                {self.sim.policy: dict(self.sim.policy_params)}
                if self.sim.policy and self.sim.policy_params
                else {}
            ),
        )

    @staticmethod
    def quick(
        days: float = 10.0,
        n_traces: int = 2,
        system_size: Optional[int] = None,
        **spec_overrides,
    ) -> "ExperimentConfig":
        """A small campaign for tests and examples."""
        if system_size is not None:
            spec_overrides["system_size"] = system_size
        spec = theta_spec(days=days, **spec_overrides)
        sim = SimConfig(system_size=spec.system_size)
        return ExperimentConfig(spec=spec, sim=sim, n_traces=n_traces)


def _mix_value(mix: NoticeMix) -> Union[str, dict]:
    """A Table III mix travels by name; custom mixes embed their dict."""
    if NOTICE_MIXES.get(mix.name) == mix:
        return mix.name
    return mix.to_dict()


def _spec_overrides(spec: WorkloadSpec) -> dict:
    """Non-default workload knobs not already covered by campaign axes."""
    baseline = theta_spec(
        days=spec.days,
        target_load=spec.target_load,
        system_size=spec.system_size,
        notice_mix=spec.notice_mix,
    )
    base_d, spec_d = baseline.to_dict(), spec.to_dict()
    return {k: v for k, v in spec_d.items() if base_d[k] != v}


def _sim_overrides(sim: SimConfig) -> dict:
    """Non-default simulator knobs not already covered by campaign axes."""
    # the MTBF exactly as the cell's failure axis rebuilds it from days:
    # when the round trip through days is inexact, the override keeps
    # the original value
    failures = (
        FailureModel(
            enabled=True,
            node_mtbf_s=sim.failures.node_mtbf_s / DAY * DAY,
        )
        if sim.failures.enabled
        else FailureModel.disabled()
    )
    baseline = SimConfig(
        system_size=sim.system_size,
        backfill_mode=sim.backfill_mode,
        checkpoint=CheckpointModel(
            interval_multiplier=sim.checkpoint.interval_multiplier
        ),
        failures=failures,
        # covered by the campaign policy axis, like backfill_mode
        policy=sim.policy,
        policy_params=dict(sim.policy_params),
    )
    out: dict = {}
    for name in sim.__dataclass_fields__:
        base_v, sim_v = getattr(baseline, name), getattr(sim, name)
        if base_v == sim_v:
            continue
        if name in ("checkpoint", "failures"):
            out[name] = dict(sim_v.__dict__)
        else:
            out[name] = sim_v
    return out
