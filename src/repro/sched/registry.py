"""The policy registry: every dispatcher behind one name, one surface.

A *policy* here is what a user selects on the command line or as a
campaign axis value: a queue-ordering rule, optionally bundled with a
forced backfill planner.  Each registered name maps to a factory that
builds a :class:`Dispatcher` — the ordering
:class:`~repro.sched.policy.SchedulingPolicy` plus an optional
``backfill_mode`` ("easy"/"conservative"; ``None`` inherits
``SimConfig.backfill_mode``).  Both planners already consume the same
``plan(profile, ordered_queue, loanable, predict_wall)`` surface, so a
registered policy composes with every mechanism, the incremental core,
and streaming unchanged.

Registration contract (see DESIGN.md "Policy registry"):

* the factory takes only keyword tuning knobs and must be pure — same
  params, same behaviour (cells are content-addressed on the params);
* the ordering policy may only *sort* the queue (``key``/``order``);
  it must not mutate jobs, start them, or hold cross-pass state;
* aging policies (``key`` depends on ``now``) must set
  ``time_invariant = False``; a time-invariant policy's key is computed
  once per queued job (``SchedulingPolicy.static_key``).

Adding a policy::

    @register_policy("my_policy")
    def _my_policy(**params) -> Dispatcher:
        '''One-line description shown by ``list_policies``.'''
        return Dispatcher(ordering=MyPolicy(**params))

Every registry-driven test suite (invariants, replan equivalence,
streaming differentials, CI policy matrix) picks the new name up from
:func:`policy_names` with zero test edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.sched.ewt import EwtPolicy
from repro.sched.fcfs import FcfsPolicy, LjfPolicy, SjfPolicy
from repro.sched.policy import SchedulingPolicy
from repro.sched.score import ScorePolicy
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class Dispatcher:
    """A resolved policy: queue ordering + (optionally) a forced planner.

    ``backfill_mode=None`` means "inherit the simulation config's
    planner"; a non-None value overrides it, which is how the legacy
    ``easy``/``conservative`` selections live on the same registry as
    pure orderings.
    """

    ordering: SchedulingPolicy
    backfill_mode: Optional[str] = None


PolicyFactory = Callable[..., Dispatcher]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator: register a dispatcher factory under ``name``."""
    if not name or not isinstance(name, str):
        raise ConfigurationError("policy name must be a non-empty string")

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"policy {name!r} is already registered"
            )
        _REGISTRY[name] = factory
        return factory

    return decorator


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def list_policies() -> Dict[str, str]:
    """``{name: one-line description}`` for every registered policy."""
    return {
        name: (_REGISTRY[name].__doc__ or "").strip().splitlines()[0]
        if _REGISTRY[name].__doc__
        else ""
        for name in policy_names()
    }


def get_policy(name: str, **params: object) -> Dispatcher:
    """Build the named dispatcher; unknown names list the registry."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(policy_names())}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from None


def resolve_dispatcher(
    name: str, params: Optional[Mapping[str, object]] = None
) -> Dispatcher:
    """:func:`get_policy` with params as a mapping (config-file shape)."""
    return get_policy(name, **dict(params or {}))


# --- the built-in zoo --------------------------------------------------------

@register_policy("easy")
def _easy(**params: object) -> Dispatcher:
    """FCFS ordering with the EASY backfill planner (paper default)."""
    return Dispatcher(
        ordering=FcfsPolicy(**params), backfill_mode="easy"  # type: ignore[arg-type]
    )


@register_policy("conservative")
def _conservative(**params: object) -> Dispatcher:
    """FCFS ordering with conservative backfilling (every job reserved)."""
    return Dispatcher(
        ordering=FcfsPolicy(**params), backfill_mode="conservative"  # type: ignore[arg-type]
    )


@register_policy("fcfs")
def _fcfs(**params: object) -> Dispatcher:
    """First-come-first-serve ordering; planner from the sim config."""
    return Dispatcher(ordering=FcfsPolicy(**params))  # type: ignore[arg-type]


@register_policy("sjf")
def _sjf(**params: object) -> Dispatcher:
    """Shortest-job-first by runtime estimate; planner from the config."""
    return Dispatcher(ordering=SjfPolicy(**params))  # type: ignore[arg-type]


@register_policy("ljf")
def _ljf(**params: object) -> Dispatcher:
    """Largest-job-first by node request; planner from the config."""
    return Dispatcher(ordering=LjfPolicy(**params))  # type: ignore[arg-type]


@register_policy("prb_ewt")
def _prb_ewt(**params: object) -> Dispatcher:
    """PRB/EWT aging: descending (wait + EWT) / EWT [BorghesiCLMB15]."""
    return Dispatcher(ordering=EwtPolicy(**params))  # type: ignore[arg-type]


@register_policy("score")
def _score(**params: object) -> Dispatcher:
    """Weighted-sum priority (wait age, size, walltime, notice class)."""
    return Dispatcher(ordering=ScorePolicy(**params))  # type: ignore[arg-type]
