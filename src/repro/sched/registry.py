"""The policy registry: every queue ordering behind one name.

A *policy* here is what a user selects on the command line or as a
campaign axis value: a queue-ordering rule.  Each registered name maps
to a factory that builds a
:class:`~repro.sched.policy.SchedulingPolicy`.  The planner is a
separate choice (``SimConfig.backfill_mode``); both planners consume
the same ``plan(profile, ordered_queue, loanable, predict_wall)``
surface, so a registered policy composes with either planner, every
mechanism, the incremental core, and streaming unchanged.

Registration contract (see DESIGN.md "Policy registry"):

* the factory takes only keyword tuning knobs and must be pure — same
  params, same behaviour (cells are content-addressed on the params);
* the policy may only *sort* the queue (``key``/``order``); it must
  not mutate jobs, start them, or hold cross-pass state;
* aging policies (``key`` depends on ``now``) must set
  ``time_invariant = False``; a time-invariant policy's key is computed
  once per queued job (``SchedulingPolicy.static_key``).

Adding a policy::

    @register_policy("my_policy")
    def _my_policy(**params) -> SchedulingPolicy:
        '''One-line description shown by ``list_policies``.'''
        return MyPolicy(**params)

Every registry-driven test suite (invariants, replan equivalence,
streaming differentials, CI policy matrix) picks the new name up from
:func:`policy_names` with zero test edits.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.sched.ewt import EwtPolicy
from repro.sched.fcfs import FcfsPolicy, LjfPolicy, SjfPolicy
from repro.sched.policy import SchedulingPolicy
from repro.sched.score import ScorePolicy
from repro.util.errors import ConfigurationError

PolicyFactory = Callable[..., SchedulingPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_policy(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator: register a policy factory under ``name``."""
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


def get_policy(
    name: str, params: Optional[Mapping[str, object]] = None
) -> SchedulingPolicy:
    """Build the named policy with ``params`` as the factory's knobs;
    unknown names list the registry."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(policy_names())}"
        ) from None
    try:
        return factory(**dict(params or {}))
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from None


# --- the built-in zoo --------------------------------------------------------

@register_policy("fcfs")
def _fcfs(**params: object) -> SchedulingPolicy:
    """First-come-first-serve ordering (paper default)."""
    return FcfsPolicy(**params)  # type: ignore[arg-type]


@register_policy("sjf")
def _sjf(**params: object) -> SchedulingPolicy:
    """Shortest-job-first by runtime estimate."""
    return SjfPolicy(**params)  # type: ignore[arg-type]


@register_policy("ljf")
def _ljf(**params: object) -> SchedulingPolicy:
    """Largest-job-first by node request."""
    return LjfPolicy(**params)  # type: ignore[arg-type]


@register_policy("prb_ewt")
def _prb_ewt(**params: object) -> SchedulingPolicy:
    """PRB/EWT aging: descending (wait + EWT) / EWT [BorghesiCLMB15]."""
    return EwtPolicy(**params)  # type: ignore[arg-type]


@register_policy("score")
def _score(**params: object) -> SchedulingPolicy:
    """Weighted-sum priority (wait age, size, walltime, notice class)."""
    return ScorePolicy(**params)  # type: ignore[arg-type]
