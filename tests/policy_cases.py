"""The (ordering, planner) grid the registry-driven suites sweep.

Queue order and planner are separate settings (``SimConfig.policy`` and
``SimConfig.backfill_mode``), so every registered ordering runs under
both planners, and so does the unset policy (FCFS).  Case ids:

* ``<name>`` — the ordering under EASY, the default planner;
* ``<name>-conservative`` — the ordering under conservative backfill;
* ``easy`` / ``conservative`` — the unset policy under that planner.

``REPRO_POLICY=<name>`` restricts the grid to one ordering, the unset
policy counting as ``fcfs`` (the CI policy matrix runs one shard per
registered name).
"""

import os

import pytest

from repro.sched.registry import policy_names

BACKFILL_MODES = ("easy", "conservative")

_ONLY = os.environ.get("REPRO_POLICY")
if _ONLY and _ONLY not in policy_names():
    raise RuntimeError(
        f"REPRO_POLICY={_ONLY!r} is not registered; "
        f"known policies: {', '.join(policy_names())}"
    )


def _case_id(policy, backfill_mode):
    if policy is None:
        return backfill_mode
    return policy if backfill_mode == "easy" else f"{policy}-{backfill_mode}"


#: ``(policy, backfill_mode)`` pairs as pytest params
POLICY_CASES = [
    pytest.param(policy, mode, id=_case_id(policy, mode))
    for policy in (None, *policy_names())
    for mode in BACKFILL_MODES
    if not _ONLY or (policy or "fcfs") == _ONLY
]
