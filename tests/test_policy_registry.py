"""The policy registry: contents, fail-fast resolution, ``fcfs`` planning
exactly like the unset policy under both planners, score-policy
degeneracies, campaign-axis stability, the seed-frozen golden decision
logs for the two newer policy families, and the removed planner
aliases and ``backfill_enabled`` switch failing fast.

The campaign-hash tests pin content addresses computed *before* the
policy axis existed: if any of them moves, re-running a pre-PR campaign
directory would re-simulate instead of cache-hitting.
"""

import io
import json
import os
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, "tests")
from test_simulator_invariants import random_trace  # noqa: E402
from test_replan_equivalence import _config, _job_outcomes  # noqa: E402

from repro.campaign import run_campaign
from repro.campaign.report import report_text
from repro.campaign.spec import CampaignSpec
from repro.core.mechanisms import Mechanism
from repro.jobs.job import Job, JobType, NoticeClass
from repro.sched import FcfsPolicy, LjfPolicy, SjfPolicy
from repro.sched.ewt import EwtPolicy
from repro.sched.registry import (
    get_policy,
    list_policies,
    policy_names,
    register_policy,
)
from repro.sched.score import ScorePolicy
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation
from repro.util.errors import ConfigurationError
from repro.util.timeconst import HOUR
from repro.workload.trace import clone_jobs

GOLDEN = pathlib.Path(__file__).parent / "golden"

BUILTIN = ("fcfs", "sjf", "ljf", "prb_ewt", "score")


# ----------------------------------------------------------------------
# Registry API
# ----------------------------------------------------------------------
class TestRegistryApi:
    def test_builtin_zoo_registered(self):
        names = policy_names()
        assert set(BUILTIN) <= set(names)
        assert names == tuple(sorted(names))
        listing = list_policies()
        assert len(listing) >= 5
        assert all(listing[name] for name in BUILTIN), (
            "every built-in needs a one-line description"
        )

    def test_get_policy_builds_dispatchers(self):
        assert isinstance(get_policy("fcfs"), FcfsPolicy)
        assert isinstance(get_policy("sjf"), SjfPolicy)
        assert isinstance(get_policy("ljf"), LjfPolicy)
        assert isinstance(get_policy("prb_ewt"), EwtPolicy)
        assert isinstance(get_policy("score"), ScorePolicy)

    def test_params_reach_the_factory(self):
        d = get_policy("score", {"wait_weight": 0.0, "size_weight": 2.5})
        assert d.size_weight == 2.5
        e = get_policy("prb_ewt", {"long_ewt_s": 14400.0})
        assert e.long_ewt_s == 14400.0

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ConfigurationError) as exc:
            get_policy("fcsf")
        message = str(exc.value)
        for name in BUILTIN:
            assert name in message

    def test_bad_params_fail_fast(self):
        with pytest.raises(ConfigurationError, match="score"):
            get_policy("score", {"bogus_knob": 1})
        with pytest.raises(ConfigurationError, match="ondemand_ewt_s"):
            get_policy("prb_ewt", {"ondemand_ewt_s": -1.0})
        with pytest.raises(ConfigurationError, match="prb_ewt"):
            get_policy("prb_ewt", {"bogus_knob": 1.0})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_policy("fcfs")
            def _dup(**params):
                return FcfsPolicy()

    def test_aging_policy_declares_time_variance(self):
        assert get_policy("prb_ewt").time_invariant is False
        # the score policy's key is submit-anchored: time-invariant for
        # any weights (the common now-term is dropped)
        assert get_policy("score", {"wait_weight": 3.0}).time_invariant


# ----------------------------------------------------------------------
# The time-invariance contract: pass skipping and the simulator's
# kept-sorted wait queue both rely on ``time_invariant``
# ----------------------------------------------------------------------
TIME_INVARIANT = [
    name for name in policy_names() if get_policy(name).time_invariant
]


@st.composite
def any_job(draw, job_id: int) -> Job:
    kind = draw(st.sampled_from(list(JobType)))
    size = draw(st.integers(min_value=1, max_value=4096))
    runtime = draw(st.floats(min_value=1.0, max_value=1e6))
    submit = draw(st.floats(min_value=0.0, max_value=1e7))
    kw = {}
    if kind is JobType.MALLEABLE:
        kw["min_size"] = draw(st.integers(min_value=1, max_value=size))
    if kind is JobType.ONDEMAND:
        notice = draw(st.sampled_from(list(NoticeClass)))
        if notice is not NoticeClass.NONE:
            lead = draw(st.floats(min_value=0.0, max_value=submit))
            kw.update(
                notice_class=notice,
                notice_time=submit - lead,
                estimated_arrival=submit,
            )
    return Job(
        job_id=job_id,
        job_type=kind,
        submit_time=submit,
        size=size,
        runtime=runtime,
        estimate=runtime * draw(st.floats(min_value=1.0, max_value=3.0)),
        **kw,
    )


@st.composite
def any_queue(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return [draw(any_job(job_id)) for job_id in range(n)]


times = st.floats(min_value=0.0, max_value=1e8)


@pytest.mark.parametrize("name", TIME_INVARIANT)
@settings(max_examples=50, deadline=None)
@given(queue=any_queue(), t1=times, t2=times)
def test_time_invariant_key_ignores_now(name, queue, t1, t2):
    policy = get_policy(name)
    for job in queue:
        assert policy.key(job, t1) == policy.key(job, t2)


@pytest.mark.parametrize("name", TIME_INVARIANT)
@pytest.mark.parametrize("prioritize_ondemand", [True, False])
@settings(max_examples=50, deadline=None)
@given(queue=any_queue(), now=times)
def test_static_key_sorts_like_order(name, prioritize_ondemand, queue, now):
    policy = get_policy(name)
    by_static = sorted(queue, key=policy.static_key(prioritize_ondemand))
    by_order = policy.order(queue, now, prioritize_ondemand)
    assert [j.job_id for j in by_static] == [j.job_id for j in by_order]


def test_time_variant_policy_has_no_static_key():
    assert get_policy("prb_ewt").static_key(True) is None
    assert get_policy("prb_ewt").static_key(False) is None


# ----------------------------------------------------------------------
# ``prb_ewt`` orders by the textbook PRB/EWT urgency
# ----------------------------------------------------------------------
EWT_DEFAULTS = EwtPolicy()


def textbook_ewt_key(job, now, prioritize_ondemand):
    """``(not on-demand, -(now - submit + EWT) / EWT, submit, job_id)``."""
    p = EWT_DEFAULTS
    if job.job_type is JobType.ONDEMAND:
        ewt = p.ondemand_ewt_s
    elif job.estimate <= p.short_estimate_s:
        ewt = p.short_ewt_s
    else:
        ewt = p.long_ewt_s
    key = (-(now - job.submit_time + ewt) / ewt, job.submit_time, job.job_id)
    if prioritize_ondemand:
        return (job.job_type is not JobType.ONDEMAND, *key)
    return key


@st.composite
def ewt_queue(draw):
    """Jobs of all three EWT classes, with shared submit times and
    estimates exactly at the short/long threshold."""
    queue = []
    for job_id in range(draw(st.integers(min_value=0, max_value=12))):
        estimate = draw(
            st.one_of(
                st.just(EWT_DEFAULTS.short_estimate_s),
                st.floats(min_value=1.0, max_value=3 * HOUR),
            )
        )
        kind = draw(st.sampled_from(list(JobType)))
        queue.append(
            Job(
                job_id=job_id,
                job_type=kind,
                submit_time=draw(
                    st.one_of(
                        st.sampled_from([0.0, 1000.0]),
                        st.floats(min_value=0.0, max_value=1e4),
                    )
                ),
                size=2,
                runtime=estimate,
                estimate=estimate,
                min_size=1 if kind is JobType.MALLEABLE else None,
            )
        )
    return queue


@pytest.mark.parametrize("prioritize_ondemand", [True, False])
@settings(max_examples=200, deadline=None)
# waits of hours, not months: at that scale an urgency written another
# way, e.g. (now - submit) / EWT + 1, rounds differently
@given(queue=ewt_queue(), now=st.floats(min_value=1e4, max_value=2e4))
def test_prb_ewt_orders_by_textbook_key(prioritize_ondemand, queue, now):
    policy = get_policy("prb_ewt")
    got = policy.order(queue, now, prioritize_ondemand)
    want = sorted(
        queue, key=lambda j: textbook_ewt_key(j, now, prioritize_ondemand)
    )
    assert [j.job_id for j in got] == [j.job_id for j in want]
    for job in queue:
        assert policy.key(job, now) == textbook_ewt_key(job, now, False)[:-1]


# ----------------------------------------------------------------------
# ``fcfs`` plans byte-identically to the unset policy, under both planners
# ----------------------------------------------------------------------
def _run_logged(jobs, config, mech):
    """Simulate fresh copies of *jobs*; returns (result, decision log)."""
    log = io.StringIO()
    result = Simulation(clone_jobs(jobs), config, mech, decision_log=log).run()
    return result, log.getvalue()


@pytest.mark.parametrize("backfill_mode", ["easy", "conservative"])
def test_fcfs_plans_like_the_unset_policy(backfill_mode):
    jobs = random_trace(13, 45)
    mech = Mechanism.parse("N&SPAA")
    unset, unset_log = _run_logged(
        jobs, _config(backfill_mode=backfill_mode), mech
    )
    fcfs, fcfs_log = _run_logged(
        jobs, _config(backfill_mode=backfill_mode, policy="fcfs"), mech
    )
    assert fcfs_log == unset_log
    assert _job_outcomes(fcfs) == _job_outcomes(unset)
    assert fcfs.policy == unset.policy == "fcfs"


# ----------------------------------------------------------------------
# Score-policy degeneracies: FCFS/SJF/LJF as weight configurations
# ----------------------------------------------------------------------
SCORE_CASES = [
    ({"wait_weight": 1.0}, "fcfs"),
    ({"wait_weight": 0.0, "walltime_weight": -1.0}, "sjf"),
    ({"wait_weight": 0.0, "size_weight": 1.0}, "ljf"),
]


@pytest.mark.parametrize(
    "params,classic", SCORE_CASES, ids=[c[1] for c in SCORE_CASES]
)
def test_score_subsumes_classic_orderings(params, classic):
    jobs = random_trace(23, 40)
    mech = Mechanism.parse("N&PAA")
    ref, ref_log = _run_logged(jobs, _config(policy=classic), mech)
    via_score, score_log = _run_logged(
        jobs, _config(policy="score", policy_params=params), mech
    )
    assert score_log == ref_log
    assert _job_outcomes(via_score) == _job_outcomes(ref)


# ----------------------------------------------------------------------
# Seed-frozen golden decision logs for the new policy families
# ----------------------------------------------------------------------
GOLDEN_CASES = [
    ("prb_ewt", {}),
    (
        "score",
        {
            "wait_weight": 1.0,
            "size_weight": 0.25,
            "walltime_weight": -0.5,
            "notice_weight": 2.0,
        },
    ),
]


@pytest.mark.parametrize(
    "policy,params", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_golden_decision_log(policy, params):
    jobs = random_trace(2022, 30)
    config = _config(policy=policy, policy_params=params)
    _, text = _run_logged(jobs, config, Mechanism.parse("N&PAA"))
    path = GOLDEN / f"policy_{policy}.jsonl"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.write_text(text)
    assert path.exists(), (
        f"golden file {path.name} missing — run with REPRO_UPDATE_GOLDEN=1"
    )
    assert text == path.read_text(), (
        f"{policy} decision log drifted from {path.name}; if the "
        "ordering change is intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


# ----------------------------------------------------------------------
# Campaign axis: hash stability and policy sweeps
# ----------------------------------------------------------------------
#: cell keys of a reference pre-policy-axis grid, computed on the
#: commit *before* the policy axis existed
PINNED_KEYS = {
    (None, "easy"): "4fa55294e1ee911c",
    (None, "conservative"): "a3485a32d7ca0940",
    ("N&PAA", "easy"): "e8d2da1573ad5513",
    ("N&PAA", "conservative"): "432477525b80d221",
}

#: the same grid's campaign.json payload, pre-policy-axis — stored-spec
#: comparison is exact dict equality, so this shape must not change
PINNED_SPEC_DICT = {
    "name": "ref",
    "days": [2.0],
    "target_load": [0.6],
    "system_size": [512],
    "notice_mix": ["W5"],
    "mechanism": [None, "N&PAA"],
    "backfill_mode": ["easy", "conservative"],
    "checkpoint_multiplier": [1.0],
    "failure_mtbf_days": [0.0],
    "seeds": [1],
    "kind": "sim",
    "spec_overrides": {},
    "sim_overrides": {},
    "trace_file": [None],
    "trace_options": {},
}


def _ref_spec() -> CampaignSpec:
    return CampaignSpec(
        name="ref",
        days=(2.0,),
        target_load=(0.6,),
        system_size=(512,),
        mechanism=(None, "N&PAA"),
        backfill_mode=("easy", "conservative"),
        seeds=(1,),
    )


class TestCampaignAxis:
    def test_pre_policy_cell_hashes_unchanged(self):
        keys = {
            (c.mechanism, c.backfill_mode): c.key()
            for c in _ref_spec().expand()
        }
        assert keys == PINNED_KEYS

    def test_pre_policy_spec_dict_unchanged(self):
        # exact equality, including JSON round-trip (what write_spec
        # actually compares against a stored campaign.json)
        payload = json.loads(json.dumps(_ref_spec().to_dict()))
        assert payload == PINNED_SPEC_DICT

    def test_policy_cells_hash_on_their_params(self):
        plain = CampaignSpec(seeds=(1,), policy=("score",))
        tuned = CampaignSpec(
            seeds=(1,),
            policy=("score",),
            policy_params={"score": {"wait_weight": 2.0}},
        )
        (a,), (b,) = plain.expand(), tuned.expand()
        assert a.key() != b.key()
        assert "policy" in a.config()
        assert "policy_params" not in a.config()  # omitted when empty
        assert b.config()["policy_params"] == {"wait_weight": 2.0}

    def test_cell_config_roundtrip_with_policy(self):
        from repro.campaign.spec import CampaignCell

        cell = CampaignSpec(
            seeds=(7,),
            policy=("prb_ewt",),
            policy_params={"prb_ewt": {"long_ewt_s": 14400.0}},
        ).expand()[0]
        again = CampaignCell.from_config(cell.config())
        assert again == cell
        assert again.key() == cell.key()
        sim = again.sim_config()
        assert sim.policy == "prb_ewt"
        assert sim.policy_params == {"long_ewt_s": 14400.0}

    def test_typo_policy_axis_errors_at_plan_time(self):
        with pytest.raises(ConfigurationError, match="przewt"):
            CampaignSpec(policy=("przewt",))
        with pytest.raises(ConfigurationError, match="not on"):
            CampaignSpec(
                policy=("score",), policy_params={"fcfs": {}}
            )
        with pytest.raises(ConfigurationError, match="score"):
            CampaignSpec.from_dict(
                {
                    "name": "x",
                    "policy": "score",
                    "policy_params": {"score": {"bogus": 1}},
                }
            )

    def test_policy_axis_sweep_end_to_end(self, tmp_path):
        """prb_ewt/score sweep as first-class grid values: run, cache,
        and report grouped by the policy axis."""
        spec = CampaignSpec.from_dict(
            {
                "name": "zoo",
                "days": 1,
                "target_load": 0.6,
                "system_size": 512,
                "seeds": [1],
                "policy": [None, "prb_ewt", "score"],
                "policy_params": {"score": {"notice_weight": 2.0}},
            }
        )
        first = run_campaign(spec, directory=tmp_path / "zoo")
        assert first.n_ran == 3 and first.n_failed == 0
        second = run_campaign(spec, directory=tmp_path / "zoo")
        assert second.n_cached == 3 and second.n_ran == 0
        records = list(second.records)
        report = report_text(records, by=["policy"])
        assert "prb_ewt" in report and "score" in report
        # the legacy cell hashes exactly as a no-axis campaign would
        legacy_keys = {
            c.key()
            for c in CampaignSpec.from_dict(
                {
                    "name": "zoo",
                    "days": 1,
                    "target_load": 0.6,
                    "system_size": 512,
                    "seeds": [1],
                }
            ).expand()
        }
        assert legacy_keys == {
            r.key for r in records if r.config.get("policy") is None
        }


# ----------------------------------------------------------------------
# Config-level fail-fast
# ----------------------------------------------------------------------
class TestConfigFailFast:
    def test_sim_config_unknown_policy(self):
        with pytest.raises(ConfigurationError) as exc:
            SimConfig(policy="nope")
        assert "fcfs" in str(exc.value)

    def test_sim_config_bad_params(self):
        with pytest.raises(ConfigurationError, match="score"):
            SimConfig(policy="score", policy_params={"bogus": 1})

    def test_planner_aliases_are_not_policies(self):
        # the planner is ``backfill_mode`` alone: a planner name is an
        # unknown policy, at the config and at the campaign axis
        with pytest.raises(ConfigurationError, match="'easy'"):
            SimConfig(policy="easy")
        with pytest.raises(ConfigurationError, match="'conservative'"):
            CampaignSpec(policy=("conservative",))

    def test_backfill_enabled_override_rejected(self):
        # ``backfill_depth=0`` is the one way to turn backfilling off
        with pytest.raises(ConfigurationError, match="backfill_enabled"):
            CampaignSpec(sim_overrides={"backfill_enabled": False})

    @pytest.mark.parametrize(
        "key,value,bad",
        [
            ("policy", ["easy"], "'easy'"),
            ("policy", ["conservative"], "'conservative'"),
            ("sim_overrides", {"backfill_enabled": False}, "backfill_enabled"),
        ],
        ids=["easy", "conservative", "backfill_enabled"],
    )
    def test_stored_spec_with_removed_setting_rejected(
        self, tmp_path, key, value, bad
    ):
        from repro.campaign.distrib.worker import load_spec
        from repro.campaign.store import SPEC_FILE

        payload = {**PINNED_SPEC_DICT, key: value}
        (tmp_path / SPEC_FILE).write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=bad):
            load_spec(tmp_path)

    def test_sim_config_orphan_params(self):
        with pytest.raises(ConfigurationError, match="without a policy"):
            SimConfig(policy_params={"wait_weight": 1.0})

    def test_campaign_cli_rejects_unknown_policy(self, capsys):
        from repro.experiments.cli import make_campaign_parser

        with pytest.raises(SystemExit):
            make_campaign_parser().parse_args(
                ["run", "--dir", "x", "--policies", "przewt"]
            )
        err = capsys.readouterr().err
        assert "prb_ewt" in err  # argparse lists the valid choices

    def test_campaign_cli_policy_params_shape(self):
        from repro.experiments.cli import _parse_policy_params

        parsed = _parse_policy_params(
            ["score.wait_weight=2", "score.size_weight=0.5",
             "prb_ewt.long_ewt_s=14400"]
        )
        assert parsed == {
            "score": {"wait_weight": 2, "size_weight": 0.5},
            "prb_ewt": {"long_ewt_s": 14400},
        }
        with pytest.raises(SystemExit, match="POLICY.KNOB=VALUE"):
            _parse_policy_params(["wait_weight=2"])

    def test_exhibit_cli_lists_policies(self, capsys):
        from repro.experiments.cli import make_parser

        with pytest.raises(SystemExit):
            make_parser().parse_args(["fig5", "--policy", "typo"])
        assert "prb_ewt" in capsys.readouterr().err
