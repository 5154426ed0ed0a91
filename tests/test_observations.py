"""Qualitative reproduction of the paper's observations (§V).

These are the *shape* claims of the evaluation — who wins, in which
direction — checked on a reduced-scale campaign (14-day traces, 2 seeds,
calibrated offered load).  Absolute numbers differ from the paper (their
substrate was a year-long real trace); EXPERIMENTS.md records both.
"""

import statistics

import pytest

from repro.campaign.spec import CampaignSpec
from repro.core.mechanisms import ALL_MECHANISMS
from repro.experiments.runner import run_mechanism_grid

SPAA_NAMES = ["N&SPAA", "CUA&SPAA", "CUP&SPAA"]
PAA_NAMES = ["N&PAA", "CUA&PAA", "CUP&PAA"]


@pytest.fixture(scope="module")
def grid():
    """Baseline + six mechanisms, averaged over two 14-day traces."""
    return run_mechanism_grid(
        CampaignSpec(
            name="observations",
            days=(14.0,),
            target_load=(0.82,),
            mechanism=(None, *(m.name for m in ALL_MECHANISMS)),
            seeds=(2022, 2023),
        )
    )


def mech_values(grid, field):
    return {
        name: getattr(s, field)
        for name, s in grid.items()
        if name is not None
    }


class TestObservation1:
    """Mechanisms boost instant start dramatically over FCFS/EASY."""

    def test_baseline_instant_rate_low(self, grid):
        assert grid[None].instant_start_rate < 0.6

    def test_mechanisms_instant_rate_near_one(self, grid):
        for name, rate in mech_values(grid, "instant_start_rate").items():
            assert rate > 0.9, f"{name}: instant rate {rate}"

    def test_mechanisms_beat_baseline(self, grid):
        base = grid[None].instant_start_rate
        for rate in mech_values(grid, "instant_start_rate").values():
            assert rate > base


class TestObservation3:
    """SPAA reduces malleable preemption ratio relative to PAA."""

    @pytest.mark.parametrize("notice", ["N", "CUA", "CUP"])
    def test_spaa_lower_malleable_preemption(self, grid, notice):
        paa = grid[f"{notice}&PAA"].preemption_ratio_malleable
        spaa = grid[f"{notice}&SPAA"].preemption_ratio_malleable
        assert spaa <= paa + 0.02, f"{notice}: SPAA {spaa} vs PAA {paa}"

    def test_spaa_average_strictly_lower(self, grid):
        paa = statistics.mean(
            grid[n].preemption_ratio_malleable for n in PAA_NAMES
        )
        spaa = statistics.mean(
            grid[n].preemption_ratio_malleable for n in SPAA_NAMES
        )
        assert spaa < paa

    def test_some_malleable_jobs_shrunk_under_spaa(self, grid):
        assert any(
            grid[n].shrink_ratio_malleable > 0 for n in SPAA_NAMES
        )


class TestObservation5:
    """CUA performs at least as well as CUP in most cases."""

    def test_cua_turnaround_not_worse(self, grid):
        for arrival in ("PAA", "SPAA"):
            cua = grid[f"CUA&{arrival}"].avg_turnaround_h
            cup = grid[f"CUP&{arrival}"].avg_turnaround_h
            assert cua <= cup * 1.1, f"{arrival}: CUA {cua} vs CUP {cup}"


class TestObservation6:
    """CUA/CUP mechanisms give malleable jobs better turnaround than rigid
    — the incentive for declaring malleability."""

    @pytest.mark.parametrize(
        "name", ["CUA&PAA", "CUA&SPAA", "CUP&PAA", "CUP&SPAA"]
    )
    def test_malleable_beats_rigid(self, grid, name):
        s = grid[name]
        assert s.avg_turnaround_malleable_h < s.avg_turnaround_rigid_h


class TestObservation8:
    """Malleable jobs are preempted more often than rigid jobs (cheaper
    victims sort first), yet still do better on turnaround."""

    def test_malleable_preempted_more(self, grid):
        for name, s in grid.items():
            if name is None:
                continue
            assert (
                s.preemption_ratio_malleable >= s.preemption_ratio_rigid
            ), name


class TestObservation9:
    """No significant instant-rate differences among the six mechanisms."""

    def test_spread_is_small(self, grid):
        rates = list(mech_values(grid, "instant_start_rate").values())
        assert max(rates) - min(rates) < 0.1


class TestObservation10:
    """Decision latency far below the 10-30 s scheduler budget."""

    def test_latency_under_ten_milliseconds(self, grid):
        for name, s in grid.items():
            if name is None:
                continue
            assert s.decision_latency_max_s < 0.1, (
                f"{name}: max decision latency {s.decision_latency_max_s}s"
            )
            assert s.decision_latency_p50_s < 0.01


class TestWasteAccounting:
    """Preemption waste shows up in the utilization decomposition."""

    def test_baseline_has_no_preemption_waste(self, grid):
        assert grid[None].lost_compute_frac == 0.0
        assert grid[None].wasted_setup_frac == 0.0

    def test_mechanisms_pay_some_waste(self, grid):
        assert any(
            s.lost_compute_frac + s.wasted_setup_frac > 0
            for name, s in grid.items()
            if name is not None
        )

    def test_utilization_in_sane_band(self, grid):
        for name, s in grid.items():
            assert 0.6 < s.system_utilization <= 1.0, (name, s.system_utilization)


class TestLeaseMechanics:
    """The §III-B.3 fairness machinery actually fires at scale."""

    def test_leases_settled(self, grid):
        total_resumes = sum(
            s.lease_resumes for n, s in grid.items() if n is not None
        )
        assert total_resumes > 0

    def test_spaa_expansions_happen(self, grid):
        assert any(grid[n].lease_expands > 0 for n in SPAA_NAMES)
