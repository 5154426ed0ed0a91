"""Tests for the experiment harness: configs, runner, figure drivers, CLI."""

from dataclasses import replace

import pytest

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.experiments import figures
from repro.experiments.cli import main as cli_main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_mechanism_grid, run_one
from repro.metrics.summary import average_summaries, deterministic_view
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.workload.spec import W5, theta_spec

#: tiny-but-nonempty campaign used across these tests
QUICK = ExperimentConfig.quick(days=3, n_traces=2, target_load=0.7)


class TestConfig:
    def test_quick_constructor(self):
        assert QUICK.n_traces == 2
        assert QUICK.spec.days == 3
        assert len(QUICK.mechanisms) == 6

    def test_seeds(self):
        assert QUICK.seeds() == [2022, 2023]

    def test_system_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                spec=theta_spec(days=2, system_size=100),
                sim=SimConfig(system_size=200),
            )

    @pytest.mark.parametrize("kw", [{"n_traces": 0}, {"workers": 0}])
    def test_invalid_counts(self, kw):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(spec=theta_spec(days=2), **kw)

    def test_campaign_translation_is_exact(self):
        # 12345.678 s does not survive the failure axis's round trip
        # through days (x / DAY * DAY != x), so an override carries it
        sim = replace(
            QUICK.sim,
            failures=FailureModel(enabled=True, node_mtbf_s=12345.678),
        )
        cells = QUICK.with_sim(sim).to_campaign_spec("exact").expand()
        assert cells[0].sim_config() == sim
        assert cells[0].workload_spec() == QUICK.spec

    def test_with_spec_and_sim(self):
        spec2 = theta_spec(days=5)
        assert QUICK.with_spec(spec2).spec.days == 5
        sim2 = SimConfig(backfill_depth=0)
        assert QUICK.with_sim(sim2).sim.backfill_depth == 0


class TestRunner:
    def test_run_one_baseline_and_mechanism(self):
        base = run_one(QUICK.spec, 1, None, QUICK.sim)
        mech = run_one(QUICK.spec, 1, Mechanism.parse("N&PAA"), QUICK.sim)
        assert base.mechanism is None
        assert mech.mechanism == "N&PAA"
        assert mech.instant_start_rate >= base.instant_start_rate

    def test_grid_preserves_order_and_averages(self):
        grid = run_mechanism_grid(
            QUICK.spec,
            [None, ALL_MECHANISMS[0]],
            QUICK.seeds(),
            sim=QUICK.sim,
        )
        assert list(grid.keys()) == [None, "N&PAA"]
        assert grid["N&PAA"].n_jobs > 0

    def test_grid_averages_the_seeds_in_order(self):
        mech = ALL_MECHANISMS[3]
        seeds = [2023, 2022]
        grid = run_mechanism_grid(QUICK.spec, [mech], seeds, sim=QUICK.sim)
        direct = average_summaries(
            [run_one(QUICK.spec, seed, mech, QUICK.sim) for seed in seeds]
        )
        assert deterministic_view(grid[mech.name]) == (
            deterministic_view(direct)
        )

    def test_grid_drops_failed_cells_and_raises_when_all_fail(
        self, monkeypatch
    ):
        from repro.campaign import executor

        ok_seed, bad_seed = QUICK.seeds()
        real_run_one = executor.run_one

        def flaky(spec, seed, mechanism, *args, **kwargs):
            if mechanism is None or seed == bad_seed:
                raise RuntimeError("injected cell failure")
            return real_run_one(spec, seed, mechanism, *args, **kwargs)

        monkeypatch.setattr(executor, "run_one", flaky)
        mech = ALL_MECHANISMS[0]
        grid = run_mechanism_grid(
            QUICK.spec, [mech], QUICK.seeds(), sim=QUICK.sim
        )
        alone = real_run_one(QUICK.spec, ok_seed, mech, QUICK.sim)
        assert deterministic_view(grid[mech.name]) == (
            deterministic_view(alone)
        )
        with pytest.raises(RuntimeError, match="injected cell failure"):
            run_mechanism_grid(
                QUICK.spec, [None, mech], QUICK.seeds(), sim=QUICK.sim
            )

    def test_grid_parallel_matches_serial(self):
        serial = run_mechanism_grid(
            QUICK.spec, [ALL_MECHANISMS[2]], QUICK.seeds(), sim=QUICK.sim, workers=1
        )
        parallel = run_mechanism_grid(
            QUICK.spec, [ALL_MECHANISMS[2]], QUICK.seeds(), sim=QUICK.sim, workers=2
        )
        a, b = serial["CUA&PAA"], parallel["CUA&PAA"]
        assert a.system_utilization == pytest.approx(b.system_utilization)
        assert a.avg_turnaround_h == pytest.approx(b.avg_turnaround_h)


class TestFigureDrivers:
    def test_table1(self):
        out = figures.table1_workload(QUICK)
        assert out["summary"]["number_of_jobs"] == len(out["jobs"])
        assert "Table I" in out["text"]

    def test_fig3(self):
        out = figures.fig3_size_mix(QUICK)
        assert len(out["buckets"]) == 5
        assert "size range" in out["text"]

    def test_fig4(self):
        out = figures.fig4_type_mix(QUICK)
        assert len(out["shares"]) == QUICK.n_traces
        for shares in out["shares"]:
            assert shares["rigid"] + shares["ondemand"] + shares["malleable"] == (
                pytest.approx(1.0)
            )

    def test_fig5(self):
        out = figures.fig5_burstiness(QUICK)
        assert out["series"]
        assert "weekly counts" in out["text"]

    def test_table2(self):
        out = figures.table2_baseline(QUICK)
        assert 0.0 < out["summary"].system_utilization <= 1.0
        assert "baseline" in out["text"].lower()

    def test_table3(self):
        out = figures.table3_mixes()
        assert set(out["mixes"]) == {"W1", "W2", "W3", "W4", "W5"}
        assert "W4" in out["text"]

    def test_fig6_single_mix_single_mech(self):
        small = ExperimentConfig(
            spec=QUICK.spec,
            sim=QUICK.sim,
            mechanisms=[ALL_MECHANISMS[0]],
            n_traces=1,
        )
        out = figures.fig6_mechanisms(small, mixes=[W5])
        assert "W5" in out["sweep"]
        assert "Fig. 6" in out["text"]

    def test_fig7_two_multipliers(self):
        small = ExperimentConfig(
            spec=QUICK.spec,
            sim=QUICK.sim,
            mechanisms=[ALL_MECHANISMS[1]],
            n_traces=1,
        )
        out = figures.fig7_checkpointing(small, multipliers=(0.5, 2.0))
        assert set(out["results"]) == {0.5, 2.0}
        assert "Fig. 7" in out["text"]

    def test_headline(self):
        small = ExperimentConfig(
            spec=QUICK.spec,
            sim=QUICK.sim,
            mechanisms=[ALL_MECHANISMS[3]],
            n_traces=1,
        )
        out = figures.headline_comparison(small)
        assert None in out["grid"]
        assert "CUA&SPAA" in out["grid"]


class TestCli:
    def test_table3(self, capsys):
        assert cli_main(["table3"]) == 0
        assert "W1" in capsys.readouterr().out

    def test_table2_tiny(self, capsys):
        rc = cli_main(
            ["table2", "--days", "2", "--traces", "1", "--load", "0.6"]
        )
        assert rc == 0
        assert "System Util." in capsys.readouterr().out

    def test_compare_tiny(self, capsys):
        rc = cli_main(
            [
                "compare",
                "--days",
                "2",
                "--traces",
                "1",
                "--load",
                "0.6",
                "--mechanisms",
                "N&PAA",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "N&PAA" in out and "baseline" in out

    def test_invalid_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])
