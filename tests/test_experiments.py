"""Tests for the experiment harness: runner, figure drivers, CLI."""

import hashlib
from dataclasses import replace

import pytest

from repro.campaign.spec import CampaignSpec
from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.experiments import figures
from repro.experiments.cli import _exhibit_spec, make_parser
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import run_mechanism_grid, run_one
from repro.metrics.summary import average_summaries, deterministic_view
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.util.timeconst import DAY
from repro.workload.spec import W3, theta_spec

#: tiny-but-nonempty campaign used across these tests
QUICK = CampaignSpec(
    name="quick",
    days=(3.0,),
    target_load=(0.7,),
    mechanism=tuple(m.name for m in ALL_MECHANISMS),
    seeds=(2022, 2023),
)
CELL = QUICK.expand()[0]
SPEC, SIM = CELL.workload_spec(), CELL.sim_config()


def exhibit_spec(*argv):
    return _exhibit_spec(make_parser().parse_args(list(argv)))


class TestConfig:
    """The exhibit flags as the campaign the exhibits run."""

    def test_seeds(self):
        cspec = exhibit_spec("fig6", "--traces", "3", "--seed", "7")
        assert cspec.seeds == (7, 8, 9)

    def test_system_size_mismatch_rejected(self):
        """The workload and the simulator read one system-size axis; an
        override that would split them is refused."""
        for field in ("spec_overrides", "sim_overrides"):
            with pytest.raises(ConfigurationError, match="system_size"):
                replace(QUICK, **{field: {"system_size": 100}})

    @pytest.mark.parametrize("kw", [{"traces": 0}, {"workers": 0}])
    def test_invalid_counts(self, kw):
        ((flag, value),) = kw.items()
        with pytest.raises(ConfigurationError):
            cli_main(["fig6", "--days", "1", f"--{flag}", str(value)])

    def test_campaign_translation_is_exact(self):
        cspec = exhibit_spec(
            "fig6", "--days", "2", "--nodes", "512", "--load", "0.6",
            "--mix", "W3", "--noshow-frac", "0.3", "--policy", "score",
            "--failure-mtbf-days", "7", "--backfill", "conservative",
        )
        cell = cspec.expand()[0]
        assert cell.workload_spec() == theta_spec(
            days=2, system_size=512, target_load=0.6, notice_mix=W3,
            ondemand_noshow_frac=0.3,
        )
        assert cell.sim_config() == SimConfig(
            system_size=512,
            backfill_mode="conservative",
            failures=FailureModel(enabled=True, node_mtbf_s=7 * DAY),
            policy="score",
        )

    @pytest.mark.parametrize(
        "flags", [["--failure-mtbf-days", "-1"], ["--load", "3"]]
    )
    def test_bad_flag_values_fail_before_any_cell_runs(self, flags):
        with pytest.raises(ConfigurationError):
            exhibit_spec("fig6", *flags)


#: sha256 of the space-joined sorted cell keys each grid exhibit runs
A1 = ["--days", "2", "--nodes", "512", "--load", "0.6", "--traces", "2"]
A2 = [
    *A1, "--noshow-frac", "0.3", "--failure-mtbf-days", "7",
    "--policy", "score", "--backfill", "conservative",
]
CELL_KEYS = [
    ("fig6", A1, 60, "5890ac81c62b29468c6064a1bba4b1bc82e5945996e38b53decc8cabb8d0c1c8"),
    ("fig7", A1, 36, "1f0efbbdd4d7489f46cfd852c2a01e6237deff71a43ef4e3f466aac65a37bf6c"),
    ("fig5", A1, 2, "ad0d6890af73efa701fc14f6b4322a8e95b23db964a5ce9c63e273765fd67062"),
    ("table2", A1, 2, "e085b6100781afcd2063e659a9492f23aef2a78f96793ef7883ac391ad936886"),
    ("compare", A1, 14, "a5549047a5790416a1e87e9961788a7d75033ff962b028be5338314d48b403cd"),
    ("fig6", A2, 60, "5e1dc6d8086fea8f26a75f0ed4875d7e8a47abc00ed5bc73b90216faa7944e39"),
    ("fig7", A2, 36, "f525d5154167ab78a6b882782804f8a4c0e0328a7161e6d16bb98292e94f2475"),
    ("fig5", A2, 2, "8c28155eb33999d9b60d53fb221d151eb3e432953e31d1bfd3b7296ce49b55da"),
    ("table2", A2, 2, "9883dd2dc0e7f12cc5ae298f6dc56d006eba6c417d19818341ee5ed8300be3fe"),
    ("compare", A2, 14, "0995efbe454cc083a9453ec0f4c3e8bf670e8ae36b3a54af4aa4cee41c535c5a"),
]


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "exhibit, argv, n_cells, digest",
    CELL_KEYS,
    ids=[f"{c[0]}-{'a1' if c[1] is A1 else 'a2'}" for c in CELL_KEYS],
)
def test_grid_exhibits_keep_their_cell_keys(
    monkeypatch, exhibit, argv, n_cells, digest
):
    """Each grid exhibit hands ``run_campaign`` the cells it always ran:
    the same content keys mean every cached store stays a cache hit."""
    from repro.campaign import executor

    seen = []

    def capture(cspec, *args, **kwargs):
        seen.append(cspec)
        raise _Captured

    monkeypatch.setattr(executor, "run_campaign", capture)
    with pytest.raises(_Captured):
        cli_main([exhibit, *argv])
    (cspec,) = seen
    keys = sorted(cell.key() for cell in cspec.expand())
    assert len(keys) == n_cells
    assert hashlib.sha256(" ".join(keys).encode()).hexdigest() == digest


class TestRunner:
    def test_run_one_baseline_and_mechanism(self):
        base = run_one(SPEC, 1, None, SIM)
        mech = run_one(SPEC, 1, Mechanism.parse("N&PAA"), SIM)
        assert base.mechanism is None
        assert mech.mechanism == "N&PAA"
        assert mech.instant_start_rate >= base.instant_start_rate

    def test_grid_preserves_order_and_averages(self):
        grid = run_mechanism_grid(replace(QUICK, mechanism=(None, "N&PAA")))
        assert list(grid.keys()) == [None, "N&PAA"]
        assert grid["N&PAA"].n_jobs > 0

    def test_grid_averages_the_seeds_in_order(self):
        mech = ALL_MECHANISMS[3]
        seeds = (2023, 2022)
        grid = run_mechanism_grid(
            replace(QUICK, mechanism=(mech.name,), seeds=seeds)
        )
        direct = average_summaries(
            [run_one(SPEC, seed, mech, SIM) for seed in seeds]
        )
        assert deterministic_view(grid[mech.name]) == (
            deterministic_view(direct)
        )

    def test_grid_drops_failed_cells_and_raises_when_all_fail(
        self, monkeypatch
    ):
        from repro.campaign import executor

        ok_seed, bad_seed = QUICK.seeds
        real_run_one = executor.run_one

        def flaky(spec, seed, mechanism, *args, **kwargs):
            if mechanism is None or seed == bad_seed:
                raise RuntimeError("injected cell failure")
            return real_run_one(spec, seed, mechanism, *args, **kwargs)

        monkeypatch.setattr(executor, "run_one", flaky)
        mech = ALL_MECHANISMS[0]
        grid = run_mechanism_grid(replace(QUICK, mechanism=(mech.name,)))
        alone = real_run_one(SPEC, ok_seed, mech, SIM)
        assert deterministic_view(grid[mech.name]) == (
            deterministic_view(alone)
        )
        with pytest.raises(RuntimeError, match="injected cell failure"):
            run_mechanism_grid(replace(QUICK, mechanism=(None, mech.name)))

    def test_grid_parallel_matches_serial(self):
        cspec = replace(QUICK, mechanism=(ALL_MECHANISMS[2].name,))
        serial = run_mechanism_grid(cspec, workers=1)
        parallel = run_mechanism_grid(cspec, workers=2)
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
        assert len(out["shares"]) == len(QUICK.seeds)
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
        small = replace(QUICK, mechanism=("N&PAA",), seeds=(2022,))
        out = figures.fig6_mechanisms(small, mixes=["W5"])
        assert "W5" in out["sweep"]
        assert "Fig. 6" in out["text"]

    def test_fig7_two_multipliers(self):
        small = replace(QUICK, mechanism=(ALL_MECHANISMS[1].name,), seeds=(2022,))
        out = figures.fig7_checkpointing(small, multipliers=(0.5, 2.0))
        assert set(out["results"]) == {0.5, 2.0}
        assert "Fig. 7" in out["text"]

    def test_headline(self):
        small = replace(QUICK, seeds=(2022,))
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
