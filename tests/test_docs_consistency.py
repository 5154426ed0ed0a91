"""Documentation consistency: the README's claims must stay executable."""

import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).parent.parent


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """Execute the README's Python quickstart block verbatim
        (shrunk horizon so the test stays fast)."""
        readme = (ROOT / "README.md").read_text()
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match, "README lost its quickstart code block"
        code = match.group(1).replace("days=7", "days=2")
        namespace: dict = {}
        exec(compile(code, "README.quickstart", "exec"), namespace)

    def test_documented_imports_exist(self):
        import repro

        for name in (
            "Mechanism",
            "SimConfig",
            "Simulation",
            "clone_jobs",
            "generate_trace",
            "summarize",
            "theta_spec",
            "FailureModel",
        ):
            assert hasattr(repro, name), f"README documents repro.{name}"

    def test_documented_config_knobs_exist(self):
        from repro.sim.config import SimConfig

        config = SimConfig(backfill_mode="conservative")
        assert config.backfill_mode == "conservative"
        from repro.workload.spec import theta_spec

        assert theta_spec(days=2, ondemand_noshow_frac=0.3).ondemand_noshow_frac == 0.3

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        # only the examples table rows: "| `script.py` | description |"
        scripts = re.findall(r"^\| `(\w+\.py)` \|", readme, re.MULTILINE)
        assert len(scripts) >= 3, "README lost its examples table"
        for script in scripts:
            assert (ROOT / "examples" / script).exists(), script

    def test_docs_files_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (ROOT / doc).stat().st_size > 1000


def cli_snippets(doc_text: str):
    """Every ``repro-hybrid …`` command inside the doc's bash blocks.

    Continuation backslashes are joined and trailing ``#`` comments
    stripped, so each yielded string is one complete command line.
    """
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", doc_text, re.DOTALL):
        block = block.replace("\\\n", " ")
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("repro-hybrid "):
                commands.append(line)
    return commands


class TestCliSnippetsParse:
    """Every documented CLI invocation must parse against the real
    argparse trees — docs and CLI cannot drift apart silently."""

    @pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md"])
    def test_doc_snippets_parse(self, doc, capsys):
        from repro.experiments.cli import (
            make_campaign_parser,
            make_obs_parser,
            make_parser,
            make_perf_parser,
        )

        snippets = cli_snippets((ROOT / doc).read_text())
        assert snippets, f"{doc} lost all its CLI snippets"
        for command in snippets:
            argv = shlex.split(command, comments=True)[1:]
            try:
                if argv and argv[0] == "campaign":
                    make_campaign_parser().parse_args(argv[1:])
                elif argv and argv[0] == "obs":
                    make_obs_parser().parse_args(argv[1:])
                elif argv and argv[0] == "perf":
                    make_perf_parser().parse_args(argv[1:])
                else:
                    make_parser().parse_args(argv)
            except SystemExit as exc:  # argparse rejected the snippet
                capsys.readouterr()  # keep usage noise out of the report
                raise AssertionError(
                    f"{doc} documents a command the CLI rejects "
                    f"(exit {exc.code}): {command}"
                ) from None

    def test_snippet_extractor_sees_continuations(self):
        text = "```bash\nrepro-hybrid campaign run \\\n    --dir d\n```"
        (snippet,) = cli_snippets(text)
        assert shlex.split(snippet) == [
            "repro-hybrid", "campaign", "run", "--dir", "d",
        ]


class TestDesignInventory:
    def test_every_inventory_module_importable(self):
        """DESIGN.md's system inventory names real modules."""
        import importlib

        for mod in (
            "repro.sim.engine",
            "repro.sim.cluster",
            "repro.sim.simulator",
            "repro.sim.failures",
            "repro.sched.easy",
            "repro.sched.conservative",
            "repro.core.mechanisms",
            "repro.core.reservation",
            "repro.core.preemption",
            "repro.core.shrink",
            "repro.core.coordinator",
            "repro.core.ledger",
            "repro.workload.theta",
            "repro.workload.swf",
            "repro.metrics.breakdown",
            "repro.experiments.figures",
        ):
            importlib.import_module(mod)

    def test_cli_entry_point_matches_pyproject(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert 'repro-hybrid = "repro.experiments.cli:main"' in pyproject
        from repro.experiments.cli import main

        assert callable(main)
