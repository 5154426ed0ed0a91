"""Smoke test: every script in the README's examples table runs clean.

Each script runs as a subprocess from a temporary working directory at
a tiny scale, so an API change that breaks an example fails here.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent

#: tiny-scale arguments per example; ``{tmp}`` is the temp directory
EXAMPLE_ARGS = {
    "quickstart.py": ["--days", "2"],
    "urgent_analytics.py": [],
    "malleable_incentive.py": ["--days", "2", "--seeds", "0"],
    "checkpoint_tuning.py": ["--days", "2", "--traces", "1"],
    "real_trace_swf.py": ["--max-jobs", "300"],
    "campaign_report.py": ["--dir", "{tmp}/report", "--days", "1"],
}


def test_every_readme_example_has_a_smoke_case():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Examples", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([\w.]+\.py)` \|", section, re.M))
    assert listed == set(EXAMPLE_ARGS)


@pytest.mark.parametrize("script", sorted(EXAMPLE_ARGS))
def test_example_runs(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in EXAMPLE_ARGS[script]]
    # TMPDIR: scripts that write temp files leave them in tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    # a generated demo log is removed when the script ends
    assert not list(tmp_path.rglob("*.swf"))
