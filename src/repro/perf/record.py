"""The perf-record schema: one measurement of one scenario.

A :class:`PerfRecord` is the unit the observatory stores, compares,
and charts.  Identity is three-part:

* **scenario hash** — SHA-256 over the canonical JSON of
  ``(scenario name, params)``, so two records are comparable iff they
  measured the same workload with the same knobs; renaming a knob or
  changing a default silently *stops* comparisons instead of producing
  apples-to-oranges verdicts;
* **git SHA** — which code produced the number (the x axis of every
  trend chart);
* **machine fingerprint** — CPU count, python version, platform.
  Wall-clock numbers from different machines are not comparable; the
  regression engine skips (with a warning) rather than judge across
  fingerprints.

Metric values are floats.  JSON is written with ``allow_nan=False``
everywhere in this repo, so non-finite values are encoded as the
strings ``"nan"`` / ``"inf"`` / ``"-inf"`` on disk and decoded back to
floats on load — a crashed measurement must be *storable* (the trend
should show the gap) without poisoning the file for strict parsers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Mapping, Optional

SCHEMA_VERSION = 1


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=str,
    )


def scenario_hash(scenario: str, params: Mapping[str, Any]) -> str:
    """Content address of (scenario, params): 12 hex chars of SHA-256."""
    payload = canonical_json({"scenario": scenario, "params": dict(params)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def machine_fingerprint() -> Dict[str, Any]:
    """What makes wall-clock numbers (in)comparable across hosts."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": "%d.%d" % sys.version_info[:2],
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def current_git_sha(repo_dir: Optional[str] = None) -> str:
    """Short SHA of HEAD, suffixed ``-dirty`` when tracked files differ
    from it (the measured code is then not HEAD's), or "unknown" outside
    a git checkout."""

    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args],
                cwd=repo_dir,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "--short", "HEAD")
    if not sha:
        return "unknown"
    if git("status", "--porcelain", "--untracked-files=no"):
        return f"{sha}-dirty"
    return sha


def _encode_float(value: float) -> Any:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_float(value: Any) -> float:
    if isinstance(value, str):
        try:
            return float(value)  # "nan"/"inf"/"-inf" parse directly
        except ValueError:
            return float("nan")
    return float(value)


def encode_metrics(metrics: Mapping[str, float]) -> Dict[str, Any]:
    return {k: _encode_float(float(v)) for k, v in metrics.items()}


def decode_metrics(metrics: Mapping[str, Any]) -> Dict[str, float]:
    return {k: _decode_float(v) for k, v in metrics.items()}


@dataclasses.dataclass
class PerfRecord:
    """One measurement of one scenario on one commit and machine."""

    scenario: str
    params: Dict[str, Any]
    metrics: Dict[str, float]
    scenario_hash: str = ""
    git_sha: str = "unknown"
    machine: Dict[str, Any] = dataclasses.field(
        default_factory=machine_fingerprint
    )
    recorded_unix: float = 0.0
    #: optional obs registry snapshot from the measured run
    obs: Optional[Dict[str, Any]] = None
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.scenario_hash:
            self.scenario_hash = scenario_hash(self.scenario, self.params)

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "schema": self.schema,
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "params": dict(self.params),
            "git_sha": self.git_sha,
            "machine": dict(self.machine),
            "recorded_unix": self.recorded_unix,
            "metrics": encode_metrics(self.metrics),
        }
        if self.obs is not None:
            doc["obs"] = self.obs
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "PerfRecord":
        return cls(
            scenario=str(doc.get("scenario", "?")),
            params=dict(doc.get("params", {})),
            metrics=decode_metrics(doc.get("metrics", {})),
            scenario_hash=str(doc.get("scenario_hash", "")),
            git_sha=str(doc.get("git_sha", "unknown")),
            machine=dict(doc.get("machine", {})),
            recorded_unix=float(doc.get("recorded_unix", 0.0)),
            obs=doc.get("obs"),
            schema=int(doc.get("schema", SCHEMA_VERSION)),
        )

    def same_machine(self, other: "PerfRecord") -> bool:
        return self.machine == other.machine
