"""Structured scheduler decision log (opt-in).

Production schedulers keep an auditable event log; so does this
simulator when ``SimConfig(log_decisions=True)``.  Every job lifecycle
decision — submit, advance notice, start, finish, preemption (with
reason), node failure, shrink, expand — is appended as a
:class:`LogEntry`.  The log is the raw material for the Gantt-style
analyses in `repro.metrics.breakdown` and for debugging mechanism
behaviour on a specific trace ("why was job 17 preempted at 09:12?").

The log costs one dataclass append per decision; it is off by default so
large campaign grids pay nothing.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.util.timeconst import format_duration


class LogKind(enum.Enum):
    SUBMIT = "submit"
    NOTICE = "notice"
    START = "start"
    FINISH = "finish"
    PREEMPT = "preempt"
    FAILURE = "failure"
    SHRINK = "shrink"
    EXPAND = "expand"


@dataclass(frozen=True)
class LogEntry:
    """One scheduler decision."""

    time: float
    kind: LogKind
    job_id: int
    nodes: int = 0
    detail: str = ""

    def render(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        nodes = f" n={self.nodes}" if self.nodes else ""
        return (
            f"[{format_duration(self.time):>8}] "
            f"{self.kind.value:<20} job={self.job_id}{nodes}{extra}"
        )

    def to_json_line(self) -> str:
        """One JSONL record (no trailing newline), key-sorted for
        byte-stable output on identical logs."""
        return json.dumps(
            {
                "time": self.time,
                "kind": self.kind.value,
                "job_id": self.job_id,
                "nodes": self.nodes,
                "detail": self.detail,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "LogEntry":
        data = json.loads(line)
        return cls(
            time=float(data["time"]),
            kind=LogKind(data["kind"]),
            job_id=int(data["job_id"]),
            nodes=int(data.get("nodes", 0)),
            detail=str(data.get("detail", "")),
        )


def iter_from_file(path: os.PathLike) -> Iterator[LogEntry]:
    """Stream :class:`LogEntry` records back out of a JSONL file.

    The inverse of :meth:`SchedulerLog.write_jsonl`; feeds the trace
    exporter (``repro-hybrid obs from-decisions``) and any offline
    analysis without loading the whole log into memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield LogEntry.from_json_line(line)


class SchedulerLog:
    """Append-only decision log with simple query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.entries: List[LogEntry] = []

    def add(
        self,
        time: float,
        kind: LogKind,
        job_id: int,
        nodes: int = 0,
        detail: str = "",
    ) -> None:
        if not self.enabled:
            return
        self.entries.append(
            LogEntry(time=time, kind=kind, job_id=job_id, nodes=nodes, detail=detail)
        )

    def __len__(self) -> int:
        return len(self.entries)

    def for_job(self, job_id: int) -> List[LogEntry]:
        """Full decision history of one job, in time order."""
        return [e for e in self.entries if e.job_id == job_id]

    def of_kind(self, kind: LogKind) -> List[LogEntry]:
        return [e for e in self.entries if e.kind is kind]

    def between(self, start: float, end: float) -> Iterator[LogEntry]:
        return (e for e in self.entries if start <= e.time <= end)

    def render(self, job_id: Optional[int] = None, limit: int = 200) -> str:
        """Human-readable transcript (optionally one job's)."""
        entries = self.for_job(job_id) if job_id is not None else self.entries
        lines = [e.render() for e in entries[:limit]]
        if len(entries) > limit:
            lines.append(f"... ({len(entries) - limit} more entries)")
        return "\n".join(lines)

    def write_jsonl(self, path: os.PathLike) -> int:
        """Write the whole log as JSONL; returns the entry count."""
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(e.to_json_line())
                fh.write("\n")
        return len(self.entries)
