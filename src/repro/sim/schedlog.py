"""Structured scheduler decision log (opt-in), streamed as JSONL.

Production schedulers keep an auditable event log; so does this
simulator when it is given a text sink
(``Simulation(jobs, config, mechanism, decision_log=sink)``).  Every
job lifecycle decision — submit, advance notice, start, finish,
preemption (with reason), node failure, shrink, expand — is written to
the sink as one :class:`LogEntry` JSON line at the moment it is made,
so the log costs no memory in the simulator and nothing at all when no
sink is given.  ``repro-hybrid campaign run --log-decisions DIR`` writes
one file per cell; :func:`iter_from_file` reads one back for the trace
exporter or for debugging mechanism behaviour on a specific trace ("why
was job 17 preempted at 09:12?").
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from typing import Iterator


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

    The inverse of the simulator's decision-log writes; feeds the trace
    exporter (``repro-hybrid obs from-decisions``) and any offline
    analysis without loading the whole log into memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield LogEntry.from_json_line(line)
