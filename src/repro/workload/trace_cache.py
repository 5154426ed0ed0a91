"""Process-wide content-addressed cache of parsed workload traces.

Campaign grids re-read the same inputs for cell after cell: every cell
of an SWF campaign re-parsed the log, and every mechanism/backfill/
checkpoint variant of a synthetic cell re-ran the full generator
pipeline for the identical ``(spec, seed)`` trace.  This cache makes
both a once-per-worker-process cost:

* :meth:`TraceCache.swf_jobs` — the parsed rigid job tuple of an SWF
  log, keyed by ``(path, size, mtime_ns, options-hash)``.  The stat
  signature is re-checked on every lookup, so touching or rewriting
  the log invalidates the entry immediately — no TTLs, no staleness.
* :meth:`TraceCache.swf_sha256` — the sha256 of an SWF log's bytes,
  under the same stat check: campaign cell keys name the log by its
  content, so one file is hashed once per process until it changes.
* :meth:`TraceCache.theta_rows` — the synthetic generator's submit-
  sorted intermediate rows, keyed by ``(workload-spec-hash, seed)``.
  Rows are pure data derived from the key, so entries never go stale;
  an LRU bound keeps the worker's footprint at a handful of traces.

Cached values are **shared and read-only**: consumers build fresh
:class:`~repro.jobs.job.Job` objects from them (``retype_jobs`` for SWF,
:func:`~repro.workload.theta.stream_jobs_from_rows` for rows) and must
never mutate the cached jobs or row dicts — the next cell sees them.

Instrumentation (:mod:`repro.obs`): ``workload.trace_cache.hits`` /
``.misses`` / ``.evictions`` counters, and a
``workload.trace_cache.parse`` span around each actual parse/generate,
so ``campaign report --trace`` timelines show exactly how the parse
cost amortizes across a worker's cells.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

from repro.jobs.job import Job
from repro.obs import get_obs
from repro.util.errors import ConfigurationError
from repro.workload.spec import WorkloadSpec

#: default LRU bound per cache family — a worker process rarely cycles
#: through more than a few distinct traces, and month-scale row lists
#: are small, but an unbounded cache would grow with the seed axis
DEFAULT_MAX_ENTRIES = 8


def _options_hash(options: Mapping[str, object]) -> str:
    """Stable digest of a JSON-shaped options mapping."""
    import json

    blob = json.dumps(dict(options), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=512)
def spec_hash(spec: WorkloadSpec) -> str:
    """Stable digest of a workload spec (the rows-cache key half).

    Memoized: specs are frozen dataclasses, and the json+sha digest is
    otherwise paid on every cache lookup of every cell — a measurable
    slice of a short cell's wall time.
    """
    import json

    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TraceCache:
    """LRU cache of parsed SWF traces and generated synthetic rows.

    Thread-safe (one lock; parses run outside it are not deduplicated
    across racing threads — both threads parse, last insert wins, which
    is correct if wasteful and cannot happen in the one-thread-per-
    process campaign workers).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: abspath -> (stat+options signature, parsed rigid jobs)
        self._swf: "OrderedDict[str, Tuple[Tuple, Tuple[Job, ...]]]" = (
            OrderedDict()
        )
        #: abspath -> ((size, mtime_ns), sha256 of the bytes); unbounded:
        #: one short entry per log, and cell keys hash each log cell by cell
        self._digests: Dict[str, Tuple[Tuple[int, int], str]] = {}
        #: (spec hash, seed) -> generator rows
        self._rows: "OrderedDict[Tuple[str, int], List[dict]]" = OrderedDict()

    # ------------------------------------------------------------------
    def _swf_signature(
        self, path: str, options: Mapping[str, object]
    ) -> Tuple:
        st = os.stat(path)
        return (st.st_size, st.st_mtime_ns, _options_hash(options))

    def swf_jobs(
        self, path: str, options: Optional[Mapping[str, object]] = None
    ) -> Tuple[Job, ...]:
        """The parsed rigid jobs of an SWF log, cached per process.

        The returned tuple is shared across callers: treat the jobs as
        frozen — layer per-cell typing on with
        :func:`~repro.workload.swf.retype_jobs` /
        :func:`~repro.workload.swf.retype_stream`, never simulate them
        directly (simulations mutate job state in place).
        """
        options = options or {}
        obs = get_obs()
        abspath = os.path.abspath(path)
        sig = self._swf_signature(abspath, options)
        with self._lock:
            entry = self._swf.get(abspath)
            if entry is not None and entry[0] == sig:
                self._swf.move_to_end(abspath)
                obs.counter("workload.trace_cache.hits").inc()
                return entry[1]
        obs.counter("workload.trace_cache.misses").inc()
        from repro.workload.swf import load_swf

        with obs.span(
            "workload.trace_cache.parse", kind="swf", path=path
        ):
            jobs = tuple(load_swf(abspath, **dict(options)))
        with self._lock:
            if abspath in self._swf:
                del self._swf[abspath]
            self._swf[abspath] = (sig, jobs)
            self._evict(self._swf)
        return jobs

    def swf_sha256(self, path: str) -> str:
        """The sha256 of the log's bytes, hashed again only when its
        ``(size, mtime_ns)`` changes; an unreadable log raises
        :class:`~repro.util.errors.ConfigurationError` naming it."""
        abspath = os.path.abspath(path)
        try:
            st = os.stat(abspath)
            entry = self._digests.get(abspath)
            if entry is None or entry[0] != (st.st_size, st.st_mtime_ns):
                sha = hashlib.sha256()
                with open(abspath, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        sha.update(chunk)
                entry = ((st.st_size, st.st_mtime_ns), sha.hexdigest())
                self._digests[abspath] = entry
        except OSError as exc:
            raise ConfigurationError(
                f"trace_file {path!r} cannot be read: {exc.strerror}"
            ) from None
        return entry[1]

    def theta_rows(self, spec: WorkloadSpec, seed: int) -> List[dict]:
        """The synthetic generator's rows for ``(spec, seed)``, cached.

        Rows are the submit-sorted lightweight dicts the generator
        materialises Jobs from; every mechanism/backfill/checkpoint
        variant of a cell shares one generation.  Treat them as
        read-only — build jobs with
        :func:`~repro.workload.theta.stream_jobs_from_rows`.
        """
        key = (spec_hash(spec), int(seed))
        obs = get_obs()
        with self._lock:
            rows = self._rows.get(key)
            if rows is not None:
                self._rows.move_to_end(key)
                obs.counter("workload.trace_cache.hits").inc()
                return rows
        obs.counter("workload.trace_cache.misses").inc()
        from repro.workload.theta import ThetaWorkloadGenerator

        with obs.span(
            "workload.trace_cache.parse", kind="theta", seed=seed
        ):
            rows = ThetaWorkloadGenerator(spec, seed=seed).build_rows()
        with self._lock:
            self._rows[key] = rows
            self._evict(self._rows)
        return rows

    def _evict(self, table: OrderedDict) -> None:
        while len(table) > self.max_entries:
            table.popitem(last=False)
            get_obs().counter("workload.trace_cache.evictions").inc()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "swf_entries": len(self._swf),
                "row_entries": len(self._rows),
            }

    def clear(self) -> None:
        with self._lock:
            self._swf.clear()
            self._digests.clear()
            self._rows.clear()


#: the process-wide singleton every campaign worker shares
_TRACE_CACHE: Optional[TraceCache] = None
_TRACE_CACHE_LOCK = threading.Lock()


def get_trace_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` (created on first use).

    Counters and spans resolve against the active obs bundle at each
    call, so the cache works identically under the disabled default,
    ``--trace`` runs, and the traced pool's per-cell bundles.
    """
    global _TRACE_CACHE
    with _TRACE_CACHE_LOCK:
        if _TRACE_CACHE is None:
            _TRACE_CACHE = TraceCache()
        return _TRACE_CACHE


def reset_trace_cache() -> None:
    """Drop the singleton (tests; obs-bundle swaps)."""
    global _TRACE_CACHE
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE = None
