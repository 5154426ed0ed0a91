"""The distributed campaign worker: claim → execute → append → release.

A worker is pointed at a campaign directory that already holds
``campaign.json`` (the fleet launcher — or a plain ``campaign run`` —
writes it).  It expands the spec exactly like the in-process executor,
then loops:

1. refresh the shared :class:`~repro.campaign.progress.ProgressIndex`
   — an O(appended-bytes) scan of ``results.jsonl`` plus every
   ``shards/*.jsonl`` — for cells that already have a record anywhere
   (merged or not);
2. for each missing cell, in deterministic expansion order, try to
   acquire its lease; on success re-check completion (a cell finished
   and released by another worker between our scan and the acquire must
   not re-run), then execute it with a background heartbeat thread and
   append the record to this worker's private shard;
3. when nothing is claimable: if the grid is complete, exit; otherwise
   some cells are leased by other workers — sleep and rescan, so a
   worker that died mid-cell is covered once its lease expires.

Before the loop the worker creates its shard file, so every worker
that ran leaves a shard — an empty one if other workers executed every
cell.  Readers (``merge_shards``, ``known_keys``) treat an empty shard
as a shard with no records.

The happens-before chain that prevents double execution: a finishing
worker flushes its shard append *before* releasing the lease, and a
successful acquire happens *after* that release — so the post-acquire
completion scan always sees the record.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Set, Tuple

from repro.campaign.distrib.lease import LeaseBoard
from repro.campaign.progress import ProgressIndex
from repro.obs import get_obs
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    SHARDS_DIR,
    SPEC_FILE,
    ResultStore,
)
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class WorkerSummary:
    """What one :func:`run_worker` invocation did."""

    shard: str
    owner: str
    n_executed: int
    n_failed: int
    n_passes: int
    elapsed_s: float


def shard_path(directory: Path, shard: str) -> Path:
    return Path(directory) / SHARDS_DIR / f"{shard}.jsonl"


def known_keys(
    directory: Path, index: Optional[ProgressIndex] = None
) -> Set[str]:
    """Keys with a record anywhere: merged results or any shard.

    Error records count — failures are remembered, not retried, exactly
    like the in-process executor; ``--retry-failed`` is the explicit
    path back.  Scans go through the shared progress index, so a warm
    call costs O(bytes appended since the last one); pass a held
    *index* to reuse in-memory state instead of reloading the
    persisted file.
    """
    if index is None:
        index = ProgressIndex(Path(directory))
    index.refresh()
    return index.keys()


def load_spec(directory: Path) -> CampaignSpec:
    path = Path(directory) / SPEC_FILE
    if not path.exists():
        raise ConfigurationError(
            f"{path} not found — a worker needs a campaign directory with "
            "a written spec ('campaign fleet', or 'campaign run' first)"
        )
    return CampaignSpec.from_dict(json.loads(path.read_text("utf-8")))


def run_worker(
    directory: str,
    shard: str,
    ttl_s: float = 60.0,
    poll_s: float = 1.0,
    owner: Optional[str] = None,
    max_cells: Optional[int] = None,
    wait: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    clock: Callable[[], float] = time.time,
    claim_batch: int = 1,
) -> WorkerSummary:
    """Work a campaign directory until the grid is complete.

    Parameters
    ----------
    shard:
        Name of this worker's private result file,
        ``shards/<shard>.jsonl``.  Two concurrent workers must not share
        a shard name (appends would interleave); the fleet launcher
        numbers them.
    ttl_s / poll_s:
        Lease time-to-live, and the rescan interval while all missing
        cells are leased by other (possibly dead) workers.  Leases are
        heartbeaten every ``ttl_s / 4`` so a live worker can miss two
        beats before anyone may evict it.
    max_cells:
        Execute at most this many cells, then return (spot-instance
        friendly: drain a few cells per billing slot).
    wait:
        ``False`` returns as soon as nothing is claimable instead of
        waiting for other workers' leases to resolve.
    claim_batch:
        Leases acquired per claim round (``--claim-batch``).  1 (the
        default) preserves the classic claim-one/run-one loop; larger
        values amortize the lease-board and completion-scan traffic
        over several cells — one heartbeat thread covers the whole
        group, and each cell is still appended to the shard and
        released individually the moment it finishes, so the
        at-most-once happens-before chain (append *before* release,
        re-check *after* acquire) is unchanged.
    """
    say = progress or (lambda _msg: None)
    start = time.perf_counter()
    directory_p = Path(directory)
    spec = load_spec(directory_p)
    cells = {}
    for cell in spec.expand():
        cells.setdefault(cell.key(), cell)
    # local import: executor imports this package's sibling for fleet
    # routing, so the heavy import stays off the lease/merge path
    from repro.campaign.executor import execute_cell

    shard_store = ResultStore(
        directory_p, results_file=f"{SHARDS_DIR}/{shard}.jsonl"
    )
    # the shard exists from the start: a worker that never executes a
    # cell (another took them all) still leaves its shard, empty, and
    # merge_shards/known_keys read an empty shard as no records
    own_shard = shard_path(directory_p, shard)
    own_shard.parent.mkdir(parents=True, exist_ok=True)
    own_shard.touch(exist_ok=True)
    # all workers (and the fleet launcher, merge, and status) share one
    # persisted index, so every completion scan anywhere in the fleet
    # reads only bytes nobody has indexed yet
    index = ProgressIndex(directory_p)
    board = LeaseBoard(directory_p, owner=owner, ttl_s=ttl_s, clock=clock)
    hb_interval = max(ttl_s / 4.0, 0.05)
    obs = get_obs()
    c_evictions = obs.counter("distrib.lease.evictions")

    n_executed = n_failed = n_passes = 0
    say(
        f"worker {board.owner} shard={shard}: "
        f"{len(cells)} cells in campaign {spec.name!r}"
    )
    while True:
        n_passes += 1
        done = known_keys(directory_p, index)
        pending = [(k, c) for k, c in cells.items() if k not in done]
        if not pending:
            break
        claimed_this_pass = 0
        it = iter(pending)
        exhausted = False
        while not exhausted:
            if max_cells is not None and n_executed >= max_cells:
                index.save()  # autosaves are throttled; exit fresh
                return WorkerSummary(
                    shard=shard,
                    owner=board.owner,
                    n_executed=n_executed,
                    n_failed=n_failed,
                    n_passes=n_passes,
                    elapsed_s=time.perf_counter() - start,
                )
            # Claim up to claim_batch leases before running any cell,
            # amortizing lease-board traffic over the group.
            budget = max(1, claim_batch)
            if max_cells is not None:
                budget = min(budget, max_cells - n_executed)
            group: List[Tuple[str, object]] = []
            for key, cell in it:
                if not board.acquire(key):
                    continue
                group.append((key, cell))
                if len(group) >= budget:
                    break
            else:
                exhausted = True
            if not group:
                break
            # One completion re-check covers the group.  It runs after
            # every acquire above, so the happens-before chain is the
            # same as the claim-one loop's: a cell finished elsewhere
            # flushed its record before releasing, and our acquire
            # happened after that release — the scan must see it.
            done_now = known_keys(directory_p, index)
            runnable = []
            for key, cell in group:
                if key in done_now:
                    # finished-and-released elsewhere after our pass began
                    board.release(key)
                else:
                    runnable.append((key, cell))
            if not runnable:
                continue
            claimed_this_pass += len(runnable)
            # one heartbeat thread covers every lease the group holds
            held = {k for k, _ in runnable}
            held_lock = threading.Lock()
            stop = threading.Event()
            beater = threading.Thread(
                target=_heartbeat_loop,
                args=(board, held, held_lock, stop, hb_interval, say),
                daemon=True,
            )
            beater.start()
            try:
                for key, cell in runnable:
                    record = None
                    try:
                        with obs.span("distrib.cell", key=key, shard=shard):
                            record = execute_cell(cell.config())
                        with obs.span("distrib.shard.append", key=key):
                            shard_store.put(record)
                    finally:
                        # The record append and the release both live in
                        # this finally: a worker that raises mid-cell
                        # (disk full on the shard append, a pathological
                        # config) must still drop its lease, or the cell
                        # stays locked for a full TTL and every peer
                        # stalls on it.  The happens-before contract
                        # holds per cell: the put above (when reached)
                        # precedes the release, and later cells' leases
                        # stay held (and heartbeaten) until their turn.
                        with held_lock:
                            held.discard(key)
                        if not board.release(key):
                            # the lease was evicted out from under us
                            # mid-cell (heartbeat stall past the TTL)
                            c_evictions.inc()
                    n_executed += 1
                    if not record.ok:
                        n_failed += 1
                    tag = "ok" if record.ok else "FAILED"
                    say(
                        f"  [{tag}] {key} shard={shard} "
                        f"({record.elapsed_s:.2f}s)"
                    )
            finally:
                stop.set()
                beater.join()
                # reached with leases still held only if a cell raised:
                # drop the rest of the group so peers can claim it
                with held_lock:
                    leftovers = sorted(held)
                    held.clear()
                for key in leftovers:
                    if not board.release(key):
                        c_evictions.inc()
        if claimed_this_pass == 0:
            if not wait:
                break
            # everything missing is leased out; a dead owner's lease
            # expires after ttl_s, so keep rescanning
            time.sleep(poll_s)
    index.save()  # autosaves are throttled; leave the index fresh
    return WorkerSummary(
        shard=shard,
        owner=board.owner,
        n_executed=n_executed,
        n_failed=n_failed,
        n_passes=n_passes,
        elapsed_s=time.perf_counter() - start,
    )


def _heartbeat_loop(
    board: LeaseBoard,
    held: Set[str],
    held_lock: threading.Lock,
    stop: threading.Event,
    interval_s: float,
    say: Callable[[str], None],
) -> None:
    """Beat every lease the worker currently holds (*held* shrinks as
    the claim group drains; the set is shared with the claim loop under
    *held_lock*)."""
    while not stop.wait(interval_s):
        with held_lock:
            keys = sorted(held)
        for key in keys:
            if not board.heartbeat(key):
                # lease lost (we stalled past the TTL and were evicted);
                # keep computing — the record is valid and merge dedupes
                say(f"  lease lost for {key}; finishing cell anyway")
                with held_lock:
                    held.discard(key)
