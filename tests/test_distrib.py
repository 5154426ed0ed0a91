"""Distributed campaign execution: leases, workers, merging, fleets.

The acceptance properties under test:

* concurrent workers never double-execute a cell (lease exclusivity plus
  the post-acquire completion re-check);
* a worker killed mid-cell strands nothing — its lease expires after the
  TTL and another worker reclaims the cell;
* ``merge_shards`` is idempotent under re-merge and deterministic under
  conflicting shards, with ok-beats-error healing;
* a fleet of local-subprocess workers produces a merged ``results.jsonl``
  cell-for-cell equal to a single-process ``run_campaign``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    CellRecord,
    LeaseBoard,
    LocalSubprocessBackend,
    ResultStore,
    SSHBackend,
    merge_shards,
    run_campaign,
    run_fleet,
    run_worker,
)
from repro.campaign.distrib.lease import Lease
from repro.campaign.distrib.worker import known_keys, shard_path
from repro.metrics.summary import deterministic_view
from repro.util.errors import ConfigurationError

#: 2 mechanisms x 2 seeds on a tiny machine — the same grid the campaign
#: tests use, so cells take a fraction of a second each
SMALL = {
    "name": "small",
    "days": 2,
    "target_load": 0.6,
    "system_size": 512,
    "mechanism": [None, "N&PAA"],
    "seeds": [1, 2],
}


def small_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL, **overrides})


def write_spec(directory) -> CampaignSpec:
    spec = small_spec()
    store = ResultStore(directory)
    store.write_spec(spec.to_dict())
    return spec


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestLeaseBoard:
    def test_acquire_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a", ttl_s=60)
        b = LeaseBoard(tmp_path, owner="b", ttl_s=60)
        assert a.acquire("cell1")
        assert not b.acquire("cell1")
        assert b.acquire("cell2")  # different cell is free

    def test_release_allows_reacquire(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        assert a.acquire("k")
        assert a.release("k")
        assert b.acquire("k")
        # a no longer holds it
        assert not a.release("k")
        assert not a.heartbeat("k")

    def test_expired_lease_is_reclaimed(self, tmp_path):
        clock = FakeClock()
        a = LeaseBoard(tmp_path, owner="a", ttl_s=10, clock=clock)
        b = LeaseBoard(tmp_path, owner="b", ttl_s=10, clock=clock)
        assert a.acquire("k")
        clock.advance(9)
        assert not b.acquire("k")  # still live
        clock.advance(2)  # heartbeat now 11s old > ttl
        assert b.acquire("k")
        # the evicted owner notices on its next heartbeat
        assert not a.heartbeat("k")

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        a = LeaseBoard(tmp_path, owner="a", ttl_s=10, clock=clock)
        b = LeaseBoard(tmp_path, owner="b", ttl_s=10, clock=clock)
        assert a.acquire("k")
        for _ in range(5):
            clock.advance(8)
            assert a.heartbeat("k")
            assert not b.acquire("k")

    def test_evict_does_not_steal_freshly_reacquired_lease(self, tmp_path):
        """Two contenders race to evict the same expired lease; the loser
        must not evict the winner's fresh lease (at-most-once while
        heartbeating)."""
        clock = FakeClock()
        a = LeaseBoard(tmp_path, owner="a", ttl_s=10, clock=clock)
        b = LeaseBoard(tmp_path, owner="b", ttl_s=10, clock=clock)
        dead = LeaseBoard(tmp_path, owner="dead", ttl_s=10, clock=clock)
        assert dead.acquire("k")
        clock.advance(11)
        # b observed the expired lease, then stalled; a evicts + acquires
        assert a.acquire("k")
        # b resumes its eviction attempt against a's now-live lease
        b._evict(b.path("k"))
        assert not b.acquire("k")
        assert a.heartbeat("k")  # a still owns the cell

    def test_corrupt_lease_is_reclaimed(self, tmp_path):
        b = LeaseBoard(tmp_path, owner="b", ttl_s=10)
        b.directory.mkdir(parents=True)
        (b.directory / "k.json").write_text("{torn", encoding="utf-8")
        assert b.acquire("k")

    def test_concurrent_acquire_single_winner(self, tmp_path):
        keys = [f"cell{i}" for i in range(20)]
        boards = [
            LeaseBoard(tmp_path, owner=f"w{i}", ttl_s=60) for i in range(8)
        ]

        def claim(board):
            return {key for key in keys if board.acquire(key)}

        with ThreadPoolExecutor(len(boards)) as pool:
            wins = list(pool.map(claim, boards))
        claimed = [key for w in wins for key in w]
        # every key claimed exactly once across all contenders
        assert sorted(claimed) == sorted(keys)

    def test_active_lists_leases(self, tmp_path):
        clock = FakeClock()
        a = LeaseBoard(tmp_path, owner="a", ttl_s=10, clock=clock)
        a.acquire("k1")
        a.acquire("k2")
        leases = a.active()
        assert [l.key for l in leases] == ["k1", "k2"]
        assert all(isinstance(l, Lease) for l in leases)

    def test_prune_completed_and_debris(self, tmp_path):
        clock = FakeClock()
        a = LeaseBoard(tmp_path, owner="a", ttl_s=10, clock=clock)
        a.acquire("done-cell")
        a.acquire("live-cell")
        old = a.directory / "k.json.evicted-dead"
        old.write_text("{torn")
        os.utime(old, (clock() - 600, clock() - 600))  # long-dead debris
        fresh = a.directory / "x.json.new-inflight"
        fresh.write_text("")  # a create staged right now
        os.utime(fresh, (clock() - 1, clock() - 1))
        assert a.prune(["done-cell"]) == 2
        assert [l.key for l in a.active()] == ["live-cell"]
        assert fresh.exists()  # in-flight temp survives pruning


class TestWorker:
    def test_requires_spec(self, tmp_path):
        with pytest.raises(ConfigurationError, match="campaign"):
            run_worker(tmp_path / "nowhere", shard="w0")

    def test_single_worker_completes_grid(self, tmp_path):
        d = tmp_path / "c"
        spec = write_spec(d)
        summary = run_worker(d, shard="w0", ttl_s=30, poll_s=0.05)
        assert summary.n_executed == 4 and summary.n_failed == 0
        assert len(known_keys(d)) == 4
        stats = merge_shards(d)
        assert stats.n_new == 4
        # merged results equal a fresh single-process run, cell for cell
        # (modulo wall-clock decision-latency measurements)
        solo = run_campaign(spec, directory=tmp_path / "solo")
        merged = ResultStore(d)
        for record in solo.records:
            assert deterministic_view(
                merged.get(record.key).summary
            ) == deterministic_view(record.summary)

    def test_worker_skips_cells_already_in_results(self, tmp_path):
        d = tmp_path / "c"
        spec = small_spec()
        run_campaign(spec, directory=d)
        summary = run_worker(d, shard="w0", poll_s=0.05)
        assert summary.n_executed == 0

    def test_two_concurrent_workers_never_double_execute(self, tmp_path):
        d = tmp_path / "c"
        write_spec(d)
        with ThreadPoolExecutor(2) as pool:
            futures = [
                pool.submit(
                    run_worker, d, shard=f"w{i}", ttl_s=30, poll_s=0.05
                )
                for i in range(2)
            ]
            summaries = [f.result(timeout=300) for f in futures]
        # each cell executed exactly once across the fleet
        assert sum(s.n_executed for s in summaries) == 4
        n_shard_records = sum(
            1
            for i in range(2)
            for _ in (shard_path(d, f"w{i}").read_text().splitlines())
            if _
        )
        assert n_shard_records == 4
        assert merge_shards(d).n_new == 4

    def test_idle_worker_leaves_an_empty_shard(self, tmp_path):
        """A worker creates its shard on start: one that finds every cell
        already claimed leaves an empty shard, which readers count as a
        shard with no records."""
        d = tmp_path / "c"
        write_spec(d)
        busy = run_worker(d, shard="w0", poll_s=0.05)
        assert busy.n_executed == 4
        idle = run_worker(d, shard="w1", poll_s=0.05)
        assert idle.n_executed == 0
        idle_shard = shard_path(d, "w1")
        assert idle_shard.exists()
        assert idle_shard.read_text() == ""
        assert len(known_keys(d)) == 4
        stats = merge_shards(d)
        assert stats.n_shards == 2
        assert stats.n_new == 4

    def test_stale_lease_reclaimed_and_grid_completes(self, tmp_path):
        """A lease left by a dead worker never strands its cell."""
        d = tmp_path / "c"
        spec = write_spec(d)
        key = spec.expand()[0].key()
        dead = LeaseBoard(d, owner="dead-worker", ttl_s=0.2)
        assert dead.acquire(key)
        # the worker waits out the dead lease's TTL, then reclaims
        summary = run_worker(d, shard="w0", ttl_s=0.2, poll_s=0.05)
        assert summary.n_executed == 4
        merge_shards(d)
        store = ResultStore(d)
        assert len(store) == 4 and not store.failed_keys()

    def test_max_cells_stops_early(self, tmp_path):
        d = tmp_path / "c"
        write_spec(d)
        summary = run_worker(d, shard="w0", max_cells=1, poll_s=0.05)
        assert summary.n_executed == 1
        assert len(known_keys(d)) == 1

    def test_no_wait_returns_when_all_leased(self, tmp_path):
        d = tmp_path / "c"
        spec = write_spec(d)
        other = LeaseBoard(d, owner="other", ttl_s=300)
        for cell in spec.expand():
            assert other.acquire(cell.key())
        summary = run_worker(d, shard="w0", wait=False, poll_s=0.05)
        assert summary.n_executed == 0


class TestMerge:
    def _record(self, key, status="ok", turnaround=1.0):
        return CellRecord(
            key=key,
            config={"seed": 1},
            status=status,
            payload={"turnaround": turnaround},
            error=None if status == "ok" else "boom",
        )

    def _shard(self, directory, name, records):
        store = ResultStore(directory, results_file=f"shards/{name}.jsonl")
        for record in records:
            store.put(record)

    def test_merge_then_remerge_is_noop(self, tmp_path):
        d = tmp_path / "c"
        self._shard(d, "a", [self._record("k1"), self._record("k2")])
        first = merge_shards(d)
        assert first.n_new == 2 and first.changed
        before = (d / "results.jsonl").read_bytes()
        # warm re-merge: the index remembers the shard offsets, so the
        # pass examines nothing at all
        second = merge_shards(d)
        assert not second.changed and second.n_shard_records == 0
        assert (d / "results.jsonl").read_bytes() == before
        # cold re-merge (fresh index): every record re-examined, all
        # deduped, file untouched
        from repro.campaign.progress import ProgressIndex

        cold = merge_shards(
            d, index=ProgressIndex(d, name="merge-cold")
        )
        assert not cold.changed and cold.n_duplicate == 2
        assert (d / "results.jsonl").read_bytes() == before

    def test_ok_beats_error_across_shards(self, tmp_path):
        d = tmp_path / "c"
        self._shard(d, "a", [self._record("k1", status="error")])
        self._shard(d, "b", [self._record("k1", status="ok")])
        stats = merge_shards(d)
        assert stats.n_new == 1 and stats.n_upgraded == 1
        assert ResultStore(d).get("k1").ok

    def test_ok_in_results_not_downgraded(self, tmp_path):
        d = tmp_path / "c"
        ResultStore(d).put(self._record("k1", status="ok"))
        self._shard(d, "a", [self._record("k1", status="error")])
        stats = merge_shards(d)
        assert stats.n_duplicate == 1 and not stats.changed
        assert ResultStore(d).get("k1").ok

    def test_conflicting_ok_shards_first_name_wins(self, tmp_path):
        d = tmp_path / "c"
        self._shard(d, "zz", [self._record("k1", turnaround=9.0)])
        self._shard(d, "aa", [self._record("k1", turnaround=3.0)])
        merge_shards(d)
        assert ResultStore(d).get("k1").payload["turnaround"] == 3.0

    def test_merge_prunes_leases_of_merged_cells(self, tmp_path):
        d = tmp_path / "c"
        self._shard(d, "a", [self._record("k1")])
        board = LeaseBoard(d, owner="w")
        board.acquire("k1")
        board.acquire("other")
        stats = merge_shards(d)
        assert stats.n_leases_pruned == 1
        assert [l.key for l in board.active()] == ["other"]

    def test_merge_empty_dir(self, tmp_path):
        stats = merge_shards(tmp_path / "nothing")
        assert stats.n_shards == 0 and not stats.changed


class TestBackends:
    def test_ssh_command_construction(self):
        backend = SSHBackend(
            ["node1"],
            python="python3.11",
            remote_dir="/shared/c",
            pythonpath="/opt/repro/src",
        )
        cmd = backend.command("node1", "s0", "/local/c", 60.0, 1.0)
        assert cmd[:4] == ["ssh", "-o", "BatchMode=yes", "node1"]
        remote = cmd[-1]
        assert "PYTHONPATH=/opt/repro/src" in remote
        assert "python3.11 -m repro.experiments.cli campaign worker" in remote
        assert "--dir /shared/c" in remote and "--shard s0" in remote

    def test_ssh_backend_requires_hosts(self):
        with pytest.raises(ConfigurationError):
            SSHBackend([])

    def test_local_backend_requires_workers(self):
        with pytest.raises(ConfigurationError):
            LocalSubprocessBackend(workers=0)

    def test_fleet_e2e_two_local_workers_match_single_process(
        self, tmp_path
    ):
        """The headline acceptance test: a 2-worker local-subprocess
        fleet produces results.jsonl cell-for-cell equal to a plain
        single-process run, and the merge is idempotent."""
        spec = small_spec()
        fleet = run_fleet(
            spec,
            directory=tmp_path / "fleet",
            backend=LocalSubprocessBackend(workers=2),
            ttl_s=30,
            poll_s=0.1,
        )
        assert fleet.ok, fleet.exit_codes
        assert fleet.run.n_failed == 0
        assert fleet.merge.n_new == 4
        solo = run_campaign(spec, directory=tmp_path / "solo")
        merged = {
            r.key: deterministic_view(r.summary) for r in fleet.run.records
        }
        for record in solo.records:
            assert merged[record.key] == deterministic_view(record.summary)
        assert len(merged) == len(solo.records) == 4
        # re-merge is a no-op
        again = merge_shards(tmp_path / "fleet")
        assert not again.changed

    def test_fleet_reuses_cached_cells(self, tmp_path):
        d = tmp_path / "c"
        spec = small_spec()
        run_campaign(spec, directory=d)
        fleet = run_fleet(
            spec,
            directory=d,
            backend=LocalSubprocessBackend(workers=2),
            ttl_s=30,
            poll_s=0.1,
        )
        assert fleet.ok
        assert fleet.run.n_cached == 4
        assert fleet.merge.n_new == 0


class TestKilledWorkerRecovery:
    def test_sigkilled_worker_leaves_no_stranded_cells(self, tmp_path):
        """Kill a worker subprocess, then finish the grid with a second
        worker: every cell present exactly once after merge."""
        d = tmp_path / "c"
        write_spec(d)
        backend = LocalSubprocessBackend(workers=1)
        (handle,) = backend.launch(str(d), ttl_s=1.0, poll_s=0.1)
        try:
            deadline = time.time() + 60
            leases = Path(d) / "leases"
            # wait until it is actually working a cell, then kill -9
            while time.time() < deadline:
                if leases.exists() and list(leases.glob("*.json")):
                    break
                if handle.proc.poll() is not None:
                    break  # finished before we could kill: still fine
                time.sleep(0.02)
            if handle.proc.poll() is None:
                os.kill(handle.proc.pid, signal.SIGKILL)
        finally:
            handle.proc.wait()
        # a second worker must complete the remainder, waiting out any
        # stranded lease (ttl 1s)
        summary = run_worker(d, shard="rescue", ttl_s=1.0, poll_s=0.1)
        merge_shards(d)
        store = ResultStore(d)
        assert len(store) == 4
        assert not store.failed_keys()
        # exactly-once in the merged store: 4 unique keys, and the merged
        # file holds exactly one line per key
        lines = (d / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_mid_cell_death_simulated_by_stale_lease(self, tmp_path):
        """The deterministic version: a lease whose owner never returns
        is reclaimed after TTL and the cell re-runs elsewhere."""
        d = tmp_path / "c"
        spec = write_spec(d)
        victim = spec.expand()[2].key()
        dead = LeaseBoard(d, owner="dead", ttl_s=0.3)
        assert dead.acquire(victim)
        start = time.time()
        summary = run_worker(d, shard="w0", ttl_s=0.3, poll_s=0.05)
        assert summary.n_executed == 4
        # it had to wait for the stale lease to expire, not skip the cell
        assert time.time() - start >= 0.3


class TestWorkerCli:
    def test_worker_and_merge_cli(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        d = str(tmp_path / "c")
        write_spec(d)
        assert (
            cli_main(
                [
                    "campaign", "worker", "--dir", d, "--shard", "w0",
                    "--ttl", "30", "--poll", "0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cells executed" in out
        assert cli_main(["campaign", "merge", "--dir", d]) == 0
        assert "4 new" in capsys.readouterr().out
        assert cli_main(["campaign", "status", "--dir", d]) == 0
        assert "4/4 cells done" in capsys.readouterr().out

    def test_worker_exits_nonzero_on_failed_cells(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        d = tmp_path / "c"
        bad = small_spec(spec_overrides={"min_size": 100_000})
        ResultStore(d).write_spec(bad.to_dict())
        code = cli_main(
            [
                "campaign", "worker", "--dir", str(d), "--shard", "w0",
                "--poll", "0.05",
            ]
        )
        assert code == 1
        assert "4 failed" in capsys.readouterr().out

    def test_status_shows_unmerged_shards_and_leases(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        d = str(tmp_path / "c")
        spec = write_spec(d)
        run_worker(d, shard="w0", poll_s=0.05)
        LeaseBoard(d, owner="w1", ttl_s=600).acquire("deadbeef")
        assert cli_main(["campaign", "status", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "shard w0: 4 records" in out
        assert "lease deadbeef" in out and "live" in out
