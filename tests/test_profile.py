"""Unit tests for the incremental availability layer (sched/profile)."""

import math

import pytest

from repro.sched.profile import (
    EPS,
    AvailabilityProfile,
    AvailabilityTimeline,
    ProfileView,
)
from repro.util.errors import InvariantViolation
from repro.util.rng import RngStreams


class TestAvailabilityTimeline:
    def test_releases_sorted_by_time_then_nodes(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 500.0, 30)
        tl.set_block(2, 100.0, 10)
        tl.set_block(3, 500.0, 5)
        assert list(tl.releases()) == [(100.0, 10), (500.0, 5), (500.0, 30)]

    def test_set_block_moves_an_existing_block(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 500.0, 30)
        tl.set_block(1, 900.0, 20)  # resize + new predicted finish
        assert list(tl.releases()) == [(900.0, 20)]
        assert len(tl) == 1

    def test_remove_block(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 500.0, 30)
        tl.set_block(2, 700.0, 10)
        tl.remove_block(1)
        assert list(tl.releases()) == [(700.0, 10)]

    def test_remove_unknown_block_raises(self):
        tl = AvailabilityTimeline()
        with pytest.raises(InvariantViolation):
            tl.remove_block(42)

    def test_equal_blocks_from_different_jobs_coexist(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 500.0, 30)
        tl.set_block(2, 500.0, 30)
        assert list(tl.releases()) == [(500.0, 30), (500.0, 30)]
        tl.remove_block(1)
        assert list(tl.releases()) == [(500.0, 30)]

    def test_validate_against_detects_drift(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 500.0, 30)
        tl.validate_against({1: (500.0, 30)})
        with pytest.raises(InvariantViolation, match="drifted"):
            tl.validate_against({1: (500.0, 31)})
        with pytest.raises(InvariantViolation, match="missing"):
            tl.validate_against({1: (500.0, 30), 2: (9.0, 1)})
        with pytest.raises(InvariantViolation, match="stale"):
            tl.validate_against({})

    def test_random_op_sequence_matches_rebuild(self):
        """Incremental upkeep == from-scratch sort, for any op sequence."""
        rng = RngStreams(123).get("profile-fuzz")
        tl = AvailabilityTimeline()
        shadow = {}
        for _ in range(500):
            op = rng.choice(["set", "move", "remove"])
            if op == "remove" and shadow:
                key = int(rng.choice(sorted(shadow)))
                del shadow[key]
                tl.remove_block(key)
            elif op == "move" and shadow:
                key = int(rng.choice(sorted(shadow)))
                block = (float(rng.uniform(0, 1e4)), int(rng.integers(1, 64)))
                shadow[key] = block
                tl.set_block(key, *block)
            else:
                key = int(rng.integers(0, 40))
                block = (float(rng.uniform(0, 1e4)), int(rng.integers(1, 64)))
                shadow[key] = block
                tl.set_block(key, *block)
            expected = sorted(
                (t, n, k) for k, (t, n) in shadow.items()
            )
            assert [(t, n) for t, n, _ in expected] == list(tl.releases())
            tl.validate_against(shadow)


class TestProfileView:
    def test_shadow_matches_brute_force(self):
        """Every view agrees with the brute force, including a timeline
        view whose blocks are split at random between the timeline and
        the reservation overlay: ``shadow`` walks the timeline directly
        when the overlay is empty and merges the two otherwise, so the
        split cases check both walks."""
        rng = RngStreams(7).get("shadow-fuzz")
        split_rng = RngStreams(7).get("shadow-split")
        for _ in range(200):
            n_blocks = int(rng.integers(0, 12))
            blocks = [
                (float(rng.uniform(0, 5e3)), int(rng.integers(1, 50)))
                for _ in range(n_blocks)
            ]
            free = int(rng.integers(0, 60))
            need = int(rng.integers(1, 120))
            now = float(rng.uniform(0, 100))

            # brute force: the seed's _shadow loop
            def brute():
                if need <= free:
                    return now, free - need
                avail = free
                for release, nodes in sorted(blocks):
                    avail += nodes
                    if avail >= need:
                        return max(release, now), avail - need
                return math.inf, avail - need

            tl = AvailabilityTimeline()
            for i, (t, n) in enumerate(blocks):
                tl.set_block(i, t, n)
            in_timeline = split_rng.random(n_blocks) < 0.5
            split_tl = AvailabilityTimeline()
            overlay = []
            for i, block in enumerate(blocks):
                if in_timeline[i]:
                    split_tl.set_block(i, *block)
                else:
                    overlay.append(block)
            for view in (
                ProfileView.from_blocks(now, free, blocks),
                ProfileView(now, free, timeline=tl),
                ProfileView(now, free, timeline=split_tl, overlay=overlay),
                ProfileView(0.0, 0, timeline=split_tl).reset(
                    now, free, list(overlay)
                ),
            ):
                info = view.shadow(need)
                assert (info.time, info.extra_nodes) == brute()

    def test_overlay_merges_in_time_nodes_order(self):
        tl = AvailabilityTimeline()
        tl.set_block(1, 100.0, 5)
        tl.set_block(2, 300.0, 10)
        view = ProfileView(
            0.0, 0, timeline=tl, overlay=[(200.0, 7), (300.0, 4)]
        )
        assert list(view.releases()) == [
            (100.0, 5),
            (200.0, 7),
            (300.0, 4),
            (300.0, 10),
        ]

    def test_build_profile_equals_full_constructor(self):
        rng = RngStreams(99).get("profile-build")
        for _ in range(100):
            n_blocks = int(rng.integers(0, 15))
            blocks = [
                (float(rng.uniform(-50, 5e3)), int(rng.integers(1, 50)))
                for _ in range(n_blocks)
            ]
            free = int(rng.integers(0, 60))
            now = float(rng.uniform(0, 100))
            full = AvailabilityProfile(now, free, blocks)
            tl = AvailabilityTimeline()
            for i, (t, n) in enumerate(blocks):
                tl.set_block(i, t, n)
            fast = ProfileView(now, free, timeline=tl).build_profile()
            assert full.times == fast.times
            assert full.avail == fast.avail

    def test_static_view_ignores_timeline(self):
        view = ProfileView.from_blocks(0.0, 10, [(5.0, 3), (1.0, 2)])
        assert list(view.releases()) == [(1.0, 2), (5.0, 3)]


class TestAvailabilityProfileMoved:
    """The step-function profile now lives in sched.profile; the
    conservative module re-exports it (original tests remain in
    test_conservative.py)."""

    def test_reexport_is_same_class(self):
        from repro.sched.conservative import (
            AvailabilityProfile as FromConservative,
        )

        assert FromConservative is AvailabilityProfile

    def test_reserve_earliest_inserts_only_the_end_breakpoint(self):
        p = AvailabilityProfile(0.0, 50, [(100.0, 10)])
        # starts on the existing breakpoint 0; new breakpoint at 25
        assert p.reserve_earliest(20, 25.0) == 0.0
        assert p.times == [0.0, 25.0, 100.0]
        assert p.avail == [30, 50, 60]
        # an end on an existing breakpoint adds no duplicate
        assert p.reserve_earliest(5, 25.0) == 0.0
        assert p.times == [0.0, 25.0, 100.0]
        assert p.avail == [25, 50, 60]
        # an end within EPS of one snaps to it
        assert p.reserve_earliest(40, 75.0 + EPS / 2) == 25.0
        assert p.times == [0.0, 25.0, 100.0]
        assert p.avail == [25, 10, 60]

    def test_window_of_eps_or_less_reserves_nothing(self):
        # the earliest start is the later breakpoint t=100 (i > 0)
        p = AvailabilityProfile(0.0, 0, [(100.0, 5)])
        for wall in (EPS / 2, EPS):
            assert p.reserve_earliest(3, wall) == 100.0
            assert p.times == [0.0, 100.0]
            assert p.avail == [0, 5]
