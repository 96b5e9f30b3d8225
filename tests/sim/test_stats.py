"""Unit tests for the Stats counter substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Stats


class TestBasicCounting:
    def test_counters_start_at_zero(self):
        stats = Stats()
        assert stats["anything"] == 0
        assert "anything" not in stats

    def test_inc_creates_and_accumulates(self):
        stats = Stats()
        stats.inc("plb.hit")
        stats.inc("plb.hit", 4)
        assert stats["plb.hit"] == 5
        assert "plb.hit" in stats

    def test_zero_increment_creates_the_name(self):
        """A zero bump still records the name, as reports list it."""
        stats = Stats()
        stats.inc("plb.fill", 0)
        stats.counter("tlb.fill")(0)
        assert stats.as_dict() == {"plb.fill": 0, "tlb.fill": 0}

    def test_get_with_default(self):
        stats = Stats()
        assert stats.get("missing", 42) == 42
        stats.inc("present")
        assert stats.get("present", 42) == 1

    def test_len_and_iteration_order(self):
        stats = Stats()
        stats.inc("b")
        stats.inc("a")
        stats.inc("c")
        assert len(stats) == 3
        assert list(stats) == ["a", "b", "c"]

    def test_items_sorted(self):
        stats = Stats()
        stats.inc("z", 1)
        stats.inc("a", 2)
        assert list(stats.items()) == [("a", 2), ("z", 1)]

    def test_clear(self):
        stats = Stats()
        stats.inc("x")
        stats.clear()
        assert len(stats) == 0


class TestHotPathHelpers:
    def test_counter_handle_increments(self):
        stats = Stats()
        inc_hit = stats.counter("plb.hit")
        inc_hit()
        inc_hit(3)
        assert stats["plb.hit"] == 4

    def test_counter_handle_survives_clear(self):
        stats = Stats()
        inc_hit = stats.counter("plb.hit")
        inc_hit(2)
        stats.clear()
        inc_hit()
        assert stats["plb.hit"] == 1

    def test_inc_many_adds_not_replaces(self):
        stats = Stats()
        stats.inc("refs", 5)
        stats.inc_many({"refs": 1, "plb.hit": 1})
        stats.inc_many({"refs": 1, "plb.hit": 1})
        assert stats["refs"] == 7
        assert stats["plb.hit"] == 2

    def test_inc_many_creates_missing_counters(self):
        stats = Stats()
        stats.inc_many({"a.b": 3, "c.d": 0})
        assert stats["a.b"] == 3
        assert stats["c.d"] == 0

    def test_inc_many_matches_sequential_inc(self):
        batched, sequential = Stats(), Stats()
        counts = {"refs": 2, "dcache.hit": 1, "tlb.miss": 4}
        batched.inc_many(counts)
        for name, amount in counts.items():
            sequential.inc(name, amount)
        assert batched.as_dict() == sequential.as_dict()


class TestPrefixQueries:
    def test_total_sums_dotted_prefix(self):
        stats = Stats()
        stats.inc("plb.hit", 3)
        stats.inc("plb.miss", 2)
        stats.inc("plbx.other", 10)
        assert stats.total("plb") == 5

    def test_total_includes_exact_name(self):
        stats = Stats()
        stats.inc("plb", 1)
        stats.inc("plb.hit", 2)
        assert stats.total("plb") == 3

    def test_total_with_trailing_dot(self):
        stats = Stats()
        stats.inc("a.b", 1)
        assert stats.total("a.") == 1

    def test_scoped_keeps_only_prefix(self):
        stats = Stats()
        stats.inc("tlb.fill", 2)
        stats.inc("plb.fill", 3)
        scoped = stats.scoped("tlb")
        assert scoped["tlb.fill"] == 2
        assert scoped["plb.fill"] == 0
        assert len(scoped) == 1


class TestSnapshotDelta:
    def test_delta_measures_only_new_events(self):
        stats = Stats()
        stats.inc("a", 5)
        before = stats.snapshot()
        stats.inc("a", 2)
        stats.inc("b", 1)
        delta = stats.delta(before)
        assert delta["a"] == 2
        assert delta["b"] == 1
        assert len(delta) == 2

    def test_snapshot_is_independent(self):
        stats = Stats()
        stats.inc("a")
        snap = stats.snapshot()
        stats.inc("a")
        assert snap["a"] == 1
        assert stats["a"] == 2

    def test_delta_drops_zero_entries(self):
        stats = Stats()
        stats.inc("a", 3)
        before = stats.snapshot()
        delta = stats.delta(before)
        assert "a" not in delta
        assert len(delta) == 0

    def test_delta_keeps_negative_movement_visible(self):
        """A counter that went backwards is a bug; delta must show it."""
        stats = Stats()
        stats.inc("a", 5)
        before = stats.snapshot()
        stats.inc("a", -2)
        delta = stats.delta(before)
        assert delta["a"] == -2
        assert "a" in delta


class TestMonotonicityGuard:
    def test_passes_when_counters_only_grow(self):
        stats = Stats()
        stats.inc("a", 1)
        before = stats.snapshot()
        stats.inc("a", 3)
        stats.inc("b", 1)
        stats.assert_monotonic(before)  # no raise

    def test_raises_naming_the_regressed_counter(self):
        stats = Stats()
        stats.inc("plb.hit", 5)
        before = stats.snapshot()
        stats.inc("plb.hit", -2)
        with pytest.raises(ValueError, match=r"plb\.hit \(-2\)"):
            stats.assert_monotonic(before)

    def test_counter_returning_to_zero_counts_as_regression(self):
        stats = Stats()
        stats.inc("gone", 4)
        before = stats.snapshot()
        stats.inc("gone", -4)  # back to zero
        with pytest.raises(ValueError, match="gone"):
            stats.assert_monotonic(before)


class TestTop:
    def test_ranked_by_count_then_name(self):
        stats = Stats({"b": 5, "a": 5, "c": 9, "d": 1})
        assert stats.top(3) == [("c", 9), ("a", 5), ("b", 5)]

    def test_prefix_filters_dotted_namespace(self):
        stats = Stats({"plb.hit": 10, "plb.miss": 3, "plbx": 99, "tlb.hit": 7})
        assert stats.top(5, prefix="plb") == [("plb.hit", 10), ("plb.miss", 3)]

    def test_top_zero_and_empty(self):
        assert Stats({"a": 1}).top(0) == []
        assert Stats().top(5) == []


class TestMergeAndExport:
    def test_merge_accumulates(self):
        left = Stats({"a": 1, "b": 2})
        right = Stats({"b": 3, "c": 4})
        left.merge(right)
        assert left.as_dict() == {"a": 1, "b": 5, "c": 4}

    def test_as_dict_is_a_copy(self):
        stats = Stats()
        stats.inc("a")
        copy = stats.as_dict()
        copy["a"] = 99
        assert stats["a"] == 1

    def test_report_alignment_and_filter(self):
        stats = Stats()
        stats.inc("plb.hit", 10)
        stats.inc("tlb.miss", 2)
        report = stats.report("plb")
        assert "plb.hit" in report
        assert "tlb.miss" not in report

    def test_report_empty(self):
        assert "(no events)" in Stats().report()


class TestStatsProperties:
    @given(st.dictionaries(st.text(min_size=1), st.integers(1, 1000), max_size=8))
    def test_merge_totals_are_additive(self, counts):
        left = Stats(counts)
        right = Stats(counts)
        left.merge(right)
        for name, count in counts.items():
            assert left[name] == 2 * count

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "a.b", "a.b.c", "d"]), st.integers(1, 50)),
            max_size=20,
        )
    )
    def test_delta_of_snapshot_roundtrips(self, events):
        stats = Stats()
        for name, amount in events:
            stats.inc(name, amount)
        before = stats.snapshot()
        more = [("a.b", 3), ("d", 1)]
        for name, amount in more:
            stats.inc(name, amount)
        delta = stats.delta(before)
        assert delta.as_dict() == {"a.b": 3, "d": 1}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["p.x", "p.y", "p.z", "q.x"]), st.integers(1, 9)
            ),
            max_size=30,
        )
    )
    def test_total_equals_manual_sum(self, events):
        stats = Stats()
        for name, amount in events:
            stats.inc(name, amount)
        manual = sum(amount for name, amount in events if name.startswith("p."))
        assert stats.total("p") == manual
