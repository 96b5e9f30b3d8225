"""Tests for the gold oracle, the injector and the chaos sweep."""

from __future__ import annotations

import json

import pytest

from repro.cluster.chaos import (
    GoldCluster,
    run_cluster_case,
    run_cluster_sweep,
)
from repro.cluster.dsm import ClusterDSM
from repro.cluster.faults import ClusterInjector
from repro.core.rights import AccessType
from repro.faults.plan import FaultEvent, FaultPlan
from repro.os.kernel import MODELS


class TestGoldCluster:
    def test_write_makes_one_stamp_legal(self):
        gold = GoldCluster([1])
        gold.write(0, 1, 5)
        assert gold.pages[1].allowed == {5}

    def test_cross_node_read_folds_dirty_into_durable(self):
        gold = GoldCluster([1])
        gold.write(0, 1, 5)
        gold.read(2, 1)
        page = gold.pages[1]
        assert page.durable == 5 and not page.dirty

    def test_dirty_owner_crash_allows_both_stamps(self):
        gold = GoldCluster([1])
        gold.write(0, 1, 5)
        gold.flush(1)
        gold.write(0, 1, 6)  # never flushed
        gold.crash(0)
        page = gold.pages[1]
        assert page.allowed == {5, 6}
        assert page.content == 5  # recovery restores the durable image

    def test_next_write_collapses_the_ambiguity(self):
        gold = GoldCluster([1])
        gold.write(0, 1, 5)
        gold.crash(0)
        gold.write(1, 1, 9)
        assert gold.pages[1].allowed == {9}

    def test_clean_owner_crash_stays_unambiguous(self):
        gold = GoldCluster([1])
        gold.write(0, 1, 5)
        gold.flush(1)
        gold.crash(0)
        assert gold.pages[1].allowed == {5}


class TestClusterInjector:
    def drive(self, plan, messages=6):
        cluster = ClusterDSM("plb", nodes=3, pages=4, seed=1)
        injector = ClusterInjector(plan)
        injector.arm(cluster)
        for i in range(messages):
            node = cluster.nodes[1 + (i % 2)]
            node.machine.touch(
                node.domain,
                cluster.params.vaddr(cluster.vpns[i % len(cluster.vpns)]),
                AccessType.READ,
            )
        injector.disarm()
        return cluster

    def test_msg_drop_span_counts_each_drop(self):
        plan = FaultPlan(
            events=(FaultEvent("cluster", "msg_drop", at=0, arg=2),)
        )
        cluster = self.drive(plan)
        assert cluster.stats["faults.injected.cluster.msg_drop"] == 2
        assert cluster.stats["cluster.msg.dropped"] == 2
        assert cluster.stats["cluster.retry.recovered"] >= 1

    def test_one_shot_kinds_fire_once(self):
        plan = FaultPlan(events=(FaultEvent("cluster", "msg_dup", at=0),))
        cluster = self.drive(plan)
        assert cluster.stats["faults.injected.cluster.msg_dup"] == 1
        assert cluster.stats["cluster.msg.duplicated"] == 1

    def test_node_crash_recorded_only_when_it_happened(self):
        # at=0 targets the first message's destination; a second crash
        # event later would be refused (cluster floor of two actors) and
        # must not count as injected.
        plan = FaultPlan(
            events=(
                FaultEvent("cluster", "node_crash", at=0),
                FaultEvent("cluster", "node_crash", at=1),
            )
        )
        cluster = self.drive(plan)
        assert cluster.stats["faults.injected.cluster.node_crash"] == 1
        assert cluster.stats["cluster.node_crashes"] == 1

    def test_non_cluster_events_are_ignored(self):
        plan = FaultPlan(events=(FaultEvent("cache", "mce", at=0),))
        cluster = self.drive(plan)
        assert cluster.stats.get("faults.injected", 0) == 0

    def test_armed_but_never_firing_is_zero_overhead(self):
        quiet = FaultPlan(
            events=(FaultEvent("cluster", "msg_drop", at=10_000),)
        )
        baseline = self.drive(plan=FaultPlan(events=()))
        armed = self.drive(plan=quiet)
        assert (
            armed.merged_stats().as_dict() == baseline.merged_stats().as_dict()
        )


class TestClusterCase:
    @pytest.mark.parametrize("model", MODELS)
    def test_fault_free_case_converges(self, model):
        result = run_cluster_case(model, seed=5, accesses=24)
        assert result.verdict == "converged"
        assert result.messages > 0
        assert result.plan is None

    def test_crash_case_converges_with_recovery_counters(self):
        plan = FaultPlan(
            events=(FaultEvent("cluster", "node_crash", at=6),),
            name="crash@6",
        )
        result = run_cluster_case("plb", seed=5, accesses=24, plan=plan)
        assert result.verdict == "converged"
        assert result.counters.get("faults.injected", 0) == 1
        assert result.counters.get("cluster.handoffs", 0) >= 1
        assert result.recovery_cycles

    def test_a_crashed_node_rejoins_before_the_audit(self):
        plan = FaultPlan(
            events=(FaultEvent("cluster", "node_crash", at=6),),
            name="crash@6",
        )
        result = run_cluster_case("plb", seed=5, accesses=24, plan=plan)
        assert result.verdict == "converged"
        assert result.counters["cluster.node_deaths"] == 1
        assert result.counters["cluster.rejoins"] == 1

    @pytest.mark.parametrize("model", MODELS)
    def test_partition_case_converges_through_relays(self, model):
        plan = FaultPlan(
            events=(FaultEvent("cluster", "partition", at=4),),
            name="partition@4",
        )
        result = run_cluster_case(model, seed=5, accesses=24, plan=plan)
        assert result.verdict == "converged"
        assert result.counters["cluster.relayed"] > 0
        assert result.counters["cluster.partitions.healed"] == 1
        assert result.counters.get("cluster.node_deaths", 0) == 0

    def test_dump_is_json_and_replayable(self):
        plan = FaultPlan(
            events=(FaultEvent("cluster", "partition", at=4),),
            name="partition@4",
        )
        result = run_cluster_case("plb", seed=5, accesses=24, plan=plan)
        dump = json.loads(json.dumps(result.dump()))
        replayed = run_cluster_case(
            dump["model"], dump["seed"],
            nodes=dump["nodes"], pages=dump["pages"],
            accesses=dump["accesses"], n_cpus=dump["n_cpus"],
            plan=FaultPlan.from_dict(dump["plan"]),
        )
        assert replayed.verdict == result.verdict
        assert replayed.counters == result.counters
        assert replayed.dump() == dump

    @pytest.mark.parametrize("accesses", (1, 9, 48))
    def test_the_drive_ticks_every_eighth_access(self, accesses):
        """The drive pulses the cluster before every access whose index
        ``TICK_EVERY`` (8) divides, the first excepted; the settle adds
        four pulses (three for failure detection, one after rejoin)."""
        result = run_cluster_case("plb", seed=5, accesses=accesses)
        assert result.verdict == "converged"
        assert result.counters["cluster.ticks"] == (accesses - 1) // 8 + 4


class TestClusterSweep:
    def test_thinned_sweep_converges_on_every_model(self):
        sweep = run_cluster_sweep(
            MODELS, seed=5, accesses=16, stride=7,
        )
        assert sweep.ok
        assert sweep.cases > 0
        assert sweep.converged + sweep.unrecoverable == sweep.cases
        assert set(sweep.baseline_messages) == set(MODELS)

    def test_sweep_pools_recovery_episodes_per_model(self):
        sweep = run_cluster_sweep(
            ("plb",), seed=5, accesses=16, stride=5,
            kinds=("node_crash",),
        )
        assert sweep.ok
        assert sweep.recovery_cycles.get("plb")
        assert all(c >= 0 for c in sweep.recovery_cycles["plb"])

    def test_max_steps_keeps_first_and_last(self):
        sweep = run_cluster_sweep(
            ("plb",), seed=5, accesses=16, max_steps=3,
            kinds=("node_crash",),
        )
        assert sweep.ok
        assert sweep.cases == 3
