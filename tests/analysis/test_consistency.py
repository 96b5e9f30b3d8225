"""§4.1.3: remote consistency costs must rank PLB <= page-group <= conventional.

Each experiment's contract is its result's ``problems`` list; a planted
violation of each must land there and make the CLI exit 1.
"""

from __future__ import annotations

import pytest

from repro.analysis import consistency
from repro.analysis.consistency import (
    BATCH_VERB_RIGHTS,
    BATCH_VERB_UNMAP,
    VERB_ALL_DOMAINS,
    VERB_UNMAP,
    VERBS,
    batched_table,
    consistency_table,
    measure_all,
    measure_batched,
    measure_cluster_smp,
    measure_model,
)
from repro.cli import main
from repro.cluster.dsm import ClusterDSM
from repro.os.kernel import MODELS
from repro.os.smp import ShootdownBus
from repro.workloads.dsm import DSMNode


class TestOrdering:
    def test_rights_change_messages_follow_the_paper_ordering(self):
        """The acceptance bar: invalidations per rights change on a shared
        page are ordered PLB <= page-group <= conventional."""
        results = measure_all(n_cpus=3, n_domains=3)
        plb = results["plb"].rights_change_msgs
        pagegroup = results["pagegroup"].rights_change_msgs
        conventional = results["conventional"].rights_change_msgs
        assert plb <= pagegroup <= conventional
        assert conventional > plb  # strictly worse with >1 sharing domain

    def test_message_counts_match_the_analytic_model(self):
        """PLB/page-group send one IPI per remote CPU; conventional one
        per sharing domain per remote CPU (§4.1.3)."""
        n_cpus, n_domains = 3, 4
        results = measure_all(n_cpus=n_cpus, n_domains=n_domains)
        remotes = n_cpus - 1
        assert results["plb"].rights_change_msgs == remotes
        assert results["pagegroup"].rights_change_msgs == remotes
        assert results["conventional"].rights_change_msgs == n_domains * remotes

    def test_pagegroup_touches_one_entry_per_cpu_on_shared_pages(self):
        """'The change is easily made in the single TLB entry' (§4.1.2):
        the AID-tagged entry is shared by every domain, so remote entry
        updates don't scale with the sharing set."""
        n_cpus, n_domains = 3, 4
        results = measure_all(n_cpus=n_cpus, n_domains=n_domains)
        remotes = n_cpus - 1
        assert results["pagegroup"].costs[VERB_ALL_DOMAINS].entries == remotes
        # PLB and conventional both hold one entry per sharing domain.
        assert results["plb"].costs[VERB_ALL_DOMAINS].entries == n_domains * remotes
        assert (
            results["conventional"].costs[VERB_ALL_DOMAINS].entries
            == n_domains * remotes
        )

    def test_unmap_is_a_translation_shootdown_on_every_model(self):
        for model, result in measure_all(n_cpus=3, n_domains=2).items():
            assert result.costs[VERB_UNMAP].msgs == 2, model
            assert result.costs[VERB_UNMAP].entries >= 2, model


class TestScenario:
    @pytest.mark.parametrize("model", MODELS)
    def test_single_cpu_generates_no_remote_traffic(self, model):
        result = measure_model(model, n_cpus=1, n_domains=3)
        for verb in VERBS:
            assert result.costs[verb].msgs == 0
            assert result.costs[verb].entries == 0

    def test_too_few_pages_is_an_error(self):
        with pytest.raises(ValueError):
            measure_model("plb", pages=3)

    def test_one_domain_is_an_error(self):
        """The one-domain verb needs a second sharer."""
        with pytest.raises(ValueError, match="at least 2 domains"):
            measure_model("plb", n_domains=1)


class TestRendering:
    def test_table_names_every_verb_and_model(self):
        text = consistency_table(n_cpus=3, n_domains=3).text
        for verb in VERBS:
            assert verb in text
        for model in MODELS:
            assert model in text
        assert "paper ordering" in text


def _per_page(real, *, skip: int = 0):
    """``real`` called once per page of its page-set argument, which
    follows ``skip`` other positional arguments."""

    def split(self, *args, **kwargs):
        head, pages, tail = args[:skip], args[skip], args[skip + 1 :]
        for vpn in pages:
            real(self, *head, (vpn,), *tail, **kwargs)

    return split


class TestContracts:
    def test_clean_runs_report_no_problems(self):
        assert consistency_table(n_cpus=3, n_domains=3).problems == []
        assert measure_batched("pagegroup", n_cpus=3, pages=6).problems == []
        assert measure_cluster_smp("plb", nodes=2, cpus=2).problems == []

    def test_a_reversed_ordering_is_a_problem(self, monkeypatch, capsys):
        real = consistency.measure_model
        swap = {"plb": "conventional", "conventional": "plb"}

        def swapped(model, **kwargs):
            result = real(swap.get(model, model), **kwargs)
            result.model = model
            return result

        monkeypatch.setattr(consistency, "measure_model", swapped)
        assert consistency_table(n_cpus=3, n_domains=3).problems == [
            "rights-change msgs out of the paper's order: plb=6 > pagegroup=2"
        ]
        assert main(["smp", "--cpus", "3", "--domains", "3"]) == 1
        assert "§4.1.3 contract broken: rights-change" in capsys.readouterr().err

    def test_per_page_shootdowns_break_the_k_fold_saving(self, monkeypatch, capsys):
        """With ``shootdown_range`` split into one-page messages the
        twins still agree on the end state, but the legacy run no longer
        sends K times the messages."""
        real = ShootdownBus.shootdown_range
        monkeypatch.setattr(ShootdownBus, "shootdown_range", _per_page(real, skip=1))
        result = measure_batched("plb", n_cpus=4, pages=6)
        assert result.end_state_ok
        assert [problem.split(":")[0] for problem in result.problems] == [
            BATCH_VERB_RIGHTS,
            BATCH_VERB_UNMAP,
        ]
        assert main(["smp", "--cpus", "4", "--models", "plb"]) == 1
        captured = capsys.readouterr()
        assert "end-state check: OK" in captured.out
        assert f"[plb] {BATCH_VERB_RIGHTS}: legacy sent" in captured.err

    def test_a_diverged_twin_breaks_the_end_state_check(self, monkeypatch):
        monkeypatch.setattr(consistency, "check_invariants", lambda kernel: ["stale"])
        result = measure_batched("plb", n_cpus=2, pages=6)
        assert not result.end_state_ok
        assert result.problems == ["batched: stale", "legacy: stale"]
        report = batched_table(("plb",), n_cpus=2, pages=6)
        assert "end-state check: FAIL" in report.text
        assert report.problems == ["[plb] batched: stale", "[plb] legacy: stale"]

    def test_per_page_dsm_fanout_is_a_problem(self, monkeypatch, capsys):
        real = DSMNode._set_local_rights_range
        monkeypatch.setattr(DSMNode, "_set_local_rights_range", _per_page(real))
        result = measure_cluster_smp("plb", nodes=2, cpus=2)
        assert result.cost.msgs > result.cost.batches
        assert len(result.problems) == 1
        assert result.problems[0].endswith("(per-page fan-out)")
        assert main(["cluster", "--nodes", "2", "--cpus", "2",
                     "--chaos", "none", "--models", "plb", "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert "fanout=FAIL" in captured.out
        assert "[plb @ 2x2]" in captured.err

    def test_per_page_wire_messages_are_a_problem(self, monkeypatch):
        real = ClusterDSM.get_writable_range
        monkeypatch.setattr(ClusterDSM, "get_writable_range", _per_page(real, skip=1))
        result = measure_cluster_smp("plb", nodes=2, cpus=1)
        assert result.problems == [
            "12 wire msgs for 1 holders (expected one request/reply pair per holder)"
        ]
