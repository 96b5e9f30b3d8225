"""The op vocabulary: serialization, generation determinism, validity."""

from __future__ import annotations

import pytest

from repro.check.gold import GoldModel
from repro.check.ops import (
    SCENARIOS,
    Attach,
    CreateDomain,
    CreateSegment,
    SetPageRights,
    Touch,
    generate_ops,
    op_from_dict,
    ops_from_dicts,
)
from repro.core.rights import AccessType, Rights


class TestSerialization:
    def test_round_trip_every_kind(self):
        samples = [
            CreateDomain("d"),
            CreateSegment("s", 8, True),
            Attach(1, 2, Rights.RW),
            SetPageRights(3, 0x140, Rights.NONE),
            Touch(1, 0x100123, AccessType.WRITE),
        ]
        for op in samples:
            payload = op.to_dict()
            assert op_from_dict(payload) == op

    def test_dicts_are_json_plain(self):
        import json

        payload = Attach(1, 2, Rights.READ).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["rights"] == int(Rights.READ)

    def test_touch_access_serializes_as_string(self):
        payload = Touch(1, 0x100000, AccessType.READ).to_dict()
        assert payload["access"] == "read"
        assert op_from_dict(payload).access is AccessType.READ

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            op_from_dict({"op": "Nope"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "Touch", "pd": 1, "vaddr": "0x100000", "access": "read"},
            {"op": "CreateSegment", "name": "s", "n_pages": 4.0, "populate": True},
            {"op": "CreateDomain", "name": 7},
        ],
        ids=["str-for-int", "float-for-int", "int-for-str"],
    )
    def test_field_of_the_wrong_type_rejected(self, payload):
        """A dump's op must carry each field as the type it was written
        with, so a replayed stream never fails inside the harness."""
        with pytest.raises(ValueError, match="is not"):
            op_from_dict(payload)

    def test_stream_round_trip(self):
        ops = generate_ops(SCENARIOS["fuzz"], seed=3, n_ops=80)
        rebuilt = ops_from_dicts(op.to_dict() for op in ops)
        assert rebuilt == ops


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_per_seed(self, name):
        first = generate_ops(SCENARIOS[name], seed=5, n_ops=60)
        second = generate_ops(SCENARIOS[name], seed=5, n_ops=60)
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_ops(SCENARIOS["fuzz"], 0, 60) != generate_ops(
            SCENARIOS["fuzz"], 1, 60
        )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stream_is_gold_valid(self, name):
        """Every generated op must satisfy the kernel preconditions."""
        gold = GoldModel()
        for op in generate_ops(SCENARIOS[name], seed=2, n_ops=120):
            assert gold.validates(op), op
            gold.apply(op)

    def test_stream_reaches_requested_length(self):
        ops = generate_ops(SCENARIOS["fuzz"], seed=0, n_ops=100)
        assert len(ops) >= 100

    def test_streams_include_faulting_touches(self):
        """The generator must exercise denied/unattached references."""
        gold = GoldModel()
        outcomes = set()
        for op in generate_ops(SCENARIOS["rights"], seed=1, n_ops=200):
            if isinstance(op, Touch):
                vpn = gold.params.vpn(op.vaddr)
                outcomes.add(gold.expect("plb", op.pd, vpn, op.access).kind)
            gold.apply(op)
        assert "allowed" in outcomes
        assert "prot" in outcomes
