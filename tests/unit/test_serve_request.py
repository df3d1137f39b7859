"""Wire types: validation grammar, batch keys, JSON round-trips."""

from __future__ import annotations

import pytest

from repro.serve.request import (
    SUMMARY_FIELDS,
    TOPOLOGIES,
    MechanismRequest,
    MechanismResponse,
    RequestError,
)


class TestValidation:
    def test_defaults_validate(self):
        request = MechanismRequest().validate()
        assert request.topology == "chain"
        assert request.m == 4

    def test_unknown_topology_rejected(self):
        with pytest.raises(RequestError, match="unknown topology"):
            MechanismRequest(topology="ring").validate()

    def test_tree_topology_accepted(self):
        # Trees run the scalar DLS-T mechanism per row (counted under
        # mechanism.scalar_fallbacks), never rejected at the door.
        request = MechanismRequest(topology="tree", m=5).validate()
        assert request.batch_key == ("tree", 5, 0.25)

    @pytest.mark.parametrize("spec", ["2:misbid", "3:slow:2.0"])
    def test_tree_deviants_accepted_at_tamper_proof_level(self, spec):
        MechanismRequest(topology="tree", m=4, deviant=spec).validate()

    @pytest.mark.parametrize("spec", ["1:shed", "2:overcharge:1.5", "1:accuse", "2:contradict"])
    def test_tree_deviants_beyond_rate_and_speed_rejected(self, spec):
        with pytest.raises(RequestError, match="unsupported on trees"):
            MechanismRequest(topology="tree", m=4, deviant=spec).validate()

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_m_rejected(self, m):
        with pytest.raises(RequestError, match="positive integer"):
            MechanismRequest(m=m).validate()

    @pytest.mark.parametrize("m", [2.5, "4", True, False])
    def test_non_integer_m_rejected(self, m):
        # Bools especially: isinstance(True, int) is true, so m=True
        # used to slip through as m=1 — a served run the caller never
        # asked for.
        with pytest.raises(RequestError, match="must be an integer"):
            MechanismRequest(m=m).validate()

    @pytest.mark.parametrize("seed", [True, 1.0, "7"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(RequestError, match="must be an integer"):
            MechanismRequest(seed=seed).validate()

    @pytest.mark.parametrize("request_id", [True, 1.5, "abc", [1]])
    def test_non_integer_request_id_rejected(self, request_id):
        with pytest.raises(RequestError, match="must be an integer"):
            MechanismRequest(request_id=request_id).validate()

    def test_m_above_cap_rejected(self):
        from repro.serve.request import MAX_M

        MechanismRequest(m=MAX_M).validate()
        with pytest.raises(RequestError, match="at most"):
            MechanismRequest(m=MAX_M + 1).validate()

    @pytest.mark.parametrize("priority", [101, -101, 0.5, True])
    def test_bad_priority_rejected(self, priority):
        with pytest.raises(RequestError):
            MechanismRequest(priority=priority).validate()

    @pytest.mark.parametrize("tenant", ["", "a b", "x" * 65, 7, None])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(RequestError, match="tenant"):
            MechanismRequest(tenant=tenant).validate()

    def test_tenant_and_priority_accepted(self):
        request = MechanismRequest(tenant="team-a.prod_1", priority=7).validate()
        assert request.tenant == "team-a.prod_1"
        assert request.priority == 7

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_bad_audit_probability_rejected(self, q):
        with pytest.raises(RequestError, match="audit probability"):
            MechanismRequest(audit_probability=q).validate()

    @pytest.mark.parametrize("q", [True, "0.5", " 1 ", None, [0.5]])
    def test_non_number_audit_probability_rejected(self, q):
        # Refused at validate(), before a flush would call float() on it.
        with pytest.raises(RequestError, match="audit_probability must be a number"):
            MechanismRequest(audit_probability=q).validate()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("shed", "INDEX:KIND"),
            ("x:shed", "index must be an integer"),
            ("0:shed", "outside 1"),
            ("5:shed", "outside 1"),
            ("2:nonsense", "unknown deviant kind"),
            ("2:overcharge:lots", "param must be a number"),
        ],
    )
    def test_bad_deviant_specs_rejected(self, spec, message):
        with pytest.raises(RequestError, match=message):
            MechanismRequest(m=4, deviant=spec).validate()

    @pytest.mark.parametrize(
        "spec", ["1:shed", "4:accuse", "2:overcharge:1.5", "3:slow:2.0"]
    )
    def test_good_deviant_specs_accepted(self, spec):
        MechanismRequest(m=4, deviant=spec).validate()


class TestBatchKey:
    def test_key_ignores_seed_deviant_and_id(self):
        a = MechanismRequest(m=4, seed=0, deviant="2:shed", request_id=1)
        b = MechanismRequest(m=4, seed=99, deviant=None, request_id=7)
        assert a.batch_key == b.batch_key

    def test_key_separates_topology_size_and_q(self):
        base = MechanismRequest(m=4)
        assert base.batch_key != MechanismRequest(topology="star", m=4).batch_key
        assert base.batch_key != MechanismRequest(m=5).batch_key
        assert base.batch_key != MechanismRequest(m=4, audit_probability=0.5).batch_key

    def test_with_id_preserves_key(self):
        request = MechanismRequest(m=4, seed=3)
        assert request.with_id(42).request_id == 42
        assert request.with_id(42).batch_key == request.batch_key


class TestWireFormat:
    def test_request_roundtrip(self):
        request = MechanismRequest(
            topology="star", m=6, seed=11, audit_probability=0.5,
            deviant="2:misbid", request_id=9,
        )
        wire = request.to_wire()
        assert wire["op"] == "run"
        assert MechanismRequest.from_wire(wire) == request

    def test_from_wire_fills_defaults(self):
        request = MechanismRequest.from_wire({"op": "run"})
        assert request == MechanismRequest()

    def test_from_wire_validates(self):
        with pytest.raises(RequestError):
            MechanismRequest.from_wire({"topology": "ring"})
        with pytest.raises(RequestError, match="must be an integer"):
            MechanismRequest.from_wire({"m": "not a number"})

    def test_from_wire_rejects_json_booleans_for_integers(self):
        # JSON true must never reach int() (int(True) == 1).
        with pytest.raises(RequestError, match="m must be an integer"):
            MechanismRequest.from_wire({"m": True})
        with pytest.raises(RequestError, match="seed must be an integer"):
            MechanismRequest.from_wire({"seed": False})
        with pytest.raises(RequestError, match="request_id must be an integer"):
            MechanismRequest.from_wire({"request_id": True})
        with pytest.raises(RequestError, match="priority must be an integer"):
            MechanismRequest.from_wire({"priority": True})

    @pytest.mark.parametrize("q", [True, False, "0.5", " 1 ", None, {"q": 1}])
    def test_from_wire_rejects_non_number_audit_probability(self, q):
        # JSON true must never become q = 1.0, nor a string be parsed.
        with pytest.raises(RequestError, match="audit_probability must be a number"):
            MechanismRequest.from_wire({"audit_probability": q})

    @pytest.mark.parametrize("q", [1, 0.5])
    def test_from_wire_accepts_json_int_and_float_audit_probability(self, q):
        assert MechanismRequest.from_wire({"audit_probability": q}).audit_probability == q

    def test_from_wire_rejects_non_integer_request_id(self):
        # The service echoes request_id back; arbitrary JSON is refused
        # rather than reflected.
        for bad in ("abc", 1.5, [1], {"x": 1}):
            with pytest.raises(RequestError, match="request_id"):
                MechanismRequest.from_wire({"request_id": bad})

    def test_wire_roundtrip_with_tenant_and_priority(self):
        request = MechanismRequest(
            topology="tree", m=5, seed=3, tenant="team-b", priority=-2, request_id=4
        )
        wire = request.to_wire()
        assert wire["tenant"] == "team-b" and wire["priority"] == -2
        assert MechanismRequest.from_wire(wire) == request

    def test_wire_omits_default_tenant_and_priority(self):
        wire = MechanismRequest(m=4).to_wire()
        assert "tenant" not in wire and "priority" not in wire

    def test_response_roundtrip(self):
        response = MechanismResponse(
            ok=True,
            summary={field: None for field in SUMMARY_FIELDS},
            request_id=3,
            served={"engine": "array", "batch_size": 8},
        )
        assert MechanismResponse.from_wire(response.to_wire()) == response

    def test_error_response_roundtrip(self):
        response = MechanismResponse(ok=False, error="queue full", request_id=1)
        wire = response.to_wire()
        assert "summary" not in wire and "served" not in wire
        assert MechanismResponse.from_wire(wire) == response

    def test_topologies_constant_matches_engines(self):
        assert TOPOLOGIES == ("chain", "star", "tree")
