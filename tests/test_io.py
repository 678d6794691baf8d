"""Round-trip tests for the JSON serialization layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.mechanism import UnicastPayment
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.graph import generators as gen
from repro.io import (
    SerializationError,
    from_dict,
    load_json,
    save_json,
    to_dict,
)
from repro.wireless.deployment import (
    sample_heterogeneous_deployment,
    sample_udg_deployment,
)

from conftest import biconnected_graphs, robust_digraphs


class TestRoundTrips:
    @given(biconnected_graphs(max_nodes=14))
    @settings(max_examples=15)
    def test_node_graph(self, g):
        assert from_dict(to_dict(g)) == g

    @given(robust_digraphs(max_nodes=12))
    @settings(max_examples=15)
    def test_link_digraph(self, dg):
        assert from_dict(to_dict(dg)) == dg

    def test_udg_deployment(self):
        dep = sample_udg_deployment(50, seed=17)
        back = from_dict(to_dict(dep))
        assert np.array_equal(back.points, dep.points)
        assert np.array_equal(back.ranges, dep.ranges)
        assert back.digraph == dep.digraph
        assert back.kind == dep.kind
        assert back.model.kappa == dep.model.kappa

    def test_heterogeneous_deployment_per_node_model(self):
        dep = sample_heterogeneous_deployment(60, seed=18)
        back = from_dict(to_dict(dep))
        assert np.allclose(np.asarray(back.model.alpha), np.asarray(dep.model.alpha))
        assert np.allclose(np.asarray(back.model.beta), np.asarray(dep.model.beta))
        assert back.digraph == dep.digraph

    def test_payment(self, random_graph):
        p = vcg_unicast_payments(random_graph, 5, 0)
        back = from_dict(to_dict(p))
        assert back.path == p.path
        assert back.payments == pytest.approx(dict(p.payments))
        assert back.scheme == p.scheme

    def test_payment_with_infinity(self):
        p = UnicastPayment(1, 0, (1, 2, 0), 3.0, {2: float("inf")})
        back = from_dict(to_dict(p))
        assert back.payment(2) == float("inf")

    def test_file_round_trip(self, tmp_path, random_graph):
        path = tmp_path / "graph.json"
        save_json(random_graph, path)
        assert load_json(path) == random_graph
        # the file is genuine JSON
        json.loads(path.read_text())

    def test_payment_recomputable_after_reload(self, tmp_path, random_graph):
        """End-to-end: ship the instance, recompute identical payments."""
        path = tmp_path / "instance.json"
        save_json(random_graph, path)
        g2 = load_json(path)
        a = vcg_unicast_payments(random_graph, 7, 0)
        b = vcg_unicast_payments(g2, 7, 0)
        assert a.path == b.path
        assert a.total_payment == pytest.approx(b.total_payment)


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(SerializationError, match="cannot serialize"):
            to_dict(object())

    def test_unknown_tag(self):
        with pytest.raises(SerializationError, match="unknown format"):
            from_dict({"format": "martian", "version": 1, "data": {}})

    def test_bad_version(self):
        with pytest.raises(SerializationError, match="version"):
            from_dict({"format": "node-graph", "version": 99, "data": {}})

    def test_malformed_payload(self):
        with pytest.raises(SerializationError, match="malformed"):
            from_dict({"format": "node-graph"})
        with pytest.raises(SerializationError, match="malformed"):
            from_dict(
                {"format": "node-graph", "version": 1, "data": {"n": 2}}
            )


class TestMoreRoundTrips:
    def test_collusion_scheme_payment(self):
        from repro.core.collusion import neighbor_collusion_payments
        from repro.graph import generators as gen2

        g = gen2.random_neighbor_safe_graph(10, seed=5)
        p = neighbor_collusion_payments(g, 0, 5)
        back = from_dict(to_dict(p))
        assert back.scheme == "neighbor-collusion"
        assert back.payments == pytest.approx(dict(p.payments))

    def test_fig_instances_ship_cleanly(self, tmp_path):
        for builder in (gen.fig2_example, gen.fig4_example):
            g = builder()[0]
            path = tmp_path / "fig.json"
            save_json(g, path)
            assert load_json(path) == g


class TestResultTypeRoundTrips:
    """The unified result protocol: every result type ships as JSON."""

    def test_fast_payment_result(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult, fast_vcg_payments

        res = fast_vcg_payments(random_graph, 5, 0)
        back = from_dict(to_dict(res))
        assert isinstance(back, FastPaymentResult)
        assert back.path == res.path
        assert back.lcp_cost == res.lcp_cost
        assert dict(back.payments) == dict(res.payments)
        assert dict(back.avoiding_costs) == dict(res.avoiding_costs)
        assert np.array_equal(back.levels, res.levels)
        assert dict(back.stats) == dict(res.stats)

    def test_fast_payment_result_method_pair(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult, fast_vcg_payments

        res = fast_vcg_payments(random_graph, 5, 0)
        back = FastPaymentResult.from_dict(res.to_dict())
        assert back.path_cost == res.path_cost

    def test_link_payment_table(self, random_digraph):
        from repro.core.link_vcg import (
            LinkPaymentTable,
            all_sources_link_payments,
        )

        table = all_sources_link_payments(random_digraph, on_monopoly="inf")
        back = from_dict(to_dict(table))
        assert isinstance(back, LinkPaymentTable)
        assert back.root == table.root
        assert np.array_equal(back.dist, table.dist)
        assert np.array_equal(back.first_hop_cost, table.first_hop_cost)
        assert np.array_equal(back.parent, table.parent)
        assert len(back.payments) == len(table.payments)
        for a, b in zip(back.payments, table.payments):
            assert dict(a) == dict(b)

    def test_link_payment_table_file_round_trip(self, tmp_path, random_digraph):
        from repro.core.link_vcg import all_sources_link_payments

        table = all_sources_link_payments(random_digraph, on_monopoly="inf")
        path = tmp_path / "table.json"
        save_json(table, path)
        back = load_json(path)
        assert back.path(7) == table.path(7)
        assert back.path_cost(7) == table.path_cost(7)

    def test_unicast_payment_method_pair(self, random_graph):
        p = vcg_unicast_payments(random_graph, 5, 0)
        back = UnicastPayment.from_dict(p.to_dict())
        assert back.path == p.path and back.path_cost == p.path_cost


class TestDecodeAs:
    def test_accepts_matching_type(self, random_graph):
        from repro.io import decode_as

        p = vcg_unicast_payments(random_graph, 5, 0)
        back = decode_as(UnicastPayment, to_dict(p))
        assert isinstance(back, UnicastPayment)

    def test_rejects_type_mismatch(self, random_graph):
        from repro.core.fast_payment import FastPaymentResult
        from repro.io import decode_as

        payload = to_dict(vcg_unicast_payments(random_graph, 5, 0))
        with pytest.raises(SerializationError, match="not FastPaymentResult"):
            decode_as(FastPaymentResult, payload)


class TestMigrations:
    """The schema-upgrade hook the durable engine store rides on."""

    def _cleanup(self, keys):
        from repro.io import _MIGRATIONS

        for k in keys:
            _MIGRATIONS.pop(k, None)

    def test_old_payload_upgrades_through_registered_step(self, random_graph):
        from repro.io import register_migration

        payload = to_dict(random_graph)
        payload["version"] = 0
        payload["data"] = {"legacy": payload["data"]}  # pretend v0 shape
        register_migration("node-graph", 0, lambda d: d["legacy"])
        try:
            back = from_dict(payload)
            assert np.array_equal(back.costs, random_graph.costs)
        finally:
            self._cleanup([("node-graph", 0)])

    def test_chained_steps_run_in_order(self):
        from repro.io import apply_migrations, register_migration

        register_migration("t", 1, lambda d: {**d, "a": 1})
        register_migration("t", 2, lambda d: {**d, "b": d["a"] + 1})
        try:
            out = apply_migrations("t", 1, 3, {})
            assert out == {"a": 1, "b": 2}
        finally:
            self._cleanup([("t", 1), ("t", 2)])

    def test_unregistered_gap_fails_loudly(self):
        from repro.io import apply_migrations

        with pytest.raises(SerializationError, match="no migration"):
            apply_migrations("t", 1, 2, {})

    def test_newer_than_build_fails_loudly(self):
        from repro.io import apply_migrations

        with pytest.raises(SerializationError, match="newer"):
            apply_migrations("t", 5, 1, {})


class TestWireEnvelopes:
    """The service wire contract: ``schema_version`` spelling, request
    validation, and round-trips of every ``/v1`` message type."""

    def test_to_wire_spells_schema_version(self, random_graph):
        from repro.io import to_wire

        doc = to_wire(random_graph)
        assert "schema_version" in doc and "version" not in doc
        assert doc["format"] == "node-graph"
        json.dumps(doc)  # wire messages are genuine JSON

    def test_from_wire_accepts_both_spellings(self, random_graph):
        from repro.io import from_wire, to_dict, to_wire

        assert from_wire(to_wire(random_graph)) == random_graph
        assert from_wire(to_dict(random_graph)) == random_graph

    def test_from_wire_rejects_non_object(self):
        from repro.io import from_wire

        with pytest.raises(SerializationError, match="JSON object"):
            from_wire([1, 2, 3])

    def test_price_request_round_trip(self):
        from repro.io import PriceRequest, from_wire, to_wire

        req = PriceRequest(source=7, target=0, deadline_s=2.5)
        back = from_wire(json.loads(json.dumps(to_wire(req))))
        assert back == req

    def test_price_request_validation(self):
        from repro.errors import InvalidRequestError
        from repro.io import PriceManyRequest, PriceRequest

        with pytest.raises(InvalidRequestError):
            PriceRequest(1, 0, deadline_s=-3.0)
        with pytest.raises(InvalidRequestError):
            PriceManyRequest(())

    def test_invalid_request_code_survives_decoding(self):
        """A malformed-but-well-formed envelope keeps its taxonomy code
        (request.invalid, HTTP 400) instead of degrading into a
        generic serialization failure."""
        from repro.errors import InvalidRequestError, error_code
        from repro.io import PriceRequest, from_wire, to_wire

        doc = to_wire(PriceRequest(1, 0))
        doc["data"]["deadline_s"] = -1.0
        with pytest.raises(InvalidRequestError) as info:
            from_wire(doc)
        assert error_code(info.value) == "request.invalid"

    def test_update_request_round_trip_and_validation(self):
        from repro.errors import InvalidRequestError
        from repro.io import UpdateRequest, from_wire, to_wire

        for req in (
            UpdateRequest(op="cost", node=3, value=7.5),
            UpdateRequest(op="cost", edge=(1, 2), value=4.0),
            UpdateRequest(op="remove_node", node=5),
            UpdateRequest(op="add_node", cost=1.0, neighbors=(0, 1)),
            UpdateRequest(op="add_node", arcs=((0, 9, 2.0), (9, 0, 2.0))),
        ):
            assert from_wire(to_wire(req)) == req
        with pytest.raises(InvalidRequestError, match="op"):
            UpdateRequest(op="explode")
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="cost", node=1)  # missing value
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="cost", node=1, edge=(1, 2), value=3.0)
        with pytest.raises(InvalidRequestError):
            UpdateRequest(op="remove_node")

    def test_response_round_trips(self, random_graph):
        from repro.io import (
            ErrorResponse,
            GraphResponse,
            PriceManyResponse,
            PriceResponse,
            UpdateResponse,
            from_wire,
            to_wire,
        )

        payment = vcg_unicast_payments(random_graph, 5, 0)
        for resp in (
            PriceResponse(payment, graph_version=3, request_id="r1-1",
                          coalesced=True),
            PriceManyResponse((payment,), graph_version=3, request_id="r1-2"),
            UpdateResponse(graph_version=4, request_id="r1-3", node=7),
            GraphResponse(random_graph, graph_version=4, model="node",
                          request_id="r1-4"),
            ErrorResponse(code="service.overloaded", message="queue full",
                          request_id="r1-5", status=429),
        ):
            doc = json.loads(json.dumps(to_wire(resp)))
            back = from_wire(doc)
            assert type(back) is type(resp)
            if hasattr(resp, "graph_version"):
                assert back.graph_version == resp.graph_version
            assert back.request_id == resp.request_id
        back = from_wire(json.loads(json.dumps(to_wire(
            PriceResponse(payment, 0, "r")
        ))))
        assert back.payment.path == payment.path
        assert dict(back.payment.payments) == pytest.approx(
            dict(payment.payments)
        )

    def test_wire_migration_chain_applies(self, random_graph):
        """Old clients' payloads upgrade through register_migration
        exactly like old files."""
        from repro.io import from_wire, register_migration, to_wire

        doc = to_wire(random_graph)
        doc["schema_version"] = 0
        doc["data"] = {"legacy": doc["data"]}
        register_migration("node-graph", 0, lambda d: d["legacy"])
        try:
            back = from_wire(doc)
            assert np.array_equal(back.costs, random_graph.costs)
        finally:
            TestMigrations._cleanup(TestMigrations(), [("node-graph", 0)])


class TestDegradedStamp:
    """The ``degraded`` wire key: present iff True (byte-identity)."""

    def test_round_trip_and_absent_key_default(self, random_graph):
        from repro.io import PriceResponse, from_wire, to_wire

        payment = vcg_unicast_payments(random_graph, 5, 0)
        fresh = PriceResponse(payment, graph_version=2, request_id="r1")
        doc = to_wire(fresh)
        # Fresh answers never carry the key: the serialized bytes are
        # indistinguishable from a build that predates degraded mode.
        assert "degraded" not in doc["data"]
        assert from_wire(json.loads(json.dumps(doc))).degraded is False

        stale = PriceResponse(
            payment, graph_version=2, request_id="r2", degraded=True
        )
        doc = to_wire(stale)
        assert doc["data"]["degraded"] is True
        back = from_wire(json.loads(json.dumps(doc)))
        assert back.degraded is True
        assert back.graph_version == 2


class TestFloatEncoding:
    """Payment floats on the wire: plain ``float`` or the ``"inf"`` tag."""

    GOLDEN = (
        '{"format": "price-response", "schema_version": 1, "data": '
        '{"payment": {"source": 4, "target": 0, "path": [4, 9, 3, 7, 0], '
        '"lcp_cost": 7.1, "payments": {"9": 2.5, "3": 0.3333333333333333, '
        '"7": "inf", "5": "inf"}, "scheme": "vcg"}, "graph_version": 3, '
        '"request_id": "rid-1", "coalesced": false}}'
    )

    def test_price_response_matches_golden_bytes(self):
        from repro.io import PriceResponse, to_wire

        payment = UnicastPayment(
            source=4,
            target=0,
            path=(4, 9, 3, 7, 0),
            lcp_cost=np.float64(7.1),
            payments={
                9: np.float64(2.5),
                3: 1.0 / 3.0,
                7: math.inf,  # a monopoly relay
                5: np.float64(math.inf),
            },
        )
        doc = to_wire(PriceResponse(payment, graph_version=3, request_id="rid-1"))
        assert json.dumps(doc) == self.GOLDEN
        data = doc["data"]["payment"]
        for value in [data["lcp_cost"], *data["payments"].values()]:
            assert type(value) is float or value == "inf", repr(value)
