"""The resilience layer: client retries, breaker, chaos, supervisor.

Mechanics (backoff schedules, breaker transitions, retry/idempotency
headers) are pinned against a scripted stub server and a fake clock so
every assertion is deterministic. The load-bearing end-to-end tests
then drive the real stack: a seeded :class:`ChaosPlan` tears/faults a
live :class:`ServiceServer` while :class:`PricingClient` retries
through it, and a :class:`Supervisor`-run child process is ``kill
-9``-ed mid-load and recovered from its WAL — in both cases every
answer must replay bit-identically against the serial oracle at its
pinned ``graph_version``.
"""

import io
import json
import socket
import struct
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import io as repro_io
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import PricingEngine
from repro.errors import (
    CircuitOpenError,
    ClientError,
    DeadlineExceededError,
    InvalidRequestError,
    RetryExhaustedError,
    ServiceClosedError,
)
from repro.graph import generators as gen
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    BackoffPolicy,
    ChaosPlan,
    ChaosRule,
    CircuitBreaker,
    PricingClient,
    PricingService,
    ServiceServer,
)
from repro.service.chaos import CHAOS_ENV
from repro.service.supervisor import Supervisor, serve_argv


def answer_key(payment):
    return (payment.path, payment.lcp_cost, tuple(sorted(payment.payments.items())))


# ---------------------------------------------------------------------------
# BackoffPolicy
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_schedule_is_seed_deterministic(self):
        from random import Random

        policy = BackoffPolicy(max_retries=4, base_s=0.05, cap_s=2.0)
        a = [policy.delay_s(i, Random(42)) for i in range(5)]
        b = [policy.delay_s(i, Random(42)) for i in range(5)]
        assert a == b

    def test_full_jitter_bounded_by_capped_exponential(self):
        from random import Random

        rng = Random(7)
        policy = BackoffPolicy(max_retries=10, base_s=0.1, cap_s=0.4)
        for attempt in range(10):
            ceiling = min(0.4, 0.1 * 2.0**attempt)
            for _ in range(20):
                assert 0.0 <= policy.delay_s(attempt, rng) <= ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-0.1)


# ---------------------------------------------------------------------------
# CircuitBreaker (fake clock)
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("window", 10)
        kw.setdefault("failure_threshold", 0.5)
        kw.setdefault("min_volume", 4)
        kw.setdefault("cooldown_s", 5.0)
        return CircuitBreaker(time_fn=clock, metrics=MetricsRegistry(), **kw)

    def test_stays_closed_below_min_volume(self):
        br = self._breaker(_Clock())
        for _ in range(3):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        assert br.allow()

    def test_trips_open_at_failure_threshold(self):
        br = self._breaker(_Clock())
        br.record_success()
        br.record_success()
        br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_failure()  # 2 failures / 4 outcomes = 0.5 >= threshold
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow()

    def test_cooldown_half_opens_and_probe_success_closes(self):
        clock = _Clock()
        br = self._breaker(clock)
        for _ in range(4):
            br.record_failure()
        assert not br.allow()
        clock.t += 5.0
        assert br.state == CircuitBreaker.HALF_OPEN
        assert br.allow()  # the one probe slot
        assert not br.allow()  # probe budget spent: others short-circuit
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED
        # The window was cleared: one new failure must not re-trip.
        br.record_failure()
        assert br.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = _Clock()
        br = self._breaker(clock)
        for _ in range(4):
            br.record_failure()
        clock.t += 5.0
        assert br.allow()
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow()
        clock.t += 5.0
        assert br.state == CircuitBreaker.HALF_OPEN

    def test_transition_metrics(self):
        metrics = MetricsRegistry(enabled=True)
        clock = _Clock()
        br = CircuitBreaker(
            window=4,
            failure_threshold=0.5,
            min_volume=2,
            cooldown_s=1.0,
            time_fn=clock,
            metrics=metrics,
        )
        br.record_failure()
        br.record_failure()
        assert metrics.counter("service.breaker_open").value == 1
        assert metrics.gauge("service.breaker_state").value == 1.0
        assert not br.allow()
        assert metrics.counter("service.breaker_short_circuits").value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


# ---------------------------------------------------------------------------
# ChaosPlan
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_same_seed_same_decision_sequence(self):
        rule = ChaosRule(latency_p=0.3, latency_s=0.001, error_p=0.3, reset_p=0.1)

        def mk():
            return ChaosPlan({"/v1/price": rule}, seed=11, metrics=MetricsRegistry())

        a, b = mk(), mk()
        for _ in range(50):
            assert a.decide("/v1/price") == b.decide("/v1/price")

    def test_wildcard_scopes_to_v1_only(self):
        plan = ChaosPlan({"*": ChaosRule(error_p=1.0)}, metrics=MetricsRegistry())
        assert plan.rule_for("/v1/price") is plan.rules["*"]
        assert plan.rule_for("/v1/update") is plan.rules["*"]
        # Telemetry stays un-faulted unless named explicitly.
        assert plan.rule_for("/healthz") is None
        assert plan.rule_for("/readyz") is None
        assert plan.decide("/metrics") is None

    def test_exact_rule_beats_wildcard(self):
        exact = ChaosRule(reset_p=1.0)
        plan = ChaosPlan(
            {"/v1/price": exact, "*": ChaosRule(error_p=1.0)},
            metrics=MetricsRegistry(),
        )
        assert plan.rule_for("/v1/price") is exact

    def test_terminal_priority_reset_over_torn_over_error(self):
        plan = ChaosPlan(
            {"/v1/price": ChaosRule(reset_p=1.0, torn_p=1.0, error_p=1.0)},
            metrics=MetricsRegistry(),
        )
        assert plan.decide("/v1/price").action == "reset"

    def test_null_plan_never_fires(self):
        plan = ChaosPlan({"/v1/price": ChaosRule()}, metrics=MetricsRegistry())
        assert plan.is_null
        assert all(plan.decide("/v1/price") is None for _ in range(10))

    def test_doc_round_trip(self):
        plan = ChaosPlan(
            {"/v1/price": ChaosRule(error_p=0.25, error_status=503)},
            seed=9,
            metrics=MetricsRegistry(),
        )
        doc = plan.to_doc()
        clone = ChaosPlan.from_doc(doc, metrics=MetricsRegistry())
        assert clone.seed == 9
        assert clone.rules == plan.rules

    def test_from_doc_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(InvalidRequestError):
            ChaosPlan.from_doc({"endpoints": {"/v1/price": {"erorr_p": 0.5}}})
        with pytest.raises(InvalidRequestError):
            ChaosPlan.from_doc({"endpoints": {"/v1/price": {"error_p": 1.5}}})
        with pytest.raises(InvalidRequestError):
            ChaosPlan.from_doc({"endpoints": {"/v1/price": {"error_status": 404}}})

    def test_from_spec_inline_and_file(self, tmp_path):
        spec = '{"seed": 3, "endpoints": {"*": {"torn_p": 0.5}}}'
        inline = ChaosPlan.from_spec(spec)
        assert inline.seed == 3 and inline.rules["*"].torn_p == 0.5
        path = tmp_path / "plan.json"
        path.write_text(spec)
        from_file = ChaosPlan.from_spec(str(path))
        assert from_file.rules == inline.rules
        with pytest.raises(InvalidRequestError):
            ChaosPlan.from_spec(str(tmp_path / "missing.json"))
        with pytest.raises(InvalidRequestError):
            ChaosPlan.from_spec("{not json")

    def test_from_env(self):
        assert ChaosPlan.from_env({}) is None
        plan = ChaosPlan.from_env(
            {CHAOS_ENV: '{"endpoints": {"*": {"error_p": 0.1}}}'}
        )
        assert plan is not None and plan.rules["*"].error_p == 0.1


# ---------------------------------------------------------------------------
# Scripted stub server: deterministic retry mechanics
# ---------------------------------------------------------------------------


class _Script:
    """A queue of canned responses + a log of the requests that hit it."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.requests = []
        self.mu = threading.Lock()

    def next_action(self, record):
        with self.mu:
            self.requests.append(record)
            if self.actions:
                return self.actions.pop(0)
        return ("json", 500, {}, {"unscripted": True})


@pytest.fixture
def scripted():
    """Factory: start a stub HTTP server playing back a response script."""
    servers = []

    def start(actions):
        script = _Script(actions)

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *a):
                pass

            def _abort(self):
                self.close_connection = True
                try:
                    self.connection.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
                self.connection.close()
                self.wfile = io.BytesIO()

            def _handle(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                action = script.next_action(
                    {
                        "path": self.path,
                        "headers": {k.lower(): v for k, v in self.headers.items()},
                        "body": body,
                    }
                )
                if action[0] == "reset":
                    self._abort()
                    return
                _, status, extra, doc = action
                payload = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for k, v in extra.items():
                    self.send_header(k, v)
                self.end_headers()
                if action[0] == "torn":
                    self.wfile.write(payload[: max(1, len(payload) // 2)])
                    try:
                        self.wfile.flush()
                    except OSError:
                        pass
                    self._abort()
                    return
                self.wfile.write(payload)

            do_GET = do_POST = _handle

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        servers.append((httpd, thread))
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        return url, script

    yield start
    for httpd, thread in servers:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def _err_doc(code="service.closed", status=503):
    return repro_io.to_wire(
        repro_io.ErrorResponse(
            code=code, message="scripted", request_id="rid", status=status
        )
    )


def _update_doc(version=1, node=None):
    return repro_io.to_wire(
        repro_io.UpdateResponse(graph_version=version, request_id="rid", node=node)
    )


def _fast_client(url, **kw):
    kw.setdefault("retry", BackoffPolicy(max_retries=4, base_s=0.001, cap_s=0.01))
    kw.setdefault("deadline_s", 10.0)
    kw.setdefault("timeout_s", 5.0)
    kw.setdefault("metrics", MetricsRegistry())
    return PricingClient(url, **kw)


class TestClientRetryMechanics:
    def test_retries_through_503_to_success(self, scripted):
        url, script = scripted(
            [
                ("json", 503, {}, _err_doc()),
                ("json", 503, {}, _err_doc()),
                ("json", 200, {}, {"status": "ok"}),
            ]
        )
        with _fast_client(url) as client:
            assert client.healthz() == {"status": "ok"}
            assert client.stats.retries == 2
            assert client.stats.server_errors == 2
        assert len(script.requests) == 3

    def test_retry_after_stretches_the_backoff(self, scripted):
        url, _ = scripted(
            [
                ("json", 503, {"Retry-After": "0.3"}, _err_doc()),
                ("json", 200, {}, {"status": "ok"}),
            ]
        )
        with _fast_client(url) as client:
            t0 = time.monotonic()
            client.healthz()
            elapsed = time.monotonic() - t0
        # The jitter ceiling is 1ms; only Retry-After explains the wait.
        assert elapsed >= 0.25

    def test_non_retryable_4xx_raises_original_taxonomy_class(self, scripted):
        url, script = scripted(
            [("json", 400, {}, _err_doc(code="request.invalid", status=400))]
        )
        with _fast_client(url) as client:
            with pytest.raises(InvalidRequestError):
                client.healthz()
            assert client.stats.retries == 0
        assert len(script.requests) == 1

    def test_connection_reset_is_retried(self, scripted):
        url, _ = scripted([("reset",), ("json", 200, {}, {"status": "ok"})])
        with _fast_client(url) as client:
            assert client.healthz() == {"status": "ok"}
            assert client.stats.transport_failures == 1

    def test_torn_body_is_a_transport_failure(self, scripted):
        big = {"status": "ok", "pad": "x" * 512}
        url, _ = scripted([("torn", 200, {}, big), ("json", 200, {}, big)])
        with _fast_client(url) as client:
            assert client.healthz()["status"] == "ok"
            assert client.stats.transport_failures == 1

    def test_deadline_header_propagates_shrinking_budget(self, scripted):
        url, script = scripted(
            [
                ("json", 503, {"Retry-After": "0.1"}, _err_doc()),
                ("json", 503, {"Retry-After": "0.1"}, _err_doc()),
                ("json", 200, {}, {"status": "ok"}),
            ]
        )
        with _fast_client(url, deadline_s=4.0) as client:
            client.healthz()
        budgets = [float(r["headers"]["x-deadline-s"]) for r in script.requests]
        assert len(budgets) == 3
        assert all(0.0 < b <= 4.0 for b in budgets)
        # Each retry burned >= 0.1s of Retry-After sleep.
        assert budgets[0] > budgets[1] > budgets[2]

    def test_update_reuses_one_idempotency_key_across_retries(self, scripted):
        url, script = scripted(
            [
                ("json", 503, {}, _err_doc()),
                ("json", 200, {}, _update_doc(version=1)),
                ("json", 200, {}, _update_doc(version=2)),
            ]
        )
        with _fast_client(url, seed=5) as client:
            assert client.update_cost(3, 7.5).graph_version == 1
            assert client.update_cost(3, 8.5).graph_version == 2
        keys = [r["headers"]["idempotency-key"] for r in script.requests]
        assert keys[0] == keys[1]  # the retry replays the same key
        assert keys[2] != keys[0]  # a new call mints a new key
        # Keys do not follow the seed: a same-seed client mints a
        # disjoint prefix, so its updates are never replayed as ours.
        with _fast_client(url, seed=5) as twin:
            assert twin._idem_prefix != keys[0].rsplit("-", 1)[0]

    def test_reads_carry_no_idempotency_key(self, scripted):
        url, script = scripted([("json", 200, {}, {"status": "ok"})])
        with _fast_client(url) as client:
            client.healthz()
        assert "idempotency-key" not in script.requests[0]["headers"]

    def test_server_replay_header_is_counted(self, scripted):
        url, _ = scripted(
            [("json", 200, {"Idempotency-Replay": "true"}, _update_doc())]
        )
        with _fast_client(url) as client:
            client.update_cost(1, 2.0)
            assert client.stats.idempotent_replays == 1

    def test_retry_exhausted_carries_the_last_error(self, scripted):
        url, _ = scripted([("json", 503, {}, _err_doc())] * 3)
        with _fast_client(
            url, retry=BackoffPolicy(max_retries=2, base_s=0.001, cap_s=0.01)
        ) as client:
            with pytest.raises(RetryExhaustedError) as exc_info:
                client.healthz()
        assert isinstance(exc_info.value.last, ServiceClosedError)

    def test_backoff_that_would_overrun_deadline_fails_fast(self, scripted):
        url, _ = scripted([("json", 503, {"Retry-After": "30"}, _err_doc())])
        with _fast_client(url, deadline_s=0.5) as client:
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.healthz()
            assert time.monotonic() - t0 < 5.0  # did not sleep the 30s
            assert client.stats.deadline_expired == 1

    def test_breaker_short_circuits_after_repeated_failures(self, scripted):
        url, script = scripted([("json", 500, {}, _err_doc(code="internal", status=500))] * 4)
        breaker = CircuitBreaker(
            window=4,
            failure_threshold=0.5,
            min_volume=2,
            cooldown_s=60.0,
            metrics=MetricsRegistry(),
        )
        with _fast_client(
            url,
            breaker=breaker,
            retry=BackoffPolicy(max_retries=1, base_s=0.001, cap_s=0.01),
        ) as client:
            with pytest.raises(RetryExhaustedError):
                client.healthz()
            assert breaker.state == CircuitBreaker.OPEN
            with pytest.raises(CircuitOpenError):
                client.healthz()
            assert client.stats.short_circuits == 1
        # The short-circuited call never reached the wire.
        assert len(script.requests) == 2

    def test_closed_client_refuses_calls(self, scripted):
        url, _ = scripted([])
        client = _fast_client(url)
        client.close()
        with pytest.raises(ClientError):
            client.healthz()

    def test_rejects_non_http_urls(self):
        with pytest.raises(ClientError):
            PricingClient("https://example.com")


# ---------------------------------------------------------------------------
# Chaos against the real server
# ---------------------------------------------------------------------------


def _stack(chaos=None, *, nodes=24, seed=17, workers=2):
    g = gen.random_biconnected_graph(nodes, seed=seed)
    eng = PricingEngine(g, on_monopoly="inf")
    svc = PricingService(eng, workers=workers, max_queue=32, deadline_s=30.0)
    server = ServiceServer(svc, port=0, chaos=chaos).start()
    return g, svc, server


def _raw_body(url, payload):
    req = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.read()


class TestChaosOnTheWire:
    def test_no_plan_and_null_plan_are_byte_identical(self):
        """The chaos hook off ⇒ wire bytes identical to a chaos-free build."""
        payload = json.dumps(
            repro_io.to_wire(repro_io.PriceRequest(5, 0))
        ).encode()
        bodies = []
        for chaos in (None, ChaosPlan({"*": ChaosRule()}, metrics=MetricsRegistry())):
            _g, svc, server = _stack(chaos)
            try:
                raw = _raw_body(f"{server.url}/v1/price", payload)
            finally:
                server.stop()
                svc.close()
            rid = repro_io.from_wire(json.loads(raw)).request_id.encode()
            bodies.append(raw.replace(rid, b"RID"))
        assert bodies[0] == bodies[1]

    def test_injected_5xx_exhausts_retries_with_typed_error(self):
        plan = ChaosPlan(
            {"/v1/price": ChaosRule(error_p=1.0, error_status=502)},
            metrics=MetricsRegistry(),
        )
        _g, svc, server = _stack(plan)
        try:
            with _fast_client(
                server.url,
                retry=BackoffPolicy(max_retries=2, base_s=0.001, cap_s=0.01),
            ) as client:
                with pytest.raises(RetryExhaustedError):
                    client.price(5, 0)
                assert client.stats.server_errors == 3
                # The chaos scope is per-endpoint: telemetry is clean.
                assert client.healthz()["status"] == "ok"
        finally:
            server.stop()
            svc.close()

    def test_client_retries_through_resets_and_torn_responses(self):
        # Every other request dies mid-flight; the retry layer must
        # still converge on real answers, bit-identical to the engine.
        plan = ChaosPlan(
            {"/v1/price": ChaosRule(reset_p=0.3, torn_p=0.3)},
            seed=5,
            metrics=MetricsRegistry(),
        )
        g, svc, server = _stack(plan)
        try:
            with _fast_client(
                server.url,
                retry=BackoffPolicy(max_retries=10, base_s=0.001, cap_s=0.02),
                seed=3,
            ) as client:
                for s in range(1, 11):
                    resp = client.price(s, 0)
                    want = vcg_unicast_payments(
                        g, s, 0, method="fast", on_monopoly="inf"
                    )
                    assert answer_key(resp.payment) == answer_key(want)
                assert client.stats.transport_failures > 0
        finally:
            server.stop()
            svc.close()

    def test_torn_update_ack_is_replayed_not_reapplied(self):
        # Tear the first /v1/update ack only: the mutation lands, the
        # client never sees it, retries with the same Idempotency-Key,
        # and must get the *cached* first response back.
        plan = ChaosPlan(
            {"/v1/update": ChaosRule(torn_p=1.0)},
            seed=1,
            metrics=MetricsRegistry(),
        )
        _g, svc, server = _stack(plan)
        # Disarm chaos after the first torn attempt so the retry goes
        # through cleanly.
        orig_decide = plan.decide
        fired = threading.Event()

        def decide_once(path):
            if path == "/v1/update" and not fired.is_set():
                fired.set()
                return orig_decide(path)
            return None

        plan.decide = decide_once
        try:
            with _fast_client(server.url, seed=2) as client:
                resp = client.update_cost(3, 9.25)
                assert resp.graph_version == 1
                assert client.stats.transport_failures == 1
                assert client.stats.idempotent_replays == 1
                # Applied exactly once: the engine is at version 1.
                assert svc.engine.version == 1
        finally:
            server.stop()
            svc.close()

    def test_same_seed_clients_both_apply_their_updates(self):
        # Two default-seed clients against one server: each update must
        # be applied, not answered from the other client's cached reply.
        _g, svc, server = _stack()
        try:
            with _fast_client(server.url) as a, _fast_client(server.url) as b:
                a.update_cost(3, 7.25)
                b.update_cost(4, 8.5)
                costs = a.graph().graph.costs
            assert costs[3] == 7.25 and costs[4] == 8.5
            assert svc.engine.version == 2
        finally:
            server.stop()
            svc.close()

    def test_chaos_load_answers_match_serial_oracle(self):
        # The in-process chaos gate: mixed faults on every /v1/ call,
        # interleaved updates and prices, then a serial replay of the
        # recorded update history must reproduce every payment.
        plan = ChaosPlan(
            {"*": ChaosRule(
                latency_p=0.2, latency_s=0.002,
                error_p=0.1, reset_p=0.1, torn_p=0.1,
            )},
            seed=13,
            metrics=MetricsRegistry(),
        )
        g0, svc, server = _stack(plan, nodes=28, seed=23)
        updates, records = [], []
        try:
            with _fast_client(
                server.url,
                retry=BackoffPolicy(max_retries=12, base_s=0.001, cap_s=0.05),
                deadline_s=30.0,
                seed=7,
            ) as client:
                from random import Random

                rng = Random(99)
                for i in range(40):
                    if i % 5 == 4:
                        node = rng.randrange(1, 28)
                        value = round(rng.uniform(0.5, 20.0), 3)
                        resp = client.update_cost(node, value)
                        updates.append((resp.graph_version, node, value))
                    else:
                        s = rng.randrange(1, 28)
                        resp = client.price(s, 0)
                        records.append(
                            (s, 0, resp.graph_version, resp.payment)
                        )
        finally:
            server.stop()
            svc.close()
        graph_at = {0: g0}
        current = g0
        for version, node, value in sorted(set(updates)):
            current = current.with_declaration(node, value)
            graph_at[version] = current
        for s, t, version, payment in records:
            assert version in graph_at
            want = vcg_unicast_payments(
                graph_at[version], s, t, method="fast", on_monopoly="inf"
            )
            assert answer_key(payment) == answer_key(want)


# ---------------------------------------------------------------------------
# Supervisor: kill -9 mid-load, recover from the WAL, answers stay exact
# ---------------------------------------------------------------------------


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestSupervisor:
    def test_serve_argv_shape(self):
        argv = serve_argv(
            "py", nodes=24, seed=7, port=8080, checkpoint_dir="/tmp/x",
            extra=("--degrade",),
        )
        assert argv[:4] == ["py", "-m", "repro.cli", "serve"]
        assert "--degrade" in argv and "/tmp/x" in argv

    def test_kill9_midload_recovers_to_bit_identical_answers(self, tmp_path):
        port = _free_port()
        argv = serve_argv(
            nodes=24,
            seed=7,
            port=port,
            checkpoint_dir=str(tmp_path / "ckpt"),
            workers=2,
            fsync="always",
        )
        sup = Supervisor(
            argv,
            f"http://127.0.0.1:{port}",
            probe_interval_s=0.1,
            restart_backoff_s=0.1,
            max_restarts=3,
            metrics=MetricsRegistry(),
        )
        updates, records = [], []
        with sup:
            sup.wait_ready(timeout_s=60.0)
            with _fast_client(
                f"http://127.0.0.1:{port}",
                retry=BackoffPolicy(max_retries=10, base_s=0.05, cap_s=0.5),
                deadline_s=60.0,
                seed=4,
            ) as client:
                head = client.graph()
                g0, v0 = head.graph, head.graph_version
                from random import Random

                rng = Random(17)

                def one_op(i):
                    if i % 4 == 3:
                        node = rng.randrange(1, 24)
                        value = round(rng.uniform(0.5, 20.0), 3)
                        resp = client.update_cost(node, value)
                        updates.append((resp.graph_version, node, value))
                    else:
                        s = rng.randrange(1, 24)
                        resp = client.price(s, 0)
                        records.append((s, 0, resp.graph_version, resp.payment))

                for i in range(8):
                    one_op(i)
                sup.kill_child()  # SIGKILL mid-load: WAL recovery restart
                for i in range(8, 20):
                    one_op(i)
        assert sup.restarts == 1
        assert not sup.failed
        assert any(e.kind == "exit" for e in sup.events)
        # Serial oracle replay: every answer bit-identical at its version.
        graph_at = {v0: g0}
        current = g0
        for version, node, value in sorted(set(updates)):
            current = current.with_declaration(node, value)
            graph_at[version] = current
        assert records, "no priced answers recorded"
        for s, t, version, payment in records:
            assert version in graph_at
            want = vcg_unicast_payments(
                graph_at[version], s, t, method="fast", on_monopoly="inf"
            )
            assert answer_key(payment) == answer_key(want)

    def test_kill_child_without_child_raises(self):
        sup = Supervisor(["true"], "http://127.0.0.1:1", metrics=MetricsRegistry())
        from repro.errors import SupervisorError

        with pytest.raises(SupervisorError):
            sup.kill_child()
