"""Tests for live telemetry: request scoping, the flight recorder,
the telemetry routes of the HTTP server, histogram buckets, and the bench gate."""

import http.client
import io
import json
import logging as stdlib_logging
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import api
from repro.engine import PricingEngine
from repro.errors import DisconnectedError
from repro.graph import generators as gen
from repro.obs import export as obs_export
from repro.obs import logging as obs_logging
from repro.obs.context import (
    current_request_id,
    mint_request_id,
    request_scope,
)
from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.metrics import REGISTRY, TIMER_BUCKETS, MetricsRegistry
from repro.obs.tracing import TRACER
from repro.service import HttpServer, PricingService, ServiceServer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402  (tools/ is not a package)


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Telemetry tests must not leak global collector state."""
    yield
    REGISTRY.disable()
    REGISTRY.reset()
    TRACER.disable()
    TRACER.reset()
    FLIGHT.clear()
    FLIGHT.dump_dir = None


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Request-scoped correlation ids
# ---------------------------------------------------------------------------


class TestRequestScope:
    def test_mint_is_unique_and_tagged_with_pid(self):
        a, b = mint_request_id(), mint_request_id()
        assert a != b
        assert a.startswith("r") and b.startswith("r")

    def test_no_ambient_id_outside_a_scope(self):
        assert current_request_id() is None

    def test_scope_sets_and_restores(self):
        with request_scope() as rid:
            assert current_request_id() == rid
        assert current_request_id() is None

    def test_nested_scope_joins_the_outer_request(self):
        with request_scope() as outer:
            with request_scope() as inner:
                assert inner == outer

    def test_fresh_scope_mints_even_when_nested(self):
        with request_scope() as outer:
            with request_scope(fresh=True) as inner:
                assert inner != outer
            assert current_request_id() == outer

    def test_explicit_id_wins(self):
        with request_scope(request_id="r-forced") as rid:
            assert rid == "r-forced"

    def test_api_price_stamps_spans_and_logs(self, small_graph):
        TRACER.enable()
        logger = obs_logging.get_logger("api")
        stream = io.StringIO()
        handler = stdlib_logging.StreamHandler(stream)
        handler.setFormatter(obs_logging.JsonFormatter())
        logger.addHandler(handler)
        logger.setLevel(stdlib_logging.DEBUG)
        try:
            api.price(small_graph, 0, 3)
            api.price(small_graph, 0, 3)
        finally:
            logger.removeHandler(handler)
        spans = [r for r in TRACER.records if r.name == "api.price"]
        assert len(spans) == 2
        rids = [r.attrs["request_id"] for r in spans]
        assert rids[0] != rids[1], "each call is its own request"
        logged = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        assert [rec["request_id"] for rec in logged] == rids, (
            "log lines and span records must carry the same ids"
        )

    def test_engine_flight_events_share_the_query_request_id(
        self, small_graph
    ):
        FLIGHT.clear()
        engine = PricingEngine(small_graph)
        engine.price(0, 3)
        events = FLIGHT.events()
        rids = {e["request_id"] for e in events}
        assert len(rids) == 1 and None not in rids, (
            "every event of one price() call shares its request id"
        )


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_records_in_order(self):
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.record("query", request_id=f"r{i}", version=i, value=float(i))
        events = rec.events()
        assert [e["version"] for e in events] == [0, 1, 2, 3, 4]
        assert len(rec) == 5 and rec.recorded == 5 and rec.dropped == 0
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)

    def test_wraparound_keeps_newest(self):
        rec = FlightRecorder(capacity=4)
        for i in range(11):
            rec.record("query", version=i)
        assert len(rec) == 4
        assert rec.recorded == 11 and rec.dropped == 7
        assert [e["version"] for e in rec.events()] == [7, 8, 9, 10]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            FlightRecorder(capacity=0)

    def test_disabled_recorder_is_silent(self):
        rec = FlightRecorder(capacity=4, enabled=False)
        rec.record("query")
        assert len(rec) == 0

    def test_clear(self):
        rec = FlightRecorder(capacity=4)
        rec.record("query")
        rec.clear()
        assert len(rec) == 0 and rec.events() == []

    def test_snapshot_is_json_ready(self):
        rec = FlightRecorder(capacity=4)
        rec.record("update", version=2, value=1.5)
        doc = json.loads(json.dumps(rec.snapshot()))
        assert doc["capacity"] == 4
        assert doc["events"][0]["kind"] == "update"

    def test_dump_to_path_and_stream(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("query", request_id="r1")
        path = tmp_path / "flight.json"
        rec.dump(path, error="boom")
        doc = json.loads(path.read_text())
        assert doc["error"] == "boom"
        assert doc["events"][0]["request_id"] == "r1"

    def test_dump_error_writes_file_and_never_raises(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        rec.record("query")
        rec.dump_dir = str(tmp_path)
        out = rec.dump_error(RuntimeError("kaboom"))
        assert out is not None
        doc = json.loads(Path(out).read_text())
        assert doc["error"] == "RuntimeError: kaboom"
        # An unwritable directory degrades to None, not an exception.
        rec.dump_dir = str(tmp_path / "missing" / "deeper")
        assert rec.dump_error(RuntimeError("again")) is None

    def test_dump_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        rec = FlightRecorder(capacity=4)
        rec.record("query")
        out = rec.dump_error(ValueError("env"))
        assert out is not None and Path(out).parent == tmp_path

    def test_engine_dumps_flight_on_unexpected_error(
        self, small_graph, tmp_path, monkeypatch
    ):
        FLIGHT.clear()
        FLIGHT.dump_dir = str(tmp_path)
        engine = PricingEngine(small_graph)
        engine.price(0, 3)  # leave some context in the ring

        def boom(self, key):
            raise RuntimeError("synthetic engine bug")

        monkeypatch.setattr(PricingEngine, "_compute_pair", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            engine.price(1, 4)
        dumps = list(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert "RuntimeError" in doc["error"]
        assert any(e["kind"] == "error" for e in doc["events"])

    def test_engine_domain_errors_do_not_dump(
        self, small_graph, tmp_path, monkeypatch
    ):
        """DisconnectedError is a domain outcome, not a crash."""
        FLIGHT.clear()
        FLIGHT.dump_dir = str(tmp_path)
        engine = PricingEngine(small_graph)

        def gone(self, key):
            raise DisconnectedError(key[0], key[1])

        monkeypatch.setattr(PricingEngine, "_compute_pair", gone)
        with pytest.raises(DisconnectedError):
            engine.price(0, 3)
        assert list(tmp_path.glob("flight-*.json")) == []


# ---------------------------------------------------------------------------
# Telemetry routes of the one HTTP server, on both of its mounts
# ---------------------------------------------------------------------------


class TestTelemetryServer:
    """The telemetry routes on the telemetry-only mount of
    :class:`HttpServer` that ``engine --serve`` runs.
    :class:`TestTelemetryServerOnService` reruns every test here on a
    :class:`ServiceServer`, which serves the same routes."""

    @pytest.fixture
    def mount(self):
        """Builds an unstarted server; ``engine`` feeds ``/healthz``."""

        def build(engine=None, **kw):
            health = None
            if engine is not None:
                health = lambda: {"engine_version": engine.version}  # noqa: E731
            return HttpServer(port=0, health=health, **kw)

        return build

    @pytest.fixture
    def engine(self):
        g = gen.random_biconnected_graph(30, extra_edge_prob=0.15, seed=7)
        return PricingEngine(g)

    def test_all_endpoints_serve(self, mount, engine):
        REGISTRY.enable()
        FLIGHT.clear()
        engine.price(0, 5)
        engine.price(0, 5)
        with mount(engine) as srv:
            assert srv.running and srv.port > 0

            status, metrics = _get(srv.url + "/metrics")
            assert status == 200
            parsed = obs_export.parse_prometheus_text(metrics)
            assert parsed["repro_engine_queries"] == 2.0
            assert parsed["repro_engine_cache_hits"] == 1.0
            assert obs_export.buckets_from_prometheus(
                parsed, "repro_engine_price_time"
            ), "histogram buckets must be scrapeable"

            status, body = _get(srv.url + "/healthz")
            hz = json.loads(body)
            assert hz["status"] == "ok"
            assert hz["metrics_enabled"] is True
            assert hz["engine_version"] == engine.version
            assert hz["flight_events"] == len(FLIGHT)

            status, body = _get(srv.url + "/snapshot")
            snap = obs_export.snapshot_from_json(body)
            assert snap.counters["engine.queries"] == 2
            assert snap.gauges["engine.pair_cache_entries"] == 1.0

            status, body = _get(srv.url + "/flight")
            fl = json.loads(body)
            assert fl["recorded"] == len(FLIGHT)
            assert {e["kind"] for e in fl["events"]} >= {"query", "hit"}

            status, body = _get(srv.url + "/")
            assert "GET /metrics" in json.loads(body)["endpoints"]

    def test_unknown_path_is_404(self, mount):
        with mount() as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(srv.url + "/nope")
            assert exc.value.code == 404
            assert "GET /metrics" in json.loads(exc.value.read())["endpoints"]

    def test_counters_advance_between_scrapes_under_load(self, mount, engine):
        """Scrape a live engine from outside while it serves queries."""
        REGISTRY.enable()
        pairs = [(s, t) for s in range(6) for t in range(10, 16)]
        done = threading.Event()

        def work():
            for s, t in pairs:
                engine.price(s, t)
            done.set()

        with mount(engine) as srv:
            t = threading.Thread(target=work)
            t.start()
            seen = []
            while not done.is_set() or len(seen) < 2:
                _, metrics = _get(srv.url + "/metrics")
                parsed = obs_export.parse_prometheus_text(metrics)
                seen.append(parsed.get("repro_engine_queries", 0.0))
                _, body = _get(srv.url + "/healthz")
                assert json.loads(body)["status"] == "ok"
            t.join()
            _, metrics = _get(srv.url + "/metrics")
            final = obs_export.parse_prometheus_text(metrics)
        assert final["repro_engine_queries"] == len(pairs)
        assert seen == sorted(seen), "counters are monotone across scrapes"

    def test_start_twice_rejected_and_stop_idempotent(self, mount):
        srv = mount().start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                srv.start()
        finally:
            srv.stop()
        srv.stop()  # second stop is a no-op
        assert not srv.running

    def test_custom_registry_and_recorder(self, mount):
        reg = MetricsRegistry(enabled=True)
        reg.add("custom.hits", 3)
        rec = FlightRecorder(capacity=4)
        rec.record("query", request_id="rX")
        with mount(registry=reg, recorder=rec) as srv:
            _, metrics = _get(srv.url + "/metrics")
            assert (
                obs_export.parse_prometheus_text(metrics)[
                    "repro_custom_hits"
                ]
                == 3.0
            )
            _, body = _get(srv.url + "/flight")
            assert json.loads(body)["events"][0]["request_id"] == "rX"

    def test_scrapes_share_one_connection(self, mount):
        reg = MetricsRegistry(enabled=True)
        with mount(registry=reg) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=5)
            try:
                for path in ("/metrics", "/snapshot"):
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    resp.read()
                    assert resp.status == 200 and not resp.will_close
            finally:
                conn.close()
        assert reg.snapshot().counters["service.http.connections"] == 1


class TestTelemetryServerOnService(TestTelemetryServer):
    """Every telemetry-route test, on a :class:`ServiceServer`."""

    @pytest.fixture
    def mount(self):
        services = []

        def build(engine=None, **kw):
            if engine is None:
                engine = PricingEngine(gen.random_biconnected_graph(12, seed=3))
            svc = PricingService(engine, workers=1)
            services.append(svc)
            return ServiceServer(svc, port=0, **kw)

        yield build
        for svc in services:
            svc.close()


# ---------------------------------------------------------------------------
# Timer histogram buckets
# ---------------------------------------------------------------------------


class TestHistogramBuckets:
    def test_observations_land_in_the_right_bucket(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("t", 0.0002)   # -> le=0.00025
        reg.observe("t", 0.003)    # -> le=0.005
        reg.observe("t", 100.0)    # -> le=+Inf
        st = reg.snapshot().timers["t"]
        cum = dict(st.cumulative_buckets())
        assert cum[0.0001] == 0
        assert cum[0.00025] == 1
        assert cum[0.005] == 2
        assert cum[float("inf")] == 3 == st.count

    def test_prometheus_exposition_and_scrape_round_trip(self):
        reg = MetricsRegistry(enabled=True)
        for s in (0.0002, 0.003, 0.003, 2.0):
            reg.observe("price_time", s)
        text = obs_export.to_prometheus_text(reg.snapshot(), prefix="repro")
        parsed = obs_export.parse_prometheus_text(text)
        buckets = obs_export.buckets_from_prometheus(
            parsed, "repro_price_time"
        )
        assert len(buckets) == len(TIMER_BUCKETS) + 1
        assert buckets[-1] == (float("inf"), 4.0)
        cum = [c for _, c in buckets]
        assert cum == sorted(cum), "bucket counts are cumulative"

    def test_merge_is_exact_and_flags_approx(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for s in (0.0002, 0.003):
            a.observe("t", s)
        for s in (0.003, 2.0):
            b.observe("t", s)
        a.merge_snapshot(b.snapshot())
        st = a.snapshot().timers["t"]
        assert st.approx, "merged percentiles are estimates"
        assert st.as_dict()["approx"] is True
        cum = dict(st.cumulative_buckets())
        assert cum[0.00025] == 1 and cum[0.005] == 3
        assert cum[float("inf")] == 4, "bucket merge is exact"

    def test_json_round_trip_preserves_buckets_and_approx(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("t", 0.003)
        snap = reg.snapshot()
        restored = obs_export.snapshot_from_json(
            obs_export.snapshot_to_json(snap)
        )
        assert restored.timers["t"] == snap.timers["t"]
        assert restored.timers["t"].buckets == snap.timers["t"].buckets


# ---------------------------------------------------------------------------
# Engine gauges
# ---------------------------------------------------------------------------


class TestEngineGauges:
    def test_cache_and_log_gauges_track_engine_state(self, small_graph):
        REGISTRY.enable()
        engine = PricingEngine(small_graph)
        engine.price(0, 3)
        engine.update_cost(1, 9.0)
        engine.price(0, 3)
        g = REGISTRY.snapshot().gauges
        sizes = engine.cache_sizes()
        assert g["engine.spt_cache_entries"] == sizes["spts"]
        assert g["engine.pair_cache_entries"] == sizes["pairs"]
        assert g["engine.update_log_entries"] >= 1


# ---------------------------------------------------------------------------
# tools/bench_compare.py
# ---------------------------------------------------------------------------


def _bench_json(path: Path, entries: dict[str, float]) -> Path:
    doc = {
        "benchmarks": [
            {"fullname": name, "stats": {"min": v, "mean": v * 1.1}}
            for name, v in entries.items()
        ]
    }
    path.write_text(json.dumps(doc))
    return path


class TestBenchCompare:
    def test_ok_within_threshold(self, tmp_path, capsys):
        base = _bench_json(tmp_path / "a.json", {"b/x.py::t1": 1.0})
        cur = _bench_json(tmp_path / "b.json", {"b/x.py::t1": 1.2})
        assert bench_compare.main([str(base), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "OK: 1 benchmark(s)" in out

    def test_regression_fails(self, tmp_path, capsys):
        base = _bench_json(
            tmp_path / "a.json", {"b/x.py::t1": 1.0, "b/x.py::t2": 1.0}
        )
        cur = _bench_json(
            tmp_path / "b.json", {"b/x.py::t1": 2.0, "b/x.py::t2": 1.0}
        )
        rc = bench_compare.main(
            [str(base), str(cur), "--threshold", "0.5"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "SLOWER" in captured.out
        assert "b/x.py::t1" in captured.err

    def test_no_common_benchmarks_is_an_error(self, tmp_path, capsys):
        base = _bench_json(tmp_path / "a.json", {"b/x.py::t1": 1.0})
        cur = _bench_json(tmp_path / "b.json", {"b/y.py::t9": 1.0})
        assert bench_compare.main([str(base), str(cur)]) == 2
        assert "no benchmarks in common" in capsys.readouterr().err

    def test_only_filter_scopes_the_gate(self, tmp_path):
        base = _bench_json(
            tmp_path / "a.json",
            {"b/x.py::t1": 1.0, "b/slow.py::t1": 1.0},
        )
        cur = _bench_json(
            tmp_path / "b.json",
            {"b/x.py::t1": 1.0, "b/slow.py::t1": 9.0},
        )
        # The regression lives outside the filter -> gate passes.
        assert (
            bench_compare.main(
                [str(base), str(cur), "--only", "b/x.py"]
            )
            == 0
        )
        assert bench_compare.main([str(base), str(cur)]) == 1

    def test_new_and_missing_are_reported_not_failed(
        self, tmp_path, capsys
    ):
        base = _bench_json(
            tmp_path / "a.json", {"b/x.py::t1": 1.0, "b/x.py::old": 1.0}
        )
        cur = _bench_json(
            tmp_path / "b.json", {"b/x.py::t1": 1.0, "b/x.py::new": 1.0}
        )
        assert bench_compare.main([str(base), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "missing" in out

    def test_json_report_output(self, tmp_path):
        base = _bench_json(tmp_path / "a.json", {"b/x.py::t1": 1.0})
        cur = _bench_json(tmp_path / "b.json", {"b/x.py::t1": 3.0})
        out = tmp_path / "report.json"
        rc = bench_compare.main(
            [str(base), str(cur), "--json", str(out)]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["regressions"] == ["b/x.py::t1"]
        assert doc["rows"][0]["ratio"] == pytest.approx(3.0)
