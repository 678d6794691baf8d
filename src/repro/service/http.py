"""The library's one HTTP server: telemetry routes plus the ``/v1`` pricing API.

:class:`HttpServer` is a stdlib server on a daemon thread that
dispatches every request through one route table keyed by
``(method, path)``. It always serves the telemetry routes:

``GET /metrics``
    The metrics registry in Prometheus text exposition format
    (:func:`repro.obs.export.to_prometheus_text`): counters, gauges,
    timer summaries and duration-histogram buckets.
``GET /healthz``
    Liveness JSON: status, uptime, collector states and flight-event
    count, plus whatever the ``health`` hook contributes.
``GET /snapshot``
    The full :class:`~repro.obs.metrics.MetricsSnapshot` as JSON
    (:func:`repro.obs.export.snapshot_to_json`, round-trippable).
``GET /flight``
    The flight recorder's ring as JSON, oldest event first.
``GET /``
    The route table: ``"METHOD /path"`` -> one-line description.

``engine --serve`` runs :class:`HttpServer` with just those routes and
an engine ``health`` hook. :class:`ServiceServer` fronts a
:class:`~repro.service.PricingService` and mounts the pricing API on
the same table, so one port serves both planes:

``POST /v1/price``
    Body: a ``price-request`` wire envelope (:mod:`repro.io`).
    Response: ``price-response`` — the payment, its ``graph_version``,
    the serving request id, and whether the call coalesced.
``POST /v1/price_many``
    Body: ``price-many-request``; response: ``price-many-response``.
``POST /v1/update``
    Body: ``update-request`` (``op`` = ``cost`` | ``add_node`` |
    ``remove_node``); response: ``update-response`` with the published
    version.
``GET /v1/graph``
    The current snapshot as a ``graph-response`` envelope (the nested
    graph payload round-trips through :func:`repro.io.from_wire`).
``GET /readyz``
    Readiness, split from liveness: 503 with the blocking reasons
    (``draining``, ``recovering``, ...) while the server should not
    receive traffic, 200 otherwise. Load balancers and the CI smoke
    gate on this; ``/healthz`` stays 200 through a drain so
    supervisors don't kill a process that is shutting down cleanly.
    The service's ``/healthz`` adds the engine version/model and the
    queue depth and drain state through the ``health`` hook.

Failure-handling headers (see ``docs/service.md``):

* 429/503 error responses carry ``Retry-After`` (decimal seconds,
  from :data:`repro.errors.RETRY_AFTER_S`) so well-behaved clients
  back off by the server's own estimate.
* ``X-Deadline-S`` on a request caps the admission deadline at the
  caller's remaining budget — work the caller has already abandoned
  is dropped in the queue instead of computed.
* ``Idempotency-Key`` on ``POST /v1/update`` makes retried mutations
  safe: the first successful response is cached per key and replayed
  (with ``Idempotency-Replay: true``) for duplicates.

A seeded :class:`~repro.service.chaos.ChaosPlan` may be attached to
inject faults (latency, 5xx, connection resets, torn responses) for
resilience testing; with no plan attached the request path — and every
wire byte — is identical to a chaos-free build.

Every request runs inside :func:`repro.obs.context.request_scope`: the
minted id is returned as the ``X-Request-Id`` header on every response
(and inside the ``/v1`` response envelopes), and it joins the tracing
contextvars so spans and flight-recorder events correlate with the
wire. Failures become ``error-response`` envelopes; the status comes
from the one shared table in :mod:`repro.errors` (429 queue-full,
504 deadline, 404 unknown node, 422 disconnected/monopoly, 400
malformed envelope, 503 draining). Requests the stdlib rejects before
routing (an unsupported method, a malformed request line, oversized
headers) get an ``error-response`` with code ``request.invalid`` and
the stdlib's status, and close the connection.

The server stays deliberately stdlib:
:class:`~http.server.ThreadingHTTPServer` gives one thread per
connection, and the admission queue inside
:class:`~repro.service.PricingService` — not the socket listener — is
the concurrency limiter that matters. It binds ``127.0.0.1`` by
default; ``port=0`` picks an ephemeral port (read it back from
:attr:`HttpServer.port`).

Connections are HTTP/1.1 and persistent: one client connection carries
all of its requests, so a warm price pays no TCP connect, accept or
thread spawn. Each response leaves in a single write (status line,
headers and body together), because a split write on a kept-alive
connection stalls on Nagle's algorithm against the peer's delayed ACK.
A response closes its connection (``Connection: close``) when it is
sent without reading the whole request body — an unknown route, a bad
or oversized ``Content-Length``, a ``Transfer-Encoding`` body — so
leftover bytes are never parsed as the next request, and once the
service is draining. Idle connections time out after
:data:`IDLE_TIMEOUT_S`, and :meth:`HttpServer.stop` shuts down every
live connection. HTTP/1.0 requests still close after one response.
Accepted connections are counted as ``service.http.connections`` and
each route's handling time as the timer ``service.http.<route>_time``.
"""

from __future__ import annotations

import io
import json
import logging
import math
import socket
import struct
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping, NamedTuple

from repro import io as repro_io
from repro.errors import (
    InvalidRequestError,
    SerializationError,
    error_code,
    http_status,
    retry_after_s,
)
from repro.obs import logging as obs_logging
from repro.obs.context import current_request_id, mint_request_id, request_scope
from repro.obs.export import snapshot_to_json, to_prometheus_text
from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.tracing import TRACER
from repro.service.chaos import ChaosPlan
from repro.service.service import PricingService

__all__ = ["HttpServer", "ServiceServer", "Reply", "json_reply", "IDLE_TIMEOUT_S"]

_log = obs_logging.get_logger("service.http")

JSON = "application/json; charset=utf-8"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Reject request bodies past this size before parsing (a pricing
#: request is tiny; a batch of every pair in a 10k-node graph still
#: fits comfortably).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before its handler thread closes it.
IDLE_TIMEOUT_S = 60.0

#: Entries kept in the ``Idempotency-Key`` replay cache of
#: ``POST /v1/update`` (least recently used beyond that).
IDEMPOTENCY_CAP = 1024


class Reply(NamedTuple):
    """One response, as a route returns it."""

    body: str
    content_type: str = JSON
    status: int = 200
    headers: Mapping[str, str] | None = None


#: Compact separators keep ``json.dumps`` on the C encoder (``indent``
#: forces the pure-Python one); built once instead of per reply.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def json_reply(
    doc, status: int = 200, headers: Mapping[str, str] | None = None
) -> Reply:
    """``doc`` as a compact JSON response body."""
    return Reply(_ENCODER.encode(doc), JSON, status, headers)


class _Route(NamedTuple):
    fn: Callable[["_Handler"], Reply]
    description: str
    timer: str


class _Listener(ThreadingHTTPServer):
    """The stdlib threading server, plus a registry of live connections.

    ``ThreadingHTTPServer`` neither tracks nor joins its daemon handler
    threads, so a kept-alive connection would outlive
    :meth:`HttpServer.stop`; :meth:`close_connections` ends them.
    """

    def __init__(self, address, app: "HttpServer") -> None:
        self.app = app
        super().__init__(address, _Handler)
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_mu = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-service-conn",
            daemon=True,
        )
        with self._live_mu:
            self._live[request] = thread
        self.app.registry.add("service.http.connections")
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._live_mu:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A peer that resets its kept-alive connection is routine, not
        # a server fault worth a stderr traceback.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    @property
    def open_connections(self) -> int:
        with self._live_mu:
            return len(self._live)

    def close_connections(self, timeout_s: float) -> None:
        """Shut down every live connection and join its handler thread.

        ``SHUT_RD`` wakes a handler blocked on the next request with
        EOF, while a response already being written still goes out.
        Holding the lock keeps :meth:`shutdown_request` from closing a
        socket between the snapshot and its shutdown.
        """
        with self._live_mu:
            threads = list(self._live.values())
            for sock in self._live:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout_s
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


class HttpServer:
    """Background HTTP server: one route table, telemetry routes mounted.

    Parameters
    ----------
    port, host:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    registry, recorder:
        The collectors the telemetry routes expose (default: the
        process-wide :data:`~repro.obs.metrics.REGISTRY` and
        :data:`~repro.obs.flight.FLIGHT`).
    health:
        Optional zero-argument callable returning extra JSON-ready
        fields merged into the ``/healthz`` document on every request.
    chaos:
        An optional seeded :class:`~repro.service.chaos.ChaosPlan`.
        ``None`` (default) leaves the request path untouched.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        health: Callable[[], Mapping] | None = None,
        chaos: ChaosPlan | None = None,
    ) -> None:
        self._host = host
        self._requested_port = int(port)
        self.registry = registry if registry is not None else REGISTRY
        self.recorder = recorder if recorder is not None else FLIGHT
        self.health = health
        self.chaos = chaos
        #: ``(method, path)`` -> route; :meth:`mount` adds to it.
        self.routes: dict[tuple[str, str], _Route] = {}
        self._httpd: _Listener | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0
        self.mount(
            "GET",
            "/metrics",
            lambda _req: Reply(
                to_prometheus_text(self.registry.snapshot()), PROMETHEUS
            ),
            "Prometheus text exposition of the metrics registry",
        )
        self.mount(
            "GET",
            "/healthz",
            lambda _req: json_reply(self.healthz()),
            "liveness + uptime JSON",
        )
        self.mount(
            "GET",
            "/snapshot",
            lambda _req: Reply(
                snapshot_to_json(self.registry.snapshot(), indent=2) + "\n"
            ),
            "full metrics snapshot as JSON",
        )
        self.mount(
            "GET",
            "/flight",
            lambda _req: json_reply(self.recorder.snapshot()),
            "flight-recorder ring (recent engine events) as JSON",
        )
        self.mount(
            "GET",
            "/",
            lambda _req: json_reply({"endpoints": self.endpoints()}),
            "this route table",
        )

    def mount(
        self,
        method: str,
        path: str,
        fn: Callable[["_Handler"], Reply],
        description: str,
    ) -> None:
        """Route ``method path`` to ``fn(request) -> Reply``."""
        name = path.replace("/", ".") if path != "/" else ".index"
        self.routes[(method, path)] = _Route(
            fn, description, f"service.http{name}_time"
        )

    def endpoints(self) -> dict[str, str]:
        """The route table as ``"METHOD /path"`` -> description."""
        return {
            f"{method} {path}": route.description
            for (method, path), route in self.routes.items()
        }

    @property
    def draining(self) -> bool:
        """True while every response should close its connection."""
        return False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "HttpServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            raise RuntimeError(f"{type(self).__name__} is already running")
        self._httpd = _Listener((self._host, self._requested_port), self)
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        _log.info(
            "http server started",
            extra={"host": self._host, "port": self.port},
        )
        return self

    def stop(self) -> None:
        """Stop accepting connections, end the open ones, and join the
        listener (idempotent).

        Kept-alive connections are shut down too, so no client keeps
        being served after this returns.
        """
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections(timeout_s=5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "HttpServer":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def open_connections(self) -> int:
        """Client connections currently held open (0 when stopped)."""
        if self._httpd is None:
            return 0
        return self._httpd.open_connections

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def uptime(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._httpd is None:
            return 0.0
        return time.monotonic() - self._started_at

    def healthz(self) -> dict:
        """The ``/healthz`` document (also callable directly)."""
        doc = {
            "status": "ok",
            "uptime_s": round(self.uptime(), 3),
            "metrics_enabled": self.registry.enabled,
            "tracing_enabled": TRACER.enabled,
            "flight_events": len(self.recorder),
        }
        if self.health is not None:
            doc.update(self.health())
        return doc


class ServiceServer(HttpServer):
    """:class:`HttpServer` with the ``/v1`` pricing API mounted.

    Parameters
    ----------
    service:
        The :class:`~repro.service.PricingService` to front. The server
        never closes it — lifecycle stays with the caller (the CLI
        stops the listener first, then drains the service).
    port, host, registry, recorder, chaos:
        As for :class:`HttpServer`. :meth:`stop` does *not* drain the
        service — call :meth:`PricingService.close` after it for the
        full graceful shutdown (listener first, so no new requests race
        the drain).
    """

    def __init__(
        self,
        service: PricingService,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        chaos: ChaosPlan | None = None,
    ) -> None:
        super().__init__(
            port, host, registry, recorder, health=self._health, chaos=chaos
        )
        self.service = service
        #: Optional hook returning extra not-ready reasons (strings) —
        #: lets an embedding process (supervisor, shared breaker, ...)
        #: take itself out of rotation via ``/readyz``.
        self.ready_hook = None
        self._idem: OrderedDict[str, dict] = OrderedDict()
        self._idem_mu = threading.Lock()
        self.mount(
            "POST",
            "/v1/price",
            self._post_price,
            "price one (source, target) request",
        )
        self.mount(
            "POST",
            "/v1/price_many",
            self._post_price_many,
            "price a batch of ordered pairs",
        )
        self.mount(
            "POST",
            "/v1/update",
            self._post_update,
            "apply a cost/topology mutation",
        )
        self.mount(
            "GET",
            "/v1/graph",
            lambda _req: json_reply(self.handle_graph()),
            "current graph snapshot + version",
        )
        self.mount(
            "GET",
            "/readyz",
            self._get_readyz,
            "readiness (503 + reasons while draining/recovering)",
        )

    @property
    def draining(self) -> bool:
        return self.service.closed

    # -- endpoint payloads (also callable directly, e.g. from tests) --------

    def _health(self) -> dict:
        eng = self.service.engine
        return {
            "status": "draining" if self.service.closed else "ok",
            "engine_version": eng.version,
            "model": eng.model,
            "nodes": eng.n,
            "durable": eng.durable,
            "recovering": self.service.recovering,
            "queue_depth": self.service.queue_depth,
            "max_queue": self.service.max_queue,
            "service": self.service.stats.as_dict(),
        }

    def readyz(self) -> dict:
        """Readiness payload: ``ready`` plus the blocking reasons.

        Liveness (``/healthz``) answers "is the process up"; this
        answers "should it receive traffic". It goes false while the
        service drains, while the engine is flagged mid-recovery, and
        for whatever extra reasons :attr:`ready_hook` reports.
        """
        reasons: list[str] = []
        if self.service.closed:
            reasons.append("draining")
        if self.service.recovering:
            reasons.append("recovering")
        hook = self.ready_hook
        if hook is not None:
            try:
                reasons.extend(str(r) for r in hook())
            except Exception as exc:  # a broken hook must not mask readiness
                reasons.append(f"ready_hook error: {exc}")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "engine_version": self.service.engine.version,
            "queue_depth": self.service.queue_depth,
        }

    # -- idempotency replay cache (POST /v1/update) --------------------------

    def _idem_get(self, key: str) -> dict | None:
        with self._idem_mu:
            doc = self._idem.get(key)
            if doc is not None:
                self._idem.move_to_end(key)
            return doc

    def _idem_put(self, key: str, doc: dict) -> None:
        with self._idem_mu:
            self._idem[key] = doc
            self._idem.move_to_end(key)
            while len(self._idem) > IDEMPOTENCY_CAP:
                self._idem.popitem(last=False)

    # -- routes -------------------------------------------------------------

    def _get_readyz(self, _req) -> Reply:
        doc = self.readyz()
        return json_reply(doc, status=200 if doc["ready"] else 503)

    def _post_price(self, req: "_Handler") -> Reply:
        payload, deadline_s = req.envelope(repro_io.PriceRequest)
        return json_reply(self.handle_price(payload, deadline_s=deadline_s))

    def _post_price_many(self, req: "_Handler") -> Reply:
        payload, deadline_s = req.envelope(repro_io.PriceManyRequest)
        return json_reply(
            self.handle_price_many(payload, deadline_s=deadline_s)
        )

    def _post_update(self, req: "_Handler") -> Reply:
        payload, _ = req.envelope(repro_io.UpdateRequest)
        # Body fully read and valid: a retried update with a known key
        # replays the cached first response instead of re-applying.
        key = req.headers.get("Idempotency-Key")
        if key:
            cached = self._idem_get(key)
            if cached is not None:
                self.registry.add("service.idempotent_replays")
                return json_reply(
                    cached, headers={"Idempotency-Replay": "true"}
                )
        doc = self.handle_update(payload)
        if key:
            self._idem_put(key, doc)
        return json_reply(doc)

    # -- API handlers (one per /v1 route; return a wire envelope) -----------

    def handle_price(
        self, req: repro_io.PriceRequest, deadline_s: float | None = None
    ) -> dict:
        answer = self.service.price(
            req.source,
            req.target,
            deadline_s=_effective_deadline(req.deadline_s, deadline_s),
        )
        return repro_io.to_wire(
            repro_io.PriceResponse(
                payment=answer.payment,
                graph_version=answer.graph_version,
                request_id=current_request_id() or "",
                coalesced=answer.coalesced,
                degraded=answer.degraded,
            )
        )

    def handle_price_many(
        self, req: repro_io.PriceManyRequest, deadline_s: float | None = None
    ) -> dict:
        answer = self.service.price_many(
            req.pairs,
            deadline_s=_effective_deadline(req.deadline_s, deadline_s),
        )
        # Deterministic wire order: request order, duplicates collapsed
        # (the engine prices each distinct pair once).
        seen: set[tuple[int, int]] = set()
        payments = []
        for pair in req.pairs:
            if pair not in seen:
                seen.add(pair)
                payments.append(answer.payments[pair])
        return repro_io.to_wire(
            repro_io.PriceManyResponse(
                payments=tuple(payments),
                graph_version=answer.graph_version,
                request_id=current_request_id() or "",
            )
        )

    def handle_update(self, req: repro_io.UpdateRequest) -> dict:
        node: int | None = None
        if req.op == "cost":
            target = req.node if req.node is not None else req.edge
            version = self.service.update_cost(target, req.value)
        elif req.op == "remove_node":
            version = self.service.remove_node(req.node)
        else:  # "add_node" (op already validated by the envelope)
            node = self.service.add_node(
                cost=req.cost, neighbors=req.neighbors, arcs=req.arcs
            )
            version = self.service.engine.version
        return repro_io.to_wire(
            repro_io.UpdateResponse(
                graph_version=version,
                request_id=current_request_id() or "",
                node=node,
            )
        )

    def handle_graph(self) -> dict:
        graph, version = self.service.graph()
        return repro_io.to_wire(
            repro_io.GraphResponse(
                graph=graph,
                graph_version=version,
                model=self.service.engine.model,
                request_id=current_request_id() or "",
            )
        )


def _effective_deadline(
    envelope_s: float | None, header_s: float | None
) -> float | None:
    """The tighter of the envelope's and the ``X-Deadline-S`` budgets."""
    if envelope_s is None:
        return header_s
    if header_s is None:
        return envelope_s
    return min(envelope_s, header_s)


def _error_doc(code: str, message: str, rid: str, status: int) -> dict:
    return repro_io.to_wire(
        repro_io.ErrorResponse(
            code=code, message=message, request_id=rid, status=status
        )
    )


class _Handler(BaseHTTPRequestHandler):
    """One connection: parses requests and dispatches them through the
    route table of the :class:`HttpServer` that owns the listener."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    _chaos_torn = False

    def setup(self) -> None:
        # Read per connection, so the module constant stays tunable.
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    # Silenced default stderr chatter; requests log at DEBUG instead.
    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("http request", extra={"line": fmt % args})

    def parse_request(self) -> bool:
        # Per-request state on a connection that carries many.
        self._body_read = False
        self._headers_buffer = []
        return super().parse_request()

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self) -> None:
        app = self.server.app
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        self.route_path = path
        route = app.routes.get((self.command, path))
        t0 = time.perf_counter()
        with request_scope(fresh=True) as rid:
            try:
                if route is None:
                    reply = json_reply(
                        {
                            "error": f"no route {self.command} {path}",
                            "endpoints": sorted(app.endpoints()),
                        },
                        status=404,
                    )
                elif self._apply_chaos(path, rid):
                    return
                else:
                    reply = route.fn(self)
                self._send(reply, rid)
            except BrokenPipeError:  # client went away mid-response
                pass
            except Exception as exc:
                try:
                    self._send_error(exc, rid)
                except OSError:
                    pass
            finally:
                if app.registry.enabled:
                    app.registry.observe(
                        route.timer
                        if route is not None
                        else "service.http.unknown_time",
                        time.perf_counter() - t0,
                    )

    do_GET = do_POST = _dispatch

    # -- request side -------------------------------------------------------

    def _body_unread(self) -> bool:
        """True if the request declared a body this handler never
        consumed — keeping the connection would parse it as the next
        request."""
        if self._body_read:
            return False
        if "Transfer-Encoding" in self.headers:
            return True
        return (self.headers.get("Content-Length") or "0").strip() != "0"

    def _content_length(self) -> int:
        if "Transfer-Encoding" in self.headers:
            raise InvalidRequestError(
                "Transfer-Encoding request bodies are not supported; "
                "send Content-Length"
            )
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise InvalidRequestError(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        return length

    def _read_body(self):
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            raise InvalidRequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        self._body_read = True
        try:
            return json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise SerializationError(f"request body is not JSON: {e}")

    def _header_deadline(self) -> float | None:
        raw = self.headers.get("X-Deadline-S")
        if raw is None:
            return None
        try:
            budget = float(raw)
        except ValueError:
            raise InvalidRequestError(
                f"X-Deadline-S must be a number, got {raw!r}"
            ) from None
        if not (math.isfinite(budget) and budget > 0):
            raise InvalidRequestError(
                f"X-Deadline-S must be a finite positive number, got {raw!r}"
            )
        return budget

    def envelope(self, cls: type):
        """The request body as a ``cls`` wire envelope, plus the
        ``X-Deadline-S`` budget (``None`` if absent)."""
        deadline_s = self._header_deadline()
        payload = repro_io.from_wire(self._read_body())
        if not isinstance(payload, cls):
            raise InvalidRequestError(
                f"{self.route_path} expects a {cls.__name__} "
                f"envelope, got {type(payload).__name__}"
            )
        return payload, deadline_s

    # -- response side ------------------------------------------------------

    def _send(self, reply: Reply, rid: str, close: bool = False) -> None:
        payload = reply.body.encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Request-Id", rid)
        if reply.headers:
            for name, value in reply.headers.items():
                self.send_header(name, value)
        if close or self.server.app.draining or self._body_unread():
            self.send_header("Connection", "close")
        # end_headers() without its flush: status line, headers and
        # body leave in one write, since a split write stalls a
        # kept-alive connection on Nagle's algorithm against the
        # peer's delayed ACK.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
        if self._chaos_torn:
            # Injected torn response: the headers promised the full
            # Content-Length, but only half the body goes out before
            # the connection is destroyed — the client must treat this
            # as a transport failure, never parse it.
            self._chaos_torn = False
            self._headers_buffer.append(payload[: max(1, len(payload) // 2)])
            try:
                self.flush_headers()
            except OSError:
                pass
            self._abort_connection()
            return
        if self.command != "HEAD":  # a HEAD response never has a body
            self._headers_buffer.append(payload)
        self.flush_headers()

    def _send_error(self, exc: BaseException, rid: str) -> None:
        status = http_status(exc)
        headers: dict[str, str] | None = None
        if status in (429, 503):
            hint = retry_after_s(exc)
            if hint is not None:
                # Decimal seconds: finer-grained than the RFC's integer
                # (integral hints round-trip unchanged).
                headers = {"Retry-After": f"{hint:g}"}
        doc = _error_doc(error_code(exc), str(exc), rid, status)
        self._send(json_reply(doc, status, headers), rid)

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's protocol errors (unsupported method, malformed
        request line, oversized headers) as ``request.invalid``
        envelopes with the stdlib's status, closing the connection."""
        status = int(code)
        if self.request_version == "HTTP/0.9":
            # A request line that failed to parse leaves the stdlib's
            # HTTP/0.9 default, which would suppress the status line.
            self.request_version = "HTTP/1.0"
        rid = mint_request_id()
        message = message or self.responses.get(status, ("error",))[0]
        doc = _error_doc("request.invalid", message, rid, status)
        try:
            self._send(json_reply(doc, status), rid, close=True)
        except OSError:
            pass

    def _abort_connection(self) -> None:
        """Destroy the connection with an RST (chaos reset/torn).

        ``SO_LINGER`` with a zero timeout turns ``close()`` into an
        abortive close, so the peer sees ``ECONNRESET`` rather than a
        clean EOF. The buffered writer is detached first so the
        handler's ``finish()`` doesn't trip over the dead socket.
        """
        self.close_connection = True
        try:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.connection.close()
        except OSError:
            pass
        self.wfile = io.BytesIO()

    def _apply_chaos(self, path: str, rid: str) -> bool:
        """Inject the plan's faults; True = request fully handled."""
        plan = self.server.app.chaos
        if plan is None:
            return False
        decision = plan.decide(path)
        if decision is None:
            return False
        if decision.latency_s > 0.0:
            time.sleep(decision.latency_s)
        if decision.action == "reset":
            self._abort_connection()
            return True
        if decision.action == "torn":
            self._chaos_torn = True  # _send truncates the real body
            return False
        if decision.action == "error":
            doc = _error_doc(
                "internal", "chaos: injected server error", rid, decision.status
            )
            # Drain the unread request body first: closing with unread
            # bytes resets the connection, and the client could lose
            # the response.
            length = self._content_length()
            if length <= MAX_BODY_BYTES:
                self.rfile.read(length)
                self._body_read = True
            self._send(json_reply(doc, decision.status), rid)
            return True
        return False
