"""repro.obs — metrics, tracing, and structured logging.

The observability layer the rest of the library records into:

* :mod:`repro.obs.metrics` — process-wide counters/gauges/timers behind
  a disabled-by-default registry with a no-op fast path;
* :mod:`repro.obs.tracing` — nestable spans + Chrome trace-event export;
* :mod:`repro.obs.logging` — stdlib loggers with ``key=value`` or JSON
  formatting, configured once via :func:`configure`;
* :mod:`repro.obs.export` — JSON / Prometheus exposition of snapshots;
* :mod:`repro.obs.context` — request-scoped correlation ids threaded
  automatically into spans, log lines, and flight events;
* :mod:`repro.obs.flight` — always-on fixed-size ring of recent engine
  events, dumped to JSON on unexpected engine errors.

The HTTP routes that expose these live (``/metrics``, ``/healthz``,
``/snapshot``, ``/flight``) belong to the one server in
:mod:`repro.service.http`.

Everything except the flight recorder is off until opted into (CLI
``--metrics`` / ``--trace-out`` / ``--log-level`` / ``--serve``, the
benchmark harness, or an explicit :func:`enable`), so instrumented hot
paths pay ~zero cost by default.
"""

from __future__ import annotations

from repro.obs import export
from repro.obs.context import current_request_id, request_scope
from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.logging import configure, get_logger
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    timed,
)
from repro.obs.tracing import TRACER, Tracer, span

__all__ = [
    "REGISTRY",
    "TRACER",
    "FLIGHT",
    "FlightRecorder",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Tracer",
    "configure",
    "get_logger",
    "current_request_id",
    "request_scope",
    "timed",
    "span",
    "export",
    "enable",
    "disable",
]


def enable(metrics: bool = True, tracing: bool = False) -> None:
    """Turn on the process-wide collectors (registry and/or tracer)."""
    if metrics:
        REGISTRY.enable()
    if tracing:
        TRACER.enable()


def disable() -> None:
    """Turn off both process-wide collectors."""
    REGISTRY.disable()
    TRACER.disable()
