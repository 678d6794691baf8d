"""The concurrent pricing service: admission control + HTTP API.

The paper's setting is inherently online — nodes keep declaring costs,
sources keep asking for truthful unicast prices — and the ROADMAP's
north star is a system that serves that traffic concurrently. This
package is the serving layer in front of the snapshot-isolated
:class:`~repro.engine.PricingEngine`:

* :class:`PricingService` (:mod:`repro.service.service`) — warm
  current-version hits answered inline on the caller's thread; every
  other request goes to a worker pool behind a bounded admission queue
  with backpressure (429), per-request deadlines (504) and
  duplicate-request coalescing; a graceful drain finishes queued work,
  checkpoints, and closes the engine.
* :class:`ServiceServer` (:mod:`repro.service.http`) — the stdlib
  HTTP JSON API: ``POST /v1/price`` / ``/v1/price_many`` /
  ``/v1/update``, ``GET /v1/graph`` and ``/readyz``, mounted on the
  route table of :class:`HttpServer`, the library's one HTTP server,
  which serves the telemetry family (``/metrics``, ``/healthz``, ...)
  on the same port. Messages are the versioned wire envelopes of
  :mod:`repro.io`; failures map to HTTP statuses through the one
  shared table in :mod:`repro.errors`.

The availability layer on top (this PR's *resilience* family):

* :class:`PricingClient` (:mod:`repro.service.resilience`) — the
  retrying, breaker-guarded HTTP client: capped exponential backoff
  with seeded full jitter, ``Retry-After`` honoring, deadline
  propagation (``X-Deadline-S``), idempotency keys for mutations.
* :class:`ChaosPlan` (:mod:`repro.service.chaos`) — seeded
  server-side fault injection (latency, 5xx, resets, torn responses);
  off ⇒ byte-identical responses.
* :class:`DegradePolicy` (:mod:`repro.service.service`) — explicit
  stale-but-stamped answers when the queue saturates or the engine is
  mid-recovery (a pair served inline never needs one).
* :class:`Supervisor` (:mod:`repro.service.supervisor`) — child-
  process supervision with ``/healthz`` probes and WAL-recovery
  restarts.

``python -m repro.cli serve`` boots the whole stack (``client`` drives
it); the contract — endpoints, error codes, backpressure tuning, drain
semantics, failure handling — is documented in ``docs/service.md``.
"""

from repro.service.chaos import ChaosPlan, ChaosRule
from repro.service.http import HttpServer, ServiceServer
from repro.service.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ClientStats,
    PricingClient,
)
from repro.service.service import (
    BatchAnswer,
    DegradePolicy,
    PricedAnswer,
    PricingService,
    ServiceStats,
)
from repro.service.supervisor import Supervisor, SupervisorEvent

__all__ = [
    "PricingService",
    "HttpServer",
    "ServiceServer",
    "ServiceStats",
    "PricedAnswer",
    "BatchAnswer",
    "DegradePolicy",
    "PricingClient",
    "BackoffPolicy",
    "CircuitBreaker",
    "ClientStats",
    "ChaosPlan",
    "ChaosRule",
    "Supervisor",
    "SupervisorEvent",
]
