"""The concurrent pricing service: admission control over a shared engine.

:class:`PricingService` is the piece between the HTTP layer
(:mod:`repro.service.http`) and the snapshot-isolated
:class:`~repro.engine.PricingEngine`. The engine guarantees that
concurrent queries are bit-identical to a serial execution; this layer
adds the serving policies a shared engine needs under load:

* **Inline warm hits.** A pair the engine holds at the current
  ``graph_version`` is answered on the caller's thread
  (:meth:`PricingEngine.price_hit`): the cached payment is the exact
  answer, so it needs no worker, deadline or coalescing. It is counted
  as ``inline`` and never rejected, even when the queue is full. A
  miss, a stale entry, or a writer holding or awaiting the engine lock
  sends the request down the queued path below.
* **Bounded admission queue.** Every other price query, and every
  batch, passes through a ``queue.Queue(maxsize=max_queue)`` drained
  by a fixed worker pool. A full queue rejects *immediately* with
  :class:`~repro.errors.ServiceOverloadedError` (HTTP 429) — callers
  get a fast, honest "back off" instead of an unbounded latency tail.
* **Deadlines.** Every request carries a deadline (default
  ``deadline_s``, overridable per call). A caller gives up with
  :class:`~repro.errors.DeadlineExceededError` (HTTP 504) when it
  expires, and workers skip tickets that expired while queued instead
  of burning engine time on answers nobody is waiting for.
* **Request coalescing.** Duplicate in-flight ``(source, target)``
  queries share one ticket: the first submit enqueues it, later ones
  attach as extra waiters, and a single engine query feeds them all.
  Under a hot-pair workload this turns a thundering herd into one
  cache miss. Correctness is unaffected — every waiter receives the
  same payment pinned to the same ``graph_version``.
* **Write-through updates.** ``update_cost`` / ``add_node`` /
  ``remove_node`` bypass the queue: the engine's writer lock already
  serializes them, and queueing mutations behind queries would only
  delay the version bump that queries are supposed to observe.
* **Graceful drain.** :meth:`close` stops admissions
  (:class:`~repro.errors.ServiceClosedError` afterwards), lets queued
  work finish, joins the workers, writes a final checkpoint when the
  engine is durable, and closes the engine (flushing its WAL).

Every answer carries the ``graph_version`` it was computed at —
returned by :meth:`PricingEngine.price_versioned` (or
:meth:`PricingEngine.price_hit`) under the same read-lock hold that
served the query — so callers can replay a serial oracle against the
recorded update history and verify bit-identity
(``tests/test_service.py`` and ``benchmarks/bench_service.py`` do).

Observability: counters under ``service.*`` (requests, inline,
coalesced, rejected, timeouts, updates, batches), latency histograms
(``service.price_time``, ``service.batch_time``,
``service.update_time``) and queue-depth gauges, all in the process
registry (:mod:`repro.obs.metrics`) next to the ``engine.*`` family.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple

from repro.engine.engine import PricingEngine
from repro.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import logging as obs_logging
from repro.obs.context import current_request_id, request_scope
from repro.obs.flight import FLIGHT
from repro.obs.metrics import REGISTRY as _metrics

__all__ = [
    "PricingService",
    "ServiceStats",
    "PricedAnswer",
    "BatchAnswer",
    "DegradePolicy",
]

_log = obs_logging.get_logger("service")


@dataclass
class ServiceStats:
    """Always-on serving counters (mirrored under ``service.*`` in the
    obs registry when collectors are enabled).

    ``requests`` counts admitted price queries (coalesced attaches
    included), ``batches`` admitted ``price_many`` calls, ``coalesced``
    requests served by attaching to an already-in-flight duplicate,
    ``rejected`` queue-full rejections (the 429s), ``timeouts``
    deadline expiries (the 504s — waiter gave up or the ticket expired
    in queue), ``updates`` applied mutations, ``degraded`` answers
    served from the last-committed cache instead of a fresh snapshot
    read, ``expired`` tickets a worker skipped because their deadline
    passed while they sat in the admission queue, ``inline`` requests
    answered on the caller's thread from a current-version cache entry
    without a ticket (they count in ``requests`` too).
    """

    requests: int = 0
    batches: int = 0
    coalesced: int = 0
    rejected: int = 0
    timeouts: int = 0
    updates: int = 0
    degraded: int = 0
    expired: int = 0
    inline: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (reports, ``/healthz``)."""
        return asdict(self)


@dataclass(frozen=True)
class DegradePolicy:
    """When may :meth:`PricingService.price` serve a stale cached answer?

    Degraded mode trades freshness for availability: instead of a
    blind 429 (queue saturated) or 503 (engine mid-recovery), a pair
    that has been answered before may be served its **last-committed**
    answer, stamped ``degraded=True`` and carrying the (possibly
    stale) ``graph_version`` it was originally computed at — explicit,
    verifiable staleness, never a silently wrong price.

    ``on_overload`` / ``while_recovering`` gate the two triggers;
    ``max_age_s`` bounds how stale a cached answer may be (``None`` =
    any age); ``max_entries`` caps the LRU cache of last answers.
    The default policy is what you get from ``DegradePolicy()``;
    passing ``degrade=None`` to the service disables degraded mode
    entirely (the pre-existing strict behavior).
    """

    on_overload: bool = True
    while_recovering: bool = True
    max_age_s: float | None = None
    max_entries: int = 4096

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise InvalidRequestError("max_entries must be >= 1")
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise InvalidRequestError("max_age_s must be positive or None")


class PricedAnswer(NamedTuple):
    """One served query: the payment, the engine version it was priced
    at, whether this caller coalesced onto another's ticket, and
    whether the answer came from the degraded-mode cache (in which
    case ``graph_version`` names the stale snapshot it was computed
    at, not the engine's current version)."""

    payment: object
    graph_version: int
    coalesced: bool
    degraded: bool = False


class BatchAnswer(NamedTuple):
    """One served batch: ``pair -> payment`` plus the pinned version."""

    payments: dict
    graph_version: int


class _Ticket:
    """One unit of queued work, shared by every coalesced waiter."""

    __slots__ = (
        "kind", "key", "pairs", "jobs", "deadline",
        "done", "result", "version", "error",
    )

    def __init__(self, kind: str, deadline: float) -> None:
        self.kind = kind  # "pair" | "batch"
        self.key: tuple[int, int] | None = None
        self.pairs: list[tuple[int, int]] | None = None
        self.jobs: int | None = None
        self.deadline = deadline  # monotonic absolute
        self.done = threading.Event()
        self.result = None
        self.version = -1
        self.error: BaseException | None = None


class PricingService:
    """Concurrent, deadline-aware pricing front end over one engine.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.engine.PricingEngine`. The service
        owns its lifecycle from here on: :meth:`close` drains, writes a
        final checkpoint when durable, and closes it.
    workers:
        Threads draining the admission queue. Pricing releases the GIL
        inside the NumPy/SciPy kernels, so a handful of workers keeps
        the engine busy; more mostly adds queue fairness.
    max_queue:
        Admission-queue capacity. Submits beyond it fail fast with
        :class:`~repro.errors.ServiceOverloadedError` (HTTP 429).
    deadline_s:
        Default per-request deadline (overridable per call); expiry
        raises :class:`~repro.errors.DeadlineExceededError` (504).
    jobs:
        ``jobs=`` forwarded to :meth:`PricingEngine.price_many` for
        batch requests (``None`` = serial in-process).
    degrade:
        A :class:`DegradePolicy` enabling degraded-mode serving
        (stale-but-stamped answers when the queue is saturated or the
        engine is mid-recovery); ``None`` (default) keeps the strict
        429/503 behavior.
    """

    def __init__(
        self,
        engine: PricingEngine,
        workers: int = 4,
        max_queue: int = 64,
        deadline_s: float = 30.0,
        jobs: int | None = None,
        degrade: DegradePolicy | None = None,
    ) -> None:
        if workers < 1:
            raise InvalidRequestError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise InvalidRequestError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        if not (math.isfinite(deadline_s) and deadline_s > 0):
            raise InvalidRequestError(
                f"deadline_s must be a finite positive number, got {deadline_s}"
            )
        self._engine = engine
        self._jobs = jobs
        self._deadline_s = float(deadline_s)
        self._queue: queue.Queue[_Ticket | None] = queue.Queue(
            maxsize=int(max_queue)
        )
        self._max_queue = int(max_queue)
        # (source, target) -> in-flight ticket; the coalescing map.
        self._inflight: dict[tuple[int, int], _Ticket] = {}
        self._mu = threading.Lock()
        self._closed = False
        self._degrade = degrade
        self._recovering = False
        # (source, target) -> (payment, version, monotonic commit time);
        # the degraded-mode LRU of last-committed answers (guarded by
        # _mu, maintained only when a policy is set).
        self._last_good: OrderedDict[
            tuple[int, int], tuple[object, int, float]
        ] = OrderedDict()
        self.stats = ServiceStats()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{i}",
                daemon=True,
            )
            for i in range(int(workers))
        ]
        for t in self._workers:
            t.start()

    # -- introspection -------------------------------------------------------

    @property
    def engine(self) -> PricingEngine:
        """The engine this service fronts."""
        return self._engine

    @property
    def closed(self) -> bool:
        """True once :meth:`close` started draining."""
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Tickets currently waiting in the admission queue."""
        return self._queue.qsize()

    @property
    def max_queue(self) -> int:
        """Admission-queue capacity (the 429 threshold)."""
        return self._max_queue

    @property
    def default_deadline_s(self) -> float:
        """Deadline applied when a request does not carry its own."""
        return self._deadline_s

    @property
    def degrade_policy(self) -> DegradePolicy | None:
        """The degraded-mode policy, or ``None`` when disabled."""
        return self._degrade

    @property
    def recovering(self) -> bool:
        """True while the engine is flagged as mid-recovery."""
        return self._recovering

    def set_recovering(self, flag: bool) -> None:
        """Flag the engine as (not) mid-recovery.

        While set, ``/readyz`` reports not-ready and — with a
        :class:`DegradePolicy` whose ``while_recovering`` is on —
        :meth:`price` serves cached last-committed answers instead of
        queueing fresh work.
        """
        self._recovering = bool(flag)
        if _metrics.enabled:
            _metrics.set_gauge("service.recovering", 1.0 if flag else 0.0)

    def __repr__(self) -> str:
        return (
            f"PricingService(workers={len(self._workers)}, "
            f"queue={self.queue_depth}/{self._max_queue}, "
            f"closed={self._closed})"
        )

    def _count(self, name: str, n: int = 1) -> None:
        if _metrics.enabled:
            _metrics.add(f"service.{name}", n)

    def _update_gauges(self) -> None:
        if _metrics.enabled:
            _metrics.set_gauge("service.queue_depth", self.queue_depth)
            _metrics.set_gauge("service.inflight", len(self._inflight))

    def _resolve_deadline(self, deadline_s: float | None) -> float:
        budget = self._deadline_s if deadline_s is None else float(deadline_s)
        if not (math.isfinite(budget) and budget > 0):
            raise InvalidRequestError(
                f"deadline_s must be a finite positive number, got {budget}"
            )
        return time.monotonic() + budget

    # -- degraded mode -------------------------------------------------------

    def _degraded_answer_locked(
        self, key: tuple[int, int]
    ) -> PricedAnswer | None:
        """The cached last-committed answer for ``key`` (caller holds _mu).

        Returns ``None`` when nothing usable is cached — the caller
        then falls through to the strict path (queue or reject).
        """
        policy = self._degrade
        entry = self._last_good.get(key)
        if policy is None or entry is None:
            return None
        payment, version, committed_at = entry
        if (
            policy.max_age_s is not None
            and time.monotonic() - committed_at > policy.max_age_s
        ):
            return None
        self._last_good.move_to_end(key)
        self.stats.degraded += 1
        self._count("degraded")
        FLIGHT.record(
            "service.degraded",
            request_id=current_request_id(),
            version=version,
        )
        return PricedAnswer(
            payment, version, coalesced=False, degraded=True
        )

    def _record_last_good_locked(
        self, key: tuple[int, int], payment: object, version: int
    ) -> None:
        policy = self._degrade
        if policy is None:
            return
        self._last_good[key] = (payment, version, time.monotonic())
        self._last_good.move_to_end(key)
        while len(self._last_good) > policy.max_entries:
            self._last_good.popitem(last=False)

    # -- queries -------------------------------------------------------------

    def price(
        self, source: int, target: int, deadline_s: float | None = None
    ) -> PricedAnswer:
        """Price one request: inline when warm, else through the queue.

        A pair the engine can answer from a current-version cache entry
        (:meth:`PricingEngine.price_hit`) is answered on the calling
        thread, counted in ``inline``; it takes no ticket, so a full
        queue never rejects it. Every other request is admitted to the
        queue and coalesces onto an in-flight duplicate when one
        exists. Raises
        :class:`~repro.errors.ServiceOverloadedError` on a full queue,
        :class:`~repro.errors.DeadlineExceededError` on expiry,
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`,
        and otherwise exactly what the engine raises
        (:class:`~repro.errors.DisconnectedError`, ...).
        """
        deadline = self._resolve_deadline(deadline_s)
        key = (int(source), int(target))
        if not (self._closed or self._recovering):
            # A current-version hit is the exact answer and needs no
            # worker, so it skips the queue (and its 429s) entirely.
            hit = self._engine.price_hit(*key)
            if hit is not None:
                with self._mu:
                    self.stats.requests += 1
                    self.stats.inline += 1
                    self._count("requests")
                    self._count("inline")
                    self._record_last_good_locked(key, *hit)
                return PricedAnswer(*hit, coalesced=False)
        with self._mu:
            if self._closed:
                raise ServiceClosedError(
                    "service is draining; request not admitted"
                )
            policy = self._degrade
            if (
                self._recovering
                and policy is not None
                and policy.while_recovering
            ):
                stale = self._degraded_answer_locked(key)
                if stale is not None:
                    return stale
            ticket = self._inflight.get(key)
            coalesced = ticket is not None
            if coalesced:
                # Attach to the duplicate's ticket. Keep the ticket
                # alive at least as long as the latest waiter cares.
                ticket.deadline = max(ticket.deadline, deadline)
                self.stats.coalesced += 1
                self._count("coalesced")
            else:
                ticket = _Ticket("pair", deadline)
                ticket.key = key
                try:
                    self._queue.put_nowait(ticket)
                except queue.Full:
                    if policy is not None and policy.on_overload:
                        stale = self._degraded_answer_locked(key)
                        if stale is not None:
                            return stale
                    self.stats.rejected += 1
                    self._count("rejected")
                    raise ServiceOverloadedError(
                        f"admission queue full ({self._max_queue} "
                        "tickets); retry with backoff"
                    ) from None
                self._inflight[key] = ticket
            self.stats.requests += 1
            self._count("requests")
            self._update_gauges()
        return PricedAnswer(
            *self._await_ticket(ticket, deadline), coalesced=coalesced
        )

    def price_many(
        self,
        pairs: Iterable[tuple[int, int]],
        deadline_s: float | None = None,
    ) -> BatchAnswer:
        """Price a batch through the admission queue (one ticket).

        Batches are not coalesced (each is assumed distinct) but share
        the queue's backpressure and deadline rules; the whole batch is
        priced under one engine read-lock hold, so every payment in the
        answer carries the same ``graph_version``.
        """
        deadline = self._resolve_deadline(deadline_s)
        batch = [(int(s), int(t)) for s, t in pairs]
        if not batch:
            raise InvalidRequestError("pairs must be non-empty")
        with self._mu:
            if self._closed:
                raise ServiceClosedError(
                    "service is draining; request not admitted"
                )
            ticket = _Ticket("batch", deadline)
            ticket.pairs = batch
            ticket.jobs = self._jobs
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                self.stats.rejected += 1
                self._count("rejected")
                raise ServiceOverloadedError(
                    f"admission queue full ({self._max_queue} tickets); "
                    "retry with backoff"
                ) from None
            self.stats.batches += 1
            self._count("batches")
            self._update_gauges()
        return BatchAnswer(*self._await_ticket(ticket, deadline))

    def _await_ticket(self, ticket: _Ticket, deadline: float):
        remaining = deadline - time.monotonic()
        if not ticket.done.wait(timeout=max(0.0, remaining)):
            self.stats.timeouts += 1
            self._count("timeouts")
            raise DeadlineExceededError(
                f"request deadline expired after "
                f"{self._deadline_s if remaining <= 0 else remaining:.3f}s "
                "waiting for an answer"
            )
        if ticket.error is not None:
            raise ticket.error
        return ticket.result, ticket.version

    # -- updates (write-through; the engine's writer lock serializes) --------

    def update_cost(self, node_or_edge, value: float) -> int:
        """Apply a cost re-declaration; returns the published version."""
        self._check_admitting()
        t0 = time.perf_counter()
        version = self._engine.update_cost(node_or_edge, value)
        self._note_update(t0)
        return version

    def add_node(self, cost: float = 0.0, neighbors=(), arcs=()) -> int:
        """Grow the graph by one node; returns the new node's id."""
        self._check_admitting()
        t0 = time.perf_counter()
        node = self._engine.add_node(cost=cost, neighbors=neighbors, arcs=arcs)
        self._note_update(t0)
        return node

    def remove_node(self, node: int) -> int:
        """Disconnect a node; returns the published version."""
        self._check_admitting()
        t0 = time.perf_counter()
        version = self._engine.remove_node(node)
        self._note_update(t0)
        return version

    def graph(self):
        """The current ``(graph, version)`` snapshot, read atomically."""
        self._check_admitting()
        return self._engine.graph_snapshot()

    def _check_admitting(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "service is draining; request not admitted"
            )

    def _note_update(self, t0: float) -> None:
        self.stats.updates += 1
        self._count("updates")
        if _metrics.enabled:
            _metrics.observe("service.update_time", time.perf_counter() - t0)

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            try:
                if ticket is None:
                    return  # drain sentinel
                self._serve_ticket(ticket)
            finally:
                self._queue.task_done()

    def _serve_ticket(self, ticket: _Ticket) -> None:
        t0 = time.perf_counter()
        if t0 >= ticket.deadline:
            # Expired while queued: don't burn engine time on an
            # answer nobody is waiting for. The waiter already raised
            # (and counted) its own timeout; setting the error keeps
            # late coalescers honest too.
            self.stats.expired += 1
            self._count("expired_in_queue")
            FLIGHT.record("service.expired_in_queue")
            ticket.error = DeadlineExceededError(
                "request expired in the admission queue"
            )
        else:
            try:
                with request_scope():
                    if ticket.kind == "pair":
                        ticket.result, ticket.version = (
                            self._engine.price_versioned(*ticket.key)
                        )
                    else:
                        ticket.result, ticket.version = (
                            self._engine.price_many_versioned(
                                ticket.pairs, jobs=ticket.jobs
                            )
                        )
            except BaseException as exc:  # delivered to every waiter
                ticket.error = exc
        # Unregister before waking waiters: a waiter that immediately
        # re-submits the same key must start a fresh ticket, not
        # re-attach to this finished one. Committed answers also feed
        # the degraded-mode cache under the same lock hold.
        if ticket.key is not None:
            with self._mu:
                self._inflight.pop(ticket.key, None)
                if ticket.error is None:
                    self._record_last_good_locked(
                        ticket.key, ticket.result, ticket.version
                    )
        ticket.done.set()
        if _metrics.enabled:
            name = (
                "service.price_time"
                if ticket.kind == "pair"
                else "service.batch_time"
            )
            _metrics.observe(name, time.perf_counter() - t0)
            self._update_gauges()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Graceful drain: finish queued work, then retire the engine.

        Stops admitting (new submits raise
        :class:`~repro.errors.ServiceClosedError`), waits for the queue
        to empty and in-flight tickets to finish, joins the worker
        pool, writes a final checkpoint when the engine is durable, and
        closes the engine — flushing its WAL. Idempotent.
        """
        with self._mu:
            if self._closed:
                return
            self._closed = True
        self._queue.join()  # queued tickets all served
        for _ in self._workers:
            self._queue.put(None)  # one sentinel per worker
        for t in self._workers:
            t.join(timeout=30.0)
        if self._engine.durable and not self._engine.closed:
            self._engine.checkpoint()
        self._engine.close()
        self._update_gauges()
        _log.info(
            "service drained",
            extra={
                "requests": self.stats.requests,
                "coalesced": self.stats.coalesced,
                "rejected": self.stats.rejected,
                "timeouts": self.stats.timeouts,
                "updates": self.stats.updates,
            },
        )

    def __enter__(self) -> "PricingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
