"""A long-lived, update-aware VCG pricing service.

Why a service layer
-------------------

Every entry point in :mod:`repro.core` prices one request on one
immutable graph. A deployed access point instead sees a *stream*:
mostly repeated ``price(source, target)`` queries, occasionally a node
re-declaring its cost or joining/leaving. Recomputing two Dijkstras and
an Algorithm-1 pass per request throws away almost all of the work —
the shortest-path structure barely changes between updates. Ad hoc-VCG
(PAPERS.md) runs the mechanism continuously over exactly such a drifting
network; this module supplies the machinery.

Versioned snapshots and dirty-region invalidation
-------------------------------------------------

The engine owns the current graph plus a monotonically increasing
``version``. Two caches are stamped with the version they were computed
at:

* an **SPT cache** ``root -> ShortestPathTree`` (Algorithm 1 consumes
  one tree per endpoint; trees are shared across every pair touching the
  endpoint, exactly like :func:`repro.core.allpairs.pairwise_vcg_payments`);
* a **pair cache** ``(source, target) -> (payment, witnessed)`` holding
  the answer, a :class:`~repro.core.mechanism.UnicastPayment`, plus the
  one number of the Algorithm-1 run that retention needs: ``witnessed``
  = ``max(lcp_cost, max(avoiding_costs))``, the largest path cost the
  run looked at (``inf`` in the link model and for monopolized pairs,
  so those entries never survive an update). ``price``, ``price_many``
  at any ``jobs`` and recovery all store this one shape.

A stamp that does not match the current version marks the entry stale.
A *node cost update* itself does almost no work: it swaps the graph
snapshot, bumps the version and appends a ``(node, old, new)`` record
and the new cost vector to a bounded **update log**. A stale *tree* is
simply rebuilt at its next use: measured on steady-state workloads,
incremental tree repair never beat one compiled Dijkstra. A stale
*pair* is worth more (two trees plus an Algorithm-1 pass), so whether
it is still usable is decided lazily, at lookup, by *fast-forwarding*
it through the logged updates one at a time — entries nobody asks for
again never cost anything. A fast-forwarded
pair is re-stamped (counted per logged step as ``retained``); one that
fails is dropped (counted as ``invalidations``, or ``stale_evictions``
when it aged out of the log). Per logged update ``k: c_old -> c_new``:

* **Pair survival.** A cached result for ``(s, t)`` survives trivially
  when ``k`` is an endpoint (endpoint costs never enter path costs or
  payments, Section II.C). Otherwise let ``B`` be the entry's
  ``witnessed`` cost. Path costs in the node model are *symmetric*
  (reversing a path keeps its internal nodes), so one **witness tree**
  rooted at ``k`` — built once per logged update, on the cost vector
  that update produced, and shared by every cached pair — supplies
  ``d_s[k] = d_k[s]`` and ``d_t[k] = d_k[t]`` for all endpoints at
  once. These distances never include ``c_k`` (root cost) nor the
  endpoint's own cost, so they are valid on both the old and the new
  graph. Any simple ``s``–``t`` path with ``k`` internal costs at
  least ``d_s[k] + c_k + d_t[k]``; if
  ``d_k[s] + min(c_old, c_new) + d_k[t] > B`` (strictly), no such path
  can affect the LCP or any avoiding path on either graph, so every
  number in the result is unchanged. Infinite ``B`` (a monopolized
  relay priced with ``on_monopoly="inf"``) never passes — conservative.

Topology changes (``remove_node``/``add_node``) and link-model arc
updates clear the log instead: the version bump lazily invalidates
everything, which is always sound. The log is capped
(``_LOG_CAP`` updates); pairs older than the cap fall back to a
plain recompute at next use.

Exactness caveat: retention is value-exact; the returned *path* is
additionally identical whenever the least cost path is unique (generic
float costs — the property tests in ``tests/test_engine.py`` draw
seeded uniform costs, which are tie-free almost surely).

Batching
--------

``price_many`` funnels cache misses into the loop behind
:func:`~repro.core.allpairs.pairwise_vcg_payments`, sharing the
engine's SPT cache, and optionally fans independent chunks out over
worker processes via :func:`repro.analysis.parallel.run_tasks`
(``jobs=``) — bit-identical to the serial path. Living in the engine
package keeps the layering rule intact: ``core`` never imports
``analysis``.

Concurrency and snapshot isolation
----------------------------------

The engine is safe to share across threads. A writer-preferring
reader–writer lock (:class:`repro.engine.sync.RWLock`) enforces
snapshot isolation: :meth:`PricingEngine.price` /
:meth:`PricingEngine.price_many` hold the read side, so any number of
queries run concurrently against one frozen ``(graph, version)``
snapshot, while :meth:`PricingEngine.update_cost` /
:meth:`PricingEngine.add_node` / :meth:`PricingEngine.remove_node` /
:meth:`PricingEngine.checkpoint` serialize through the write side and
publish the next version atomically. No query ever observes a
half-applied mutation, so every answer is bit-identical to what a
serial execution at that answer's ``graph_version`` would produce —
:meth:`PricingEngine.price_versioned` returns the pinned version
alongside the payment precisely so callers (the service layer, the
stress tests) can replay the serial oracle and check.
:meth:`PricingEngine.price_hit` is its non-blocking counterpart for
warm pairs: it serves only an entry stamped at the current version and
declines (returns ``None``) instead of waiting on a writer or doing
any computation, which lets the service answer such hits on the
caller's thread.

Two sharp edges follow from the design and are worth knowing:

* Cache *bookkeeping* (hit/miss counters, concurrent same-key inserts)
  is benign-racy under concurrent readers: both racers compute the
  same bit-identical value from the same snapshot and the last insert
  wins, so responses are exact even when counters are approximate.
* Once closed (:meth:`PricingEngine.close`), queries and mutations
  raise :class:`~repro.errors.EngineClosedError`; introspection
  properties stay readable.

Durability
----------

With ``checkpoint_dir=`` set, every applied mutation is appended to a
checksummed write-ahead log and :meth:`PricingEngine.checkpoint`
(manual, or automatic every ``checkpoint_every`` mutations) persists
the full state — graph, version, warm caches — atomically.
:meth:`PricingEngine.open` recovers a crashed engine bit-identically
by loading the newest valid checkpoint and replaying the WAL tail
through the very same mutation methods. The formats, fsync policies
and corruption-fallback rules live in :mod:`repro.engine.persist`
(and the operations guide, ``docs/engine.md``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.allpairs import _fast_results
from repro.core.fast_payment import fast_vcg_payments
from repro.core.link_vcg import link_vcg_payments
from repro.core.mechanism import (
    UnicastPayment,
    resolve_backend,
    resolve_monopoly_policy,
    spt_backend_for,
)
from repro.engine import persist as _persist_mod
from repro.engine.sync import RWLock
from repro.errors import EngineClosedError, ReproError
from repro.graph.dijkstra import node_weighted_spt
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs import logging as obs_logging
from repro.obs.context import request_scope
from repro.obs.flight import FLIGHT as _flight
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.tracing import TRACER as _tracer
from repro.utils.validation import check_node_index

__all__ = ["PricingEngine", "EngineStats"]

_log = obs_logging.get_logger("engine")


@dataclass
class EngineStats:
    """Always-on local counters (the :mod:`repro.obs` registry mirrors
    them under ``engine.*`` when enabled).

    ``cache_hits``/``cache_misses`` count pair-cache outcomes per priced
    pair; ``spt_cache_*`` the endpoint-tree cache (a stale tree is a
    miss and is rebuilt). ``invalidations`` and ``retained`` count pair
    fast-forward steps only: pairs dropped at lookup because a logged
    update could have changed them, and steps that carried a pair
    through a logged update unchanged. ``stale_evictions`` counts
    entries dropped because they aged out of the update log (topology
    change, log cap, or an explicit :meth:`PricingEngine.purge_stale`).

    ``wal_records``/``checkpoint_writes``/``recoveries`` count the
    durability layer (:mod:`repro.engine.persist`): mutations appended
    to the write-ahead log, checkpoint files written, and recoveries
    this engine was built from (0 or 1 — it mirrors into the cumulative
    ``engine.recoveries`` obs counter).
    """

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    spt_cache_hits: int = 0
    spt_cache_misses: int = 0
    invalidations: int = 0
    stale_evictions: int = 0
    retained: int = 0
    updates: int = 0
    wal_records: int = 0
    checkpoint_writes: int = 0
    recoveries: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for reports and ``--metrics`` output)."""
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Pair-cache hit rate over all priced pairs (``nan`` when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else float("nan")


def _empty_payment(source: int, target: int, scheme: str) -> UnicastPayment:
    return UnicastPayment(source, target, (), 0.0, {}, scheme=scheme)


#: Cost updates remembered for lazy pair fast-forwarding; pairs older
#: than this fall back to a plain recompute at next use (memory bound:
#: one cost vector plus one lazily built witness tree per remembered
#: update).
_LOG_CAP = 128


@dataclass
class _CostUpdate:
    """One logged node-cost update: the node, its old and new cost, and
    the cost vector the update produced. The topology is the engine's
    current one (any topology change flushes the log), so the vector is
    all it takes to rebuild that snapshot. The witness tree rooted at
    the updated node is built from it lazily, at the first pair
    survival test that needs it (see the module docstring)."""

    node: int
    old: float
    new: float
    costs: np.ndarray
    witness: ShortestPathTree | None = None


def _entry_of(res) -> tuple[UnicastPayment, float]:
    """Reduce a node-model Algorithm-1 result to its pair-cache entry:
    the payment and ``witnessed``, the largest path cost the run looked
    at (``max(lcp_cost, max(avoiding_costs))``), which is all pair
    survival reads."""
    witnessed = res.lcp_cost
    if res.avoiding_costs:
        witnessed = max(witnessed, max(res.avoiding_costs.values()))
    return res.to_unicast_payment(), witnessed


def _price_node_chunk(graph, pairs, on_monopoly, backend):
    """Worker task: price one chunk of pairs (node model) into
    ``pair -> (payment, witnessed)`` entries.

    Module-level so it pickles into :func:`repro.analysis.parallel`
    worker processes. ``graph`` may be a real graph or a zero-copy
    :class:`repro.analysis.shm.ArenaHandle` exported by the parent.
    """
    from repro.analysis.shm import resolve_graph

    results = _fast_results(
        resolve_graph(graph), pairs, on_monopoly=on_monopoly, backend=backend
    )
    return {key: _entry_of(res) for key, res in results}


def _price_link_chunk(dg, pairs, on_monopoly, backend):
    """Worker task: price one chunk of pairs (link model). Link entries
    witness ``inf``: arc updates flush the log, so none is ever tested
    for survival."""
    from repro.analysis.shm import resolve_graph

    dg = resolve_graph(dg)
    return {
        (s, t): (
            link_vcg_payments(
                dg, s, t, on_monopoly=on_monopoly, backend=backend
            ),
            np.inf,
        )
        for s, t in pairs
    }


class PricingEngine:
    """Long-lived pricing service over a versioned topology snapshot.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.node_graph.NodeWeightedGraph` (Sections
        II–III.E) or :class:`~repro.graph.link_graph.LinkWeightedDigraph`
        (Section III.F). The model is detected from the type.
    backend, on_monopoly:
        The uniform pricing keywords, applied to every request this
        engine serves (see :func:`repro.core.mechanism.resolve_backend`).
    checkpoint_dir:
        When set, the engine is *durable*: every applied mutation is
        appended to a checksummed write-ahead log in this directory
        and :meth:`checkpoint` persists full state atomically (see
        :mod:`repro.engine.persist`). The directory must not already
        hold engine state — recover that with :meth:`open` instead.
    fsync, fsync_every:
        WAL fsync policy: ``"always"`` (fsync per mutation — a kill -9
        loses nothing applied), ``"interval"`` (default; fsync every
        ``fsync_every`` records), ``"never"`` (OS page cache decides).
    checkpoint_every:
        Automatically :meth:`checkpoint` after this many logged
        mutations (``None`` = manual checkpoints only).
    retain:
        Checkpoint generations kept for corruption fallback.

    Every answer is exactly what the stateless entry points would return
    on the current snapshot: :func:`repro.core.vcg_unicast_payments`
    (``method="fast"``) for the node model,
    :func:`repro.core.link_vcg.link_vcg_payments` for the link model.
    The caches only change *when* work happens, never the numbers — the
    hypothesis property in ``tests/test_engine.py`` interleaves updates
    and queries and checks bit-identity against from-scratch pricing.
    """

    def __init__(
        self,
        graph: NodeWeightedGraph | LinkWeightedDigraph,
        backend: str = "auto",
        on_monopoly: str = "raise",
        checkpoint_dir: str | Path | None = None,
        fsync: str = "interval",
        fsync_every: int = 64,
        checkpoint_every: int | None = None,
        retain: int = 2,
    ) -> None:
        if isinstance(graph, NodeWeightedGraph):
            self._model = "node"
        elif isinstance(graph, LinkWeightedDigraph):
            self._model = "link"
        else:
            raise TypeError(
                "PricingEngine needs a NodeWeightedGraph or a "
                f"LinkWeightedDigraph, got {type(graph).__name__}"
            )
        self._graph = graph
        self._backend = resolve_backend(backend)
        self._on_monopoly = resolve_monopoly_policy(on_monopoly)
        self._rw = RWLock()
        self._closed = False
        self._version = 0
        # root -> (version_stamp, tree);
        # (source, target) -> (stamp, payment, witnessed)
        self._spts: dict[int, tuple[int, ShortestPathTree]] = {}
        self._pairs: dict[
            tuple[int, int], tuple[int, UnicastPayment, float]
        ] = {}
        # version -> the cost update that produced it; a stale entry
        # stamped v can fast-forward iff v >= _log_floor (every later
        # update is still in the log).
        self._log: dict[int, _CostUpdate] = {}
        self._log_floor = 0
        self.stats = EngineStats()
        #: The :class:`~repro.engine.persist.RecoveryReport` this engine
        #: was recovered from (``None`` for fresh engines).
        self.last_recovery: _persist_mod.RecoveryReport | None = None
        self._checkpoint_every = (
            int(checkpoint_every) if checkpoint_every else None
        )
        self._persist: _persist_mod.EnginePersistence | None = None
        if checkpoint_dir is not None:
            store = _persist_mod.EnginePersistence(
                checkpoint_dir,
                fsync=fsync,
                fsync_every=fsync_every,
                retain=retain,
            )
            if store.has_state():
                raise _persist_mod.PersistError(
                    f"{checkpoint_dir} already holds engine state; "
                    "recover it with PricingEngine.open() or point at "
                    "an empty directory"
                )
            self._persist = store
            self.checkpoint()  # the durable base the WAL extends

    # -- introspection -------------------------------------------------------

    @property
    def graph(self) -> NodeWeightedGraph | LinkWeightedDigraph:
        """The current topology snapshot (immutable; replaced on update)."""
        return self._graph

    @property
    def version(self) -> int:
        """Monotonic snapshot version; bumps on every applied update."""
        return self._version

    @property
    def model(self) -> str:
        """``"node"`` or ``"link"``."""
        return self._model

    @property
    def backend(self) -> str:
        """The kernel backend every request is served with."""
        return self._backend

    @property
    def on_monopoly(self) -> str:
        """The monopoly policy every request is served with."""
        return self._on_monopoly

    @property
    def n(self) -> int:
        """Number of nodes in the current snapshot."""
        return self._graph.n

    @property
    def durable(self) -> bool:
        """True when the engine persists mutations (``checkpoint_dir=``)."""
        return self._persist is not None

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; queries and mutations then raise."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError(
                "engine is closed; queries and mutations no longer apply"
            )

    def graph_snapshot(
        self,
    ) -> tuple[NodeWeightedGraph | LinkWeightedDigraph, int]:
        """The current ``(graph, version)`` pair, read atomically.

        Reading ``eng.graph`` and ``eng.version`` separately can
        straddle a concurrent update; this takes the read lock once so
        the two always correspond.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._graph, self._version

    def paused(self):
        """Exclusive pause: ``with eng.paused():`` blocks every query
        and mutation until the block exits.

        Readers drain first (writer preference), then the block runs
        alone — a quiescence point for consistent external backups, and
        the hook the concurrency tests use to stage deterministic
        interleavings.
        """
        return self._rw.write_locked()

    def __repr__(self) -> str:
        return (
            f"PricingEngine(model={self._model!r}, n={self.n}, "
            f"version={self._version}, spts={len(self._spts)}, "
            f"pairs={len(self._pairs)})"
        )

    def _count(self, name: str, n: int = 1) -> None:
        if _metrics.enabled:
            _metrics.add(f"engine.{name}", n)

    def _update_gauges(self) -> None:
        """Mirror the live resource footprint into ``engine.*`` gauges
        so cache growth is visible on ``/metrics``, not just hit/miss
        counters. Called after every query/update while enabled."""
        if _metrics.enabled:
            _metrics.set_gauge("engine.spt_cache_entries", len(self._spts))
            _metrics.set_gauge("engine.pair_cache_entries", len(self._pairs))
            _metrics.set_gauge("engine.update_log_entries", len(self._log))
            if self._persist is not None:
                _metrics.set_gauge(
                    "engine.wal_bytes", float(self._persist.wal_bytes)
                )
                _metrics.set_gauge(
                    "engine.wal_records_since_checkpoint",
                    float(self._persist.records_since_checkpoint),
                )

    # -- SPT cache -----------------------------------------------------------

    def _spt_of(self, root: int) -> ShortestPathTree:
        entry = self._spts.get(root)
        if entry is not None and entry[0] == self._version:
            self.stats.spt_cache_hits += 1
            self._count("spt_cache_hits")
            return entry[1]
        self.stats.spt_cache_misses += 1
        self._count("spt_cache_misses")
        _flight.record("rebuild", version=self._version, value=float(root))
        spt = node_weighted_spt(
            self._graph, root, backend=spt_backend_for(self._backend)
        )
        self._spts[root] = (self._version, spt)
        return spt

    # -- queries -------------------------------------------------------------

    def price(self, source: int, target: int) -> UnicastPayment:
        """VCG outcome for one request on the current snapshot.

        Served from the pair cache when a same-version entry exists;
        otherwise computed (sharing cached endpoint SPTs in the node
        model) and cached. Raises exactly what the stateless entry
        points raise (:class:`~repro.errors.DisconnectedError`,
        :class:`~repro.errors.MonopolyError` under
        ``on_monopoly="raise"``). Thread-safe: runs under the shared
        read lock, so concurrent calls never observe a half-applied
        update.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_locked(source, target)

    def price_versioned(
        self, source: int, target: int
    ) -> tuple[UnicastPayment, int]:
        """Like :meth:`price`, returning ``(payment, graph_version)``.

        The version is read under the same read-lock hold that served
        the query, so it names exactly the snapshot the payment was
        computed against — the handle a caller needs to verify the
        answer against a serial oracle (``docs/service.md``).
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_locked(source, target), self._version

    def price_hit(
        self, source: int, target: int
    ) -> tuple[UnicastPayment, int] | None:
        """``(payment, graph_version)`` if a current-version pair-cache
        entry answers ``(source, target)`` right now; otherwise ``None``.

        Never waits and never computes: it declines while any writer
        holds or awaits the lock (see
        :meth:`~repro.engine.sync.RWLock.try_acquire_read`), when the
        engine is closed, and for any pair without an entry stamped at
        the current version — a miss, a stale entry (pair survival may
        build a witness tree, which is miss-sized work), an
        out-of-range index or ``source == target``. A declined call
        records nothing, so a caller that falls back to :meth:`price`
        counts the query exactly once; a served one is counted exactly
        like a hit in :meth:`price`. Indices must be plain ``int``.
        """
        if not self._rw.try_acquire_read():
            return None
        try:
            key = (source, target)
            entry = None if self._closed else self._pairs.get(key)
            if entry is None or entry[0] != self._version:
                return None
            return self._answer(key, entry[1]), self._version
        finally:
            self._rw.release_read()

    def _price_locked(self, source: int, target: int) -> UnicastPayment:
        source = check_node_index(source, self._graph.n)
        target = check_node_index(target, self._graph.n)
        if source == target:
            self.stats.queries += 1
            self._count("queries")
            scheme = "vcg" if self._model == "node" else "link-vcg"
            return _empty_payment(source, target, scheme)
        return self._answer((source, target))

    def _answer(
        self, key: tuple[int, int], current: UnicastPayment | None = None
    ) -> UnicastPayment:
        """Serve one validated ``source != target`` query with the
        accounting every query gets: ``queries``, a request scope, the
        ``engine.price`` span, the flight ``query`` event and the
        ``engine.price_time`` timer.

        ``current`` is the cached payment of an entry the caller already
        found stamped at this version (:meth:`price_hit`); without it
        the pair cache is consulted and a miss is computed.
        """
        self.stats.queries += 1
        self._count("queries")
        with request_scope() as rid:
            t0 = time.perf_counter()
            try:
                with _tracer.span(
                    "engine.price", source=key[0], target=key[1]
                ):
                    cached = (
                        self._lookup_pair(key)
                        if current is None
                        else self._hit(current)
                    )
                    res = (
                        cached
                        if cached is not None
                        else self._compute_pair(key)
                    )
            except ReproError:
                raise  # domain outcome (disconnected, monopoly), not a crash
            except Exception as exc:
                _flight.record("error", rid, self._version)
                _flight.dump_error(exc)
                raise
            elapsed = time.perf_counter() - t0
            _flight.record("query", rid, self._version, elapsed)
            if _metrics.enabled:
                _metrics.observe("engine.price_time", elapsed)
                if cached is None:  # a hit adds no cache entry
                    self._update_gauges()
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "request priced",
                    extra={
                        "source": key[0],
                        "target": key[1],
                        "hit": cached is not None,
                        "version": self._version,
                        "elapsed_s": round(elapsed, 6),
                    },
                )
            return res

    def _hit(self, payment: UnicastPayment) -> UnicastPayment:
        """Count a pair-cache hit and return its cached payment."""
        self.stats.cache_hits += 1
        self._count("cache_hits")
        _flight.record("hit", version=self._version)
        return payment

    def _lookup_pair(self, key: tuple[int, int]) -> UnicastPayment | None:
        entry = self._pairs.get(key)
        if entry is not None:
            if entry[0] == self._version or self._fast_forward_pair(
                key, entry
            ):
                return self._hit(entry[1])
        self.stats.cache_misses += 1
        self._count("cache_misses")
        _flight.record("miss", version=self._version)
        return None

    def _fast_forward_pair(
        self, key: tuple[int, int], entry: tuple[int, UnicastPayment, float]
    ) -> bool:
        """Re-stamp a stale pair if every logged update provably left it
        unchanged; evict it otherwise."""
        stamp, payment, witnessed = entry
        if stamp >= self._log_floor:
            for v in range(stamp + 1, self._version + 1):
                if not self._pair_survives(witnessed, key, self._log[v]):
                    self._pairs.pop(key, None)
                    self.stats.invalidations += 1
                    self._count("invalidations")
                    _flight.record("invalidate", version=self._version)
                    return False
                self.stats.retained += 1
                self._count("retained")
            self._pairs[key] = (self._version, payment, witnessed)
            _flight.record(
                "fast_forward",
                version=self._version,
                value=float(self._version - stamp),
            )
            return True
        self._pairs.pop(key, None)
        self.stats.stale_evictions += 1
        self._count("stale_evictions")
        _flight.record("evict", version=self._version)
        return False

    def _compute_pair(self, key: tuple[int, int]) -> UnicastPayment:
        source, target = key
        if self._model == "node":
            payment, witnessed = _entry_of(
                fast_vcg_payments(
                    self._graph,
                    source,
                    target,
                    on_monopoly=self._on_monopoly,
                    backend=self._backend,
                    spt_source=self._spt_of(source),
                    spt_target=self._spt_of(target),
                )
            )
        else:
            payment = link_vcg_payments(
                self._graph,
                source,
                target,
                on_monopoly=self._on_monopoly,
                backend=self._backend,
            )
            witnessed = np.inf
        self._pairs[key] = (self._version, payment, witnessed)
        return payment

    def price_many(
        self,
        pairs: Iterable[tuple[int, int]],
        jobs: int | None = None,
    ) -> dict[tuple[int, int], UnicastPayment]:
        """Price a batch of ordered pairs; returns ``pair -> payment``.

        Cache hits are served directly; the remaining pairs funnel into
        the shared-SPT batch machinery
        (:func:`~repro.core.allpairs.pairwise_vcg_payments`), reusing —
        and growing — this engine's SPT cache. ``jobs`` fans misses out
        over worker processes (``-1`` = all cores; results are
        bit-identical to the serial path, like every ``jobs=`` in this
        repo). Worker processes cannot share the parent's caches, so
        parallel batches trade cache growth for wall-clock time.
        Thread-safe: the whole batch runs under one read-lock hold, so
        every pair in the returned dict was priced at the same version.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_many_locked(pairs, jobs)

    def price_many_versioned(
        self,
        pairs: Iterable[tuple[int, int]],
        jobs: int | None = None,
    ) -> tuple[dict[tuple[int, int], UnicastPayment], int]:
        """Like :meth:`price_many`, returning ``(payments, version)``
        with the version pinned for the entire batch."""
        with self._rw.read_locked():
            self._check_open()
            return self._price_many_locked(pairs, jobs), self._version

    def _price_many_locked(
        self,
        pairs: Iterable[tuple[int, int]],
        jobs: int | None = None,
    ) -> dict[tuple[int, int], UnicastPayment]:
        from repro.analysis.parallel import resolve_jobs, run_tasks

        self.stats.batches += 1
        self._count("batches")
        scheme = "vcg" if self._model == "node" else "link-vcg"
        with request_scope() as rid:
            t0 = time.perf_counter()
            out: dict[tuple[int, int], UnicastPayment] = {}
            todo: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            for s, t in pairs:
                s = check_node_index(s, self._graph.n)
                t = check_node_index(t, self._graph.n)
                key = (s, t)
                if key in seen:
                    continue
                seen.add(key)
                self.stats.queries += 1
                self._count("queries")
                if s == t:
                    out[key] = _empty_payment(s, t, scheme)
                    continue
                cached = self._lookup_pair(key)
                if cached is not None:
                    out[key] = cached
                else:
                    todo.append(key)
            if todo:
                n_jobs = resolve_jobs(jobs)
                try:
                    with _tracer.span(
                        "engine.price_many",
                        pairs=len(out) + len(todo),
                        misses=len(todo),
                    ):
                        if n_jobs == 1 or len(todo) == 1:
                            out.update(self._price_batch_serial(todo))
                        else:
                            from repro.analysis.shm import SharedGraphArena

                            chunks = [
                                todo[i::n_jobs]
                                for i in range(n_jobs)
                                if todo[i::n_jobs]
                            ]
                            fn = (
                                _price_node_chunk
                                if self._model == "node"
                                else _price_link_chunk
                            )
                            # Ship the graph once, zero-copy: workers
                            # attach to the shared CSR arena by name
                            # instead of unpickling O(m) bytes per chunk.
                            with SharedGraphArena(self._graph) as arena:
                                tasks = [
                                    (
                                        (arena.handle, chunk,
                                         self._on_monopoly, self._backend),
                                        {},
                                    )
                                    for chunk in chunks
                                ]
                                for priced in run_tasks(
                                    fn, tasks, jobs=n_jobs
                                ):
                                    out.update(self._store(priced))
                except ReproError:
                    raise
                except Exception as exc:
                    _flight.record("error", rid, self._version)
                    _flight.dump_error(exc)
                    raise
            elapsed = time.perf_counter() - t0
            _flight.record("batch", rid, self._version, elapsed)
            self._update_gauges()
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "batch priced",
                    extra={
                        "pairs": len(out),
                        "misses": len(todo),
                        "version": self._version,
                        "elapsed_s": round(elapsed, 6),
                    },
                )
            return out

    def _store(
        self, priced: dict[tuple[int, int], tuple[UnicastPayment, float]]
    ) -> dict[tuple[int, int], UnicastPayment]:
        """Cache a batch's ``pair -> (payment, witnessed)`` entries at
        this version; returns ``pair -> payment``."""
        out = {}
        for key, (payment, witnessed) in priced.items():
            self._pairs[key] = (self._version, payment, witnessed)
            out[key] = payment
        return out

    def _price_batch_serial(
        self, todo: Sequence[tuple[int, int]]
    ) -> dict[tuple[int, int], UnicastPayment]:
        if self._model == "link":
            return self._store(
                _price_link_chunk(
                    self._graph, todo, self._on_monopoly, self._backend
                )
            )
        # Share (and grow) the engine's endpoint-SPT cache.
        shared: dict[int, ShortestPathTree] = {}
        for root, (stamp, spt) in self._spts.items():
            if stamp == self._version:
                shared[root] = spt
        known = set(shared)
        priced = {
            key: _entry_of(res)
            for key, res in _fast_results(
                self._graph,
                todo,
                on_monopoly=self._on_monopoly,
                backend=self._backend,
                spt_cache=shared,
            )
        }
        for root, spt in shared.items():
            if root in known:
                self.stats.spt_cache_hits += 1
                self._count("spt_cache_hits")
            else:
                self.stats.spt_cache_misses += 1
                self._count("spt_cache_misses")
                self._spts[root] = (self._version, spt)
        return self._store(priced)

    # -- updates -------------------------------------------------------------

    def update_cost(self, node_or_edge, value: float) -> int:
        """Apply a declared-cost change; returns the new version.

        Node model: ``node_or_edge`` is a node id and ``value`` its new
        declared cost (the ``d |^i d_i`` operation). The update itself
        only swaps the snapshot and logs the change; cached pairs are
        fast-forwarded through the log lazily at their next lookup and
        stale trees are rebuilt (see the module docstring). Link model: ``node_or_edge`` is an
        ``(u, v)`` arc (``inf`` drops it) and all caches are
        conservatively invalidated via the version bump.

        A no-op change (same value) leaves version and caches untouched.
        Thread-safe: serializes through the write lock; in-flight
        queries finish against the old snapshot first, then the new
        version is published atomically.
        """
        with self._rw.write_locked():
            self._check_open()
            return self._update_cost_locked(node_or_edge, value)

    def _update_cost_locked(self, node_or_edge, value: float) -> int:
        if self._model == "link":
            u, v = node_or_edge
            if self._graph.arc_weight(u, v) == float(value):
                return self._version
            self._graph = self._graph.with_arc_weight(u, v, value)
            self._bump_update(flush_log=True)
            _flight.record("update", version=self._version)
            self._persist_append(
                _persist_mod.update_record(
                    "link", (u, v), value, self._version
                )
            )
            self._update_gauges()
            return self._version

        node = check_node_index(int(node_or_edge), self._graph.n)
        old = float(self._graph.costs[node])
        value = float(value)
        if value == old:
            return self._version
        self._graph = self._graph.with_declaration(node, value)
        self._bump_update()
        self._log[self._version] = _CostUpdate(
            node, old, value, self._graph.costs
        )
        if len(self._log) > _LOG_CAP:
            self._log_floor = min(self._log)
            del self._log[self._log_floor]
        _flight.record("update", version=self._version, value=float(node))
        self._persist_append(
            _persist_mod.update_record("node", node, value, self._version)
        )
        self._update_gauges()
        return self._version

    def _bump_update(self, flush_log: bool = False) -> None:
        self._version += 1
        self.stats.updates += 1
        self._count("updates")
        if flush_log:
            self._log.clear()
            self._log_floor = self._version

    def _witness_of(self, upd: _CostUpdate) -> ShortestPathTree:
        """The update's witness tree (rooted at the updated node), built
        on first use against the snapshot the update produced: the
        current topology under the update's cost vector."""
        if upd.witness is None:
            # The newest update's snapshot is the current graph, whose
            # tail-cost matrix the SPT cache has usually built already.
            graph = self._graph
            if graph.costs is not upd.costs:
                graph = graph.with_costs(upd.costs)
            upd.witness = node_weighted_spt(
                graph, upd.node, backend=spt_backend_for(self._backend)
            )
        return upd.witness

    def _pair_survives(
        self, witnessed: float, key: tuple[int, int], upd: _CostUpdate
    ) -> bool:
        s, t = key
        k = upd.node
        if k == s or k == t:
            return True  # endpoint costs never enter path costs or payments
        witness = self._witness_of(upd)
        # Node-model path costs are symmetric, so the witness tree's
        # dist doubles as d_s[k] and d_t[k] for every cached endpoint.
        bound = (
            float(witness.dist[s])
            + min(upd.old, upd.new)
            + float(witness.dist[t])
        )
        if not np.isfinite(witnessed):
            return False
        # Strict clearance with a relative margin. The bound is tight
        # exactly when a witnessed avoiding path runs through ``k`` (it
        # IS the cheapest through-``k`` path) — a common case, not a
        # measure-zero tie — and the two sides sum the same node costs
        # in different orders, so float noise can push ``bound`` a few
        # ULPs above ``witnessed``. Any genuine clearance under
        # continuous costs dwarfs 1e-9; a near-tie must drop the entry
        # (conservative: it just recomputes).
        return bound > witnessed + 1e-9 * max(1.0, abs(witnessed))

    def remove_node(self, node: int) -> int:
        """Drop every edge/arc incident to ``node``; returns the new version.

        Node ids stay stable (the repo-wide convention — payments on the
        shrunken network refer to the same ids). The node itself remains
        as an isolated vertex; pricing to or from it raises
        :class:`~repro.errors.DisconnectedError`. Invalidation is
        conservative: the version bump lazily evicts every cache entry.
        Thread-safe (write lock).
        """
        with self._rw.write_locked():
            self._check_open()
            return self._remove_node_locked(node)

    def _remove_node_locked(self, node: int) -> int:
        node = check_node_index(node, self._graph.n)
        if self._model == "link":
            self._graph = self._graph.with_node_removed(node)
        else:
            kept = [
                (u, v)
                for u, v in self._graph.edge_iter()
                if u != node and v != node
            ]
            self._graph = NodeWeightedGraph(
                self._graph.n, kept, self._graph.costs
            )
        self._bump_update(flush_log=True)
        _flight.record("topology", version=self._version, value=float(node))
        self._persist_append(
            _persist_mod.remove_record(node, self._version)
        )
        self._update_gauges()
        return self._version

    def add_node(self, cost: float = 0.0, neighbors=(), arcs=()) -> int:
        """Grow the snapshot by one node; returns the **new node's id**.

        Node model: the node joins with declared ``cost`` and undirected
        edges to ``neighbors``. Link model: ``arcs`` are ``(u, v, w)``
        triples incident to the new node (id ``n``). Invalidation is
        conservative (lazy, via the version bump). Thread-safe (write
        lock).
        """
        with self._rw.write_locked():
            self._check_open()
            return self._add_node_locked(cost, neighbors, arcs)

    def _add_node_locked(self, cost: float, neighbors, arcs) -> int:
        n = self._graph.n
        neighbors = list(neighbors)
        arcs = list(arcs)
        if self._model == "link":
            self._graph = LinkWeightedDigraph(
                n + 1, list(self._graph.arc_iter()) + arcs
            )
        else:
            edges = list(self._graph.edge_iter())
            edges += [(n, check_node_index(int(v), n)) for v in neighbors]
            costs = np.append(self._graph.costs, float(cost))
            self._graph = NodeWeightedGraph(n + 1, edges, costs)
        self._bump_update(flush_log=True)
        _flight.record("topology", version=self._version, value=float(n))
        self._persist_append(
            _persist_mod.add_record(
                self._model, cost, neighbors, arcs, self._version
            )
        )
        self._update_gauges()
        return n

    # -- durability ----------------------------------------------------------

    def _persist_append(self, record: dict) -> None:
        """Log one applied mutation to the WAL; auto-checkpoint when due."""
        if self._persist is None:
            return
        self._persist.append(record)
        self.stats.wal_records += 1
        self._count("wal_records")
        if (
            self._checkpoint_every is not None
            and self._persist.records_since_checkpoint
            >= self._checkpoint_every
        ):
            self.checkpoint()

    def _checkpoint_state(
        self, include_caches: bool = True
    ) -> _persist_mod.CheckpointState:
        """Snapshot everything a checkpoint preserves (current-version
        cache entries only — stale ones would be rebuilt anyway)."""
        spts: dict[int, ShortestPathTree] = {}
        pairs: dict[tuple[int, int], tuple[UnicastPayment, float]] = {}
        if include_caches:
            for root, (stamp, spt) in self._spts.items():
                if stamp == self._version:
                    spts[root] = spt
            for key, (stamp, payment, witnessed) in self._pairs.items():
                if stamp == self._version:
                    pairs[key] = (payment, witnessed)
        return _persist_mod.CheckpointState(
            graph=self._graph,
            graph_version=self._version,
            model=self._model,
            backend=self._backend,
            on_monopoly=self._on_monopoly,
            spts=spts,
            pairs=pairs,
        )

    def checkpoint(self, include_caches: bool = True) -> Path:
        """Persist full engine state now; returns the checkpoint path.

        Writes atomically (temp file + rename), rotates the WAL so the
        new checkpoint starts an empty tail, and prunes generations
        past ``retain``. ``include_caches=False`` writes a graph-only
        checkpoint (smaller file, colder restart). Requires the engine
        to have been built with ``checkpoint_dir=``. Thread-safe: takes
        the write lock (reentrantly when an automatic checkpoint fires
        inside a mutation), so the persisted state is a quiescent
        snapshot.
        """
        if self._persist is None:
            raise _persist_mod.PersistError(
                "engine has no checkpoint_dir; pass one at construction "
                "or recover with PricingEngine.open()"
            )
        with self._rw.write_locked():
            self._check_open()
            path = self._persist.write_checkpoint(
                self._checkpoint_state(include_caches)
            )
            self.stats.checkpoint_writes += 1
            self._count("checkpoint_writes")
            _flight.record(
                "checkpoint",
                version=self._version,
                value=float(self._persist.seq),
            )
            self._update_gauges()
            return path

    @classmethod
    def open(
        cls,
        checkpoint_dir: str | Path,
        backend: str | None = None,
        on_monopoly: str | None = None,
        fsync: str = "interval",
        fsync_every: int = 64,
        checkpoint_every: int | None = None,
        retain: int = 2,
        resume: bool = True,
    ) -> "PricingEngine":
        """Recover an engine from a checkpoint directory.

        Loads the newest checkpoint that validates (falling back to
        older generations on corruption), replays the WAL tail above it
        through the normal mutation methods — so the recovered graph,
        version and every subsequent price are **bit-identical** to a
        process that never crashed — and, with ``resume=True``
        (default), re-attaches persistence and writes a fresh recovery
        checkpoint so the recovery itself is durable and any torn WAL
        tail is retired. ``resume=False`` gives a read-only view that
        leaves the directory untouched (inspection, tests).

        ``backend``/``on_monopoly`` default to the values the
        checkpoint recorded. The outcome (chosen checkpoint, records
        replayed, corruption tolerated) is ``engine.last_recovery``, a
        :class:`~repro.engine.persist.RecoveryReport`.
        """
        state, records, report = _persist_mod.load_state(checkpoint_dir)
        eng = cls(
            state.graph,
            backend=backend if backend is not None else state.backend,
            on_monopoly=(
                on_monopoly if on_monopoly is not None else state.on_monopoly
            ),
        )
        eng._version = state.graph_version
        eng._log_floor = state.graph_version
        for root, spt in state.spts.items():
            eng._spts[root] = (state.graph_version, spt)
        for key, (payment, witnessed) in state.pairs.items():
            eng._pairs[key] = (state.graph_version, payment, witnessed)
        applied = 0
        for rec in records:
            recorded = int(rec.get("version", -1))
            if recorded <= eng._version:
                continue  # duplicated tail after a crash mid-rotation
            _persist_mod.apply_record(eng, rec)
            applied += 1
            if eng._version != recorded:
                report.divergence = (
                    f"record for version {recorded} left the engine at "
                    f"{eng._version}; replay stopped at the consistent "
                    "prefix"
                )
                break
        report.wal_records = applied
        eng.stats.recoveries += 1
        eng._count("recoveries")
        eng.last_recovery = report
        _flight.record(
            "recover",
            version=eng._version,
            value=float(report.wal_records),
        )
        _log.info(
            "engine recovered",
            extra={
                "dir": str(checkpoint_dir),
                "version": eng._version,
                "wal_records": report.wal_records,
                "clean": report.clean,
            },
        )
        if resume:
            eng._checkpoint_every = (
                int(checkpoint_every) if checkpoint_every else None
            )
            eng._persist = _persist_mod.EnginePersistence(
                checkpoint_dir,
                fsync=fsync,
                fsync_every=fsync_every,
                retain=retain,
            )
            eng.checkpoint()
        eng._update_gauges()
        return eng

    def close(self) -> None:
        """Retire the engine: flush and close the WAL, then refuse
        further queries and mutations with
        :class:`~repro.errors.EngineClosedError`.

        Idempotent. Takes the write lock, so in-flight queries finish
        first and nothing is ever half-served. Buffered WAL records are
        flushed on every append, so a clean process exit loses nothing
        even without ``close()`` — this exists to fsync the tail,
        release the file handle, and mark the handoff point
        deterministically (the context-manager form calls it).
        Introspection (``version``, ``graph``, ``stats``) stays
        readable on a closed engine.
        """
        with self._rw.write_locked():
            if self._closed:
                return
            self._closed = True
            if self._persist is not None:
                self._persist.close()

    def __enter__(self) -> "PricingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------------

    def cache_sizes(self) -> dict[str, int]:
        """Current entry counts (stale entries included until evicted)."""
        return {"spts": len(self._spts), "pairs": len(self._pairs)}

    def purge_stale(self) -> int:
        """Drop every version-mismatched entry now; returns the count.

        Lazy eviction only reclaims a key when it is queried again; call
        this after heavy churn to bound memory. Thread-safe (write
        lock).
        """
        with self._rw.write_locked():
            self._check_open()
            dropped = 0
            for root, (stamp, _) in list(self._spts.items()):
                if stamp != self._version:
                    del self._spts[root]
                    dropped += 1
            for key, (stamp, _, _) in list(self._pairs.items()):
                if stamp != self._version:
                    del self._pairs[key]
                    dropped += 1
            if dropped:
                self.stats.stale_evictions += dropped
                self._count("stale_evictions", dropped)
                _flight.record(
                    "evict", version=self._version, value=float(dropped)
                )
            self._update_gauges()
            return dropped
