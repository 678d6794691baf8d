"""Inputs and load: the seeded instance, the three workloads' operation
streams, the closed-loop callers, and the from-scratch oracle check."""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from perfbench import spec


def make_instance(seed: int):
    """The paper-scale unit-disk deployment for ``seed``; returns the
    graph and every node's hop distance from the access point (-1 when
    unreachable)."""
    from repro.wireless.topology import build_node_graph_from_udg

    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, spec.REGION_M, size=(spec.N_NODES, 2))
    costs = rng.uniform(spec.COST_LO, spec.COST_HI, size=spec.N_NODES)
    g = build_node_graph_from_udg(points, spec.RANGE_M, costs)
    hops = np.full(g.n, -1, dtype=np.int64)
    hops[spec.ACCESS_POINT] = 0
    todo = deque([spec.ACCESS_POINT])
    while todo:
        u = todo.popleft()
        for v in g.neighbors(u).tolist():
            if hops[v] < 0:
                hops[v] = hops[u] + 1
                todo.append(v)
    return g, hops


class OpStream:
    """The workload's seeded operation sequence, shared by all callers.

    Callers pull the next operation under a lock, so the sequence of
    operations issued is the same on every run of a seed; only which
    caller issues which one varies. Operations are
    ``("price", s, t)``, ``("update", node, value)`` and
    ``("batch", ((s, t), ...))``.
    """

    def __init__(self, workload: str, seed: int, hops: np.ndarray):
        if workload not in spec.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._rng = np.random.default_rng([seed, 1])
        self._component = np.flatnonzero(hops >= 0)
        self._sources = np.flatnonzero(hops > 0)
        # One hot source per hop-distance stratum: every seed's pool has
        # the same spread of path lengths, so seeds differ in which
        # sources are hot, not in how much work a hot answer carries.
        by_hops = self._sources[np.argsort(hops[self._sources], kind="stable")]
        self.hot = [
            int(stratum[self._rng.integers(len(stratum))])
            for stratum in np.array_split(by_hops, spec.HOT_SOURCES)
        ]
        self._seen: set[tuple[int, int]] = set()
        if workload == "cold_pairs":
            # Priced during set-up to pay lazy one-time costs; never
            # part of the measured stream.
            self.warm = [self._fresh_pair() for _ in range(spec.HOT_SOURCES)]
        else:
            self.warm = [(s, spec.ACCESS_POINT) for s in self.hot]
        self._mu = threading.Lock()
        self._index = 0

    def _fresh_pair(self) -> tuple[int, int]:
        while True:
            s, t = (int(x) for x in self._rng.choice(self._component, size=2))
            if s != t and (s, t) not in self._seen:
                self._seen.add((s, t))
                return s, t

    def _next_locked(self):
        i = self._index
        self._index += 1
        r = self._rng
        if self.workload == "hot_read":
            return ("price", self.hot[int(r.integers(len(self.hot)))], 0)
        if self.workload == "churn":
            if r.random() < spec.CHURN_UPDATE_FRAC:
                node = int(r.integers(spec.N_NODES))
                return ("update", node, float(r.uniform(spec.COST_LO, spec.COST_HI)))
            if r.random() < spec.CHURN_COLD_FRAC:
                s = int(self._sources[int(r.integers(len(self._sources)))])
            else:
                s = self.hot[int(r.integers(len(self.hot)))]
            return ("price", s, spec.ACCESS_POINT)
        if i % spec.BATCH_EVERY == spec.BATCH_EVERY - 1:
            return (
                "batch",
                tuple(self._fresh_pair() for _ in range(spec.BATCH_PAIRS)),
            )
        return ("price", *self._fresh_pair())

    def next(self):
        with self._mu:
            return self._next_locked()

    def probe_ops(self) -> list[tuple]:
        """One batch of fresh pairs and a few updates, issued after the
        traced run so that every workload's trace times the batch and
        update entry points."""
        with self._mu:
            batch = tuple(self._fresh_pair() for _ in range(spec.BATCH_PAIRS))
            return [("batch", batch)] + [
                (
                    "update",
                    int(self._rng.integers(spec.N_NODES)),
                    float(self._rng.uniform(spec.COST_LO, spec.COST_HI)),
                )
                for _ in range(spec.PROBE_UPDATES)
            ]


class FixedOps:
    """A fixed list of operations behind the ``OpStream.next`` interface."""

    def __init__(self, ops: list[tuple]) -> None:
        self._ops = iter(ops)
        self._mu = threading.Lock()

    def next(self):
        with self._mu:
            return next(self._ops)


def answer_key(payment):
    return (
        tuple(payment.path),
        payment.lcp_cost,
        tuple(sorted(payment.payments.items())),
    )


@dataclass
class LoadResult:
    """Everything one closed-loop phase observed."""

    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: kind -> (start, latency) per successful operation, in seconds.
    latency: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: {"price": [], "update": [], "batch": []}
    )
    #: Completion time of every successful operation.
    done_at: list[float] = field(default_factory=list)
    #: ``(time, value)`` readings of the ``sample`` callable.
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: (version, source, target, answer key) per priced pair.
    answers: list[tuple] = field(default_factory=list)
    #: (version, node, value) per acknowledged update.
    updates: list[tuple] = field(default_factory=list)
    retries: int = 0
    rss_at_pairs_kb: int | None = None

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def absorb(self, other: "LoadResult") -> None:
        """Add a later phase on the same server (for the oracle)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.answers += other.answers
        self.updates += other.updates
        self.retries += other.retries


def _do_op(client, op, out: LoadResult, mu: threading.Lock) -> None:
    """Issue one operation; record latency, answer and failure."""
    kind = op[0]
    before = client.stats.retries + client.stats.server_errors
    t0 = time.perf_counter()
    failed = None
    try:
        if kind == "price":
            resp = client.price(op[1], op[2])
            rows = [(resp.graph_version, op[1], op[2], answer_key(resp.payment))]
        elif kind == "update":
            resp = client.update_cost(op[1], op[2])
            rows = []
        else:
            resp = client.price_many(list(op[1]))
            rows = [
                (resp.graph_version, p.source, p.target, answer_key(p))
                for p in resp.payments
            ]
    except Exception as exc:  # counted as a failed operation
        failed = f"{kind}: {type(exc).__name__}: {exc}"
        rows = []
    t1 = time.perf_counter()
    # A 429, 5xx or transport failure retried away still failed once.
    if failed is None and client.stats.retries + client.stats.server_errors > before:
        failed = f"{kind}: retried after a failed attempt"
    with mu:
        out.attempted += 1
        if failed is not None:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(failed)
            return
        out.latency[kind].append((t0, t1 - t0))
        out.done_at.append(t1)
        out.answers.extend(rows)
        if kind == "update":
            out.updates.append((resp.graph_version, op[1], op[2]))


def closed_loop(
    url: str,
    stream: OpStream | FixedOps,
    *,
    seconds: float | None = None,
    max_ops: int | None = None,
    callers: int = spec.CALLERS,
    rss_probe=None,
    sample=None,
    windows: int = 1,
    client_seed: int = 0,
) -> LoadResult:
    """Drive ``callers`` closed-loop ``PricingClient`` callers until
    ``seconds`` elapse or ``max_ops`` operations were issued.

    ``sample`` (e.g. the server's CPU seconds) is read at the start and
    at the end of each of ``windows`` equal slices of ``seconds``.

    Caller ``i`` gets ``PricingClient(seed=client_seed + i)``. Clients
    with equal seeds derive equal ``Idempotency-Key`` streams, so two
    loops against one server must not share a seed: the server would
    replay the first loop's update answers to the second.

    ``rss_probe`` (cold_pairs) is called once, by the caller whose
    operation takes the answered-pair count past
    ``spec.RSS_AFTER_PAIRS``.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.service import PricingClient

    out = LoadResult()
    mu = threading.Lock()
    issued = [0]
    start = threading.Barrier(callers + 1, timeout=60)
    t_end = [0.0] * callers
    deadline = [0.0]
    clients = [
        PricingClient(url, deadline_s=spec.SERVER_CONFIG["deadline_s"],
                      seed=client_seed + i, metrics=MetricsRegistry())
        for i in range(callers)
    ]

    def caller(i: int) -> None:
        client = clients[i]
        start.wait()
        while True:
            if seconds is not None and time.perf_counter() >= deadline[0]:
                break
            with mu:
                if max_ops is not None and issued[0] >= max_ops:
                    break
                issued[0] += 1
            _do_op(client, stream.next(), out, mu)
            if rss_probe is not None and out.rss_at_pairs_kb is None:
                with mu:
                    due = len(out.answers) >= spec.RSS_AFTER_PAIRS
                    if due and out.rss_at_pairs_kb is None:
                        out.rss_at_pairs_kb = rss_probe()
        t_end[i] = time.perf_counter()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
    for t in threads:
        t.start()
    t0 = time.perf_counter()
    deadline[0] = t0 + (seconds or 0.0)
    start.wait()
    if sample is not None and seconds:
        for k in range(windows + 1):
            time.sleep(max(0.0, t0 + k * seconds / windows - time.perf_counter()))
            out.samples.append((time.perf_counter(), sample()))
    for t in threads:
        t.join(timeout=170)
    out.elapsed_s = max(t_end) - t0
    for c in clients:
        out.retries += c.stats.retries
        c.close()
    return out


def oracle_check(g, result: LoadResult, seed: int, sample: int) -> tuple[int, int, str | None]:
    """Re-price a seeded sample of answers from scratch.

    Rebuilds the graph at each ``graph_version`` from the acknowledged
    update history and prices the sampled ``(version, source, target)``
    keys with ``vcg_unicast_payments``. Returns ``(answers verified,
    answers mismatched, problem)``; ``problem`` reports a broken
    update history.
    """
    from repro.core.vcg_unicast import vcg_unicast_payments

    updates = sorted(result.updates)
    versions = [v for v, _, _ in updates]
    if versions != list(range(1, len(updates) + 1)):
        return 0, 0, f"update versions are not 1..{len(updates)}: {versions[:10]}"
    graph_at = {0: g}
    current = g
    for version, node, value in updates:
        current = current.with_declaration(node, value)
        graph_at[version] = current
    by_key: dict[tuple, list] = {}
    for version, s, t, got in result.answers:
        by_key.setdefault((version, s, t), []).append(got)
    keys = sorted(by_key)
    rng = np.random.default_rng([seed, 2])
    picked = rng.permutation(len(keys))[:sample]
    verified = mismatched = 0
    for i in picked.tolist():
        version, s, t = keys[i]
        if version not in graph_at:
            mismatched += len(by_key[keys[i]])
            continue
        want = answer_key(
            vcg_unicast_payments(
                graph_at[version], s, t, method="fast",
                on_monopoly=spec.SERVER_CONFIG["on_monopoly"],
            )
        )
        for got in by_key[keys[i]]:
            verified += 1
            mismatched += got != want
    return verified, mismatched, None
