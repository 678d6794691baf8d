"""Algorithm 1: fast VCG payment computation in O(n log n + m).

The naive way to pay the relays of ``P(v_i, v_j, d)`` removes each relay
and re-runs Dijkstra — O(n) Dijkstras in the worst case. Section III.B
computes **all** the ``v_k``-avoiding path costs together, borrowing the
Hershberger–Suri replacement-path machinery, in a single
O(n log n + m) pass. This module implements it for the node-weighted
model; :func:`repro.core.link_vcg.link_vcg_payments` reuses it for the
link model through the tail-cost embedding.

How it works (notation of the paper, ``P = r_0 r_1 ... r_s``,
``r_0 = v_i``, ``r_s = v_j``):

1. Build ``SPT(v_i)`` and ``SPT(v_j)``; read off ``L(u)`` (cost
   ``v_i -> u``) and ``R(v)`` (cost ``v -> v_j``).
2. Assign every node its *level*: the index of the last path node on its
   ``SPT(v_i)`` tree path (step 2 of the paper; computed by
   :meth:`~repro.graph.spt.ShortestPathTree.branch_labels`). By Lemma 1 an
   optimal ``r_l``-avoiding path is a ``SPT(v_i)`` prefix through levels
   ``< l``, one crossing edge, then a suffix through levels ``>= l``.
3. For every level ``l``, compute ``R^{-l}(x)`` for the level-``l`` region
   (the subtree hanging off ``r_l``): the best ``x -> v_j`` continuation
   avoiding ``r_l``. The paper's step 3 processes nodes greedily; we run
   an equivalent boundary Dijkstra per region — regions are disjoint, so
   the total work stays O(n log n + m). The closure through a
   higher-level neighbour ``y`` uses ``R(y)``, which avoids ``r_l`` by
   Lemma 2.
4. Combine each region node with its best lower-level neighbour to get the
   per-level candidate ``c^{-l}`` (step 4).
5. Sweep ``l = 1 .. s-1`` with a lazy-deletion heap over crossing edges
   ``(u, v)`` with ``level(u) < l < level(v)``, keyed by
   ``L~(u) + R~(v)`` (step 5). Each edge enters and leaves the heap once.
6. ``||P_{-r_l}|| = min(heap minimum, c^{-l})`` and the payment follows
   (step 6).

Cost accounting: ``L~(u) = L(u) + c_u`` (0 for the source) and
``R~(v) = R(v) + c_v`` (0 for the target), so ``L~(u) + R~(v)`` is exactly
the internal-node cost of the spliced path.

Correctness is property-tested against the naive oracle on thousands of
random biconnected graphs (``tests/test_fast_payment.py``).

Kernels and backends
--------------------

The steps above exist in two implementations selected by ``backend``,
following the same convention as :mod:`repro.graph.dijkstra`:

* ``backend="python"`` — per-node/per-edge Python loops. The reference
  the property tests treat as the oracle.
* any other backend (``"auto"``, ``"scipy"``, ``"numpy"``) — steps 3-5
  come from one table builder, ``_tables_numpy``, that makes a single
  pass over the CSR arcs: the ``levels`` of every arc's two ends are
  gathered once, and the arcs that climb a level serve the step-3/4
  closures and the step-5 crossing-edge table alike. Every region's
  step-3 search runs in one scipy Dijkstra over the graph's cached
  :meth:`~repro.graph.node_graph.NodeWeightedGraph.augmented_csr`
  (the arcs plus a virtual-source row) with per-call weights, so no
  index structure is built or converted per call. The per-level minima
  are scattered with ``np.minimum.at``. ``"numpy"`` additionally forces
  the pure-Python SPT builder, which makes it the apples-to-apples
  vectorized counterpart of ``"python"`` in kernel benchmarks and
  exact-agreement tests.

Both produce bit-identical payments and stats: every scalar reduction
the numpy kernels replace is a min/filter over the same float64 sums,
and its IEEE-754 result does not depend on evaluation order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.mechanism import (
    UnicastPayment,
    resolve_backend,
    resolve_monopoly_policy,
    spt_backend_for,
)
from repro.errors import DisconnectedError, MonopolyError
from repro.graph.dijkstra import node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.tracing import TRACER as _tracer
from repro.utils.heap import LazyMinHeap
from repro.utils.validation import check_node_index

__all__ = ["fast_vcg_payments", "FastPaymentResult"]


@dataclass(frozen=True)
class FastPaymentResult:
    """Output of Algorithm 1, with the intermediates exposed for study.

    Attributes
    ----------
    path:
        The least cost path ``r_0 .. r_s`` (source first).
    lcp_cost:
        ``||P(v_i, v_j, d)||`` (internal-node cost).
    avoiding_costs:
        ``r_l -> ||P_{-r_l}(v_i, v_j, d)||`` for every relay; ``inf``
        marks a monopoly relay (only with ``on_monopoly="inf"``).
    payments:
        ``r_l -> p_i^{r_l}`` per step 6.
    levels:
        The step-2 level of every node (-1 for nodes unreachable from the
        source). Exposed because the distributed protocol and the tests
        reuse it.
    stats:
        Operation counts (heap pushes, region sizes) backing the
        complexity claims in the benchmark write-up.
    """

    source: int
    target: int
    path: tuple[int, ...]
    lcp_cost: float
    avoiding_costs: Mapping[int, float]
    payments: Mapping[int, float]
    levels: np.ndarray
    stats: Mapping[str, int] = field(default_factory=dict)

    def to_unicast_payment(self) -> UnicastPayment:
        """Convert to the generic :class:`UnicastPayment` form."""
        return UnicastPayment(
            self.source,
            self.target,
            self.path,
            self.lcp_cost,
            dict(self.payments),
            scheme="vcg",
        )

    @property
    def path_cost(self) -> float:
        """Cost of the chosen route (alias of ``lcp_cost``; the uniform
        :class:`~repro.core.mechanism.PaymentResult` accessor)."""
        return self.lcp_cost

    def payment(self, node: int) -> float:
        """Payment to ``node`` (0 when it earns nothing)."""
        return float(self.payments.get(int(node), 0.0))

    def to_dict(self) -> dict:
        """Tagged, versioned JSON-safe encoding (see :mod:`repro.io`)."""
        from repro import io

        return io.to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FastPaymentResult":
        """Inverse of :meth:`to_dict`; rejects payloads of other types."""
        from repro import io

        return io.decode_as(cls, payload)


def fast_vcg_payments(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    on_monopoly: str = "raise",
    backend: str = "auto",
    spt_source: ShortestPathTree | None = None,
    spt_target: ShortestPathTree | None = None,
) -> FastPaymentResult:
    """Run Algorithm 1. See the module docstring for the plan.

    ``spt_source``/``spt_target`` accept precomputed shortest path trees
    rooted at the endpoints (as built by
    :func:`repro.graph.dijkstra.node_weighted_spt` on the *same* graph)
    — batch callers like :func:`repro.core.allpairs.pairwise_vcg_payments`
    build each endpoint's SPT once and share it across every pair that
    touches the endpoint.

    Raises :class:`DisconnectedError` when the endpoints are disconnected
    and :class:`MonopolyError` for monopoly relays unless
    ``on_monopoly="inf"``.
    """
    source = check_node_index(source, g.n)
    target = check_node_index(target, g.n)
    resolve_monopoly_policy(on_monopoly)
    resolve_backend(backend)
    for spt, root in ((spt_source, source), (spt_target, target)):
        if spt is not None and (spt.root != root or spt.n != g.n):
            raise ValueError(
                f"precomputed SPT (root={spt.root}, n={spt.n}) does not "
                f"match endpoint {root} on a {g.n}-node graph"
            )
    if source == target:
        return FastPaymentResult(
            source, target, (), 0.0, {}, {}, np.full(g.n, -1, dtype=np.int64)
        )
    with _metrics.timed("fast_payment.time"), _tracer.span(
        "fast_payment", n=g.n, source=source, target=target
    ):
        return _fast_vcg_payments_impl(
            g, source, target, on_monopoly, backend, spt_source, spt_target
        )


def _fast_vcg_payments_impl(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    on_monopoly: str,
    backend: str,
    spt_i: ShortestPathTree | None = None,
    spt_j: ShortestPathTree | None = None,
) -> FastPaymentResult:
    if _metrics.enabled:
        _metrics.add("fast_payment.runs", 1)
    vectorized = backend != "python"
    spt_backend = spt_backend_for(backend)
    # Steps 1-2: the two shortest path trees, the LCP, and the levels.
    with _tracer.span("fast_payment.spt_build"):
        if spt_i is None:
            spt_i = node_weighted_spt(g, source, backend=spt_backend)
        if not spt_i.reachable(target):
            raise DisconnectedError(source, target)
        if spt_j is None:
            spt_j = node_weighted_spt(g, target, backend=spt_backend)
        path = spt_i.path_from_root(target)
        s = len(path) - 1
        lcp_cost = float(spt_i.dist[target])

        costs = g.costs
        l_til = spt_i.dist + costs  # L~(u); source fixed below
        l_til[source] = 0.0
        r_til = spt_j.dist + costs  # R~(v); target fixed below
        r_til[target] = 0.0

        # Step 2: levels (branch labels along P in SPT(v_i)).
        levels = spt_i.branch_labels(path)

    if s <= 1:  # direct edge: nothing to pay
        return FastPaymentResult(
            source, target, tuple(path), lcp_cost, {}, {}, levels
        )

    # Steps 3-5: the per-level region candidates ``c_minus`` and the
    # per-level crossing-edge minima. An edge ``(u, v)`` with
    # ``lu < lv`` is valid for every removal level l with lu < l < lv:
    # it enters the sweep at l = lu + 1 and expires once l >= lv.
    with _tracer.span("fast_payment.table_sweep"):
        on_path = np.zeros(g.n, dtype=bool)
        on_path[np.asarray(path, dtype=np.int64)] = True

        if vectorized:
            c_minus, crossing_best, heap_edges, region_total, n_regions = (
                _tables_numpy(g, levels, on_path, s, l_til, r_til)
            )
        else:
            c_minus, region_total, n_regions = _regions_python(
                g, levels, on_path, s, l_til, r_til
            )
            starts, values, expiries = _crossing_edges_python(
                g, levels, l_til, r_til
            )
            heap_edges = len(starts)
            crossing_best = _crossing_minima_heap(
                starts, values, expiries, s
            )

    with _tracer.span("fast_payment.payment_assembly"):
        avoiding: dict[int, float] = {}
        payments: dict[int, float] = {}
        for l in range(1, s):
            avoid = min(float(crossing_best[l]), float(c_minus[l]))
            r_l = path[l]
            if not np.isfinite(avoid):
                if on_monopoly == "raise":
                    raise MonopolyError(source, target, r_l)
                avoiding[r_l] = float("inf")
                payments[r_l] = float("inf")
                continue
            avoiding[r_l] = avoid
            payments[r_l] = avoid - lcp_cost + float(costs[r_l])  # step 6

    stats = {
        "path_hops": s,
        "crossing_edges": heap_edges,
        "region_nodes": region_total,
        "regions": n_regions,
    }
    if _metrics.enabled:
        _metrics.add("fast_payment.path_hops", s)
        _metrics.add("fast_payment.crossing_edges", heap_edges)
        _metrics.add("fast_payment.region_nodes", region_total)
    return FastPaymentResult(
        source,
        target,
        tuple(path),
        lcp_cost,
        avoiding,
        payments,
        levels,
        stats,
    )


# ---------------------------------------------------------------------------
# Scalar (oracle) kernels
# ---------------------------------------------------------------------------


def _regions_python(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    on_path: np.ndarray,
    s: int,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Steps 3-4 with per-node Python loops: bucket the off-path nodes by
    level, then run one boundary Dijkstra per region."""
    region_nodes: dict[int, list[int]] = {}
    for x in range(g.n):
        lx = int(levels[x])
        if 1 <= lx <= s - 1 and not on_path[x]:
            region_nodes.setdefault(lx, []).append(x)

    c_minus = np.full(s, np.inf)  # c^{-l}, indexed by l (entries 1..s-1)
    region_total = 0
    for l, members in region_nodes.items():
        region_total += len(members)
        c_minus[l] = _region_candidate(g, members, l, levels, l_til, r_til)
    return c_minus, region_total, len(region_nodes)


def _crossing_edges_python(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[list[int], list[float], list[int]]:
    """Step-5 table with a per-edge Python loop, as parallel lists
    ``(entry level, L~(u) + R~(v), expiry level)`` sorted by entry level."""
    by_start: dict[int, list[tuple[float, int]]] = {}
    for u, v in g.edge_iter():
        lu, lv = int(levels[u]), int(levels[v])
        if lu < 0 or lv < 0:
            continue
        if lu > lv:
            u, v, lu, lv = v, u, lv, lu
        if lv - lu < 2:
            continue  # no level strictly between: never a crossing edge
        value = float(l_til[u] + r_til[v])
        if not np.isfinite(value):
            continue
        by_start.setdefault(lu + 1, []).append((value, lv))
    starts: list[int] = []
    values: list[float] = []
    expiries: list[int] = []
    for start in sorted(by_start):
        for value, lv in by_start[start]:
            starts.append(start)
            values.append(value)
            expiries.append(lv)
    return starts, values, expiries


def _region_candidate(
    g: NodeWeightedGraph,
    members: list[int],
    l: int,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> float:
    """Steps 3-4 for one level-``l`` region.

    Runs a Dijkstra over the region where the tentative value of a region
    node ``x`` is ``R~^{-l}(x)`` — ``c_x`` plus the cheapest continuation
    to the target through levels ``> l`` (closed through ``R~`` of the
    first higher-level neighbour, sound by Lemma 2) — and returns

        ``c^{-l} = min over region x, neighbours u with level(u) < l of
        L~(u) + R~^{-l}(x)``.

    Only region-internal edges are relaxed, so across all levels the work
    is bounded by the full edge set once.
    """
    costs = g.costs
    in_region = set(members)
    dist: dict[int, float] = {}
    pq: list[tuple[float, int]] = []
    for x in members:
        best_boundary = np.inf
        for y in g.neighbors(x):
            if levels[y] > l:
                ry = r_til[y]
                if ry < best_boundary:
                    best_boundary = ry
        if np.isfinite(best_boundary):
            d0 = float(costs[x] + best_boundary)
            dist[x] = d0
            heapq.heappush(pq, (d0, x))

    settled: set[int] = set()
    while pq:
        dx, x = heapq.heappop(pq)
        if x in settled or dx > dist.get(x, np.inf):
            continue
        settled.add(x)
        for z in g.neighbors(x):
            z = int(z)
            if z in in_region and z not in settled:
                cand = float(costs[z]) + dx
                if cand < dist.get(z, np.inf):
                    dist[z] = cand
                    heapq.heappush(pq, (cand, z))

    best = np.inf
    for x, dx in dist.items():
        for u in g.neighbors(x):
            if levels[u] >= 0 and levels[u] < l:
                cand = float(l_til[u]) + dx
                if cand < best:
                    best = cand
    return float(best)


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------


def _tables_numpy(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    on_path: np.ndarray,
    s: int,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """Steps 3-5 for every level from one pass over the CSR arcs.

    Returns ``(c_minus, crossing_best, crossing_edges, region_nodes,
    regions)``: the per-level step-4 candidates, the per-level step-5
    crossing minima, and the counts the scalar kernels report.

    Everything is read off the shared ``levels[src]``/``levels[dst]``
    gathers. An *up* arc ``u -> y`` has ``0 <= level(u) < level(y)``;
    it is each undirected edge between two levels exactly once, and it
    feeds all three tables:

    * closures (steps 3-4): ``R~(y)`` bounds ``best_hi[u]``, the
      cheapest exit of ``u`` to a higher level, and ``L~(u)`` bounds
      ``best_lo[y]``, the cheapest entry of ``y`` from a lower level;
    * crossing edges (step 5): the up arcs that skip a level, valid for
      every removal level ``level(u) < l < level(y)`` at value
      ``L~(u) + R~(y)``.

    The step-3 region searches run as one scipy Dijkstra over
    :meth:`~repro.graph.node_graph.NodeWeightedGraph.augmented_csr`:
    regions at different levels are vertex-disjoint and only
    same-level arcs join them, so a virtual source seeded with each
    member's ``c_x + best_hi[x]`` solves them all at once. Arc weights
    are the head cost on arcs into a region node from its own level and
    ``+inf`` elsewhere, so a node outside the regions is never seeded
    nor reached, and what its own arcs weigh does not matter.

    Bit-identity with the scalar kernels: every table entry is a min
    over the same float64 sums, and a min does not depend on order.
    Relaxation adds the head cost to the settled distance as the scalar
    Dijkstra does, and with non-negative monotone addition the settled
    distances do not depend on tie-breaking. Zero weights take the
    scipy SPT backend's ``1e-300`` nudge and ``< 1e-250`` clip, so both
    compiled searches share one zero-cost convention.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    n = g.n
    src = g.arc_sources()
    dst = g.indices
    l_src = levels[src]
    l_dst = levels[dst]

    up = np.flatnonzero((l_src >= 0) & (l_dst > l_src))
    u = src[up]
    y = dst[up]
    l_u = l_til[u]
    r_y = r_til[y]
    best_hi = np.full(n, np.inf)
    np.minimum.at(best_hi, u, r_y)
    best_lo = np.full(n, np.inf)
    np.minimum.at(best_lo, y, l_u)

    lo = l_src[up]
    hi = l_dst[up]
    skip = np.flatnonzero(hi - lo >= 2)
    values = l_u[skip] + r_y[skip]
    finite = np.isfinite(values)
    crossing_best = _crossing_minima_numpy(
        lo[skip][finite] + 1, values[finite], hi[skip][finite], s
    )
    crossing_edges = int(np.count_nonzero(finite))

    c_minus = np.full(s, np.inf)  # c^{-l}, indexed by l (entries 1..s-1)
    members = np.flatnonzero((levels >= 1) & (levels <= s - 1) & ~on_path)
    if members.size == 0:
        return c_minus, crossing_best, crossing_edges, 0, 0
    member_costs = g.costs[members]
    head = np.full(n, np.inf)
    head[members] = np.where(member_costs > 0.0, member_costs, 1e-300)
    seeds = np.full(n, np.inf)
    seeds[members] = member_costs + best_hi[members]
    seeds[seeds <= 0.0] = 1e-300
    weights = np.concatenate(
        [np.where(l_src == l_dst, head[dst], np.inf), seeds]
    )
    indptr, indices = g.augmented_csr()
    matrix = csr_matrix(
        (weights, indices, indptr), shape=(n + 1, n + 1), copy=False
    )
    dist = sp_dijkstra(matrix, directed=True, indices=n)[members]
    dist[dist < 1e-250] = 0.0
    # Step 4: close every region node through its cheapest lower-level
    # neighbour. Unreached nodes carry dist=inf and nodes without a lower
    # neighbour best_lo=inf, so they drop out of the min, as in the
    # scalar scan that visits reached nodes only.
    member_levels = levels[members]
    np.minimum.at(c_minus, member_levels, best_lo[members] + dist)
    regions = int(np.count_nonzero(np.bincount(member_levels, minlength=s)))
    return c_minus, crossing_best, crossing_edges, int(members.size), regions


def _crossing_minima_heap(starts, values, expiries, s: int) -> np.ndarray:
    """Per-level minimum over the valid crossing edges, as a
    lazy-deletion heap sweep (the step-5 structure the paper describes:
    each edge enters and leaves the heap once). The stream must be
    sorted by entry level."""
    best = np.full(s, np.inf)
    heap = LazyMinHeap()
    heap_edges = len(starts)
    next_edge = 0
    for l in range(1, s):
        while next_edge < heap_edges and starts[next_edge] <= l:
            heap.push(float(values[next_edge]), int(expiries[next_edge]))
            next_edge += 1
        entry = heap.peek_valid(lambda lv, _l=l: lv > _l)
        if entry is not None:
            best[l] = entry[0]
    return best


def _crossing_minima_numpy(
    starts: np.ndarray,
    values: np.ndarray,
    expiries: np.ndarray,
    s: int,
) -> np.ndarray:
    """Per-level minimum over the valid crossing edges, vectorized.

    Expands each edge into its validity levels ``start .. expiry-1``
    (one ``np.repeat`` incidence stream) and scatters it with
    ``np.minimum.at`` — no per-edge Python heap traffic, and no sort:
    a minimum is order-independent, so the result matches the heap
    sweep bit for bit in any edge order. Falls back to the heap (sorted
    by entry level first) when the summed validity spans blow up past
    the O(E log E) regime (long paths crossed by long edges), keeping
    the worst case bounded.
    """
    best = np.full(s, np.inf)
    n_edges = int(len(starts))
    if n_edges == 0:
        return best
    lengths = expiries - starts
    total = int(lengths.sum())
    if total > 4 * n_edges + 65536:
        order = np.argsort(starts, kind="stable")
        return _crossing_minima_heap(
            starts[order], values[order], expiries[order], s
        )
    # Edge k covers flat slots offsets[k] .. offsets[k] + lengths[k] - 1
    # of the expansion; slot i lies on level i - offsets[k] + starts[k].
    offsets = np.cumsum(lengths) - lengths
    level = np.repeat(starts - offsets, lengths) + np.arange(total)
    np.minimum.at(best, level, np.repeat(values, lengths))
    return best
