"""The directed link-weighted graph of Section III.F.

In the power-controlled model each wireless node ``v_i`` has a *vector*
type ``c_i = (c_{i,0}, ..., c_{i,n-1})`` where ``c_{i,j}`` is its power
cost to support the link to ``v_j`` (``inf`` when ``v_j`` is out of
range). The communication structure is therefore a directed, weighted
graph: the weight of arc ``i -> j`` is ``c_{i,j}`` and belongs to agent
``i``.

:class:`LinkWeightedDigraph` stores the arcs in CSR form and caches the
reverse graph (needed for single-destination shortest paths toward the
access point) and the scipy sparse matrix (needed by the compiled Dijkstra
backend).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidGraphError
from repro.utils.validation import check_node_index

__all__ = ["LinkWeightedDigraph"]


class LinkWeightedDigraph:
    """Directed graph with per-arc weights owned by the tail node.

    Parameters
    ----------
    n:
        Number of nodes.
    arcs:
        Iterable of ``(u, v, w)`` with ``u != v`` and finite ``w >= 0``.
        At most one arc per ordered pair.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "_rev", "_csr")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, float]]) -> None:
        n = int(n)
        if n < 0:
            raise InvalidGraphError(f"number of nodes must be non-negative, got {n}")
        self.n = n
        triples: dict[tuple[int, int], float] = {}
        for u, v, w in arcs:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise InvalidGraphError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"arc ({u}, {v}) out of range for {n} nodes")
            if not np.isfinite(w) or w < 0:
                raise InvalidGraphError(
                    f"arc ({u}, {v}) has invalid weight {w}; use absence "
                    "instead of inf"
                )
            if (u, v) in triples:
                raise InvalidGraphError(f"duplicate arc ({u}, {v})")
            triples[(u, v)] = w
        if triples:
            keys = np.array(sorted(triples), dtype=np.int64)
            src, dst = keys[:, 0], keys[:, 1]
            wts = np.array([triples[(int(a), int(b))] for a, b in keys])
        else:
            src = dst = np.empty(0, dtype=np.int64)
            wts = np.empty(0, dtype=np.float64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        self.indptr, self.indices, self.weights = indptr, dst, wts
        for a in (self.indptr, self.indices, self.weights):
            a.setflags(write=False)
        self._rev = None
        self._csr = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_cost_matrix(cls, costs: np.ndarray) -> "LinkWeightedDigraph":
        """Build from an ``(n, n)`` matrix; ``inf`` entries mean "no arc".

        This is the literal Section III.F representation: row ``i`` is node
        ``v_i``'s declared type vector. The diagonal is ignored
        (``c_{i,i} = 0`` in the paper but there is no self-arc).
        """
        costs = np.asarray(costs, dtype=np.float64)
        if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
            raise InvalidGraphError(
                f"cost matrix must be square, got shape {costs.shape}"
            )
        n = costs.shape[0]
        src, dst = np.nonzero(np.isfinite(costs))
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return cls(n, zip(src.tolist(), dst.tolist(), costs[src, dst].tolist()))

    @classmethod
    def from_csr(cls, n: int, indptr, indices, weights) -> "LinkWeightedDigraph":
        """Wrap existing CSR arrays without copying them.

        The arrays must already be a valid CSR adjacency produced by this
        class (``int64`` index arrays, ``float64`` weights, rows sorted);
        only shapes are checked. Zero-copy counterpart of
        :meth:`repro.graph.node_graph.NodeWeightedGraph.from_csr`, used by
        :mod:`repro.analysis.shm` to rebuild a digraph over a
        shared-memory buffer.
        """
        n = int(n)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if indptr.shape != (n + 1,):
            raise InvalidGraphError(
                f"indptr must have shape ({n + 1},), got {indptr.shape}"
            )
        if indices.shape != weights.shape or indices.shape != (int(indptr[-1]),):
            raise InvalidGraphError(
                f"indices/weights length {indices.shape[0]}/{weights.shape[0]} "
                f"does not match indptr[-1]={int(indptr[-1])}"
            )
        dg = object.__new__(cls)
        dg.n = n
        dg.indptr, dg.indices, dg.weights = indptr, indices, weights
        for a in (dg.indptr, dg.indices, dg.weights):
            a.setflags(write=False)
        dg._rev = None
        dg._csr = None
        return dg

    @classmethod
    def from_undirected(
        cls, n: int, edges: Iterable[tuple[int, int, float]]
    ) -> "LinkWeightedDigraph":
        """Build a symmetric digraph (both orientations of every edge)."""
        arcs = []
        for u, v, w in edges:
            arcs.append((u, v, w))
            arcs.append((v, u, w))
        return cls(n, arcs)

    @classmethod
    def from_node_weighted(cls, g) -> "LinkWeightedDigraph":
        """Embed a :class:`NodeWeightedGraph`: arc ``u -> v`` costs ``c_u``.

        A directed path then costs the sum of the tail-node costs, i.e.
        node cost of every path node except the last; subtracting the
        source's cost gives the node-weighted internal-cost convention.
        Used by cross-model tests.
        """
        arcs = []
        for u, v in g.edge_iter():
            arcs.append((u, v, float(g.costs[u])))
            arcs.append((v, u, float(g.costs[v])))
        return cls(g.n, arcs)

    def with_node_removed(self, node: int) -> "LinkWeightedDigraph":
        """Copy of the digraph with all arcs incident to ``node`` dropped.

        This realizes the paper's ``d |^k inf`` operation for computing
        ``v_k``-avoiding paths in the link model.
        """
        node = check_node_index(node, self.n)
        keep = [
            (u, v, w)
            for u, v, w in self.arc_iter()
            if u != node and v != node
        ]
        return LinkWeightedDigraph(self.n, keep)

    def with_nodes_removed(self, nodes: Iterable[int]) -> "LinkWeightedDigraph":
        """Copy with every arc incident to any node in ``nodes`` dropped."""
        drop = {check_node_index(v, self.n) for v in nodes}
        keep = [
            (u, v, w)
            for u, v, w in self.arc_iter()
            if u not in drop and v not in drop
        ]
        return LinkWeightedDigraph(self.n, keep)

    def with_arc_weight(self, u: int, v: int, weight: float) -> "LinkWeightedDigraph":
        """Copy where arc ``u -> v`` gets ``weight`` (added if absent,
        dropped when ``weight`` is ``inf``).

        The single-arc analogue of :meth:`with_declaration` — what a
        long-lived pricing service applies when one link's power cost
        drifts.
        """
        u = check_node_index(u, self.n)
        v = check_node_index(v, self.n)
        if u == v:
            raise InvalidGraphError(f"self-loop at node {u} is not allowed")
        weight = float(weight)
        arcs = [(a, b, w) for a, b, w in self.arc_iter() if (a, b) != (u, v)]
        if np.isfinite(weight):
            arcs.append((u, v, weight))
        return LinkWeightedDigraph(self.n, arcs)

    def with_declaration(self, node: int, declared_row: np.ndarray) -> "LinkWeightedDigraph":
        """Copy where node ``node`` declares the outgoing-cost vector
        ``declared_row`` (length n; ``inf`` drops the arc).

        Arcs *into* ``node`` are untouched — a node's type covers only its
        own transmissions.
        """
        node = check_node_index(node, self.n)
        declared_row = np.asarray(declared_row, dtype=np.float64)
        if declared_row.shape != (self.n,):
            raise InvalidGraphError(
                f"declared row must have length {self.n}, got {declared_row.shape}"
            )
        arcs = [(u, v, w) for u, v, w in self.arc_iter() if u != node]
        for v in range(self.n):
            w = declared_row[v]
            if v != node and np.isfinite(w):
                if w < 0:
                    raise InvalidGraphError(
                        f"declared cost for arc ({node}, {v}) is negative: {w}"
                    )
                arcs.append((node, v, float(w)))
        return LinkWeightedDigraph(self.n, arcs)

    # -- queries ---------------------------------------------------------------

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs."""
        return int(self.indices.shape[0])

    def out_neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """``(heads, weights)`` of arcs leaving ``u`` (read-only views)."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def out_degree(self, u: int) -> int:
        """Number of outgoing arcs of a node."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def arc_weight(self, u: int, v: int) -> float:
        """Weight of arc ``u -> v``; ``inf`` if absent (paper convention)."""
        heads, wts = self.out_neighbors(u)
        pos = np.searchsorted(heads, v)
        if pos < heads.shape[0] and heads[pos] == v:
            return float(wts[pos])
        return float("inf")

    def has_arc(self, u: int, v: int) -> bool:
        """True if the directed arc exists."""
        return np.isfinite(self.arc_weight(u, v))

    def arc_iter(self) -> Iterator[tuple[int, int, float]]:
        """Yield every arc as ``(tail, head, weight)``."""
        for u in range(self.n):
            heads, wts = self.out_neighbors(u)
            for v, w in zip(heads, wts):
                yield u, int(v), float(w)

    def cost_row(self, u: int) -> np.ndarray:
        """Node ``u``'s type vector: length-n array, ``inf`` off-arcs."""
        row = np.full(self.n, np.inf)
        heads, wts = self.out_neighbors(u)
        row[heads] = wts
        row[u] = 0.0
        return row

    def cost_matrix(self) -> np.ndarray:
        """Full ``(n, n)`` type matrix (``inf`` = absent arc, 0 diagonal)."""
        return np.vstack([self.cost_row(u) for u in range(self.n)])

    # -- path costs --------------------------------------------------------------

    def path_cost(self, path: Sequence[int]) -> float:
        """Total weight of the directed walk ``path`` (all arcs counted)."""
        total = 0.0
        for a, b in zip(path, path[1:]):
            w = self.arc_weight(a, b)
            if not np.isfinite(w):
                raise InvalidGraphError(f"path uses missing arc ({a}, {b})")
            total += w
        return total

    def relay_cost(self, path: Sequence[int]) -> float:
        """Path cost excluding the source's own first transmission.

        This mirrors the node model's "internal cost" convention (II.C):
        the payment-to-cost ratios of Section III.G compare payments to the
        cost borne by *relay* nodes.
        """
        if len(path) <= 1:
            return 0.0
        return self.path_cost(path) - self.arc_weight(path[0], path[1])

    # -- conversions --------------------------------------------------------------

    def reverse(self) -> "LinkWeightedDigraph":
        """The reverse digraph (arc ``v -> u`` for every ``u -> v``), cached."""
        if self._rev is None:
            rev = LinkWeightedDigraph(
                self.n, ((v, u, w) for u, v, w in self.arc_iter())
            )
            rev._rev = self
            self._rev = rev
        return self._rev

    def to_scipy_csr(self):
        """CSR sparse matrix of arc weights (cached; do not mutate).

        A zero-weight arc is stored as an explicit 0, which
        ``scipy.sparse.csgraph`` reads as a zero-weight arc.
        """
        if self._csr is None:
            from scipy.sparse import csr_matrix

            self._csr = csr_matrix(
                (self.weights.copy(), self.indices.copy(), self.indptr.copy()),
                shape=(self.n, self.n),
            )
        return self._csr

    def to_networkx(self):
        """Convert to ``networkx.DiGraph`` with a ``weight`` arc attribute."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(self.arc_iter())
        return g

    # -- dunder ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinkWeightedDigraph(n={self.n}, arcs={self.num_arcs})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkWeightedDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes(), self.weights.tobytes()))
