"""The node-weighted communication graph of Sections II.B–II.C.

A :class:`NodeWeightedGraph` is an undirected graph over nodes
``0 .. n-1`` where node ``i`` has a relaying cost ``costs[i] >= 0``. The
cost of a path ``v_{r_s} .. v_{r_0}`` is ``sum(costs[r_j] for 0 < j < s)``
— the source and target contribute nothing (paper, Section II.C).

Adjacency is stored in CSR form (``indptr``/``indices``; every undirected
edge appears in both endpoint rows), which keeps neighbour iteration a
NumPy slice — per the HPC guides, contiguous access and no per-edge Python
objects on hot paths.

Node identities are stable: algorithms that "remove" a node take a
``forbidden`` mask rather than re-indexing, so payments computed on
``G \\ v_k`` refer to the same node ids as on ``G``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidGraphError
from repro.utils.validation import (
    check_cost_array,
    check_node_index,
)

__all__ = ["NodeWeightedGraph"]


class NodeWeightedGraph:
    """Undirected graph with per-node relaying costs (CSR adjacency).

    Parameters
    ----------
    n:
        Number of nodes. Node ``0`` conventionally plays the access point
        ``v_0`` in the unicast problem, but nothing in this class assumes
        that.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``. Duplicate pairs and
        both orientations of the same pair are coalesced.
    costs:
        Length-``n`` array of non-negative, finite node costs.
    """

    __slots__ = (
        "n", "costs", "indptr", "indices", "_nx_cache", "_topology", "_tailcost"
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], costs) -> None:
        n = int(n)
        if n < 0:
            raise InvalidGraphError(f"number of nodes must be non-negative, got {n}")
        self.n = n
        self.costs = check_cost_array(costs, n, name="node costs")
        self.costs.setflags(write=False)
        self.indptr, self.indices = self._build_csr(n, edges)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._nx_cache = None
        self._topology: dict[str, object] = {}
        self._tailcost = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def _build_csr(
        n: int, edges: Iterable[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        pairs = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidGraphError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(
                    f"edge ({u}, {v}) out of range for {n} nodes"
                )
            pairs.add((u, v) if u < v else (v, u))
        if not pairs:
            return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.array(sorted(pairs), dtype=np.int64)
        # Symmetrize: each undirected edge contributes two directed rows.
        src = np.concatenate([arr[:, 0], arr[:, 1]])
        dst = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, dst

    @classmethod
    def from_networkx(cls, g, cost_attr: str = "cost") -> "NodeWeightedGraph":
        """Build from a networkx graph whose nodes are ``0..n-1``.

        Node costs are read from node attribute ``cost_attr`` (default
        ``"cost"``), missing attributes default to 0.
        """
        n = g.number_of_nodes()
        nodes = sorted(g.nodes)
        if nodes != list(range(n)):
            raise InvalidGraphError(
                "networkx graph nodes must be exactly 0..n-1; relabel first"
            )
        costs = np.array(
            [float(g.nodes[i].get(cost_attr, 0.0)) for i in range(n)]
        )
        return cls(n, g.edges(), costs)

    @classmethod
    def from_edge_list(
        cls, edges: Sequence[tuple[int, int]], costs
    ) -> "NodeWeightedGraph":
        """Build with ``n`` inferred from ``len(costs)``."""
        return cls(len(costs), edges, costs)

    @classmethod
    def from_csr(cls, n: int, costs, indptr, indices) -> "NodeWeightedGraph":
        """Wrap existing CSR arrays without copying them.

        The arrays must already be a valid symmetric CSR adjacency (as
        produced by this class) with ``float64`` costs and ``int64``
        index arrays; only shapes are checked. This is the zero-copy
        entry point used by :mod:`repro.analysis.shm` to reconstruct a
        graph over a shared-memory buffer — the returned graph *views*
        the caller's arrays, it does not own fresh copies.
        """
        n = int(n)
        costs = np.asarray(costs, dtype=np.float64)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if costs.shape != (n,):
            raise InvalidGraphError(
                f"costs must have shape ({n},), got {costs.shape}"
            )
        if indptr.shape != (n + 1,):
            raise InvalidGraphError(
                f"indptr must have shape ({n + 1},), got {indptr.shape}"
            )
        if indices.shape != (int(indptr[-1]) if n else 0,):
            raise InvalidGraphError(
                f"indices length {indices.shape[0]} does not match "
                f"indptr[-1]={int(indptr[-1]) if n else 0}"
            )
        g = object.__new__(cls)
        g.n = n
        g.costs = costs
        g.indptr = indptr
        g.indices = indices
        for a in (g.costs, g.indptr, g.indices):
            a.setflags(write=False)
        g._nx_cache = None
        g._topology = {}
        g._tailcost = None
        return g

    def with_costs(self, costs) -> "NodeWeightedGraph":
        """Same topology, different cost vector (used for declared costs)."""
        g = object.__new__(NodeWeightedGraph)
        g.n = self.n
        g.costs = check_cost_array(costs, self.n, name="node costs")
        g.costs.setflags(write=False)
        g.indptr = self.indptr
        g.indices = self.indices
        g._nx_cache = None
        # Topology-only caches live in one dict that every cost version of
        # this topology shares, so whichever version builds one first
        # builds it for all of them.
        g._topology = self._topology
        g._tailcost = None  # cost-dependent, cannot be shared
        return g

    def with_declaration(self, node: int, declared_cost: float) -> "NodeWeightedGraph":
        """Copy where ``node`` declares ``declared_cost`` instead of its true cost.

        This is the ``d | ^i d_i`` operation of the mechanism-design
        notation: all other entries keep their current value.
        """
        check_node_index(node, self.n)
        costs = self.costs.copy()
        costs[node] = declared_cost
        return self.with_costs(costs)

    def without_edge(self, u: int, v: int) -> "NodeWeightedGraph":
        """Copy with undirected edge (u, v) removed (used by lying-source
        scenarios where a node hides a neighbourhood link, Figure 2)."""
        u = check_node_index(u, self.n)
        v = check_node_index(v, self.n)
        if not self.has_edge(u, v):
            raise InvalidGraphError(f"edge ({u}, {v}) not present")
        kept = [
            (a, b)
            for a, b in self.edge_iter()
            if {a, b} != {u, v}
        ]
        return NodeWeightedGraph(self.n, kept, self.costs)

    def with_extra_edges(
        self, extra: Iterable[tuple[int, int]]
    ) -> "NodeWeightedGraph":
        """Copy with additional undirected edges."""
        edges = list(self.edge_iter()) + list(extra)
        return NodeWeightedGraph(self.n, edges, self.costs)

    # -- queries ---------------------------------------------------------------

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of ``u`` as a read-only array view (sorted)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Number of neighbours of a node."""
        return int(self.indptr[u + 1] - self.indptr[u])

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """True if the undirected edge exists."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.shape[0] and row[pos] == v)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    def edge_iter(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def arc_sources(self) -> np.ndarray:
        """Source node of every CSR arc: ``indices[k]`` is a neighbour of
        ``arc_sources()[k]``. Cached and read-only — this expansion is
        what lets per-edge scans run as whole-array numpy expressions.
        """
        src = self._topology.get("arc_src")
        if src is None:
            src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            src.setflags(write=False)
            self._topology["arc_src"] = src
        return src

    def augmented_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as int32 ``(indptr, indices)`` plus one
        *virtual-source* row ``n`` with an arc to every node.

        The index structure of an ``(n + 1) x (n + 1)`` CSR matrix whose
        first ``n`` rows are the graph's arcs in CSR order and whose last
        row is ``n -> 0 .. n-1``. Pair it with a weight vector (the ``2m``
        arc weights in CSR order, then ``n`` virtual-source weights) to
        hand scipy a multi-seed search without building a matrix per
        call; an arc weighted ``+inf`` reaches nothing. Its leading
        ``n + 1`` / ``2m`` entries are also the index arrays of
        :meth:`to_tailcost_matrix`. int32 is the index type
        ``scipy.sparse.csgraph`` solves over, so no call converts it.

        Topology-only: cached read-only in the dict that every
        :meth:`with_costs` version of this topology shares, so they all
        use one copy, whichever built it. Concurrent first callers may
        each build it; the copies are equal.
        """
        csr = self._topology.get("csr32")
        if csr is None:
            n = self.n
            nnz = self.indices.shape[0]
            indptr = np.empty(n + 2, dtype=np.int32)
            indptr[:-1] = self.indptr
            indptr[-1] = nnz + n
            indices = np.empty(nnz + n, dtype=np.int32)
            indices[:nnz] = self.indices
            indices[nnz:] = np.arange(n, dtype=np.int32)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            csr = self._topology["csr32"] = (indptr, indices)
        return csr

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        src = self.arc_sources()
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def closed_neighborhood(self, u: int) -> np.ndarray:
        """``N(v_u)`` in the paper's Section III.E sense: ``u`` plus all its
        neighbours (used by the neighbour-collusion-resistant scheme)."""
        return np.concatenate([[u], self.neighbors(u)]).astype(np.int64)

    def k_hop_neighborhood(self, u: int, radius: int) -> set[int]:
        """All nodes within ``radius`` hops of ``u`` (including ``u``).

        ``radius = 0`` is ``{u}`` (the plain III.A scheme's removal set),
        ``radius = 1`` is the closed neighbourhood ``N(v_u)``; larger
        radii instantiate the generalized ``Q(v_k)`` scheme of Section
        III.E against wider colluding cliques.
        """
        u = check_node_index(u, self.n)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        seen = {u}
        frontier = [u]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                for w in self.neighbors(x):
                    w = int(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
            if not frontier:
                break
        return seen

    # -- path costs --------------------------------------------------------------

    def path_cost(self, path: Sequence[int]) -> float:
        """Cost of a path = sum of **internal** node costs (Section II.C).

        ``path`` must be a node sequence along existing edges; a length-0/1
        path costs 0. Raises :class:`InvalidGraphError` on a broken path.
        """
        path = [check_node_index(p, self.n) for p in path]
        for a, b in zip(path, path[1:]):
            if not self.has_edge(a, b):
                raise InvalidGraphError(f"path uses missing edge ({a}, {b})")
        if len(path) <= 2:
            return 0.0
        return float(self.costs[np.asarray(path[1:-1], dtype=np.int64)].sum())

    def is_path(self, path: Sequence[int]) -> bool:
        """True if ``path`` is a walk along existing edges with no repeats."""
        if len(path) != len(set(path)):
            return False
        try:
            self.path_cost(path)
        except (InvalidGraphError, KeyError):
            return False
        return True

    # -- conversions --------------------------------------------------------------

    def to_networkx(self):
        """Convert to ``networkx.Graph`` with a ``cost`` node attribute.

        The result is cached (the graph is immutable); callers must not
        mutate it.
        """
        if self._nx_cache is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(
                (i, {"cost": float(self.costs[i])}) for i in range(self.n)
            )
            g.add_edges_from(self.edge_iter())
            self._nx_cache = g
        return self._nx_cache

    def to_tailcost_matrix(self) -> "object":
        """Directed CSR matrix with ``w(u, v) = c_u`` (the tail's cost).

        With the root's outgoing arcs zeroed, a directed walk from the
        root accumulates exactly the internal-node cost of the path, in
        path order — the same left-to-right float additions the python
        Dijkstra performs. So the scipy backend produces bit-identical
        ``dist`` arrays, and (unlike a transform that needs a correction
        term) ``dist[x]`` never depends on the costs of the endpoints,
        even in the last ulp — which is what lets the PricingEngine keep
        a cached tree across an endpoint re-declaration. Zero costs are
        nudged to 1e-300 (scipy's CSR treats exact zeros as missing
        arcs); the nudge is annihilated by the first real addition and
        clipped after the solve.

        The matrix is cached (the graph is immutable) — per-source and
        batched Dijkstra calls over the same snapshot reuse one CSR
        instead of rebuilding it per call. Its read-only index arrays
        view :meth:`augmented_csr`, which cost-only versions share, so a
        version owns only its ``data``. Callers must not mutate it.
        """
        if self._tailcost is None:
            from scipy.sparse import csr_matrix

            indptr, indices = self.augmented_csr()
            data = self.costs[self.arc_sources()]
            data[data <= 0.0] = 1e-300
            self._tailcost = csr_matrix(
                (data, indices[: self.indices.shape[0]], indptr[:-1]),
                shape=(self.n, self.n),
                copy=False,
            )
        return self._tailcost

    # -- dunder ---------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"NodeWeightedGraph(n={self.n}, m={self.num_edges}, "
            f"cost_range=[{self.costs.min() if self.n else 0:.3g}, "
            f"{self.costs.max() if self.n else 0:.3g}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeWeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.costs, other.costs)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes(), self.costs.tobytes()))
