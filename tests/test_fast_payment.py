"""Algorithm 1 (fast payment computation) against the naive oracle.

This is the load-bearing correctness test of the repository: the fast
algorithm's levels/regions/heap machinery must reproduce the per-removal
Dijkstra oracle exactly, on every topology hypothesis can dream up.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import fast_payment
from repro.core.fast_payment import fast_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.errors import DisconnectedError, MonopolyError
from repro.graph import generators as gen
from repro.graph.avoiding import avoiding_distance
from repro.graph.dijkstra import node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.wireless.topology import build_node_graph_from_udg

from conftest import graph_with_endpoints


class TestAgainstOracle:
    @given(graph_with_endpoints(max_nodes=24))
    @settings(max_examples=60)
    def test_matches_naive_payments(self, gst):
        g, s, t = gst
        naive = vcg_unicast_payments(g, s, t, method="naive")
        fast = vcg_unicast_payments(g, s, t, method="fast")
        assert naive.path == fast.path
        assert naive.lcp_cost == pytest.approx(fast.lcp_cost)
        for k in naive.relays:
            assert fast.payment(k) == pytest.approx(naive.payment(k), abs=1e-7)

    @given(graph_with_endpoints(max_nodes=20))
    def test_avoiding_costs_match_direct_dijkstra(self, gst):
        g, s, t = gst
        result = fast_vcg_payments(g, s, t, on_monopoly="inf")
        for k, cost in result.avoiding_costs.items():
            oracle = avoiding_distance(g, s, t, k, backend="python")
            if np.isfinite(oracle):
                assert cost == pytest.approx(oracle, abs=1e-7)
            else:
                assert not np.isfinite(cost)

    def test_random_sources_regression(self):
        """Regression for the preorder bug: the source must not be node 0."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(6, 30))
            g = gen.random_biconnected_graph(
                n, extra_edge_prob=float(rng.uniform(0, 0.5)),
                seed=int(rng.integers(2**31)),
            )
            s = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            if s == t:
                continue
            naive = vcg_unicast_payments(g, s, t, method="naive")
            fast = vcg_unicast_payments(g, s, t, method="fast")
            for k in naive.relays:
                assert fast.payment(k) == pytest.approx(naive.payment(k), abs=1e-7)

    def test_fig4_instance(self):
        g, src, ap, _ = gen.fig4_example()
        fast = fast_vcg_payments(g, src, ap)
        assert dict(fast.payments) == pytest.approx({1: 5.0, 2: 5.0, 3: 5.0})


class TestEdgeCases:
    def test_same_endpoints(self, small_graph):
        r = fast_vcg_payments(small_graph, 2, 2)
        assert r.path == () and not r.payments

    def test_adjacent_endpoints(self, small_graph):
        r = fast_vcg_payments(small_graph, 0, 1)
        assert r.path == (0, 1) and not r.payments

    def test_disconnected(self):
        g = NodeWeightedGraph(4, [(0, 1), (2, 3)], np.ones(4))
        with pytest.raises(DisconnectedError):
            fast_vcg_payments(g, 0, 3)

    def test_monopoly_modes(self):
        g = NodeWeightedGraph(3, [(0, 1), (1, 2)], np.ones(3))
        with pytest.raises(MonopolyError):
            fast_vcg_payments(g, 0, 2)
        r = fast_vcg_payments(g, 0, 2, on_monopoly="inf")
        assert r.payments[1] == float("inf")

    def test_bad_monopoly_mode(self, small_graph):
        with pytest.raises(ValueError, match="on_monopoly"):
            fast_vcg_payments(small_graph, 0, 3, on_monopoly="skip")

    def test_stats_exposed(self, random_graph):
        r = fast_vcg_payments(random_graph, 0, random_graph.n - 1)
        assert r.stats["path_hops"] == len(r.path) - 1
        assert r.stats["crossing_edges"] >= 0

    def test_to_unicast_payment(self, random_graph):
        r = fast_vcg_payments(random_graph, 0, random_graph.n - 1)
        up = r.to_unicast_payment()
        assert up.path == r.path
        assert up.total_payment == pytest.approx(sum(r.payments.values()))


class TestVectorizedBackend:
    """The numpy kernels against the scalar oracle: exact, not approx.

    Every vectorized replacement is an order-independent min/filter
    reduction over the same float64 inputs, so ``backend="numpy"`` must
    reproduce ``backend="python"`` bit for bit — including the stats.
    """

    @staticmethod
    def _assert_identical(a, b):
        assert a.path == b.path
        assert a.lcp_cost == b.lcp_cost  # exact
        assert dict(a.payments) == dict(b.payments)  # exact
        assert dict(a.avoiding_costs) == dict(b.avoiding_costs)
        assert dict(a.stats) == dict(b.stats)

    @given(graph_with_endpoints(max_nodes=24))
    @settings(max_examples=60)
    def test_numpy_matches_python_exactly(self, gst):
        g, s, t = gst
        scalar = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                   backend="python")
        vec = fast_vcg_payments(g, s, t, on_monopoly="inf", backend="numpy")
        self._assert_identical(scalar, vec)

    def test_numpy_matches_python_mass(self):
        """Thousands of seeded biconnected instances, exact agreement."""
        rng = np.random.default_rng(2004)
        for _ in range(2000):
            n = int(rng.integers(5, 28))
            g = gen.random_biconnected_graph(
                n, extra_edge_prob=float(rng.uniform(0, 0.6)),
                seed=int(rng.integers(2**31)),
            )
            s = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            scalar = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                       backend="python")
            vec = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                    backend="numpy")
            self._assert_identical(scalar, vec)

    def test_trailing_isolated_node_regression(self):
        """Trailing degree-0 nodes must not perturb the closure minima.

        Regression: the per-node closure minima were once taken with
        ``np.minimum.reduceat`` over CSR rows, with offsets clipped to
        ``len(arcs) - 1`` to keep trailing empty rows in range, which
        silently dropped the last arc of the final non-empty row — the
        vectorized backend then reported spurious monopolies (inf
        payments) the scalar oracle did not.
        """
        edges = [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (2, 5), (2, 6),
                 (3, 5), (4, 6)]  # nodes 1 and 7 isolated
        rng = np.random.default_rng(2004)
        for _ in range(50):
            g = NodeWeightedGraph(8, edges, rng.uniform(0.5, 20.0, 8))
            scalar = fast_vcg_payments(g, 3, 4, on_monopoly="inf",
                                       backend="python")
            vec = fast_vcg_payments(g, 3, 4, on_monopoly="inf",
                                    backend="numpy")
            self._assert_identical(scalar, vec)
            assert all(np.isfinite(p) for p in vec.payments.values())

    def test_numpy_matches_python_with_isolated_tail(self):
        """Biconnected core plus 1-3 trailing isolated nodes, exact."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(4, 16))
            core = gen.random_biconnected_graph(
                n, extra_edge_prob=float(rng.uniform(0, 0.5)),
                seed=int(rng.integers(2**31)),
            )
            extra = int(rng.integers(1, 4))
            costs = np.concatenate([core.costs,
                                    rng.uniform(0.5, 20.0, extra)])
            g = NodeWeightedGraph(n + extra, list(core.edge_iter()), costs)
            s = int(rng.integers(0, n))
            t = int(rng.integers(0, n))
            scalar = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                       backend="python")
            vec = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                    backend="numpy")
            self._assert_identical(scalar, vec)

    def test_numpy_matches_python_tie_heavy_costs(self):
        """Zero and small-integer costs, exact agreement.

        Equal-cost paths everywhere, and zero-cost arcs and zero region
        seeds, which the scipy region search carries as ``1e-300``
        nudges and clips back to exact zeros.
        """
        rng = np.random.default_rng(16)
        for trial in range(600):
            n = int(rng.integers(4, 26))
            g = gen.random_biconnected_graph(
                n, extra_edge_prob=float(rng.uniform(0, 0.6)),
                seed=int(rng.integers(2**31)),
            )
            if trial % 3 == 0:
                g = g.with_costs(np.zeros(n))
            else:
                g = g.with_costs(rng.integers(0, 3, n).astype(float))
            s, t = (int(v) for v in rng.choice(n, 2, replace=False))
            scalar = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                       backend="python")
            vec = fast_vcg_payments(g, s, t, on_monopoly="inf",
                                    backend="numpy")
            self._assert_identical(scalar, vec)

    def test_numpy_matches_python_on_udg_deployment(self):
        """30 pairs on a 500-node unit-disk deployment, exact agreement:
        the scale the pricing engine serves, with long routes and
        regions of hundreds of nodes."""
        rng = np.random.default_rng(2004)
        points = rng.uniform(0.0, 2000.0, size=(500, 2))
        costs = rng.uniform(1.0, 10.0, size=500)
        g = build_node_graph_from_udg(points, 300.0, costs)
        trees = {}
        compared = 0
        while compared < 30:
            s, t = (int(v) for v in rng.choice(g.n, 2, replace=False))
            for root in (s, t):
                if root not in trees:
                    trees[root] = node_weighted_spt(g, root, backend="python")
            if not trees[s].reachable(t):
                continue
            kwargs = dict(on_monopoly="inf", spt_source=trees[s],
                          spt_target=trees[t])
            scalar = fast_vcg_payments(g, s, t, backend="python", **kwargs)
            vec = fast_vcg_payments(g, s, t, backend="numpy", **kwargs)
            self._assert_identical(scalar, vec)
            compared += 1

    def test_heap_fallback_matches_python(self, monkeypatch):
        """Crossing edges whose validity spans sum past ``4 E + 65536``
        take the lazy-heap sweep on the numpy path too, exactly.

        A 560-node cheap path with 300 expensive side nodes, each
        bridging path nodes ``i`` and ``i + 251``: each bridge is a
        crossing edge valid for 250 removal levels, 75,000 in all. Side
        node ids are shuffled against ``i``, so the arcs do not come in
        entry-level order and the sweep must sort them.
        """
        length, span, bridges = 560, 251, 300
        rng = np.random.default_rng(5)
        edges = [(i, i + 1) for i in range(length - 1)]
        for k, i in enumerate(rng.permutation(bridges)):
            edges += [(length + k, int(i)), (length + k, int(i) + span)]
        costs = np.concatenate([np.ones(length),
                                rng.uniform(500.0, 1000.0, bridges)])
        g = NodeWeightedGraph(length + bridges, edges, costs)
        scalar = fast_vcg_payments(g, 0, length - 1, on_monopoly="inf",
                                   backend="python")
        sweeps = []
        heap = fast_payment._crossing_minima_heap

        def spy(starts, values, expiries, s):
            sweeps.append(len(starts))
            return heap(starts, values, expiries, s)

        monkeypatch.setattr(fast_payment, "_crossing_minima_heap", spy)
        vec = fast_vcg_payments(g, 0, length - 1, on_monopoly="inf",
                                backend="numpy")
        assert sweeps == [bridges]
        self._assert_identical(scalar, vec)
        assert vec.stats["crossing_edges"] == bridges
        finite = [p for p in vec.payments.values() if np.isfinite(p)]
        assert len(finite) > length // 2  # the bridges price most relays

    def test_scipy_backend_close(self, random_graph):
        """The scipy SPT may break distance ties differently, so the
        full-auto backend is compared approximately, not bitwise."""
        g = random_graph
        a = fast_vcg_payments(g, 0, g.n - 1, backend="python")
        b = fast_vcg_payments(g, 0, g.n - 1, backend="auto")
        assert a.lcp_cost == pytest.approx(b.lcp_cost)
        for k, p in a.payments.items():
            assert b.payments[k] == pytest.approx(p, abs=1e-7)

    def test_bad_backend(self, small_graph):
        with pytest.raises(ValueError, match="backend"):
            fast_vcg_payments(small_graph, 0, 3, backend="fortran")

    def test_precomputed_spts_identical(self, random_graph):
        from repro.graph.dijkstra import node_weighted_spt

        g = random_graph
        s, t = 0, g.n - 1
        spt_s = node_weighted_spt(g, s, backend="python")
        spt_t = node_weighted_spt(g, t, backend="python")
        plain = fast_vcg_payments(g, s, t, backend="numpy")
        shared = fast_vcg_payments(g, s, t, backend="numpy",
                                   spt_source=spt_s, spt_target=spt_t)
        self._assert_identical(plain, shared)

    def test_precomputed_spt_wrong_root_rejected(self, random_graph):
        from repro.graph.dijkstra import node_weighted_spt

        g = random_graph
        wrong = node_weighted_spt(g, 1, backend="python")
        with pytest.raises(ValueError, match="root"):
            fast_vcg_payments(g, 0, g.n - 1, spt_source=wrong)


class TestLevelInvariants:
    """The structural lemmas behind Algorithm 1, checked empirically."""

    @given(graph_with_endpoints(max_nodes=18))
    def test_lemma2_lcp_to_target_avoids_lower_path_nodes(self, gst):
        """Lemma 2: P(v_k, v_j, G) contains no path node r_a with
        a < level(v_k)."""
        from repro.graph.dijkstra import node_weighted_spt

        g, s, t = gst
        spt_s = node_weighted_spt(g, s, backend="python")
        spt_t = node_weighted_spt(g, t, backend="python")
        path = spt_s.path_from_root(t)
        pos = {v: i for i, v in enumerate(path)}
        levels = spt_s.branch_labels(path)
        for x in range(g.n):
            if not spt_t.reachable(x) or levels[x] < 0:
                continue
            to_target = spt_t.path_from_root(x)[::-1]  # x ... t
            for v in to_target[1:]:
                if v in pos:
                    assert pos[v] >= levels[x] or v == t

    @given(graph_with_endpoints(max_nodes=18))
    def test_lemma1_monotone_crossing(self, gst):
        """Lemma 1: along an optimal r_l-avoiding path, once a node with
        level >= l appears, every later node has level >= l."""
        from repro.graph.dijkstra import node_weighted_spt

        g, s, t = gst
        spt_s = node_weighted_spt(g, s, backend="python")
        path = spt_s.path_from_root(t)
        if len(path) < 3:
            return
        levels = spt_s.branch_labels(path)
        l = len(path) // 2  # remove the middle relay
        r_l = path[l]
        avoid_spt = node_weighted_spt(g, s, forbidden=[r_l], backend="python")
        if not avoid_spt.reachable(t):
            return
        detour = avoid_spt.path_from_root(t)
        crossed = False
        for v in detour:
            if levels[v] >= l:
                crossed = True
            elif crossed:
                # a sub-l node after crossing: the *optimal* detour found
                # by Dijkstra may differ from the lemma's canonical one
                # only if it has equal cost; verify no cheaper canonical
                # decomposition was missed by comparing costs.
                fast = fast_vcg_payments(g, s, t, on_monopoly="inf")
                assert fast.avoiding_costs[r_l] == pytest.approx(
                    float(avoid_spt.dist[t]), abs=1e-7
                )
                return
