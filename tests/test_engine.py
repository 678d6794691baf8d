"""PricingEngine: cache correctness, invalidation, workload replay.

The load-bearing test is the hypothesis interleaving property: any
seeded sequence of cost updates, node churn and queries must price
bit-identically to from-scratch ``vcg_unicast_payments`` on the
then-current graph — the engine's caches may only change *when* work
happens, never the numbers.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.link_vcg import link_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import (
    PricingEngine,
    ReplayReport,
    WorkloadOp,
    generate_workload,
    load_trace,
    replay,
    save_trace,
)
from repro.errors import DisconnectedError
from repro.graph import generators as gen
from repro.graph.node_graph import NodeWeightedGraph

from conftest import biconnected_graphs, robust_digraphs


def fresh(g, s, t):
    """The stateless oracle the engine must agree with, tagged."""
    try:
        p = vcg_unicast_payments(g, s, t, method="fast", on_monopoly="inf")
        return ("ok", p.path, p.lcp_cost, dict(p.payments))
    except DisconnectedError:
        return ("disconnected",)


def engine_answer(eng, s, t):
    try:
        p = eng.price(s, t)
        return ("ok", p.path, p.lcp_cost, dict(p.payments))
    except DisconnectedError:
        return ("disconnected",)


class TestInterleavingProperty:
    @given(
        biconnected_graphs(min_nodes=6, max_nodes=14),
        st.integers(0, 2**31 - 1),
        st.integers(10, 60),
    )
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_fresh_pricing(self, g, seed, n_steps):
        eng = PricingEngine(g, on_monopoly="inf")
        rng = np.random.default_rng(seed)
        current = g
        for _ in range(n_steps):
            r = rng.random()
            if r < 0.25:
                node = int(rng.integers(current.n))
                value = float(rng.uniform(0.5, 20.0))
                eng.update_cost(node, value)
                current = current.with_declaration(node, value)
            elif r < 0.30:
                node = int(rng.integers(current.n))
                eng.remove_node(node)
                kept = [
                    (u, v)
                    for u, v in current.edge_iter()
                    if u != node and v != node
                ]
                current = NodeWeightedGraph(current.n, kept, current.costs)
            elif r < 0.35:
                nbrs = rng.choice(
                    current.n, size=min(3, current.n), replace=False
                )
                new_id = eng.add_node(cost=2.5, neighbors=nbrs.tolist())
                assert new_id == current.n
                edges = list(current.edge_iter())
                edges += [(current.n, int(v)) for v in nbrs]
                current = NodeWeightedGraph(
                    current.n + 1,
                    edges,
                    np.append(current.costs, 2.5),
                )
            else:
                s = int(rng.integers(current.n))
                t = int(rng.integers(current.n))
                if s == t:
                    continue
                assert engine_answer(eng, s, t) == fresh(current, s, t)
        assert eng.n == current.n


class TestCaching:
    def test_cache_hit_same_answer(self, random_graph):
        eng = PricingEngine(random_graph)
        a = eng.price(5, 0)
        b = eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        assert eng.stats.cache_misses == 1
        assert (a.path, a.lcp_cost, dict(a.payments)) == (
            b.path,
            b.lcp_cost,
            dict(b.payments),
        )

    def test_version_starts_at_zero_and_bumps(self, random_graph):
        eng = PricingEngine(random_graph)
        assert eng.version == 0
        assert eng.update_cost(3, 99.0) == 1
        assert eng.update_cost(3, 99.0) == 1  # no-op change: no bump

    def test_noop_update_keeps_caches(self, random_graph):
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.update_cost(3, float(random_graph.costs[3]))
        eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        assert eng.stats.stale_evictions == 0

    def test_endpoint_cost_update_retains_pair(self, random_graph):
        # Endpoint costs never enter payments (Section II.C), so
        # re-declaring the source must keep the cached entry.
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.update_cost(5, float(random_graph.costs[5]) + 7.0)
        got = eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        want = vcg_unicast_payments(eng.graph, 5, 0, method="fast")
        assert dict(got.payments) == dict(want.payments)

    def test_update_log_holds_no_graph(self, random_graph):
        """A logged update keeps its cost vector, not a graph snapshot
        (and the O(m) tail-cost matrix one would pin), even once its
        witness tree is built."""
        eng = PricingEngine(random_graph, on_monopoly="inf")
        for s in range(1, 8):
            eng.price(s, 0)
        for node, cost in [(9, 0.5), (10, 40.0), (9, 3.0)]:
            eng.update_cost(node, cost)
        for s in range(1, 8):
            eng.price(s, 0)
        assert any(upd.witness is not None for upd in eng._log.values())
        for upd in eng._log.values():
            assert not any(
                isinstance(v, NodeWeightedGraph) for v in vars(upd).values()
            )

    def test_remove_node_lazily_evicts(self, random_graph):
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.remove_node(11)
        sizes = eng.cache_sizes()
        assert sizes["pairs"] == 1  # stale entry still resident
        eng.price(5, 0)
        assert eng.stats.stale_evictions >= 1
        assert eng.stats.cache_hits == 0

    def test_purge_stale(self, random_graph):
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.price(7, 0)
        before = eng.cache_sizes()
        eng.remove_node(11)
        dropped = eng.purge_stale()
        assert dropped == before["spts"] + before["pairs"]
        assert eng.cache_sizes() == {"spts": 0, "pairs": 0}

    def test_self_pair_is_empty(self, random_graph):
        eng = PricingEngine(random_graph)
        p = eng.price(4, 4)
        assert p.path == () and p.payments == {} and p.lcp_cost == 0.0

    def test_rejects_wrong_graph_type(self):
        with pytest.raises(TypeError):
            PricingEngine(object())

    def test_rejects_bad_knobs(self, random_graph):
        with pytest.raises(ValueError):
            PricingEngine(random_graph, backend="cuda")
        with pytest.raises(ValueError):
            PricingEngine(random_graph, on_monopoly="shrug")


class TestPriceMany:
    def test_matches_single_requests(self, random_graph):
        pairs = [(i, 0) for i in range(1, random_graph.n)]
        eng = PricingEngine(random_graph, on_monopoly="inf")
        batch = eng.price_many(pairs)
        for s, t in pairs:
            want = fresh(random_graph, s, t)
            got = batch[(s, t)]
            assert ("ok", got.path, got.lcp_cost, dict(got.payments)) == want

    def test_repeat_batch_hits_cache(self, random_graph):
        pairs = [(i, 0) for i in range(1, 10)]
        eng = PricingEngine(random_graph, on_monopoly="inf")
        eng.price_many(pairs)
        misses = eng.stats.cache_misses
        eng.price_many(pairs)
        assert eng.stats.cache_misses == misses
        assert eng.stats.cache_hits >= len(pairs)

    def test_jobs_parallel_bit_identical(self):
        g = gen.random_biconnected_graph(40, seed=5)
        pairs = [(i, 0) for i in range(1, g.n)]
        serial = PricingEngine(g, on_monopoly="inf").price_many(pairs)
        par = PricingEngine(g, on_monopoly="inf").price_many(pairs, jobs=2)
        assert serial.keys() == par.keys()
        for key in pairs:
            a, b = serial[key], par[key]
            assert a.path == b.path
            assert a.lcp_cost == b.lcp_cost
            assert dict(a.payments) == dict(b.payments)

    def test_parallel_batches_reuse_pool_and_leak_nothing(self):
        """Two consecutive parallel batches: the second reuses the
        persistent worker pool, both are bit-identical to serial, and no
        shared-memory segment survives either batch."""
        import glob

        from repro.analysis.shm import SEGMENT_PREFIX

        g = gen.random_biconnected_graph(36, seed=8)
        eng = PricingEngine(g, on_monopoly="inf")
        ref = PricingEngine(g, on_monopoly="inf")
        before = set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))
        for lo, hi in [(1, 18), (18, 36)]:
            pairs = [(i, 0) for i in range(lo, hi)]
            par = eng.price_many(pairs, jobs=2)
            ser = ref.price_many(pairs)
            for key in pairs:
                assert par[key].path == ser[key].path
                assert par[key].lcp_cost == ser[key].lcp_cost
                assert dict(par[key].payments) == dict(ser[key].payments)
        assert set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")) == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_entries_survive_off_path_update(self, jobs):
        """Batch-priced entries carry the same witnessed cost as single
        ones, so an update that provably misses every pair leaves them
        all cached, at any ``jobs``. The answers match from-scratch
        Algorithm 1 on the updated graph bit for bit, and the naive
        oracle up to float summation order."""
        g = gen.random_biconnected_graph(40, seed=5)
        k = 17  # priced far above any route, so never on one
        g = g.with_declaration(k, 1e3)
        pairs = [(i, 0) for i in range(1, g.n) if i != k]
        eng = PricingEngine(g, on_monopoly="inf")
        eng.price_many(pairs, jobs=jobs)
        eng.update_cost(k, 2e3)
        misses = eng.stats.cache_misses
        for s, t in pairs:
            got = engine_answer(eng, s, t)
            assert got == fresh(eng.graph, s, t)
            naive = vcg_unicast_payments(
                eng.graph, s, t, method="naive", on_monopoly="inf"
            )
            assert got[1] == naive.path
            assert got[3] == pytest.approx(dict(naive.payments), abs=1e-9)
        assert eng.stats.cache_misses == misses
        assert eng.stats.retained == len(pairs)
        assert eng.stats.invalidations == 0

    def test_deduplicates_pairs(self, random_graph):
        eng = PricingEngine(random_graph)
        out = eng.price_many([(5, 0), (5, 0), (6, 0)])
        assert set(out) == {(5, 0), (6, 0)}
        assert eng.stats.cache_misses == 2

    def test_batch_debug_log_keeps_its_fields(
        self, random_graph, caplog, monkeypatch
    ):
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        with caplog.at_level(logging.DEBUG, logger="repro.engine"):
            eng.price_many([(5, 0), (6, 0), (7, 0)])
        batch = [r for r in caplog.records if r.getMessage() == "batch priced"]
        assert len(batch) == 1
        record = batch[0]
        assert (record.pairs, record.misses) == (3, 2)
        assert record.version == eng.version
        assert record.elapsed_s >= 0.0


class TestLinkModel:
    @given(robust_digraphs(max_nodes=12))
    @settings(max_examples=10)
    def test_price_matches_stateless(self, dg):
        eng = PricingEngine(dg, on_monopoly="inf")
        assert eng.model == "link"
        got = eng.price(dg.n - 1, 0)
        want = link_vcg_payments(dg, dg.n - 1, 0, on_monopoly="inf")
        assert got.path == want.path
        assert dict(got.payments) == dict(want.payments)

    def test_arc_update_reprices(self, random_digraph):
        eng = PricingEngine(random_digraph, on_monopoly="inf")
        before = eng.price(7, 0)
        u, v = before.path[0], before.path[1]
        w = random_digraph.arc_weight(u, v)
        eng.update_cost((u, v), w + 50.0)
        after = eng.price(7, 0)
        want = link_vcg_payments(eng.graph, 7, 0, on_monopoly="inf")
        assert after.path == want.path
        assert dict(after.payments) == dict(want.payments)
        assert eng.stats.stale_evictions >= 1


class TestWorkload:
    def test_generation_is_deterministic(self, random_graph):
        a = generate_workload(random_graph, n_ops=50, seed=3)
        b = generate_workload(random_graph, n_ops=50, seed=3)
        assert a == b
        c = generate_workload(random_graph, n_ops=50, seed=4)
        assert a != c

    def test_mix_and_targets(self, random_graph):
        ops = generate_workload(
            random_graph, n_ops=200, update_frac=0.5, seed=1, target=0
        )
        kinds = {op.kind for op in ops}
        assert kinds == {"price", "update"}
        assert all(op.target == 0 for op in ops if op.kind == "price")

    def test_random_targets(self, random_graph):
        ops = generate_workload(random_graph, n_ops=60, seed=2, target=None)
        queries = [op for op in ops if op.kind == "price"]
        assert all(op.source != op.target for op in queries)
        assert len({op.target for op in queries}) > 1

    def test_op_validation(self):
        with pytest.raises(ValueError):
            WorkloadOp(kind="teleport")
        with pytest.raises(ValueError):
            generate_workload(
                gen.random_biconnected_graph(8, seed=0), update_frac=1.5
            )
        with pytest.raises(TypeError):
            generate_workload(object())

    def test_trace_round_trip(self, tmp_path, random_graph):
        ops = generate_workload(random_graph, n_ops=40, seed=9)
        path = tmp_path / "trace.jsonl"
        save_trace(ops, path)
        assert load_trace(path) == ops

    def test_replay_compare_no_mismatches(self):
        g = gen.random_biconnected_graph(30, seed=11)
        ops = generate_workload(g, n_ops=120, update_frac=0.2, seed=11)
        eng = PricingEngine(g, on_monopoly="inf")
        report = replay(eng, ops, compare=True)
        assert isinstance(report, ReplayReport)
        assert report.mismatches == 0
        assert report.n_queries + report.n_updates == len(ops)
        assert report.final_version == eng.version
        assert report.naive_elapsed is not None
        assert report.speedup == report.naive_elapsed / report.elapsed
        assert "hit rate" in report.describe()

    def test_replay_without_compare_has_nan_speedup(self, random_graph):
        ops = generate_workload(random_graph, n_ops=20, seed=0)
        report = replay(PricingEngine(random_graph, on_monopoly="inf"), ops)
        assert report.naive_elapsed is None
        assert np.isnan(report.speedup)

    def test_compare_is_node_model_only(self, random_digraph):
        eng = PricingEngine(random_digraph, on_monopoly="inf")
        with pytest.raises(NotImplementedError):
            replay(eng, [WorkloadOp.price(3, 0)], compare=True)


class TestMetricsMirror:
    def test_engine_counters_reach_registry(self, random_graph):
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        try:
            eng = PricingEngine(random_graph)
            eng.price(5, 0)
            eng.price(5, 0)
            snap = REGISTRY.snapshot().counters
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["engine.queries"] == 2
        assert snap["engine.cache_hits"] == 1
        assert snap["engine.cache_misses"] == 1


class TestPairSurvivalMargin:
    """The pair-survival certificate compares a through-``k`` lower
    bound against the witnessed maximum. The bound is *tight* precisely
    when a witnessed avoiding path runs through ``k`` — and the two
    sides sum the same node costs in different orders, so float noise
    can leave the bound a single ULP above the witnessed value. A
    near-tie must drop the entry (the avoiding path may use ``k``)."""

    @staticmethod
    def _engine_and_update(old, new):
        from repro.engine.engine import _CostUpdate
        from repro.graph.spt import ShortestPathTree

        g = gen.random_biconnected_graph(6, seed=3)
        eng = PricingEngine(g, on_monopoly="inf")
        dist = np.full(g.n, np.inf)
        dist[0], dist[1] = 0.1, 0.3  # d_k(s), d_k(t)
        witness = ShortestPathTree(2, dist, np.full(g.n, -1, dtype=np.int64))
        return eng, _CostUpdate(2, old, new, g.costs, witness=witness)

    def test_one_ulp_clearance_drops_the_entry(self):
        # bound = (0.1 + 0.2) + 0.3 is exactly one ULP above the same
        # mathematical sum taken in path order, (0.3 + 0.2) + 0.1.
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        witnessed = (0.3 + 0.2) + 0.1
        bound = (0.1 + upd.old) + 0.3
        assert bound > witnessed  # the raw strict test would survive
        assert not eng._pair_survives(witnessed, (0, 1), upd)

    def test_genuine_clearance_survives(self):
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        assert eng._pair_survives(0.25, (0, 1), upd)

    def test_endpoint_updates_always_survive(self):
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        upd.node = 0
        assert eng._pair_survives(0.6, (0, 1), upd)
