"""The PricingEngine's steady-state claim: caching beats recomputing.

A deployed access point serves a stream that is mostly queries from a
recurring pool of sources, with occasional cost re-declarations mixed
in (the 90/10 mix of :func:`repro.engine.generate_workload`; updates
re-declare *any* of the 500 nodes, not just pool members). The engine
answers from its versioned SPT/payment caches, rebuilds stale trees and
fast-forwards stale pairs through the update log; the baseline prices
every query from scratch with Algorithm 1 on the then-current graph.

Steady state is measured the honest way: one long workload, the first
half replayed once to warm the caches (untimed), the second half — whose
updates are all fresh declarations — replayed in compare mode, which
checks bit-identity on every answer *and* times both sides on identical
work. The acceptance bar is a >= 5x wall-clock win on a 500-node
unit-disk instance.
"""

import time

import numpy as np
import pytest

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import PricingEngine, generate_workload, replay
from repro.wireless.topology import build_node_graph_from_udg

from conftest import emit

N_NODES = 500
RANGE_M = 300.0
REGION_M = 2000.0
HOT_SOURCES = 25  # size of the recurring source pool


def _udg_instance(n: int = N_NODES, seed: int = 2004):
    """Paper-style deployment: n nodes uniform in a 2000 m square, UDG
    links at 300 m, scalar declared costs."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, REGION_M, size=(n, 2))
    costs = rng.uniform(1.0, 10.0, size=n)
    return build_node_graph_from_udg(points, RANGE_M, costs)


def _naive_replay(g, ops):
    """Price every query from scratch on the then-current graph."""
    for op in ops:
        if op.kind == "price":
            vcg_unicast_payments(
                g, op.source, op.target, method="fast", on_monopoly="inf"
            )
        else:
            g = g.with_declaration(op.node, op.value)


def test_engine_steady_state_speedup(benchmark, scale):
    """The tentpole acceptance criterion, measured end to end."""
    n_ops = 2400 if scale.full else 1200
    g = _udg_instance()
    ops = generate_workload(
        g, n_ops=n_ops, update_frac=0.1, seed=7, target=0,
        hot_sources=HOT_SOURCES,
    )
    warm, measured = ops[: n_ops // 2], ops[n_ops // 2 :]
    # Warm-up: pay scipy import + first-allocation costs outside timing.
    vcg_unicast_payments(g, 1, 0, method="fast", on_monopoly="inf")

    eng = PricingEngine(g, on_monopoly="inf")
    replay(eng, warm)
    report = replay(eng, measured, compare=True)
    assert report.mismatches == 0
    emit(report.describe())

    benchmark.extra_info["engine"] = report.stats.as_dict()
    benchmark.extra_info["speedup"] = round(report.speedup, 2)
    benchmark.extra_info["n_nodes"] = g.n
    benchmark.extra_info["n_ops"] = n_ops

    def steady_half():
        e = PricingEngine(g, on_monopoly="inf")
        replay(e, warm)
        return replay(e, measured)

    benchmark.pedantic(steady_half, rounds=1, iterations=1)
    assert report.speedup >= 5.0


def test_engine_replay_speed(benchmark, scale):
    """Wall-clock of the engine side alone (for BENCH_* comparisons)."""
    g = _udg_instance()
    ops = generate_workload(
        g, n_ops=400, update_frac=0.1, seed=7, target=0,
        hot_sources=HOT_SOURCES,
    )
    eng = PricingEngine(g, on_monopoly="inf")
    replay(eng, ops)  # warm: steady-state means hot caches

    def steady():
        return replay(eng, ops)

    report = benchmark(steady)
    assert report.mismatches == 0
    benchmark.extra_info["engine"] = eng.stats.as_dict()


def test_naive_replay_speed(benchmark):
    """The per-request full-recompute baseline on the same trace."""
    g = _udg_instance()
    ops = generate_workload(
        g, n_ops=400, update_frac=0.1, seed=7, target=0,
        hot_sources=HOT_SOURCES,
    )
    benchmark.pedantic(lambda: _naive_replay(g, ops), rounds=1, iterations=1)


def test_batched_spt_speedup(benchmark, scale):
    """The batched multi-source SPT acceptance criterion.

    Pricing 200 distinct sources toward the access point on the 500-node
    instance through the batched path (``backend="auto"``: one
    ``scipy.sparse.csgraph.dijkstra(indices=sources)`` call over the
    cached CSR, vectorized Algorithm-1 kernels) must beat the per-source
    path — SPTs built one source at a time in a Python loop, identical
    Algorithm-1 kernels (``backend="numpy"``) — by >= 3x, bit-identically.

    With ``REPRO_BENCH_JOBS`` > 1 the same batch also goes through the
    shared-memory arena + persistent pool fan-out and must agree.
    """
    from repro.core.allpairs import pairwise_vcg_payments

    g = _udg_instance()
    rng = np.random.default_rng(11)
    sources = rng.choice(np.arange(1, g.n), size=200, replace=False)
    pairs = [(int(s), 0) for s in sources]

    # Warm-up: scipy import + the graph's cached CSR build, outside timing.
    pairwise_vcg_payments(g, pairs[:1])

    t0 = time.perf_counter()
    batched = pairwise_vcg_payments(g, pairs)
    t_batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    per_source = pairwise_vcg_payments(g, pairs, backend="numpy")
    t_per_source = time.perf_counter() - t0

    for key in pairs:
        a, b = batched[key], per_source[key]
        assert a.path == b.path
        assert dict(a.payments) == dict(b.payments)

    if scale.jobs not in (0, 1):
        par = PricingEngine(g, on_monopoly="inf").price_many(
            pairs, jobs=scale.jobs
        )
        for key in pairs:
            assert par[key].path == batched[key].path
            assert dict(par[key].payments) == dict(batched[key].payments)

    speedup = t_per_source / t_batched
    emit(
        f"batch pricing {len(pairs)} pairs on n={g.n}: "
        f"batched {t_batched * 1e3:.0f} ms, "
        f"per-source {t_per_source * 1e3:.0f} ms (x{speedup:.1f})"
    )
    benchmark.extra_info["t_batched_ms"] = round(t_batched * 1e3, 1)
    benchmark.extra_info["t_per_source_ms"] = round(t_per_source * 1e3, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["jobs"] = scale.jobs
    benchmark.pedantic(
        lambda: pairwise_vcg_payments(g, pairs), rounds=1, iterations=1
    )
    assert speedup >= 3.0


def test_engine_wal_overhead(benchmark, tmp_path, scale):
    """Durability tax on the steady-state 90/10 workload.

    The same warmed workload replays through an in-memory engine and a
    durable one (``checkpoint_dir=`` with the default ``"interval"``
    fsync policy), and the WAL must cost < 15% wall-clock. The timed
    section is the durable replay, so ``bench_compare`` also gates it
    against the committed baseline.
    """
    g = _udg_instance()
    # One long stream, chunked: every measured chunk carries *fresh*
    # update declarations (replaying identical ops twice would no-op
    # the updates and log nothing — measuring noise, not the WAL).
    chunk_len, n_chunks = 200, 6
    ops = generate_workload(
        g, n_ops=chunk_len * n_chunks, update_frac=0.1, seed=7, target=0,
        hot_sources=HOT_SOURCES,
    )
    chunks = [ops[i * chunk_len:(i + 1) * chunk_len]
              for i in range(n_chunks)]
    plain = PricingEngine(g, on_monopoly="inf")
    durable = PricingEngine(g, checkpoint_dir=tmp_path / "state",
                            on_monopoly="inf")
    replay(plain, chunks[0])  # warm caches: steady state
    replay(durable, chunks[0])

    # Interleave timed chunks so machine noise hits both sides alike;
    # both engines apply the identical mutation stream throughout.
    t_plain = t_durable = 0.0
    for chunk in chunks[1:]:
        t0 = time.perf_counter()
        replay(plain, chunk)
        t_plain += time.perf_counter() - t0
        t0 = time.perf_counter()
        replay(durable, chunk)
        t_durable += time.perf_counter() - t0
    durable.close()
    assert durable.stats.wal_records > 0  # the WAL really was in play
    assert durable.version == plain.version

    overhead = t_durable / t_plain - 1.0
    emit(
        f"WAL overhead over {(n_chunks - 1) * chunk_len} steady-state "
        f"ops ({durable.stats.wal_records} logged mutations): in-memory "
        f"{t_plain * 1e3:.1f} ms, durable {t_durable * 1e3:.1f} ms "
        f"({overhead:+.1%})"
    )
    benchmark.extra_info["t_plain_ms"] = round(t_plain * 1e3, 1)
    benchmark.extra_info["t_durable_ms"] = round(t_durable * 1e3, 1)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    benchmark.extra_info["wal_records"] = durable.stats.wal_records

    def durable_stream():
        import shutil
        import tempfile

        d = tempfile.mkdtemp()
        try:
            e = PricingEngine(g, checkpoint_dir=d, on_monopoly="inf")
            out = None
            for chunk in chunks:
                out = replay(e, chunk)
            e.close()
            return out
        finally:
            shutil.rmtree(d, ignore_errors=True)

    benchmark.pedantic(durable_stream, rounds=1, iterations=1)
    assert overhead < 0.15


def test_price_many_shares_work(benchmark):
    """Batch pricing toward the access point: bit-identical to
    pair-at-a-time, and a warm repeat batch answers from cache."""
    g = _udg_instance(200)
    pairs = [(i, 0) for i in range(1, g.n)]

    eng = PricingEngine(g, on_monopoly="inf")
    t0 = time.perf_counter()
    batch = eng.price_many(pairs)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    again = eng.price_many(pairs)
    t_warm = time.perf_counter() - t0

    single = PricingEngine(g, on_monopoly="inf")
    one_by_one = {key: single.price(*key) for key in pairs}

    for key in pairs:
        a, b, c = batch[key], one_by_one[key], again[key]
        assert a.path == b.path == c.path
        assert dict(a.payments) == dict(b.payments) == dict(c.payments)
    emit(
        f"price_many on {len(pairs)} pairs: cold {t_cold * 1e3:.1f} ms, "
        f"warm repeat {t_warm * 1e3:.1f} ms "
        f"(x{t_cold / t_warm:.1f})"
    )
    benchmark.pedantic(
        lambda: PricingEngine(g, on_monopoly="inf").price_many(pairs),
        rounds=1,
        iterations=1,
    )
    assert t_warm < t_cold
