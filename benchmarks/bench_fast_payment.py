"""Section III.B's complexity claim: Algorithm 1 vs the naive method.

The naive payment computation runs one Dijkstra per on-path relay —
O(n^2 log n + nm) in the worst case; Algorithm 1 computes every payment
in one O(n log n + m) pass. These benches time both on the same
instances so ``--benchmark-only`` output shows the gap directly, and a
scaling test asserts the fast path's advantage grows with n.
"""

import time

import numpy as np
import pytest

from repro.core.fast_payment import fast_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.graph import generators as gen
from repro.graph.dijkstra import node_weighted_spt
from repro.obs.metrics import REGISTRY
from repro.wireless.topology import build_node_graph_from_udg

from conftest import emit


def _instance(n: int, seed: int = 99, density: float = 4.0):
    g = gen.random_biconnected_graph(n, extra_edge_prob=density / n, seed=seed)
    # endpoints far apart: a long LCP maximizes the naive method's work
    return g, 0, n // 2


def _sparse_instance(n: int, seed: int = 99):
    """Near-cycle topology: the LCP has Theta(n) relays, the regime where
    the naive method's O(|path|) Dijkstras dominate."""
    return _instance(n, seed=seed, density=0.5)


@pytest.mark.parametrize("n", [100, 300])
def test_fast_payment_speed(benchmark, n):
    g, s, t = _instance(n)
    result = benchmark(
        lambda: vcg_unicast_payments(g, s, t, method="fast")
    )
    assert result.total_payment >= result.lcp_cost - 1e-9


@pytest.mark.parametrize("n", [100, 300])
def test_naive_payment_speed(benchmark, n):
    g, s, t = _instance(n)
    result = benchmark(
        lambda: vcg_unicast_payments(g, s, t, method="naive")
    )
    assert result.total_payment >= result.lcp_cost - 1e-9


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fast_beats_naive_at_scale(benchmark, scale):
    """Wall-clock sanity of the asymptotic claim, plus exact agreement.

    Measured on near-cycle topologies where the LCP has Theta(n) relays —
    the regime the O(n^2 log n + nm) vs O(n log n + m) separation is
    about. (On dense graphs with 4-hop routes both methods are fast and
    the comparison is dominated by constants.)
    """
    sizes = (200, 400) if not scale.full else (200, 400, 800)
    # Warm-up: first calls pay scipy-import and allocation costs.
    g0, s0, t0_ = _sparse_instance(50)
    vcg_unicast_payments(g0, s0, t0_, method="fast")
    vcg_unicast_payments(g0, s0, t0_, method="naive")

    rows = []
    for n in sizes:
        g, s, t = _sparse_instance(n)
        fast = vcg_unicast_payments(g, s, t, method="fast")
        naive = vcg_unicast_payments(g, s, t, method="naive")
        for k in naive.relays:
            assert fast.payment(k) == pytest.approx(naive.payment(k), abs=1e-6)
        t_fast = _best_of(lambda: vcg_unicast_payments(g, s, t, method="fast"))
        t_naive = _best_of(lambda: vcg_unicast_payments(g, s, t, method="naive"))
        rows.append((n, len(fast.relays), t_fast, t_naive, t_naive / t_fast))
    emit(
        "fast vs naive payment computation (near-cycle, Theta(n) relays)\n"
        + "\n".join(
            f"  n={n:5d} relays={r:3d} fast={tf * 1e3:8.2f} ms "
            f"naive={tn * 1e3:9.2f} ms speedup={sp:6.1f}x"
            for n, r, tf, tn, sp in rows
        )
    )
    benchmark.pedantic(
        lambda: vcg_unicast_payments(*_sparse_instance(sizes[-1]), method="fast"),
        rounds=1,
        iterations=1,
    )
    # the naive method must lose, and lose harder as n grows
    speedups = [row[4] for row in rows]
    assert speedups[-1] > 2.0
    assert speedups[-1] > 0.8 * speedups[0]


def test_vectorized_beats_scalar(benchmark, scale):
    """The vectorized Algorithm-1 kernels vs the scalar oracle.

    ``backend="numpy"`` and ``backend="python"`` share the same
    pure-Python SPT build, so this comparison isolates exactly what the
    vectorization changed: the steps 3-5 tables built from one pass
    over the CSR arcs (closures, crossing edges, and every region
    search in one scipy Dijkstra) instead of per-node and per-edge
    loops. Payments must agree bit-for-bit (the kernels only reorder
    exact min/filter reductions), and the vectorized path must win on
    the 400-node instance.
    """
    n = 400
    g, s, t = _instance(n)  # dense: kernel work is a meaningful slice
    scalar = fast_vcg_payments(g, s, t, backend="python")
    vec = fast_vcg_payments(g, s, t, backend="numpy")
    assert dict(vec.payments) == dict(scalar.payments)  # exact, not approx

    # Warm-up, then best-of timing for both backends.
    fast_vcg_payments(g, s, t, backend="numpy")
    t_scalar = _best_of(lambda: fast_vcg_payments(g, s, t, backend="python"),
                        repeats=7)
    t_vec = _best_of(lambda: fast_vcg_payments(g, s, t, backend="numpy"),
                     repeats=7)
    emit(
        f"Algorithm-1 kernels on n={n}: scalar {t_scalar * 1e3:.2f} ms, "
        f"vectorized {t_vec * 1e3:.2f} ms "
        f"(x{t_scalar / t_vec:.2f} incl. shared SPT build)"
    )
    benchmark.pedantic(
        lambda: fast_vcg_payments(g, s, t, backend="numpy"),
        rounds=3,
        iterations=1,
    )
    assert t_vec < t_scalar


# Measured on a 2-vCPU VM: 4.75-5.04 with the four separate step 3-5
# kernels, 2.09-2.36 with the fused arc pass.
WARM_KERNEL_MAX_RATIO = 3.5


def test_warm_kernel_vs_dijkstra(benchmark):
    """A warm miss costs a few Dijkstras, as Section III.B bounds it.

    With both endpoint SPTs supplied (the pricing engine's steady state),
    ``fast_vcg_payments`` is only the steps 2-6 kernels, which the paper
    bounds at O(n log n + m). The gate is a ratio taken in one process:
    the median over 24 pairs of the min-of-7 per-pair kernel time, over
    the median of the min-of-7 bare ``scipy.sparse.csgraph.dijkstra``
    time from the same sources on ``g.to_tailcost_matrix()``. Both sides
    run the same machine's compiled Dijkstra, so the ratio does not
    depend on the machine's speed. Metrics are off while timing.

    Instance: the 500-node unit-disk deployment the engine benches and
    the HTTP benchmark price on (2000 m square, 300 m range, costs
    U(1, 10), seed 2004). The bound sits between the ratio of the four
    separate step 3-5 kernels, which built a COO region graph per miss,
    and that of the fused arc pass over the cached CSR.
    """
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    rng = np.random.default_rng(2004)
    points = rng.uniform(0.0, 2000.0, size=(500, 2))
    costs = rng.uniform(1.0, 10.0, size=500)
    g = build_node_graph_from_udg(points, 300.0, costs)
    mat = g.to_tailcost_matrix()
    pick = np.random.default_rng(16)
    trees = {}
    pairs = []
    while len(pairs) < 24:
        s, t = (int(v) for v in pick.choice(g.n, 2, replace=False))
        for root in (s, t):
            if root not in trees:
                trees[root] = node_weighted_spt(g, root, backend="scipy")
        if trees[s].reachable(t) and len(trees[s].path_from_root(t)) > 2:
            pairs.append((s, t))

    def kernel(s, t):
        return fast_vcg_payments(g, s, t, on_monopoly="inf",
                                 spt_source=trees[s], spt_target=trees[t])

    was_enabled = REGISTRY.enabled
    REGISTRY.disable()
    try:
        kernel(*pairs[0])  # warm-up: scipy import, cached CSR arrays
        t_kernel = float(np.median(
            [_best_of(lambda: kernel(s, t), repeats=7) for s, t in pairs]
        ))
        t_dijkstra = float(np.median([
            _best_of(lambda: sp_dijkstra(mat, directed=True, indices=s),
                     repeats=7)
            for s, _ in pairs
        ]))
    finally:
        if was_enabled:
            REGISTRY.enable()
    ratio = t_kernel / t_dijkstra
    emit(
        f"warm Algorithm-1 miss on n={g.n}, m={g.num_edges}: "
        f"{t_kernel * 1e6:.0f} us per pair vs bare Dijkstra "
        f"{t_dijkstra * 1e6:.0f} us (x{ratio:.2f}, "
        f"gate < {WARM_KERNEL_MAX_RATIO})"
    )
    benchmark.extra_info["kernel_us"] = round(t_kernel * 1e6, 1)
    benchmark.extra_info["dijkstra_us"] = round(t_dijkstra * 1e6, 1)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    benchmark.pedantic(lambda: kernel(*pairs[0]), rounds=3, iterations=1)
    assert ratio < WARM_KERNEL_MAX_RATIO
