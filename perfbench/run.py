"""The repo benchmark: three HTTP pricing workloads against the shipped
server stack, end to end (``--trace 0``) or layer by layer (``--trace 1``).

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_read|churn|cold_pairs \\
        [--seed N] [--instance-seed N] [--seconds S] [--trace 0|1]

``--seed`` makes the operation stream; ``--instance-seed`` the 500-node
deployment (both default to ``perfbench/spec.py``). The server runs in
its own process (``perfbench/server.py``) over that deployment, and one
load-generator process drives it with ``spec.CALLERS`` closed-loop
``PricingClient`` callers. End-to-end rates and latencies are medians
over the run's time windows that the host's hypervisor disturbed least
(see ``Windows``). Every run re-prices a seeded sample of answers from
scratch and fails on any mismatch. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Lines before
it are a human-readable table. ``--trace 1`` also writes a Chrome trace
and the layer table under ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from perfbench import layers, spec  # noqa: E402
from perfbench.load import (  # noqa: E402
    FixedOps,
    OpStream,
    closed_loop,
    make_instance,
    oracle_check,
)
from perfbench.procs import Child, own_cpu_s  # noqa: E402
from perfbench.spans import SpanRecorder, as_dicts, chrome_trace  # noqa: E402


def _host_steal() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def _tail_need(q: float) -> int:
    """Samples needed for ten to lie beyond the q-th percentile."""
    return int(round(10 / (1 - q / 100)))


class Windows:
    """The timed run cut into ``spec.WINDOWS`` equal windows, of which
    only the least disturbed from outside are used.

    Each window boundary records the server's CPU seconds and the host's
    steal and total jiffies. A window is used when its steal share (the
    time the hypervisor ran other tenants on this machine's CPUs) is at
    most the median over all windows. Steal is measured outside the
    program, so the choice cannot favour one build over another, while
    the windows another tenant slowed most are left out. With no steal
    every window is used.
    """

    def __init__(self, res) -> None:
        times = np.array([t for t, _ in res.samples])
        cpu, steal, total = (
            np.array(x, dtype=float) for x in zip(*(v for _, v in res.samples))
        )
        share = np.diff(steal) / np.maximum(1.0, np.diff(total))
        self.used = np.flatnonzero(share <= np.median(share))
        self.edges = times
        self.steal_all = (steal[-1] - steal[0]) / max(1.0, total[-1] - total[0])
        self.steal_used = float(share[self.used].mean())
        self.server_util = (cpu[-1] - cpu[0]) / (times[-1] - times[0])
        counts, _ = np.histogram(res.done_at, bins=times)
        used = [i for i in self.used if counts[i]]
        self.rps = statistics.median(counts[used] / np.diff(times)[used])
        self.cpu_ms_per_req = statistics.median(np.diff(cpu)[used] * 1e3 / counts[used])

    def percentile(self, samples, q: float) -> tuple[float, int, int]:
        """The q-th percentile in ms of ``(start, latency)`` samples that
        started in a used window.

        The time-ordered samples are cut into as many equal chunks (at
        most one per used window) as leave at least ten samples beyond
        the percentile in each, and the result is the median of the
        chunks' percentiles. Returns ``(value, chunks, samples)``.
        """
        window = np.searchsorted(self.edges, [t for t, _ in samples], side="right") - 1
        keep = set(self.used.tolist())
        xs = [dt for (_, dt), w in sorted(zip(samples, window)) if w in keep]
        if not xs:
            return 0.0, 0, 0
        k = max(1, min(len(keep), len(xs) // _tail_need(q)))
        per_chunk = [float(np.percentile(c, q)) for c in np.array_split(xs, k)]
        return statistics.median(per_chunk) * 1e3, k, len(xs)


class Bench:
    """One run's instance, its graph file, and server launches."""

    def __init__(
        self, workload: str, seed: int, instance_seed: int, seconds: float,
        work: str,
    ) -> None:
        from repro import io as repro_io

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.g, self.hops = make_instance(instance_seed)
        self.graph_path = os.path.join(work, "graph.json")
        repro_io.save_json(self.g, self.graph_path)
        self._launches = 0

    def stream(self):
        return OpStream(self.workload, self.seed, self.hops)

    def launch(self, stream, spans_path: str | None = None):
        """Start a server, wait for ``/readyz``, warm it up; returns the
        child and its set-up time (launch to warm)."""
        from repro.obs.metrics import MetricsRegistry
        from repro.service import PricingClient

        self._launches += 1
        args = ["--graph", self.graph_path]
        if self.workload == "churn":
            args += ["--checkpoint-dir", os.path.join(self.work, f"ckpt-{self._launches}")]
        if spans_path:
            args += ["--spans", spans_path]
        child = Child("server.py", args, os.path.join(self.work, "server.log"))
        try:
            child.wait_ready()
            with PricingClient(child.url, metrics=MetricsRegistry()) as client:
                for s, t in stream.warm:
                    client.price(s, t)
        except BaseException:
            child.stop()
            raise
        return child, time.perf_counter() - child.t_launch


def run_e2e(b: Bench) -> dict:
    setups = []
    child = None
    for k in range(spec.SETUPS):
        if child is not None:
            child.stop()
        stream = b.stream()
        child, setup = b.launch(stream)
        setups.append(setup)
    with child:
        gen0 = own_cpu_s()
        probe = (lambda: child.status_kb("VmHWM")) if b.workload == "cold_pairs" else None
        res = closed_loop(
            child.url, stream, seconds=b.seconds, rss_probe=probe,
            sample=lambda: (child.cpu_s(), *_host_steal()), windows=spec.WINDOWS,
        )
        gen1 = own_cpu_s()
        rss_kb = res.rss_at_pairs_kb if probe else child.status_kb("VmHWM")
    verified, mismatched, problem = oracle_check(b.g, res, b.seed, spec.ORACLE_SAMPLE)
    failed = res.failed + mismatched + (1 if problem else 0)
    w = Windows(res)
    gen_util = (gen1 - gen0) / res.elapsed_s
    lat = res.latency
    short = []

    def pct(kind, q):
        value, k, n = w.percentile(lat[kind], q)
        if n < _tail_need(q):
            short.append(f"{kind} p{q} rests on {n} samples, fewer than the "
                         f"{_tail_need(q)} that leave ten beyond it")
        return f"{kind}_p{q}_ms", value, f"n={n}, median of {k} chunk(s)"

    runs = ", ".join(f"{x:.3f}" for x in setups)
    used = f"median of {len(w.used)} of {spec.WINDOWS} windows"
    gated = [
        ("setup_s", statistics.median(setups), f"median of {len(setups)}: {runs}"),
        ("throughput_rps", w.rps, f"{used}; {res.ok} ok in {res.elapsed_s:.2f} s"),
        pct("price", 50),
        pct("price", 90),
        ("server_cpu_ms_per_req", w.cpu_ms_per_req, used),
        ("server_rss_peak_mb", (rss_kb or 0) / 1024.0,
         f"VmHWM after {spec.RSS_AFTER_PAIRS} pairs" if probe else "VmHWM at end"),
    ]
    rows = [(name, v, spec.END_TO_END[name][0], note) for name, v, note in gated]
    # Printed, not in BENCHMARK.json: price p99 moves with the host's
    # steal far more than p90 does, and the update and batch latencies
    # exist only on the workloads that issue those operations.
    extra = [(name, v, "ms", note) for name, v, note in (
        [pct("price", 99)]
        + ([pct("update", 50), pct("update", 99)] if lat["update"] else [])
        + ([pct("batch", 50), pct("batch", 90)] if lat["batch"] else [])
    )]
    extra += [
        ("error_rate", failed / max(1, res.attempted), "ratio", f"{failed}/{res.attempted}"),
        ("loadgen.cpu_util", gen_util, "cores", ""),
        ("server.cpu_util", w.server_util, "cores", ""),
    ]
    notes = [
        f"oracle: {verified} answers re-priced from scratch, {mismatched} mismatches",
        f"host steal: {100 * w.steal_all:.1f}% of CPU time over the run, "
        f"{100 * w.steal_used:.1f}% in the {len(w.used)} windows used",
        "saturated side: "
        + ("GENERATOR (the result understates the server)" if gen_util >= w.server_util
           else "server"),
    ]
    notes += [f"WARNING: {s}" for s in short]
    if problem:
        notes.append(f"ERROR: {problem}")
    notes += [f"failure: {e}" for e in res.errors]
    return {
        "rows": rows,
        "extra": extra,
        "notes": notes,
        "attempted": res.attempted,
        "failed": failed,
        "correct": failed == 0 and not problem,
    }


def run_layers(b: Bench) -> dict:
    half = b.seconds / 2.0
    failed = attempted = 0
    notes = []
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, note: str = "") -> None:
        m[name] = (value, note)

    def oracle(res, label):
        nonlocal failed, attempted
        verified, mismatched, problem = oracle_check(b.g, res, b.seed, spec.ORACLE_SAMPLE // 2)
        attempted += res.attempted
        failed += res.failed + mismatched + (1 if problem else 0)
        notes.append(
            f"oracle ({label}): {verified} answers re-priced, {mismatched} mismatches"
            + (f"; ERROR {problem}" if problem else "")
        )
        notes.extend(f"failure ({label}): {e}" for e in res.errors)

    # Phase A: untraced concurrent run, then the untraced HTTP rungs.
    stream = b.stream()
    child, _ = b.launch(stream)
    with child:
        snap0, cpu0, gen0 = child.snapshot(), child.cpu_s(), own_cpu_s()
        res_a = closed_loop(child.url, stream, seconds=half)
        cpu1, gen1 = child.cpu_s(), own_cpu_s()
        snap1 = child.snapshot()
        probe_a = layers.http_probe(child.url, child.port, stream.warm, spec.LADDER_CALLS)
    oracle(res_a, "untraced")
    c0, c1 = snap0["counters"], snap1["counters"]

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    untraced_rps = res_a.ok / res_a.elapsed_s
    put("service.coalesced_ratio",
        layers.ratio(delta("service.coalesced"), delta("service.requests")))
    put("service.rejected", delta("service.rejected"))
    put("service.degraded", delta("service.degraded"))
    put("client.retries_per_kreq", res_a.retries * 1e3 / max(1, res_a.attempted))
    put("loadgen.cpu_util", (gen1 - gen0) / res_a.elapsed_s)
    put("server.cpu_util", (cpu1 - cpu0) / res_a.elapsed_s)

    # Phase B: the same run traced, in the server and in the generator.
    spans_path = os.path.join(b.work, "server-spans.json")
    stream = b.stream()
    rec = SpanRecorder("loadgen")
    child, _ = b.launch(stream, spans_path=spans_path)
    with child:
        rec.install_client()
        try:
            res_b = closed_loop(child.url, stream, seconds=half)
            probe_ops = stream.probe_ops()
            res_b_probe = closed_loop(
                child.url, FixedOps(probe_ops), max_ops=len(probe_ops),
                callers=1, client_seed=spec.CALLERS,
            )
        finally:
            rec.uninstall()
        probe_b = layers.http_probe(child.url, child.port, stream.warm, spec.LADDER_CALLS)
    traced_rps = res_b.ok / res_b.elapsed_s
    res_b.absorb(res_b_probe)
    oracle(res_b, "traced")
    with open(spans_path, encoding="utf-8") as fh:
        dumped = json.load(fh)
    server_spans = as_dicts(dumped["spans"])
    client_spans = as_dicts(rec.spans)
    put("obs.untraced_rps", untraced_rps, f"n={res_a.ok}")
    put("obs.traced_rps", traced_rps, f"n={res_b.ok}")
    put("obs.trace_overhead", layers.ratio(traced_rps, untraced_rps),
        f"{traced_rps:.1f} / {untraced_rps:.1f} req/s")
    spans = layers.span_layers(server_spans, probe_b["rids"], probe_b["raw"])
    for name, (value, n) in spans.items():
        put(name, value, f"n={n}")

    # Phase C: the deterministic counting pass (one caller, fixed ops).
    stream = b.stream()
    child, _ = b.launch(stream)
    ops = spec.COUNT_OPS[b.workload]
    with child:
        snap0, rss0 = child.snapshot(), child.status_kb("VmRSS")
        res_c = closed_loop(child.url, stream, max_ops=ops, callers=1)
        snap1, rss1 = child.snapshot(), child.status_kb("VmRSS")
    oracle(res_c, "counting")
    c_after = snap1["counters"]
    counts = layers.counter_diff(snap0, snap1)
    per_k = {k: v * 1e3 / ops for k, v in counts.items()}
    g0 = snap0["gauges"].get("engine.pair_cache_entries", 0)
    g1 = snap1["gauges"].get("engine.pair_cache_entries", 0)
    hits, queries = counts["engine.cache_hits"], counts["engine.queries"]
    kept, dropped = counts["engine.retained"], counts["engine.invalidations"]
    put("graph.spt_builds_per_kreq", per_k["dijkstra.runs"],
        f"{counts['dijkstra.runs']} in {ops} ops")
    put("graph.settled_per_kreq", per_k["dijkstra.settled_nodes"])
    put("core.fast_payment_per_kreq", per_k["fast_payment.runs"])
    put("core.allpairs_spt_builds_per_kreq", per_k["allpairs.spt_builds"])
    put("engine.hit_ratio", layers.ratio(hits, queries), f"{hits} / {queries}")
    put("engine.cache_hits_per_kreq", per_k["engine.cache_hits"])
    put("engine.retained_per_kreq", per_k["engine.retained"])
    put("engine.invalidations_per_kreq", per_k["engine.invalidations"])
    put("engine.survival_ratio", layers.ratio(kept, kept + dropped),
        f"{kept} / {kept + dropped}")
    put("engine.repairs_per_update",
        layers.ratio(counts["engine.repairs"], counts["engine.updates"]))
    put("engine.stale_evictions_per_kreq", per_k["engine.stale_evictions"])
    put("engine.pair_cache_entries", g1, "after the counting pass")
    put("engine.kb_per_pair", layers.ratio(rss1 - rss0, g1 - g0),
        f"{rss1 - rss0} KB RSS / {g1 - g0:.0f} new entries")
    put("persist.wal_records_per_kreq", per_k["engine.wal_records"])
    put("persist.checkpoint_writes", c_after.get("engine.checkpoint_writes", 0),
        "since the registry was enabled")

    # In-process rungs, the stdlib floor, and the WAL cost stream.
    rungs = layers.in_process_rungs(b.g, stream.warm, spec.LADDER_CALLS)
    body = int(layers.median(probe_a["bytes"]))
    with Child("floor.py", ["--body-bytes", str(body)],
               os.path.join(b.work, "floor.log")) as floor:
        floor_rtt = layers.floor_probe(floor.port, spec.LADDER_CALLS)
    wal = layers.wal_cost(b.g, b.seed, b.work)
    ladder = [
        ("ladder.engine_us", rungs["engine"]),
        ("ladder.service_us", rungs["service"]),
        ("ladder.raw_post_us", probe_a["raw"]),
        ("ladder.client_us", probe_a["client"]),
    ]
    for name, xs in ladder:
        put(name, layers.median(xs) * 1e6, f"n={len(xs)}")
    put("http.floor_us", layers.median(floor_rtt) * 1e6,
        f"n={len(floor_rtt)}, {body} B body")
    put("http.response_bytes", body)
    put("client.self_us", m["ladder.client_us"][0] - m["ladder.raw_post_us"][0],
        "client - raw POST")
    put("persist.wal_us_per_update", wal["wal_us_per_update"],
        f"{wal['durable_update_us']:.1f} - {wal['mem_update_us']:.1f} us")
    put("persist.wal_bytes_per_update", wal["wal_bytes_per_update"])
    ordered = [m[n][0] for n, _ in ladder]
    notes.append(
        "ladder order engine < service < raw POST < client: "
        + ("ok" if ordered == sorted(ordered) else "VIOLATED")
    )
    notes.append("counting pass (exact, per run): " + json.dumps(counts, sort_keys=True))

    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, b.workload)
    with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump(
            chrome_trace([("server", dumped["pid"], server_spans),
                          ("loadgen", os.getpid(), client_spans)]),
            fh,
        )
    notes.append(f"spans: {len(server_spans)} server + {len(client_spans)} client "
                 f"-> {stem}.trace.json")
    return {"metrics": m, "notes": notes, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "table_path": stem + ".layers.txt"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--instance-seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    seed = spec.DEFAULT_SEED if args.seed is None else args.seed
    instance_seed = spec.INSTANCE_SEED if args.instance_seed is None else args.instance_seed
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        b = Bench(args.workload, seed, instance_seed, args.seconds, work)
        print(f"perfbench {args.workload}: seed={seed} instance_seed={instance_seed} "
              f"seconds={args.seconds:g} "
              f"trace={args.trace} callers={spec.CALLERS} (closed loop)")
        print(f"  why: {spec.WORKLOADS[args.workload]}")
        print(f"  server: {json.dumps(spec.SERVER_CONFIG)}")
        print(f"  instance: {spec.N_NODES} nodes, {b.g.num_edges} links, "
              f"{int((b.hops >= 0).sum())} in node 0's component")
        if args.trace:
            r = run_layers(b)
            table = spec.PER_LAYER
            lines = [
                f"  {name:36s} {v:14.4f} {table[name][0]:7s} {note}"
                f"   -> {table[name][2]} on {table[name][3]}"
                for name, (v, note) in sorted(r["metrics"].items())
            ]
            metrics = {name: v for name, (v, _) in r["metrics"].items()}
            with open(r["table_path"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines + r["notes"]) + "\n")
        else:
            r = run_e2e(b)
            lines = [f"  {name:24s} {v:12.4f} {u:6s} {note}" for name, v, u, note in r["rows"]]
            lines += [f"  {name:24s} {v:12.4f} {u:6s} {note}  (printed, not in BENCHMARK.json)"
                      for name, v, u, note in r["extra"]]
            table = spec.END_TO_END
            metrics = {name: v for name, v, _, _ in r["rows"]}
        print("\n".join(lines))
        for note in r["notes"]:
            print(f"  {note}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(table):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(table))} are "
              "not both emitted and declared in spec.py", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {
            name: {"value": float(v), "unit": table[name][0]}
            for name, v in metrics.items()
        },
    }))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
