"""Per-layer measurements, each taken from outside the layer: serial
probes over HTTP, in-process calls to the engine and service, the
deterministic counting pass, the WAL cost stream, and the self times
of the traced run's spans."""

from __future__ import annotations

import glob
import http.client
import json
import os
import time

import numpy as np

from perfbench import spec
from perfbench.spans import contained_engine_ns, self_times

#: Counters diffed around the counting pass (must repeat exactly).
COUNTERS = (
    "dijkstra.runs",
    "dijkstra.settled_nodes",
    "fast_payment.runs",
    "allpairs.spt_builds",
    "engine.queries",
    "engine.cache_hits",
    "engine.retained",
    "engine.invalidations",
    "engine.repairs",
    "engine.stale_evictions",
    "engine.updates",
    "engine.wal_records",
)


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- serial HTTP probes ------------------------------------------------------


class RawPost:
    """``POST /v1/price`` through a bare ``http.client`` connection: the
    round trip without ``PricingClient``'s retry loop and decoding."""

    def __init__(self, port: int) -> None:
        from repro import io as repro_io

        self._io = repro_io
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def __call__(self, s: int, t: int) -> tuple[float, str, int]:
        body = json.dumps(
            self._io.to_wire(self._io.PriceRequest(source=s, target=t))
        ).encode()
        t0 = time.perf_counter()
        self.conn.request(
            "POST",
            "/v1/price",
            body=body,
            headers={"Content-Type": "application/json", "Accept": "application/json"},
        )
        resp = self.conn.getresponse()
        raw = resp.read()
        dt = time.perf_counter() - t0
        if resp.status != 200:
            raise RuntimeError(f"raw POST answered {resp.status}: {raw[:200]!r}")
        return dt, resp.getheader("X-Request-Id") or "", len(raw)

    def close(self) -> None:
        self.conn.close()


def http_probe(url: str, port: int, keys, calls: int) -> dict:
    """Interleave raw POSTs and ``PricingClient.price`` on warm keys.

    Returns raw and client round trips (s), the raw POSTs' request ids
    and response sizes. Every key is priced once first, so each timed
    call is a pair-cache hit even after updates.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.service import PricingClient

    client = PricingClient(url, metrics=MetricsRegistry())
    raw = RawPost(port)
    out = {"raw": [], "client": [], "rids": [], "bytes": []}
    try:
        for s, t in keys:
            client.price(s, t)
        for i in range(calls):
            s, t = keys[i % len(keys)]
            dt, rid, size = raw(s, t)
            out["raw"].append(dt)
            out["rids"].append(rid)
            out["bytes"].append(size)
            t0 = time.perf_counter()
            client.price(s, t)
            out["client"].append(time.perf_counter() - t0)
    finally:
        raw.close()
        client.close()
    return out


def floor_probe(port: int, calls: int) -> list[float]:
    raw = RawPost(port)
    try:
        return [raw(1, 0)[0] for _ in range(calls)]
    finally:
        raw.close()


# -- in-process rungs and the WAL cost stream ---------------------------------


def in_process_rungs(g, keys, calls: int) -> dict[str, list[float]]:
    """Warm-hit ``PricingEngine.price`` and ``PricingService.price`` on
    the same keys, with the registry on as the server runs it."""
    from repro.engine import PricingEngine
    from repro.obs.metrics import REGISTRY
    from repro.service import PricingService

    cfg = spec.SERVER_CONFIG
    REGISTRY.enable()
    try:
        eng = PricingEngine(g, backend=cfg["backend"], on_monopoly=cfg["on_monopoly"])
        for s, t in keys:
            eng.price(s, t)
        out = {"engine": [], "service": []}
        for i in range(calls):
            s, t = keys[i % len(keys)]
            t0 = time.perf_counter()
            eng.price(s, t)
            out["engine"].append(time.perf_counter() - t0)
        svc = PricingService(
            eng, workers=cfg["workers"], max_queue=cfg["queue_depth"],
            deadline_s=cfg["deadline_s"],
        )
        try:
            for i in range(calls):
                s, t = keys[i % len(keys)]
                t0 = time.perf_counter()
                svc.price(s, t)
                out["service"].append(time.perf_counter() - t0)
        finally:
            svc.close()
    finally:
        REGISTRY.disable()
    return out


def wal_cost(g, seed: int, workdir: str) -> dict[str, float]:
    """Durable minus in-memory ``update_cost`` on one seeded stream."""
    from repro.engine import PricingEngine
    from repro.obs.metrics import REGISTRY

    cfg = spec.SERVER_CONFIG
    rng = np.random.default_rng([seed, 3])
    stream = [
        (int(rng.integers(spec.N_NODES)), float(rng.uniform(spec.COST_LO, spec.COST_HI)))
        for _ in range(spec.WAL_UPDATES)
    ]
    ckpt = os.path.join(workdir, "walbench")
    REGISTRY.enable()
    mem = PricingEngine(g, on_monopoly=cfg["on_monopoly"])
    dur = PricingEngine(
        g, on_monopoly=cfg["on_monopoly"], checkpoint_dir=ckpt, fsync=cfg["fsync"]
    )
    try:

        def wal_bytes() -> int:
            return sum(os.path.getsize(p) for p in glob.glob(os.path.join(ckpt, "wal-*.jsonl")))

        b0 = wal_bytes()
        t_mem, t_dur = [], []
        for node, value in stream:
            t0 = time.perf_counter()
            mem.update_cost(node, value)
            t1 = time.perf_counter()
            dur.update_cost(node, value)
            t2 = time.perf_counter()
            t_mem.append(t1 - t0)
            t_dur.append(t2 - t1)
        nbytes = wal_bytes() - b0
    finally:
        mem.close()
        dur.close()
        REGISTRY.disable()
    return {
        "wal_us_per_update": (median(t_dur) - median(t_mem)) * 1e6,
        "wal_bytes_per_update": nbytes / len(stream),
        "mem_update_us": median(t_mem) * 1e6,
        "durable_update_us": median(t_dur) * 1e6,
    }


# -- the counting pass --------------------------------------------------------


def counter_diff(before: dict, after: dict) -> dict[str, int]:
    b, a = before["counters"], after["counters"]
    return {k: int(round(a.get(k, 0) - b.get(k, 0))) for k in COUNTERS}


# -- span analysis ------------------------------------------------------------


def span_layers(spans: list[dict], probe_rids: list[str], probe_raw: list[float]) -> dict:
    """Per-layer self times from the traced run's server spans."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    own = self_times(spans)
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def has_descendant(sid: int, name: str) -> bool:
        for c in children.get(sid, ()):
            if c["name"] == name or has_descendant(c["id"], name):
                return True
        return False

    singles = by_name.get("node_weighted_spt", [])
    many = by_name.get("node_weighted_spt_many", [])
    trees = len(singles) + sum(
        m["size"] for m in many if not children.get(m["id"])
    )
    spt_self = sum(own[s["id"]] for s in singles + many)

    fast = [own[s["id"]] for s in by_name.get("fast_vcg_payments", [])]
    batches = by_name.get("pairwise_vcg_payments", [])
    batch_pairs = sum(b["size"] for b in batches)
    batch_ns = sum(b["t1"] - b["t0"] for b in batches)

    hits, misses = [], []
    for s in by_name.get("PricingEngine.price_versioned", []):
        dur = s["t1"] - s["t0"]
        (misses if has_descendant(s["id"], "fast_vcg_payments") else hits).append(dur)
    updates = [s["t1"] - s["t0"] for s in by_name.get("PricingEngine.update_cost", [])]

    svc = by_name.get("PricingService.price", [])
    inside = contained_engine_ns(svc, by_name.get("PricingEngine.price_versioned", []))
    svc_self = [(s["t1"] - s["t0"]) - inside[s["id"]] for s in svc]

    handle = {
        s["rid"]: s["t1"] - s["t0"] for s in by_name.get("ServiceServer.handle_price", [])
    }
    http_self = [
        rtt * 1e9 - handle[rid]
        for rid, rtt in zip(probe_rids, probe_raw)
        if rid in handle
    ]
    return {
        "graph.spt_ms": (ratio(spt_self, trees) / 1e6, trees),
        "core.fast_payment_ms": (median(fast) / 1e6, len(fast)),
        "core.batch_ms_per_pair": (ratio(batch_ns, batch_pairs) / 1e6, batch_pairs),
        "engine.price_hit_us": (median(hits) / 1e3, len(hits)),
        "engine.price_miss_ms": (median(misses) / 1e6, len(misses)),
        "engine.update_us": (median(updates) / 1e3, len(updates)),
        "service.self_us": (median(svc_self) / 1e3, len(svc_self)),
        "http.self_us": (median(http_self) / 1e3, len(http_self)),
    }
