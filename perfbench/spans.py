"""Span recording from outside the program: wrappers around public entry
points, kept in memory, written out as Chrome-trace JSON.

Each wrapper records ``(span id, parent id, name, start ns, end ns,
thread, request id, key, size)``. The parent is the innermost open
span on the same thread. ``perf_counter_ns`` reads ``CLOCK_MONOTONIC``
on Linux, so spans from the server and the load generator share one
time base and can be merged into one trace.

The request id is read from :func:`repro.obs.context.current_request_id`
on the server (the HTTP handler scopes every request) and from the
response envelope on the client. The pricing worker thread runs the
engine under a fresh scope, so engine spans do not carry the HTTP
request's id: they are attributed to their service span by containment
(same ``(source, target)`` key, interval inside the service span).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Module-level functions wrapped wherever a ``repro`` module bound them.
FUNCTIONS = [
    ("repro.graph.dijkstra", "node_weighted_spt"),
    ("repro.graph.dijkstra", "node_weighted_spt_many"),
    ("repro.core.fast_payment", "fast_vcg_payments"),
    ("repro.core.allpairs", "pairwise_vcg_payments"),
]
#: Server-side methods: (module, class, method names).
SERVER_METHODS = [
    (
        "repro.engine.engine",
        "PricingEngine",
        ("price_versioned", "price_many_versioned", "update_cost"),
    ),
    (
        "repro.service.service",
        "PricingService",
        ("price", "price_many", "update_cost"),
    ),
    (
        "repro.service.http",
        "ServiceServer",
        ("handle_price", "handle_price_many", "handle_update"),
    ),
]
CLIENT_METHODS = [
    (
        "repro.service.resilience",
        "PricingClient",
        ("price", "price_many", "update_cost"),
    ),
]

FIELDS = ("id", "parent", "name", "t0", "t1", "tid", "rid", "key", "size")


def _key_of(name: str, args: tuple):
    """The ``(source, target)`` a pricing span is about, if any."""
    # Methods take (self, source, target); fast_vcg_payments (g, s, t).
    if name.endswith((".price", ".price_versioned", "fast_vcg_payments")):
        if len(args) >= 3:
            return [int(args[1]), int(args[2])]
    if name.endswith(".handle_price") and len(args) >= 2:
        req = args[1]
        return [int(req.source), int(req.target)]
    return None


#: Entry points returning one dict entry per tree built / pair priced.
_BATCHES = ("node_weighted_spt_many", "pairwise_vcg_payments")


def _size_of(name: str, result) -> int:
    """Trees built / pairs priced by a batch entry point (1 otherwise)."""
    return len(result) if name in _BATCHES and isinstance(result, dict) else 1


class SpanRecorder:
    """In-memory span store plus the wrapper factory."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, client: bool = False):
        from repro.obs.context import current_request_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            rid = None if client else current_request_id()
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if client and result is not None:
                    rid = getattr(result, "request_id", None)
                self.spans.append(
                    (
                        sid,
                        parent,
                        name,
                        t0,
                        t1,
                        threading.get_ident(),
                        rid,
                        _key_of(name, args),
                        _size_of(name, result),
                    )
                )

        return wrapper

    def install_server(self) -> None:
        """Wrap ``FUNCTIONS`` in every loaded ``repro`` module that bound
        them, and the server-side methods."""
        for modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(attr, orig)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is orig
                ):
                    self._installed.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        self._install_methods(SERVER_METHODS, client=False)

    def install_client(self) -> None:
        self._install_methods(CLIENT_METHODS, client=True)

    def _install_methods(self, specs, client: bool) -> None:
        for modname, clsname, names in specs:
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in names:
                orig = cls.__dict__[attr]
                self._installed.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(f"{clsname}.{attr}", orig, client))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def dump(self, path: str) -> None:
        """Write the raw spans (one JSON object) for the parent to merge."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "process": self.process,
                    "pid": os.getpid(),
                    "spans": self.spans,
                },
                fh,
            )
        os.replace(tmp, path)


def as_dicts(spans) -> list[dict]:
    return [dict(zip(FIELDS, s)) for s in spans]


def chrome_trace(groups: list[tuple[str, int, list[dict]]]) -> dict:
    """Chrome trace-event JSON from ``(process name, pid, spans)``."""
    events = []
    for process, pid, spans in groups:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": process},
            }
        )
        for s in spans:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": s["tid"] % 1_000_000,
                    "ts": s["t0"] / 1e3,
                    "dur": (s["t1"] - s["t0"]) / 1e3,
                    "args": {
                        "id": s["id"],
                        "parent": s["parent"],
                        "request_id": s["rid"],
                        "key": s["key"],
                        "size": s["size"],
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time (ns): duration minus direct same-thread
    children, which are nested and never overlap each other."""
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def contained_engine_ns(service_spans, engine_spans) -> dict[int, int]:
    """Service span id -> engine time inside it, matched by containment.

    The engine call runs on a pricing worker thread that does not carry
    the request id, so the engine span serving a service span is the
    one with the same key whose interval lies within it. A coalesced
    call waits on another caller's engine span; only the overlap
    counts.
    """
    by_key: dict[tuple, list[dict]] = {}
    for e in engine_spans:
        if e["key"] is not None:
            by_key.setdefault(tuple(e["key"]), []).append(e)
    starts = {}
    for key, es in by_key.items():
        es.sort(key=lambda e: e["t0"])
        starts[key] = [e["t0"] for e in es]
    out = {}
    for s in service_spans:
        key = tuple(s["key"] or ())
        es = by_key.get(key, ())
        covered = 0
        # One key is in flight at most once (the service coalesces
        # duplicates), so its engine spans do not overlap: walk back
        # from the last one starting before this service span ends.
        for i in range(bisect.bisect_left(starts.get(key, ()), s["t1"]) - 1, -1, -1):
            e = es[i]
            if e["t1"] <= s["t0"]:
                break
            covered += min(s["t1"], e["t1"]) - max(s["t0"], e["t0"])
        out[s["id"]] = covered
    return out
