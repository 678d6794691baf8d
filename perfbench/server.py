"""The pricing server under test, in its own process.

Builds the engine, service and HTTP server the way ``repro.cli serve``
ships them (metrics registry on, tracing off, 4 workers, queue depth
64), over the graph the benchmark generated. Prints ``PORT <n>`` once
listening, serves until SIGTERM, then drains. With ``--spans PATH`` it
wraps the server-side entry points first and writes their spans to
PATH after the drain.

Usage: python perfbench/server.py --graph G.json [--checkpoint-dir D]
       [--spans PATH]
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spec import SERVER_CONFIG  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", required=True)
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    from repro import io as repro_io
    from repro.engine import PricingEngine
    from repro.obs.metrics import REGISTRY
    from repro.service import PricingService, ServiceServer

    recorder = None
    if args.spans:
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder("server")
        recorder.install_server()

    cfg = SERVER_CONFIG
    engine = PricingEngine(
        repro_io.load_json(args.graph),
        backend=cfg["backend"],
        on_monopoly=cfg["on_monopoly"],
        checkpoint_dir=args.checkpoint_dir,
        fsync=cfg["fsync"],
    )
    REGISTRY.enable()
    service = PricingService(
        engine,
        workers=cfg["workers"],
        max_queue=cfg["queue_depth"],
        deadline_s=cfg["deadline_s"],
        jobs=cfg["jobs"],
    )
    server = ServiceServer(service, port=0).start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    print(f"PORT {server.port}", flush=True)
    stop.wait()
    server.stop()
    service.close()
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
