"""The stdlib floor for one HTTP round trip: a bare ``ThreadingHTTPServer``
that answers every POST with a fixed JSON body in a single write.

Headers and body leave in one ``write`` so the response never waits on
Nagle's algorithm against the client's delayed ACK (a split write
stalls ~40 ms per request on Linux loopback). Like ``ServiceServer``
it keeps the stdlib's HTTP/1.0 default, so each response closes its
connection and the client reconnects: the floor pays the same
connection set-up as the server it is compared with. Prints ``PORT <n>`` once
listening and serves until SIGTERM.

Usage: python perfbench/floor.py --body-bytes N
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--body-bytes", type=int, default=512)
    args = ap.parse_args()
    body = b'{"pad": "' + b"x" * max(0, args.body_bytes - 12) + b'"}\n'
    head = (
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: application/json; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    response = head + body

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (stdlib name)
            length = int(self.headers.get("Content-Length") or 0)
            self.rfile.read(length)
            self.wfile.write(response)

        def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    print(f"PORT {httpd.server_address[1]}", flush=True)
    stop.wait()
    httpd.shutdown()
    httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
