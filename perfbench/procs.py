"""Child processes the benchmark starts: launch, probe, stop, and read
their CPU time and memory from ``/proc``."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLK_TCK = os.sysconf("SC_CLK_TCK")


class Child:
    """One server process speaking HTTP on ``127.0.0.1:<port>``."""

    def __init__(self, script: str, args: list[str], log_path: str) -> None:
        self._log = open(log_path, "ab")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=ROOT,
        )
        self.log_path = log_path
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"{script} did not start: {self.tail()}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    @property
    def pid(self) -> int:
        return self.proc.pid

    def tail(self) -> str:
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        end = time.monotonic() + timeout_s
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > end:
                raise RuntimeError(f"server not ready: {self.tail()}")
            time.sleep(0.01)

    def snapshot(self) -> dict:
        status, body = self.get("/snapshot")
        if status != 200:
            raise RuntimeError(f"/snapshot answered {status}")
        return json.loads(body)

    def cpu_s(self) -> float:
        """utime + stime of the process (all threads), in seconds."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def status_kb(self, key: str) -> int:
        """A ``/proc/<pid>/status`` memory line (``VmHWM``, ``VmRSS``)."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise KeyError(key)

    def stop(self) -> None:
        """SIGTERM, then wait for the drain (SIGKILL after 60 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system
