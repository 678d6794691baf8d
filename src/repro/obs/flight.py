"""Always-on flight recorder: a fixed-size ring of recent engine events.

Metrics tell you *how much*; the flight recorder tells you *what just
happened*. It keeps the last ``capacity`` engine events — queries,
updates, cache hits/misses, pair fast-forwards, tree rebuilds, plus the
durability layer's ``checkpoint`` and ``recover`` events — as plain
tuples in a preallocated ring, so recording is allocation-light enough
to stay on even in production serving paths (one small tuple per event,
no dict, no lock). When a request dies with an unexpected error the
engine dumps the ring to a JSON file (:meth:`FlightRecorder.dump_error`),
preserving the event sequence that led up to the crash; the telemetry
server exposes the same ring live at ``/flight``.

Unlike the metrics registry the recorder has no disabled fast path to
protect: it is *meant* to be always on. ``enabled`` exists for tests
and for the overhead bench, which measures the per-record cost and
folds it into the <5% instrumentation budget.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO

from repro.obs.context import current_request_id

__all__ = ["FlightRecorder", "FLIGHT", "DEFAULT_CAPACITY"]

#: Default ring capacity: enough to reconstruct a few hundred requests
#: of context around a crash while staying a few tens of KiB resident.
DEFAULT_CAPACITY = 512

#: Environment variable overriding where error dumps are written
#: (default: the current working directory).
DUMP_DIR_ENV = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """Fixed-size ring buffer of ``(t, kind, request_id, version, value)``
    event tuples, oldest overwritten first.

    ``t`` is seconds since the recorder's epoch (:func:`time.monotonic`
    based, so deltas between events are meaningful), ``kind`` one of the
    engine's event names (``query``/``update``/``hit``/``miss``/
    ``fast_forward``/``rebuild``/...), ``version`` the engine
    graph version the event saw, and ``value`` a kind-specific number
    (elapsed seconds for ``query``, fast-forward step count, ...).
    """

    __slots__ = (
        "capacity",
        "enabled",
        "dump_dir",
        "_ring",
        "_total",
        "_epoch",
        "_dump_seq",
    )

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        #: Directory error dumps land in (``None`` = $REPRO_FLIGHT_DIR
        #: or the current working directory, resolved at dump time).
        self.dump_dir: str | None = None
        self._ring: list[tuple | None] = [None] * self.capacity
        self._total = 0
        self._epoch = time.monotonic()
        self._dump_seq = 0

    # -- recording ----------------------------------------------------------

    def record(
        self,
        kind: str,
        request_id: str | None = None,
        version: int = -1,
        value: float = 0.0,
    ) -> None:
        """Append one event; drops the oldest past capacity.

        ``request_id=None`` resolves the ambient id from
        :func:`repro.obs.context.current_request_id` so call sites never
        need to thread it.
        """
        if not self.enabled:
            return
        if request_id is None:
            request_id = current_request_id()
        i = self._total
        self._ring[i % self.capacity] = (
            time.monotonic() - self._epoch,
            kind,
            request_id,
            version,
            value,
        )
        self._total = i + 1

    def clear(self) -> None:
        """Drop every recorded event (epoch is kept)."""
        self._ring = [None] * self.capacity
        self._total = 0

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including overwritten ones)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound."""
        return max(0, self._total - self.capacity)

    def events(self) -> list[dict]:
        """The retained events oldest-first, as plain dicts."""
        total = self._total
        ring = list(self._ring)  # one shot; concurrent writes can't tear it
        if total <= self.capacity:
            raw = ring[:total]
        else:
            head = total % self.capacity
            raw = ring[head:] + ring[:head]
        out = []
        for ev in raw:
            if ev is None:  # a slot mid-overwrite; skip rather than crash
                continue
            t, kind, rid, version, value = ev
            out.append(
                {
                    "t": round(t, 6),
                    "kind": kind,
                    "request_id": rid,
                    "version": version,
                    "value": value,
                }
            )
        return out

    def snapshot(self) -> dict:
        """The ring plus its bookkeeping, as one JSON-ready document."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.events(),
        }

    # -- dumping ------------------------------------------------------------

    def dump(self, dest: str | Path | IO[str], error: str | None = None) -> None:
        """Write :meth:`snapshot` (plus an optional error note) as JSON."""
        doc = self.snapshot()
        if error is not None:
            doc["error"] = error
        if hasattr(dest, "write"):
            json.dump(doc, dest, indent=2)
        else:
            with open(dest, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)

    def dump_error(self, exc: BaseException) -> str | None:
        """Best-effort crash dump; returns the written path or ``None``.

        The file lands in ``dump_dir`` (or ``$REPRO_FLIGHT_DIR``, or the
        working directory) as ``flight-<pid>-<seq>.json``. Never raises:
        a failing dump must not mask the original engine error.
        """
        base = self.dump_dir or os.environ.get(DUMP_DIR_ENV) or "."
        self._dump_seq += 1
        path = Path(base) / f"flight-{os.getpid()}-{self._dump_seq}.json"
        try:
            self.dump(path, error=f"{type(exc).__name__}: {exc}")
        except OSError:
            return None
        return str(path)


#: The process-wide recorder the engine records into.
FLIGHT = FlightRecorder()
