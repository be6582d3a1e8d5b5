"""Pluggable event sinks.

A sink receives every :class:`~repro.obs.events.ObsEvent` the bus emits via
:meth:`Sink.on_event`.  Three are provided:

- :class:`MemorySink` — the default: an in-memory store with kind/key
  indexes maintained *as events arrive*, so queries are O(matching events)
  instead of O(all events).  This is what ``repro.analysis`` consumes.
- :class:`ChromeTraceSink` — renders the Chrome ``about://tracing`` /
  Perfetto JSON array format (``ph``/``ts``/``pid``/``tid`` fields; span
  begin/end map to ``"B"``/``"E"``, instants to ``"i"``).
- :class:`CsvSink` — one row per event, for spreadsheets and ad-hoc scripts.

Sinks can be attached live (``bus.attach(sink)``) or fed after the fact from
the memory store (``bus.export(sink)``).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Any, Iterable, Optional

from repro.obs.events import ObsEvent

__all__ = [
    "Sink",
    "MemorySink",
    "ChromeTraceSink",
    "CsvSink",
    "StreamSink",
    "memory_of",
]


def memory_of(source: Any):
    """The indexed event store behind ``source``.

    Accepts anything with ``by_kind``/``by_key`` (a :class:`MemorySink`) or
    an :class:`~repro.obs.bus.ObsBus` (uses its attached memory sink).  Lets
    the analysis modules consume either without caring which they were
    handed.
    """
    if hasattr(source, "by_kind"):
        return source
    mem = getattr(source, "memory", None)
    if mem is not None:
        return mem
    raise ValueError(
        f"{type(source).__name__} has no event index (bus without a memory "
        "sink, or observability disabled?)"
    )


class Sink:
    """Abstract event consumer."""

    def on_event(self, evt: ObsEvent) -> None:
        """Receive one event (called by the bus at emit time)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalise; default is a no-op."""


class MemorySink(Sink):
    """In-memory store with kind and key indexes.

    ``events`` preserves emission order; :meth:`by_kind` and :meth:`by_key`
    return (shared, do-not-mutate) lists in that same order.  Events whose
    key is unhashable are kept out of the key index and found by a linear
    fallback — the instrumented stack only uses hashable keys, so the
    fallback list stays empty in practice.
    """

    def __init__(self) -> None:
        self.events: list[ObsEvent] = []
        self._by_kind: dict[str, list[ObsEvent]] = {}
        self._by_key: dict[Any, list[ObsEvent]] = {}
        self._unindexed: list[ObsEvent] = []

    def on_event(self, evt: ObsEvent) -> None:
        self.events.append(evt)
        kind_list = self._by_kind.get(evt.kind)
        if kind_list is None:
            self._by_kind[evt.kind] = [evt]
        else:
            kind_list.append(evt)
        try:
            key_list = self._by_key.get(evt.key)
        except TypeError:  # unhashable key: linear fallback
            self._unindexed.append(evt)
            return
        if key_list is None:
            self._by_key[evt.key] = [evt]
        else:
            key_list.append(evt)

    def by_kind(self, kind: str) -> list[ObsEvent]:
        """All events of ``kind``, in emission order."""
        return self._by_kind.get(kind, [])

    def by_key(self, key: Any) -> list[ObsEvent]:
        """All events with ``key``, in emission order."""
        try:
            indexed = self._by_key.get(key, [])
        except TypeError:
            indexed = []
        if not self._unindexed:
            return indexed
        return sorted(
            indexed + [e for e in self._unindexed if e.key == key],
            key=lambda e: e.time,
        )

    @property
    def kinds(self) -> list[str]:
        """Every event kind seen so far."""
        return list(self._by_kind)

    def clear(self) -> None:
        """Drop all stored events and indexes."""
        self.events.clear()
        self._by_kind.clear()
        self._by_key.clear()
        self._unindexed.clear()

    def __len__(self) -> int:
        return len(self.events)


class StreamSink(Sink):
    """Print one compact line per event to a text stream.

    The live-progress view behind the CLI's ``--progress`` flags: attach it
    to a bus filtered to the wall-clock progress kinds (``sweep_start`` /
    ``sweep_point`` / ``sweep_end``, ``run_progress``) and each event
    becomes one immediately flushed line on ``stream`` (stderr by default,
    keeping stdout clean for results).  ``kinds=None`` passes everything —
    useful for debugging, noisy for real runs.
    """

    def __init__(self, stream=None, kinds: Optional[Iterable[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.kinds = None if kinds is None else frozenset(kinds)

    def on_event(self, evt: ObsEvent) -> None:
        if self.kinds is not None and evt.kind not in self.kinds:
            return
        info = evt.info
        if isinstance(info, dict):
            body = "  ".join(f"{k}={_compact(v)}" for k, v in info.items())
        else:
            body = "" if info is None else str(info)
        key = "" if evt.key is None else f" {evt.key}"
        print(f"[{evt.kind}]{key}  {body}".rstrip(), file=self.stream, flush=True)


def _compact(value: Any) -> str:
    """Short rendering for StreamSink info values."""
    if isinstance(value, float):
        return f"{value:,.3g}" if abs(value) >= 1000 else f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def _chrome_tid(evt: ObsEvent) -> int:
    """Thread lane for the Chrome view: the second element of tuple keys
    (e.g. ``(node, worker)`` for ``task_exec``) when it is a small int."""
    key = evt.key
    if isinstance(key, tuple) and len(key) >= 2 and isinstance(key[1], int):
        return key[1]
    return 0


class ChromeTraceSink(Sink):
    """Render events as Chrome ``about://tracing`` JSON.

    Timestamps are microseconds (``ts``); ``pid`` is the node rank and
    ``tid`` a per-node lane derived from the event key.  Load the output in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """

    _PH = {"I": "i", "B": "B", "E": "E", "C": "C"}

    def __init__(self) -> None:
        self.records: list[dict] = []

    def on_event(self, evt: ObsEvent) -> None:
        rec = {
            "name": evt.kind,
            "ph": self._PH.get(evt.phase, "i"),
            "ts": evt.time * 1e6,
            "pid": evt.node,
            "tid": _chrome_tid(evt),
        }
        if rec["ph"] == "i":
            rec["s"] = "t"  # instant scope: thread
        args = {}
        if evt.key is not None:
            args["key"] = repr(evt.key)
        if evt.info is not None:
            args["info"] = repr(evt.info)
        if evt.local_time is not None:
            args["local_time"] = evt.local_time
        if args:
            rec["args"] = args
        self.records.append(rec)

    def to_json(self) -> dict:
        """The full trace document as a JSON-ready dict."""
        return {"traceEvents": self.records, "displayTimeUnit": "ms"}

    def render(self) -> str:
        """The trace document serialised to a JSON string."""
        return json.dumps(self.to_json())

    def write(self, path: str) -> None:
        """Write the JSON document to ``path``."""
        with open(path, "w") as fp:
            json.dump(self.to_json(), fp)


class CsvSink(Sink):
    """Render events as CSV (one row per event, header included)."""

    COLUMNS = ("time", "kind", "node", "key", "info", "phase", "local_time")

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def on_event(self, evt: ObsEvent) -> None:
        self.rows.append(
            (
                evt.time,
                evt.kind,
                evt.node,
                "" if evt.key is None else repr(evt.key),
                "" if evt.info is None else repr(evt.info),
                evt.phase,
                "" if evt.local_time is None else evt.local_time,
            )
        )

    def render(self) -> str:
        """The full CSV document as a string."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        writer.writerows(self.rows)
        return buf.getvalue()

    def write(self, path: str) -> None:
        """Write the CSV document to ``path``."""
        with open(path, "w") as fp:
            fp.write(self.render())
