"""``repro.obs`` — the cross-layer observability bus.

The paper's headline claims are latency measurements ("from send of the
ACTIVATE message to arrival of data", §6.4.2); diagnosing *why* a
configuration is slow requires per-protocol-phase events and per-operation
counters from every layer — simulator kernel, fabric/NIC, MPI and LCI
libraries, and the runtime itself.  This package gives all of them one
typed event bus with spans, counters, and histograms, plus pluggable sinks
(in-memory query index, Chrome ``about://tracing`` JSON, CSV).

Design rules:

- **Disabled is free.**  :data:`NULL_BUS` implements the full bus API as
  no-ops on shared singletons — zero per-event allocation, so the
  simulator-throughput benchmark is unaffected by the instrumentation.
- **One emit path.**  Ad-hoc tracing (``ctx.trace.record(...)`` call sites,
  private message logs) is forbidden outside this package; the
  ``tools/check_no_adhoc_tracing.py`` lint enforces it.

See ``docs/observability.md`` for the event taxonomy and sink API.
"""

from repro.obs.bus import NULL_BUS, NullBus, ObsBus, Span
from repro.obs.events import ObsEvent, trace_sha256
from repro.obs.metrics import NULL_COUNTER, NULL_HISTOGRAM, Counter, Histogram
from repro.obs.progress import ProgressReporter, peak_rss_bytes
from repro.obs.sinks import (
    ChromeTraceSink,
    CsvSink,
    MemorySink,
    Sink,
    StreamSink,
    memory_of,
)

__all__ = [
    "ObsBus",
    "NullBus",
    "NULL_BUS",
    "Span",
    "ObsEvent",
    "trace_sha256",
    "ProgressReporter",
    "peak_rss_bytes",
    "Counter",
    "Histogram",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "Sink",
    "StreamSink",
    "MemorySink",
    "ChromeTraceSink",
    "CsvSink",
    "memory_of",
]
