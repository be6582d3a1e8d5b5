"""The typed event record shared by every layer of the stack.

An :class:`ObsEvent` is one timestamped observation.  ``phase`` follows the
Chrome tracing convention in spirit:

- ``"I"`` — instant event (the default);
- ``"B"``/``"E"`` — begin/end of a span (see :meth:`repro.obs.bus.ObsBus.span`);
- ``"C"`` — a counter sample.

``time`` is global simulated time; ``local_time`` is the (possibly skewed)
node-local clock reading, present when a measurement clock was supplied.
``node`` is the emitting node's rank, or ``-1`` for events that are not
attributable to one node (simulator-kernel events).

Fault-injection runs add the ``fault.*`` (injector) and ``rel.*`` (reliable
transport) kinds; see ``docs/faults.md`` for that taxonomy and its counter
semantics.  The sweep engine adds ``sweep_start`` / ``sweep_point`` /
``sweep_end`` progress events and the ``sweep.executed`` / ``sweep.cached``
/ ``sweep.failed`` / ``sweep.retried`` counters — these carry wall-clock
progress (``time`` is 0.0, ``node`` is ``-1``) since a sweep spans many
independent simulations; see ``docs/observability.md``.  Long single runs
similarly emit ``run_progress`` heartbeats (tasks done/total, events/s,
RSS, ETA) when a :class:`~repro.obs.progress.ProgressReporter` is
installed — wall-clock telemetry for the paper-scale N = 360,000 runs.

Supervised execution (:mod:`repro.supervise`, ``docs/robustness.md``) adds
the watchdog kinds: ``watchdog_abort`` (a :class:`~repro.supervise.guards.
RunGuards` budget tripped; ``key`` is the exception class name, ``info``
the reason) and ``watchdog_worker`` (sweep worker lifecycle: ``key`` is
the worker id, ``info`` one of ``spawned`` / ``died`` / ``hung`` / the
replacement reason), plus the ``supervise.respawned`` / ``supervise.hung``
counters and the ``sweep.resumed`` counter for journal-recovered points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = ["ObsEvent", "trace_sha256"]


@dataclass(frozen=True)
class ObsEvent:
    """One timestamped observation emitted on the bus."""

    time: float
    kind: str
    node: int
    key: Any = None
    info: Any = None
    local_time: Optional[float] = None
    phase: str = "I"


def trace_sha256(events: Iterable[ObsEvent]) -> str:
    """SHA-256 over ``(time, kind, node, key, info)`` of each event, in order.

    The digest the stack fingerprints pin (``tools/bench_ab.py``, the
    fingerprint corpus).  A run's trace depends only on its inputs, so two
    runs of one case in one process give the same digest.
    """
    digest = hashlib.sha256()
    for ev in events:
        digest.update(repr((ev.time, ev.kind, ev.node, ev.key, ev.info)).encode())
    return digest.hexdigest()
