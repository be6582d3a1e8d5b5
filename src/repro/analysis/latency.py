"""Per-flow latency breakdown.

The paper reports end-to-end latency as a single number; for diagnosis this
module decomposes each remote dataflow's life into the protocol phases of
Fig. 1:

- ``activate``  — handoff of the activation to the comm layer → ACTIVATE
  callback execution at the destination;
- ``getdata``   — ACTIVATE callback → GET DATA callback at the holder
  (includes the priority-queue deferral, §4.3 duty 3);
- ``transfer``  — GET DATA handling → data arrival callback at the
  destination (handshake + wire + completion processing).

Enable with ``ParsecContext(..., observability=True)``; the runtime then
emits events keyed ``(flow, dst)`` on the :mod:`repro.obs` bus which
:func:`breakdown` joins into :class:`FlowBreakdown` records.
``breakdown`` accepts the bus or its memory sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.obs.sinks import memory_of

__all__ = ["FlowBreakdown", "breakdown", "phase_summary"]

#: Trace kinds emitted by the runtime, in protocol order.
PHASES = ("activate_handoff", "activate_cb", "getdata_cb", "data_arrival")


@dataclass(frozen=True)
class FlowBreakdown:
    """Phase timings of one (flow, destination) transfer."""

    flow: int
    dst: int
    activate: float  # handoff -> ACTIVATE callback at dst
    getdata: float  # ACTIVATE callback -> GET DATA callback at holder
    transfer: float  # GET DATA callback -> data arrival at dst

    @property
    def total(self) -> float:
        """End-to-end latency (sum of the three phases)."""
        return self.activate + self.getdata + self.transfer


def breakdown(trace: Any) -> list[FlowBreakdown]:
    """Join trace events into per-(flow, dst) phase timings.

    ``trace`` may be a :class:`~repro.obs.bus.ObsBus` or its memory sink.
    Uses the per-kind indexes (O(phase events), not O(all events)).
    Incomplete flows (e.g. cut off at run end) are skipped.  A flow's
    ``activate_handoff`` is always its first recorded phase, so iterating
    that index preserves first-occurrence order; duplicate stamps keep the
    last one, matching the historical join.
    """
    idx = memory_of(trace)
    # Per-kind {key: time} maps; dict assignment keeps the last duplicate.
    stamps = {kind: {e.key: e.time for e in idx.by_kind(kind)} for kind in PHASES}
    handoff = stamps[PHASES[0]]
    out = []
    for key, handoff_t in handoff.items():
        if not all(key in stamps[k] for k in PHASES[1:]):
            continue
        flow, dst = key
        out.append(
            FlowBreakdown(
                flow=flow,
                dst=dst,
                activate=stamps["activate_cb"][key] - handoff_t,
                getdata=stamps["getdata_cb"][key] - stamps["activate_cb"][key],
                transfer=stamps["data_arrival"][key] - stamps["getdata_cb"][key],
            )
        )
    return out


def phase_summary(flows: Iterable[FlowBreakdown]) -> dict[str, dict]:
    """Mean/p95 per phase across flows, plus each phase's share of total."""
    flows = list(flows)
    if not flows:
        return {}
    out: dict[str, dict] = {}
    totals = np.array([f.total for f in flows])
    for phase in ("activate", "getdata", "transfer"):
        vals = np.array([getattr(f, phase) for f in flows])
        out[phase] = {
            "mean": float(vals.mean()),
            "p95": float(np.percentile(vals, 95)),
            "share": float(vals.sum() / totals.sum()) if totals.sum() > 0 else 0.0,
        }
    out["total"] = {
        "mean": float(totals.mean()),
        "p95": float(np.percentile(totals, 95)),
        "share": 1.0,
    }
    return out
