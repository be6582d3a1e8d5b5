"""Run guards: hard budgets enforced from the simulator's run-loop tick.

A :class:`RunGuards` instance attaches to a :class:`~repro.runtime.context.
ParsecContext` through the same coarse tick hook the progress reporter
uses (:meth:`repro.sim.core.Simulator.set_tick`), chaining any tick
already installed so guards and heartbeats coexist.  Every check is
*observational* until a budget is crossed — a guarded run that finishes
inside its budgets is bit-identical to an unguarded one (asserted by
``tools/check_fault_determinism.py``, which runs guard-free, and by the
guard-parity test in ``tests/test_supervise.py``).

On a violation the guard raises a structured exception out of
:meth:`Simulator.run` — :class:`~repro.errors.RunBudgetExceeded` for the
wall-clock deadline, kernel event budget, and memory ceiling;
:class:`~repro.errors.NoProgressError` when simulated time keeps advancing
but no task completes over the configured window (a live-lock, e.g. pollers
spinning on a protocol state that can never resolve).  The kernel
guarantees a tick callback may raise: the run loop stays consistent, so
the context can still be inspected.
:class:`~repro.runtime.context.ParsecContext.run` catches the guard
exception, attaches :func:`diagnostic_snapshot` output plus salvaged
partial :class:`~repro.runtime.context.RunStats`, and re-raises — an
aborted paper-scale run reports *where* it stood, not just that it died.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, NoProgressError, RunBudgetExceeded
from repro.obs.progress import peak_rss_bytes

__all__ = ["RunGuards", "diagnostic_snapshot"]

#: How many trailing observability events a snapshot captures.
SNAPSHOT_EVENTS = 25


def diagnostic_snapshot(ctx, events: int = SNAPSHOT_EVENTS) -> dict:
    """Capture the context's state for a structured abort report.

    Returns a plain dict (JSON-able apart from event ``info`` payloads)
    with progress counters, simulated/wall clocks, observability counter
    totals, each backend engine's quiescence report, and the last
    ``events`` observability events when an in-memory sink is attached.
    Never raises: a snapshot taken from a half-wedged run degrades to
    whatever state is still reachable.
    """
    snap: dict = {}
    try:
        snap["tasks_done"] = ctx._executed
        snap["tasks_total"] = ctx._total_tasks
        snap["sim_now"] = ctx.sim.now
        snap["events_processed"] = ctx.sim.events_processed
        snap["rss_bytes"] = peak_rss_bytes()
    except Exception:  # pragma: no cover - snapshot must not mask the abort
        pass
    try:
        snap["counters"] = dict(sorted(ctx.obs.counter_totals().items()))
    except Exception:  # pragma: no cover
        snap["counters"] = {}
    quiescence = []
    try:
        for rank, engine in enumerate(ctx.engines):
            report = engine.quiescence_report()
            if any(report.values()):
                quiescence.append({"rank": rank, **report})
    except Exception:  # pragma: no cover
        pass
    snap["quiescence"] = quiescence
    try:
        memory = getattr(ctx.obs, "memory", None)
        if memory is not None:
            snap["last_events"] = [
                {"time": e.time, "kind": e.kind, "node": e.node,
                 "key": e.key, "info": e.info}
                for e in memory.events[-events:]
            ]
    except Exception:  # pragma: no cover
        pass
    return snap


@dataclass
class RunGuards:
    """Budget configuration for one supervised run.

    ``None`` disables a guard; all-``None`` guards are a validated no-op.
    ``deadline`` and the heartbeat are *wall-clock* seconds;
    ``no_progress_window`` is *simulated* seconds (the live-lock signature
    is simulated time advancing without task completions, independent of
    host speed, so the detection itself stays deterministic for a given
    tick cadence).
    """

    #: Wall-clock seconds the run may take before aborting.
    deadline: Optional[float] = None
    #: Kernel events the run may process before aborting.
    max_events: Optional[int] = None
    #: Peak RSS ceiling in bytes.
    max_rss_bytes: Optional[int] = None
    #: Simulated seconds that may elapse with zero task completions.
    no_progress_window: Optional[float] = None
    #: Kernel events between guard checks (tick cadence).
    check_every: int = 4096

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError(f"RunGuards.deadline must be > 0 (got {self.deadline!r})")
        if self.max_events is not None and self.max_events <= 0:
            raise ConfigError(
                f"RunGuards.max_events must be > 0 (got {self.max_events!r})"
            )
        if self.max_rss_bytes is not None and self.max_rss_bytes <= 0:
            raise ConfigError(
                f"RunGuards.max_rss_bytes must be > 0 (got {self.max_rss_bytes!r})"
            )
        if self.no_progress_window is not None and self.no_progress_window <= 0:
            raise ConfigError(
                "RunGuards.no_progress_window must be > 0 "
                f"(got {self.no_progress_window!r})"
            )
        if self.check_every < 1:
            raise ConfigError(
                f"RunGuards.check_every must be >= 1 (got {self.check_every!r})"
            )
        self._ctx = None
        self._chained = None
        self._t0 = 0.0
        self._base_events = 0
        self._last_event_count = 0
        self._window_start_sim = 0.0
        self._window_executed = -1

    @property
    def enabled(self) -> bool:
        """True when at least one budget is set."""
        return any(
            limit is not None
            for limit in (self.deadline, self.max_events,
                          self.max_rss_bytes, self.no_progress_window)
        )

    # -- wiring -----------------------------------------------------------

    def install(self, ctx) -> None:
        """Attach to ``ctx``, chaining any tick already installed (e.g. a
        :class:`~repro.obs.progress.ProgressReporter`'s)."""
        if not self.enabled:
            return
        self._ctx = ctx
        self._chained = ctx.sim._tick_fn
        self._chained_every = ctx.sim._tick_every
        self._t0 = time.perf_counter()
        self._base_events = ctx.sim.events_processed
        self._window_start_sim = ctx.sim.now
        self._window_executed = ctx._executed
        every = self.check_every
        if self._chained is not None:
            every = min(every, ctx.sim._tick_every)
        ctx.sim.set_tick(self._tick, every=every)

    def finish(self) -> None:
        """Detach, restoring any chained tick."""
        ctx, self._ctx = self._ctx, None
        if ctx is None:
            return
        if self._chained is not None:
            ctx.sim.set_tick(self._chained, every=self._chained_every)
        else:
            ctx.sim.set_tick(None)
        self._chained = None

    # -- checks -----------------------------------------------------------

    def _abort(self, exc_type, reason: str):
        ctx = self._ctx
        snap = diagnostic_snapshot(ctx)
        # Mid-run the kernel keeps its event count in a run-loop local
        # (written back only on exit), so the tick argument is the live one.
        snap["events_processed"] = max(
            snap.get("events_processed", 0), self._last_event_count
        )
        snap["reason"] = reason
        snap["wall_elapsed"] = time.perf_counter() - self._t0
        if ctx.obs.enabled:
            ctx.obs.emit("watchdog_abort", -1, key=exc_type.__name__,
                         info=reason, time=ctx.sim.now)
        raise exc_type(reason, snapshot=snap)

    def _tick(self, event_count: int) -> None:
        if self._chained is not None:
            self._chained(event_count)
        ctx = self._ctx
        self._last_event_count = event_count
        if self.max_events is not None:
            spent = event_count - self._base_events
            if spent > self.max_events:
                self._abort(
                    RunBudgetExceeded,
                    f"event budget exceeded: {spent:,} kernel events "
                    f"(> {self.max_events:,})",
                )
        if self.deadline is not None:
            elapsed = time.perf_counter() - self._t0
            if elapsed > self.deadline:
                self._abort(
                    RunBudgetExceeded,
                    f"wall-clock deadline exceeded: {elapsed:.1f}s "
                    f"(> {self.deadline:.1f}s)",
                )
        if self.max_rss_bytes is not None:
            rss = peak_rss_bytes()
            if rss > self.max_rss_bytes:
                self._abort(
                    RunBudgetExceeded,
                    f"memory ceiling exceeded: {rss / 2**30:.2f} GiB RSS "
                    f"(> {self.max_rss_bytes / 2**30:.2f} GiB)",
                )
        if self.no_progress_window is not None:
            if ctx._executed != self._window_executed:
                # Progress: restart the window at the current clock.
                self._window_executed = ctx._executed
                self._window_start_sim = ctx.sim.now
            elif ctx.sim.now - self._window_start_sim > self.no_progress_window:
                self._abort(
                    NoProgressError,
                    "no progress: simulated time advanced "
                    f"{ctx.sim.now - self._window_start_sim:.6g}s "
                    f"(> {self.no_progress_window:.6g}s window) with "
                    f"{ctx._executed}/{ctx._total_tasks} tasks complete",
                )
