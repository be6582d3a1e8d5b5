"""The *legacy* discrete-event kernel, frozen for A/B comparison.

This module is a verbatim snapshot of the pre-epoch tuple-heap kernel
(:mod:`repro.sim.core` before the epoch-batched rewrite), kept so
``REPRO_SIM_CORE=legacy`` can select it at import time and
``tools/bench_ab.py`` can prove the batched core is bit-identical and
faster on the same interpreter.  The only functional additions over the
historical kernel are (a) :meth:`Process._step` accepts the new
``yield <float>`` sleep shorthand by wrapping it into a :class:`Timeout`
at the exact same ``seq`` ordinal, and (b) ``yield PARK`` /
:meth:`Process.wake` are supported with one ``call_soon`` entry per wake
(again the same ``seq`` accounting as the batched kernel), so sources
converted to the shorthands run identically on both cores.  Do not
extend this module otherwise.

Design notes
------------
The kernel is a classic event-heap design tuned for the millions of events a
single HiCMA run generates:

- the heap holds ``(time, seq, event, fn, args)`` tuples — ``seq`` is a
  monotonically increasing counter so simultaneous events fire in schedule
  order and runs are deterministic;
- entries scheduled *at the current time* (event-trigger dispatches,
  :meth:`Simulator.call_soon`, zero-delay timeouts) bypass the heap through
  a FIFO ready queue.  Because simulated time never moves backwards, a
  current-time entry can only be ordered against same-time heap entries,
  and the shared ``seq`` counter decides that race exactly as the heap
  would — so the fast path is O(1) instead of O(log n) per entry while
  preserving bit-identical execution order (the determinism checker runs
  on traces to enforce this);
- :class:`Event` is a one-shot completion: callbacks attached before it
  triggers run when it fires, in attachment order;
- :class:`Process` wraps a generator.  ``yield`` transfers control back to
  the simulator; the yielded object must be an :class:`Event` (or subclass —
  :class:`Timeout`, another process, a store get, ...).  The value sent back
  into the generator is the event's value;
- a process is itself an :class:`Event` that triggers when the generator
  returns, so processes can wait on each other.

Only behaviours needed by the repro stack are implemented; there is no
real-time synchronisation and no thread safety (the simulation is strictly
single-threaded — simulated "threads" are processes).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.bus import NULL_BUS
from repro.sim._kinds import PARK

__all__ = [
    "Simulator",
    "SchedulePolicy",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
]

_PENDING = object()


class SchedulePolicy:
    """Pluggable same-timestamp tie-breaking for :meth:`Simulator.run`.

    The kernel's default order is FIFO by ``seq``: among all entries
    runnable at the current simulated time, the one scheduled first fires
    first.  A simulator constructed with a policy instead collects the
    complete runnable set at each step and asks :meth:`choose` which entry
    fires next — any answer is a *legal* execution (every candidate is due
    now), so a policy explores alternative interleavings without ever
    reordering across simulated time.

    The base class chooses index 0 every time, which replays the default
    FIFO order exactly; subclasses (see :mod:`repro.explore.policy`)
    record, replay, or perturb the tie-breaks.
    """

    def choose(self, sim: "Simulator", ready) -> int:
        """Return the index (into ``ready``) of the entry to fire next.

        ``ready`` is the runnable set at the current time, in FIFO order,
        as ``(seq, event, fn, args)`` tuples; treat it as read-only.
        Called only when there are at least two candidates.
        """
        return 0


class Event:
    """A one-shot completion that callbacks and processes can wait on."""

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling callbacks now."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        self.sim._queue_trigger(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` raised."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._queue_trigger(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if already
        triggered — scheduled at the current time, preserving order)."""
        if self.callbacks is None:
            # Already dispatched: schedule the late callback right away.
            self.sim.call_soon(fn, self)
        else:
            self.callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        # Field setup and scheduling are inlined (no super().__init__ /
        # _schedule_at calls): timers are the single most-constructed object
        # in a run, and the call overhead is measurable.
        self.sim = sim
        self.callbacks = []
        self._value = value if value is not None else delay
        self._ok = True
        sim._seq += 1
        if delay == 0:
            sim._ready.append((sim._seq, self, None, None))
        else:
            heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self, None, None))

    # Timeouts are pre-triggered at construction; suppress double-trigger.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout cannot be re-triggered")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        """The value passed to ``Process.interrupt``."""
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator coroutine; also an event for its termination."""

    __slots__ = ("generator", "_waiting_on", "_wtok", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Wake token: bumped every time the process runs so a pending
        #: :meth:`wake` callback whose captured token no longer matches is
        #: stale and fires as a no-op (mirrors the batched kernel).
        self._wtok: int = 0
        if sim.obs.enabled:
            sim.obs.emit("process_start", -1, key=self.name, time=sim.now)
        sim.call_soon(self._start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self.sim.call_soon(self._throw, Interrupt(cause))

    def _start(self, _evt: Event = None) -> None:
        self._step(self.generator.send, None)

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING or event is not self._waiting_on:
            # Stale wake-up: the process was interrupted (or finished) while
            # this event was pending; ignore it.
            return
        self._waiting_on = None
        if event._ok:
            self._step(self.generator.send, event._value)
        else:
            self._step(self.generator.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING:
            return
        self._waiting_on = None
        self._step(self.generator.throw, exc)

    def wake(self, value: Any = None) -> None:
        """Wake a process parked on ``yield PARK`` (idempotent until it runs).

        Scheduled through :meth:`Simulator.call_soon` so the wake costs one
        entry at one ``seq`` ordinal — exactly what the batched kernel's
        typed-resume entry costs — keeping the two cores bit-identical.
        """
        if self._waiting_on is not PARK or self._value is not _PENDING:
            return
        self._waiting_on = None
        self.sim.call_soon(self._wake_fire, self._wtok, value)

    def _wake_fire(self, tok: int, value: Any) -> None:
        if self._value is not _PENDING or self._wtok != tok:
            return
        self._step(self.generator.send, value)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        self._wtok += 1
        try:
            target = advance(arg)
        except StopIteration as stop:
            super().succeed(stop.value)
            self._emit_end("ok")
            return
        except Interrupt as exc:
            # An uncaught interrupt terminates the process "normally" with
            # the interrupt as its value — callers may inspect it.
            super().succeed(exc)
            self._emit_end("interrupted")
            return
        except BaseException as exc:
            super().fail(exc)
            self._emit_end("error")
            return
        if target is PARK:
            # Batched-kernel park shorthand: suspend with no scheduled
            # wake-up until someone calls :meth:`wake`.
            self._waiting_on = PARK
            return
        if not isinstance(target, Event):
            # The batched kernel's sleep shorthand: ``yield <float|int>``
            # means "resume me after that many seconds".  Wrapping into a
            # Timeout here allocates the same ``seq`` the shorthand would
            # (nothing can run between this wrap and the suspension), so
            # converted sources stay bit-identical across both cores.
            tt = type(target)
            if tt is float or tt is int:
                try:
                    target = Timeout(self.sim, target)
                except SimulationError as exc:
                    self._step(self.generator.throw, exc)
                    return
            else:
                self._step(
                    self.generator.throw,
                    SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    ),
                )
                return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _emit_end(self, status: str) -> None:
        obs = self.sim.obs
        if obs.enabled:
            obs.emit("process_end", -1, key=self.name, info=status, time=self.sim.now)


class _Condition(Event):
    """Base for AllOf/AnyOf combinators."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
        else:
            for evt in self._events:
                evt.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered; value is their values."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(_Condition):
    """Triggers when the first child event triggers; value is (index, value)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event.value)
            return
        self.succeed((self._events.index(event), event.value))


class Simulator:
    """Owns simulated time and the event heap.

    ``obs`` is the observability bus the kernel (and anything holding the
    simulator) emits through; it defaults to the free no-op bus.  The event
    loop itself is never instrumented per-event — only process lifecycle and
    per-run aggregates are emitted — so an enabled bus does not perturb the
    kernel's hot path.
    """

    __slots__ = (
        "now", "obs", "policy", "_heap", "_ready", "_seq", "_running",
        "_event_count", "_tick_fn", "_tick_every", "_epoch_cbs",
    )

    def __init__(self, obs=None, policy: Optional[SchedulePolicy] = None) -> None:
        self.now: float = 0.0
        self.obs = obs if obs is not None else NULL_BUS
        #: Optional coarse heartbeat: ``_tick_fn(event_count)`` runs every
        #: ``_tick_every`` processed events (see :meth:`set_tick`).  The
        #: disabled path costs one int compare against +inf per iteration.
        self._tick_fn: Optional[Callable[[int], None]] = None
        self._tick_every: int = 0
        #: One-shot end-of-epoch callbacks (see :meth:`at_epoch_end`).
        self._epoch_cbs: list = []
        #: Optional same-timestamp tie-break policy.  ``None`` (the default)
        #: keeps the original merged heap/ready fast path byte-for-byte; a
        #: policy routes :meth:`run` through :meth:`_run_policy` instead.
        self.policy = policy
        self._heap: list = []
        #: FIFO of current-time entries ``(seq, event, fn, args)``.  Every
        #: entry here carries a timestamp equal to ``now``; the run loop
        #: merges it with the heap by comparing ``seq`` against same-time
        #: heap heads, so ordering is bit-identical to the all-heap kernel.
        self._ready: deque = deque()
        self._seq: int = 0
        self._running = False
        self._event_count = 0

    # -- scheduling ------------------------------------------------------

    def _schedule_at(self, when: float, event: Event) -> None:
        self._seq += 1
        if when <= self.now:
            # Zero-delay timers land on the O(1) ready queue; ``seq``
            # ordering against same-time heap entries is preserved by the
            # run-loop merge.
            self._ready.append((self._seq, event, None, None))
        else:
            heapq.heappush(self._heap, (when, self._seq, event, None, None))

    def _queue_trigger(self, event: Event) -> None:
        """Queue a triggered event's callback dispatch at the current time."""
        self._seq += 1
        self._ready.append((self._seq, event, None, None))

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current simulated time, after already
        queued work."""
        self._seq += 1
        self._ready.append((self._seq, None, fn, args))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._seq += 1
        if delay == 0:
            self._ready.append((self._seq, None, fn, args))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn, args))

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Exact-timestamp twin of :meth:`call_later` (see the batched
        kernel's docstring); kept API-identical so the legacy core stays a
        drop-in A/B twin.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at in the past: {when!r} < now={self.now!r}"
            )
        self._seq += 1
        if when == self.now:
            self._ready.append((self._seq, None, fn, args))
        else:
            heapq.heappush(self._heap, (when, self._seq, None, fn, args))

    def at_epoch_end(self, fn: Callable[[], None]) -> None:
        """Register a one-shot callback to run when the current epoch ends.

        Behaviour-identical twin of the batched kernel's hook (see its
        docstring): ``fn()`` fires once no more work is pending at the
        current timestamp, before the clock advances or :meth:`run`
        returns.  The serial fabric uses it to eject same-epoch wire sends
        at destination NICs in canonical ``(inject, src, seq)`` order.
        """
        self._epoch_cbs.append(fn)

    # -- public API ------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator coroutine as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every child event has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first child event fires."""
        return AnyOf(self, events)

    @property
    def events_processed(self) -> int:
        """Total heap entries processed so far (diagnostic)."""
        return self._event_count

    def set_tick(self, fn: Optional[Callable[[int], None]], every: int = 16384) -> None:
        """Install (or clear, with ``fn=None``) a run-loop heartbeat.

        ``fn(event_count)`` is invoked from inside :meth:`run` roughly every
        ``every`` processed events — a coarse, deterministic-in-simulation
        hook for wall-clock progress reporting (:mod:`repro.obs.progress`).
        The callback runs *between* event dispatches and must not schedule
        simulation work; it sees the kernel mid-run, so treat the simulator
        as read-only.  With no tick installed the run loop pays only one
        integer compare per iteration.

        A tick callback **may raise** to abort the run: both kernels
        guarantee the exception propagates out of :meth:`run` with the
        simulator left consistent (clock, event count, and pending events
        reflect everything dispatched before the abort), so a supervisor
        (:class:`repro.supervise.guards.RunGuards`) can budget-limit a run
        and still take a trustworthy diagnostic snapshot afterwards.
        """
        if fn is not None and every < 1:
            raise SimulationError(f"tick interval must be >= 1, got {every!r}")
        self._tick_fn = fn
        self._tick_every = every if fn is not None else 0

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap empties or simulated time reaches ``until``.

        Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if self.policy is not None:
            return self._run_policy(until)
        self._running = True
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        count = self._event_count
        tick_fn = self._tick_fn
        next_tick = count + self._tick_every if tick_fn is not None else math.inf
        epoch_cbs = self._epoch_cbs
        try:
            while True:
                if count >= next_tick:
                    tick_fn(count)
                    next_tick = count + self._tick_every
                if ready:
                    # A heap entry can only precede the ready head when it
                    # is stamped at the current time with a smaller seq
                    # (time never moves backwards while work is ready).
                    if heap:
                        head = heap[0]
                        if head[0] <= self.now and head[1] < ready[0][0]:
                            heappop(heap)
                            count += 1
                            _w, _s, event, fn, args = head
                            if event is not None:
                                event._dispatch()
                            else:
                                fn(*args)
                            continue
                    _seq, event, fn, args = ready.popleft()
                    count += 1
                    if event is not None:
                        event._dispatch()
                    else:
                        fn(*args)
                    continue
                if epoch_cbs and (not heap or heap[0][0] > self.now):
                    # The ``now`` epoch is exhausted (nothing ready, no
                    # heap entry left at the current time): fire the
                    # end-of-epoch callbacks, then re-check for work they
                    # scheduled before advancing or breaking.
                    todo = epoch_cbs[:]
                    del epoch_cbs[:]
                    for cb in todo:
                        cb()
                    continue
                if not heap:
                    if until is not None:
                        self.now = until
                    break
                when, _seq, event, fn, args = heap[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heappop(heap)
                self.now = when
                count += 1
                if event is not None:
                    event._dispatch()
                else:
                    fn(*args)
        finally:
            self._event_count = count
            self._running = False
        if self.obs.enabled:
            self.obs.emit(
                "sim_run", -1,
                info={"events_processed": self._event_count, "now": self.now},
                time=self.now,
            )
        return self.now

    def _run_policy(self, until: Optional[float]) -> float:
        """Policy-driven run loop (see :class:`SchedulePolicy`).

        Instead of merging the heap against the ready deque one entry at a
        time, each time step first drains every heap entry stamped at (or
        before) the current time into the ready deque.  Such entries were
        all pushed before simulated time reached ``now`` — zero-delay
        scheduling always lands on the ready deque directly — so their
        ``seq`` values precede every ready entry's and the drained deque
        is the complete runnable set in exact FIFO order.  The policy then
        picks which candidate fires; index 0 replays the default kernel
        bit-identically.
        """
        self._running = True
        policy = self.policy
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        count = self._event_count
        tick_fn = self._tick_fn
        next_tick = count + self._tick_every if tick_fn is not None else math.inf
        epoch_cbs = self._epoch_cbs
        try:
            while True:
                if count >= next_tick:
                    tick_fn(count)
                    next_tick = count + self._tick_every
                while heap and heap[0][0] <= self.now:
                    _w, seq, event, fn, args = heappop(heap)
                    ready.append((seq, event, fn, args))
                if not ready:
                    if epoch_cbs:
                        # End of the ``now`` epoch: fire callbacks, then
                        # re-check for work they scheduled.
                        todo = epoch_cbs[:]
                        del epoch_cbs[:]
                        for cb in todo:
                            cb()
                        continue
                    if not heap:
                        if until is not None:
                            self.now = until
                        break
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        break
                    self.now = when
                    continue
                if len(ready) > 1:
                    idx = policy.choose(self, ready)
                    if idx:
                        entry = ready[idx]
                        del ready[idx]
                    else:
                        entry = ready.popleft()
                else:
                    entry = ready.popleft()
                count += 1
                _seq, event, fn, args = entry
                if event is not None:
                    event._dispatch()
                else:
                    fn(*args)
        finally:
            self._event_count = count
            self._running = False
        if self.obs.enabled:
            self.obs.emit(
                "sim_run", -1,
                info={"events_processed": self._event_count, "now": self.now},
                time=self.now,
            )
        return self.now

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: start ``generator`` and run to completion; return its
        value (raising if it failed)."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self.now}"
            )
        if not proc.ok:
            raise proc.value
        return proc.value
