"""The discrete-event simulation core (epoch-batched, timestamp-bucketed).

Design notes
------------
The kernel processes events in **epochs** — the set of all entries sharing
one timestamp — instead of merging a heap against a ready queue one entry
at a time:

- every schedulable unit is a flat *kind-coded* ``(seq, kind, a, b, c)``
  entry.  ``seq`` is a global, monotonically increasing counter so
  simultaneous entries fire in schedule order and runs are deterministic.
  ``kind`` selects a typed fast path:

  ======== ======================= =========================================
  kind     payload                 dispatch
  ======== ======================= =========================================
  K_EVT    ``a`` = event           ``a._dispatch()`` — generic event fire
  K_CALL   ``a`` = fn, ``b`` =     ``a(*b)`` — plain callback
           args
  K_RESUME ``a`` = process,        resume the generator directly with ``c``
           ``b`` = wake token,     (skipping Event/Timeout allocation and
           ``c`` = value           callback dispatch entirely)
  ======== ======================= =========================================

- future entries are **bucketed by timestamp**: ``_times`` is a heap of
  the *distinct* future timestamps (bare floats) and ``_buckets`` maps each
  one to the list of its entries.  Because ``seq`` only ever grows, an
  append always lands behind every entry already in its bucket, so each
  bucket is in seq order by construction.  A run with many entries per
  timestamp pays one float heap push/pop per timestamp instead of one
  tuple heap push/pop per entry;

- the current epoch is a plain list, the *epoch batch* (``_ready``).  When
  it is exhausted the clock advances to the smallest timestamp and that
  timestamp's bucket *becomes* the batch.  Two invariants make this exactly
  the classic ``(time, seq)`` total order: (1) a bucket push always carries
  a strictly future timestamp — every scheduler tests ``when > now``, so
  zero, underflowed (``now + d == now``) and NaN delays go to the batch,
  never to a dict key — so no bucket at the current time can appear while
  an epoch runs; and (2) every entry appended during the epoch is younger
  than every entry the bucket held.  The batch is iterated in place, and
  appends made while it runs fire in the same pass.  An exception that
  escapes an entry leaves the unfired remainder of the batch in place, so
  a later :meth:`Simulator.run` resumes in the same order;

- processes may ``yield <float|int>`` as a sleep shorthand — the kernel
  schedules a K_RESUME entry that re-enters the generator directly.  This
  is the dominant event kind in a run (poll ticks, task durations, per-item
  progress costs) and costs one tuple instead of a Timeout object, its
  callback list, and two dispatch indirections.  ``yield sim.timeout(d)``
  remains fully supported and bit-identical (the shorthand allocates the
  same ``seq`` at the same point);

- :class:`Event` is a one-shot completion: callbacks attached before it
  triggers run when it fires, in attachment order;

- :class:`Process` wraps a generator.  ``yield`` transfers control back to
  the simulator; the yielded object must be an :class:`Event` (or subclass),
  a number, or :data:`PARK`.  The value sent back into the generator is the
  event's value (the delay, for sleeps);

- ``yield PARK`` suspends a process with *no* scheduled wake-up; another
  actor calls :meth:`Process.wake` (idempotent until the process runs)
  to schedule a K_RESUME at the current time.  Pollers (comm/progress
  threads) and idle workers wait this way instead of on per-wait
  notification events;

- a process is itself an :class:`Event` that triggers when the generator
  returns, so processes can wait on each other.

Only behaviours needed by the repro stack are implemented; there is no
real-time synchronisation and no thread safety (the simulation is strictly
single-threaded — simulated "threads" are processes).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.bus import NULL_BUS
from repro.sim._kinds import K_CALL, K_EVT, K_RESUME, PARK, noop

__all__ = [
    "Simulator",
    "SchedulePolicy",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "K_EVT",
    "K_CALL",
    "K_RESUME",
    "PARK",
    "noop",
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
        as kind-coded ``(seq, kind, a, b, c)`` tuples (see the module
        docstring for the payload layout per kind); treat it as read-only.
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
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, K_EVT, self, None, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` raised."""
        if self._value is not _PENDING:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, K_EVT, self, None, None))
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
        # Field setup and scheduling are inlined (no super().__init__ call):
        # explicit Timeouts are still common enough that the call overhead
        # is measurable.  The ``when > now`` test (rather than ``delay ==
        # 0``) routes underflowed delays (now + delay == now in float) to
        # the batch, preserving the epoch invariant that no bucket is ever
        # keyed at the current time.
        self.sim = sim
        self.callbacks = []
        self._value = value if value is not None else delay
        self._ok = True
        sim._seq += 1
        when = sim.now + delay
        if when > sim.now:
            sim._push(when, (sim._seq, K_EVT, self, None, None))
        else:
            sim._ready.append((sim._seq, K_EVT, self, None, None))

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

    __slots__ = ("generator", "_gsend", "_waiting_on", "_wtok", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process requires a generator, got {generator!r}")
        self.generator = generator
        #: ``generator.send`` pre-bound once — the run loop resumes typed
        #: sleeps through this, avoiding a bound-method allocation per event.
        self._gsend = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Wake token for typed sleeps: bumped every time the process runs,
        #: so a pending K_RESUME entry whose captured token no longer
        #: matches (the process was interrupted, or finished) is stale and
        #: fires as a no-op — the typed analogue of the stale-Timeout
        #: identity check in :meth:`_resume`.
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

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        # Invalidate any still-pending typed sleep before the generator
        # runs: whatever it yields next is the only wake-up that counts.
        self._wtok += 1
        try:
            target = advance(arg)
        except BaseException as exc:
            self._terminate(exc)
            return
        self._suspend(target)

    def _terminate(self, exc: BaseException) -> None:
        """The generator raised out of a resume: record the termination."""
        if type(exc) is StopIteration:
            super().succeed(exc.value)
            self._emit_end("ok")
        elif isinstance(exc, Interrupt):
            # An uncaught interrupt terminates the process "normally" with
            # the interrupt as its value — callers may inspect it.
            super().succeed(exc)
            self._emit_end("interrupted")
        elif isinstance(exc, StopIteration):  # subclass, pathological
            super().succeed(exc.value)
            self._emit_end("ok")
        else:
            super().fail(exc)
            self._emit_end("error")

    def _suspend(self, target: Any) -> None:
        """Park the process on whatever the generator yielded."""
        tt = type(target)
        if tt is float or tt is int:
            # Sleep shorthand: resume after ``target`` seconds with the
            # delay sent back — bit-identical to ``yield sim.timeout(d)``
            # (same seq at the same point) but allocation-free.
            if target < 0:
                self._step(
                    self.generator.throw,
                    SimulationError(f"negative timeout: {target!r}"),
                )
                return
            sim = self.sim
            sim._seq += 1
            when = sim.now + target
            if when > sim.now:
                sim._push(when, (sim._seq, K_RESUME, self, self._wtok, target))
            else:
                sim._ready.append((sim._seq, K_RESUME, self, self._wtok, target))
            return
        if target is PARK:
            # ``yield PARK``: suspend with *no* scheduled wake-up.  Some
            # other actor calls :meth:`wake`; until then the process costs
            # the kernel nothing (no event, no queued entry, no callbacks).
            self._waiting_on = PARK
            return
        if not isinstance(target, Event):
            self._step(
                self.generator.throw,
                SimulationError(f"process {self.name!r} yielded non-event {target!r}"),
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def wake(self, value: Any = None) -> None:
        """Wake a process parked on ``yield PARK``.

        Idempotent until the process actually runs: the first call schedules
        a typed resume at the current time; further calls (and calls while
        the process is not parked) are no-ops.  ``value`` is sent into the
        generator.  Spurious wakes are expected — parked pollers re-check
        their condition and re-park.
        """
        if self._waiting_on is not PARK or self._value is not _PENDING:
            return
        self._waiting_on = None
        sim = self.sim
        sim._seq += 1
        sim._ready.append((sim._seq, K_RESUME, self, self._wtok, value))

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
    """Owns simulated time, the timestamp buckets, and the epoch batch.

    ``obs`` is the observability bus the kernel (and anything holding the
    simulator) emits through; it defaults to the free no-op bus.  The event
    loop itself is never instrumented per-event — only process lifecycle and
    per-run aggregates are emitted — so an enabled bus does not perturb the
    kernel's hot path.
    """

    __slots__ = (
        "now", "obs", "policy", "_times", "_buckets", "_ready", "_seq",
        "_running", "_event_count", "_tick_fn", "_tick_every", "_epoch_cbs",
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
        #: keeps the epoch-batched fast path; a policy routes :meth:`run`
        #: through :meth:`_run_policy` instead.
        self.policy = policy
        #: Heap of the distinct future timestamps that own a bucket.
        self._times: list = []
        #: Future timestamp → its entries ``(seq, kind, a, b, c)`` in seq
        #: order.  Every key is strictly greater than ``now``.
        self._buckets: dict = {}
        #: The epoch batch: current-time entries ``(seq, kind, a, b, c)``
        #: in append (= seq) order.  Every entry here is stamped at ``now``;
        #: the run loop iterates it in place, so appends made while an
        #: epoch runs fire in the same pass, in exact seq order.
        self._ready: list = []
        self._seq: int = 0
        self._running = False
        self._event_count = 0

    # -- scheduling ------------------------------------------------------

    def _push(self, when: float, entry: tuple) -> None:
        """Queue ``entry`` in the bucket of the future time ``when``.

        Callers guarantee ``when > now``; the entry's seq is the newest, so
        appending keeps the bucket in seq order."""
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heapq.heappush(self._times, when)
        else:
            bucket.append(entry)

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current simulated time, after already
        queued work."""
        self._seq += 1
        self._ready.append((self._seq, K_CALL, fn, args, None))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._seq += 1
        when = self.now + delay
        if when > self.now:
            # _push inlined: wire-side completions make this a hot path.
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(self._seq, K_CALL, fn, args, None)]
                heapq.heappush(self._times, when)
            else:
                bucket.append((self._seq, K_CALL, fn, args, None))
        else:
            self._ready.append((self._seq, K_CALL, fn, args, None))

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        The exact-timestamp twin of :meth:`call_later`, for callers that
        must hit a precomputed absolute time without the ``now + (when -
        now)`` float round-trip — the fabric's end-of-epoch flush
        schedules deliveries and completion notices this way.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at in the past: {when!r} < now={self.now!r}"
            )
        self._seq += 1
        if when > self.now:
            # _push inlined: the fabric's flush schedules every delivery here.
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(self._seq, K_CALL, fn, args, None)]
                heapq.heappush(self._times, when)
            else:
                bucket.append((self._seq, K_CALL, fn, args, None))
        else:
            self._ready.append((self._seq, K_CALL, fn, args, None))

    def at_epoch_end(self, fn: Callable[[], None]) -> None:
        """Register a one-shot callback to run when the current epoch ends.

        ``fn()`` fires inside :meth:`run` at the first point where no more
        work is pending at the current timestamp — after every entry of the
        ``now`` epoch (including appends they make) has been dispatched,
        and strictly before the clock advances or :meth:`run` returns.  A
        callback may schedule new work (at ``now`` or later) and may
        re-register itself; the loop re-checks for both before moving on.

        This is the hook the serial :class:`~repro.network.fabric.Fabric`
        uses to defer destination-NIC ejection to the end of the send's
        epoch, so equal-timestamp wire sends eject in the canonical
        ``(inject, src, seq)`` order rather than in call order.

        Callbacks registered while no :meth:`run` is active fire at the end
        of the first epoch of the next :meth:`run` call.
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
        """Total entries processed so far (diagnostic)."""
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
        """Run until no work is left or simulated time reaches ``until``.

        Returns the final simulated time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        if self.policy is not None:
            return self._run_policy(until)
        self._running = True
        times = self._times
        buckets = self._buckets
        batch = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        count = self._event_count
        tick_fn = self._tick_fn
        next_tick = count + self._tick_every if tick_fn is not None else math.inf
        epoch_cbs = self._epoch_cbs
        now = self.now
        # ``batch[:count - base]`` has fired: the loop keeps that prefix
        # until the batch is replaced, so an abort can drop exactly it.
        base = count
        try:
            while True:
                # One pass per epoch: iterate the batch in place — list
                # iteration sees the appends the entries we fire make, so
                # they run in this same pass, in seq order.
                for _seq, kind, a, b, c in batch:
                    if count >= next_tick:
                        tick_fn(count)
                        next_tick = count + self._tick_every
                    count += 1
                    if kind == 2:  # K_RESUME — the hottest kind, inlined:
                        # resume the generator and queue its next sleep (or
                        # park it) without leaving the loop frame.
                        if a._wtok == b and a._value is _PENDING:
                            a._wtok += 1
                            try:
                                target = a._gsend(c)
                            except BaseException as exc:
                                a._terminate(exc)
                                continue
                            tt = type(target)
                            if (tt is float or tt is int) and target >= 0:
                                self._seq = seq = self._seq + 1
                                when = now + target
                                if when > now:
                                    bucket = buckets.get(when)
                                    if bucket is None:
                                        buckets[when] = [(seq, 2, a, a._wtok, target)]
                                        heappush(times, when)
                                    else:
                                        bucket.append((seq, 2, a, a._wtok, target))
                                else:
                                    batch.append((seq, 2, a, a._wtok, target))
                            elif target is PARK:
                                a._waiting_on = PARK
                            else:
                                a._suspend(target)
                    elif kind == 0:  # K_EVT
                        a._dispatch()
                    else:            # K_CALL
                        a(*b)
                # The batch is exhausted.  The tick check here keeps the
                # cadence of one check before every entry and before every
                # end-of-epoch step.
                if count >= next_tick:
                    tick_fn(count)
                    next_tick = count + self._tick_every
                if epoch_cbs:
                    # Run the end-of-epoch callbacks before the clock can
                    # advance or the loop can break, then re-check — they
                    # may schedule work at ``now``, appended to the emptied
                    # batch, or later.
                    batch.clear()
                    base = count
                    todo = epoch_cbs[:]
                    del epoch_cbs[:]
                    for cb in todo:
                        cb()
                    continue
                if not times:
                    if until is not None:
                        self.now = until
                    break
                when = times[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heappop(times)
                self.now = now = when
                # The bucket becomes the next epoch batch as-is: it holds
                # every entry at ``when`` in seq order, and zero-delay work
                # its entries schedule appends behind them.
                batch = self._ready = buckets.pop(when)
                base = count
        finally:
            # Drop the fired prefix so an exception escaping a callback
            # cannot leave already-dispatched entries behind for a later
            # run() to re-fire; the unfired rest stays in seq order.
            del batch[:count - base]
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

        The ready list holds every entry runnable at ``now`` in FIFO order.
        When it empties the clock advances to the next timestamp and that
        timestamp's whole bucket joins the ready list — a bucket is in seq
        order and zero-delay scheduling always lands on the ready list
        directly, so the list is the complete runnable set in exact FIFO
        order.  The policy then picks which candidate fires; index 0
        replays the default kernel bit-identically.
        """
        self._running = True
        policy = self.policy
        times = self._times
        buckets = self._buckets
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
                if not ready:
                    if epoch_cbs:
                        # End of the ``now`` epoch: fire the callbacks,
                        # then re-check for work they scheduled.
                        todo = epoch_cbs[:]
                        del epoch_cbs[:]
                        for cb in todo:
                            cb()
                        continue
                    if not times:
                        if until is not None:
                            self.now = until
                        break
                    when = times[0]
                    if until is not None and when > until:
                        self.now = until
                        break
                    heappop(times)
                    self.now = when
                    ready.extend(buckets.pop(when))
                    continue
                if len(ready) > 1:
                    idx = policy.choose(self, ready)
                else:
                    idx = 0
                _seq, kind, a, b, c = ready.pop(idx) if idx else ready.pop(0)
                count += 1
                if kind == 2:
                    if a._wtok == b and a._value is _PENDING:
                        a._step(a.generator.send, c)
                elif kind == 0:
                    a._dispatch()
                else:
                    a(*b)
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

