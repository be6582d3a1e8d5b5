"""Deterministic discrete-event simulation kernel.

A minimal simpy-style kernel: a :class:`Simulator` runs timestamped entries
in epochs (every entry of one timestamp, in schedule order); generator
coroutines (:class:`Process`) yield a sleep (a number), a one-shot
:class:`Event`, or :data:`PARK` (idle until :meth:`Process.wake`), and are
resumed when that completes.  Tie-breaking is by schedule order, so every
run is bit-for-bit reproducible.

:class:`Simulator` is the epoch-batched core of :mod:`repro.sim.core`.
"""

from repro.sim.core import (
    Simulator,
    Event,
    Timeout,
    Process,
    Interrupt,
    PARK,
)
from repro.sim.primitives import (
    Store,
    PriorityStore,
    NotifyQueue,
)
from repro.sim.rng import RngStreams
from repro.sim.clock import NodeClock, ClockEnsemble, hunold_synchronize

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "PARK",
    "Store",
    "PriorityStore",
    "NotifyQueue",
    "RngStreams",
    "NodeClock",
    "ClockEnsemble",
    "hunold_synchronize",
]
