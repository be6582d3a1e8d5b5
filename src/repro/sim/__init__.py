"""Deterministic discrete-event simulation kernel.

A minimal-but-complete simpy-style kernel: a :class:`Simulator` drives a heap
of timestamped events; generator coroutines (:class:`Process`) yield
*waitables* (timeouts, one-shot :class:`Event` completions, store gets, ...)
and are resumed when those complete.  Tie-breaking is by schedule order, so
every run is bit-for-bit reproducible.

:class:`Simulator` is the epoch-batched core of :mod:`repro.sim.core`.
"""

from repro.sim.core import (
    Simulator,
    Event,
    Timeout,
    Process,
    Interrupt,
    AllOf,
    AnyOf,
    PARK,
)
from repro.sim.primitives import (
    Store,
    PriorityStore,
    Resource,
    Semaphore,
    Latch,
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
    "AllOf",
    "AnyOf",
    "PARK",
    "Store",
    "PriorityStore",
    "Resource",
    "Semaphore",
    "Latch",
    "NotifyQueue",
    "RngStreams",
    "NodeClock",
    "ClockEnsemble",
    "hunold_synchronize",
]
