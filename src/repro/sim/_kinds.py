"""Kernel entry-kind constants and the PARK sentinel.

The ``kind`` codes of the kernel's ``(seq, kind, a, b, c)`` entries and
the ``yield PARK`` sentinel; :mod:`repro.sim.core` re-exports all of them.
"""

__all__ = ["K_EVT", "K_CALL", "K_RESUME", "PARK", "noop"]

#: Entry kinds (the ``kind`` slot of every scheduled entry).
K_EVT = 0      #: generic event dispatch: ``a._dispatch()``
K_CALL = 1     #: plain callback: ``a(*b)``
K_RESUME = 2   #: typed process resume: send ``c`` into process ``a``


class _ParkSentinel:
    """Singleton yielded by a process to park until :meth:`Process.wake`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PARK"


#: ``yield PARK`` suspends the process with *no* scheduled wake-up; some
#: other actor must call :meth:`Process.wake` (idempotent until the process
#: next runs).  Every simulated thread idles this way: nothing is allocated
#: per wait.
PARK = _ParkSentinel()


def noop() -> None:
    """An inert callback: ``sim.call_soon(noop)`` takes one seq and one
    processed entry and touches no state.

    MPI request completion schedules it so that the completion notice still
    occupies its place in the event stream (``events_processed`` and the
    seq numbering are part of the output fingerprint).  The schedule
    explorer treats it as commuting with everything.
    """
