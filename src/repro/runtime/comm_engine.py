"""The PaRSEC communication-engine API (paper Listing 1).

The runtime talks to its communication backend exclusively through this
interface; the MPI and LCI backends implement it with completely different
mechanisms (§4.2 vs. §5.3) while the runtime core stays unchanged — which
is exactly the property the paper's evaluation relies on ("Since the PaRSEC
runtime core is unchanged, the task management overhead must be identical,
so differences in performance must be due to communication management").

Active-message callbacks are **generator functions**::

    def cb(engine, tag, msg, size, src, cb_data):
        yield 0.5e-6   # CPU work: a number sleeps that many seconds
        ...

invoked (``yield from``) by the backend on whichever simulated thread runs
its progress path.  One-sided completion callbacks have the same shape.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.errors import RuntimeBackendError
from repro.faults.transport import SeqTracker
from repro.obs.bus import NULL_BUS
from repro.sim.core import Process, Simulator

__all__ = [
    "BackoffPolicy",
    "CommEngine",
    "AmCallback",
    "OnesidedCallback",
    "TAG_ACTIVATE",
    "TAG_GETDATA",
    "TAG_PUT_COMPLETE",
]

#: The two active messages PaRSEC registers at startup (§4.1) plus the tag
#: used to dispatch remote put-completion callbacks.
TAG_ACTIVATE = 1
TAG_GETDATA = 2
TAG_PUT_COMPLETE = 3

AmCallback = Callable[..., Generator]
OnesidedCallback = Callable[..., Generator]

class BackoffPolicy:
    """Retry-delay schedule for backend back-pressure (LCI_ERR_RETRY etc.).

    The default (``factor=1``) reproduces the historical fixed 0.5 µs
    backoff exactly; fault-injection runs use an exponential schedule with
    a cap and deterministic jitter so retry storms de-synchronise.
    """

    def __init__(
        self,
        base: float = 0.5e-6,
        factor: float = 1.0,
        max_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
    ):
        self.base = base
        self.factor = factor
        self.max_delay = max_delay if max_delay is not None else 64 * base
        self.jitter = jitter
        self.rng = rng

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        d = min(self.base * self.factor ** (attempt - 1), self.max_delay)
        if self.jitter and self.rng is not None:
            d *= 1.0 + self.jitter * float(self.rng.random())
        return d


class CommEngine:
    """Abstract communication engine (Listing 1)."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        data_tags: Iterator[int],
        obs=None,
        backoff: Optional[BackoffPolicy] = None,
    ):
        self.sim = sim
        self.node = node
        #: Wire tags for put data transfers, one fresh tag per put.  The
        #: run's engines share one source: the target tells transfers apart
        #: by (origin, tag) (§5.3.3).
        self._data_tags = data_tags
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        #: Observability bus (defaults to the simulator's, usually NULL_BUS).
        self.obs = obs if obs is not None else getattr(sim, "obs", NULL_BUS)
        #: Instruments are null no-ops on a disabled bus: skip them there.
        self._obs_on = self.obs.enabled
        self._am_tags: dict[int, tuple[AmCallback, Any]] = {}
        #: Counters exposed for benchmarks/tests.
        self.stats = {
            "am_sent": 0,
            "am_recv": 0,
            "puts_started": 0,
            "puts_completed": 0,
            "bytes_put": 0,
        }
        self._c_am_sent = self.obs.counter("parsec.am_sent", node)
        self._c_am_recv = self.obs.counter("parsec.am_recv", node)
        self._c_puts = self.obs.counter("parsec.puts_started", node)
        self._h_put_bytes = self.obs.histogram("parsec.put_bytes", node)
        # End-to-end AM dedup for fault-injection runs: the fabric-level
        # transport already dedups the wire, but backend-level retries after
        # LCI_ERR_RETRY-style back-pressure can resend an AM whose first copy
        # actually made it out.  Sequence numbers make redelivery harmless.
        self._am_next_seq: dict[int, int] = {}
        self._am_rx: dict[int, SeqTracker] = {}
        self._c_am_dup = self.obs.counter("parsec.am_dup_dropped", node)

    # -- registration (tag_reg / mem_reg of Listing 1) --------------------

    def tag_reg(self, tag: int, cb: AmCallback, cb_data: Any = None, max_len: int = 1 << 20) -> None:
        """Register an active-message callback for ``tag``."""
        if tag in self._am_tags:
            raise RuntimeBackendError(f"AM tag {tag} registered twice")
        self._am_tags[tag] = (cb, cb_data)
        self._tag_reg_backend(tag, max_len)

    def mem_reg(self, size: int) -> int:
        """Register a memory region; returns an opaque handle.

        Registration cost is folded into the backends' per-transfer costs
        (both real backends cache registrations), so this is bookkeeping.
        """
        return size

    # -- backend interface -------------------------------------------------

    def _tag_reg_backend(self, tag: int, max_len: int) -> None:
        raise NotImplementedError

    def start(self) -> Generator:
        """One-time initialisation run on the communication thread."""
        raise NotImplementedError

    def send_am(self, tag: int, remote: int, data: Any, size: int) -> Generator:
        """Send an active message (blocking-ish: returns when injected)."""
        raise NotImplementedError

    def put(
        self,
        data: Any,
        size: int,
        remote: int,
        l_cb: Optional[OnesidedCallback],
        r_cb_data: Any,
        l_cb_data: Any = None,
    ) -> Generator:
        """Start (or defer) a one-sided put of ``size`` bytes to ``remote``.

        The remote side's TAG_PUT_COMPLETE callback runs with ``r_cb_data``
        and the payload when the data has arrived; ``l_cb`` runs locally
        when the source buffer is reusable.
        """
        raise NotImplementedError

    def progress(self) -> Generator[Any, Any, int]:
        """Poll for completed communications, running their callbacks;
        returns the number processed (0 ⇒ nothing to do)."""
        raise NotImplementedError

    def idle(self) -> bool:
        """True when :meth:`progress` would find nothing and cost nothing.

        A poller may then skip building the progress generator.  The
        default is ``False``: the poll itself costs time (MPI
        ``Testsome``)."""
        return False

    def park(self, proc: Process) -> bool:
        """Register ``proc`` (parked on ``yield PARK``) to be woken when the
        engine may have work; returns ``False`` — without registering — when
        work is already pending, so the caller polls instead of parking."""
        raise NotImplementedError

    def quiescence_report(self) -> dict:
        """Counts of the protocol state this engine holds, by kind.

        Every entry is zero once the engine is drained; a negative count
        means an entry was released twice.
        """
        raise NotImplementedError

    def held_state(self) -> dict:
        """The non-zero entries of :meth:`quiescence_report`.

        Empty exactly when the engine is drained: the one drain predicate
        of abort snapshots and the schedule explorer's quiescence check.
        """
        return {key: n for key, n in self.quiescence_report().items() if n}

    # -- shared helpers ----------------------------------------------------

    def _am_entry(self, tag: int) -> tuple[AmCallback, Any]:
        entry = self._am_tags.get(tag)
        if entry is None:
            raise RuntimeBackendError(f"node {self.node}: unregistered AM tag {tag}")
        return entry

    def am_seq(self, remote: int) -> int:
        """Next AM sequence number toward ``remote`` (per destination)."""
        seq = self._am_next_seq.get(remote, 0)
        self._am_next_seq[remote] = seq + 1
        return seq

    def _run_am_callback(
        self, tag: int, msg: Any, size: int, src: int, seq: Optional[int] = None
    ) -> Iterable:
        """The registered callback's generator for one received AM, or
        ``()`` when ``seq`` marks it a duplicate.  Callers ``yield from``
        the result; returning the callback's own generator saves one
        delegating frame per resume."""
        if seq is not None:
            tracker = self._am_rx.get(src)
            if tracker is None:
                tracker = self._am_rx[src] = SeqTracker()
            if not tracker.accept(seq):
                self._c_am_dup.inc()
                return ()
        cb, cb_data = self._am_entry(tag)
        self.stats["am_recv"] += 1
        if self._obs_on:
            self._c_am_recv.inc()
        return cb(self, tag, msg, size, src, cb_data)
