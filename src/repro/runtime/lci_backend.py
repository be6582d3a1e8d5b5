"""The LCI backend for the PaRSEC communication engine (paper §5.3).

Division of labour (the paper's key design):

- a dedicated **progress thread** (started by :class:`ParsecContext`) drives
  ``LCI_progress``: it drains hardware completions, matches rendezvous
  messages, and runs the lightweight handlers below, which do nothing but
  allocate a callback handle and push it onto a FIFO;
- the **communication thread** consumes the two FIFO queues — up to
  ``lci_am_batch`` (5) active-message handles, then all bulk-data handles,
  looping until both are dry (§5.3.4) — and runs the actual runtime
  callbacks there.  Long ACTIVATE callbacks therefore never block matching.

Other §5.3 behaviours reproduced here:

- active-message tags resolve through a hash table (``CommEngine._am_tags``);
- ``send_am`` uses Immediate or Buffered depending on length — always eager,
  received into dynamically allocated buffers (§5.3.2);
- puts use a *specialized* handshake path that bypasses the AM hash table;
  the handshake's tag encodes the data-transfer tag; sufficiently small data
  rides inside the handshake ("eager put") and the origin's local callback
  runs immediately (§5.3.3);
- a Direct receive that fails with ``LCI_ERR_RETRY`` on the progress thread
  is delegated to the communication thread for retry (§5.3.3).
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, Optional

from repro.config import RuntimeCosts
from repro.errors import RuntimeBackendError
from repro.lci.completion import CompletionRecord
from repro.lci.constants import LCI_ERR_RETRY, LCI_OK
from repro.lci.device import LciDevice
from repro.runtime.comm_engine import (
    BackoffPolicy,
    CommEngine,
    OnesidedCallback,
    TAG_PUT_COMPLETE,
)
from repro.sim.core import Process, Simulator
from repro.sim.primitives import NotifyQueue

__all__ = ["LciBackend"]


class LciBackend(CommEngine):
    """Listing-1 engine implemented over the simulated LCI library."""

    def __init__(
        self,
        sim: Simulator,
        device: LciDevice,
        data_tags: Iterator[int],
        rt_costs: Optional[RuntimeCosts] = None,
        native_put: bool = False,
        backoff: Optional[BackoffPolicy] = None,
    ):
        super().__init__(sim, device.node, data_tags, backoff=backoff)
        self.device = device
        self.rt = rt_costs or RuntimeCosts()
        #: Use LCI's one-sided put with remote completion instead of the
        #: emulated handshake + two-sided transfer — the §7 future-work
        #: feature ("directly implement the PaRSEC put interface").
        self.native_put = native_put
        #: Callback handles for active messages (consumed by comm thread).
        self.am_fifo = NotifyQueue(sim)
        #: Callback handles for bulk-data completions (ditto).
        self.data_fifo = NotifyQueue(sim)
        device.am_handler = self._progress_thread_handler
        device.put_handler = self._native_put_handler
        self._started = False
        #: §5.3.3 back-pressure: comm-thread retries after LCI_ERR_RETRY and
        #: Direct receives delegated from the progress thread.
        self._c_send_retry = self.obs.counter("parsec.lci.send_retries", device.node)
        self._c_recv_delegated = self.obs.counter(
            "parsec.lci.recv_retry_delegated", device.node
        )

    # -- engine interface --------------------------------------------------

    def am_payload_max(self) -> int:
        """AMs are sent eagerly, so the Buffered limit bounds them (§5.3.2:
        "about 12 KiB in the current implementation")."""
        return self.device.costs.buffered_max

    def quiescence_report(self) -> dict:
        """Packets, slots and queue entries the device and engine hold.

        See :meth:`CommEngine.quiescence_report`.  The TX/RX packets and send/recv direct slots in use (pool size
        minus free), the depths of the progress-to-comm FIFOs and of the
        unexpected-RTS queue, and the number of ``(src, tag)`` keys with
        posted direct receives.
        """
        dev = self.device
        packets, slots = dev.costs.packet_pool_size, dev.costs.direct_slots
        return {
            "tx_packets_in_use": packets - dev.tx_packets_free,
            "rx_packets_in_use": packets - dev.rx_packets_free,
            "send_slots_in_use": slots - dev.send_slots_free,
            "recv_slots_in_use": slots - dev.recv_slots_free,
            "am_fifo": len(self.am_fifo),
            "data_fifo": len(self.data_fifo),
            "unexpected_rts": len(dev._unexpected_rts),
            "posted_recvd": len(dev._posted_recvd),
        }

    def _tag_reg_backend(self, tag: int, max_len: int) -> None:
        # Registration "simply inserts the relevant entry into the table"
        # (§5.3.2) — the table is CommEngine._am_tags.
        if max_len > self.am_payload_max():
            raise RuntimeBackendError(
                f"AM tag {tag}: max_len {max_len} exceeds the eager limit "
                f"{self.am_payload_max()}"
            )

    def start(self) -> Generator:
        """One-time initialisation (nothing to pre-post for LCI)."""
        if self._started:
            raise RuntimeBackendError("engine started twice")
        self._started = True
        return
        yield  # pragma: no cover - makes this a generator

    def send_am(self, tag: int, remote: int, data: Any, size: int) -> Generator:
        """Immediate or Buffered depending on length; always eager (§5.3.2).

        Retries on back-pressure (legal here: this runs on the comm thread
        or a worker thread, never on the progress thread).
        """
        self._am_entry(tag)
        self.stats["am_sent"] += 1
        if self._obs_on:
            self._c_am_sent.inc()
        # User AMs ride as a plain ``(tag, data, seq)`` tuple; put
        # handshakes (the only other LCI AM payload) are dicts.
        payload = (tag, data, self.am_seq(remote))
        if size <= self.device.costs.immediate_max:
            yield from self.device.sendi(remote, tag, size, payload)
        else:
            attempt = 0
            while True:
                status = yield from self.device.sendb(remote, tag, size, payload)
                if status == LCI_OK:
                    break
                attempt += 1
                if self._obs_on:
                    self._c_send_retry.inc()
                yield self.backoff.delay(attempt)

    def put(
        self,
        data: Any,
        size: int,
        remote: int,
        l_cb: Optional[OnesidedCallback],
        r_cb_data: Any,
        l_cb_data: Any = None,
    ) -> Generator:
        """Specialized handshake (+ eager payload for small data) and a
        Direct transfer otherwise (§5.3.3)."""
        data_tag = next(self._data_tags)
        self.stats["puts_started"] += 1
        self.stats["bytes_put"] += size
        if self._obs_on:
            self._c_puts.inc()
            self._h_put_bytes.observe(size)
        if self.native_put:
            # One-sided: no handshake, no posted receive, no matching.
            attempt = 0
            while True:
                status = yield from self.device.putd(
                    remote,
                    data_tag,
                    size,
                    data,
                    comp=self._direct_completion,
                    user_ctx=("send_done", l_cb, l_cb_data),
                    remote_meta=r_cb_data,
                )
                if status == LCI_OK:
                    return
                attempt += 1
                if self._obs_on:
                    self._c_send_retry.inc()
                yield self.backoff.delay(attempt)
        eager = size <= self.rt.lci_eager_put_max
        hs_payload = {
            "kind": "put_hs",
            "data_tag": data_tag,
            "size": size,
            "r_cb_data": r_cb_data,
            "eager": data if eager else None,
        }
        hs_size = self.rt.handshake_bytes + (size if eager else 0)
        attempt = 0
        while True:
            status = yield from self.device.sendb(remote, data_tag, hs_size, hs_payload)
            if status == LCI_OK:
                break
            attempt += 1
            if self._obs_on:
                self._c_send_retry.inc()
            yield self.backoff.delay(attempt)
        if eager:
            # No separate data communication; local completion is immediate.
            if l_cb is not None:
                yield from l_cb(self, l_cb_data)
        else:
            attempt = 0
            while True:
                status = yield from self.device.sendd(
                    remote,
                    data_tag,
                    size,
                    data,
                    comp=self._direct_completion,
                    user_ctx=("send_done", l_cb, l_cb_data),
                )
                if status == LCI_OK:
                    break
                attempt += 1
                if self._obs_on:
                    self._c_send_retry.inc()
                yield self.backoff.delay(attempt)

    def progress(self) -> Generator[Any, Any, int]:
        """Comm-thread side: drain the completion FIFOs with the fairness
        policy of §5.3.4 (≤5 AM handles, then all data handles, loop)."""
        total = 0
        handle_cost = self.device.costs.cq_pop + self.rt.callback_exec
        am_batch = range(self.rt.lci_am_batch)
        am_pop = self.am_fifo.try_pop
        data_pop = self.data_fifo.try_pop
        while True:
            n = 0
            for _ in am_batch:
                ok, handle = am_pop()
                if not ok:
                    break
                yield handle_cost
                tag, data, size, src, seq = handle
                yield from self._run_am_callback(tag, data, size, src, seq)
                n += 1
            stalled_retry = False
            while True:
                ok, item = data_pop()
                if not ok:
                    break
                yield handle_cost
                kind = item[0]
                if kind == "r_data":
                    yield from self._deliver_put(item[1], item[2], item[3], item[4])
                elif kind == "l_comp":
                    _, l_cb, l_cb_data = item
                    if l_cb is not None:
                        yield from l_cb(self, l_cb_data)
                elif kind == "post_recv_retry":
                    _, src, data_tag, size, r_cb_data = item
                    status = yield from self.device.recvd(
                        src, data_tag, size,
                        comp=self._direct_completion,
                        user_ctx=("recv_done", r_cb_data),
                    )
                    if status == LCI_ERR_RETRY:
                        # Still no slot: requeue and stop hammering; a future
                        # completion will free slots and wake us.
                        self.data_fifo.push(item)
                        stalled_retry = True
                        break
                else:  # pragma: no cover - defensive
                    raise RuntimeBackendError(f"unknown data handle {kind!r}")
                n += 1
            if n == 0 or stalled_retry:
                total += n
                break
            total += n
        return total

    def idle(self) -> bool:
        """Both FIFOs empty: :meth:`progress` would find nothing."""
        return not (self.am_fifo._items or self.data_fifo._items)

    def park(self, proc: Process) -> bool:
        """Park on both FIFOs; ``False`` when either already has handles.

        A push to either FIFO wakes the process (``wake`` is idempotent, so
        double registration is safe), and :meth:`NotifyQueue.park`'s dedup
        keeps each waiter list at one slot per parked thread.
        """
        if len(self.am_fifo) or len(self.data_fifo):
            return False
        self.am_fifo.park(proc)
        self.data_fifo.park(proc)
        return True

    # -- progress-thread side (lightweight handlers) -------------------------

    def _progress_thread_handler(self, record: CompletionRecord) -> Generator:
        """Runs inside LCI_progress on the progress thread: allocate a
        callback handle and push it to the right FIFO (§5.3.2/5.3.3)."""
        p = record.payload
        if type(p) is tuple:  # user AM: (tag, data, seq)
            tag, data, seq = p
            self.am_fifo.push((tag, data, record.size, record.peer, seq))
            self.device.free_rx_packet()
            return
        if p["kind"] != "put_hs":  # pragma: no cover - defensive
            raise RuntimeBackendError(f"unexpected AM payload {p['kind']!r}")
        # Specialized put-handshake path (bypasses the AM hash table).
        if p["eager"] is not None:
            self.data_fifo.push(("r_data", p["r_cb_data"], p["eager"], p["size"], record.peer))
            self.device.free_rx_packet()
            return
        self.device.free_rx_packet()
        return self._start_direct_recv(record.peer, p["data_tag"], p["size"], p["r_cb_data"])

    def _start_direct_recv(self, src: int, data_tag: int, size: int, r_cb_data) -> Generator:
        status = yield from self.device.recvd(
            src, data_tag, size,
            comp=self._direct_completion,
            user_ctx=("recv_done", r_cb_data),
        )
        if status == LCI_ERR_RETRY:
            # Cannot retry or progress recursively on the progress thread —
            # delegate to the communication thread (§5.3.3).
            self._c_recv_delegated.inc()
            self.data_fifo.push(("post_recv_retry", src, data_tag, size, r_cb_data))

    def _native_put_handler(self, record: CompletionRecord) -> None:
        """Remote side of a one-sided put: hand the completion (with the
        r_cb_data that rode in the notification) to the comm thread."""
        self.data_fifo.push(
            ("r_data", record.user_ctx, record.payload, record.size, record.peer)
        )

    def _direct_completion(self, record: CompletionRecord) -> None:
        """Completion handler for Direct ops, invoked by LCI progress."""
        ctx = record.user_ctx
        if ctx[0] == "send_done":
            self.data_fifo.push(("l_comp", ctx[1], ctx[2]))
        else:  # recv_done
            self.data_fifo.push(("r_data", ctx[1], record.payload, record.size, record.peer))

    # -- shared ----------------------------------------------------------------

    def _deliver_put(self, r_cb_data: Any, data: Any, size: int, src: int) -> Generator:
        """The TAG_PUT_COMPLETE callback's generator for one arrived put
        (returned, not delegated to, so each resume skips a frame)."""
        self.stats["puts_completed"] += 1
        cb, cb_data = self._am_entry(TAG_PUT_COMPLETE)
        return cb(
            self,
            TAG_PUT_COMPLETE,
            {"r_cb_data": r_cb_data, "data": data},
            size,
            src,
            cb_data,
        )
