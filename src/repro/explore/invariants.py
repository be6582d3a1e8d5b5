"""Protocol invariants checked after every explored schedule.

Four families, mirroring the correctness argument of the modelled runtime:

- **Deadlock** — the run must complete: a simulation that goes quiet (or
  hits its time horizon) with unfinished tasks is flagged.  Detected from
  the runtime's own ``run did not complete`` error.
- **Protocol errors** — any backend/runtime exception (dependence count
  going negative, a GET DATA for a flow whose data is not ready, a dead
  simulated thread) is a violation of the activation/transfer protocol.
- **Quiescence** — after a drained run no protocol state may linger:
  LCI packet/slot pools back to full (and never negative — a leak or
  double-free otherwise), no unexpected rendezvous headers, no deferred
  MPI transfers or announced-but-unserved RMA windows, empty deferred-GET
  queues, no live flow release plans, and zero in-flight
  reliable-transport sends.
- **MPI matching soundness** — via the :class:`~repro.mpi.matching.
  MatchEngine` audit hook: every match pairs a compatible (src, tag)
  recv/envelope, nothing is matched twice or without being offered, and —
  when the world does not allow overtaking — matches are FIFO per
  (src, tag).

Result invariance (same outputs on every schedule) is checked by the
explorer itself, by comparing :func:`result_digest` across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.matching import _compatible

__all__ = [
    "Violation",
    "MatchAuditor",
    "check_quiescence",
    "result_digest",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: a short machine-sortable kind plus detail."""

    kind: str
    detail: str

    def to_list(self) -> list:
        """JSON-plain ``[kind, detail]`` pair (schedule.json encoding)."""
        return [self.kind, self.detail]


class MatchAuditor:
    """Matching-soundness monitor over every rank's :class:`MatchEngine`.

    :meth:`install` hooks the audit callback on each rank of an MPI-backend
    context (a no-op on LCI, which has no two-sided matching); violations
    accumulate in :attr:`violations` as the run executes.
    """

    def __init__(self):
        self.violations: list = []
        self._installed = False

    def install(self, ctx) -> None:
        """Attach to every match engine of ``ctx`` (MPI backend only)."""
        if getattr(ctx, "backend", None) != "mpi":
            return
        world = ctx.mpi_world
        fifo_required = not world.allow_overtaking
        for rank in world.ranks:
            rank.match.audit = _RankAudit(
                rank.rank, fifo_required, self.violations
            )
        self._installed = True


class _RankAudit:
    """Per-rank audit callback: mirrors both match queues independently."""

    def __init__(self, rank: int, fifo_required: bool, violations: list):
        self.rank = rank
        self.fifo_required = fifo_required
        self.violations = violations
        self._posted: list = []
        self._unexpected: list = []

    def _flag(self, detail: str) -> None:
        self.violations.append(
            Violation("matching", f"rank {self.rank}: {detail}")
        )

    def __call__(self, op: str, recv, env) -> None:
        if op == "post":
            if env is None:
                self._posted.append(recv)
                return
            self._check_pair(recv, env)
            self._take(self._unexpected, env, recv, "envelope")
        elif op == "arrive":
            if recv is None:
                self._unexpected.append(env)
                return
            self._check_pair(recv, env)
            self._take(self._posted, recv, env, "receive")
        elif op == "cancel":
            try:
                self._posted.remove(recv)
            except ValueError:
                self._flag("cancel of a receive that was never posted")

    def _check_pair(self, recv, env) -> None:
        if not _compatible(recv, env.src, env.tag):
            self._flag(
                f"matched recv(src={recv.src}, tag={recv.tag}) with "
                f"incompatible envelope(src={env.src}, tag={env.tag})"
            )

    def _take(self, mirror: list, item, partner, label: str) -> None:
        """Remove a matched item from its mirror queue, checking FIFO.

        An item absent from the mirror was either matched twice or matched
        without ever being offered — both break the ≤1-match rule.
        """
        for i, cand in enumerate(mirror):
            if cand is item:
                if i > 0 and self.fifo_required and self._overtook(
                    mirror[:i], item, partner, label
                ):
                    self._flag(
                        f"non-FIFO match: {label} overtook an earlier "
                        f"compatible entry (src={env_src(partner)})"
                    )
                del mirror[i]
                return
        self._flag(f"{label} matched twice or without being queued")

    def _overtook(self, earlier: list, item, partner, label: str) -> bool:
        for cand in earlier:
            if label == "envelope":
                if _compatible(partner, cand.src, cand.tag):
                    return True
            else:
                if _compatible(cand, partner.src, partner.tag):
                    return True
        return False


def env_src(obj) -> object:
    """The ``src`` attribute of a recv/envelope, for error messages."""
    return getattr(obj, "src", "?")


def check_quiescence(ctx) -> list:
    """Invariant: a completed run leaves no protocol state behind.

    Reads each backend's ``quiescence_report()``, every node's deferred-GET
    queue, the live flow release plans, and the reliable transport's
    in-flight table; returns a list of
    :class:`Violation` (empty when clean).  Only meaningful after a run
    that completed without raising — an aborted run legitimately strands
    queue contents.
    """
    violations = []

    def flag(kind: str, detail: str) -> None:
        violations.append(Violation(kind, detail))

    for i, engine in enumerate(ctx.engines):
        report = engine.quiescence_report()
        if ctx.backend == "lci":
            for free_key, size_key in (
                ("tx_packets_free", "packet_pool_size"),
                ("rx_packets_free", "packet_pool_size"),
                ("send_slots_free", "direct_slots"),
                ("recv_slots_free", "direct_slots"),
            ):
                free, size = report[free_key], report[size_key]
                if free < 0:
                    flag("quiescence",
                         f"node {i}: {free_key} negative ({free}) — double free")
                elif free > size:
                    flag("quiescence",
                         f"node {i}: {free_key} over pool size ({free}>{size})")
                elif free < size:
                    flag("quiescence",
                         f"node {i}: {free_key} leaked {size - free} entries")
            if report["unexpected_rts"]:
                flag("quiescence",
                     f"node {i}: {report['unexpected_rts']} unexpected RTS left")
        else:
            if report["deferred"]:
                flag("quiescence",
                     f"node {i}: {report['deferred']} deferred transfers left")
            if report["rma_pending"]:
                flag("quiescence",
                     f"node {i}: {report['rma_pending']} unserved RMA windows")
    for node in ctx.nodes:
        depth = len(node.getdata_q)
        if depth:
            flag("quiescence",
                 f"node {node.rank}: deferred-GET queue holds {depth} entries")
        # Note: the node's ref-counted flow maps (node.quiescence_report())
        # are deliberately NOT checked here.  The run stops at the instant
        # the last task completes, which can legitimately strand a trailing
        # put-completion callback on the origin of the final flow; the leak
        # tests assert full drainage on runs whose shape guarantees it.
    # Release plans, by contrast, must all be retired: every releasing
    # node releases a flow before any of its consumers there can run.
    # The plans are shared, so one node's report covers the context.
    if ctx.nodes:
        live = ctx.nodes[0].quiescence_report()["flow_plans"]
        if live:
            flag("quiescence", f"{live} flow release plans never retired")
    rel = ctx.fabric._rel
    if rel is not None and rel.inflight_count:
        flag("quiescence",
             f"{rel.inflight_count} reliable-transport sends still in flight")
    return violations


def result_digest(result) -> dict:
    """Schedule-invariant fingerprint of a benchmark result.

    Only fields every legal interleaving must agree on: the number of
    tasks executed and the number of end-to-end flow samples.  Timing
    outputs (makespan, bandwidth) legitimately vary with the schedule —
    queue-depth-dependent costs and activation batching are part of the
    model — and are deliberately excluded.
    """
    return {
        "tasks": result.tasks,
        "flow_samples": result.flow_latency.get("count", 0),
    }
