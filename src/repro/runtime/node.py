"""Per-node runtime: workers, scheduler, and the communication thread.

Implements the execution semantics of §4.1/§4.3 and Fig. 1:

- worker threads pop ready tasks from a priority scheduler and execute them;
- on completion, each output dataflow is released: local consumers are
  satisfied directly; remote consumer nodes are organised into a binomial
  **multicast tree** and ACTIVATE messages are sent to the tree children
  (by the communication thread, aggregated per destination — or directly by
  the worker when communication multithreading is enabled, §6.4.3);
- an ACTIVATE callback evaluates successor priorities and enqueues GET DATA
  requests, which the comm thread sends in priority order (deferred
  GET DATA queue, §4.3);
- a GET DATA callback starts a put of the flow's data back to the
  requester (the backend may defer it);
- when put data arrives, the flow becomes available: local consumers'
  dependence counts drop, newly ready tasks enter the scheduler, and the
  ACTIVATE/GET/put cascade continues down the multicast tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import RuntimeBackendError
from repro.runtime.comm_engine import TAG_ACTIVATE, TAG_GETDATA, TAG_PUT_COMPLETE
from repro.runtime.scheduler import make_scheduler
from repro.runtime.taskpool import TaskGraph
from repro.sim.core import Interrupt, PARK
from repro.sim.primitives import NotifyQueue, PriorityStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import ParsecContext

__all__ = ["NodeRuntime", "binomial_tree", "build_flow_plan"]


def binomial_tree(nodes: list[int]) -> tuple:
    """Binomial broadcast tree over ``nodes`` (``nodes[0]`` is the root).

    Returns a nested spec ``(node, (child_spec, ...))``.  A binomial tree
    completes a broadcast in ⌈log₂ n⌉ rounds, which is what PaRSEC's
    dataflow multicast uses.
    """
    if not nodes:
        raise RuntimeBackendError("empty multicast tree")

    def subtree(lo: int, hi: int) -> tuple:
        children = []
        span = 1
        while lo + span < hi:
            children.append(subtree(lo + span, min(lo + 2 * span, hi)))
            span *= 2
        return (nodes[lo], tuple(children))

    return subtree(0, len(nodes))


class _FlowPlan:
    """Release plan of one flow, shared by every node of a context.

    Derived once from the flow's consumer list: the consumers grouped by
    node (consumer order kept), the producer's multicast children, the
    highest consumer priority and the payload size.  ``pending`` counts
    the releases still to come — the producer plus every remote consumer
    node — and the plan is dropped when it reaches zero.
    """

    __slots__ = ("by_node", "children", "prio", "size", "pending")

    def __init__(self, by_node, children, prio, size, pending):
        self.by_node = by_node
        self.children = children
        self.prio = prio
        self.size = size
        self.pending = pending


def build_flow_plan(graph: TaskGraph, fid: int, root: int) -> _FlowPlan:
    """Release plan of flow ``fid``, multicast tree rooted at ``root``."""
    t_node = graph._t_node
    t_prio = graph._t_prio
    by_node: dict[int, list[int]] = {}
    prio = None
    for tid in graph.consumers_of(fid):
        node = t_node[tid]
        local = by_node.get(node)
        if local is None:
            by_node[node] = [tid]
        else:
            local.append(tid)
        # Same selection rule as max(): keep the first of equal maxima.
        p = t_prio[tid]
        if prio is None or p > prio:
            prio = p
    remote = sorted(node for node in by_node if node != root)
    children = binomial_tree([root] + remote)[1] if remote else ()
    return _FlowPlan(
        by_node, children, 0.0 if prio is None else prio,
        graph.flow_size(fid), 1 + len(remote),
    )


class _FlowState:
    """Remote-flow bookkeeping at one node (created on ACTIVATE receipt)."""

    __slots__ = ("size", "holder", "priority", "subtree", "root_t", "hop_t", "root")

    def __init__(self, size, holder, priority, subtree, root_t, hop_t, root):
        self.size = size
        self.holder = holder
        self.priority = priority
        self.subtree = subtree
        self.root_t = root_t
        self.hop_t = hop_t
        self.root = root


class NodeRuntime:
    """One node of the simulated AMT runtime."""

    def __init__(self, ctx: "ParsecContext", rank: int):
        self.ctx = ctx
        self.sim = ctx.sim
        self.rank = rank
        self.rt = ctx.platform.runtime
        self.engine = ctx.engines[rank]
        self.sched = None  # created in load() once the worker count is known
        #: Commands from workers to the comm thread: ("activate", dst, ad).
        self.cmd_q = NotifyQueue(self.sim)
        #: Deferred GET DATA queue, highest priority first (§4.3 duty 3).
        self.getdata_q = PriorityStore(self.sim)
        # Dataflow state.  All four maps are reference-counted per flow and
        # emptied as soon as every local consumer and multicast serve has
        # happened, so live protocol state is bounded by in-flight flows,
        # not total flows (paper-scale graphs have ~585k of the latter).
        self.flow_available: set[int] = set()
        self.flow_states: dict[int, _FlowState] = {}
        self.input_remaining: dict[int, int] = {}
        self.serves_remaining: dict[int, int] = {}
        #: Outstanding obligations per available flow: one per multicast
        #: child still to be served (local consumers are satisfied at the
        #: release itself).
        self.flow_refs: dict[int, int] = {}
        #: Release plans of in-flight flows, shared by all nodes of the
        #: context (see :class:`_FlowPlan`).
        self.flow_plans: dict[int, _FlowPlan] = ctx.flow_plans
        #: Flows fully consumed and dropped from the maps above.
        self.flows_retired = 0
        self.cleanups_done = 0
        self.tasks_executed = 0
        self.busy_time = 0.0
        self._workers: list = []
        self._threads: list = []
        # Register the runtime's active messages (§4.1) + put completion.
        self.engine.tag_reg(TAG_ACTIVATE, self._activate_cb, max_len=self.engine.am_payload_max())
        self.engine.tag_reg(TAG_GETDATA, self._getdata_cb, max_len=4096)
        self.engine.tag_reg(TAG_PUT_COMPLETE, self._put_complete_cb, max_len=4096)

    # ------------------------------------------------------------------
    # graph loading
    # ------------------------------------------------------------------

    def load(self, graph: TaskGraph, num_workers: int) -> None:
        """Bind a task graph: build the scheduler, seed source tasks."""
        self.graph = graph.freeze()
        # Column handles for the hot paths (plain arrays: int/float reads).
        self._t_node = graph._t_node
        self._t_dur = graph._t_dur
        self._t_prio = graph._t_prio
        self._f_local = graph._f_local
        self.sched = make_scheduler(
            getattr(self.ctx, "scheduler", "central"), self.sim, num_workers
        )
        prio = self._t_prio
        for tid in graph.task_ids_on(self.rank):
            n_in = graph.input_count(tid)
            self.input_remaining[tid] = n_in
            if not n_in:
                self.sched.push(-prio[tid], tid)

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------

    def start_threads(self, num_workers: int) -> None:
        """Spawn worker, communication, and (LCI) progress threads."""
        # Workers, comm and progress threads all idle via ``yield PARK`` (no
        # per-wait event allocation); each generator learns its own Process
        # through a one-slot holder filled right after spawning.
        for wid in range(num_workers):
            holder: list = []
            proc = self.sim.process(
                self._worker(wid, holder), name=f"n{self.rank}w{wid}"
            )
            holder.append(proc)
            self._workers.append(proc)
        # §7 future work: "multiple communication or progress threads to
        # further reduce communication latency in highly-loaded scenarios".
        # Only the first comm thread runs the one-time engine start.  The
        # run-wide stop event wakes parked comm/progress threads so they
        # can observe the stop flag.
        for ci in range(getattr(self.ctx, "num_comm_threads", 1)):
            holder = []
            proc = self.sim.process(
                self._comm_thread(holder, run_start=ci == 0),
                name=f"n{self.rank}comm{ci}",
            )
            holder.append(proc)
            self.ctx.stop_event.add_callback(lambda _evt, p=proc: p.wake())
            self._threads.append(proc)
        if self.ctx.has_progress_thread:
            for pi in range(getattr(self.ctx, "num_progress_threads", 1)):
                holder = []
                proc = self.sim.process(
                    self._progress_thread(holder), name=f"n{self.rank}prog{pi}"
                )
                holder.append(proc)
                self.ctx.stop_event.add_callback(lambda _evt, p=proc: p.wake())
                self._threads.append(proc)

    def stop_threads(self) -> None:
        """Interrupt every thread (end of run)."""
        for proc in self._workers + self._threads:
            proc.interrupt("shutdown")

    # ------------------------------------------------------------------
    # worker threads
    # ------------------------------------------------------------------

    def _worker(self, wid: int, me: list) -> Generator:
        rt = self.rt
        obs = self.ctx.obs
        faults = self.ctx.faults
        durations = self._t_dur
        try:
            while True:
                tid: int = yield from self.sched.pop(wid, me)
                start = self.sim.now
                yield rt.sched_op + rt.task_spawn
                duration = durations[tid]
                if duration > 0:
                    if faults.enabled:
                        # Straggler injection stretches this node's compute.
                        yield duration * faults.compute_scale(self.rank)
                    else:
                        yield duration
                self.busy_time += self.sim.now - start
                if obs.enabled:
                    obs.emit(
                        "task_exec",
                        self.rank,
                        key=(self.rank, wid),
                        info=(self.graph.task_kind(tid), self.sim.now - start),
                        time=start,
                    )
                yield from self._complete_task(tid, wid)
        except Interrupt:
            return

    def _complete_task(self, tid: int, wid: Optional[int] = None) -> Generator:
        self.tasks_executed += 1
        # The hook's contract passes a spec view (wrappers read .kind etc.);
        # views are two-slot proxies, so this stays allocation-cheap.
        self.ctx.on_task_done(self.graph.tasks[tid])
        f_local = self._f_local
        for fid in self.graph.outputs_of(tid):
            yield self.rt.sched_op
            if f_local[fid]:
                # Every consumer is here: the plan path's outcome without
                # the plan — no multicast children, a single release, and
                # no _FlowState (no ACTIVATE is ever sent for the flow).
                self._satisfy_local(self.graph.consumers_of(fid), wid)
                self.flows_retired += 1
            else:
                yield from self._release_flow(fid, initial=True, origin=wid)

    def _satisfy_local(self, tids, origin: Optional[int]) -> None:
        """Drop the dependence count of local consumers ``tids``; push the
        ones that become ready (to the originating worker's queue when the
        work-stealing scheduler is active — data affinity)."""
        remaining_in = self.input_remaining
        push = self.sched.push
        t_prio = self._t_prio
        for tid in tids:
            remaining = remaining_in[tid] - 1
            remaining_in[tid] = remaining
            if remaining == 0:
                push(-t_prio[tid], tid, origin)
            elif remaining < 0:
                raise RuntimeBackendError(
                    f"task {tid}: dependence count went negative"
                )

    def _release_flow(
        self, fid: int, initial: bool, origin: Optional[int] = None
    ) -> Generator:
        """Data for ``fid`` is now available here: satisfy local consumers
        and activate the multicast subtree.

        Local consumers are satisfied at once; the flow then stays
        available with one reference per multicast child to serve, and
        every map entry for it is dropped the moment the count drains, so
        a node's live protocol state scales with in-flight flows only.

        The consumer scan behind a release is done once per flow: the
        first release builds a :class:`_FlowPlan` that the other releasing
        nodes (the multicast subtree) reuse, and the last one drops it."""
        rank = self.rank
        plans = self.flow_plans
        plan = plans.get(fid)
        if plan is None:
            root = rank if initial else self._t_node[self.graph.flow_producer(fid)]
            plan = build_flow_plan(self.graph, fid, root)
            # A flow without remote consumers is released exactly once.
            if plan.pending > 1:
                plans[fid] = plan
                plan.pending -= 1
        else:
            plan.pending -= 1
            if not plan.pending:
                del plans[fid]
        if initial:
            state = None
            children = plan.children
        else:
            state = self.flow_states.get(fid)
            children = state.subtree[1] if state is not None else ()
        local = plan.by_node.get(rank, ())
        if children:
            self.flow_available.add(fid)
            # One reference per multicast child (the local consumers below
            # are satisfied before this method yields).
            self.flow_refs[fid] = len(children)
        if local:
            self._satisfy_local(local, origin)
        if not children:
            # Nothing at this node will ever read the flow again.
            self.flow_states.pop(fid, None)
            self.flows_retired += 1
            return
        self.serves_remaining[fid] = len(children)
        prio = plan.prio
        flow_size = plan.size
        obs = self.ctx.obs
        for child in children:
            # Latency stamps are taken when the activation is handed to the
            # communication layer ("send of the ACTIVATE message following
            # task completion", §6.4.2) — comm-thread queueing and
            # aggregation delay count toward the measured latency, which is
            # exactly what multithreaded ACTIVATE sending eliminates.
            now = self.sim.now
            if state is None:
                ad = (fid, flow_size, rank, child, prio, rank, now, now)
            else:
                ad = (fid, flow_size, rank, child, prio, state.root, state.root_t, now)
            if obs.enabled:
                obs.emit("activate_handoff", rank, key=(fid, child[0]), time=now)
            yield from self._emit_activate(child[0], ad)

    def _emit_activate(self, dst: int, ad: tuple) -> Generator:
        if self.ctx.multithreaded_activate:
            # Workers send their own ACTIVATEs (§6.4.3): no aggregation,
            # possible library contention, but no comm-thread queueing delay.
            yield self.rt.activate_pack_per_flow
            size = 64 + self.rt.activate_bytes_per_flow
            yield from self.engine.send_am(TAG_ACTIVATE, dst, [ad], size)
            self.ctx.stats_activates += 1
        else:
            self.cmd_q.push(("activate", dst, ad))

    def _unref_flow(self, fid: int) -> None:
        """Drop one obligation on ``fid``; retire all its state at zero."""
        refs = self.flow_refs.get(fid)
        if refs is None:
            return
        refs -= 1
        if refs:
            self.flow_refs[fid] = refs
        else:
            del self.flow_refs[fid]
            self.flow_available.discard(fid)
            self.flow_states.pop(fid, None)
            self.flows_retired += 1

    def quiescence_report(self) -> dict:
        """Depths of the per-flow protocol maps (all zero after a fully
        drained run) plus the running retire counter.

        ``flow_plans`` counts the live release plans of the whole context
        (they are shared, so every node reports the same number)."""
        return {
            "flow_available": len(self.flow_available),
            "flow_refs": len(self.flow_refs),
            "flow_states": len(self.flow_states),
            "serves_remaining": len(self.serves_remaining),
            "getdata_q": len(self.getdata_q),
            "flow_plans": len(self.flow_plans),
            "flows_retired": self.flows_retired,
        }

    # ------------------------------------------------------------------
    # communication thread (§4.3)
    # ------------------------------------------------------------------

    def _comm_thread(self, me: list, run_start: bool = True) -> Generator:
        engine = self.engine
        rt = self.rt
        max_batch = max(
            1, (engine.am_payload_max() - 64) // rt.activate_bytes_per_flow
        )
        try:
            if run_start:
                yield from engine.start()
            while True:
                worked = 0
                # (1) Aggregate ACTIVATE commands per destination.
                by_dst: dict[int, list[tuple]] = {}
                while True:
                    ok, cmd = self.cmd_q.try_pop()
                    if not ok:
                        break
                    _kind, dst, ad = cmd
                    by_dst.setdefault(dst, []).append(ad)
                for dst, ads in by_dst.items():
                    for i in range(0, len(ads), max_batch):
                        batch = ads[i : i + max_batch]
                        yield rt.activate_pack_per_flow * len(batch)
                        size = 64 + rt.activate_bytes_per_flow * len(batch)
                        yield from engine.send_am(TAG_ACTIVATE, dst, batch, size)
                        self.ctx.stats_activates += 1
                        if len(batch) > 1:
                            self.ctx.stats_aggregated += len(batch) - 1
                        worked += 1
                # (2) Poll the engine progress function (an idle LCI
                # engine would return 0 without yielding: skip the call).
                if not engine.idle():
                    worked += yield from engine.progress()
                # (3) Send deferred GET DATA messages in priority order.
                while True:
                    ok, item = self.getdata_q.try_get()
                    if not ok:
                        break
                    fid, holder = item
                    yield from engine.send_am(
                        TAG_GETDATA, holder, fid, rt.getdata_bytes
                    )
                    worked += 1
                # (4) Deferred puts are promoted inside engine.progress().
                if worked == 0:
                    if self.ctx.stopped:
                        return
                    # Idle: park until a command arrives, the engine has
                    # work, or the stop event wakes us.  Both park()
                    # registrations are kept (deduplicated) across cycles;
                    # spurious wakes just re-run the drain loop above.
                    proc = me[0]
                    if self.cmd_q.park(proc) and engine.park(proc):
                        yield PARK
                    if self.ctx.stopped:
                        return
        except Interrupt:
            return

    def _progress_thread(self, me: list) -> Generator:
        """LCI progress thread (§5.3.1): drives LCI_progress exclusively."""
        device = self.engine.device
        # The device's three progress queues (never rebound): a pass that
        # finds all of them empty returns 0 without yielding, so the
        # generator is only built when one holds work.
        hw, proto, rx_am = device._hw, device._rx_proto, device._rx_am
        try:
            while True:
                n = (yield from device.progress()) if hw or proto or rx_am else 0
                if n == 0:
                    if self.ctx.stopped:
                        return
                    if device.park(me[0]):
                        yield PARK
                    if self.ctx.stopped:
                        return
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # active-message callbacks (run on the comm thread via the engine)
    # ------------------------------------------------------------------

    def _activate_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Unpack aggregated activations, walk local descendants, enqueue
        GET DATA requests (the "long callback" of §4.3).

        Each descriptor is ``(flow, size, holder, subtree, prio, root,
        root_t, hop_t)``."""
        unpack = self.rt.activate_unpack_per_flow
        obs = self.ctx.obs
        flow_states = self.flow_states
        for fid, fsize, holder, sub, prio, root, root_t, hop_t in msg:
            yield unpack
            if obs.enabled:
                obs.emit("activate_cb", self.rank, key=(fid, self.rank))
            flow_states[fid] = _FlowState(
                fsize, holder, prio, sub, root_t, hop_t, root
            )
            # Priority decides when the GET DATA goes out (§4.1); the comm
            # thread drains this queue highest-priority-first.
            self.getdata_q.try_put((-prio, (fid, holder)))
        self.ctx.stats_activate_flows += len(msg)

    def _getdata_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Serve a GET DATA (``msg`` is the flow id): put the flow's data
        back to the requester."""
        yield self.rt.getdata_handle
        fid = msg
        if self.ctx.obs.enabled:
            self.ctx.obs.emit("getdata_cb", self.rank, key=(fid, src))
        if fid not in self.flow_available:
            raise RuntimeBackendError(
                f"node {self.rank}: GET DATA for flow {fid} before data ready"
            )
        yield from engine.put(
            data=("flowdata", fid),
            size=self.graph.flow_size(fid),
            remote=src,
            l_cb=self._put_local_cb,
            r_cb_data=fid,
            l_cb_data=fid,
        )

    def _put_local_cb(self, engine, fid) -> Generator:
        """Origin-side put completion: cleanup bookkeeping (Fig. 1).

        Each completed serve releases one reference on the flow, so a
        fully-served, fully-consumed flow vanishes from every map here."""
        remaining = self.serves_remaining.get(fid)
        if remaining is not None:
            remaining -= 1
            if remaining == 0:
                del self.serves_remaining[fid]
                self.cleanups_done += 1
            else:
                self.serves_remaining[fid] = remaining
            self._unref_flow(fid)
        return
        yield  # pragma: no cover - generator shape

    def _put_complete_cb(self, engine, tag, msg, size, src, cb_data) -> Generator:
        """Target-side put completion: data arrived for a flow."""
        yield self.rt.callback_exec
        fid = msg["r_cb_data"]
        state = self.flow_states.get(fid)
        if state is None:
            raise RuntimeBackendError(
                f"node {self.rank}: put completion for unknown flow {fid}"
            )
        now = self.sim.now
        if self.ctx.obs.enabled:
            self.ctx.obs.emit("data_arrival", self.rank, key=(fid, self.rank), time=now)
        if state.root_t is not None:
            self.ctx.record_flow_latency(fid, self.rank, state.root, now - state.root_t)
        if state.hop_t is not None:
            self.ctx.record_msg_latency(now - state.hop_t)
        yield from self._release_flow(fid, initial=False)
