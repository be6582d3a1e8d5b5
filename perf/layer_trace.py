"""Outside-in per-layer host-time tracer for the benchmark's traced pass.

Nothing under ``src/`` knows about this module.  :func:`install` wraps the
simulator's public layer entry points from outside, by patching class
attributes, and records spans into a :class:`LayerTracer`:

- ``Simulator.run`` is one ``sim`` span.  ``Simulator.process`` wraps
  each process generator in a :class:`_TimedGen`, so every resume of a
  simulated thread is one span, charged to the thread's layer.
  ``Simulator.at_epoch_end``, ``call_soon``, ``call_later`` and
  ``call_at`` wrap the callbacks they schedule, so a delivery handler
  that the kernel fires is charged to the layer that defined it, not to
  the kernel;
- every public method of every class defined in ``repro.network``,
  ``repro.mpi``, ``repro.lci`` and ``repro.runtime`` is one span.  The
  classes are found by introspection, so a renamed method stays covered.
  A method that returns a generator (the libraries' ``yield from`` API)
  has each resume of that generator timed as a further span;
- ``ParsecContext.__init__`` is timed on its own, so set-up splits into
  graph build (everything before it) and context construction.

A layer's self time is the duration of its spans minus the part covered by
the spans nested inside them.  Outcome counts (how many ``progress()``
calls found work, how many sends came back ``LCI_ERR_RETRY``) are read
from return values at the same boundaries.  Everything is kept in memory;
:meth:`LayerTracer.metrics` reduces one traced repetition to numbers.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType, GeneratorType

__all__ = ["LayerTracer", "install", "LAYER_PACKAGES"]

#: Packages whose classes' public methods are traced.
LAYER_PACKAGES = ("repro.network", "repro.mpi", "repro.lci", "repro.runtime")

#: ``repro.runtime`` modules split into sub-layers; other runtime modules
#: are charged to ``runtime.other``.
_RUNTIME_SUBLAYERS = {
    "scheduler": "runtime.sched",
    "comm_engine": "runtime.engine",
    "lci_backend": "runtime.engine",
    "mpi_backend": "runtime.engine",
    "node": "runtime.node",
    "context": "runtime.context",
    "taskpool": "runtime.graph",
}

#: Simulated threads of ``NodeRuntime``, told apart by generator name.
_NODE_THREADS = (
    ("worker", "runtime.worker"),
    ("comm", "runtime.comm_thread"),
    ("progress", "runtime.progress_thread"),
)


def layer_of_module(module: str) -> str:
    """Layer name that code defined in ``module`` is charged to."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "runtime":
        return _RUNTIME_SUBLAYERS.get(parts[2] if len(parts) > 2 else "", "runtime.other")
    if parts[1] in ("sim", "network", "mpi", "lci"):
        return parts[1]
    return "other"


def _layer_of_generator(gen) -> str:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return "other"
    layer = layer_of_module(frame.f_globals.get("__name__", ""))
    if layer == "runtime.node":
        name = gen.gi_code.co_name
        for key, thread_layer in _NODE_THREADS:
            if key in name:
                return thread_layer
    return layer


def _layer_of_callable(fn) -> str:
    fn = getattr(fn, "__func__", fn)
    return layer_of_module(getattr(fn, "__module__", None) or "")


class LayerTracer:
    """In-memory span and count store for one traced repetition."""

    def __init__(self) -> None:
        self.on = False
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (start of a repetition)."""
        #: Child-time accumulators of the open spans; ``stack[0]`` collects
        #: the total duration of top-level spans.
        self.stack = [0.0]
        self.self_s: defaultdict = defaultdict(float)
        #: Wrapped-method calls per layer, and per ``layer.method``.
        self.calls: Counter = Counter()
        self.method_calls: Counter = Counter()
        #: Generator resumes of simulated threads, per layer.
        self.resumes: Counter = Counter()
        #: Outcome counts read from return values (see ``_HOOKS``).
        self.counts: Counter = Counter()
        self.ctx_init_start = 0.0
        self.ctx_init_s = 0.0
        self.graph_tasks = 0
        self.graph_flows = 0

    def metrics(self, traced_run_s: float) -> dict:
        """Per-layer metrics of the repetition just traced."""
        s, c, m, k, r = self.self_s, self.calls, self.method_calls, self.counts, self.resumes

        def ratio(a, b):
            return a / b if b else 0.0

        sends = k["network.wire_sends"]
        return {
            "sim.self_s": s["sim"],
            "sim.resumes": sum(r.values()),
            "network.self_s": s["network"],
            "network.calls": c["network"],
            "network.wire_sends": sends,
            "network.wire_bytes": k["network.wire_bytes"],
            "network.sends_per_flush": ratio(sends, k["network.flushes"]),
            "mpi.self_s": s["mpi"],
            "mpi.calls": c["mpi"],
            "mpi.testsome_calls": m["mpi.testsome"],
            "mpi.testsome_scan_per_call": ratio(k["mpi.testsome_scanned"], m["mpi.testsome"]),
            "mpi.testsome_useful_ratio": ratio(k["mpi.testsome_useful"], m["mpi.testsome"]),
            "mpi.unexpected_ratio": ratio(k["mpi.unexpected"], m["mpi.arrive"]),
            "lci.self_s": s["lci"],
            "lci.calls": c["lci"],
            "lci.progress_calls": m["lci.progress"],
            "lci.progress_useful_ratio": ratio(k["lci.progress_useful"], m["lci.progress"]),
            "lci.send_attempts": k["lci.send_attempts"],
            "lci.retry_ratio": ratio(k["lci.send_retries"], k["lci.send_attempts"]),
            "runtime.worker.self_s": s["runtime.worker"],
            "runtime.sched.self_s": s["runtime.sched"],
            "runtime.sched.pushes": m["runtime.sched.push"],
            "runtime.engine.self_s": s["runtime.engine"],
            "runtime.engine.progress_calls": m["runtime.engine.progress"],
            "runtime.engine.progress_useful_ratio": ratio(
                k["runtime.engine.progress_useful"], m["runtime.engine.progress"]
            ),
            "runtime.comm_thread.self_s": s["runtime.comm_thread"],
            "runtime.comm_thread.resumes": r["runtime.comm_thread"],
            "runtime.progress_thread.self_s": s["runtime.progress_thread"],
            "runtime.progress_thread.resumes": r["runtime.progress_thread"],
            "setup.context_s": self.ctx_init_s,
            "setup.tasks": self.graph_tasks,
            "setup.flows": self.graph_flows,
            "trace.coverage": ratio(sum(s.values()), traced_run_s),
        }


class _TimedGen:
    """Generator proxy: each ``send``/``throw`` is one span of ``layer``.

    Forwards the full generator protocol (``send``, ``throw``, ``close``,
    iteration, ``__name__``), so the kernel, ``Process`` and ``yield from``
    drive it exactly as they drive the generator it wraps.
    """

    def __init__(self, gen, layer: str, tracer: LayerTracer, on_return=None, resumes=False):
        self.gen = gen
        self.layer = layer
        self.tracer = tracer
        self.on_return = on_return
        self.count_resumes = resumes
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self.gen.send, None)

    def send(self, value):
        return self._step(self.gen.send, value)

    def throw(self, *exc):
        return self._step(self.gen.throw, *exc)

    def close(self):
        return self.gen.close()

    def _step(self, advance, *arg):
        tr = self.tracer
        if self.count_resumes:
            tr.resumes[self.layer] += 1
        try:
            return _span_call(tr, self.layer, advance, arg, {})
        except StopIteration as stop:
            if self.on_return is not None:
                self.on_return(tr, stop.value)
            raise


def _span_call(tr: LayerTracer, layer: str, fn, args, kwargs):
    """``fn(*args, **kwargs)`` as one span of ``layer``."""
    stack = tr.stack
    stack.append(0.0)
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        dur = perf_counter() - t0
        tr.self_s[layer] += dur - stack.pop()
        stack[-1] += dur


def _wrap_method(fn, layer: str, tr: LayerTracer, hook):
    key = f"{layer}.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        tr.calls[layer] += 1
        tr.method_calls[key] += 1
        out = _span_call(tr, layer, fn, args, kwargs)
        if type(out) is GeneratorType:
            on_return = None if hook is None else lambda tr_, value: hook(tr_, args, value)
            return _TimedGen(out, layer, tr, on_return)
        if hook is not None:
            hook(tr, args, out)
        return out

    return traced


# -- outcome hooks: (layer, method name) -> hook(tracer, call args, result) --


def _fabric_send(tr, args, _deliver):
    msg = args[1]
    if msg.src != msg.dst:
        tr.counts["network.wire_sends"] += 1
        tr.counts["network.wire_bytes"] += msg.size


def _testsome(tr, args, completed):
    tr.counts["mpi.testsome_scanned"] += len(args[1])
    if completed:
        tr.counts["mpi.testsome_useful"] += 1


def _arrive(tr, _args, matched):
    if matched is None:
        tr.counts["mpi.unexpected"] += 1


def _useful(key):
    def hook(tr, _args, n):
        if n:
            tr.counts[key] += 1

    return hook


def _lci_send(tr, _args, status):
    from repro.lci.constants import LCI_ERR_RETRY

    tr.counts["lci.send_attempts"] += 1
    if status == LCI_ERR_RETRY:
        tr.counts["lci.send_retries"] += 1


_HOOKS = {
    ("network", "send"): _fabric_send,
    ("mpi", "testsome"): _testsome,
    ("mpi", "arrive"): _arrive,
    ("lci", "progress"): _useful("lci.progress_useful"),
    ("runtime.engine", "progress"): _useful("runtime.engine.progress_useful"),
}
#: LCI device send operations: LCI_ERR_RETRY is their back-pressure result.
_LCI_SENDS = ("sendi", "sendb", "sendd", "putd")


def _hook_for(layer: str, name: str):
    if layer == "lci" and name in _LCI_SENDS:
        return _lci_send
    return _HOOKS.get((layer, name))


def _layer_classes():
    """Every class defined in a module of :data:`LAYER_PACKAGES`."""
    for pkg_name in LAYER_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        modules = [pkg] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(pkg.__path__, pkg_name + ".")
        ]
        for mod in modules:
            for obj in vars(mod).values():
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    yield obj


def install(tr: LayerTracer) -> None:
    """Patch the layer entry points to record into ``tr``.

    Patches last for the life of the process, so the traced pass runs in
    an interpreter of its own; ``tr.on`` gates recording.
    """
    from repro.runtime.context import ParsecContext
    from repro.sim.core import Simulator

    for cls in _layer_classes():
        layer = layer_of_module(cls.__module__)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or type(attr) is not FunctionType:
                continue
            setattr(cls, name, _wrap_method(attr, layer, tr, _hook_for(layer, name)))

    ctx_init = ParsecContext.__init__

    @functools.wraps(ctx_init)
    def traced_ctx_init(self, *args, **kwargs):
        tr.ctx_init_start = perf_counter()
        ctx_init(self, *args, **kwargs)
        tr.ctx_init_s = perf_counter() - tr.ctx_init_start

    ParsecContext.__init__ = traced_ctx_init

    ctx_run = ParsecContext.run

    @functools.wraps(ctx_run)
    def traced_ctx_run(self, graph, *args, **kwargs):
        tr.graph_tasks = graph.num_tasks
        tr.graph_flows = graph.num_flows
        return ctx_run(self, graph, *args, **kwargs)

    ParsecContext.run = traced_ctx_run

    sim_run = Simulator.run

    @functools.wraps(sim_run)
    def traced_sim_run(self, *args, **kwargs):
        if not tr.on:
            return sim_run(self, *args, **kwargs)
        return _span_call(tr, "sim", sim_run, (self,) + args, kwargs)

    sim_process = Simulator.process

    @functools.wraps(sim_process)
    def traced_process(self, generator, name=""):
        if tr.on:
            generator = _TimedGen(
                generator, _layer_of_generator(generator), tr, resumes=True
            )
        return sim_process(self, generator, name)

    def scheduling(orig, fn_index):
        @functools.wraps(orig)
        def traced_schedule(self, *args):
            if tr.on:
                fn = args[fn_index]
                layer = _layer_of_callable(fn)
                if layer != "sim":
                    def timed(*a):
                        return _span_call(tr, layer, fn, a, {})

                    args = args[:fn_index] + (timed,) + args[fn_index + 1:]
            return orig(self, *args)

        return traced_schedule

    sim_epoch_end = Simulator.at_epoch_end

    @functools.wraps(sim_epoch_end)
    def traced_epoch_end(self, fn):
        if tr.on:
            layer = _layer_of_callable(fn)

            def at_end():
                if layer == "network":  # the fabric's wire-send flush
                    tr.counts["network.flushes"] += 1
                _span_call(tr, layer, fn, (), {})

            return sim_epoch_end(self, at_end)
        return sim_epoch_end(self, fn)

    Simulator.run = traced_sim_run
    Simulator.process = traced_process
    Simulator.at_epoch_end = traced_epoch_end
    Simulator.call_soon = scheduling(Simulator.call_soon, 0)
    Simulator.call_later = scheduling(Simulator.call_later, 1)
    Simulator.call_at = scheduling(Simulator.call_at, 1)
