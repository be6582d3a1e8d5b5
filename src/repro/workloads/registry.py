"""The workload plugin registry: specs, parameters, and discovery.

A :class:`WorkloadSpec` is the complete, self-documenting description of
one runnable workload: a name, catalog prose (description, DAG sketch,
example invocation), a config dataclass whose fields *are* the parameter
schema, a task-graph builder, and a result function.  Every spec runs
through the one run path, :func:`repro.workloads.runner.run_workload`.
Registering a spec (:func:`register`) makes the workload reachable
everywhere at once — ``repro.Experiment``, ``python -m repro run``, the
sweep grid builders, the chaos harness, and the schedule explorer all
resolve workloads through this module.

Specs reference their config/builder/result lazily as ``"module:attr"``
strings so that listing workload *names* never imports the simulator;
the heavy modules load only when a workload actually runs.  External
packages contribute workloads through the ``repro.workloads`` entry-point
group (each entry point resolves to a :class:`WorkloadSpec` or a callable
returning one/iterable of them); in-process plugins — tests, notebooks —
just call :func:`register` directly.

The registry is also the single source of truth for the documentation:
``tools/gen_api_docs.py`` renders ``docs/workloads.md`` from the specs'
metadata and ``tools/check_docs.py`` fails if the catalog and the
registry ever disagree, so the scenario docs cannot drift.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = [
    "ENTRY_POINT_GROUP",
    "Param",
    "WorkloadSpec",
    "register",
    "unregister",
    "get_workload",
    "workload_names",
    "workload_specs",
]

#: The ``importlib.metadata`` entry-point group external packages use to
#: contribute workloads (``[project.entry-points."repro.workloads"]``).
ENTRY_POINT_GROUP = "repro.workloads"


@dataclass(frozen=True)
class Param:
    """One documented workload parameter (a config-dataclass field)."""

    #: Field name, as accepted by ``Experiment(**{name: ...})``.
    name: str
    #: The config dataclass's default value (``None`` when required).
    default: Any
    #: One-line human description rendered into the scenario catalog.
    doc: str
    #: The config dataclass declares no default — callers must pass it.
    required: bool = False


def _resolve(ref: Any) -> Any:
    """Resolve a lazy ``"module:attr"`` reference (pass objects through)."""
    if not isinstance(ref, str):
        return ref
    modname, _, attr = ref.partition(":")
    module = __import__(modname, fromlist=[attr])
    return getattr(module, attr)


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the harness needs to run — and document — a workload.

    ``config``/``graph``/``result``/``context`` accept either the object
    itself or a lazy ``"module:attr"`` string; resolution happens on first
    use.  The contract:

    - ``config`` is a frozen dataclass with at least ``num_nodes`` and
      ``seed`` fields; constructing it validates values (raising
      :class:`~repro.errors.ConfigError` family errors).
    - ``graph(config, platform)`` builds the workload's
      :class:`~repro.runtime.taskpool.TaskGraph` without running it.
    - ``result(workload, config, ctx)`` is called once the run's
      :class:`~repro.runtime.context.ParsecContext` exists (after
      ``ctx_observer``, before the run) and returns ``finish(stats)``,
      which builds the frozen :mod:`repro.api` result from the
      :class:`~repro.runtime.context.RunStats`.  Omitted, it is
      :func:`~repro.workloads.runner.graph_result` (a
      :class:`~repro.api.GraphResult`), so a catalog workload or plugin
      declares only ``config`` and ``graph``.
    - ``context(config)`` returns the ``ParsecContext`` keywords the
      workload needs beyond backend/seed/faults: a default ``platform``
      and any runtime options its config carries.  Omitted, the platform
      is the CI-scale cluster sized to ``num_nodes``.
    - ``param_docs`` must document **every** public config field;
      :meth:`params` raises on an undocumented field, which is what keeps
      the generated catalog complete.
    """

    #: Registry key; also the ``Experiment(workload=...)``/CLI name.
    name: str
    #: One-line summary (catalog section lead, ``workloads`` verb output).
    description: str
    #: Longer catalog paragraph: what the DAG stresses and why it exists.
    details: str = ""
    #: ASCII DAG sketch rendered verbatim into the catalog.
    dag: str = ""
    #: Example CLI invocation (must start ``python -m repro run <name>``).
    example: str = ""
    #: Config dataclass (or lazy ref): fields = the parameter schema.
    config: Any = None
    #: Task-graph builder ``(config, platform) -> TaskGraph`` (or ref).
    graph: Any = None
    #: Result function ``(workload, config, ctx) -> finish`` (or ref).
    result: Any = None
    #: ``config -> ParsecContext keywords`` (``platform``, options) or ref.
    context: Any = None
    #: ``((field_name, one_line_doc), ...)`` for every public field.
    param_docs: tuple = ()
    #: Small fast parameter overrides for the schedule explorer.
    explore_params: tuple = ()
    #: Free-form labels (``"paper"``, ``"taskbench"``, ``"collective"``).
    tags: tuple = ()

    def config_cls(self) -> type:
        """The workload's config dataclass (resolved)."""
        return _resolve(self.config)

    def result_fn(self) -> Callable:
        """The workload's result function (resolved)."""
        return _resolve(self.result or "repro.workloads.runner:graph_result")

    def context_options(self, config: Any) -> dict:
        """The ``ParsecContext`` keywords for ``config``.

        ``platform`` is always among them."""
        if self.context is not None:
            return dict(_resolve(self.context)(config))
        from repro.config import scaled_platform

        return {"platform": scaled_platform(num_nodes=config.num_nodes)}

    def field_names(self) -> frozenset:
        """Names of every config field (the accepted parameter set)."""
        return frozenset(f.name for f in dataclasses.fields(self.config_cls()))

    def params(self) -> tuple:
        """The documented parameter schema, one :class:`Param` per field.

        Raises :class:`~repro.errors.ConfigError` if any public config
        field lacks an entry in ``param_docs`` (or vice versa) — the
        registration-time guarantee that the generated catalog documents
        every knob.
        """
        docs = dict(self.param_docs)
        params = []
        for f in dataclasses.fields(self.config_cls()):
            if f.name not in docs:
                raise ConfigError(
                    f"workload {self.name!r}: config field {f.name!r} has "
                    f"no param_docs entry — every parameter must be "
                    f"documented"
                )
            required = f.default is dataclasses.MISSING
            params.append(Param(name=f.name,
                                default=None if required else f.default,
                                doc=docs.pop(f.name), required=required))
        if docs:
            raise ConfigError(
                f"workload {self.name!r}: param_docs documents unknown "
                f"field(s) {sorted(docs)}"
            )
        return tuple(params)

    def build_config(self, **kwargs: Any):
        """Validate ``kwargs`` against the schema and build the config.

        Unknown parameter names raise :class:`~repro.errors.ConfigError`
        listing the valid set; value validation is the config dataclass's
        own ``__post_init__`` job.
        """
        valid = self.field_names()
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ConfigError(
                f"workload {self.name!r} does not accept parameter(s) "
                f"{unknown}; valid: {sorted(valid)}"
            )
        return self.config_cls()(**kwargs)

    def run(
        self,
        backend: str,
        config: Any,
        platform: Any = None,
        *,
        faults: Any = None,
        schedule_policy: Any = None,
        ctx_observer: Any = None,
        progress: Any = None,
        guards: Any = None,
    ):
        """Execute one run and return the frozen typed result.

        See :func:`~repro.workloads.runner.run_workload`."""
        from repro.workloads.runner import run_workload

        return run_workload(
            self, backend, config, platform,
            faults=faults,
            schedule_policy=schedule_policy,
            ctx_observer=ctx_observer,
            progress=progress,
            guards=guards,
        )

    def build_graph(self, config: Any, platform: Any):
        """Build (without running) the workload's task graph."""
        if self.graph is None:
            raise ConfigError(
                f"workload {self.name!r} has no task-graph builder"
            )
        return _resolve(self.graph)(config, platform)


_REGISTRY: dict = {}
_LOADED = False


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the registry; duplicate names are rejected.

    Returns the spec so modules can ``SPEC = register(WorkloadSpec(...))``.
    """
    if not isinstance(spec, WorkloadSpec):
        raise ConfigError(f"expected a WorkloadSpec, got {type(spec).__name__}")
    if not spec.name or not spec.name.replace("_", "").isalnum():
        raise ConfigError(f"invalid workload name {spec.name!r}")
    if spec.name in _REGISTRY:
        raise ConfigError(
            f"workload {spec.name!r} is already registered; "
            f"unregister it first or pick a unique name"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registered workload (test/plugin teardown hook)."""
    _REGISTRY.pop(name, None)


def _load_entry_points() -> None:
    """Load external workloads from the ``repro.workloads`` entry points.

    A broken plugin must not take the harness down: load failures become
    warnings and the plugin is skipped.
    """
    try:
        from importlib.metadata import entry_points

        eps = entry_points(group=ENTRY_POINT_GROUP)
    except Exception:  # pragma: no cover - importlib.metadata quirk
        return
    for ep in eps:
        try:
            obj = ep.load()
            if callable(obj) and not isinstance(obj, WorkloadSpec):
                obj = obj()
            specs = obj if isinstance(obj, (list, tuple)) else [obj]
            for spec in specs:
                if spec.name not in _REGISTRY:
                    register(spec)
        except Exception as exc:  # noqa: BLE001 - plugin isolation
            warnings.warn(
                f"failed to load workload plugin {ep.name!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )


def _ensure_loaded() -> None:
    """Import the bundled workload modules and entry-point plugins once."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    # The bundled specs register at import time; registration uses lazy
    # refs, so this stays cheap (no simulator import).
    import repro.workloads.builtin  # noqa: F401
    import repro.workloads.catalog  # noqa: F401

    _load_entry_points()


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by name.

    The :class:`~repro.errors.ConfigError` for an unknown name lists the
    actually registered workloads — the message every layer (Experiment,
    CLI, sweep, explore) surfaces.
    """
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r} "
            f"(known: {', '.join(sorted(_REGISTRY))})"
        ) from None


def workload_names() -> tuple:
    """Registered workload names, sorted."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def workload_specs() -> tuple:
    """Registered specs, sorted by name (catalog rendering order)."""
    _ensure_loaded()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))
