"""The workload plugin registry: specs, parameters, and registration.

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
the heavy modules load only when a workload actually runs.  In-process
plugins — tests, notebooks — call :func:`register` directly.

A config dataclass declares each parameter once, as a :func:`param`
field: its default, its one-line doc and its bounds (``minimum`` or
``choices``).  :meth:`WorkloadSpec.params` reads the docs and bounds back,
and :meth:`WorkloadSpec.build_config` enforces the bounds on every entry
path.

The registry is also the single source of truth for the documentation:
``tools/gen_api_docs.py`` renders ``docs/workloads.md`` from the specs'
metadata and ``tools/check_docs.py`` fails if the catalog and the
registry ever disagree, so the scenario docs cannot drift.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = [
    "Param",
    "param",
    "WorkloadSpec",
    "register",
    "unregister",
    "get_workload",
    "workload_names",
    "workload_specs",
]

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
    #: Smallest accepted value (``None`` = unbounded).
    minimum: Any = None
    #: The accepted values (``()`` = any).
    choices: tuple = ()

    def bounds(self) -> str:
        """The declared bounds as text (``">= 1"``, ``"one of a, b"``)."""
        return _bounds(self.minimum, self.choices)


def _bounds(minimum: Any, choices: tuple) -> str:
    if choices:
        return "one of " + ", ".join(map(str, choices))
    return "" if minimum is None else f">= {minimum}"


def _in_bounds(value: Any, minimum: Any, choices: tuple) -> bool:
    if choices:
        return value in choices
    return minimum is None or (isinstance(value, numbers.Real)
                               and value >= minimum)


def param(default: Any = dataclasses.MISSING, doc: str = "", *,
          minimum: Any = None, choices: tuple = ()) -> Any:
    """Declare one workload parameter: a config-dataclass field.

    ``default`` is the field default (omit it for a required parameter),
    ``doc`` the one-line catalog description; ``minimum``/``choices`` are
    the bounds :meth:`WorkloadSpec.build_config` enforces.  A field whose
    default is ``None`` also accepts ``None``.
    """
    return dataclasses.field(default=default, metadata={
        "doc": doc, "minimum": minimum, "choices": tuple(choices)})


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
      ``seed`` fields, each declared with :func:`param` (doc line and
      bounds).  :meth:`build_config` validates the declared bounds; the
      dataclass's ``__post_init__`` holds only cross-field rules.
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
    - Every config field carries a :func:`param` doc; :meth:`params`
      raises on an undocumented field, which is what keeps the generated
      catalog complete.
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

    def params(self) -> tuple:
        """The documented parameter schema, one :class:`Param` per field.

        Raises :class:`~repro.errors.ConfigError` if any config field was
        declared without a :func:`param` doc — the guarantee that the
        generated catalog documents every knob.
        """
        params = []
        for f in dataclasses.fields(self.config_cls()):
            if not f.metadata.get("doc"):
                raise ConfigError(
                    f"workload {self.name!r}: config field {f.name!r} has "
                    f"no param() doc — every parameter must be documented"
                )
            required = f.default is dataclasses.MISSING
            params.append(Param(name=f.name,
                                default=None if required else f.default,
                                doc=f.metadata["doc"], required=required,
                                minimum=f.metadata["minimum"],
                                choices=f.metadata["choices"]))
        return tuple(params)

    def build_config(self, **kwargs: Any):
        """Validate ``kwargs`` against the schema and build the config.

        Unknown parameter names (the error lists the valid set), missing
        required ones, a non-bool value for a ``bool`` field, and a value
        outside a field's declared ``minimum``/``choices`` raise
        :class:`~repro.errors.ConfigError`; cross-field rules are the
        config dataclass's own ``__post_init__`` job.
        """
        fields = dataclasses.fields(self.config_cls())
        valid = {f.name for f in fields}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ConfigError(
                f"workload {self.name!r} does not accept parameter(s) "
                f"{unknown}; valid: {sorted(valid)}"
            )
        missing = [f.name for f in fields
                   if f.default is dataclasses.MISSING and f.name not in kwargs]
        if missing:
            raise ConfigError(
                f"workload {self.name!r} requires parameter(s) {missing}"
            )
        for f in fields:
            if f.name not in kwargs:
                continue
            value, meta = kwargs[f.name], f.metadata
            minimum, choices = meta.get("minimum"), meta.get("choices")
            # Under postponed annotations ``f.type`` is the string "bool".
            if f.type in ("bool", bool) and not isinstance(value, bool):
                problem = "true or false"
            elif (value is None and f.default is None
                  or _in_bounds(value, minimum, choices)):
                continue
            else:
                problem = _bounds(minimum, choices)
            raise ConfigError(
                f"workload {self.name!r}: parameter {f.name!r} must be "
                f"{problem}, got {value!r}"
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
        observability: bool = False,
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
            observability=observability,
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


def _ensure_loaded() -> None:
    """Import the bundled workload modules once."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    # The bundled specs register at import time; registration uses lazy
    # refs, so this stays cheap (no simulator import).
    import repro.workloads.builtin  # noqa: F401
    import repro.workloads.catalog  # noqa: F401


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
