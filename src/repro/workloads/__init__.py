"""Workload plugin registry and the bundled scenario suite.

:class:`WorkloadSpec` describes one runnable, self-documenting workload
(config schema, task-graph builder, result function, catalog prose);
:func:`run_workload` is the one run path every spec takes;
:func:`register`/:func:`get_workload`/:func:`workload_names` are the
registry surface every layer — ``repro.Experiment``, the CLI,
sweeps, chaos, explore — resolves workloads through; :func:`param`
declares one documented, bounded config field.

See ``docs/workloads.md`` for the generated scenario catalog.
"""

from repro.workloads.registry import (
    Param,
    WorkloadSpec,
    get_workload,
    param,
    register,
    unregister,
    workload_names,
    workload_specs,
)
from repro.workloads.runner import graph_result, run_workload

__all__ = [
    "Param",
    "param",
    "WorkloadSpec",
    "register",
    "unregister",
    "get_workload",
    "workload_names",
    "workload_specs",
    "run_workload",
    "graph_result",
]
