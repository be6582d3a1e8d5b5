"""Sweep specifications: points, grids, and content-address keys.

A :class:`SweepPoint` is one experiment configuration — a workload kind
(any name registered with :mod:`repro.workloads`), a backend, and the
workload's parameters.  A :class:`SweepSpec` is an ordered collection of
points; order is part of the contract (per-point seeds and result lists
follow it).

Everything environment-dependent is resolved *eagerly* when a grid is
built — ``REPRO_PAPER_SCALE`` totals, matrix dimensions, platform cost
models — so a point's :func:`point_key` pins down the simulation exactly,
and executing the point in a worker process cannot drift from executing it
in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.config import PlatformConfig, paper_scale_enabled
from repro.errors import ReproError, SweepError
from repro.sweep.cache import stable_hash
from repro._version import __version__

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "point_key",
    "fig4_grid",
    "fig5_grid",
    "pingpong_grid",
    "taskbench_grid",
    "named_grid",
    "GRID_BUILDERS",
]


@dataclass(frozen=True)
class SweepPoint:
    """One experiment configuration inside a sweep."""

    #: Workload kind: any registered workload name (``"hicma"``,
    #: ``"taskbench"``, ...).
    kind: str
    #: Communication backend: ``"mpi"`` or ``"lci"``.
    backend: str
    #: Fully resolved workload parameters (the benchmark config's fields).
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.workloads import workload_names

        if self.kind not in workload_names():
            raise SweepError(f"unknown sweep point kind {self.kind!r}")
        if self.backend not in ("mpi", "lci"):
            raise SweepError(f"unknown backend {self.backend!r}")

    @property
    def label(self) -> str:
        """Short human-readable identifier for progress reporting."""
        parts = [f"{k}={v}" for k, v in sorted(self.params.items())]
        return f"{self.kind}[{self.backend}] " + " ".join(parts)

    def to_dict(self) -> dict:
        """Plain-dict form (picklable / JSON-able) for worker processes."""
        return {"kind": self.kind, "backend": self.backend, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepPoint":
        """Inverse of :meth:`to_dict`."""
        return cls(kind=doc["kind"], backend=doc["backend"],
                   params=dict(doc["params"]))


@dataclass(frozen=True)
class SweepSpec:
    """An ordered, named collection of sweep points."""

    name: str
    points: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)


def resolve_platform(point: SweepPoint) -> PlatformConfig:
    """The platform a point executes on.

    It is the workload's default platform for the point's config, and
    :func:`~repro.sweep.engine.execute_point` runs the point on it."""
    from repro.workloads import get_workload

    spec = get_workload(point.kind)
    return spec.context_options(spec.build_config(**point.params))["platform"]


def point_key(point: SweepPoint) -> str:
    """The point's content-address: a stable hash of its resolved payload.

    Covers the workload kind/backend/params, the complete platform cost
    model (every ``Network``/``Mpi``/``Lci``/``Runtime``/``Compute`` field,
    so recalibration invalidates old results), and the package version.
    """
    try:
        platform = resolve_platform(point).to_dict()
    except (ReproError, TypeError, ValueError):
        # Params that build no config have no platform; executing the
        # point fails on the same error, so its key is never stored.
        platform = None
    payload = {
        "kind": point.kind,
        "backend": point.backend,
        "params": dict(point.params),
        "platform": platform,
        "version": __version__,
    }
    return stable_hash(payload)


# -- grid builders (mirror benchmarks/conftest.py dimensions) --------------


def _fig4_dimensions() -> tuple:
    if paper_scale_enabled():
        return 360_000, [1200, 1500, 1800, 2400, 3000, 3600, 4500, 4800, 6000], [1200, 2400]
    return 72_000, [450, 600, 720, 1200, 1800, 3000], [600, 1200]


def _fig5_dimensions() -> tuple:
    if paper_scale_enabled():
        node_tiles = {
            n: [1200, 1500, 1800, 2400, 3000, 3600, 4500, 6000]
            for n in (1, 2, 4, 8, 16, 32)
        }
        return 360_000, node_tiles
    return 144_000, {
        1: [2400, 3600, 6000],
        2: [2400, 3600, 6000],
        4: [1440, 2400, 3600],
        8: [1200, 1440, 2400, 3600],
        16: [900, 1200, 1440, 2400],
    }


def _hicma_point(backend: str, matrix: int, tile: int, nodes: int, mt: bool = False) -> SweepPoint:
    return SweepPoint(
        kind="hicma",
        backend=backend,
        params={
            "matrix_size": matrix,
            "tile_size": tile,
            "num_nodes": nodes,
            "multithreaded_activate": mt,
            "seed": 0,
        },
    )


def fig4_grid() -> SweepSpec:
    """The Fig. 4a/4b tile scan at 16 nodes, both backends, plus the
    §6.4.3 multithreaded-ACTIVATE points."""
    matrix, tiles, mt_tiles = _fig4_dimensions()
    points = []
    for backend in ("mpi", "lci"):
        for tile in tiles:
            points.append(_hicma_point(backend, matrix, tile, 16))
        for tile in mt_tiles:
            points.append(_hicma_point(backend, matrix, tile, 16, mt=True))
    return SweepSpec(name="fig4", points=tuple(points))


def fig5_grid() -> SweepSpec:
    """The Fig. 5a/5b / Table 2 node scan with per-node tile lists."""
    matrix, node_tiles = _fig5_dimensions()
    points = []
    for backend in ("mpi", "lci"):
        for nodes, tiles in node_tiles.items():
            for tile in tiles:
                points.append(_hicma_point(backend, matrix, tile, nodes))
    return SweepSpec(name="fig5", points=tuple(points))


def pingpong_grid(
    fragments: Optional[list] = None,
    total_bytes: Optional[int] = None,
    streams: int = 1,
    iterations: int = 5,
) -> SweepSpec:
    """Ping-pong bandwidth across fragment sizes, both backends (Fig. 2a)."""
    from repro.bench.pingpong import PingPongConfig, default_granularities

    fragments = list(fragments) if fragments else default_granularities()
    points = []
    for frag in fragments:
        # Resolve the per-iteration total eagerly so the cache key does not
        # depend on the REPRO_PAPER_SCALE environment of a later rerun.
        resolved_total = PingPongConfig(
            fragment_size=frag, total_bytes=total_bytes
        ).resolved_total()
        for backend in ("mpi", "lci"):
            points.append(
                SweepPoint(
                    kind="pingpong",
                    backend=backend,
                    params={
                        "fragment_size": int(frag),
                        "total_bytes": int(resolved_total),
                        "streams": int(streams),
                        "iterations": int(iterations),
                        "sync": True,
                        "num_nodes": 2,
                        "seed": 0,
                    },
                )
            )
    return SweepSpec(name="pingpong", points=tuple(points))


def _scenario_point(kind: str, backend: str, **params) -> SweepPoint:
    """A fully resolved point for a registered scenario workload.

    Builds the workload's config (so defaults and validation happen
    eagerly) and pins *every* field into the point's params, keeping the
    content-address independent of later default changes.
    """
    from repro.workloads import get_workload

    cfg = get_workload(kind).build_config(**params)
    return SweepPoint(kind=kind, backend=backend, params=cfg.to_dict())


def taskbench_grid() -> SweepSpec:
    """The Task Bench-style scenario grid: width × depth × dependence
    pattern on the ``taskbench`` workload, plus ``stencil`` and
    ``forkjoin`` companion points, both backends.

    Every point is CI-scale small (tens of tasks), so the whole grid runs
    in seconds while still sweeping the latency-bound → compute-bound
    axis the Task Bench methodology targets.
    """
    points = []
    for backend in ("mpi", "lci"):
        for pattern in ("stencil", "fft", "random"):
            for width in (4, 8):
                for depth in (4, 8):
                    points.append(_scenario_point(
                        "taskbench", backend,
                        width=width, depth=depth, pattern=pattern,
                        num_nodes=4,
                    ))
        for grid in (4, 8):
            points.append(_scenario_point(
                "stencil", backend, grid=grid, steps=4, num_nodes=4,
            ))
        for depth in (3, 4):
            points.append(_scenario_point(
                "forkjoin", backend, fanout=3, depth=depth, num_nodes=4,
            ))
    return SweepSpec(name="taskbench", points=tuple(points))


GRID_BUILDERS = {
    "fig4": fig4_grid,
    "fig5": fig5_grid,
    "pingpong": pingpong_grid,
    "taskbench": taskbench_grid,
}


def named_grid(name: str, **kwargs) -> SweepSpec:
    """Build one of the predefined grids by name (CLI entry point)."""
    try:
        builder = GRID_BUILDERS[name]
    except KeyError:
        raise SweepError(
            f"unknown grid {name!r}; choose from {sorted(GRID_BUILDERS)}"
        ) from None
    return builder(**kwargs)
