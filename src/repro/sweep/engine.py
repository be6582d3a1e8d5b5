"""The parallel sweep engine: fan a :class:`~repro.sweep.spec.SweepSpec`
out over supervised worker processes, with a content-addressed result
cache and a crash-safe write-ahead journal.

Execution contract
------------------

- **Determinism.**  Every point is fully resolved before dispatch and each
  simulation seeds its own :class:`~repro.sim.rng.RngStreams` from the
  point's parameters, so a point's result record is bit-identical whether
  it runs in-process (``jobs=1``), in a worker process, is replayed from
  the cache, or is recovered from the journal on ``--resume`` (records
  round-trip through canonical JSON, which is exact for finite doubles).
  The test suite asserts parallel == serial == resumed.
- **Caching.**  With a :class:`~repro.sweep.cache.ResultCache`, points
  whose :func:`~repro.sweep.spec.point_key` is already stored are not
  simulated at all; fresh results are stored after execution.
- **Supervision.**  The parallel path runs under a
  :class:`~repro.supervise.pool.WorkerSupervisor`: a worker killed by
  SIGKILL/OOM is respawned (not ``BrokenProcessPool``), a point silent
  past ``config.heartbeat_timeout`` wall seconds is terminated and
  retried, and failures are classified — *transient* ones retry through
  the shared :class:`~repro.runtime.comm_engine.BackoffPolicy` schedule,
  *deterministic* ones (:func:`~repro.supervise.pool.classify_failure`)
  fail immediately.
- **Crash safety.**  With ``journal=``, per-point attempts and outcomes
  are journaled write-ahead (:class:`~repro.supervise.journal.
  SweepJournal`); SIGINT/SIGTERM flush the journal and print a resume
  hint, and ``resume=True`` replays the journal (plus the cache) to skip
  completed points.  Final :class:`SweepOutcome` persistence
  (:meth:`SweepOutcome.save`) is atomic (temp file + ``os.replace``).
- **Progress.**  The engine emits ``sweep_start`` / ``sweep_point`` /
  ``sweep_end`` events and ``sweep.*`` counters on the observability bus
  (free no-ops on the default :data:`~repro.obs.bus.NULL_BUS`); the
  supervisor adds ``watchdog_worker`` events and ``supervise.*`` counters.
- **Failure.**  A point that keeps failing transiently is retried up to
  ``retries`` times; exhausted or deterministically failed points either
  abort the sweep (``fail_fast``) or are recorded as ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.codec import canonical_json
from repro.config import SweepConfig
from repro.errors import SweepError, SweepInterrupted
from repro.obs.bus import NULL_BUS
from repro.runtime.comm_engine import BackoffPolicy
from repro.supervise.journal import SweepJournal
from repro.supervise.pool import WorkerSupervisor, is_deterministic_failure
from repro.sweep.cache import ResultCache
from repro.sweep.spec import SweepPoint, SweepSpec, point_key, resolve_platform

__all__ = ["PointView", "SweepOutcome", "execute_point", "run_sweep"]


def execute_point(point: SweepPoint, progress=None) -> dict:
    """Run one sweep point's simulation and return its result record.

    The record is the frozen result's fields.  The point's kind resolves
    through the :mod:`repro.workloads` registry, so any registered
    workload — builtin or scenario — sweeps identically, on the platform
    its key hashes (:func:`~repro.sweep.spec.resolve_platform`).
    ``progress`` is an optional reporter with the
    :class:`~repro.obs.progress.ProgressReporter` install/finish contract;
    it is how supervised workers stay live during long points.
    """
    from repro.workloads import get_workload

    spec = get_workload(point.kind)
    cfg = spec.build_config(**point.params)
    result = spec.run(point.backend, cfg, resolve_platform(point),
                      progress=progress)
    return dataclasses.asdict(result)


class PointView:
    """Attribute access over a result record (harness compatibility).

    The figure benchmarks were written against result dataclasses
    (``r.time_to_solution``, ``r.mean_flow_latency``); cached sweeps hand
    back plain dicts.  This view restores the attribute surface without
    re-running anything.
    """

    __slots__ = ("record",)

    def __init__(self, record: dict):
        self.record = record

    def __getattr__(self, name: str):
        try:
            return self.record[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def mean_flow_latency(self) -> float:
        """Mean end-to-end latency (seconds)."""
        return self.record.get("flow_latency", {}).get("mean", 0.0)

    def __repr__(self) -> str:
        return f"PointView({self.record!r})"


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in spec order."""

    spec: SweepSpec
    #: One result record per point (``None`` for a failed point when
    #: ``fail_fast=False``).
    records: list
    #: Content-address key per point.
    keys: list
    executed: int = 0
    cached: int = 0
    #: Points recovered from the write-ahead journal on resume.
    resumed: int = 0
    failed: int = 0
    retried: int = 0
    wall_time: float = 0.0
    errors: list = field(default_factory=list)

    def views(self) -> list:
        """Records wrapped for attribute access, in spec order."""
        return [PointView(r) if r is not None else None for r in self.records]

    def summary(self) -> str:
        """One-line report."""
        resumed = f"{self.resumed} resumed, " if self.resumed else ""
        return (
            f"sweep[{self.spec.name}] {len(self.spec)} points: "
            f"{self.executed} simulated, {self.cached} cached, {resumed}"
            f"{self.failed} failed in {self.wall_time:.1f}s wall"
        )

    def to_doc(self) -> dict:
        """JSON-plain document form (the :meth:`save` payload).

        ``wall_time`` is deliberately excluded: the record set of a sweep
        is content, wall time is circumstance — two runs of the same grid
        (one interrupted and resumed, one not) must produce byte-identical
        ``records``/``keys`` sections.
        """
        return {
            "spec": {
                "name": self.spec.name,
                "points": [p.to_dict() for p in self.spec.points],
            },
            "keys": list(self.keys),
            "records": list(self.records),
            "executed": self.executed,
            "cached": self.cached,
            "resumed": self.resumed,
            "failed": self.failed,
            "retried": self.retried,
            "errors": [list(e) for e in self.errors],
        }

    def save(self, path: "str | Path") -> Path:
        """Atomically persist the outcome as canonical JSON.

        Temp file + ``os.replace`` (the :class:`~repro.sweep.cache.
        ResultCache` idiom), so an interrupt mid-write never leaves a
        corrupt outcome file — a reader sees the old document or the new
        one, never a torn hybrid.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(self.to_doc()) + "\n")
        os.replace(tmp, path)
        return path

    @staticmethod
    def load_doc(path: "str | Path") -> dict:
        """Read a document previously written by :meth:`save`."""
        return json.loads(Path(path).read_text())


def _resume_hint(spec_name: str, journal_path: Path) -> str:
    """The one-line runbook printed when a journaled sweep is interrupted."""
    return (
        f"sweep[{spec_name}] interrupted; journal flushed to {journal_path} — "
        f"resume with: python -m repro sweep {spec_name} "
        f"--journal {journal_path} --resume"
    )


class _SignalGuard:
    """Turn SIGINT/SIGTERM into :class:`~repro.errors.SweepInterrupted`
    for the duration of a journaled sweep (main thread only — elsewhere,
    e.g. under pytest-xdist workers, signals are left alone)."""

    def __init__(self, active: bool):
        self.active = active and threading.current_thread() is threading.main_thread()
        self._previous: dict = {}

    def __enter__(self) -> "_SignalGuard":
        if not self.active:
            return self

        def _raise(signum, _frame):
            raise SweepInterrupted(f"received {signal.Signals(signum).name}")

        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous[signum] = signal.signal(signum, _raise)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()


def run_sweep(
    spec: SweepSpec,
    config: Optional[SweepConfig] = None,
    cache: "ResultCache | None" = None,
    obs: Any = NULL_BUS,
    backoff: Optional[BackoffPolicy] = None,
    journal: "SweepJournal | str | Path | None" = None,
    resume: bool = False,
) -> SweepOutcome:
    """Execute every point of ``spec`` and return records in spec order.

    ``cache=None`` with ``config.cache_enabled`` builds the default
    :class:`~repro.sweep.cache.ResultCache`; pass an instance to control
    the location, or set ``cache_enabled=False`` to simulate every point.

    ``journal`` (a path or :class:`~repro.supervise.journal.SweepJournal`)
    enables the crash-safe write-ahead log; ``resume=True`` replays it
    first, restoring completed points without re-simulation, and requires
    ``journal``.  While journaling, SIGINT/SIGTERM are caught, the journal
    is flushed, and a resume hint is printed before the interrupt
    propagates as :class:`~repro.errors.SweepInterrupted`.
    """
    config = config or SweepConfig()
    if cache is None and config.cache_enabled:
        cache = ResultCache(config.cache_dir)
    if backoff is None:
        # Wall-clock retry schedule: 50 ms base, doubling, 2 s cap.
        backoff = BackoffPolicy(base=0.05, factor=2.0, max_delay=2.0)
    if resume and journal is None:
        raise SweepError("resume=True requires a journal")
    t0 = time.perf_counter()
    keys = [point_key(p) for p in spec.points]
    outcome = SweepOutcome(spec=spec, records=[None] * len(keys), keys=keys)
    c_exec = obs.counter("sweep.executed")
    c_cached = obs.counter("sweep.cached")
    c_resumed = obs.counter("sweep.resumed")
    c_failed = obs.counter("sweep.failed")
    c_retried = obs.counter("sweep.retried")

    # -- journal / resume --------------------------------------------------
    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    state = None
    if journal is not None:
        begin_entry = SweepJournal.begin_entry(spec.name, keys, config.to_dict())
        if resume:
            state = journal.load_for_resume(begin_entry)
        journal.open(truncate=not resume)
        from repro.faults.plans import harness_chaos_from_env

        for fault in harness_chaos_from_env():
            if fault.kind == "journal_truncate" and fault.should_fire(fault.point_index):
                fault.mark_fired()
                journal._truncate_at = fault.point_index
        if state is None or state.begin is None:
            journal.begin(spec.name, keys, config.to_dict())

    obs.emit(
        "sweep_start", -1, key=spec.name,
        info={"points": len(keys), "jobs": config.jobs,
              "resumed": len(state.completed) if state else 0}, time=0.0,
    )

    pending = []  # indices that need simulation
    for idx, key in enumerate(keys):
        if state is not None and idx in state.completed:
            outcome.records[idx] = state.completed[idx]
            outcome.resumed += 1
            c_resumed.inc()
            obs.emit("sweep_point", -1, key=spec.points[idx].label,
                     info="resumed", time=0.0)
            continue
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            outcome.records[idx] = hit
            outcome.cached += 1
            c_cached.inc()
            obs.emit("sweep_point", -1, key=spec.points[idx].label,
                     info="cached", time=0.0)
        else:
            pending.append(idx)

    def finish(idx: int, record: dict) -> None:
        outcome.records[idx] = record
        outcome.executed += 1
        c_exec.inc()
        if cache is not None:
            cache.put(keys[idx], spec.points[idx].to_dict(), record)
        if journal is not None:
            journal.outcome_ok(idx, record)
        obs.emit("sweep_point", -1, key=spec.points[idx].label,
                 info="executed", time=0.0)

    def fail(idx: int, error: str) -> None:
        outcome.failed += 1
        c_failed.inc()
        outcome.errors.append((spec.points[idx].label, error))
        if journal is not None:
            journal.outcome_failed(idx, error)
        obs.emit("sweep_point", -1, key=spec.points[idx].label,
                 info=f"failed: {error}", time=0.0)
        if config.fail_fast:
            raise SweepError(
                f"sweep point {spec.points[idx].label} failed: {error}"
            )

    def journal_attempt(idx: int, attempt: int) -> None:
        if journal is not None:
            journal.attempt(idx, attempt)

    try:
        with _SignalGuard(journal is not None):
            if config.jobs == 1 or len(pending) <= 1:
                _run_serial(spec, pending, config, backoff, outcome,
                            finish, fail, journal_attempt, c_retried)
            else:
                def on_retry(_idx: int, _attempt: int, _reason: str) -> None:
                    outcome.retried += 1
                    c_retried.inc()

                with WorkerSupervisor(
                    config.jobs,
                    retries=config.retries,
                    backoff=backoff,
                    heartbeat_timeout=config.heartbeat_timeout,
                    obs=obs,
                ) as pool:
                    pool.run(
                        [(idx, spec.points[idx].to_dict()) for idx in pending],
                        on_ok=finish,
                        on_failed=fail,
                        on_attempt=journal_attempt,
                        on_retry=on_retry,
                    )
    except SweepInterrupted as exc:
        if journal is not None:
            journal.interrupted(str(exc))
            print(_resume_hint(spec.name, journal.path), file=sys.stderr,
                  flush=True)
        raise
    finally:
        if journal is not None and not isinstance(
            sys.exc_info()[1], SweepInterrupted
        ):
            journal.end(outcome.executed, outcome.cached, outcome.failed)
        if journal is not None:
            journal.close()

    outcome.wall_time = time.perf_counter() - t0
    obs.emit(
        "sweep_end", -1, key=spec.name,
        info={"executed": outcome.executed, "cached": outcome.cached,
              "resumed": outcome.resumed, "failed": outcome.failed},
        time=0.0,
    )
    return outcome


def _run_serial(
    spec: SweepSpec,
    pending: list,
    config: SweepConfig,
    backoff: BackoffPolicy,
    outcome: SweepOutcome,
    finish,
    fail,
    journal_attempt,
    c_retried,
) -> None:
    """The in-process path: same classification policy as the supervisor —
    deterministic failures fail fast, transient ones retry with backoff."""
    for idx in pending:
        attempt = 0
        while True:
            attempt += 1
            journal_attempt(idx, attempt)
            try:
                # In-process execution round-trips through the same
                # canonical JSON codec as the worker and cache paths
                # (sorted keys), so all three are byte-identical.
                record = json.loads(
                    json.dumps(execute_point(spec.points[idx]), sort_keys=True)
                )
            except SweepInterrupted:
                raise
            except Exception as exc:  # noqa: BLE001 - surfaced below
                if is_deterministic_failure(exc) or attempt > config.retries:
                    fail(idx, repr(exc))
                    break
                outcome.retried += 1
                c_retried.inc()
                time.sleep(backoff.delay(attempt))
            else:
                finish(idx, record)
                break
