"""Calibration constants and platform configuration.

Every time constant used by the simulation lives here, grouped into frozen
dataclasses.  The values are calibrated once against the paper's anchor
points (Table 1 hardware, Fig. 2a half-bandwidth granularities, Fig. 4b
latency ranges) and then frozen; all benchmarks share the same set.

Calibration notes
-----------------
The paper's Fig. 2a implies an effective *serialized per-fragment software
cost* on the communication path of roughly 17 µs for the MPI backend (peak
bandwidth is lost below ~128 KiB fragments: 128 KiB / 62.5 Gbit/s ≈ 16.8 µs)
and roughly 6 µs for the LCI backend (45.25 KiB / 64.1 Gbit/s ≈ 5.8 µs),
a ratio of ≈2.8× — the paper's "2.83 times smaller tasks at similar
efficiency".  The per-operation costs below reproduce those aggregates when
the full protocol message sequence of §4.2/§5.3 executes:

- MPI path per fragment (single comm thread does *both* progress and
  callbacks): ACTIVATE pack+send, ACTIVATE callback (unpack + dependency
  walk), GET DATA send + callback, put handshake send + callback, posted
  receive, data send/recv completion callbacks, plus ``MPI_Testsome``
  polling of the ~35-entry request array.
- LCI path per fragment: the progress thread absorbs matching, completion
  draining and receive-queue refill, so the comm thread only executes
  callbacks popped from the two FIFO queues; the two threads pipeline.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, replace

from repro.codec import DictCodec
from repro.errors import ConfigError
from repro.units import KiB, MiB, US, NS, bytes_per_s_from_gbit

__all__ = [
    "NetworkConfig",
    "MpiCosts",
    "LciCosts",
    "RuntimeCosts",
    "ComputeConfig",
    "PlatformConfig",
    "FaultConfig",
    "SweepConfig",
    "expanse_platform",
    "scaled_platform",
    "paper_scale_enabled",
]


#: Accepted spellings of the REPRO_PAPER_SCALE switch (after strip+casefold).
_PAPER_SCALE_TRUE = frozenset({"1", "true", "yes", "on"})
_PAPER_SCALE_FALSE = frozenset({"", "0", "false", "no", "off"})


def paper_scale_enabled() -> bool:
    """True when the environment requests full paper-scale experiments.

    The ``REPRO_PAPER_SCALE`` value is stripped and case-folded, so
    ``"False"``, ``"NO"`` and ``" 0 "`` all read as disabled; anything
    outside the recognised truthy/falsy spellings raises
    :class:`~repro.errors.ConfigError` rather than silently enabling a
    multi-hour experiment sweep.
    """
    raw = os.environ.get("REPRO_PAPER_SCALE", "0")
    value = raw.strip().casefold()
    if value in _PAPER_SCALE_TRUE:
        return True
    if value in _PAPER_SCALE_FALSE:
        return False
    raise ConfigError(
        f"REPRO_PAPER_SCALE={raw!r} not understood; use one of "
        f"{sorted(_PAPER_SCALE_TRUE)} or {sorted(_PAPER_SCALE_FALSE - {''})}"
    )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _no_negative_numbers(cfg) -> None:
    """Reject negative numeric fields (times, sizes, rates are all >= 0)."""
    cls = type(cfg).__name__
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            _require(v >= 0, f"{cls}.{f.name} must be >= 0 (got {v!r})")


@dataclass(frozen=True)
class NetworkConfig(DictCodec):
    """Fabric model parameters (LogGP-style), per Table 1 of the paper.

    Expanse nodes have 2× HDR InfiniBand links at 50 Gbit/s each, giving
    100 Gbit/s per direction per node; the topology is a hybrid fat-tree.
    """

    #: NIC injection/ejection bandwidth, bytes/s, per direction (full
    #: duplex).  Per-byte DMA/SerDes time beyond line rate is folded in.
    bandwidth: float = bytes_per_s_from_gbit(100.0)
    #: Base end-to-end wire latency for a minimal message (s).
    wire_latency: float = 1.1 * US
    #: Additional latency per switch hop (s).
    hop_latency: float = 150 * NS
    #: Inter-message gap at the NIC (s) — bounds achievable message rate.
    message_gap: float = 60 * NS
    #: Number of switch levels in the fat tree (2 ⇒ leaf + spine).
    fat_tree_levels: int = 2
    #: Nodes per leaf switch.
    nodes_per_leaf: int = 16

    def __post_init__(self) -> None:
        _no_negative_numbers(self)
        _require(self.bandwidth > 0, f"NetworkConfig.bandwidth must be > 0 (got {self.bandwidth!r})")
        _require(
            self.fat_tree_levels >= 1,
            f"NetworkConfig.fat_tree_levels must be >= 1 (got {self.fat_tree_levels!r})",
        )
        _require(
            self.nodes_per_leaf >= 1,
            f"NetworkConfig.nodes_per_leaf must be >= 1 (got {self.nodes_per_leaf!r})",
        )

    def latency(self, hops: int) -> float:
        """End-to-end base latency for a path with ``hops`` switch hops."""
        return self.wire_latency + hops * self.hop_latency


@dataclass(frozen=True)
class MpiCosts(DictCodec):
    """Per-operation CPU costs of the simulated MPI library (Open MPI/UCX).

    These are the costs *charged to the calling thread*; they model the
    software path through the MPI library, PML, and UCX.
    """

    #: Overhead of an eager send (MPI_Send below the rendezvous threshold).
    eager_send: float = 2.0 * US
    #: Overhead of posting a non-blocking send/receive.
    post_request: float = 1.8 * US
    #: Cost of matching one incoming message against the posted-receive queue.
    match: float = 1.0 * US
    #: Additional matching cost per queue entry walked (posted or unexpected).
    #: Under active-message floods the unexpected queue grows and matching
    #: degrades superlinearly — a well-documented MPI pathology that the
    #: 5-persistent-receives-per-tag design of §4.2.1 exposes.
    match_per_queue_entry: float = 60 * NS
    #: Fixed cost of an MPI_Testsome call.
    testsome_base: float = 0.6 * US
    #: Incremental Testsome cost per polled (incomplete) request.
    testsome_per_request: float = 60 * NS
    #: Eager→rendezvous protocol switch threshold (bytes), UCX-like.
    rendezvous_threshold: int = 16 * KiB
    #: CPU cost of an RTS/CTS rendezvous control message at each side.
    rendezvous_ctrl: float = 1.2 * US
    #: Per-byte copy cost for eager messages (through bounce buffers).
    eager_copy_per_byte: float = 0.05 * NS
    #: Cost to re-enable (MPI_Start) a persistent receive.
    restart_persistent: float = 0.8 * US
    # -- MPI RMA (dynamic windows), for the §4.2.2 alternative put path --
    #: MPI_Win_attach on a dynamic window: registration + window sync.
    #: Dynamic-window attach/detach is the documented weak point of MPI RMA
    #: (Schuchart et al., "Quo Vadis MPI RMA", paper ref [25]).
    win_attach: float = 3.0 * US
    #: MPI_Win_detach.
    win_detach: float = 2.0 * US
    #: Posting an MPI_Put (true RDMA, low software cost).
    rma_put_post: float = 0.6 * US
    #: MPI_Win_flush bookkeeping (plus waiting for remote completion).
    rma_flush: float = 1.0 * US

    def __post_init__(self) -> None:
        _no_negative_numbers(self)


@dataclass(frozen=True)
class LciCosts(DictCodec):
    """Per-operation CPU costs of the simulated LCI library."""

    #: Maximum size of an Immediate (inline) message — about a cache line.
    immediate_max: int = 64
    #: Maximum size of a Buffered (medium, copied) message — paper: ~12 KiB.
    buffered_max: int = 12 * KiB
    #: Overhead of an Immediate send.
    immediate_send: float = 0.25 * US
    #: Overhead of a Buffered send (plus per-byte copy below).
    buffered_send: float = 0.6 * US
    #: Overhead of posting a Direct (RDMA) send or receive.
    direct_post: float = 0.85 * US
    #: Per-byte copy cost into pre-registered buffers (Buffered protocol).
    copy_per_byte: float = 0.05 * NS
    #: Cost of draining one completion from a hardware queue.
    completion_drain: float = 0.20 * US
    #: Cost of dispatching a user handler from the progress engine.
    handler_dispatch: float = 0.11 * US
    #: Cost of a completion-queue pop by a consumer thread.
    cq_pop: float = 0.30 * US
    #: Cost of refilling one hardware receive descriptor.
    refill_recv: float = 0.05 * US
    #: Number of pre-posted medium receive packets per device (back-pressure
    #: pool; exhaustion yields LCI_ERR_RETRY).
    packet_pool_size: int = 256
    #: Number of outstanding direct (RDMA) operations supported in hardware.
    direct_slots: int = 64

    def __post_init__(self) -> None:
        _no_negative_numbers(self)
        _require(
            self.packet_pool_size >= 1,
            f"LciCosts.packet_pool_size must be >= 1 (got {self.packet_pool_size!r})",
        )
        _require(
            self.direct_slots >= 1,
            f"LciCosts.direct_slots must be >= 1 (got {self.direct_slots!r})",
        )
        _require(
            self.buffered_max >= self.immediate_max,
            f"LciCosts.buffered_max ({self.buffered_max!r}) must be >= "
            f"immediate_max ({self.immediate_max!r})",
        )


@dataclass(frozen=True)
class RuntimeCosts(DictCodec):
    """Per-operation CPU costs of the PaRSEC-like runtime layer."""

    #: Packing one dataflow into an ACTIVATE message.
    activate_pack_per_flow: float = 0.30 * US
    #: ACTIVATE callback: unpack one activation and walk local descendants.
    #: This is the "long active-message callback" of §4.3.
    activate_unpack_per_flow: float = 1.6 * US
    #: Handling a GET DATA message (locate data, prepare put).
    getdata_handle: float = 0.8 * US
    #: Generic completion-callback trampoline cost.
    callback_exec: float = 0.20 * US
    #: Scheduler: pop a ready task / push a new ready task.
    sched_op: float = 0.20 * US
    #: Fixed cost to launch a task body on a worker.
    task_spawn: float = 0.45 * US
    #: Size of an ACTIVATE message per carried dataflow (bytes).
    activate_bytes_per_flow: int = 256
    #: Size of a GET DATA control message (bytes).
    getdata_bytes: int = 128
    #: Size of a put handshake message, excluding eager payload (bytes).
    handshake_bytes: int = 160
    #: MPI backend: persistent receives pre-posted per registered AM tag.
    mpi_recvs_per_tag: int = 5
    #: MPI backend: max concurrently polled data transfers (§4.2.2).
    mpi_max_transfers: int = 30
    #: LCI backend: AMs popped per fairness round from the AM FIFO (§5.3.4).
    lci_am_batch: int = 5
    #: LCI backend: eager put payload limit — data this small rides inside
    #: the handshake message itself (§5.3.3).
    lci_eager_put_max: int = 8 * KiB
    #: Penalty multiplier on comm/progress-thread costs when the thread
    #: "floats" instead of being pinned near the NIC (§6.1.2: up to +25 %
    #: mean end-to-end latency).
    floating_thread_penalty: float = 1.25


@dataclass(frozen=True)
class ComputeConfig(DictCodec):
    """Worker-core compute model."""

    #: Effective double-precision rate of one core for GEMM-like kernels
    #: (EPYC 7742 @2.25 GHz, FMA; ~80 % of peak).
    flops_per_core: float = 30e9
    #: Effective rate for low-rank (skinny) kernels — lower due to memory
    #: bound behaviour; HiCMA's LR kernels are far less compute-dense.
    lr_flops_per_core: float = 12e9


@dataclass(frozen=True)
class FaultConfig(DictCodec):
    """One deterministic fault-injection plan (see ``docs/faults.md``).

    All probabilities are per *transmission attempt* on the wire; all rates
    are events per second of **simulated** time (CI-scale runs last a few
    milliseconds, hence the large-looking defaults in the named plans).
    Seeded from :class:`repro.sim.rng.RngStreams`, so the same seed and plan
    replay bit-identically.  ``FaultConfig(enabled=False)`` — or simply not
    passing a plan — selects the NULL engine and leaves runs bit-identical
    to a faultless build.
    """

    enabled: bool = True
    # -- per-message wire faults ----------------------------------------
    #: Probability a transmission is silently lost in the network.
    drop_rate: float = 0.0
    #: Probability the network delivers an extra copy of a transmission.
    dup_rate: float = 0.0
    #: Probability a delivered payload is corrupted (checksum mismatch).
    corrupt_rate: float = 0.0
    #: Probability a transmission is delayed (reordered past later sends).
    reorder_rate: float = 0.0
    #: Maximum extra delay applied to a reordered transmission (s).
    reorder_delay: float = 20 * US
    # -- link flaps, degradation, and the circuit breaker ---------------
    #: Flap windows per second per directed route (0 = no flaps).
    flap_rate: float = 0.0
    #: Length of one flap window (s); transmissions inside it are lost.
    flap_duration: float = 60 * US
    #: Latency multiplier on a route once it has started flapping.
    degraded_latency_factor: float = 3.0
    #: Flap-window losses on one route before the circuit breaker trips
    #: and traffic re-routes via an alternate fat-tree path.
    breaker_threshold: int = 3
    # -- straggler injection --------------------------------------------
    #: Nodes whose task compute times are stretched.
    straggler_nodes: tuple = ()
    #: Compute-time multiplier for straggler nodes (>= 1).
    straggler_factor: float = 1.0
    # -- LCI packet-pool exhaustion spikes ------------------------------
    #: Pool-exhaustion spikes per second per device (0 = none).
    pool_spike_rate: float = 0.0
    #: Fraction of each packet pool confiscated during a spike.
    pool_spike_fraction: float = 0.9
    #: Length of one spike (s).
    pool_spike_duration: float = 150 * US
    # -- recovery: fabric-level retransmission --------------------------
    #: Initial retransmission timeout (s).
    rto: float = 30 * US
    #: Exponential RTO growth factor per retransmission.
    rto_backoff: float = 2.0
    #: RTO ceiling (s).
    rto_max: float = 2e-3
    #: Deterministic jitter fraction added to each RTO (avoids lockstep).
    rto_jitter: float = 0.25
    #: Retransmission budget per message before the run is declared lost.
    max_retransmits: int = 50
    # -- recovery: backend back-pressure retry backoff ------------------
    #: Exponential growth factor for LCI_ERR_RETRY-style retry delays
    #: (the baseline fixed 0.5 us backoff corresponds to factor 1).
    retry_backoff_factor: float = 2.0
    #: Ceiling on the backend retry delay (s).
    retry_max_delay: float = 16 * US
    #: Deterministic jitter fraction on backend retry delays.
    retry_jitter: float = 0.25

    def __post_init__(self) -> None:
        _no_negative_numbers(self)
        for name in ("drop_rate", "dup_rate", "corrupt_rate", "reorder_rate",
                     "pool_spike_fraction"):
            v = getattr(self, name)
            _require(0.0 <= v <= 1.0, f"FaultConfig.{name} must be in [0, 1] (got {v!r})")
        _require(
            self.degraded_latency_factor >= 1.0,
            f"FaultConfig.degraded_latency_factor must be >= 1 (got {self.degraded_latency_factor!r})",
        )
        _require(
            self.straggler_factor >= 1.0,
            f"FaultConfig.straggler_factor must be >= 1 (got {self.straggler_factor!r})",
        )
        _require(
            self.breaker_threshold >= 1,
            f"FaultConfig.breaker_threshold must be >= 1 (got {self.breaker_threshold!r})",
        )
        _require(
            self.max_retransmits >= 1,
            f"FaultConfig.max_retransmits must be >= 1 (got {self.max_retransmits!r})",
        )
        _require(self.rto > 0, f"FaultConfig.rto must be > 0 (got {self.rto!r})")
        _require(
            self.rto_backoff >= 1.0,
            f"FaultConfig.rto_backoff must be >= 1 (got {self.rto_backoff!r})",
        )
        _require(
            self.rto_max >= self.rto,
            f"FaultConfig.rto_max ({self.rto_max!r}) must be >= rto ({self.rto!r})",
        )
        _require(
            self.retry_backoff_factor >= 1.0,
            f"FaultConfig.retry_backoff_factor must be >= 1 (got {self.retry_backoff_factor!r})",
        )
        _require(
            self.retry_max_delay > 0,
            f"FaultConfig.retry_max_delay must be > 0 (got {self.retry_max_delay!r})",
        )
        for n in self.straggler_nodes:
            _require(
                isinstance(n, int) and n >= 0,
                f"FaultConfig.straggler_nodes entries must be node ranks >= 0 (got {n!r})",
            )


@dataclass(frozen=True)
class SweepConfig(DictCodec):
    """Execution policy for one :mod:`repro.sweep` run (see
    ``docs/performance.md``).

    ``jobs`` counts worker *processes*; 1 keeps everything in-process
    (bit-identical to the historical serial harnesses by construction).
    The cache is content-addressed — entries are keyed by a stable hash of
    the fully resolved point configuration plus the code version — so a
    stale entry can only be served to a byte-identical experiment.
    """

    #: Worker processes executing sweep points (1 = serial, in-process).
    jobs: int = 1
    #: Consult/populate the on-disk result cache.
    cache_enabled: bool = True
    #: Cache root; ``None`` selects ``$REPRO_SWEEP_CACHE_DIR`` or
    #: ``.repro-cache/sweep`` under the working directory.
    cache_dir: "str | None" = None
    #: Re-executions of a failed point before giving up on it.
    retries: int = 1
    #: Abort the whole sweep on the first point that exhausts its retries
    #: (``False`` records the failure and continues).
    fail_fast: bool = True
    #: Wall-clock seconds a supervised worker may stay silent (no
    #: heartbeat) on one point before it is presumed hung, terminated,
    #: and its point retried (parallel path only).
    heartbeat_timeout: float = 30.0

    def __post_init__(self) -> None:
        _require(
            isinstance(self.jobs, int) and self.jobs >= 1,
            f"SweepConfig.jobs must be an int >= 1 (got {self.jobs!r})",
        )
        _require(
            isinstance(self.retries, int) and self.retries >= 0,
            f"SweepConfig.retries must be an int >= 0 (got {self.retries!r})",
        )
        _require(
            isinstance(self.heartbeat_timeout, (int, float))
            and self.heartbeat_timeout > 0,
            "SweepConfig.heartbeat_timeout must be > 0 "
            f"(got {self.heartbeat_timeout!r})",
        )


@dataclass(frozen=True)
class PlatformConfig(DictCodec):
    """A complete simulated platform: nodes, cores, fabric, library costs."""

    name: str = "expanse"
    num_nodes: int = 2
    cores_per_node: int = 128
    network: NetworkConfig = field(default_factory=NetworkConfig)
    mpi: MpiCosts = field(default_factory=MpiCosts)
    lci: LciCosts = field(default_factory=LciCosts)
    runtime: RuntimeCosts = field(default_factory=RuntimeCosts)
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    #: Pin communication/progress threads to dedicated cores (§6.1.2).
    dedicated_comm_cores: bool = True

    def workers_for(self, backend: str, multinode: bool = True) -> int:
        """Worker-thread count per node for a backend, per §6.1.2.

        Single-node runs use every core for computation.  Multi-node runs
        dedicate one core to the communication thread and, for the LCI
        backend, another to the progress thread.
        """
        if not multinode:
            return self.cores_per_node
        reserved = 1 if backend == "mpi" else 2
        return max(1, self.cores_per_node - reserved)

    def with_nodes(self, num_nodes: int) -> "PlatformConfig":
        """Copy of this platform with a different node count."""
        return replace(self, num_nodes=num_nodes)


def expanse_platform(num_nodes: int = 2) -> PlatformConfig:
    """The paper's SDSC Expanse platform (Table 1): 128 cores/node, 2×HDR."""
    return PlatformConfig(name="expanse", num_nodes=num_nodes, cores_per_node=128)


def scaled_platform(num_nodes: int = 2, cores_per_node: int = 8) -> PlatformConfig:
    """Reduced platform for CI-speed benchmarks.

    Fewer worker cores per node keeps the DES event count manageable.  To
    preserve the communication/computation balance, the *node-level* compute
    rate is held constant: each of the ``cores_per_node`` workers is a "fat
    core" delivering ``128 / cores_per_node`` Expanse-cores' worth of flops.
    A node therefore generates the same communication demand per unit of
    compute as a real 128-core Expanse node, so the paper's regime
    boundaries (compute-bound vs. network-bound) appear at the same relative
    places (see EXPERIMENTS.md).  Fabric and software costs are identical to
    :func:`expanse_platform`.
    """
    ref = ComputeConfig()
    factor = 128 / cores_per_node
    return PlatformConfig(
        name=f"expanse-scaled-{cores_per_node}c",
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        compute=ComputeConfig(
            flops_per_core=ref.flops_per_core * factor,
            lr_flops_per_core=ref.lr_flops_per_core * factor,
        ),
    )
