"""The PaRSEC-like asynchronous many-task runtime.

This package reproduces the runtime architecture the paper describes:

- :mod:`repro.runtime.taskpool` — distributed task graphs with dataflows;
- :mod:`repro.runtime.comm_engine` — the communication-engine API of
  Listing 1 (``tag_reg`` / ``send_am`` / ``put`` / ``progress``);
- :mod:`repro.runtime.mpi_backend` — the MPI backend of §4.2 (persistent
  receives, the 30-transfer global request array, ``MPI_Testsome`` polling,
  deferred sends and dynamically allocated receives);
- :mod:`repro.runtime.lci_backend` — the LCI backend of §5.3 (dedicated
  progress thread, tag hash table, eager-data-in-handshake puts, dual
  completion FIFOs drained with 5-AM fairness);
- :mod:`repro.runtime.node` — per-node runtime: worker threads, priority
  scheduler, the communication thread of §4.3 with ACTIVATE aggregation and
  deferred GET DATA queues, binomial-tree dataflow multicast (Fig. 1);
- :mod:`repro.runtime.context` — :class:`ParsecContext`, which wires a
  platform + backend together and executes a task graph, returning
  :class:`RunStats` (time-to-solution, per-flow end-to-end latencies, ...).
"""

from repro.runtime.taskpool import TaskGraph
from repro.runtime.comm_engine import CommEngine, TAG_ACTIVATE, TAG_GETDATA, TAG_PUT_COMPLETE
from repro.runtime.context import ParsecContext, RunStats
from repro.runtime.scheduler import CentralScheduler
from repro.runtime.node import NodeRuntime, binomial_tree

__all__ = [
    "TaskGraph",
    "CommEngine",
    "TAG_ACTIVATE",
    "TAG_GETDATA",
    "TAG_PUT_COMPLETE",
    "ParsecContext",
    "RunStats",
    "CentralScheduler",
    "NodeRuntime",
    "binomial_tree",
]
