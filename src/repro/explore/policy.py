"""Schedule policies: record, replay, and perturb same-timestamp tie-breaks.

The kernel fires runnable entries in FIFO (``seq``) order; any other order
over the *same* runnable set is an equally legal execution of the modelled
protocol.  A **choice point** is a simulator step with two or more runnable
entries; the policies here identify each such step, record the size of the
candidate set (and a best-effort rank scope per candidate, for commutative
pruning), and either replay a positional decision list or sample decisions
from a seeded RNG:

- :class:`ReplayPolicy` — decision ``i`` picks the candidate index at the
  ``i``-th choice point; beyond the list (or the choice budget) it falls
  back to FIFO.  An empty decision list therefore *records* the baseline
  schedule bit-identically.
- :class:`RandomWalkPolicy` — a seeded uniform pick at each budgeted choice
  point; the decisions actually taken are recorded, so any walk can be
  replayed exactly with :class:`ReplayPolicy`.

Both record, per budgeted choice point, ``{"n": candidates, "scopes":
[...]}`` — consumed by the explorer's DFS frontier and its sleep-set-style
pruning (:mod:`repro.explore.explorer`).
"""

from __future__ import annotations

import random
import re
from typing import Optional

from repro.sim.core import K_CALL, K_EVT, K_RESUME, SchedulePolicy, noop  # noqa: F401

__all__ = [
    "MAX_BRANCH",
    "ReplayPolicy",
    "RandomWalkPolicy",
    "scope_of",
]

#: Candidates considered per choice point: alternatives beyond the first
#: few rarely reach new protocol states but multiply the search space.
MAX_BRANCH = 4

_THREAD_NAME = re.compile(r"^n(\d+)(?:w|comm|prog)")


def scope_of(entry) -> Optional[frozenset]:
    """Best-effort set of node ranks a runnable entry touches.

    Used for commutative pruning: two same-time entries whose scopes are
    disjoint cannot observe each other's effects, so swapping them yields
    an equivalent execution.  Returns ``None`` when the scope cannot be
    determined — unknown entries conservatively conflict with everything.

    Accepts both the batched kernel's kind-coded ``(seq, kind, a, b, c)``
    entries and the legacy kernel's ``(seq, event, fn, args)`` shape
    (selected via ``REPRO_SIM_CORE=legacy``).
    """
    if type(entry[1]) is int:
        _seq, kind, a, b, _c = entry
        if kind == K_RESUME:
            # A typed sleep wake-up touches exactly the owning thread's
            # rank (the same scope the legacy Timeout + ``_resume``
            # callback pair resolved to).
            rank = _owner_rank(a)
            return None if rank is None else frozenset((rank,))
        event = a if kind == K_EVT else None
        fn = a if kind == K_CALL else None
        args = b if kind == K_CALL else ()
    else:
        _seq, event, fn, args = entry
    if fn is noop:
        # An inert entry (MPI request completion) observes nothing, like an
        # event with no callbacks.
        return frozenset()
    if fn is not None:
        ranks = set()
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            rank = _owner_rank(owner)
            if rank is None:
                return None
            ranks.add(rank)
        for arg in args:
            src = getattr(arg, "src", None)
            dst = getattr(arg, "dst", None)
            if isinstance(src, int) and isinstance(dst, int):
                ranks.update((src, dst))
        return frozenset(ranks) if ranks else None
    if event is not None:
        callbacks = event.callbacks
        if not callbacks:
            return frozenset()
        ranks = set()
        for cb in callbacks:
            owner = getattr(cb, "__self__", None)
            rank = _owner_rank(owner) if owner is not None else None
            if rank is None:
                return None
            ranks.add(rank)
        return frozenset(ranks)
    return None


def _owner_rank(owner) -> Optional[int]:
    """The node rank an object belongs to, if it names one."""
    for attr in ("rank", "node"):
        value = getattr(owner, attr, None)
        if isinstance(value, int):
            return value
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        match = _THREAD_NAME.match(name)
        if match:
            return int(match.group(1))
    return None


class _TracingPolicy(SchedulePolicy):
    """Shared bookkeeping: number choice points, record sites and decisions.

    ``sites`` holds one ``{"n", "scopes"}`` record per *budgeted* choice
    point (scope extraction stops at :data:`MAX_BRANCH` candidates);
    ``taken`` holds the decision actually applied at each of them;
    ``total_sites`` counts every choice point seen, budgeted or not.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.sites: list = []
        self.taken: list = []
        self.total_sites = 0

    def choose(self, sim, ready) -> int:
        """Record the site, delegate the decision, record what was taken."""
        site = self.total_sites
        self.total_sites += 1
        if site >= self.budget:
            return 0
        n = len(ready)
        limit = min(n, MAX_BRANCH)
        self.sites.append({
            "n": n,
            "scopes": [
                sorted(s) if (s := scope_of(ready[i])) is not None else None
                for i in range(limit)
            ],
        })
        idx = self._decide(site, n)
        if not 0 <= idx < n:
            idx = 0
        self.taken.append(idx)
        return idx

    def _decide(self, site: int, n: int) -> int:
        """The policy-specific decision for choice point ``site``."""
        raise NotImplementedError


class ReplayPolicy(_TracingPolicy):
    """Replay a positional decision list; FIFO beyond it.

    ``decisions[i]`` is the candidate index taken at the ``i``-th choice
    point; out-of-range decisions (the runnable set can be smaller on a
    divergent schedule) clamp to FIFO.  ``ReplayPolicy([], budget)`` is the
    recording baseline: pure FIFO, sites logged.
    """

    def __init__(self, decisions, budget: int):
        super().__init__(budget)
        self.decisions = list(decisions)

    def _decide(self, site: int, n: int) -> int:
        """The pinned decision, or FIFO past the end of the list."""
        if site < len(self.decisions):
            return self.decisions[site]
        return 0


class RandomWalkPolicy(_TracingPolicy):
    """Uniform seeded pick at each budgeted choice point.

    The applied decisions accumulate in ``taken``, so a failing walk is
    replayable as ``ReplayPolicy(walk.taken, budget)``.
    """

    def __init__(self, seed: int, budget: int):
        super().__init__(budget)
        self.seed = seed
        self._rng = random.Random(seed)

    def _decide(self, site: int, n: int) -> int:
        """A uniform pick among the first :data:`MAX_BRANCH` candidates."""
        return self._rng.randrange(min(n, MAX_BRANCH))
