"""Two-sided message matching.

MPI matching semantics: an incoming message matches the earliest posted
receive whose (source, tag) pattern is compatible; a newly posted receive
matches the earliest compatible unexpected message.  Wildcards:
``src=None`` ⇒ ``MPI_ANY_SOURCE``, ``tag=None`` ⇒ ``MPI_ANY_TAG``.

With ``allow_overtaking`` (the MPI-4 ``mpi_assert_allow_overtaking`` info
key, which PaRSEC sets — §4.2.2) the implementation is *permitted* to match
out of order; we additionally use it to model the cheaper matching path
(shorter queue walks) by exposing the walked-entries count to the cost model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.requests import RecvRequest

__all__ = ["Envelope", "MatchEngine"]


@dataclass
class Envelope:
    """Metadata of an arrived-but-unmatched message (header only for
    rendezvous; carries data reference for eager)."""

    src: int
    tag: int
    size: int
    kind: str  # "eager" | "rts"
    payload: Any = None
    sreq_id: int = -1


def _compatible(recv: RecvRequest, src: int, tag: int) -> bool:
    return (recv.src is None or recv.src == src) and (
        recv.tag is None or recv.tag == tag
    )


class MatchEngine:
    """Posted-receive and unexpected-message queues for one rank."""

    def __init__(self) -> None:
        self.posted: deque[RecvRequest] = deque()
        self.unexpected: deque[Envelope] = deque()
        #: Queue entries walked since last reset — feeds the match-cost model.
        self.walked = 0
        #: High-watermarks, sampled by the observability layer at run end.
        self.max_posted = 0
        self.max_unexpected = 0
        #: Optional soundness audit: ``audit(op, recv, env)`` is invoked on
        #: every ``post``/``arrive`` with the match partner (``None`` when
        #: the request/envelope was queued instead).  Installed by the
        #: schedule explorer's matching-soundness invariant; ``None`` (the
        #: default) costs one attribute test per operation.
        self.audit = None

    def post_recv(self, recv: RecvRequest) -> Optional[Envelope]:
        """Post a receive; returns the matching unexpected envelope if one
        was already waiting, else queues the receive."""
        for i, env in enumerate(self.unexpected):
            self.walked += 1
            if _compatible(recv, env.src, env.tag):
                del self.unexpected[i]
                if self.audit is not None:
                    self.audit("post", recv, env)
                return env
        self.posted.append(recv)
        if len(self.posted) > self.max_posted:
            self.max_posted = len(self.posted)
        if self.audit is not None:
            self.audit("post", recv, None)
        return None

    def arrive(self, env: Envelope) -> Optional[RecvRequest]:
        """An envelope arrived off the wire; returns the matching posted
        receive if any, else queues the envelope as unexpected."""
        src = env.src
        tag = env.tag
        for i, recv in enumerate(self.posted):
            self.walked += 1
            # _compatible(recv, src, tag), inlined: the hottest MPI loop.
            r_src = recv.src
            r_tag = recv.tag
            if (r_src is None or r_src == src) and (r_tag is None or r_tag == tag):
                del self.posted[i]
                if self.audit is not None:
                    self.audit("arrive", recv, env)
                return recv
        self.unexpected.append(env)
        if len(self.unexpected) > self.max_unexpected:
            self.max_unexpected = len(self.unexpected)
        if self.audit is not None:
            self.audit("arrive", None, env)
        return None

    def cancel(self, recv: RecvRequest) -> bool:
        """Remove a posted receive (MPI_Cancel); True when it was queued."""
        try:
            self.posted.remove(recv)
            if self.audit is not None:
                self.audit("cancel", recv, None)
            return True
        except ValueError:
            return False

    def take_walked(self) -> int:
        """Return and reset the walked-entry counter."""
        n, self.walked = self.walked, 0
        return n

    @property
    def posted_count(self) -> int:
        """Receives posted and not yet matched."""
        return len(self.posted)

    @property
    def unexpected_count(self) -> int:
        """Arrived messages awaiting a matching receive."""
        return len(self.unexpected)
