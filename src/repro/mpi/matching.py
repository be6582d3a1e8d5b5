"""Two-sided message matching.

MPI matching semantics: an incoming message matches the earliest posted
receive whose (source, tag) pattern is compatible; a newly posted receive
matches the earliest compatible unexpected message.  Wildcards:
``src=None`` ⇒ ``MPI_ANY_SOURCE``, ``tag=None`` ⇒ ``MPI_ANY_TAG``.

With ``allow_overtaking`` (the MPI-4 ``mpi_assert_allow_overtaking`` info
key, which PaRSEC sets — §4.2.2) the implementation is *permitted* to match
out of order; we additionally use it to model the cheaper matching path
(shorter queue walks) by exposing the walked-entries count to the cost model.

The queues are indexed rather than walked.  The cost model still charges
the linear walk a real implementation does: ``walked`` grows by the
partner's rank in its FIFO queue plus one, or by the queue's length when
nothing matches.  Each queue keeps its live entries in FIFO order with
increasing sequence numbers, so that rank is one ``bisect``.

- Posted receives also sit in a bucket keyed by their ``(src, tag)``
  pattern.  An arrival reads at most four bucket heads — its exact
  pattern, ``(ANY, tag)``, and, while any ``MPI_ANY_TAG`` receive is
  posted, ``(src, ANY)`` and ``(ANY, ANY)`` — and takes the oldest.
- Unexpected envelopes also sit in a bucket by exact ``(src, tag)`` and
  one by tag.  A posted receive reads the head of the bucket its pattern
  selects; ``(ANY, ANY)`` takes the FIFO head.  ``(src, ANY)``, a pattern
  nothing in this repository posts, walks the FIFO instead, so its host
  cost equals the walk it charges.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Optional

from repro.mpi.requests import RecvRequest

__all__ = ["Envelope", "MatchEngine"]


@dataclass(slots=True)
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


def _bucket_del(index: dict, key, seq: int) -> None:
    seqs, items = index[key]
    if len(seqs) == 1:
        del index[key]
    else:
        i = bisect_left(seqs, seq)
        del seqs[i]
        del items[i]


class MatchEngine:
    """Posted-receive and unexpected-message queues for one rank."""

    def __init__(self) -> None:
        self._seq = 0
        # Posted receives: FIFO order (parallel seq/request lists) and
        # buckets keyed by (src, tag) pattern, wildcards as None.
        self._post_seqs: list[int] = []
        self._posted: list[RecvRequest] = []
        self._post_by: dict[tuple, tuple[list, list]] = {}
        #: Posted ``MPI_ANY_TAG`` receives: while there are none, an
        #: arrival reads only the (src, tag) and (ANY, tag) buckets.
        self._any_tag_posts = 0
        # Unexpected envelopes: FIFO order and two buckets per envelope.
        self._unx_seqs: list[int] = []
        self._unexpected: list[Envelope] = []
        self._unx_exact: dict[tuple, tuple[list, list]] = {}
        self._unx_by_tag: dict[int, tuple[list, list]] = {}
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
        src = recv.src
        tag = recv.tag
        unx_seqs = self._unx_seqs
        env = None
        if unx_seqs:
            if tag is not None:
                bucket = (self._unx_by_tag.get(tag) if src is None
                          else self._unx_exact.get((src, tag)))
                if bucket is not None:
                    seq = bucket[0][0]
                    env = bucket[1][0]
                    rank = bisect_left(unx_seqs, seq)
            elif src is None:
                rank = 0
                env = self._unexpected[0]
                seq = unx_seqs[0]
            else:
                # MPI_ANY_TAG from one source has no index: walk the FIFO,
                # paying host time equal to the walk charged.
                for rank, cand in enumerate(self._unexpected):
                    if cand.src == src:
                        env = cand
                        seq = unx_seqs[rank]
                        break
        if env is not None:
            self.walked += rank + 1
            del unx_seqs[rank]
            del self._unexpected[rank]
            e_tag = env.tag
            _bucket_del(self._unx_exact, (env.src, e_tag), seq)
            _bucket_del(self._unx_by_tag, e_tag, seq)
            if self.audit is not None:
                self.audit("post", recv, env)
            return env
        self.walked += len(unx_seqs)
        self._seq = seq = self._seq + 1
        self._post_seqs.append(seq)
        posted = self._posted
        posted.append(recv)
        key = (src, tag)
        bucket = self._post_by.get(key)
        if bucket is None:
            self._post_by[key] = ([seq], [recv])
        else:
            bucket[0].append(seq)
            bucket[1].append(recv)
        if tag is None:
            self._any_tag_posts += 1
        if len(posted) > self.max_posted:
            self.max_posted = len(posted)
        if self.audit is not None:
            self.audit("post", recv, None)
        return None

    def arrive(self, env: Envelope) -> Optional[RecvRequest]:
        """An envelope arrived off the wire; returns the matching posted
        receive if any, else queues the envelope as unexpected."""
        src = env.src
        tag = env.tag
        post_by = self._post_by
        best = None
        if post_by:
            # The oldest head among the patterns this envelope fits.
            key = (src, tag)
            best = post_by.get(key)
            if best is not None:
                best_key = key
                best_seq = best[0][0]
            key = (None, tag)
            bucket = post_by.get(key)
            if bucket is not None and (best is None or bucket[0][0] < best_seq):
                best = bucket
                best_key = key
                best_seq = bucket[0][0]
            if self._any_tag_posts:
                for key in ((src, None), (None, None)):
                    bucket = post_by.get(key)
                    if bucket is not None and (best is None or bucket[0][0] < best_seq):
                        best = bucket
                        best_key = key
                        best_seq = bucket[0][0]
        if best is not None:
            post_seqs = self._post_seqs
            rank = bisect_left(post_seqs, best_seq)
            self.walked += rank + 1
            del post_seqs[rank]
            del self._posted[rank]
            seqs, recvs = best
            recv = recvs[0]
            if len(seqs) == 1:
                del post_by[best_key]
            else:
                del seqs[0]
                del recvs[0]
            if recv.tag is None:
                self._any_tag_posts -= 1
            if self.audit is not None:
                self.audit("arrive", recv, env)
            return recv
        self.walked += len(self._posted)
        self._seq = seq = self._seq + 1
        self._unx_seqs.append(seq)
        unexpected = self._unexpected
        unexpected.append(env)
        key = (src, tag)
        bucket = self._unx_exact.get(key)
        if bucket is None:
            self._unx_exact[key] = ([seq], [env])
        else:
            bucket[0].append(seq)
            bucket[1].append(env)
        bucket = self._unx_by_tag.get(tag)
        if bucket is None:
            self._unx_by_tag[tag] = ([seq], [env])
        else:
            bucket[0].append(seq)
            bucket[1].append(env)
        if len(unexpected) > self.max_unexpected:
            self.max_unexpected = len(unexpected)
        if self.audit is not None:
            self.audit("arrive", None, env)
        return None

    def cancel(self, recv: RecvRequest) -> bool:
        """Remove a posted receive (MPI_Cancel); True when it was queued."""
        for i, queued in enumerate(self._posted):
            if queued is recv:
                break
        else:
            return False
        seq = self._post_seqs[i]
        del self._post_seqs[i]
        del self._posted[i]
        _bucket_del(self._post_by, (recv.src, recv.tag), seq)
        if recv.tag is None:
            self._any_tag_posts -= 1
        if self.audit is not None:
            self.audit("cancel", recv, None)
        return True

    def take_walked(self) -> int:
        """Return and reset the walked-entry counter."""
        n, self.walked = self.walked, 0
        return n

    @property
    def posted(self) -> tuple[RecvRequest, ...]:
        """Posted receives not yet matched, oldest first."""
        return tuple(self._posted)

    @property
    def unexpected(self) -> tuple[Envelope, ...]:
        """Arrived messages awaiting a matching receive, oldest first."""
        return tuple(self._unexpected)

    @property
    def posted_count(self) -> int:
        """Receives posted and not yet matched."""
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        """Arrived messages awaiting a matching receive."""
        return len(self._unexpected)
