"""Columnar request batches and the chunk FIFO the traffic plane queues in.

The hot path never builds one object per request. A tenant's arrivals
for one cycle are one :class:`RequestBatch` — the tenant, the issue time
and the request sizes as an ``array('q')`` — and ``len()`` of a batch is
its request count. Both queueing points hold batches:

* the QoS admission queue (:mod:`repro.traffic.qos`) releases *whole
  requests* against a token budget (:meth:`ChunkQueue.release`);
* the T-CONT and downstream backlog (:mod:`repro.traffic.dba`,
  :mod:`repro.traffic.downstream`) drains *bytes* against a grant, and a
  grant may end inside a request (GEM fragmentation;
  :meth:`ChunkQueue.drain`).

Both are one :class:`ChunkQueue`: a deque of batch chunks plus a head
offset (the index of the first pending request in the head chunk and
the bytes of it already carried). A drain reports its completions as
``(issued_at, count)`` runs (:class:`Completions`), not as objects.

:class:`Request` is the per-request view of the same data — what
:meth:`QosEnforcer.submit <repro.traffic.qos.QosEnforcer.submit>` takes
and what iterating a batch or a queue yields.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, List, Tuple

__all__ = ["Request", "RequestBatch", "Completions", "ChunkQueue"]

# (issued_at, count): ``count`` consecutive requests issued at one time.
Run = Tuple[float, int]


@dataclass(frozen=True)
class Request:
    """One upstream transfer request a tenant wants carried over the PON."""

    tenant: str
    size_bytes: int
    issued_at: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("request size must be positive")


class RequestBatch:
    """Requests of one tenant issued at one time, sizes held columnar.

    ``nbytes`` is the sum of ``sizes``. A batch handed to a queue is
    never mutated by it.
    """

    __slots__ = ("tenant", "issued_at", "sizes", "nbytes")

    def __init__(self, tenant: str, issued_at: float,
                 sizes: Iterable[int] = ()) -> None:
        if not isinstance(sizes, array):
            sizes = array("q", sizes)
        if sizes and min(sizes) <= 0:
            raise ValueError("request size must be positive")
        self.tenant = tenant
        self.issued_at = issued_at
        self.sizes = sizes
        self.nbytes = sum(sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[Request]:
        for size in self.sizes:
            yield Request(self.tenant, size, self.issued_at)

    def __repr__(self) -> str:
        return (f"RequestBatch({self.tenant!r}, {self.issued_at!r}, "
                f"{list(self.sizes)!r})")


class Completions:
    """The requests one drain completed, as ``(issued_at, count)`` runs.

    Runs are in FIFO order; ``len()`` is the number of requests, and
    every one of them completed at ``completed_at``.
    """

    __slots__ = ("completed_at", "runs", "_count")

    def __init__(self, completed_at: float, runs: List[Run],
                 count: int) -> None:
        self.completed_at = completed_at
        self.runs = runs
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Completions):
            return NotImplemented
        return (self.completed_at == other.completed_at
                and self.runs == other.runs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Completions({self.completed_at!r}, {self.runs!r})"

    def latencies(self) -> List[Run]:
        """``(latency_s, count)`` runs: queueing latency per run."""
        completed_at = self.completed_at
        return [(completed_at - issued_at, count)
                for issued_at, count in self.runs]


class ChunkQueue:
    """One tenant's FIFO of request chunks with a head offset.

    ``queued_bytes`` counts the bytes still to be carried (a fragmented
    head request counts only its remainder) and ``len()`` the requests
    not yet complete.
    """

    __slots__ = ("queued_bytes", "_chunks", "_count", "_head", "_head_done",
                 "_head_sent")

    def __init__(self) -> None:
        self.queued_bytes = 0
        self._chunks: Deque[RequestBatch] = deque()
        self._count = 0
        self._head = 0          # first pending request of _chunks[0]
        self._head_done = 0     # bytes of _chunks[0] before that request
        self._head_sent = 0     # bytes of that request already carried

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Request]:
        """Every pending request, head first, at its full size."""
        head = self._head
        for chunk in self._chunks:
            for size in chunk.sizes[head:]:
                yield Request(chunk.tenant, size, chunk.issued_at)
            head = 0

    # -- enqueue --------------------------------------------------------------

    def push(self, batch: RequestBatch) -> None:
        """Enqueue a whole batch as one chunk (empty batches are skipped)."""
        if batch.sizes:
            self._chunks.append(batch)
            self.queued_bytes += batch.nbytes
            self._count += len(batch.sizes)

    # -- dequeue --------------------------------------------------------------

    def _pop_head(self) -> None:
        self._chunks.popleft()
        self._head = self._head_done = self._head_sent = 0

    def release(self, tokens: float) -> Tuple[List[RequestBatch], float]:
        """Dequeue whole requests while each fits the remaining ``tokens``.

        Spends are subtracted one request at a time, in FIFO order (float
        spends do not commute). Returns the released requests as batches
        and the tokens left. For queues that never fragment (QoS).
        """
        released: List[RequestBatch] = []
        chunks = self._chunks
        while chunks:
            chunk = chunks[0]
            sizes = chunk.sizes
            start = end = self._head
            count = len(sizes)
            while end < count:
                size = sizes[end]
                if size > tokens:
                    break
                tokens -= size
                end += 1
            if end == start:
                break
            if start == 0 and end == count:
                part = chunk
            else:
                part = RequestBatch(chunk.tenant, chunk.issued_at,
                                    sizes[start:end])
            released.append(part)
            self.queued_bytes -= part.nbytes
            self._count -= end - start
            if end < count:
                self._head = end
                self._head_done += part.nbytes
                break
            self._pop_head()
        return released, tokens

    def drain(self, granted: int) -> Tuple[int, List[Run], int]:
        """Carry up to ``granted`` bytes from the head.

        A request completes when its last byte is carried; a grant that
        ends inside a request leaves the remainder at the head. Returns
        ``(sent, runs, completed)``: the bytes carried, the completed
        requests as ``(issued_at, count)`` runs and their number.
        """
        sent = completed = 0
        runs: List[Run] = []
        chunks = self._chunks
        while granted > 0 and chunks:
            chunk = chunks[0]
            sizes = chunk.sizes
            head = self._head
            left = chunk.nbytes - self._head_done - self._head_sent
            if left <= granted:
                granted -= left
                sent += left
                runs.append((chunk.issued_at, len(sizes) - head))
                completed += len(sizes) - head
                self._pop_head()
                continue
            # The grant ends inside this chunk, so the walk below stops
            # before its last request.
            start = head
            pending = sizes[head] - self._head_sent
            while pending <= granted:
                granted -= pending
                sent += pending
                self._head_done += sizes[head]
                self._head_sent = 0
                head += 1
                pending = sizes[head]
            if head > start:
                runs.append((chunk.issued_at, head - start))
                completed += head - start
            self._head = head
            self._head_sent += granted
            sent += granted
            granted = 0
        self.queued_bytes -= sent
        self._count -= completed
        return sent, runs, completed
