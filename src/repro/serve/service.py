"""Non-blocking request service: bounded inbox, admission, coalescing.

The paper's SDDS servers (LH*/RP* buckets) must serve thousands of
concurrent clients without blocking; this module is the serving plane's
per-bucket request queue.  Each request costs a modelled service time
on the node's single "CPU", so requests queue.  The service then
enforces *admission control*: a request is *shed* (an explicit
rejection the client backs off on, never a silent drop) when the inbox
is full (queue-depth shedding) or when the queue's deterministic
completion estimate already overruns the request's deadline (deadline
shedding -- rejecting work that would be dead on arrival is what keeps
goodput flat past saturation).

Same-key read **coalescing** rides the queue: while a ``read`` request
for key K is waiting, later reads of K attach to it as riders and the
whole group costs one execution -- the hot-key pile-up that saturates a
Zipf-loaded bucket collapses back into one bucket access.

The service never touches wire formats or buckets; executors and shed
handlers are injected callbacks, keeping this module dependency-free
(event loop + metrics only) and unit-testable in isolation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import ReproError
from ..obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - the loop is duck-typed at runtime
    from ..cluster.events import EventLoop


class ServiceError(ReproError):
    """Service misconfiguration or protocol misuse."""


@dataclass(frozen=True, slots=True)
class ServicePolicy:
    """How a node admits, queues, and charges for requests."""

    inbox_limit: int = 0          #: max queued requests (0 = unbounded)
    service_seconds: float = 0.0  #: modelled CPU cost per request (s)

    def __post_init__(self) -> None:
        if self.inbox_limit < 0:
            raise ValueError("inbox limit cannot be negative")
        if self.service_seconds < 0:
            raise ValueError("service cost cannot be negative")

    @classmethod
    def serving(cls, rate: float, inbox_limit: int = 64) -> "ServicePolicy":
        """A queued policy with capacity ``rate`` requests/second."""
        if rate <= 0:
            raise ValueError("service rate must be positive")
        return cls(inbox_limit=inbox_limit, service_seconds=1.0 / rate)


class ServeRequest:
    """One admitted unit of work flowing through a :class:`RequestService`.

    ``meta`` is an opaque slot for the caller's bookkeeping (request id,
    trace context, reply route); the service itself only reads ``key``,
    ``read`` and ``deadline``.  ``riders`` collects coalesced
    same-key reads that share this request's execution.
    """

    __slots__ = ("op", "key", "value", "read", "deadline",
                 "meta", "riders", "accepted_at")

    def __init__(self, op: int, key: int, value: bytes = b"",
                 read: bool = False, deadline: float = 0.0, meta=None):
        self.op = op
        self.key = key
        self.value = value
        self.read = read
        self.deadline = deadline
        self.meta = meta
        self.riders: list["ServeRequest"] = []
        self.accepted_at = 0.0

    def __repr__(self) -> str:
        return (f"ServeRequest(op={self.op}, key={self.key}, "
                f"read={self.read}, riders={len(self.riders)})")


class RequestService:
    """Bounded, deadline-aware, coalescing request queue for one node.

    ``execute(request)`` is the injected completion callback: it applies
    the operation and answers the request *and its riders*.  ``shed``
    (optional) is called with ``(request, reason)`` for every rejected
    request; reasons are ``"queue"`` and ``"deadline"``.
    """

    def __init__(self, name: str, loop: EventLoop, policy: ServicePolicy,
                 execute: Callable[[ServeRequest], None],
                 shed: Callable[[ServeRequest, str], None] | None = None):
        self.name = name
        self.loop = loop
        self.policy = policy
        self._execute = execute
        self._shed = shed
        self._queue: deque[ServeRequest] = deque()
        self._reads: dict[int, ServeRequest] = {}
        self._busy = False
        #: Deterministic estimate of when the current backlog drains.
        self._finish_at = 0.0
        self.served = 0
        self.coalesced = 0
        self.sheds = {"queue": 0, "deadline": 0}
        self.max_depth = 0

    @property
    def depth(self) -> int:
        """Requests waiting or executing right now."""
        return len(self._queue) + (1 if self._busy else 0)

    def offer(self, request: ServeRequest) -> bool:
        """Admit (or coalesce, or shed) one request; True when admitted."""
        policy = self.policy
        now = self.loop.clock.now
        if request.read:
            head = self._reads.get(request.key)
            if head is not None:
                head.riders.append(request)
                self.coalesced += 1
                get_registry().counter("serve.coalesced",
                                       node=self.name).inc()
                return True
        start = max(now, self._finish_at)
        finish = start + policy.service_seconds
        if request.deadline and finish > request.deadline:
            self._drop(request, "deadline")
            return False
        if policy.inbox_limit and len(self._queue) >= policy.inbox_limit:
            self._drop(request, "queue")
            return False
        request.accepted_at = now
        self._queue.append(request)
        self._finish_at = finish
        if request.read:
            self._reads[request.key] = request
        depth = self.depth
        if depth > self.max_depth:
            self.max_depth = depth
        get_registry().gauge("serve.queue_depth", node=self.name).set(depth)
        if not self._busy:
            self._drain()
        return True

    def _drop(self, request: ServeRequest, reason: str) -> None:
        self.sheds[reason] += 1
        get_registry().counter("serve.sheds", node=self.name,
                               reason=reason).inc()
        if self._shed is not None:
            self._shed(request, reason)

    def _drain(self) -> None:
        if self._busy or not self._queue:
            return
        request = self._queue.popleft()
        if request.read and self._reads.get(request.key) is request:
            # Reads arriving while this one executes must queue afresh:
            # the result is computed now, they would observe later state.
            del self._reads[request.key]
        self._busy = True
        self.loop.after(self.policy.service_seconds,
                        lambda: self._complete(request))

    def _complete(self, request: ServeRequest) -> None:
        self._busy = False
        self.served += 1 + len(request.riders)
        registry = get_registry()
        wait = self.loop.clock.now - request.accepted_at
        registry.histogram("serve.wait_seconds", node=self.name).observe(wait)
        registry.gauge("serve.queue_depth", node=self.name).set(self.depth)
        self._execute(request)
        self._drain()
