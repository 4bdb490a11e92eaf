"""The serving plane: LH*/RP* buckets taking open-loop traffic live.

A :class:`ServingPlane` assembles, on one deterministic event loop:

* N **bucket nodes**, each a server of an
  :class:`~repro.sdds.file.LHFile` or :class:`~repro.sdds.rp.RPFile`
  behind a queued :class:`~repro.serve.service.RequestService` -- the
  modelled single-CPU server with admission control;
* thousands of **sessions** -- lightweight non-blocking clients that
  submit, time out, back off on ``SHED``, and learn addressing through
  LH*/RP* Image Adjustment Messages, all without ever blocking the
  loop (unlike :class:`~repro.cluster.runtime.ClusterClient`, whose
  one-op-at-a-time retry loop *drives* the loop);
* live **splits**: the file's own LH*/RP* split runs from the event
  loop while requests for the moving keys sit in their queues.

Correctness under a racing split rests on two re-checks: a node
verifies ownership at *delivery* (forwarding misdirected frames, the
[LNS96] at-most-two-hops walk) and again at *execution* (a key that
moved while the request queued is forwarded, never answered from the
wrong bucket).  The plane keeps a ground-truth oracle keyed by
execution order; :meth:`verify` re-renders every bucket from the
oracle and compares algebraic signatures of the canonical images, so
"no acked operation was lost" is certified by the paper's own
machinery rather than by trusting the data structures.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort

from ..obs import MetricsRegistry, get_registry
from ..sdds.file import LHFile
from ..sdds.lh import ClientImage
from ..sdds.rp import KEY_SPACE, RPFile
from ..sdds.record import Record
from ..sdds.server import SDDSServer
from ..sig.scheme import AlgebraicSignatureScheme, make_scheme
from ..sim.clock import SimClock
from ..sim.network import NetworkModel, SimNetwork
from ..cluster import wire as cwire
from ..cluster.events import EventLoop
from ..cluster.faults import FaultPlan
from ..cluster.network import FaultyNetwork
from ..cluster.node import serialize_bucket
from ..cluster.retry import RetryPolicy
from ..errors import ReproError
from . import wire as swire
from .ops import MUTATING_EFFECTS, apply_operation
from .service import RequestService, ServeRequest, ServicePolicy

#: Knuth's multiplicative hash constant: an odd multiplier, so
#: ``index -> key`` is a bijection on u32 and keys spread uniformly
#: over both the LH* hash space and the RP* key range.
_KEY_MIX = 2654435761


def key_for(index: int) -> int:
    """Deterministic workload-index -> 32-bit key mapping."""
    return (index * _KEY_MIX) & 0xFFFFFFFF


class ServeError(ReproError):
    """Serving-plane configuration or invariant failure."""


class BucketNode:
    """One serving bucket: a file server + request service + routing."""

    def __init__(self, plane: "ServingPlane", bucket_id: int):
        self.plane = plane
        self.bucket_id = bucket_id
        self.server = plane.file.servers[bucket_id]
        self.service = RequestService(self.name, plane.loop, plane.policy,
                                      execute=self._finish,
                                      shed=self._shed)
        #: request_id -> sealed reply (at-least-once replay).
        self._reply_cache: dict[int, bytes] = {}
        #: request ids queued or executing (duplicate suppression).
        self._inflight: set[int] = set()
        self.split_pending = False

    @property
    def name(self) -> str:
        """Network name of this bucket node (``b<id>``)."""
        return f"b{self.bucket_id}"

    @property
    def level(self) -> int:
        """LH* bucket level (meaningless under RP*)."""
        return self.server.bucket.level

    @property
    def bounds(self) -> tuple[int, int]:
        """RP* key range ``[low, high)``; the whole key space under LH*."""
        if self.plane.family == "rp":
            return self.server.low, self.server.high
        return 0, KEY_SPACE

    def owns(self, key: int) -> bool:
        """True when ``key`` belongs to this bucket right now."""
        return self.forward_target(key) is None

    def forward_target(self, key: int) -> int | None:
        """Bucket to forward ``key`` to, or None when it belongs here."""
        if self.plane.family == "lh":
            return self.plane.file.addressing.server_forward(
                key, self.bucket_id, self.level)
        return self.server.forward_target(key)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def receive_request(self, data: bytes, forwarded: bool = False) -> None:
        """One delivered (possibly forwarded) serve request frame."""
        plane = self.plane
        registry = get_registry()
        body = cwire.unseal(plane.scheme, data)
        if body is None:
            registry.counter("serve.corruptions_detected",
                             where="request").inc()
            return
        op, request_id, key, deadline, value = swire.decode_request(body)
        session = plane.session_for(request_id)
        cached = self._reply_cache.get(request_id)
        if cached is not None:
            registry.counter("serve.replays", node=self.name).inc()
            self._transmit_reply(session, cached)
            return
        if request_id in self._inflight:
            # A timeout retransmit raced the queue; the queued copy
            # will answer.  Dropping (not re-queueing) is what keeps
            # retries from amplifying the very backlog they suffer.
            registry.counter("serve.duplicates", node=self.name).inc()
            return
        target = self.forward_target(key)
        if target is not None:
            registry.counter("serve.forwards", node=self.name).inc()
            if plane.family == "lh":
                # LH* IAM: the *first wrong* server reports its own
                # level/address; the client image adjustment never
                # overshoots the true file state.
                self._send_iam(session, self.bucket_id, self.level,
                               *self.bounds)
            plane.forward_frame(self, target, data)
            return
        if forwarded and plane.family == "rp":
            # RP* IAM: the owning server reports its range.
            self._send_iam(session, self.bucket_id, 0, *self.bounds)
        request = ServeRequest(op, key, value,
                               read=(op == cwire.OP_SEARCH),
                               deadline=deadline,
                               meta=(request_id, data))
        self._inflight.add(request_id)
        self.service.offer(request)

    def _shed(self, request: ServeRequest, reason: str) -> None:
        """Admission refused: answer SHED explicitly (never a silent drop)."""
        request_id, _frame = request.meta
        self._inflight.discard(request_id)
        session = self.plane.session_for(request_id)
        reply = swire.encode_reply(cwire.ST_SHED, request_id, self.bucket_id,
                                   self.level, *self.bounds)
        # Shed replies are not cached: a backed-off retry of the same
        # request id must be allowed to execute once load subsides.
        self._transmit_reply(session, cwire.seal(self.plane.scheme, reply))

    def _finish(self, request: ServeRequest) -> None:
        """Execute one request (plus coalesced riders) at queue head."""
        plane = self.plane
        request_id, frame = request.meta
        self._inflight.discard(request_id)
        target = self.forward_target(request.key)
        if target is not None:
            # The key moved while the request queued (a live split won
            # the race).  Forward every frame of the group; the new
            # owner answers -- never this bucket, which would serve
            # stale or vanished data.
            registry = get_registry()
            for member in (request, *request.riders):
                member_id, member_frame = member.meta
                self._inflight.discard(member_id)
                registry.counter("serve.requeues", node=self.name).inc()
                plane.forward_frame(self, target, member_frame)
            return
        status, reply_value, effect = apply_operation(
            self.server, plane.scheme, request.op, request.key, request.value)
        plane.record_execution(self, request, status, effect)
        for member in (request, *request.riders):
            member_id, _frame = member.meta
            self._inflight.discard(member_id)
            reply = swire.encode_reply(status, member_id, self.bucket_id,
                                       self.level, *self.bounds,
                                       reply_value)
            sealed = cwire.seal(plane.scheme, reply)
            self._reply_cache[member_id] = sealed
            self._transmit_reply(plane.session_for(member_id), sealed)

    def _transmit_reply(self, session: "Session", sealed: bytes) -> None:
        self.plane.faulty_network.transmit(
            self.name, session.name, swire.REPLY_KIND, sealed,
            session.receive_reply,
        )

    def _send_iam(self, session: "Session", bucket: int, level: int,
                  low: int, high: int) -> None:
        get_registry().counter("serve.iams", node=self.name).inc()
        sealed = cwire.seal(self.plane.scheme,
                            swire.encode_iam(bucket, level, low, high))
        self.plane.faulty_network.transmit(
            self.name, session.name, swire.IAM_KIND, sealed,
            session.receive_iam,
        )


class _PendingOp:
    """Session-side state of one in-flight logical operation."""

    __slots__ = ("op", "key", "start", "sealed", "budget", "timer",
                 "attempts", "step")

    def __init__(self, op: int, key: int, start: float, sealed: bytes,
                 budget, step: int):
        self.op = op
        self.key = key
        self.start = start
        self.sealed = sealed
        self.budget = budget
        self.timer = None
        self.attempts = 0
        self.step = step


class Session:
    """One non-blocking client session: submit, back off, learn, record.

    Sessions never drive the event loop; every continuation (timeout,
    shed backoff, reply) is a scheduled callback, which is what lets
    thousands of them stay concurrently in flight on one loop.
    """

    __slots__ = ("plane", "index", "name", "_seq", "pending",
                 "image", "_bounds", "_owners", "_rng", "served")

    def __init__(self, plane: "ServingPlane", index: int):
        self.plane = plane
        self.index = index
        self.name = f"s{index}"
        self._seq = 0
        self.pending: dict[int, _PendingOp] = {}
        #: LH* image snapshot (refined by IAMs).
        self.image = ClientImage(plane.file.state.level,
                                 plane.file.state.pointer) \
            if plane.family == "lh" else None
        #: RP* image: sorted range lows and their owning buckets.
        if plane.family == "rp":
            pairs = sorted((node.bounds[0], node.bucket_id)
                           for node in plane.nodes)
            self._bounds = [low for low, _ in pairs]
            self._owners = [owner for _, owner in pairs]
        else:
            self._bounds = []
            self._owners = []
        self._rng = random.Random(f"{plane.seed}|{self.name}|retry")
        self.served = 0

    def guess(self, key: int) -> BucketNode:
        """The bucket this session's image addresses ``key`` to."""
        plane = self.plane
        if plane.family == "lh":
            address = plane.file.addressing.client_address(
                key, self.image.level, self.image.pointer)
            return plane.nodes[address]
        index = bisect_right(self._bounds, key) - 1
        return plane.nodes[self._owners[index]]

    def submit(self, op: int, key: int, value: bytes = b"") -> None:
        """Fire one open-loop operation (non-blocking)."""
        plane = self.plane
        now = plane.loop.clock.now
        request_id = (self.index << 32) | self._seq
        self._seq += 1
        budget = plane.retry.begin(now)
        deadline = 0.0 if plane.retry.op_deadline is None \
            else now + plane.retry.op_deadline
        sealed = cwire.seal(plane.scheme, swire.encode_request(
            op, request_id, key, deadline, value))
        pending = _PendingOp(op, key, now, sealed, budget, plane.step)
        self.pending[request_id] = pending
        plane.op_started()
        self._send(request_id, pending)

    def _send(self, request_id: int, pending: _PendingOp) -> None:
        plane = self.plane
        now = plane.loop.clock.now
        attempt = pending.budget.spend()
        pending.attempts = attempt + 1
        if attempt:
            get_registry().counter("serve.client_retries").inc()
        target = self.guess(pending.key)
        plane.faulty_network.transmit(
            self.name, target.name, swire.REQUEST_KIND, pending.sealed,
            target.receive_request,
        )
        wait = pending.budget.attempt_timeout(attempt, self._rng, now)
        pending.timer = plane.loop.after(
            wait, lambda: self._timeout(request_id))

    def _timeout(self, request_id: int) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return
        get_registry().counter("serve.client_timeouts").inc()
        if pending.budget.allow(self.plane.loop.clock.now):
            self._send(request_id, pending)
        else:
            self._fail(request_id, pending, "timeout")

    def _backoff_resend(self, request_id: int) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return
        if pending.budget.allow(self.plane.loop.clock.now):
            self._send(request_id, pending)
        else:
            self._fail(request_id, pending, "shed")

    def _fail(self, request_id: int, pending: _PendingOp,
              reason: str) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        del self.pending[request_id]
        get_registry().counter("serve.client_failures", reason=reason).inc()
        self.plane.record_failure(self, pending, reason)

    # ------------------------------------------------------------------
    # Inbound frames
    # ------------------------------------------------------------------

    def receive_reply(self, data: bytes) -> None:
        """Handle a sealed reply frame: resolve, shed-backoff, or drop."""
        plane = self.plane
        registry = get_registry()
        body = cwire.unseal(plane.scheme, data)
        if body is None:
            registry.counter("serve.corruptions_detected",
                             where="reply").inc()
            return
        status, request_id, _bucket, _level, _low, _high, value = \
            swire.decode_reply(body)
        pending = self.pending.get(request_id)
        if pending is None:
            registry.counter("serve.stale_replies").inc()
            return
        now = plane.loop.clock.now
        if status == cwire.ST_SHED:
            pending.timer.cancel()
            registry.counter("serve.client_sheds").inc()
            if pending.budget.allow(now):
                # Back off along the same ladder a timeout would use --
                # shedding must *reduce* inbound pressure, not turn the
                # client into an immediate-retry battering ram.
                wait = pending.budget.attempt_timeout(
                    min(pending.attempts,
                        plane.retry.max_attempts - 1),
                    self._rng, now)
                pending.timer = plane.loop.after(
                    wait, lambda: self._backoff_resend(request_id))
            else:
                self._fail(request_id, pending, "shed")
            return
        pending.timer.cancel()
        del self.pending[request_id]
        self.served += 1
        plane.record_completion(self, pending, status, value,
                                now - pending.start)

    def receive_iam(self, data: bytes) -> None:
        """Refine this session's private image from an IAM frame."""
        plane = self.plane
        body = cwire.unseal(plane.scheme, data)
        if body is None:
            get_registry().counter("serve.corruptions_detected",
                                   where="iam").inc()
            return
        bucket, level, low, _high = swire.decode_iam(body)
        if plane.family == "lh":
            self.image = plane.file.addressing.adjust_image(
                self.image, level, bucket)
            return
        index = bisect_right(self._bounds, low) - 1
        if index >= 0 and self._bounds[index] == low:
            self._owners[index] = bucket
        else:
            insort(self._bounds, low)
            self._owners.insert(self._bounds.index(low), bucket)


class StepStats:
    """Accumulator for one offered-load step of the open-loop sweep."""

    def __init__(self, name: str):
        from ..obs.registry import BucketedHistogram
        self.name = name
        self.hist = BucketedHistogram(name, ())
        self.ok = 0
        self.not_ok = 0
        self.failures = {"timeout": 0, "shed": 0}
        self.attempts = 0
        self.sessions: set[int] = set()
        #: Sim time of the last in-step resolution -- goodput's span
        #: runs to here, not to the last *arrival*, so a queue that
        #: drains long after the offered burst shows up as lower
        #: goodput instead of being laundered by the drain.
        self.last_resolved = 0.0

    @property
    def completed(self) -> int:
        """Operations that got a definitive server answer."""
        return self.ok + self.not_ok

    @property
    def resolved(self) -> int:
        """Completed plus failed operations -- everything accounted for."""
        return self.completed + sum(self.failures.values())


class ServingPlane:
    """Deterministic many-client serving simulation over LH*/RP* buckets."""

    def __init__(self, buckets: int = 4, family: str = "lh", seed: int = 0,
                 scheme: AlgebraicSignatureScheme | None = None,
                 policy: ServicePolicy | None = None,
                 retry: RetryPolicy | None = None,
                 plan: FaultPlan | None = None,
                 split_threshold: int = 512,
                 split_load: float = 0.85,
                 split_delay: float = 2e-3,
                 header_bytes: int = 16):
        if family not in ("lh", "rp"):
            raise ServeError(f"unknown SDDS family {family!r}")
        if buckets < 1:
            raise ServeError("need at least one bucket")
        if family == "rp" and buckets != 1:
            raise ServeError("RP* grows from one bucket; preload splits it")
        self.family = family
        self.seed = seed
        self.scheme = scheme if scheme is not None else make_scheme()
        self.policy = policy if policy is not None \
            else ServicePolicy.serving(rate=2000.0, inbox_limit=64)
        if self.policy.inline:
            raise ServeError("the serving plane needs a queued policy")
        self.retry = retry if retry is not None else RetryPolicy(
            timeout=10e-3, backoff=2.0, max_timeout=0.08, max_attempts=6,
            jitter=0.1, budget=4, op_deadline=0.25)
        self.plan = plan if plan is not None else FaultPlan()
        self.split_threshold = split_threshold
        self.split_load = split_load
        self.split_delay = split_delay
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.network = SimNetwork(
            clock=self.clock, model=NetworkModel(header_bytes=header_bytes))
        self.faulty_network = FaultyNetwork(self.network, self.loop,
                                            self.plan, seed=seed)
        registry = get_registry()
        # High-volume series must be bounded *before* first touch.
        registry.set_histogram_backend("serve.wait_seconds", "bucketed")
        registry.set_histogram_backend("serve.latency_seconds", "bucketed")
        # The file's own split transfers go to a private network: the
        # plane accounts each live split on its network without
        # advancing the event-loop clock (see _adopt_split).
        split_sink = SimNetwork(registry=MetricsRegistry())
        self.file = LHFile(self.scheme, capacity_records=1 << 20,
                           network=split_sink, initial_buckets=buckets,
                           store_signatures=True) if family == "lh" \
            else RPFile(self.scheme, capacity_records=1 << 20,
                        network=split_sink, store_signatures=True)
        self.nodes: list[BucketNode] = [
            BucketNode(self, index) for index in range(buckets)
        ]
        self.sessions: list[Session] = []
        #: Ground truth applied in execution order (key -> value).
        self.oracle: dict[int, bytes] = {}
        #: Keys whose mutations were acknowledged to some session.
        self.acked: dict[int, str] = {}
        #: Keys ever mutated at a bucket (the execution journal).
        self.executed_keys: set[int] = set()
        self.splits = 0
        self.split_log: list[tuple[float, int, int, int]] = []
        self._lh_split_pending = False
        self.step = 0
        self.stats = StepStats("warmup")
        self.max_inflight = 0
        self._inflight_now = 0
        self._inserted = 0

    # ------------------------------------------------------------------
    # Topology and routing
    # ------------------------------------------------------------------

    def session(self) -> Session:
        """Create (and register) one client session."""
        session = Session(self, len(self.sessions))
        self.sessions.append(session)
        return session

    def session_for(self, request_id: int) -> Session:
        """Map a request id back to the session that issued it."""
        index = request_id >> 32
        if index >= len(self.sessions):
            raise ServeError(f"request id {request_id} from unknown session")
        return self.sessions[index]

    def owner_of(self, key: int) -> BucketNode:
        """The bucket that owns ``key`` under the *true* current state."""
        return self.nodes[self.file.owner(key).server_id]

    def forward_frame(self, source: BucketNode, target: int,
                      data: bytes) -> None:
        """Ship a misdirected request frame one hop toward its owner."""
        if target >= len(self.nodes):
            raise ServeError(
                f"{source.name} forwarded to unknown bucket {target}")
        node = self.nodes[target]
        self.faulty_network.transmit(
            source.name, node.name, swire.FORWARD_KIND, data,
            lambda payload: node.receive_request(payload, forwarded=True),
        )

    def op_started(self) -> None:
        """Track one more in-flight operation (peak concurrency stat)."""
        self._inflight_now += 1
        if self._inflight_now > self.max_inflight:
            self.max_inflight = self._inflight_now

    # ------------------------------------------------------------------
    # Execution accounting, split triggers
    # ------------------------------------------------------------------

    def record_execution(self, node: BucketNode, request: ServeRequest,
                         status: int, effect: str) -> None:
        """Account a server-side execution and keep the oracle in step."""
        registry = get_registry()
        op_name = cwire.OP_NAMES[request.op]
        group = 1 + len(request.riders)
        registry.counter("serve.executions", node=node.name,
                         op=op_name).inc()
        if effect == "pseudo":
            registry.counter("serve.pseudo_updates").inc()
            # A pseudo-update is a real, ackable execution: the server
            # proved the key exists with an identical value signature.
            # Journal it so verify() doesn't flag the ack as fabricated.
            self.executed_keys.add(request.key)
        if effect in MUTATING_EFFECTS:
            self.executed_keys.add(request.key)
            if effect == "delete":
                self.oracle.pop(request.key, None)
            else:
                self.oracle[request.key] = request.value
            if effect == "insert":
                self._inserted += 1
                self._maybe_split(node)
        if group > 1:
            registry.counter("serve.coalesced_group", node=node.name) \
                .inc(group)

    def record_completion(self, session: Session, pending: _PendingOp,
                          status: int, value: bytes, latency: float) -> None:
        """Account a client-visible completion against the current step."""
        self._inflight_now -= 1
        registry = get_registry()
        op_name = cwire.OP_NAMES[pending.op]
        status_name = cwire.ST_NAMES[status]
        registry.counter("serve.ops", op=op_name, status=status_name).inc()
        registry.histogram("serve.latency_seconds", op=op_name) \
            .observe(latency)
        ok = status in (cwire.ST_INSERTED, cwire.ST_FOUND,
                        cwire.ST_APPLIED, cwire.ST_DELETED)
        if ok and op_name in ("insert", "update", "delete"):
            # "Acked" records what some session was *told* happened;
            # verify() cross-checks it against the execution journal.
            self.acked[pending.key] = op_name
        stats = self.stats
        if pending.step == self.step:
            stats.hist.observe(latency)
            stats.attempts += pending.attempts
            stats.sessions.add(session.index)
            stats.last_resolved = self.clock.now
            if ok:
                stats.ok += 1
            else:
                stats.not_ok += 1

    def record_failure(self, session: Session, pending: _PendingOp,
                       reason: str) -> None:
        """Account an operation the session gave up on (timeout/shed)."""
        self._inflight_now -= 1
        if pending.step == self.step:
            self.stats.failures[reason] += 1
            self.stats.attempts += pending.attempts
            self.stats.last_resolved = self.clock.now

    def begin_step(self, name: str) -> StepStats:
        """Open a fresh per-step accumulator; returns the previous one."""
        previous = self.stats
        self.step += 1
        self.stats = StepStats(name)
        return previous

    def _maybe_split(self, node: BucketNode) -> None:
        if self.family == "rp":
            if (not node.split_pending
                    and len(node.server.bucket) > self.split_threshold):
                node.split_pending = True
                self.loop.after(self.split_delay,
                                lambda: self._split_rp(node))
            return
        capacity = self.split_threshold * len(self.nodes)
        if (not self._lh_split_pending
                and len(self.oracle) > self.split_load * capacity):
            self._lh_split_pending = True
            self.loop.after(self.split_delay, self._split_lh)

    # ------------------------------------------------------------------
    # Live splits
    # ------------------------------------------------------------------

    def _split_lh(self) -> None:
        """Split the bucket at the LH* split pointer (live)."""
        self._lh_split_pending = False
        source = self.nodes[self.file.state.pointer]
        self.file.split()
        self._adopt_split(source)

    def _split_rp(self, source: BucketNode) -> None:
        """Split an overfull RP* bucket at its median key (live)."""
        source.split_pending = False
        if len(source.server.bucket) <= self.split_threshold:
            return
        self.file.split(source.server)
        self._adopt_split(source)

    def _adopt_split(self, source: BucketNode) -> None:
        """Serve the bucket the file's split just created; account it."""
        target = BucketNode(self, len(self.nodes))
        self.nodes.append(target)
        shipped = sum(8 + len(record.value)
                      for record in target.server.bucket.records())
        if shipped:
            self.network.account(source.name, target.name,
                                 swire.SPLIT_KIND, shipped)
        self.splits += 1
        self.split_log.append((self.clock.now, source.bucket_id,
                               target.bucket_id, shipped))
        registry = get_registry()
        registry.counter("serve.splits", family=self.family).inc()
        registry.counter("serve.split_bytes").inc(shipped)
        registry.gauge("serve.buckets").set(len(self.nodes))

    # ------------------------------------------------------------------
    # Preload (synchronous, before traffic)
    # ------------------------------------------------------------------

    def preload(self, count: int, value_bytes: int = 64) -> None:
        """Insert ``count`` records directly (no traffic), splitting as
        needed, so sweeps start from a populated, multi-bucket file."""
        if self.sessions:
            raise ServeError("preload must run before sessions exist")
        for index in range(count):
            key = key_for(index)
            value = self._value_for(key, 0, value_bytes)
            node = self.owner_of(key)
            status, _reply, effect = apply_operation(
                node.server, self.scheme, cwire.OP_INSERT, key, value)
            if status != cwire.ST_INSERTED:
                raise ServeError(f"preload collision on key {key}")
            self.oracle[key] = value
            # Split synchronously during preload: the live-split path
            # needs traffic; here we only want the starting topology.
            if self.family == "rp":
                self._split_rp(node)
            elif len(self.oracle) > self.split_load * (
                    self.split_threshold * len(self.nodes)):
                self._split_lh()

    @staticmethod
    def _value_for(key: int, version: int, value_bytes: int) -> bytes:
        seed = (key * 1315423911 + version * 2654435761) & 0xFFFFFFFF
        return seed.to_bytes(4, "little") * (value_bytes // 4)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def settle(self, max_seconds: float = 3600.0) -> None:
        """Drain every queued event (timers, queues, forwards)."""
        self.loop.run_until_idle(max_seconds)

    def verify(self) -> dict:
        """Certify the final file against the execution oracle.

        Re-renders each bucket's expected canonical image from the
        oracle through the *true* final addressing state and compares
        algebraic signatures (Proposition 1: any discrepancy within
        the n-symbol bound is detected with certainty).  Also checks
        LH*/RP* placement invariants and that every acknowledged
        mutation survived whatever splits raced it.
        """
        expected: dict[int, SDDSServer] = {}
        for key, value in self.oracle.items():
            owner = self.owner_of(key)
            scratch = expected.get(owner.bucket_id)
            if scratch is None:
                scratch = SDDSServer(owner.bucket_id, self.scheme,
                                     capacity_records=1 << 20,
                                     store_signatures=False)
                expected[owner.bucket_id] = scratch
            scratch.insert(Record(key, value))
        buckets_ok = 0
        mismatched: list[int] = []
        for node in self.nodes:
            image = serialize_bucket(node.server)
            scratch = expected.get(node.bucket_id)
            want = serialize_bucket(scratch) if scratch is not None else \
                serialize_bucket(SDDSServer(node.bucket_id, self.scheme,
                                            store_signatures=False))
            if (self.scheme.sign(image, strict=False)
                    == self.scheme.sign(want, strict=False)
                    and image == want):
                buckets_ok += 1
            else:
                mismatched.append(node.bucket_id)
        placement_ok = all(
            node.owns(key)
            for node in self.nodes for key in node.server.bucket.keys()
        )
        # An ack without a matching execution would be fabrication; an
        # executed record missing from the images is caught by the
        # signature comparison above.  Together: no acked op was lost.
        acked_lost = [key for key in self.acked
                      if key not in self.executed_keys]
        surviving = sum(1 for key in self.acked if key in self.oracle)
        return {
            "buckets": len(self.nodes),
            "buckets_verified": buckets_ok,
            "mismatched": mismatched,
            "placement_ok": placement_ok,
            "records": len(self.oracle),
            "acked_keys": len(self.acked),
            "acked_surviving": surviving,
            "acked_lost": acked_lost,
            "splits": self.splits,
            "ok": (buckets_ok == len(self.nodes) and placement_ok
                   and not acked_lost),
        }
