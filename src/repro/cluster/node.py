"""One cluster node: SDDS bucket, bucket image, hosted mirror, lifecycle.

A :class:`ClusterNode` owns three things:

* an :class:`~repro.sdds.server.SDDSServer` bucket holding the records
  whose keys hash to it -- the primary copy clients talk to;
* a page-image :class:`~repro.sync.Replica` of that bucket (the
  serialized record set), whose changed pages are shipped *best effort*
  to the next node's hosted mirror after every mutation -- lost or
  corrupted mirror updates are exactly the divergence the anti-entropy
  pass later detects and repairs by signature;
* the **hosted mirror**: the previous node's bucket image, kept so a
  crashed neighbour's state survives somewhere.

The node lifecycle is ``UP -> CRASHED -> RECOVERING -> UP``: a crash
wipes every volatile structure (bucket, image, mirror, RPC reply
cache); recovery is driven by the cluster runtime, which reconstructs
the bucket from the LH*RS parity group and re-converges both mirror
relationships with :func:`repro.sync.sync_by_tree`.

A node answers each request as it arrives, like the paper's SDDS
servers: there is no request queue.  RPC handling is at-least-once
with replay: requests are deduplicated by ``request_id`` and answered
from a reply cache, so a retried operation whose first attempt *did*
execute returns its original answer instead of executing twice.
Every incoming payload is signature-verified before anything else -- a
corrupted transfer is counted and discarded, never half-parsed.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from enum import Enum

from pathlib import Path

from ..errors import ReproError, StoreError
from ..obs import activate, get_registry, span_if_active
from ..obs.trace import TraceContext
from ..sdds.record import Record
from ..sdds.server import SDDSServer
from ..sig.scheme import AlgebraicSignatureScheme
from ..store.pagestore import PageStore
from ..sync import Replica
from . import wire

#: Bucket-image header: record count.  Keeps the image non-empty for
#: signature-tree building and makes truncation corruption detectable.
_IMAGE_HEADER = struct.Struct("<Q")
_RECORD_HEADER = struct.Struct("<II")  # value length, key

#: Message kinds on the cluster wire (TrafficStats / net.* categories).
REQUEST_KINDS = {wire.OP_INSERT: "c_insert", wire.OP_SEARCH: "c_search",
                 wire.OP_UPDATE: "c_update", wire.OP_DELETE: "c_delete"}
REPLY_KIND = "c_reply"
MIRROR_KIND = "c_mirror_page"
DELTA_KIND = "c_mirror_delta"

#: Bucket-image page size: the granularity of mirror shipping, the
#: durable log's image volume and anti-entropy repair.
PAGE_BYTES = 128
#: Record capacity of a node's SDDS bucket.  Cluster buckets never
#: split (routing is static ``key mod n``), so this only has to exceed
#: any workload.
CAPACITY_RECORDS = 1 << 20


class NodeState(Enum):
    """Lifecycle state of a cluster node."""

    UP = "up"
    CRASHED = "crashed"
    RECOVERING = "recovering"


def serialize_bucket(server: SDDSServer) -> bytes:
    """The node's bucket as a canonical byte image (sorted by key)."""
    parts = []
    count = 0
    for key in sorted(server.bucket.keys()):
        record = server.bucket.get(key)
        parts.append(_RECORD_HEADER.pack(len(record.value), record.key))
        parts.append(record.value)
        count += 1
    return _IMAGE_HEADER.pack(count) + b"".join(parts)


def deserialize_bucket(image: bytes) -> list[Record]:
    """Inverse of :func:`serialize_bucket`.

    The image comes back from a recovered log, so every length is
    checked before it is read: a truncated image, an impossible record
    count or trailing bytes raise :class:`~repro.errors.StoreError`.
    """
    if len(image) < _IMAGE_HEADER.size:
        raise StoreError(f"bucket image of {len(image)} bytes has no header")
    count, = _IMAGE_HEADER.unpack_from(image)
    offset = _IMAGE_HEADER.size
    if count > (len(image) - offset) // _RECORD_HEADER.size:
        raise StoreError(
            f"bucket image claims {count} records in {len(image)} bytes")
    records = []
    for _ in range(count):
        if offset + _RECORD_HEADER.size > len(image):
            raise StoreError(f"bucket image truncated at byte {offset}")
        value_len, key = _RECORD_HEADER.unpack_from(image, offset)
        offset += _RECORD_HEADER.size
        if offset + value_len > len(image):
            raise StoreError(f"record {key} runs past the bucket image")
        records.append(Record(key, image[offset:offset + value_len]))
        offset += value_len
    if offset != len(image):
        raise StoreError(
            f"{len(image) - offset} trailing bytes after the bucket image")
    return records


class ClusterNode:
    """One server node of the fault-injected cluster."""

    def __init__(self, index: int, cluster, scheme: AlgebraicSignatureScheme):
        self.index = index
        self.cluster = cluster
        self.scheme = scheme
        self.state = NodeState.UP
        self.server = SDDSServer(index, scheme,
                                 capacity_records=CAPACITY_RECORDS,
                                 store_signatures=True)
        self.image = Replica(f"{self.name}.image", scheme,
                             serialize_bucket(self.server), PAGE_BYTES)
        #: Hosted copy of the previous node's bucket image.
        self.mirror: Replica | None = None
        #: request_id -> sealed reply bytes (at-least-once replay).
        self._reply_cache: dict[int, bytes] = {}
        #: Durable backend (PR 5): when attached, every image extent is
        #: also appended to a sealed local log that survives crashes.
        self.store: PageStore | None = None
        self.store_dir: Path | None = None

    #: Store volume name holding the node's bucket image.
    IMAGE_VOLUME = "image"

    def attach_store(self, store: PageStore) -> None:
        """Adopt a durable page store; seeds it with the current image."""
        self.store = store
        self.store_dir = store.directory
        store.write_image(self.IMAGE_VOLUME, self.image_bytes(),
                          PAGE_BYTES)

    @property
    def name(self) -> str:
        """Network node name."""
        return f"node{self.index}"

    @property
    def is_up(self) -> bool:
        """True when the node serves traffic."""
        return self.state is NodeState.UP

    def make_mirror(self, source_name: str, data: bytes = b"") -> Replica:
        """(Re)create the hosted mirror replica, initially ``data``."""
        self.mirror = Replica(f"{self.name}.mirror[{source_name}]",
                              self.scheme, data or _IMAGE_HEADER.pack(0),
                              PAGE_BYTES)
        return self.mirror

    # ------------------------------------------------------------------
    # RPC handling
    # ------------------------------------------------------------------

    @contextmanager
    def _traced(self, name: str, context: TraceContext | None, **labels):
        # Child span parented on the *frame's* context -- never the
        # ambient stack, which may belong to a different operation when
        # a duplicated or late frame arrives mid-handling.  Yields None
        # untraced, so callers work with or without an envelope.
        if context is None:
            yield None
            return
        traces = self.cluster.traces
        with activate(traces), \
                traces.child(name, context, node=self.name, **labels) as span:
            yield span

    def receive_request(self, data: bytes) -> None:
        """Handle one delivered client request payload."""
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="request").inc()
            self.cluster.report_seal_failure(self.name, "request", data)
            return
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("recv", "request", "", data)
        if not self.is_up:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        op, request_id, key, value = wire.decode_request(inner)
        cached = self._reply_cache.get(request_id)
        if cached is not None:
            registry.counter("cluster.rpc_replays", node=self.name).inc()
            with self._traced(f"node.replay.{wire.OP_NAMES[op]}", context,
                              key=str(key)):
                pass
            self._transmit_reply(request_id, cached)
            return
        self._service_execute(op, request_id, key, value, context)

    def _service_execute(self, op: int, request_id: int, key: int,
                         value: bytes, context: TraceContext | None) -> None:
        """Execute one request, then cache and transmit its sealed reply."""
        op_name = wire.OP_NAMES[op]
        with self._traced(f"node.handle.{op_name}", context,
                          key=str(key)) as span:
            status, reply_value = self._execute(op, key, value)
            if span is not None:
                span.event("executed", status=wire.ST_NAMES[status])
        reply = wire.encode_traced(
            None if span is None else span.context,
            wire.encode_reply(status, request_id, reply_value))
        sealed = wire.seal(self.scheme, reply)
        self._reply_cache[request_id] = sealed
        self._transmit_reply(request_id, sealed)

    def _service_shed(self, *_args) -> None:
        """Never called: nodes answer every request as it arrives.

        Kept only because the wall-clock benchmark's layer ledger looks
        this name up on the class; remove it once the benchmark stops
        pinning it (ROADMAP, "One distributed runtime").
        """
        raise ReproError("cluster nodes never shed requests")

    def _transmit_reply(self, request_id: int, sealed: bytes) -> None:
        client = self.cluster.client_for_request(request_id)
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("send", "reply", client.name, sealed)
        self.cluster.faulty_network.transmit(
            self.name, client.name, REPLY_KIND, sealed, client.receive_reply
        )

    def _execute(self, op: int, key: int, value: bytes) -> tuple[int, bytes]:
        """Apply one operation to bucket + parity; returns (status, value)."""
        if op == wire.OP_SEARCH:
            status, reply_value, _effect = apply_operation(
                self.server, self.scheme, op, key, value)
            return status, reply_value
        before = self.image_bytes()
        status, reply_value, effect = apply_operation(
            self.server, self.scheme, op, key, value)
        if effect == EFFECT_PSEUDO:
            get_registry().counter("cluster.pseudo_updates").inc()
            return status, reply_value
        if effect == EFFECT_NONE:
            return status, reply_value
        if effect == EFFECT_INSERT:
            self.cluster.parity.insert(key, value)
        elif effect == EFFECT_UPDATE:
            self.cluster.parity.update(key, value)
        else:
            self.cluster.parity.delete(key)
        self.refresh_image(send_mirror_updates=True, previous=before)
        return status, reply_value

    # ------------------------------------------------------------------
    # Bucket image and mirror shipping
    # ------------------------------------------------------------------

    def image_bytes(self) -> bytes:
        """The current bucket image bytes."""
        return bytes(self.image.data)

    def _changed_extents(self, previous: bytes,
                         current: bytes) -> list[tuple[int, int]]:
        """Symbol-aligned byte extents where the two images differ.

        Computed page by page (bounding the extent scan to dirty pages);
        within a differing page the extent brackets the first and last
        differing byte, expanded to symbol boundaries.  Bytes past the
        shorter image count as differing.
        """
        from ..sig.incremental import aligned_span

        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        longest = max(len(previous), len(current))
        extents: list[tuple[int, int]] = []
        for lo in range(0, longest, PAGE_BYTES):
            hi = min(lo + PAGE_BYTES, longest)
            old_page = previous[lo:hi]
            new_page = current[lo:hi]
            if old_page == new_page:
                continue
            span = max(len(old_page), len(new_page))
            first = next(
                i for i in range(span)
                if (old_page[i:i + 1] or None) != (new_page[i:i + 1] or None)
            )
            last = next(
                i for i in range(span - 1, -1, -1)
                if (old_page[i:i + 1] or None) != (new_page[i:i + 1] or None)
            )
            a, b = aligned_span(lo + first, last - first + 1, symbol_bytes)
            extents.append((a, min(b, lo + span)))
        return extents

    def refresh_image(self, send_mirror_updates: bool = False,
                      previous: bytes | None = None) -> None:
        """Re-serialize the bucket; optionally ship the changed extents.

        The image replica is updated through journaled extent writes --
        O(|changed bytes|) signature work to keep its warm map current,
        never a whole-buffer rewrite.  Mirror updates ship as sealed
        ``(offset, delta, sig)`` frames carrying ``before XOR after`` of
        each extent, *best effort*: they ride the faulty network with no
        retry, so drops and detected corruptions leave the mirror stale
        until the next anti-entropy pass.
        """
        if previous is None:
            previous = self.image_bytes()
        current = serialize_bucket(self.server)
        extents = self._changed_extents(previous, current)
        for lo, hi in extents:
            if lo < len(current):
                self.image.write_at(lo, current[lo:min(hi, len(current))])
        if len(current) < len(self.image.data):
            self.image.truncate(len(current))
        if self.store is not None:
            # Durable mode: the same extents land in the sealed local
            # log as DELTA frames (before XOR after), so a crash replays
            # to exactly this image.
            for lo, hi in extents:
                self.store.record_extent(self.IMAGE_VOLUME, lo,
                                         previous[lo:hi], current[lo:hi],
                                         len(current))
        if not send_mirror_updates or not extents:
            return
        host = self.cluster.mirror_host(self.index)
        # Delta frames inherit the trace context of the operation that
        # dirtied the image (the ambient span during RPC handling), so
        # the mirror application on the host lands in the same tree.
        context = self.cluster.traces.current
        bodies = []
        delta_bytes = 0
        with span_if_active("node.mirror_ship", node=self.name,
                            extents=str(len(extents))):
            for lo, hi in extents:
                old_part = previous[lo:hi]
                new_part = current[lo:hi]
                width = max(len(old_part), len(new_part))
                delta = (
                    int.from_bytes(old_part, "little")
                    ^ int.from_bytes(new_part, "little")
                ).to_bytes(width, "little")
                bodies.append(wire.encode_traced(
                    context, wire.encode_delta(len(current), lo, delta)
                ))
                delta_bytes += len(delta)
            # One batched signing pass seals the whole burst of patches.
            for sealed in wire.seal_many(self.scheme, bodies):
                self.cluster.faulty_network.transmit(
                    self.name, host.name, DELTA_KIND, sealed,
                    host.receive_mirror_delta,
                )
        registry = get_registry()
        registry.counter("cluster.mirror_deltas",
                         source=self.name).inc(len(bodies))
        registry.counter("cluster.mirror_delta_bytes",
                         source=self.name).inc(delta_bytes)

    def receive_mirror(self, data: bytes) -> None:
        """Apply one delivered mirror page update to the hosted mirror."""
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="mirror").inc()
            self.cluster.report_seal_failure(self.name, "mirror", data)
            return
        if not self.is_up or self.mirror is None:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        image_len, page_index, page = wire.decode_mirror(inner)
        with self._traced("node.mirror_page", context):
            self.mirror.write_page(page_index, page)
            if len(self.mirror.data) > image_len:
                self.mirror.truncate(image_len)

    def receive_mirror_delta(self, data: bytes) -> None:
        """XOR one delivered delta patch onto the hosted mirror.

        The seal covers the delta frame, so a corrupted patch is
        *detected and dropped* (certainly for <= n corrupted symbols,
        Proposition 1) rather than applied -- the mirror is then merely
        stale, which anti-entropy repairs.
        """
        body = wire.unseal(self.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="mirror").inc()
            self.cluster.report_seal_failure(self.name, "mirror", data)
            return
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("recv", "mirror_delta", "", data)
        if not self.is_up or self.mirror is None:
            registry.counter("cluster.down_drops", node=self.name).inc()
            return
        context, inner = wire.decode_traced(body)
        image_len, offset, delta = wire.decode_delta(inner)
        with self._traced("node.mirror_apply", context):
            self.mirror.apply_xor(offset, delta)
            if len(self.mirror.data) > image_len:
                self.mirror.truncate(image_len)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state; traffic is dropped until recovery.

        A durable node loses its RAM structures and its open store
        handle, but the sealed log directory survives on "disk" --
        that is what the certified-recovery path replays.
        """
        self.state = NodeState.CRASHED
        self.server = SDDSServer(self.index, self.scheme,
                                 capacity_records=CAPACITY_RECORDS,
                                 store_signatures=True)
        self.image = Replica(f"{self.name}.image", self.scheme,
                             serialize_bucket(self.server), PAGE_BYTES)
        self.mirror = None
        self._reply_cache.clear()
        if self.store is not None:
            self.store.close()
            self.store = None

    def rebuild_from(self, records: list[Record]) -> None:
        """Repopulate the bucket (recovery path); refreshes the image."""
        for record in records:
            self.server.insert(record)
        self.refresh_image()


# Imported last, deliberately: the serve package builds on cluster
# primitives (wire, events, ``serialize_bucket``) while the node builds
# on serve's bucket dispatch.  Everything node.py needs from serve is
# defined before serve imports anything from this module, so the bottom
# import breaks the cycle in both import directions.
from ..serve.ops import (  # noqa: E402
    EFFECT_INSERT,
    EFFECT_NONE,
    EFFECT_PSEUDO,
    EFFECT_UPDATE,
    apply_operation,
)
