"""SDDS server node: a bucket plus the server half of the protocols.

Each server owns one RAM bucket and executes, against it:

* the key-based operations (insert / search / delete);
* the *server side* of the signature-based update protocol of
  Section 2.2 -- recompute (or look up) the current record signature,
  compare with the client's before-signature, apply or roll back;
* the *server side* of the Section 2.3 scan: slide the signature window
  over every record's non-key field and return the candidates.

Servers never lock records: concurrency control is entirely the
optimistic signature comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..errors import DuplicateKeyError, KeyNotFoundError
from ..obs import get_registry, span_if_active
from ..sig.algebra import apply_update
from ..sig.incremental import aligned_span
from ..sig.rolling import find_signature_matches
from ..gf.vectorized import all_window_signatures as _window_sigs
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.signature import Signature
from .bucket import Bucket
from .record import Record


class UpdateOutcome(Enum):
    """Result of a conditional (optimistic) update at the server."""

    APPLIED = "applied"
    CONFLICT = "conflict"     #: before-signature stale: intervening update
    MISSING = "missing"       #: no record with that key


@dataclass
class ServerStats:
    """Per-server operation counters."""

    searches: int = 0
    inserts: int = 0
    deletes: int = 0
    updates_applied: int = 0
    updates_rejected: int = 0
    sig_computations: int = 0
    delta_updates: int = 0
    forwards: int = 0
    scans: int = 0
    scan_candidates: int = 0
    extra: dict = field(default_factory=dict)


class SDDSServer:
    """One server node of the SDDS multicomputer."""

    def __init__(self, server_id: int, scheme: AlgebraicSignatureScheme,
                 capacity_records: int = 256, store_signatures: bool = False,
                 btree_degree: int = 16):
        self.server_id = server_id
        self.scheme = scheme
        self.bucket = Bucket(
            server_id, capacity_records=capacity_records, btree_degree=btree_degree
        )
        #: When True, record signatures are stored next to the records
        #: (the Section 2.2 variant trading ~4 B/record for signature
        #: computations moved entirely to the clients).
        self.store_signatures = store_signatures
        self._stored_sigs: dict[int, Signature] = {}
        self.stats = ServerStats()

    @property
    def name(self) -> str:
        """Network node name."""
        return f"server{self.server_id}"

    # ------------------------------------------------------------------
    # Key operations (no signature calculus: Section 2.2 notes that
    # search/insert/delete never pay concurrency-management overhead)
    # ------------------------------------------------------------------

    def search(self, key: int) -> Record | None:
        """Return the record or None."""
        self.stats.searches += 1
        with span_if_active("sdds.search", node=self.name):
            try:
                return self.bucket.get(key)
            except KeyNotFoundError:
                return None

    def insert(self, record: Record, stored_signature: Signature | None = None) -> bool:
        """Insert; returns False on duplicate key."""
        self.stats.inserts += 1
        with span_if_active("sdds.insert", node=self.name):
            try:
                self.bucket.insert(record)
            except DuplicateKeyError:
                return False
            if self.store_signatures:
                if stored_signature is None:
                    stored_signature = self._compute_signature(record.value)
                self._stored_sigs[record.key] = stored_signature
            return True

    def delete(self, key: int) -> Record | None:
        """Delete; returns the removed record or None."""
        self.stats.deletes += 1
        with span_if_active("sdds.delete", node=self.name):
            try:
                record = self.bucket.delete(key)
            except KeyNotFoundError:
                return None
            self._stored_sigs.pop(key, None)
            return record

    # ------------------------------------------------------------------
    # Splitting (the SDDS growth primitive)
    # ------------------------------------------------------------------

    def move_records(self, target: "SDDSServer",
                     moves: Callable[[int], bool]) -> list[Record]:
        """Move every record whose key satisfies ``moves`` to ``target``.

        The one record move of an LH*/RP* split: "each split sends about
        half of a bucket to a newly created bucket" (Section 2).  LH*
        passes the rehash predicate ``h_{i+1}(key) == new_bucket``, RP*
        a key-range predicate.  Stored signatures travel with their
        records instead of being recomputed.  Returns the moved records
        in key order (the caller accounts the shipment).
        """
        moving = [key for key in self.bucket.keys() if moves(key)]
        moved = []
        for key in moving:
            record = self.bucket.delete(key)
            target.bucket.insert(record)
            signature = self._stored_sigs.pop(key, None)
            if signature is not None:
                target._stored_sigs[key] = signature
            moved.append(record)
        return moved

    # ------------------------------------------------------------------
    # Signature protocol (Section 2.2, server side)
    # ------------------------------------------------------------------

    def _compute_signature(self, value: bytes) -> Signature:
        self.stats.sig_computations += 1
        return self.scheme.sign(value, strict=False)

    def record_signature(self, key: int) -> Signature | None:
        """The signature S of the current record, or None when absent.

        With stored signatures enabled this is a lookup ("the server
        simply extracts S from R, instead of dynamically calculating
        it"); otherwise the server signs the record on the fly.
        """
        if self.store_signatures and key in self._stored_sigs:
            return self._stored_sigs[key]
        try:
            record = self.bucket.get(key)
        except KeyNotFoundError:
            return None
        return self._compute_signature(record.value)

    def conditional_update(self, key: int, after_value: bytes,
                           before_signature: Signature,
                           after_signature: Signature | None = None) -> UpdateOutcome:
        """Apply the update iff the record still matches ``before_signature``.

        The optimistic check of Section 2.2: the server computes the
        current signature S; ``S != Sb`` proves a concurrent update
        happened between the client's read and this request, so the
        update is abandoned (the client is notified and may redo).

        When the client does not ship an after-signature, the stored
        signature is maintained through Proposition 3 (`apply_update`):
        only the changed extent of the record is signed, so a small
        update to a large record costs O(|delta|), not O(|record|).
        """
        with span_if_active("sdds.conditional_update", node=self.name) as span:
            try:
                record = self.bucket.get(key)
            except KeyNotFoundError:
                return UpdateOutcome.MISSING
            if self.store_signatures and key in self._stored_sigs:
                current = self._stored_sigs[key]
            else:
                current = self._compute_signature(record.value)
            if current != before_signature:
                self.stats.updates_rejected += 1
                get_registry().counter("sdds.server.updates",
                                       outcome="rejected").inc()
                if span is not None:
                    span.event("conflict")
                return UpdateOutcome.CONFLICT
            before_value = record.value
            self.bucket.update(key, after_value)
            if self.store_signatures:
                if after_signature is None:
                    after_signature = self._updated_signature(
                        current, before_value, after_value)
                self._stored_sigs[key] = after_signature
            self.stats.updates_applied += 1
            get_registry().counter("sdds.server.updates",
                                   outcome="applied").inc()
            return UpdateOutcome.APPLIED

    def _updated_signature(self, current: Signature, before_value: bytes,
                           after_value: bytes) -> Signature:
        """New stored signature after a record update, in O(|delta|).

        Same-length updates locate the changed byte extent, expand it to
        symbol boundaries and fold it through Proposition 3 against the
        stored signature -- the record's untouched bytes are never read
        again.  (Odd-length GF(2^16) records are safe: both region
        slices see the same zero-padded last symbol that ``sign`` does.)
        Length-changing updates fall back to one full signing pass.
        """
        if len(before_value) != len(after_value):
            return self._compute_signature(after_value)
        if before_value == after_value:
            return current
        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        first = next(i for i, (b, a) in enumerate(zip(before_value, after_value))
                     if b != a)
        trailing = next(i for i, (b, a) in enumerate(
            zip(reversed(before_value), reversed(after_value))) if b != a)
        lo, hi = aligned_span(first, len(before_value) - trailing - first,
                              symbol_bytes)
        if (hi - lo) // symbol_bytes > self.scheme.max_page_symbols:
            return self._compute_signature(after_value)
        self.stats.delta_updates += 1
        get_registry().counter("sdds.server.delta_updates").inc()
        return apply_update(self.scheme, current, before_value[lo:hi],
                            after_value[lo:hi], lo // symbol_bytes)

    # ------------------------------------------------------------------
    # Scan (Section 2.3, server side)
    # ------------------------------------------------------------------

    def scan_by_signature(self, target: Signature, window_symbols: int,
                          alignments: int = 1) -> list[Record]:
        """Records whose non-key field may contain the searched string.

        The server knows only the pattern's length and signature.  It
        slides the window over every record value (for GF(2^16), over
        ``alignments`` byte-shifted symbol streams to handle the byte
        alignment problem of Section 5.2) and returns each record with
        at least one signature hit.  False positives are possible by
        design; the client filters them (Las Vegas).
        """
        self.stats.scans += 1
        hits = []
        for record in self.bucket.records():
            if self._value_matches(record.value, target, window_symbols, alignments):
                hits.append(record)
        self.stats.scan_candidates += len(hits)
        get_registry().counter("sdds.server.scan_candidates").inc(len(hits))
        return hits

    def _value_matches(self, value: bytes, target: Signature,
                       window_symbols: int, alignments: int) -> bool:
        for shift in range(alignments):
            stream = value[shift:]
            symbols = self.scheme.signable_symbols(stream)
            if window_symbols > symbols.size:
                continue
            if find_signature_matches(self.scheme, symbols, target, window_symbols):
                return True
        return False

    def scan_by_signature_set(self, targets: list[tuple[Signature, int]],
                              alignments: int = 1) -> dict[int, list[Record]]:
        """Candidates for several patterns at once, sharing window passes.

        ``targets`` holds ``(signature, window_symbols)`` per pattern;
        the server groups patterns by window length so each record is
        swept once per distinct length and alignment, not once per
        pattern (the multi-pattern generalization of Section 2.3).
        """
        self.stats.scans += 1
        from collections import defaultdict

        by_window: dict[int, list[tuple[int, Signature]]] = defaultdict(list)
        for index, (target, window) in enumerate(targets):
            by_window[window].append((index, target))
        hits: dict[int, list[Record]] = defaultdict(list)
        for record in self.bucket.records():
            matched: set[int] = set()
            for shift in range(alignments):
                symbols = self.scheme.signable_symbols(record.value[shift:])
                for window, members in by_window.items():
                    if window > symbols.size:
                        continue
                    pending = [m for m in members if m[0] not in matched]
                    if not pending:
                        continue
                    per_component = [
                        _window_sigs(self.scheme.field, symbols, beta, window)
                        for beta in self.scheme.base.betas
                    ]
                    for index, target in pending:
                        for offset in range(symbols.size - window + 1):
                            if all(
                                int(comp[offset]) == target.components[ci]
                                for ci, comp in enumerate(per_component)
                            ):
                                matched.add(index)
                                break
            for index in matched:
                hits[index].append(record)
                self.stats.scan_candidates += 1
        return dict(hits)

    def scan_exact(self, needle: bytes) -> list[Record]:
        """Plain byte-wise scan (the control the paper times against)."""
        self.stats.scans += 1
        return [record for record in self.bucket.records() if needle in record.value]

    def range_records(self, low: int, high: int) -> list[Record]:
        """Records with ``low <= key < high``, in key order.

        Served straight from the bucket's B-tree index; the natural
        query of the order-preserving RP* family.
        """
        self.stats.searches += 1
        out = []
        for _key, (offset, length) in self.bucket.index.range_items(low, high):
            out.append(Record.from_bytes(self.bucket.heap.read(offset, length)))
        return out
