"""SDDS buckets: RAM-resident record stores with a B-tree index.

A bucket couples a :class:`~repro.sdds.heap.RecordHeap` (the byte image
the backup engine signs) with a :class:`~repro.sdds.btree.BTree` index
mapping keys to heap extents.  The split that moves records between
buckets lives on :meth:`repro.sdds.server.SDDSServer.move_records`,
which carries stored signatures along.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import DuplicateKeyError, KeyNotFoundError
from .btree import BTree
from .heap import RecordHeap
from .record import Record


class Bucket:
    """One SDDS bucket: heap image + key index + capacity bookkeeping."""

    def __init__(self, bucket_id: int, capacity_records: int = 1 << 30,
                 initial_heap_bytes: int = 1 << 16, btree_degree: int = 16):
        self.bucket_id = bucket_id
        self.capacity_records = capacity_records
        self.heap = RecordHeap(initial_heap_bytes)
        self.index = BTree(min_degree=btree_degree)
        #: LH* bucket level: which hash function h_i this bucket was
        #: last (re)hashed with.  Managed by the LH* file.
        self.level = 0

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: int) -> bool:
        return key in self.index

    def insert(self, record: Record) -> None:
        """Insert a new record; duplicate keys are rejected."""
        if record.key in self.index:
            raise DuplicateKeyError(
                f"key {record.key} already in bucket {self.bucket_id}"
            )
        payload = record.to_bytes()
        offset = self.heap.allocate(len(payload))
        self.heap.write(offset, payload)
        self.index.insert(record.key, (offset, len(payload)))

    def get(self, key: int) -> Record:
        """Fetch the record with ``key``; raises when absent."""
        offset, length = self.index.search(key)
        return Record.from_bytes(self.heap.read(offset, length))

    def update(self, key: int, value: bytes) -> None:
        """Replace the non-key portion of an existing record.

        Same-size updates are written in place (the common database
        case); size changes reallocate the record's extent.
        """
        offset, length = self.index.search(key)
        record = Record(key, value)
        payload = record.to_bytes()
        if len(payload) == length:
            self.heap.write(offset, payload)
            return
        self.heap.free(offset, length)
        new_offset = self.heap.allocate(len(payload))
        self.heap.write(new_offset, payload)
        self.index.replace(key, (new_offset, len(payload)))

    def delete(self, key: int) -> Record:
        """Remove and return the record with ``key``."""
        offset, length = self.index.delete(key)
        record = Record.from_bytes(self.heap.read(offset, length))
        self.heap.free(offset, length)
        return record

    def records(self) -> Iterator[Record]:
        """All records in ascending key order."""
        for _key, (offset, length) in self.index.items():
            yield Record.from_bytes(self.heap.read(offset, length))

    def keys(self) -> Iterator[int]:
        """All keys in ascending order."""
        return self.index.keys()

    def median_key(self) -> int:
        """The middle key (RP* splits the range here)."""
        keys = list(self.index.keys())
        if not keys:
            raise KeyNotFoundError(f"bucket {self.bucket_id} is empty")
        return keys[len(keys) // 2]

    # ------------------------------------------------------------------
    # Byte image (backup input)
    # ------------------------------------------------------------------

    @property
    def image(self) -> memoryview:
        """The bucket's RAM image, sliceable into backup pages."""
        return self.heap.image

    @property
    def image_bytes(self) -> int:
        """Size of the RAM image in bytes."""
        return self.heap.size

    def index_pages(self, page_bytes: int = 128) -> list[bytes]:
        """The RAM B-tree index serialized as small pages (Section 5.2)."""
        return self.index.index_pages(page_bytes)
