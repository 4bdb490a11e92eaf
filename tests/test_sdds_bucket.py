"""Tests for the record heap and buckets (the backup engine's substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    SDDSError,
)
from repro.sdds import Bucket, Record, RecordHeap


class TestRecord:
    def test_roundtrip(self):
        record = Record(1234, b"payload")
        assert Record.from_bytes(record.to_bytes()) == record

    def test_size(self):
        assert Record(1, b"abc").size == 7  # 4 B key + 3 B value

    def test_key_range(self):
        Record((1 << 32) - 1, b"")
        with pytest.raises(SDDSError):
            Record(1 << 32, b"")
        with pytest.raises(SDDSError):
            Record(-1, b"")

    def test_with_value(self):
        record = Record(1, b"old")
        updated = record.with_value(b"new")
        assert updated.key == 1
        assert updated.value == b"new"
        assert record.value == b"old"  # immutable

    def test_truncated_bytes_rejected(self):
        with pytest.raises(SDDSError):
            Record.from_bytes(b"ab")

    def test_value_coerced_to_bytes(self):
        assert isinstance(Record(1, bytearray(b"x")).value, bytes)


class TestRecordHeap:
    def test_allocate_write_read(self):
        heap = RecordHeap(64)
        offset = heap.allocate(10)
        heap.write(offset, b"0123456789")
        assert heap.read(offset, 10) == b"0123456789"

    def test_free_zeroes(self):
        heap = RecordHeap(64)
        offset = heap.allocate(8)
        heap.write(offset, b"AAAAAAAA")
        heap.free(offset, 8)
        assert heap.read(offset, 8) == bytes(8)

    def test_free_reuses_space(self):
        heap = RecordHeap(32)
        first = heap.allocate(16)
        heap.free(first, 16)
        second = heap.allocate(16)
        assert second == first

    def test_grows_on_demand(self):
        heap = RecordHeap(16)
        heap.allocate(16)
        offset = heap.allocate(100)
        assert heap.size >= offset + 100
        heap.check_invariants()

    def test_image_reflects_writes(self):
        heap = RecordHeap(16)
        offset = heap.allocate(4)
        heap.write(offset, b"data")
        assert bytes(heap.image[offset:offset + 4]) == b"data"

    def test_image_readonly(self):
        heap = RecordHeap(16)
        with pytest.raises(TypeError):
            heap.image[0] = 1

    def test_out_of_bounds_rejected(self):
        heap = RecordHeap(16)
        with pytest.raises(SDDSError):
            heap.read(10, 10)
        with pytest.raises(SDDSError):
            heap.write(-1, b"x")

    def test_listeners_notified(self):
        heap = RecordHeap(64)
        writes = []
        heap.add_write_listener(lambda offset, length: writes.append((offset, length)))
        offset = heap.allocate(4)
        heap.write(offset, b"abcd")
        assert (offset, 4) in writes

    def test_bad_allocation(self):
        with pytest.raises(SDDSError):
            RecordHeap(16).allocate(0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariants_under_random_ops(self, seed):
        rng = np.random.default_rng(seed)
        heap = RecordHeap(128)
        live = {}
        for step in range(200):
            if rng.random() < 0.6 or not live:
                size = int(rng.integers(1, 40))
                offset = heap.allocate(size)
                payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
                heap.write(offset, payload)
                live[offset] = payload
            else:
                offset = live and list(live)[int(rng.integers(0, len(live)))]
                payload = live.pop(offset)
                heap.free(offset, len(payload))
            heap.check_invariants()
        for offset, payload in live.items():
            assert heap.read(offset, len(payload)) == payload


class TestBucket:
    def test_insert_get(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"one"))
        assert bucket.get(1).value == b"one"
        assert len(bucket) == 1
        assert 1 in bucket

    def test_duplicate_insert(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"x"))
        with pytest.raises(DuplicateKeyError):
            bucket.insert(Record(1, b"y"))

    def test_get_missing(self):
        with pytest.raises(KeyNotFoundError):
            Bucket(0).get(5)

    def test_update_in_place(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"aaaa"))
        bucket.update(1, b"bbbb")
        assert bucket.get(1).value == b"bbbb"

    def test_update_resize(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"short"))
        bucket.update(1, b"a much longer value than before")
        assert bucket.get(1).value == b"a much longer value than before"
        bucket.update(1, b"s")
        assert bucket.get(1).value == b"s"
        bucket.heap.check_invariants()

    def test_delete(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"gone"))
        assert bucket.delete(1).value == b"gone"
        assert 1 not in bucket

    def test_records_sorted(self):
        bucket = Bucket(0)
        for key in (30, 10, 20):
            bucket.insert(Record(key, b"v"))
        assert [r.key for r in bucket.records()] == [10, 20, 30]

    def test_no_hard_capacity_stop(self):
        """Linear hashing splits buckets in pointer order, so a bucket
        may legitimately exceed capacity until its turn; buckets must be
        elastic."""
        bucket = Bucket(0, capacity_records=2)
        for key in range(10):
            bucket.insert(Record(key, b"x"))
        assert len(bucket) == 10

    def test_median_key(self):
        bucket = Bucket(0)
        for key in (1, 5, 9, 13, 17):
            bucket.insert(Record(key, b"v"))
        assert bucket.median_key() == 9

    def test_median_of_empty(self):
        with pytest.raises(KeyNotFoundError):
            Bucket(0).median_key()

    def test_image_contains_records(self):
        bucket = Bucket(0)
        bucket.insert(Record(7, b"NEEDLE"))
        assert b"NEEDLE" in bytes(bucket.image)

    def test_deleted_record_zeroed_in_image(self):
        """Freed extents are zeroed so stale bytes cannot alias live data
        in page signatures."""
        bucket = Bucket(0)
        bucket.insert(Record(7, b"SECRET-PAYLOAD"))
        bucket.delete(7)
        assert b"SECRET-PAYLOAD" not in bytes(bucket.image)

    def test_index_pages(self):
        bucket = Bucket(0)
        for key in range(10):
            bucket.insert(Record(key, b"v"))
        pages = bucket.index_pages(page_bytes=32)
        assert b"".join(pages)[:8] == (0).to_bytes(8, "little")
