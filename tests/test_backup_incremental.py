"""Incremental maintenance wired into its consumers.

Covers the PR 4 integration surface: ``BackupEngine.backup_incremental``
(journal fold, quiet passes, the dirty-extent full-re-sign fallback,
warm trees), warm :class:`~repro.sync.Replica` state across every
mutator, map/tree sync with warm endpoints, the SDDS server's O(|delta|)
stored-signature updates under a journaled heap, and the cluster's
sealed mirror delta frames under corruption.
"""

import numpy as np

from repro.backup import BackupEngine, DirtyBitTracker
from repro.cluster import Cluster, wire
from repro.obs import MetricsRegistry, use_registry
from repro.sdds import Record, SDDSServer, UpdateOutcome
from repro.sdds.bucket import Bucket
from repro.sig import SignatureMap, SignatureTree
from repro.sim import DiskModel, SimClock, SimDisk, SimNetwork
from repro.sync import Replica, sync_by_map, sync_by_tree

PAGE_BYTES = 256


def _engine(scheme, **kwargs) -> BackupEngine:
    return BackupEngine(scheme, SimDisk(SimClock(), model=DiskModel()),
                        page_bytes=PAGE_BYTES, **kwargs)


def _loaded_bucket(count: int = 60, value_bytes: int = 48) -> Bucket:
    bucket = Bucket(0, capacity_records=count + 8)
    rng = np.random.default_rng(17)
    for key in range(count):
        bucket.insert(Record(key, rng.integers(
            0, 256, size=value_bytes, dtype=np.uint8).tobytes()))
    return bucket


def _assert_map_exact(engine, volume, scheme, image) -> None:
    expected = SignatureMap.compute(
        scheme, bytes(image), PAGE_BYTES // scheme.scheme_id.symbol_bytes
    )
    stored = engine.signature_map(volume)
    assert stored.signatures == expected.signatures
    assert stored.total_symbols == expected.total_symbols


class TestBackupIncremental:
    def test_folded_map_matches_from_scratch_scan(self, scheme16):
        bucket = _loaded_bucket()
        engine = _engine(scheme16)
        journal = engine.attach_heap(bucket.heap)
        engine.backup_incremental("vol", bucket.image, journal)

        for key in (3, 17, 41):
            bucket.update(key, bytes(48))
        bucket.delete(9)
        bucket.insert(Record(90, b"x" * 48))
        report = engine.backup_incremental("vol", bucket.image, journal)
        assert report.pages_written < report.pages_total
        assert not journal
        _assert_map_exact(engine, "vol", scheme16, bucket.image)

    def test_quiet_pass_writes_nothing(self, scheme16):
        bucket = _loaded_bucket()
        engine = _engine(scheme16)
        journal = engine.attach_heap(bucket.heap)
        engine.backup_incremental("vol", bucket.image, journal)
        report = engine.backup_incremental("vol", bucket.image, journal)
        assert report.pages_written == 0
        assert report.bytes_written == 0

    def test_pseudo_write_of_identical_bytes_is_free(self, scheme16):
        bucket = _loaded_bucket()
        engine = _engine(scheme16)
        journal = engine.attach_heap(bucket.heap)
        engine.backup_incremental("vol", bucket.image, journal)
        record = bucket.get(5)
        bucket.update(5, record.value)  # journaled, but nothing changed
        report = engine.backup_incremental("vol", bucket.image, journal)
        assert report.pages_written == 0

    def test_tracker_fallback_resigns_smeared_pages(self, scheme16):
        with use_registry(MetricsRegistry()) as registry:
            bucket = _loaded_bucket()
            engine = _engine(scheme16)
            journal = engine.attach_heap(bucket.heap)
            # Any dirty extent at all trips the full-page re-sign.
            tracker = DirtyBitTracker(bucket.heap, PAGE_BYTES,
                                      full_resign_fraction=1e-6)
            engine.backup_incremental("vol", bucket.image, journal, tracker)
            for key in (2, 30, 55):
                bucket.update(key, bytes(48))
            engine.backup_incremental("vol", bucket.image, journal, tracker)
            assert registry.total("backup.incremental_fallbacks") > 0
            _assert_map_exact(engine, "vol", scheme16, bucket.image)

    def test_warm_tree_matches_rebuild(self, scheme16):
        bucket = _loaded_bucket()
        engine = _engine(scheme16, use_tree=True, tree_fanout=4)
        journal = engine.attach_heap(bucket.heap)
        engine.backup_incremental("vol", bucket.image, journal)
        for key in (1, 20):
            bucket.update(key, bytes(48))
        engine.backup_incremental("vol", bucket.image, journal)
        rebuilt = SignatureTree.from_map(engine.signature_map("vol"), 4)
        warm = engine._trees["vol"]
        for warm_level, fresh_level in zip(warm.levels, rebuilt.levels):
            assert [n.signature for n in warm_level] == \
                [n.signature for n in fresh_level]


class TestReplicaWarmState:
    def _check(self, replica, scheme):
        page_symbols = replica.page_bytes // scheme.scheme_id.symbol_bytes
        expected = SignatureMap.compute(scheme, bytes(replica.data),
                                        page_symbols)
        assert replica.signature_map().signatures == expected.signatures
        rebuilt = SignatureTree.from_map(expected, 4)
        warm = replica.signature_tree(fanout=4)
        for warm_level, fresh_level in zip(warm.levels, rebuilt.levels):
            assert [n.signature for n in warm_level] == \
                [n.signature for n in fresh_level]

    def test_every_mutator_keeps_warm_state_exact(self, scheme16):
        rng = np.random.default_rng(23)
        replica = Replica("r", scheme16,
                          rng.integers(0, 256, size=40 * 32,
                                       dtype=np.uint8).tobytes(),
                          page_bytes=32)
        replica.signature_map()
        replica.signature_tree(fanout=4)
        replica.write_page(3, bytes(32))
        replica.write_at(100, b"patched!")
        replica.apply_xor(200, b"\xff\x00\xff\x00")
        self._check(replica, scheme16)
        replica.truncate(36 * 32)
        self._check(replica, scheme16)

    def test_grow_then_shrink_in_one_journal(self, scheme16):
        # Regression: a grow and a trim captured between folds used to
        # raise because the journal wrote past the final buffer length.
        replica = Replica("r", scheme16, bytes(20 * 8), page_bytes=8)
        replica.signature_map()
        replica.write_at(20 * 8, b"grown in")
        replica.truncate(20 * 8)
        self._check(replica, scheme16)

    def test_folds_are_metered(self, scheme16):
        with use_registry(MetricsRegistry()) as registry:
            replica = Replica("r", scheme16, bytes(16 * 16), page_bytes=16)
            replica.signature_map()
            replica.write_at(0, b"dirty bytes")
            replica.signature_map()
            assert registry.total("sync.incremental_folds") >= 1
            assert registry.total("sync.bytes_folded") > 0


class TestSyncWithWarmEndpoints:
    def _pair(self, scheme):
        rng = np.random.default_rng(31)
        base = rng.integers(0, 256, size=24 * 64, dtype=np.uint8).tobytes()
        source = Replica("source", scheme, base, page_bytes=64)
        target = Replica("target", scheme, base, page_bytes=64)
        for replica in (source, target):
            replica.signature_map()
            replica.signature_tree(fanout=4)
        source.write_at(70, b"diverged")
        source.write_at(900, b"also diverged")
        return source, target

    def test_sync_by_map_converges(self, scheme16):
        with use_registry(MetricsRegistry()) as registry:
            source, target = self._pair(scheme16)
            report = sync_by_map(source, target, SimNetwork())
            assert bytes(target.data) == bytes(source.data)
            assert report.pages_shipped > 0
            assert registry.total("sync.incremental_folds") >= 1

    def test_sync_by_tree_converges(self, scheme16):
        source, target = self._pair(scheme16)
        sync_by_tree(source, target, SimNetwork(), fanout=4)
        assert bytes(target.data) == bytes(source.data)


class TestServerDeltaUpdates:
    def test_conditional_update_takes_the_delta_path(self, scheme16):
        server = SDDSServer(0, scheme16, store_signatures=True)
        value = b"v" * 47  # odd length: the padded-symbol case
        server.insert(Record(1, value))
        before_sig = scheme16.sign(value, strict=False)
        after_value = b"v" * 20 + b"CHANGED" + b"v" * 20
        outcome = server.conditional_update(1, after_value, before_sig)
        assert outcome is UpdateOutcome.APPLIED
        assert server.stats.delta_updates == 1
        assert server._stored_sigs[1] == \
            scheme16.sign(after_value, strict=False)

    def test_stale_signature_is_rejected(self, scheme16):
        server = SDDSServer(0, scheme16, store_signatures=True)
        server.insert(Record(1, b"current value"))
        stale = scheme16.sign(b"some old value", strict=False)
        assert server.conditional_update(1, b"new", stale) is \
            UpdateOutcome.CONFLICT
        assert server.stats.delta_updates == 0

    def test_length_change_recomputes_in_full(self, scheme16):
        server = SDDSServer(0, scheme16, store_signatures=True)
        server.insert(Record(1, b"short"))
        before_sig = scheme16.sign(b"short", strict=False)
        outcome = server.conditional_update(1, b"a much longer value",
                                            before_sig)
        assert outcome is UpdateOutcome.APPLIED
        assert server.stats.delta_updates == 0
        assert server._stored_sigs[1] == \
            scheme16.sign(b"a much longer value", strict=False)

    def test_attach_heap_tracks_server_mutations(self, scheme16):
        server = SDDSServer(0, scheme16, store_signatures=True)
        engine = _engine(scheme16)
        journal = engine.attach_heap(server.bucket.heap)
        engine.backup_incremental("vol", server.bucket.image, journal)
        rng = np.random.default_rng(41)
        for key in range(30):
            server.insert(Record(key, rng.integers(
                0, 256, size=40, dtype=np.uint8).tobytes()))
        for key in (2, 11, 28):
            sig = scheme16.sign(server.search(key).value, strict=False)
            assert server.conditional_update(
                key, bytes(40), sig) is UpdateOutcome.APPLIED
        assert server.stats.delta_updates == 3
        server.delete(15)
        engine.backup_incremental("vol", server.bucket.image, journal)
        assert not journal
        _assert_map_exact(engine, "vol", scheme16, server.bucket.image)


class TestClusterDeltaFrames:
    def _settled_cluster(self):
        cluster = Cluster(servers=3, seed=7)
        client = cluster.client()
        for key in range(30):
            assert client.insert(key, f"record {key} ".encode() * 4).ok
        cluster.settle()
        return cluster

    def test_corrupt_delta_frame_is_dropped_not_applied(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = self._settled_cluster()
            host = cluster.mirror_host(0)
            assert host.mirror is not None
            before = bytes(host.mirror.data)
            body = wire.encode_traced(
                None, wire.encode_delta(len(before), 0, b"\xff\x00\xff\x00"))
            sealed = bytearray(wire.seal(cluster.scheme, body))
            sealed[4] ^= 0x40
            host.receive_mirror_delta(bytes(sealed))
            assert bytes(host.mirror.data) == before
            assert registry.total("cluster.corruptions_detected",
                                  where="mirror") == 1

    def test_valid_delta_frame_patches_the_mirror(self):
        with use_registry(MetricsRegistry()):
            cluster = self._settled_cluster()
            host = cluster.mirror_host(0)
            before = bytes(host.mirror.data)
            delta = b"\xff\x00\xff\x00"
            body = wire.encode_traced(
                None, wire.encode_delta(len(before), 8, delta))
            host.receive_mirror_delta(wire.seal(cluster.scheme, body))
            patched = bytes(host.mirror.data)
            assert patched[8:12] == bytes(
                b ^ d for b, d in zip(before[8:12], delta))
            assert patched[:8] == before[:8]
            assert patched[12:] == before[12:]

    def test_sparse_updates_converge_by_delta_frames(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = self._settled_cluster()
            client = cluster.client()
            shipped_before = registry.total("cluster.mirror_delta_bytes")
            for key in range(0, 30, 7):
                assert client.update(key, f"update {key} ".encode() * 4).ok
            cluster.settle()
            cluster.check_replicas()
            assert registry.total("cluster.mirror_deltas") > 0
            # The sparse-update round ships far less than the images.
            shipped = registry.total("cluster.mirror_delta_bytes") \
                - shipped_before
            images = sum(len(n.image_bytes()) for n in cluster.nodes)
            assert 0 < shipped < images
