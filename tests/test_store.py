"""Durable signature-sealed storage plane: log, checkpoint, recovery.

The load-bearing properties of PR 5:

* every frame is sealed with the scheme's n-symbol signature, so a
  torn write or <= n corrupted symbols is detected with *certainty*
  (Proposition 1) -- recovery materializes exactly the longest
  certified log prefix;
* recovery with a sealed checkpoint folds only the post-checkpoint
  tail (Proposition 3) yet produces bytes and signature maps identical
  to a cold full replay and to ``SignatureMap.compute`` from scratch;
* mid-prefix damage is localized to condemned pages (Proposition 5),
  surfaced with their certified expected signatures so redundant peers
  can supply verified replacement content.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backup import BackupEngine
from repro.cluster import Cluster, Crash, FaultPlan, NodeState, RetryPolicy
from repro.errors import BackupError, StoreError
from repro.obs import MetricsRegistry, use_registry
from repro.sig import SignatureMap, get_batch_signer, make_scheme
from repro.store import (
    KIND_DELTA,
    KIND_PAGE,
    KIND_TRUNCATE,
    DurableDisk,
    Frame,
    FrameError,
    PageStore,
    SegmentedLog,
)
from repro.store import checkpoint as ckpt
from repro.store import frames as fr

SCHEME = make_scheme()                  # GF(2^16), n=2: the paper's default
PAGE_BYTES = 256
PAGE_SYMBOLS = PAGE_BYTES // 2


def compute_map(image: bytes, page_bytes: int = PAGE_BYTES) -> SignatureMap:
    return SignatureMap.compute(SCHEME, image,
                                page_bytes // SCHEME.scheme_id.symbol_bytes)


def assert_map_matches(store: PageStore, volume: str, image: bytes) -> None:
    """The warm map must equal a from-scratch compute over the bytes."""
    page_bytes = store.page_bytes_of(volume)
    expected = compute_map(image, page_bytes)
    produced = store.signature_map(volume)
    assert produced.signatures == expected.signatures
    assert produced.total_symbols == expected.total_symbols


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

class TestFrames:
    def test_roundtrip_all_kinds(self):
        seal = SCHEME.scheme_id.signature_bytes
        for kind, payload in (
                (KIND_PAGE, fr.encode_page(3, 64, b"x" * 64)),
                (KIND_DELTA, fr.encode_delta(4096, 128, b"\x01\x02")),
                (KIND_TRUNCATE, fr.encode_truncate(2048, 64))):
            frame = Frame(kind, 7, "vol", payload)
            encoded = fr.encode(SCHEME, frame)
            parsed, end, body_end = fr.parse_at(encoded, 0, seal)
            assert parsed == frame
            assert end == len(encoded) and body_end == end - seal
            assert SCHEME.sign(encoded[:body_end],
                               strict=False).to_bytes() == encoded[body_end:]

    def test_encode_many_equals_encode(self):
        frames = [Frame(KIND_PAGE, seq, "v",
                        fr.encode_page(seq, 32, bytes([seq]) * 32))
                  for seq in range(5)]
        assert fr.encode_many(SCHEME, frames) == \
            [fr.encode(SCHEME, frame) for frame in frames]

    def test_payload_codecs_roundtrip(self):
        assert fr.decode_page(fr.encode_page(9, 128, b"abc")) == \
            (9, 128, b"abc")
        assert fr.decode_delta(fr.encode_delta(77, 5, b"\xff")) == \
            (77, 5, b"\xff")
        assert fr.decode_truncate(fr.encode_truncate(12, 64)) == (12, 64)

    def test_truncated_payloads_raise_frame_error(self):
        for decoder in (fr.decode_page, fr.decode_delta, fr.decode_truncate):
            with pytest.raises(FrameError):
                decoder(b"\x01")

    def test_parse_rejects_bad_magic_and_short_buffers(self):
        encoded = bytearray(fr.encode(
            SCHEME, Frame(KIND_PAGE, 0, "v", fr.encode_page(0, 32, b"y" * 32))
        ))
        seal = SCHEME.scheme_id.signature_bytes
        assert fr.parse_at(encoded[:-1], 0, seal) is None   # torn mid-frame
        encoded[0] ^= 0xFF
        assert fr.parse_at(encoded, 0, seal) is None        # bad magic


# ----------------------------------------------------------------------
# Segmented log
# ----------------------------------------------------------------------

def _page_frame(seq: int, index: int = 0, fill: int = 0) -> Frame:
    return Frame(KIND_PAGE, seq, "vol",
                 fr.encode_page(index, 64, bytes([fill]) * 64))


class TestSegmentedLog:
    def test_append_scan_certifies_everything(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME)
        frames = [_page_frame(seq, seq, seq) for seq in range(8)]
        offsets = log.append_many(frames)
        assert offsets == sorted(offsets)
        scan = log.scan()
        assert [sf.frame for sf in scan.frames] == frames
        assert not scan.corrupt and scan.torn_start is None
        assert scan.certified_end == log.total_bytes

    @pytest.mark.parametrize("flush", ["frame", "group"])
    def test_segments_roll_and_positions_stay_absolute(self, tmp_path,
                                                       flush):
        log = SegmentedLog(tmp_path, SCHEME, segment_bytes=4096,
                           flush=flush)
        for seq in range(80):
            log.append(_page_frame(seq, seq, seq % 251))
        assert log.segment_count > 1
        scan = log.scan()
        assert len(scan.frames) == 80 and not scan.corrupt
        assert scan.frames[-1].end == log.total_bytes

    def test_torn_tail_is_everything_after_last_valid_frame(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME)
        log.append(_page_frame(0))
        keep = log.total_bytes
        log.append(_page_frame(1))
        log.crash_cut(keep + 10)        # the second frame is torn mid-write
        scan = log.scan()
        assert len(scan.frames) == 1
        assert scan.torn_start == keep and scan.torn_bytes == 10

    def test_bit_rot_rejected_with_resync(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME)
        log.append(_page_frame(0, 0, 1))
        second = log.total_bytes
        log.append(_page_frame(1, 1, 2))
        third = log.total_bytes
        log.append(_page_frame(2, 2, 3))
        log.corrupt_bytes(second + 40, b"\xff")     # inside frame 1's data
        scan = log.scan()
        assert [sf.frame.seq for sf in scan.frames] == [0, 2]
        assert len(scan.corrupt) == 1
        region = scan.corrupt[0]
        assert (region.start, region.reason) == (second, "seal")
        assert region.end == third
        assert region.frame is not None and region.frame.seq == 1

    def test_trusted_prefix_skips_seal_checks(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME)
        log.append(_page_frame(0))
        trusted = log.total_bytes
        log.append(_page_frame(1))
        log.corrupt_bytes(30, b"\x55")              # rot inside frame 0
        assert len(log.scan().corrupt) == 1
        scan = log.scan(trusted_bytes=trusted)      # checkpointed prefix
        assert len(scan.frames) == 2 and not scan.corrupt

    def test_truncate_to_validates_bounds(self, tmp_path):
        log = SegmentedLog(tmp_path, SCHEME)
        log.append(_page_frame(0))
        with pytest.raises(StoreError):
            log.truncate_to(log.total_bytes + 1)
        assert log.truncate_to(log.total_bytes) == 0


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

class TestCheckpoint:
    def _snapshot(self, store: PageStore) -> ckpt.Checkpoint:
        store.checkpoint()
        loaded = ckpt.load(store.directory, SCHEME)
        assert loaded is not None
        return loaded

    def test_roundtrip_preserves_warm_state(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("a", bytes(range(256)) * 4, PAGE_BYTES)
        snapshot = self._snapshot(store)
        assert snapshot.position == store.log_bytes
        volume = snapshot.volumes["a"]
        assert volume.image_len == 1024
        assert volume.map.signatures == store.signature_map("a").signatures
        assert volume.tree.root == store.signature_tree("a").root

    def test_any_flipped_byte_invalidates(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("a", b"z" * 512, PAGE_BYTES)
        store.checkpoint()
        path = store.directory / ckpt.FILENAME
        blob = bytearray(path.read_bytes())
        for at in (0, len(blob) // 2, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01
            assert ckpt.decode(bytes(flipped), SCHEME) is None

    def test_foreign_scheme_rejected(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("a", b"q" * 256, PAGE_BYTES)
        store.checkpoint()
        blob = (store.directory / ckpt.FILENAME).read_bytes()
        assert ckpt.decode(blob, make_scheme(f=8, n=4)) is None


# ----------------------------------------------------------------------
# PageStore: writing and materialization
# ----------------------------------------------------------------------

class TestPageStoreWrites:
    def test_opening_an_existing_log_requires_recover(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_page("v", 0, b"a" * PAGE_BYTES, PAGE_BYTES)
        store.close()
        with pytest.raises(StoreError, match="recover"):
            PageStore(SCHEME, tmp_path / "s")

    def test_short_final_page_sets_length(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_page("v", 0, b"a" * PAGE_BYTES, PAGE_BYTES)
        store.write_page("v", 1, b"b" * 10)
        assert store.image_len("v") == PAGE_BYTES + 10
        assert store.read_page("v", 1) == b"b" * 10
        assert_map_matches(store, "v", store.image("v"))

    def test_page_size_is_validated(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        with pytest.raises(StoreError):
            store.ensure_volume("odd", 255)          # not symbol-aligned
        with pytest.raises(StoreError):
            store.ensure_volume("huge", 2 * (SCHEME.max_page_symbols + 1))
        with pytest.raises(StoreError):
            store.write_page("v", 0, b"x" * 100, 64)  # data > page

    def test_record_extent_logs_only_the_xor(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        image = bytearray(b"\x11" * 512)
        store.write_image("v", bytes(image), PAGE_BYTES)
        before = bytes(image[100:140])
        after = bytes(40)
        image[100:140] = after
        offset = store.record_extent("v", 100, before, after, len(image))
        assert offset is not None
        assert store.image("v") == bytes(image)
        assert_map_matches(store, "v", bytes(image))
        assert store.record_extent("v", 0, b"", b"", len(image)) is None

    def test_truncate_and_regrow(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("v", b"\x77" * 1024, PAGE_BYTES)
        store.truncate("v", 300)
        assert store.image("v") == b"\x77" * 300
        store.truncate("v", 600)
        assert store.image("v") == b"\x77" * 300 + bytes(300)
        assert_map_matches(store, "v", store.image("v"))

    def test_mismatched_page_size_rejected(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.ensure_volume("v", PAGE_BYTES)
        with pytest.raises(StoreError):
            store.ensure_volume("v", 2 * PAGE_BYTES)


# ----------------------------------------------------------------------
# PageStore: certified recovery
# ----------------------------------------------------------------------

def _churned_store(directory: Path, checkpoint: bool = True):
    """A store with an image, deltas before and after a checkpoint.

    Returns ``(store, image, mutations)`` where each mutation is
    ``(offset, after_bytes, log_end_after_frame)``.
    """
    store = PageStore(SCHEME, directory)
    image = bytearray(bytes(range(256)) * 8)        # 8 pages
    store.write_image("v", bytes(image), PAGE_BYTES)
    mutations = []

    def mutate(offset: int, fill: int) -> None:
        before = bytes(image[offset:offset + 32])
        after = bytes([fill]) * 32
        image[offset:offset + 32] = after
        store.record_extent("v", offset, before, after, len(image))
        mutations.append((offset, after, store.log_bytes))

    for step in range(6):
        mutate(step * 300, 0xA0 + step)
    if checkpoint:
        store.checkpoint()
    for step in range(4):
        mutate(step * 410 + 64, 0xC0 + step)
    return store, image, mutations


class TestRecovery:
    def test_clean_recovery_with_and_without_checkpoint(self, tmp_path):
        for use_checkpoint in (True, False):
            directory = tmp_path / f"s-{use_checkpoint}"
            store, image, _ = _churned_store(directory)
            store.close()
            recovered, report = PageStore.recover(
                SCHEME, directory, use_checkpoint=use_checkpoint)
            assert report.clean
            assert report.used_checkpoint is use_checkpoint
            assert recovered.image("v") == bytes(image)
            assert_map_matches(recovered, "v", bytes(image))
            if use_checkpoint:
                assert report.frames_folded < report.frames_valid
            recovered.close()

    def test_tail_verify_matches_full_verify(self, tmp_path):
        store, image, _ = _churned_store(tmp_path / "s")
        store.close()
        recovered, report = PageStore.recover(SCHEME, tmp_path / "s",
                                              verify="tail")
        assert report.clean and report.used_checkpoint
        assert recovered.image("v") == bytes(image)
        assert_map_matches(recovered, "v", bytes(image))
        recovered.close()
        with pytest.raises(StoreError):
            PageStore.recover(SCHEME, tmp_path / "s", verify="bogus")

    def test_torn_tail_rolls_back_to_last_certified_frame(self, tmp_path):
        store, image, mutations = _churned_store(tmp_path / "s",
                                                 checkpoint=False)
        cut = mutations[-1][2] - 7       # mid final frame
        store.crash_cut(cut)
        store.close()
        recovered, report = PageStore.recover(SCHEME, tmp_path / "s")
        # The final mutation was torn: recovery must land exactly on the
        # state after the previous frame.
        undone = bytearray(bytes(range(256)) * 8)
        for m_offset, m_after, m_end in mutations:
            if m_end <= cut:
                undone[m_offset:m_offset + 32] = m_after
        assert report.torn_bytes == cut - mutations[-2][2]
        assert recovered.image("v") == bytes(undone)
        assert_map_matches(recovered, "v", bytes(undone))
        assert recovered.log_bytes == mutations[-2][2]
        recovered.close()

    def test_checkpoint_beyond_certified_prefix_is_rejected(self, tmp_path):
        store, _image, mutations = _churned_store(tmp_path / "s")
        checkpoint_position = ckpt.load(store.directory, SCHEME).position
        store.crash_cut(checkpoint_position - 5)    # tear the checkpointed tail
        store.close()
        for verify in ("full", "tail"):
            recovered, report = PageStore.recover(SCHEME, tmp_path / "s",
                                                  verify=verify)
            assert not report.used_checkpoint
            assert_map_matches(recovered, "v", recovered.image("v"))
            recovered.close()

    def test_writes_continue_after_recovery(self, tmp_path):
        store, image, _ = _churned_store(tmp_path / "s")
        store.close()
        recovered, _report = PageStore.recover(SCHEME, tmp_path / "s")
        recovered.write_page("v", 0, b"\x00" * PAGE_BYTES)
        final = b"\x00" * PAGE_BYTES + bytes(image[PAGE_BYTES:])
        recovered.close()
        again, report = PageStore.recover(SCHEME, tmp_path / "s")
        assert report.clean
        assert again.image("v") == final
        assert_map_matches(again, "v", final)
        again.close()


# ----------------------------------------------------------------------
# The acceptance sweep: seeded faults, certain detection, exact blame
# ----------------------------------------------------------------------

class TestFaultSweep:
    """Every injected corruption detected; condemnation names exactly
    the damaged pages; patched content is verified by certified
    signatures; the result is byte-identical to the last durable state.
    """

    @pytest.mark.parametrize("victim_index", [0, 2, 4])
    @pytest.mark.parametrize("rot_at", [20, 40, 60])
    def test_sweep(self, tmp_path, victim_index, rot_at):
        directory = tmp_path / f"s-{victim_index}-{rot_at}"
        store, image, mutations = _churned_store(directory)
        # Tear the log mid-way through the final delta frame.
        cut = mutations[-1][2] - 9
        # Rot two bytes (<= n = 2 symbols) inside a pre-checkpoint
        # delta frame's payload: detection is then *certain* (Prop. 1).
        victim_offset, _after, victim_end = mutations[victim_index]
        victim_pages = sorted({victim_offset // PAGE_BYTES,
                               (victim_offset + 31) // PAGE_BYTES})
        store.corrupt_log(victim_end - 20, b"\xff\xff")
        store.crash_cut(cut)
        store.close()

        # The last durable state: initial image + every mutation whose
        # frame fully hit the log -- including the rotted one (it was
        # durable; the *log copy* rotted afterwards).
        durable = bytearray(bytes(range(256)) * 8)
        for offset, after, end in mutations:
            if end <= cut:
                durable[offset:offset + 32] = after

        recovered, report = PageStore.recover(SCHEME, directory)
        assert report.torn_bytes > 0
        assert report.corrupt_frames == 1
        assert sorted(report.condemned.get("v", ())) == victim_pages
        expected = report.expected["v"]
        assert sorted(expected) == victim_pages

        # Patch each condemned page from the reference copy; certified
        # signatures must verify the patch before it is accepted.
        signer = get_batch_signer(SCHEME)
        for page in victim_pages:
            patch = bytes(durable[page * PAGE_BYTES:(page + 1) * PAGE_BYTES])
            sealed = signer.sign_map(patch, PAGE_SYMBOLS).signatures[0]
            assert sealed == expected[page]
            recovered.write_page("v", page, patch)

        assert recovered.image("v") == bytes(durable)
        assert_map_matches(recovered, "v", bytes(durable))
        recovered.close()

    def test_rot_in_superseded_frame_condemns_nothing(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_page("v", 0, b"\x01" * PAGE_BYTES, PAGE_BYTES)
        first_end = store.log_bytes
        store.write_page("v", 0, b"\x02" * PAGE_BYTES)   # supersedes it
        store.checkpoint()
        store.corrupt_log(first_end - 50, b"\xff\xff")
        store.close()
        recovered, report = PageStore.recover(SCHEME, tmp_path / "s")
        assert report.corrupt_frames == 1
        assert not any(report.condemned.values())
        assert recovered.image("v") == b"\x02" * PAGE_BYTES
        recovered.close()


# ----------------------------------------------------------------------
# Scrub (silent rot on the materialized image)
# ----------------------------------------------------------------------

class TestScrub:
    def test_scrub_localizes_silent_rot(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        image = bytes(range(256)) * 4
        store.write_image("v", image, PAGE_BYTES)
        store.signature_map("v")        # certify (warm) the clean state
        state = store._require("v")
        state.replica.data[2 * PAGE_BYTES + 5] ^= 0xFF    # silent bit rot
        report = store.scrub("v")
        assert report.condemned == (2,)
        assert report.expected[2] == compute_map(image).signatures[2]
        # After the scrub the warm state matches the (rotted) bytes.
        assert_map_matches(store, "v", store.image("v"))

    def test_clean_scrub_condemns_nothing(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("v", b"\x42" * 1024, PAGE_BYTES)
        report = store.scrub("v")
        assert report.condemned == () and not report.expected


# ----------------------------------------------------------------------
# Property: arbitrary histories + arbitrary torn cuts
# ----------------------------------------------------------------------

HYP_PAGE = 64
HYP_PAGES = 6


def _apply_model(image: bytearray, op) -> None:
    """Mirror of PageStore._apply for the model image."""
    kind = op[0]
    if kind == "page":
        _kind, index, data = op
        offset = index * HYP_PAGE
        if offset > len(image):
            image.extend(bytes(offset - len(image)))
        end = offset + len(data)
        if end > len(image):
            image.extend(bytes(end - len(image)))
        image[offset:end] = data
        if offset + HYP_PAGE >= len(image) and len(image) > end:
            del image[end:]
    elif kind == "delta":
        _kind, offset, content = op
        image[offset:offset + len(content)] = content
    elif kind == "trunc":
        _kind, length = op
        if length < len(image):
            del image[length:]
        else:
            image.extend(bytes(length - len(image)))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("page"),
                  st.integers(0, HYP_PAGES - 1),
                  st.binary(min_size=2, max_size=HYP_PAGE)
                  .filter(lambda b: len(b) % 2 == 0)),
        st.tuples(st.just("delta"),
                  st.integers(0, HYP_PAGES * HYP_PAGE - 32).map(
                      lambda o: o - o % 2),
                  st.binary(min_size=2, max_size=32)
                  .filter(lambda b: len(b) % 2 == 0)),
        st.tuples(st.just("trunc"),
                  st.integers(1, HYP_PAGES * HYP_PAGE).map(
                      lambda n: n - n % 2)),
        st.tuples(st.just("ckpt")),
    ),
    min_size=1, max_size=12,
)


class TestRecoveryProperty:
    @settings(max_examples=20, deadline=None)
    @given(ops=_OPS, cut_fraction=st.floats(0.0, 1.0), data=st.data())
    def test_recovery_is_the_longest_certified_prefix(self, ops,
                                                      cut_fraction, data):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "s"
            store = PageStore(SCHEME, directory)
            image = bytearray((bytes(range(256)) * 2)[:HYP_PAGES * HYP_PAGE])
            store.write_image("v", bytes(image), HYP_PAGE)
            baseline = store.log_bytes
            # (log end, image bytes) after every single-frame operation.
            snapshots = [(baseline, bytes(image))]
            for op in ops:
                if op[0] == "page":
                    _kind, index, content = op
                    if index * HYP_PAGE > len(image):
                        continue                      # no holes past the end
                    store.write_page("v", index, content)
                elif op[0] == "delta":
                    _kind, offset, content = op
                    if offset + len(content) > len(image):
                        continue
                    before = bytes(image[offset:offset + len(content)])
                    store.record_extent("v", offset, before, content,
                                        len(image))
                elif op[0] == "trunc":
                    store.truncate("v", op[1])
                else:
                    store.checkpoint()
                    continue
                _apply_model(image, op)
                snapshots.append((store.log_bytes, bytes(image)))
            total = store.log_bytes
            cut = baseline + int(cut_fraction * (total - baseline))
            store.crash_cut(cut)
            store.close()

            surviving = [s for s in snapshots if s[0] <= cut]
            expected_end, expected_image = surviving[-1]
            for use_checkpoint in (True, False):
                recovered, report = PageStore.recover(
                    SCHEME, directory, use_checkpoint=use_checkpoint)
                try:
                    assert recovered.image("v") == expected_image
                    assert_map_matches(recovered, "v", expected_image)
                    assert not any(report.condemned.values())
                    assert report.corrupt_frames == 0
                    assert recovered.log_bytes == expected_end
                finally:
                    recovered.close()


# ----------------------------------------------------------------------
# Consumers: DurableDisk under the backup engine
# ----------------------------------------------------------------------

class TestDurableDisk:
    def _engine(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "disk")
        disk = DurableDisk(store)
        engine = BackupEngine(SCHEME, disk, page_bytes=PAGE_BYTES)
        return store, disk, engine

    def test_backup_restore_roundtrip_survives_recovery(self, tmp_path):
        store, disk, engine = self._engine(tmp_path)
        image = bytes(range(256)) * 6
        engine.backup("bucket", image)
        assert engine.restore("bucket", verify=True) == image
        mutated = b"\x00" * 64 + image[64:]
        report = engine.backup("bucket", mutated)     # only changed pages
        assert report.pages_written < report.pages_total
        assert engine.restore("bucket", verify=True) == mutated
        store.close()                                  # crash
        recovered, report = PageStore.recover(SCHEME, tmp_path / "disk")
        assert report.clean
        fresh = DurableDisk(recovered)
        assert fresh.read_volume("bucket") == mutated
        assert_map_matches(recovered, "bucket", mutated)
        recovered.close()

    def test_stats_and_interface_match_simdisk(self, tmp_path):
        _store, disk, _engine = self._engine(tmp_path)
        disk.write_page("v", 0, b"a" * PAGE_BYTES, PAGE_BYTES)
        assert disk.has_page("v", 0) and not disk.has_page("v", 9)
        assert disk.volume_pages("v") == [0]
        assert disk.read_page("v", 0) == b"a" * PAGE_BYTES
        assert disk.stats.writes == 1 and disk.stats.reads == 1
        assert disk.stats.bytes_written == PAGE_BYTES
        with pytest.raises(BackupError):
            disk.read_page("v", 7)
        with pytest.raises(BackupError):
            disk.write_page("v", 0, b"x" * (PAGE_BYTES + 2), PAGE_BYTES)

    def test_silent_rot_is_caught_by_both_scrubs(self, tmp_path):
        store, disk, engine = self._engine(tmp_path)
        image = bytes(range(256)) * 4
        engine.backup("bucket", image)
        store.signature_map("bucket")   # certify (warm) the clean state
        disk.corrupt_page("bucket", 1, position=3)
        assert engine.scrub("bucket") == [1]           # engine's own map
        report = store.scrub("bucket")                 # store's warm state
        assert report.condemned == (1,)
        assert report.expected[1] == compute_map(image).signatures[1]


# ----------------------------------------------------------------------
# Consumers: durable cluster nodes
# ----------------------------------------------------------------------

class TestDurableCluster:
    def _run(self, tmp_path, seed=11):
        plan = FaultPlan(crashes=(Crash("node1", at=0.05, recover_at=0.2),))
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(servers=3, seed=seed, plan=plan,
                              retry=RetryPolicy.patient(),
                              durable_dir=tmp_path / "cluster")
            client = cluster.client()
            for key in range(24):
                assert client.insert(key, f"value-{key}".encode()).ok
            cluster.settle()
        return cluster, registry

    def test_crash_recovers_by_certified_local_replay(self, tmp_path):
        cluster, registry = self._run(tmp_path)
        node = cluster.nodes[1]
        assert node.state is NodeState.UP
        assert registry.total("cluster.durable_recoveries", node="node1") == 1
        assert registry.total("cluster.durable_fallbacks") == 0
        assert registry.total("cluster.recoveries", node="node1") == 1
        cluster.check_replicas()

    def test_recovered_node_serves_and_stays_durable(self, tmp_path):
        cluster, _registry = self._run(tmp_path)
        client = cluster.client()
        for key in (1, 4, 7, 13):
            assert client.search(key).status == "found"
        node = cluster.nodes[1]
        assert node.store is not None
        assert node.store.image(node.IMAGE_VOLUME) == node.image_bytes()

    def test_unrecoverable_log_falls_back_to_parity(self, tmp_path):
        plan = FaultPlan(crashes=(Crash("node1", at=0.05, recover_at=0.2),))
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(servers=3, seed=3, plan=plan,
                              retry=RetryPolicy.patient(),
                              durable_dir=tmp_path / "cluster")
            client = cluster.client()
            for key in range(12):
                assert client.insert(key, f"value-{key}".encode()).ok

            node = cluster.nodes[1]
            original_crash = node.crash

            def crash_and_wipe():
                store_dir = node.store_dir
                original_crash()
                for segment in store_dir.glob("seg-*.log"):
                    segment.write_bytes(b"\x00" * segment.stat().st_size)

            node.crash = crash_and_wipe
            cluster.settle()
        assert node.state is NodeState.UP
        assert registry.total("cluster.durable_fallbacks") == 1
        assert registry.total("cluster.repair_bytes", phase="parity") > 0
        cluster.check_replicas()
        client = cluster.client()
        for key in range(12):
            assert client.search(key).status == "found"
