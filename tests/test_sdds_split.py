"""The SDDS split, done once: record moves and the serving plane's splits.

"Each split sends about half of a bucket to a newly created bucket"
(Section 2).  :meth:`SDDSServer.move_records` is the only routine that
moves records between buckets; :class:`LHFile` and :class:`RPFile` split
through it, and the serving plane splits through those files.  These
tests pin the move itself and check that a plane and a bare file fed the
same keys end in the same topology with exact stored signatures.
"""

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.sdds import LHFile, Record, RPFile, SDDSServer
from repro.serve import ServingPlane, key_for
from repro.serve import wire as swire
from repro.sig import make_scheme

SCHEME = make_scheme()


class TestMoveRecords:
    def test_move_records_carries_stored_signatures(self):
        source = SDDSServer(0, SCHEME, store_signatures=True)
        target = SDDSServer(1, SCHEME, store_signatures=True)
        for key in range(20):
            assert source.insert(Record(key, bytes([key]) * 5))
        signed = source.stats.sig_computations
        moved = source.move_records(target, lambda key: key % 2 == 1)
        assert [record.key for record in moved] == list(range(1, 20, 2))
        assert sorted(source.bucket.keys()) == list(range(0, 20, 2))
        assert sorted(target.bucket.keys()) == list(range(1, 20, 2))
        for key in range(1, 20, 2):
            assert target.search(key).value == bytes([key]) * 5
            assert target._stored_sigs[key] == \
                SCHEME.sign(bytes([key]) * 5, strict=False)
        assert set(source._stored_sigs) == set(range(0, 20, 2))
        # Carried across, never re-signed.
        assert source.stats.sig_computations == signed
        assert target.stats.sig_computations == 0


def _file_and_plane(family: str, keys: int):
    """Load the same keys into a bare file and a serving plane."""
    threshold, load = 64, 0.75
    if family == "lh":
        file = LHFile(SCHEME, capacity_records=threshold, initial_buckets=2,
                      split_load_factor=load, store_signatures=True)
    else:
        file = RPFile(SCHEME, capacity_records=threshold,
                      store_signatures=True)
    plane = ServingPlane(buckets=2 if family == "lh" else 1, family=family,
                         scheme=SCHEME, split_threshold=threshold,
                         split_load=load)
    plane.preload(keys)
    for index in range(keys):
        key = key_for(index)
        server = file.owner(key)
        assert server.insert(Record(key, plane.oracle[key]))
        if family == "lh":
            file.maybe_split()
        else:
            file.maybe_split(server)
    return file, plane


@pytest.mark.parametrize("family", ["lh", "rp"])
class TestPlaneSplitsLikeTheFile:
    def test_same_topology_and_exact_signatures(self, family):
        with use_registry(MetricsRegistry()):
            file, plane = _file_and_plane(family, 700)
        assert plane.splits > 3, "the load must force several splits"
        assert len(plane.nodes) == file.bucket_count
        for node, server in zip(plane.nodes, file.servers):
            assert node.bucket_id == server.server_id
            assert set(node.server.bucket.keys()) == \
                set(server.bucket.keys())
            if family == "lh":
                assert node.level == server.bucket.level
            else:
                assert node.bounds == (server.low, server.high)
            assert set(node.server._stored_sigs) == \
                set(node.server.bucket.keys())
            for record in node.server.bucket.records():
                assert node.server._stored_sigs[record.key] == \
                    SCHEME.sign(record.value, strict=False)
        if family == "lh":
            assert (plane.file.state.level, plane.file.state.pointer) == \
                (file.state.level, file.state.pointer)
        file.check_placement()
        plane.file.check_placement()

    def test_split_accounting_leaves_the_clock_alone(self, family):
        with use_registry(MetricsRegistry()) as registry:
            _file, plane = _file_and_plane(family, 400)
            shipped = sum(entry[3] for entry in plane.split_log)
            assert shipped > 0
            assert registry.total("serve.split_bytes") == shipped
            assert registry.total("net.messages",
                                  kind=swire.SPLIT_KIND) == plane.splits
        # Splits during preload are accounted, never waited for.
        assert plane.clock.now == 0.0
