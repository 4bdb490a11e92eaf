"""Integration tests for the fault-injected cluster runtime.

The acceptance scenario of the subsystem: a 4-server cluster under 10%
message drop and 0.1% byte corruption, with a mid-workload crash --
every client operation eventually succeeds, every injected corruption
is detected by the signature seal (zero silent acceptances), and
post-crash recovery re-converges the replicas.  Identical seeds must
yield byte-identical run-report JSON.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterError,
    ClusterResult,
    Crash,
    FaultPlan,
    LinkFaults,
    NodeState,
    Partition,
    RetryExhaustedError,
    RetryPolicy,
    deserialize_bucket,
    serialize_bucket,
)
from repro.errors import StoreError
from repro.obs import MetricsRegistry, RunReport, use_registry
from repro.sdds import Record, SDDSServer
from repro.sig import make_scheme


def run_workload(cluster, operations=40):
    """A mixed workload; returns every ClusterResult."""
    client = cluster.client()
    results = [client.insert(key, f"record {key}".encode() * 4)
               for key in range(operations)]
    results += [client.update(key, f"updated {key}".encode() * 3)
                for key in range(0, operations, 3)]
    results += [client.search(key) for key in range(0, operations, 5)]
    results += [client.delete(key) for key in range(0, operations, 7)]
    cluster.settle()
    return results


class TestHappyPath:
    def test_reliable_network_no_retries(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=4, seed=1)
            results = run_workload(cluster)
        assert all(result.ok for result in results)
        assert registry.total("cluster.retries") == 0
        assert registry.total("cluster.corruptions_detected") == 0
        cluster.check_replicas()

    def test_search_returns_the_value(self):
        cluster = Cluster(servers=4, seed=1)
        client = cluster.client()
        client.insert(9, b"nine")
        result = client.search(9)
        assert result.status == "found"
        assert result.value == b"nine"
        assert client.search(999).status == "missing"

    def test_update_and_delete(self):
        cluster = Cluster(servers=4, seed=1)
        client = cluster.client()
        client.insert(5, b"before")
        assert client.update(5, b"after").status == "applied"
        assert client.search(5).value == b"after"
        assert client.delete(5).status == "deleted"
        assert client.search(5).status == "missing"

    def test_pseudo_update_filtered_server_side(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=4, seed=1)
            client = cluster.client()
            client.insert(5, b"same value")
            result = client.update(5, b"same value")
        assert result.status == "applied"
        assert registry.total("cluster.pseudo_updates") == 1

    def test_mirrors_track_mutations(self):
        cluster = Cluster(servers=4, seed=1)
        client = cluster.client()
        for key in range(12):
            client.insert(key, f"record {key}".encode())
        cluster.settle()
        for node in cluster.nodes:
            mirror = cluster.mirror_of(node.index)
            assert bytes(mirror.data) == node.image_bytes()


class TestValidation:
    def test_needs_two_servers(self):
        with pytest.raises(ClusterError):
            Cluster(servers=1)

    def test_oversized_value_rejected_client_side(self):
        cluster = Cluster(servers=4, seed=1)
        client = cluster.client()
        with pytest.raises(ClusterError):
            client.insert(1, b"x" * (cluster.max_value_bytes + 1))

    def test_unknown_crash_node_rejected(self):
        plan = FaultPlan(crashes=(Crash("node9", at=0.1, recover_at=0.2),))
        with pytest.raises(ClusterError):
            Cluster(servers=4, seed=1, plan=plan)


class TestResultSemantics:
    def test_first_attempt_statuses(self):
        assert ClusterResult("insert", "inserted").ok
        assert ClusterResult("search", "found").ok
        assert ClusterResult("update", "applied").ok
        assert ClusterResult("delete", "deleted").ok
        assert not ClusterResult("insert", "duplicate").ok
        assert not ClusterResult("search", "missing").ok

    def test_at_least_once_caveats(self):
        # A retried insert answered "duplicate" means an earlier attempt
        # landed and only its reply was lost; same for delete/"missing".
        assert ClusterResult("insert", "duplicate", attempts=2).ok
        assert ClusterResult("delete", "missing", attempts=3).ok
        assert not ClusterResult("update", "missing", attempts=2).ok
        assert not ClusterResult("search", "missing", attempts=2).ok


class TestAcceptanceScenario:
    """ISSUE acceptance: 10% drop + 0.1% corruption + a crash, 4 servers."""

    def run(self, seed=2026):
        lossy = FaultPlan.lossy(drop=0.10, corrupt=0.001, jitter=200e-6)
        plan = FaultPlan(
            default=lossy.default,
            crashes=(Crash("node2", at=0.05, recover_at=0.12),),
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(servers=4, seed=seed, plan=plan,
                              retry=RetryPolicy.patient())
            results = run_workload(cluster, operations=60)
        return cluster, registry, results

    def test_every_operation_eventually_succeeds(self):
        cluster, registry, results = self.run()
        failed = [r for r in results if not r.ok]
        assert not failed
        # The fault plan actually bit: drops happened, retries happened.
        assert cluster.faulty_network.injected["drop"] > 0
        assert registry.total("cluster.retries") > 0

    def test_zero_silent_corruption_acceptances(self):
        cluster, registry, _ = self.run(seed=4)
        injected = cluster.faulty_network.injected.get("corrupt", 0)
        detected = registry.total("cluster.corruptions_detected")
        assert injected == detected

    def test_crash_recovery_reconverges_replicas(self):
        cluster, registry, _ = self.run()
        node = cluster.nodes[2]
        assert node.state is NodeState.UP
        assert registry.total("cluster.crashes", node="node2") == 1
        assert registry.total("cluster.recoveries", node="node2") == 1
        assert registry.total("cluster.repair_bytes", phase="parity") > 0
        cluster.check_replicas()  # images match buckets, mirrors match images

    def test_recovered_node_still_serves_its_records(self):
        cluster, _, _ = self.run()
        client = cluster.client()
        # Keys hashing to node2 that were inserted before the crash and
        # not later deleted must have survived via parity reconstruction.
        for key in (2, 6, 10, 18):
            result = client.search(key)
            assert result.status == "found", f"key {key} lost in the crash"


class TestPartitions:
    def test_partitioned_client_heals_and_succeeds(self):
        plan = FaultPlan(partitions=(
            Partition(start=0.0, heal_at=0.02,
                      groups=(("client0",), ("node0", "node1"))),
        ))
        cluster = Cluster(servers=2, seed=5, plan=plan,
                          retry=RetryPolicy.patient())
        client = cluster.client()
        result = client.insert(0, b"through the partition")
        assert result.ok
        assert result.attempts > 1
        assert cluster.faulty_network.injected["partition_drop"] > 0


class TestRetryExhaustion:
    def test_total_loss_gives_up(self):
        plan = FaultPlan(default=LinkFaults(drop=1.0))
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=2, seed=6,
                              retry=RetryPolicy(max_attempts=3), plan=plan)
            client = cluster.client()
            with pytest.raises(RetryExhaustedError):
                client.insert(0, b"never arrives")
        assert registry.total("cluster.ops", op="insert", status="gave_up") \
            == 1
        assert registry.total("cluster.timeouts", op="insert") == 3

    def test_down_node_drops_traffic(self):
        plan = FaultPlan(crashes=(Crash("node0", at=0.0, recover_at=10.0),))
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=2, seed=6, plan=plan,
                              retry=RetryPolicy(max_attempts=2))
            client = cluster.client()
            with pytest.raises(RetryExhaustedError):
                client.insert(0, b"to a dead node")
        assert registry.total("cluster.down_drops", node="node0") > 0


class TestDeterminism:
    SCENARIO = dict(drop=0.12, corrupt=0.01, jitter=150e-6, duplicate=0.02)

    def report_json(self, seed):
        lossy = FaultPlan.lossy(**self.SCENARIO)
        plan = FaultPlan(
            default=lossy.default,
            crashes=(Crash("node1", at=0.04, recover_at=0.1),),
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(servers=4, seed=seed, plan=plan,
                              retry=RetryPolicy.patient())
            run_workload(cluster, operations=30)
            cluster.check_replicas()
        return RunReport(registry, meta={"source": "determinism-test"}).to_json()

    def test_same_seed_byte_identical_reports(self):
        assert self.report_json(1234) == self.report_json(1234)

    def test_different_seed_different_report(self):
        assert self.report_json(1234) != self.report_json(1235)


def _server_with(records: dict[int, bytes]) -> SDDSServer:
    server = SDDSServer(0, make_scheme())
    for key, value in records.items():
        assert server.insert(Record(key, value))
    return server


class TestBucketImageCodec:
    @given(st.dictionaries(st.integers(0, 2**32 - 1),
                           st.binary(max_size=64), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, records):
        image = serialize_bucket(_server_with(records))
        decoded = deserialize_bucket(image)
        assert {record.key: record.value for record in decoded} == records
        assert [record.key for record in decoded] == sorted(records)
        assert serialize_bucket(_server_with(
            {record.key: record.value for record in decoded})) == image

    @pytest.mark.parametrize("craft", [
        lambda image: image[:-3],
        lambda image: image[:12],
        lambda image: image + b"\x00",
        lambda image: struct.pack("<Q", 2**63) + image[8:],
        lambda image: struct.pack("<Q", 2) + image[8:],
        lambda image: b"",
        lambda image: image[:5],
    ], ids=["truncated-value", "cut-header", "trailing", "huge-count",
            "over-counted", "empty", "short-header"])
    def test_crafted_image_raises_store_error(self, craft):
        image = serialize_bucket(_server_with({7: b"hello world"}))
        with pytest.raises(StoreError):
            deserialize_bucket(craft(image))
