"""The three seeded workloads: one round of fixed work each.

A round builds the system from scratch (set-up), runs the timed phase,
then runs its closing correctness checks outside the timed phase.  The
seed is the only input; the program sees the keys, values, offsets and
rates generated from it.  Every round of one seed does identical work,
so the deterministic counts (bytes logged, bytes sent, signatures
computed) repeat exactly from round to round and from run to run.

Each round installs a fresh ``MetricsRegistry`` and reads the program's
own counters as deltas across the timed phase.  A :class:`~ledger.Ledger`
passed in is installed around the timed phase only.
"""

from __future__ import annotations

import bisect
import multiprocessing
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import Pieces
from repro import make_scheme
from repro.cluster import Cluster, ClusterError, FaultPlan, RetryPolicy
from repro.obs import MetricsRegistry, use_registry
from repro.serve import LoadGenerator, LoadMix, ServingPlane
from repro.sig.locate import LocateDesign
from repro.sim.clock import SimClock
from repro.sim.network import SimNetwork
from repro.store import PageStore
from repro import sync

# The benchmark reaches ``sync_by_locator`` as a module attribute, like
# the program's own callers, so the installed wrapper sees its calls.

#: Program counters read as timed-phase deltas (gauges: final value).
COUNTERS = (
    "sig.sign_calls", "sig.bytes_signed", "sig.locate.decodes",
    "sig.locate.overflows", "net.messages", "net.bytes",
    "cluster.faults_injected", "cluster.corruptions_detected",
    "serve.corruptions_detected", "cluster.mirror_delta_bytes",
    "cluster.retries", "cluster.timeouts", "cluster.pseudo_updates",
    "serve.pseudo_updates", "serve.sheds", "serve.coalesced",
    "serve.splits", "serve.client_retries", "parity.delta_symbols",
    "store.frames_sealed", "store.log.fsyncs", "store.bytes_appended",
    "store.frames_replayed", "store.corrupt_frames_detected",
    "store.pages_condemned", "sync.locate.fallbacks", "obs.trace_spans",
    "obs.recorder_dumps",
)
GAUGES = ("store.recovery_workers",)

#: Per-workload sizes; "tiny" is the smoke test's.
SIZES = {
    "kv-durable": {
        "full": {"records": 800, "ops": 1500},
        "tiny": {"records": 40, "ops": 60},
    },
    "serve-open": {
        "full": {"sessions": 1200, "items": 1400, "ops": 1000,
                 "rates": (4000.0, 6000.0, 8000.0, 10000.0, 12000.0,
                           14000.0)},
        "tiny": {"sessions": 60, "items": 120, "ops": 150,
                 "rates": (5000.0, 14000.0)},
    },
    "volume-audit": {
        "full": {"pages": 8192, "extents": 2000, "rounds": 6},
        "tiny": {"pages": 256, "extents": 120, "rounds": 4},
    },
}

VALUE_BYTES = 48      # kv record value size
KEY_GAP = 61          # kv preload key spacing: odd, so keys spread over nodes
PAGE_BYTES = 4096     # volume page size
EXTENT_BYTES = 64     # volume churn write size
LOCATE_D = 4          # locator damage budget (scrub and sync)
KV_PIECE_OPS = 25     # kv timed-phase piece size, in operations
CHURN_PIECE = 250     # volume churn piece size, in extents


@dataclass
class Round:
    """What one round measured and checked."""

    setup: Pieces                   #: building the system, preloading
    pieces: Pieces                  #: the timed phase
    ops: int = 0                    #: operations completed in the timed phase
    attempted: int = 0              #: operations or checks attempted
    failed: int = 0                 #: of which failed
    checks: dict = field(default_factory=dict)     #: name -> passed
    detail: dict = field(default_factory=dict)     #: name -> (value, unit)
    counts: dict = field(default_factory=dict)     #: deterministic counts
    program: dict = field(default_factory=dict)    #: registry deltas
    model: dict = field(default_factory=dict)      #: simulated outputs
    samples: dict = field(default_factory=dict)    #: latency samples (s)

    def check(self, name: str, passed: bool) -> None:
        """Record one correctness check."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)
        self.attempted += 1
        self.failed += 0 if passed else 1


class _Probe:
    """Registry deltas across the timed phase."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.start = {name: registry.total(name) for name in COUNTERS}

    def deltas(self) -> dict:
        out = {name: self.registry.total(name) - self.start[name]
               for name in COUNTERS}
        out.update({name: self.registry.total(name) for name in GAUGES})
        return out


@contextmanager
def _installed(ledger):
    if ledger is None:
        yield
        return
    ledger.install()
    try:
        yield
    finally:
        ledger.uninstall()


# ----------------------------------------------------------------------
# kv-durable: closed loop, one client, durable mirrored parity cluster
# ----------------------------------------------------------------------

SEARCH, UPDATE, INSERT, DELETE = range(4)


def _stratified(rng, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1), one per stratum, in random order.

    Same distribution as ``rng.random(count)`` with far less sampling
    noise, so per-op costs average out within one round.
    """
    return (rng.permutation(count) + rng.random(count)) / max(count, 1)


def _kv_plan(rng, ops: int) -> list[tuple[int, float, bool]]:
    """The timed mix as (kind, uniform draw, pseudo) in random order.

    Exact shares: 50% search, 40% update (a quarter pseudo), 5% insert,
    5% delete.  Draws are stratified per kind: the skewed key rank for
    searches and updates, the position in the sorted key list for
    inserts and deletes.
    """
    inserts = deletes = ops // 20
    updates = ops * 2 // 5
    searches = ops - updates - inserts - deletes
    kinds = np.repeat([SEARCH, UPDATE, INSERT, DELETE],
                      [searches, updates, inserts, deletes])
    rng.shuffle(kinds)
    draws = {kind: iter(_stratified(rng, int((kinds == kind).sum())))
             for kind in (SEARCH, UPDATE, INSERT, DELETE)}
    pseudo = iter(rng.permutation(updates) < updates // 4)
    return [(int(kind), float(next(draws[kind])),
             bool(next(pseudo)) if kind == UPDATE else False)
            for kind in kinds]


def kv_durable(seed: int, size: dict, workdir: Path, ledger=None) -> Round:
    """One client against a 4-node durable LH*RS cluster on a lossy network."""
    rng = np.random.default_rng([seed, 0xC1])
    registry = MetricsRegistry()
    with use_registry(registry):
        setup = Pieces("frames")
        setup.start()
        cluster = Cluster(servers=4, seed=seed,
                          plan=FaultPlan.lossy(drop=0.02, corrupt=0.005),
                          retry=RetryPolicy.patient(),
                          durable_dir=workdir / "kv", durable_flush="frame")
        client = cluster.client()
        oracle: dict[int, bytes] = {}
        live: list[int] = []
        preload_failed = 0
        for index in range(size["records"]):
            if index and index % KV_PIECE_OPS == 0:
                setup.cut("setup")
            key = (index + 1) * KEY_GAP
            value = rng.bytes(VALUE_BYTES)
            preload_failed += not client.insert(key, value).ok
            oracle[key] = value
            live.append(key)
        setup.stop("setup")

        result = Round(setup, Pieces("frames"))
        result.check("preload acknowledged", preload_failed == 0)
        reads: list[float] = []
        writes: list[float] = []
        deleted: set[int] = set()
        user_bytes = 0
        bad_ops = 0
        stale_reads = 0
        probe = _Probe(registry)
        ops = size["ops"]
        plan = _kv_plan(rng, ops)
        pieces = result.pieces
        with _installed(ledger):
            pieces.start()
            for position, (kind, draw, pseudo) in enumerate(plan):
                if position and position % KV_PIECE_OPS == 0:
                    pieces.cut()
                count = len(live)
                if kind == SEARCH or kind == UPDATE:
                    # Skewed pick: a power law over ranks, scattered over
                    # the sorted key space by a multiplicative hash.
                    hot = live[(int(count * draw ** 3) * 2654435761) % count]
                if kind == SEARCH:
                    began = time.perf_counter()
                    reply = client.search(hot)
                    reads.append(time.perf_counter() - began)
                    bad_ops += not reply.ok
                    stale_reads += reply.value != oracle[hot]
                    continue
                if kind == UPDATE:
                    key = hot
                    value = oracle[key] if pseudo else rng.bytes(VALUE_BYTES)
                    began = time.perf_counter()
                    reply = client.update(key, value)
                    user_bytes += 0 if pseudo else len(value)
                    oracle[key] = value
                elif kind == INSERT:
                    # A fresh key between two neighbours.
                    slot = int(draw * (count - 1))
                    low, high = live[slot], live[slot + 1]
                    key = int(rng.integers(low + 1, high)) \
                        if high - low > 1 else live[-1] + 1
                    deleted.discard(key)
                    value = rng.bytes(VALUE_BYTES)
                    began = time.perf_counter()
                    reply = client.insert(key, value)
                    user_bytes += len(value)
                    oracle[key] = value
                    bisect.insort(live, key)
                else:
                    key = live[int(draw * count)]
                    began = time.perf_counter()
                    reply = client.delete(key)
                    del oracle[key]
                    live.remove(key)
                    deleted.add(key)
                writes.append(time.perf_counter() - began)
                bad_ops += not reply.ok
            pieces.stop()
        result.ops = ops
        result.program = probe.deltas()

        result.attempted += ops
        result.failed += bad_ops
        result.checks["client ops OK"] = bad_ops == 0
        result.check("reads match the oracle", stale_reads == 0)
        cluster.settle()
        try:
            cluster.check_replicas()
            replicas_ok = True
        except ClusterError:
            replicas_ok = False
        result.check("settle + check_replicas", replicas_ok)
        mismatched = sum(client.search(key).value != value
                         for key, value in oracle.items())
        result.check("every live key equals the oracle", mismatched == 0)
        gone = sorted(deleted)[:50]
        result.check("deleted keys are missing",
                      all(client.search(key).status == "missing"
                          for key in gone))

    log_bytes = result.program["store.bytes_appended"]
    net_bytes = result.program["net.bytes"]
    result.counts = {"user_bytes": user_bytes, "log_bytes": log_bytes,
                     "net_bytes": net_bytes}
    result.samples = {"read": reads, "write": writes}
    result.detail = {"log_bytes_per_user_byte": (log_bytes / user_bytes,
                                                 "ratio")}
    return result


# ----------------------------------------------------------------------
# serve-open: open-loop ServingPlane sweep across saturation
# ----------------------------------------------------------------------

def serve_open(seed: int, size: dict, workdir: Path, ledger=None) -> Round:
    """LoadGenerator steps at fixed offered sim rates on a 4-bucket LH* plane."""
    registry = MetricsRegistry()
    with use_registry(registry):
        setup = Pieces("frames")
        setup.start()
        plane = ServingPlane(buckets=4, family="lh", seed=seed)
        mix = LoadMix(sessions=size["sessions"], n_items=size["items"])
        generator = LoadGenerator(plane, mix)
        setup.stop("setup")

        result = Round(setup, Pieces("frames"))
        probe = _Probe(registry)
        steps = []
        pieces = result.pieces
        with _installed(ledger):
            pieces.start()
            for index, rate in enumerate(size["rates"]):
                if index:
                    pieces.cut()
                steps.append(generator.run_step(rate, size["ops"]))
            pieces.stop()
        result.program = probe.deltas()
        plane.settle()
        verify = plane.verify()

    resolved = sum(step["ok"] + step["not_ok"] for step in steps)
    not_ok = sum(step["not_ok"] for step in steps)
    offered = size["ops"] * len(size["rates"])
    result.ops = resolved
    result.attempted += offered
    result.failed += not_ok + (offered - resolved)
    result.checks["every step resolves all ops"] = resolved == offered
    result.checks["client ops OK"] = not_ok == 0
    result.check("verify() ok", verify["ok"])
    result.check("load generator is one process with one thread",
                 threading.active_count() == 1
                 and not multiprocessing.active_children())
    ops_by = registry.snapshot().get("serve.ops", {})

    def ops_with(**labels) -> int:
        want = [f"{k}={v}" for k, v in labels.items()]
        return int(sum(value for key, value in ops_by.items()
                       if all(part in key.split(",") for part in want)))

    real_writes = (ops_with(op="insert", status="inserted")
                   + ops_with(op="update", status="applied")
                   - result.program["serve.pseudo_updates"])
    user_bytes = real_writes * mix.value_bytes
    result.counts = {"user_bytes": user_bytes, "log_bytes": 0,
                     "net_bytes": result.program["net.bytes"]}
    result.model = {
        "sim_goodput_ops_per_s": max(step["goodput_ops_per_s"]
                                     for step in steps),
        "sim_p99_ms": steps[-1]["p99_ms"],
    }
    result.detail = {"steps": [
        {"offered_sim_ops_per_s": step["offered_ops_per_s"],
         "sim_goodput_ops_per_s": step["goodput_ops_per_s"],
         "sim_p99_ms": step["p99_ms"], "splits": step["splits"]}
        for step in steps]}
    return result


# ----------------------------------------------------------------------
# volume-audit: one 4 KiB-page volume through ingest .. sync
# ----------------------------------------------------------------------

def _churn(store, image: bytearray, rng, count: int, pages: int,
           frames: list[tuple[int, int]], pieces) -> int:
    """Journal ``count`` page-local 64-byte writes; returns user bytes.

    Appends each write's (log offset, page) to ``frames``; cuts a timed
    piece every ``CHURN_PIECE`` writes.
    """
    for done in range(count):
        if done and done % CHURN_PIECE == 0:
            pieces.cut("ingest")
        page = int(rng.integers(0, pages))
        offset = page * PAGE_BYTES + int(
            rng.integers(0, (PAGE_BYTES - EXTENT_BYTES) // 2)) * 2
        after = rng.bytes(EXTENT_BYTES)
        before = bytes(image[offset:offset + EXTENT_BYTES])
        frames.append((store.record_extent("v", offset, before, after,
                                           len(image)), page))
        image[offset:offset + EXTENT_BYTES] = after
    return count * EXTENT_BYTES


def volume_audit(seed: int, size: dict, workdir: Path, ledger=None) -> Round:
    """Ingest, churn, crash damage, recover, scrub and sync one volume."""
    rng = np.random.default_rng([seed, 0x70])
    pages = size["pages"]
    scheme = make_scheme()
    registry = MetricsRegistry()
    directory = workdir / "volume"
    with use_registry(registry):
        setup = Pieces("pages")
        setup.start()
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        image = bytearray(rng.bytes(pages * PAGE_BYTES))
        store = PageStore(scheme, directory)
        setup.stop("setup")

        result = Round(setup, Pieces("pages"), ops=pages)
        probe = _Probe(registry)
        before_checkpoint: list[tuple[int, int]] = []
        after_checkpoint: list[tuple[int, int]] = []
        half = size["extents"] // 2
        pieces = result.pieces
        with _installed(ledger):
            # Pieces: ingest, checkpoint, churn, faults, recover, scrub,
            # sync, close.
            pieces.start()
            store.write_image("v", bytes(image), PAGE_BYTES)
            user_bytes = len(image)
            pieces.cut("ingest")
            user_bytes += _churn(store, image, rng, half, pages,
                                 before_checkpoint, pieces)
            store.commit()
            pieces.cut("ingest")
            store.checkpoint()
            pieces.cut("checkpoint")
            # The last extent is torn below: keep the image without it.
            user_bytes += _churn(store, image, rng,
                                 size["extents"] - half - 1, pages,
                                 after_checkpoint, pieces)
            reference = bytes(image)
            user_bytes += _churn(store, image, rng, 1, pages,
                                 after_checkpoint, pieces)
            store.commit()
            log_bytes = store.log_bytes
            pieces.cut("ingest")
            # Faults: rot inside one pre-checkpoint frame, torn tail.
            store.close()
            rotten, rotten_page = before_checkpoint[
                int(rng.integers(0, len(before_checkpoint)))]
            store.corrupt_log(rotten + 40, b"\x5a")
            store.crash_cut(log_bytes - 7)
            pieces.cut("faults")
            recovered, report = PageStore.recover(scheme, directory)
            pieces.cut("recover")
            design = LocateDesign.build(pages, LOCATE_D, seed)
            scrub = recovered.scrub("v", design=design)
            pieces.cut("scrub")
            sync_bytes, sync_ok, diverged = _sync_rounds(
                scheme, reference, rng, size["rounds"], pages, pieces)
            pieces.cut("sync")
            recovered.close()
            pieces.stop("close")
        result.program = probe.deltas()

    condemned = set(report.condemned.get("v", ()))
    got = recovered.image("v")
    outside_equal = all(
        got[page * PAGE_BYTES:(page + 1) * PAGE_BYTES]
        == reference[page * PAGE_BYTES:(page + 1) * PAGE_BYTES]
        for page in range(pages) if page not in condemned)
    result.check("recovered image equals reference outside condemned",
                 outside_equal and len(got) == len(reference))
    result.check("condemned set equals injected damage",
                 condemned == {rotten_page})
    result.check("torn tail detected", report.torn_bytes > 0)
    result.check("rotten frame rejected", report.corrupt_frames == 1)
    result.check("scrub by locator, no overflow",
                 scrub.method == "locate" and not scrub.overflow)
    for index, ok in enumerate(sync_ok):
        result.check(f"replicas byte-equal after sync round {index}", ok)
    result.counts = {"user_bytes": user_bytes, "log_bytes": log_bytes,
                     "net_bytes": result.program["net.bytes"],
                     "sync_bytes": sync_bytes}
    result.detail = {
        "ingest_mib_per_s": (
            user_bytes / 2**20 / pieces.wall_of("ingest"), "MiB/s"),
        "checkpoint_s": (pieces.wall_of("checkpoint"), "s"),
        "recover_s": (pieces.wall_of("recover"), "s"),
        "scrub_s": (pieces.wall_of("scrub"), "s"),
        "sync_s": (pieces.wall_of("sync"), "s"),
        "sync_bytes": (sync_bytes, "bytes"),
        "log_bytes_per_user_byte": (log_bytes / user_bytes, "ratio"),
        "diverged_pages": (diverged, "count"),
        "recovery_workers": (result.program["store.recovery_workers"],
                             "count"),
    }
    return result


def _sync_rounds(scheme, reference: bytes, rng, rounds: int, pages: int,
                 pieces) -> tuple[int, list[bool], int]:
    """Cold replicas, then rounds of divergence each healed by the locator.

    Even rounds diverge on at most ``LOCATE_D`` pages (decoded exactly);
    odd rounds on more (the decode overflows and falls back to the tree).
    """
    network = SimNetwork(clock=SimClock())
    source = sync.Replica("source", scheme, reference, PAGE_BYTES)
    target = sync.Replica("target", scheme, reference, PAGE_BYTES)
    total = 0
    equal = []
    diverged = 0
    for index in range(rounds):
        if index:
            pieces.cut("sync")
        count = int(rng.integers(1, LOCATE_D + 1)) if index % 2 == 0 \
            else int(rng.integers(LOCATE_D + 2, 3 * LOCATE_D))
        touched = rng.choice(pages, size=count, replace=False)
        for page in touched:
            source.write_at(int(page) * PAGE_BYTES + 128, rng.bytes(32))
        diverged += count
        total += sync.sync_by_locator(source, target, network, d=LOCATE_D,
                                 seed=index).total_bytes
        equal.append(bytes(source.data) == bytes(target.data))
    return total, equal, diverged


WORKLOADS = {
    "kv-durable": kv_durable,
    "serve-open": serve_open,
    "volume-audit": volume_audit,
}
