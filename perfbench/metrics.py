"""Metric tables: the single source of names, units and predictions.

``BENCHMARK.json`` at the repository root declares the same names and
units; the smoke test checks the two agree.
"""

from __future__ import annotations

#: (name, unit, better, bound) -- measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_ref_s", "1/s", "higher", 0.2),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("bytes_per_user_byte", "ratio", "lower", 0.2),
)

#: (name, unit, better, layer) -- from the traced run.
PER_LAYER = (
    ("gf.calls", "count", "lower", "gf"),
    ("gf.self_s", "s", "lower", "gf"),
    ("sig.calls", "count", "lower", "sig"),
    ("sig.self_s", "s", "lower", "sig"),
    ("sig.bytes_signed", "bytes", "lower", "sig"),
    ("sig.bytes_per_call", "bytes", "higher", "sig"),
    ("sig.mib_per_s", "MiB/s", "higher", "sig"),
    ("sig.locate.self_s", "s", "lower", "sig.locate"),
    ("sig.locate.decodes", "count", "lower", "sig.locate"),
    ("sig.locate.overflows", "count", "lower", "sig.locate"),
    ("wire.frames_sealed", "count", "lower", "wire"),
    ("wire.frames_unsealed", "count", "lower", "wire"),
    ("wire.self_s", "s", "lower", "wire"),
    ("wire.us_per_frame", "us", "lower", "wire"),
    ("wire.corruptions_detected", "count", "lower", "wire"),
    ("events.scheduled", "count", "lower", "events"),
    ("events.self_s", "s", "lower", "events"),
    ("net.messages", "count", "lower", "events"),
    ("net.bytes", "bytes", "lower", "events"),
    ("net.faults_injected", "count", "lower", "events"),
    ("node.image_refreshes", "count", "lower", "node"),
    ("node.image_self_s", "s", "lower", "node"),
    ("node.image_bytes_rendered", "bytes", "lower", "node"),
    ("node.image_bytes_per_user_byte", "ratio", "lower", "node"),
    ("node.mirror_delta_bytes_per_user_byte", "ratio", "lower", "node"),
    ("runtime.self_s", "s", "lower", "runtime"),
    ("client.attempts_per_op", "ratio", "lower", "runtime"),
    ("client.retries", "count", "lower", "runtime"),
    ("client.timeouts", "count", "lower", "runtime"),
    ("serve.self_s", "s", "lower", "serve"),
    ("serve.sheds", "count", "lower", "serve"),
    ("serve.coalesced", "count", "higher", "serve"),
    ("serve.splits", "count", "lower", "serve"),
    ("serve.client_retries", "count", "lower", "serve"),
    ("serve.sim_goodput_ops_per_s", "1/s", "higher", "serve"),
    ("serve.sim_p99_ms", "ms", "lower", "serve"),
    ("sdds.calls", "count", "lower", "sdds"),
    ("sdds.self_s", "s", "lower", "sdds"),
    ("sdds.pseudo_update_frac", "fraction", "higher", "sdds"),
    ("parity.calls", "count", "lower", "parity"),
    ("parity.self_s", "s", "lower", "parity"),
    ("parity.delta_symbols", "count", "lower", "parity"),
    ("store.append_calls", "count", "lower", "store"),
    ("store.append_self_s", "s", "lower", "store"),
    ("store.frames_sealed", "count", "lower", "store"),
    ("store.flushes", "count", "lower", "store"),
    ("store.bytes_appended_per_user_byte", "ratio", "lower", "store"),
    ("store.checkpoint_self_s", "s", "lower", "store"),
    ("store.scan_self_s", "s", "lower", "store"),
    ("store.replay_self_s", "s", "lower", "store"),
    ("store.recovery_workers", "count", "higher", "store"),
    ("store.frames_replayed", "count", "lower", "store"),
    ("store.corrupt_frames_detected", "count", "lower", "store"),
    ("store.pages_condemned", "count", "lower", "store"),
    ("sync.self_s", "s", "lower", "sync"),
    ("sync.fold_self_s", "s", "lower", "sync"),
    ("sync.sig_bytes", "bytes", "lower", "sync"),
    ("sync.data_bytes", "bytes", "lower", "sync"),
    ("sync.pages_shipped_per_diverged_page", "ratio", "lower", "sync"),
    ("sync.locate.fallbacks", "count", "lower", "sync"),
    ("obs.calls", "count", "lower", "obs"),
    ("obs.self_s", "s", "lower", "obs"),
    ("obs.trace_spans", "count", "lower", "obs"),
    ("obs.recorder_dumps", "count", "lower", "obs"),
    ("trace.overhead_frac", "fraction", "lower", "trace"),
)

#: Layers predicted active (wrappers must record calls) per workload.
ACTIVE = {
    "kv-durable": ("gf", "sig", "wire", "events", "node", "runtime",
                   "sdds", "parity", "store", "obs"),
    "serve-open": ("gf", "sig", "wire", "events", "serve", "sdds", "obs"),
    "volume-audit": ("gf", "sig", "sig.locate", "store", "sync", "obs"),
}

#: Wrappers that must record calls: the ones installed where callers
#: look names up (imported by name, module globals, module attributes).
REQUIRED_WRAPPERS = {
    "kv-durable": ("serve.ops.apply_operation",
                   "cluster.node.serialize_bucket", "cluster.wire.seal",
                   "cluster.wire.seal_many", "cluster.wire.unseal",
                   "ClusterNode.refresh_image",
                   "SegmentedLog.append_encoded", "LHRSStore.update"),
    "serve-open": ("serve.ops.apply_operation", "cluster.wire.seal",
                   "cluster.wire.unseal", "Session.submit",
                   "EventLoop.run_until"),
    "volume-audit": ("PageStore.write_image", "PageStore.recover",
                     "PageStore.scrub", "sync.replica.sync_by_locator",
                     "sync.replica.sync_by_tree", "sig.locate.decode",
                     "store.recovery.scan_log"),
}

#: Counts that must repeat exactly for one seed (run to run, traced or
#: not); a different seed must change at least one of them.
DETERMINISTIC = ("user_bytes", "log_bytes", "net_bytes", "sync_bytes")
