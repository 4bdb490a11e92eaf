"""Outside-in layer ledger: timed wrappers around each layer's entry points.

The ledger never edits the program.  :meth:`Ledger.install` replaces a
layer's public functions and methods with timing wrappers *where callers
look them up*: a module-level function is swapped in every loaded
``repro`` module that holds it (``apply_operation`` is imported by name
into ``repro.cluster.node`` and ``repro.serve.plane``), and a method is
swapped on its class.  :meth:`Ledger.uninstall` restores the originals.

Every wrapped call is one span: layer, function, start, end and the
span that was open when it started (its parent).  A span's *self time*
is its duration minus the durations of its direct child spans, so the
time of code no wrapper covers is charged to the nearest wrapped
caller, and the self times of all spans add up to the wrapped wall time
exactly once.  Spans are aggregated as they close; the first
``SPAN_LIMIT`` are also kept raw (with parent links) for the span-tree
export.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer, module, targets).  A target is ``name`` (module function),
# ``Class.name`` (one method) or ``Class.*`` (every method the class
# defines itself, private ones included, dunders excluded).
LAYERS = (
    ("gf", "repro.gf.vectorized", (
        "narrow_symbol_view", "bytes_to_symbols", "symbols_to_bytes",
        "as_symbol_array", "ladder_exponents", "power_weights",
        "component_signature", "signature_vector", "term_array",
        "pack_flat", "pack_pages", "batch_signature_matrix",
        "fold_concat_level", "shift_rows", "delta_signature_matrix",
        "fold_rows_by_group", "prefix_xor", "all_window_signatures",
        "scale")),
    ("sig", "repro.sig.scheme", (
        "AlgebraicSignatureScheme.sign",
        "AlgebraicSignatureScheme.sign_scalar",
        "AlgebraicSignatureScheme.sign_mapped")),
    ("sig", "repro.sig.engine", (
        "BatchSigner.sign_many", "BatchSigner.sign_views",
        "BatchSigner.sign_concat", "BatchSigner.sign_concat_many",
        "BatchSigner.sign_symbol_rows", "BatchSigner.sign_map",
        "BatchSigner.sign_tree", "BatchSigner.delta_components",
        "BatchSigner.delta_signature_many", "BatchSigner.apply_deltas")),
    ("sig", "repro.sig.incremental", (
        "IncrementalSignatureMap.apply_journal",)),
    ("sig", "repro.sig.tree", ("SignatureTree.from_map",)),
    ("sig.locate", "repro.sig.locate", (
        "decode", "LocateDesign.build", "LocatorMap.from_map",
        "LocatorMap.apply_leaf_deltas", "LocatorMap.to_bytes",
        "LocatorMap.from_bytes")),
    ("wire", "repro.cluster.wire", (
        "seal", "seal_many", "unseal", "encode_traced", "decode_traced",
        "encode_request", "decode_request", "encode_reply",
        "decode_reply", "encode_mirror", "decode_mirror",
        "encode_delta", "decode_delta")),
    ("wire", "repro.serve.wire", (
        "encode_request", "decode_request", "encode_reply",
        "decode_reply", "encode_iam", "decode_iam")),
    ("events", "repro.cluster.events", (
        "EventLoop.at", "EventLoop.after", "EventLoop.run_until",
        "EventLoop.run_until_idle")),
    ("events", "repro.cluster.network", ("FaultyNetwork.*",)),
    ("events", "repro.sim.network", (
        "SimNetwork.send", "SimNetwork.account")),
    ("node", "repro.cluster.node", (
        "serialize_bucket", "deserialize_bucket",
        "ClusterNode.refresh_image", "ClusterNode._changed_extents",
        "ClusterNode.image_bytes", "ClusterNode.receive_mirror",
        "ClusterNode.receive_mirror_delta")),
    ("runtime", "repro.cluster.node", (
        "ClusterNode.receive_request", "ClusterNode._service_execute",
        "ClusterNode._service_shed", "ClusterNode._transmit_reply",
        "ClusterNode._execute")),
    ("runtime", "repro.cluster.runtime", (
        "ClusterClient.*", "Cluster.settle", "Cluster.anti_entropy",
        "Cluster.check_replicas", "Cluster._repair_pair")),
    ("serve", "repro.serve.plane", (
        "BucketNode.*", "Session.*", "ServingPlane.*")),
    ("serve", "repro.serve.service", ("RequestService.*",)),
    ("serve", "repro.serve.loadgen", ("LoadGenerator.*",)),
    ("sdds", "repro.serve.ops", ("apply_operation",)),
    ("sdds", "repro.sdds.server", (
        "SDDSServer.insert", "SDDSServer.search", "SDDSServer.delete")),
    ("parity", "repro.parity.lhrs", (
        "LHRSStore.insert", "LHRSStore.update", "LHRSStore.delete")),
    ("store", "repro.store.pagestore", (
        "PageStore.write_page", "PageStore.write_image",
        "PageStore.record_extent", "PageStore.append_journal",
        "PageStore.truncate", "PageStore.commit", "PageStore.close",
        "PageStore.checkpoint", "PageStore.scrub", "PageStore.recover")),
    ("store", "repro.store.log", (
        "SegmentedLog.append", "SegmentedLog.append_many",
        "SegmentedLog.append_encoded", "SegmentedLog.commit",
        "SegmentedLog.close", "SegmentedLog.scan")),
    ("store", "repro.store.frames", (
        "encode", "encode_many", "scan_buffer")),
    ("store", "repro.store.recovery", ("scan_log", "scan_segment")),
    ("store", "repro.store.checkpoint", ("save", "load")),
    ("sync", "repro.sync.replica", (
        "sync_by_map", "sync_by_tree", "sync_by_locator",
        "Replica.signature_map", "Replica.signature_tree",
        "Replica.locator_map")),
    ("obs", "repro.obs.registry", (
        "MetricsRegistry.counter", "MetricsRegistry.gauge",
        "MetricsRegistry.histogram", "MetricsRegistry.total",
        "Counter.inc", "Gauge.set", "Gauge.inc", "Histogram.observe",
        "BucketedHistogram.observe", "HandleCache.get")),
    ("obs", "repro.obs.trace", (
        "span_if_active", "activate", "TraceStore.begin",
        "TraceStore.child", "TraceStore.span", "TraceStore._finish",
        "SpanHandle.event", "SpanHandle.finish")),
    ("obs", "repro.obs.recorder", (
        "FlightRecorder.record_span", "FlightRecorder.record_frame",
        "FlightRecorder.record_fault", "FlightRecorder.dump")),
)

#: Raw spans kept for the export; later spans are only aggregated.
SPAN_LIMIT = 100_000

#: Signing entry points, by how many signatures their result holds.
#: Only the outermost one on the stack counts (``sign_concat`` calls
#: ``sign_concat_many``; ``sign_many`` may call ``sign_symbol_rows``).
_SIGN_ENTRIES = {
    "AlgebraicSignatureScheme.sign": lambda result: 1,
    "AlgebraicSignatureScheme.sign_scalar": lambda result: 1,
    "BatchSigner.sign_many": len,
    "BatchSigner.sign_views": len,
    "BatchSigner.sign_concat": lambda result: 1,
    "BatchSigner.sign_concat_many": len,
    "BatchSigner.sign_symbol_rows": len,
    "BatchSigner.sign_map": lambda result: len(result.signatures),
    "BatchSigner.sign_tree": lambda result: result.leaf_count,
}


def _pages_differing(source, target) -> int:
    """Pages whose bytes differ between two replicas (length drift counts)."""
    page = source.page_bytes
    with memoryview(source.data) as a, memoryview(target.data) as b:
        return sum(1 for lo in range(0, max(len(a), len(b)), page)
                   if a[lo:lo + page] != b[lo:lo + page])


class Ledger:
    """Span recorder and per-layer aggregator for the wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, layer, name, t0, t1, self)
        self.spans_dropped = 0
        self.layer_calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        #: Inclusive seconds of calls entering a layer from outside it.
        self.layer_entered: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.fn_self: defaultdict = defaultdict(float)
        self.fn_inclusive: defaultdict = defaultdict(float)
        #: Aggregated call paths: (name, name, ...) -> [calls, self_s].
        self.paths: defaultdict = defaultdict(lambda: [0, 0.0])
        #: Event counts taken from arguments and results at the wrappers.
        self.tally: Counter = Counter()
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS` (imports the modules)."""
        for layer, module_name, targets in LAYERS:
            module = importlib.import_module(module_name)
            for target in targets:
                if "." not in target:
                    self._wrap_function(layer, module, target)
                    continue
                class_name, method = target.split(".")
                cls = getattr(module, class_name)
                names = [name for name, value in vars(cls).items()
                         if not name.startswith("__")
                         and (callable(value) or isinstance(
                             value, (classmethod, staticmethod)))] \
                    if method == "*" else [method]
                for name in names:
                    self._wrap_method(layer, cls, name)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        label = f"{module.__name__.removeprefix('repro.')}.{name}"
        wrapper = self._wrapper(layer, label, original)
        # Install where callers look the name up: every repro module
        # holding this very function object (imported by name or not).
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro") \
                    and vars(holder).get(name) is original:
                self._patch(holder, name, wrapper)

    def _wrap_method(self, layer: str, cls, name: str) -> None:
        raw = vars(cls)[name]
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(layer, label, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(layer, label, raw.__func__))
        else:
            wrapped = self._wrapper(layer, label, raw)
        self._patch(cls, name, wrapped)

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, layer: str, name: str, fn):
        counter = _SIGN_ENTRIES.get(name)
        before, after = _HOOKS.get(name, (None, None))
        ledger = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            parent = stack[-1] if stack else None
            # Hooks see whether this call enters the layer from outside.
            outer = parent is None or parent[1] != layer
            state = None
            if before is not None:
                hook_start = perf()
                state = before(args, kwargs, outer)
                if parent is not None:   # not the caller's own time
                    parent[3] += perf() - hook_start
            # frame: [span id, layer, name, child seconds, path, sign depth]
            sign_depth = (parent[5] if parent is not None else 0) \
                + (counter is not None)
            path = (parent[4] + (name,)) if parent is not None else (name,)
            frame = [next(ledger._ids), layer, name, 0.0, path, sign_depth]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[3] += duration
                ledger._close(frame, parent, start, end,
                              duration - frame[3])
            if counter is not None and sign_depth == 1:
                ledger.tally["sig.signatures"] += counter(result)
            if after is not None:
                after(ledger.tally, args, kwargs, result, state, outer)
            return result

        return wrapper

    def _close(self, frame, parent, start, end, own) -> None:
        layer, name = frame[1], frame[2]
        self.layer_calls[layer] += 1
        self.layer_self[layer] += own
        if parent is None or parent[1] != layer:
            self.layer_entered[layer] += end - start
        self.fn_calls[name] += 1
        self.fn_self[name] += own
        self.fn_inclusive[name] += end - start
        entry = self.paths[frame[4]]
        entry[0] += 1
        entry[1] += own
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], parent[0] if parent else None,
                               layer, name, start - self.origin,
                               end - self.origin, own))
        else:
            self.spans_dropped += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def self_of(self, *names: str) -> float:
        """Summed self seconds of the named functions."""
        return sum(self.fn_self.get(name, 0.0) for name in names)

    def span_tree(self, depth: int = 4, limit: int = 40) -> list[dict]:
        """The aggregated call-path tree, heaviest self time first.

        Each node is one distinct path of wrapped names from a root span;
        ``parent`` names the path one level up, so the list is a tree.
        """
        rows = []
        for path, (calls, own) in self.paths.items():
            if len(path) <= depth:
                rows.append({"path": "/".join(path),
                             "parent": "/".join(path[:-1]) or None,
                             "calls": calls, "self_s": own})
        rows.sort(key=lambda row: -row["self_s"])
        return rows[:limit]

    def export(self) -> dict:
        """Raw spans (with parent links) plus per-layer totals, as JSON data."""
        return {
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "fields": ["id", "parent", "layer", "name", "start_s", "end_s",
                       "self_s"],
            "spans": self.spans,
            "layers": {layer: {"calls": self.layer_calls[layer],
                               "self_s": self.layer_self[layer]}
                       for layer in sorted(self.layer_calls)},
            "functions": {name: {"calls": self.fn_calls[name],
                                 "self_s": self.fn_self[name],
                                 "inclusive_s": self.fn_inclusive[name]}
                          for name in sorted(self.fn_calls)},
            "tree": self.span_tree(depth=6, limit=400),
        }


# ----------------------------------------------------------------------
# Count hooks: ``before(args, kwargs, outer) -> state`` and
# ``after(tally, args, kwargs, result, state, outer)``.  They read
# arguments and results only; ``outer`` is true when the call enters its
# layer from another layer (or from the benchmark itself).
# ----------------------------------------------------------------------

def _count(key: str, amount=lambda result: 1):
    def after(tally, args, kwargs, result, state, outer):
        tally[key] += amount(result)
    return after


@functools.cache
def _op_update() -> int:
    from repro.cluster import wire
    return wire.OP_UPDATE


def _after_unseal(tally, args, kwargs, result, state, outer):
    tally["wire.frames_unsealed"] += 1
    if result is None:
        tally["wire.corruptions_detected"] += 1


def _after_client_op(tally, args, kwargs, result, state, outer):
    tally["client.ops"] += 1
    tally["client.attempts"] += result.attempts


def _after_apply(tally, args, kwargs, result, state, outer):
    tally["sdds.calls"] += 1
    op = args[2] if len(args) > 2 else kwargs["op"]
    if op == _op_update():
        tally["sdds.updates"] += 1
        if result[2] == "pseudo":
            tally["sdds.pseudo_updates"] += 1


def _after_append_encoded(tally, args, kwargs, result, state, outer):
    tally["store.append_calls"] += 1
    tally["store.frames_sealed"] += len(result)


def _before_sync(args, kwargs, outer):
    return _pages_differing(args[0], args[1]) if outer else 0


def _after_sync(tally, args, kwargs, result, state, outer):
    # sync_by_locator falls back to sync_by_tree (and that to
    # sync_by_map): only the outermost report is the exchange's total.
    if not outer:
        return
    tally["sync.calls"] += 1
    tally["sync.sig_bytes"] += result.signature_bytes
    tally["sync.data_bytes"] += result.data_bytes
    tally["sync.pages_shipped"] += result.pages_shipped
    tally["sync.pages_diverged"] += state


_HOOKS = {
    "cluster.wire.seal": (None, _count("wire.frames_sealed")),
    "cluster.wire.seal_many": (None, _count("wire.frames_sealed", len)),
    "cluster.wire.unseal": (None, _after_unseal),
    "EventLoop.at": (None, _count("events.scheduled")),
    "cluster.node.serialize_bucket": (
        None, _count("node.image_bytes_rendered", len)),
    "ClusterNode.refresh_image": (None, _count("node.image_refreshes")),
    "ClusterClient.insert": (None, _after_client_op),
    "ClusterClient.search": (None, _after_client_op),
    "ClusterClient.update": (None, _after_client_op),
    "ClusterClient.delete": (None, _after_client_op),
    "serve.ops.apply_operation": (None, _after_apply),
    "LHRSStore.insert": (None, _count("parity.calls")),
    "LHRSStore.update": (None, _count("parity.calls")),
    "LHRSStore.delete": (None, _count("parity.calls")),
    "SegmentedLog.append_encoded": (None, _after_append_encoded),
    "sync.replica.sync_by_map": (_before_sync, _after_sync),
    "sync.replica.sync_by_tree": (_before_sync, _after_sync),
    "sync.replica.sync_by_locator": (_before_sync, _after_sync),
}
