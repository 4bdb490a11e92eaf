"""Wall-clock benchmark entry point.

    python3 perfbench/run.py --workload kv-durable --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats seeded rounds of the workload with no wrappers
installed until ``--seconds`` have passed (at least three rounds) and
reports the end-to-end metrics as medians over the rounds.  ``--trace 1``
runs two untraced rounds, then one round with the layer ledger
installed, and reports the per-layer metrics plus the tracing overhead
(traced ÷ untraced timed wall − 1).  Human-readable lines come first;
the last line of standard output is one JSON object.  The exit code is
0 only when every correctness check passed.

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("kv-durable", "serve-open", "volume-audit")
WORKER_ENV = ("REPRO_SIGN_WORKERS", "REPRO_RECOVERY_WORKERS")
MIN_ROUNDS = 3


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    return parser.parse_args(argv)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host_facts(unset: dict) -> dict:
    import numpy
    from repro.sig.engine import get_batch_signer
    from repro.sig.parallel import resolve_workers
    from repro.sig.scheme import make_scheme
    from repro.store.recovery import resolve_recovery_workers
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "env_unset": unset,
        "sign_workers_effective": get_batch_signer(make_scheme()).workers
        or 1,
        "process_sign_workers_default": resolve_workers(),
        "recovery_workers_resolved": resolve_recovery_workers(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


# ----------------------------------------------------------------------
# Untraced: end-to-end metrics
# ----------------------------------------------------------------------

def _end_to_end(name, run_round, seed, seconds) -> int:
    from metrics import DETERMINISTIC, END_TO_END

    rounds = []
    began = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(run_round(seed))
        if len(rounds) == 1:
            # A fresh process through one round: later rounds start with
            # whatever the allocator kept, which differs run to run.
            peak_rss = _peak_rss_mib()
        elapsed = time.perf_counter() - began
        if rounds[-1].failed:
            break
        if len(rounds) >= MIN_ROUNDS \
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    first = rounds[0]
    repeat = [key for key in DETERMINISTIC
              if len({r.counts.get(key) for r in rounds}) != 1]
    counts = first.counts
    values = {
        "setup_s": statistics.median(r.setup.reference_s for r in rounds),
        "ops_per_ref_s": statistics.median(
            r.ops / r.pieces.reference_s for r in rounds),
        "peak_rss_mib": peak_rss,
        "bytes_per_user_byte": (counts["log_bytes"] + counts["net_bytes"])
        / counts["user_bytes"],
    }
    attempted = sum(r.attempted for r in rounds) + 1
    failed = sum(r.failed for r in rounds) + bool(repeat)

    print(f"{name}: {len(rounds)} rounds, {elapsed:.1f} s, "
          f"timed phase {sum(r.pieces.wall_s for r in rounds):.1f} s")
    for check in sorted({c for r in rounds for c in r.checks}):
        passed = all(r.checks.get(check, True) for r in rounds)
        print(f"  check {'PASS' if passed else 'FAIL'}: {check}")
    print(f"  check {'FAIL' if repeat else 'PASS'}: deterministic counts "
          f"repeat across rounds {repeat or ''}")
    for key, unit, _better, _bound in END_TO_END:
        print(f"  {key} = {values[key]:.6g} {unit}")
    wall_rate = statistics.median(r.ops / r.pieces.wall_s for r in rounds)
    wall_setup = statistics.median(r.setup.wall_s for r in rounds)
    print(f"  wall clock, not adjusted: ops_per_s = {wall_rate:.6g} 1/s, "
          f"setup = {wall_setup:.6g} s")
    print(f"  error_rate = {failed / attempted:.6g} fraction")
    _print_detail(name, rounds)
    metrics = {key: _metric(values[key], unit)
               for key, unit, _better, _bound in END_TO_END}
    _emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def _print_detail(name, rounds) -> None:
    """The workload's own named numbers: wall clock, medians over rounds."""
    print("  named numbers (wall clock, not adjusted):")
    if name == "kv-durable":
        reads = [s for r in rounds for s in r.samples["read"]]
        writes = [s for r in rounds for s in r.samples["write"]]
        for label, samples in (("read", reads), ("write", writes)):
            ordered = sorted(samples)
            for p in (50, 99):
                value = ordered[min(len(ordered) - 1,
                                    int(p / 100 * len(ordered)))] * 1e3
                print(f"  {label}_p{p}_ms = {value:.4g} ms "
                      f"(n={len(ordered)})")
    for key in rounds[0].detail:
        if key == "steps":
            for step in rounds[0].detail["steps"]:
                print(f"  model step (simulated): {json.dumps(step)}")
            continue
        unit = rounds[0].detail[key][1]
        value = statistics.median(r.detail[key][0] for r in rounds)
        print(f"  {key} = {value:.6g} {unit}")


# ----------------------------------------------------------------------
# Traced: per-layer metrics
# ----------------------------------------------------------------------

def _per_layer(name, run_round, seed, out_dir: Path) -> int:
    from ledger import Ledger
    from metrics import ACTIVE, DETERMINISTIC, PER_LAYER, REQUIRED_WRAPPERS

    run_round(seed)                       # warm lazy state
    gc.collect()
    baseline = run_round(seed)
    gc.collect()
    ledger = Ledger()
    traced = run_round(seed, ledger)
    values = _layer_values(ledger, traced,
                           traced.pieces.reference_s
                           / baseline.pieces.reference_s - 1.0)

    problems = []
    for check, passed in {**baseline.checks, **traced.checks}.items():
        if not passed:
            problems.append(f"check failed: {check}")
    for layer in ACTIVE[name]:
        if not ledger.layer_calls[layer]:
            problems.append(f"layer {layer} predicted active, no calls")
    for wrapper in REQUIRED_WRAPPERS[name]:
        if not ledger.fn_calls[wrapper]:
            problems.append(f"wrapper {wrapper} recorded no calls")
    program = traced.program
    agree = {
        "sig.calls == sig.sign_calls":
            (values["sig.calls"], program["sig.sign_calls"]),
        "store.frames_sealed == store.frames_sealed":
            (values["store.frames_sealed"], program["store.frames_sealed"]),
        "wire.corruptions_detected == cluster+serve corruptions":
            (values["wire.corruptions_detected"],
             program["cluster.corruptions_detected"]
             + program["serve.corruptions_detected"]),
        "sdds pseudo-updates == cluster+serve pseudo_updates":
            (ledger.tally["sdds.pseudo_updates"],
             program["cluster.pseudo_updates"]
             + program["serve.pseudo_updates"]),
    }
    for label, (ours, theirs) in agree.items():
        if ours != theirs:
            problems.append(f"disagree: {label}: {ours} != {theirs}")
    for key in DETERMINISTIC:
        if baseline.counts.get(key) != traced.counts.get(key):
            problems.append(f"count {key} differs traced vs untraced: "
                            f"{baseline.counts.get(key)} != "
                            f"{traced.counts.get(key)}")

    out_dir.mkdir(parents=True, exist_ok=True)
    export = ledger.export()
    export.update({"workload": name, "seed": seed,
                   "per_layer": values, "counts": traced.counts,
                   "program": traced.program, "model": traced.model})
    path = out_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(export))

    print(f"{name}: traced round {traced.pieces.wall_s:.2f} s vs untraced "
          f"{baseline.pieces.wall_s:.2f} s; {len(ledger.spans)} spans kept, "
          f"{ledger.spans_dropped} dropped; export {path.relative_to(ROOT)}")
    print("  layer self time (s) and calls:")
    for layer in sorted(ledger.layer_self, key=lambda l: -ledger.layer_self[l]):
        print(f"    {layer:<11} {ledger.layer_self[layer]:9.4f} s "
              f"{ledger.layer_calls[layer]:>9} calls")
    print("  span tree (heaviest self time; parent = path minus last name):")
    for row in ledger.span_tree(depth=16, limit=25):
        print(f"    {row['self_s']:8.4f} s {row['calls']:>8}x  {row['path']}")
    for problem in problems:
        print(f"  FAIL: {problem}")
    print(f"  integrity + determinism checks: "
          f"{'PASS' if not problems else 'FAIL'}")
    metrics = {key: _metric(values[key], unit)
               for key, unit, _better, _layer in PER_LAYER}
    attempted = baseline.attempted + traced.attempted + len(agree) \
        + len(ACTIVE[name]) + len(REQUIRED_WRAPPERS[name]) \
        + len(DETERMINISTIC)
    _emit(not problems, attempted, len(problems), metrics)
    return 0 if not problems else 1


def _ratio(top, bottom) -> float:
    return top / bottom if bottom else 0.0


def _layer_values(ledger, traced, overhead: float) -> dict:
    tally, program = ledger.tally, traced.program
    user = traced.counts["user_bytes"]
    self_s = ledger.layer_self
    sealed, unsealed = tally["wire.frames_sealed"], tally["wire.frames_unsealed"]
    return {
        "gf.calls": ledger.layer_calls["gf"],
        "gf.self_s": self_s["gf"],
        "sig.calls": tally["sig.signatures"],
        "sig.self_s": self_s["sig"],
        "sig.bytes_signed": program["sig.bytes_signed"],
        "sig.bytes_per_call": _ratio(program["sig.bytes_signed"],
                                     tally["sig.signatures"]),
        "sig.mib_per_s": _ratio(program["sig.bytes_signed"] / 2**20,
                                ledger.layer_entered["sig"]),
        "sig.locate.self_s": self_s["sig.locate"],
        "sig.locate.decodes": program["sig.locate.decodes"],
        "sig.locate.overflows": program["sig.locate.overflows"],
        "wire.frames_sealed": sealed,
        "wire.frames_unsealed": unsealed,
        "wire.self_s": self_s["wire"],
        "wire.us_per_frame": _ratio(ledger.layer_entered["wire"] * 1e6,
                                    sealed + unsealed),
        "wire.corruptions_detected": tally["wire.corruptions_detected"],
        "events.scheduled": tally["events.scheduled"],
        "events.self_s": self_s["events"],
        "net.messages": program["net.messages"],
        "net.bytes": program["net.bytes"],
        "net.faults_injected": program["cluster.faults_injected"],
        "node.image_refreshes": tally["node.image_refreshes"],
        "node.image_self_s": self_s["node"],
        "node.image_bytes_rendered": tally["node.image_bytes_rendered"],
        "node.image_bytes_per_user_byte": _ratio(
            tally["node.image_bytes_rendered"], user),
        "node.mirror_delta_bytes_per_user_byte": _ratio(
            program["cluster.mirror_delta_bytes"], user),
        "runtime.self_s": self_s["runtime"],
        "client.attempts_per_op": _ratio(tally["client.attempts"],
                                         tally["client.ops"]),
        "client.retries": program["cluster.retries"],
        "client.timeouts": program["cluster.timeouts"],
        "serve.self_s": self_s["serve"],
        "serve.sheds": program["serve.sheds"],
        "serve.coalesced": program["serve.coalesced"],
        "serve.splits": program["serve.splits"],
        "serve.client_retries": program["serve.client_retries"],
        "serve.sim_goodput_ops_per_s": traced.model.get(
            "sim_goodput_ops_per_s", 0.0),
        "serve.sim_p99_ms": traced.model.get("sim_p99_ms", 0.0),
        "sdds.calls": tally["sdds.calls"],
        "sdds.self_s": self_s["sdds"],
        "sdds.pseudo_update_frac": _ratio(tally["sdds.pseudo_updates"],
                                          tally["sdds.updates"]),
        "parity.calls": tally["parity.calls"],
        "parity.self_s": self_s["parity"],
        "parity.delta_symbols": program["parity.delta_symbols"],
        "store.append_calls": tally["store.append_calls"],
        "store.append_self_s": ledger.self_of(
            "SegmentedLog.append", "SegmentedLog.append_many",
            "SegmentedLog.append_encoded", "SegmentedLog.commit",
            "store.frames.encode", "store.frames.encode_many"),
        "store.frames_sealed": tally["store.frames_sealed"],
        "store.flushes": program["store.log.fsyncs"],
        "store.bytes_appended_per_user_byte": _ratio(
            program["store.bytes_appended"], user),
        "store.checkpoint_self_s": ledger.self_of(
            "PageStore.checkpoint", "store.checkpoint.save"),
        "store.scan_self_s": ledger.self_of(
            "SegmentedLog.scan", "store.recovery.scan_log",
            "store.recovery.scan_segment", "store.frames.scan_buffer"),
        "store.replay_self_s": ledger.self_of(
            "PageStore.recover", "store.checkpoint.load"),
        "store.recovery_workers": program["store.recovery_workers"],
        "store.frames_replayed": program["store.frames_replayed"],
        "store.corrupt_frames_detected":
            program["store.corrupt_frames_detected"],
        "store.pages_condemned": program["store.pages_condemned"],
        "sync.self_s": self_s["sync"],
        "sync.fold_self_s": ledger.self_of(
            "Replica.signature_map", "Replica.signature_tree",
            "Replica.locator_map"),
        "sync.sig_bytes": tally["sync.sig_bytes"],
        "sync.data_bytes": tally["sync.data_bytes"],
        "sync.pages_shipped_per_diverged_page": _ratio(
            tally["sync.pages_shipped"], tally["sync.pages_diverged"]),
        "sync.locate.fallbacks": program["sync.locate.fallbacks"],
        "obs.calls": ledger.layer_calls["obs"],
        "obs.self_s": self_s["obs"],
        "obs.trace_spans": program["obs.trace_spans"],
        "obs.recorder_dumps": program["obs.recorder_dumps"],
        "trace.overhead_frac": overhead,
    }


# ----------------------------------------------------------------------

def _stop_workers() -> None:
    """Shut down the program's process pools and wait for every child."""
    from multiprocessing import resource_tracker
    from repro.sig.parallel import shutdown_pools
    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)
    # The shared-memory tracker the recovery arena starts is a child too;
    # stopping it closes its pipe and waits for it to exit.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # Measure the shipped worker defaults: drop any override.
    unset = {name: os.environ.pop(name) for name in WORKER_ENV
             if name in os.environ}
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    size = workloads.SIZES[args.workload][args.size]
    body = workloads.WORKLOADS[args.workload]

    def run_round(seed, ledger=None):
        return body(seed, size, workdir, ledger)

    try:
        facts = _host_facts({name: "unset" + (" (caller had set it)"
                                              if name in unset else "")
                             for name in WORKER_ENV})
        print(f"host: {json.dumps(facts, sort_keys=True)}")
        if args.trace:
            return _per_layer(args.workload, run_round, args.seed,
                              ROOT / ".perfbench_out")
        return _end_to_end(args.workload, run_round, args.seed,
                           args.seconds)
    finally:
        _stop_workers()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only when no other run uses it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
