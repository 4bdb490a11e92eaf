"""Smoke test for the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced through the real command line
and checks what a harness and a reader rely on: every declared metric
present with its unit, every correctness check run and passed, a span
tree with parent links and per-layer self times, counts that repeat for
one seed and move for another, and a clean refusal without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("kv-durable", "serve-open", "volume-audit")
#: Per-layer metrics that are wall times, not counts (besides *self_s).
TIMED = ("trace.overhead_frac", "wire.us_per_frame", "sig.mib_per_s")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    process = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return process


def _result(process) -> tuple[dict, str]:
    assert process.returncode == 0, process.stdout + process.stderr
    lines = process.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def _deterministic(metrics: dict) -> dict:
    return {name: body["value"] for name, body in metrics.items()
            if not name.endswith("self_s") and name not in TIMED}


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    result, text = _result(_run(workload, 7, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: body["unit"] for name, body in result["metrics"].items()} \
        == {name: unit for name, unit, _better, _bound in END_TO_END}
    assert all(body["value"] > 0 for body in result["metrics"].values())
    assert "check PASS" in text and "check FAIL" not in text
    assert "host: " in text and '"REPRO_SIGN_WORKERS": "unset' in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ledger_and_determinism(workload):
    first, text = _result(_run(workload, 7, 1))
    assert first["correct"], text
    assert {name: body["unit"] for name, body in first["metrics"].items()} \
        == {name: unit for name, unit, _better, _layer in PER_LAYER}
    assert "integrity + determinism checks: PASS" in text

    export = json.loads(
        (ROOT / ".perfbench_out" / f"trace-{workload}-seed7.json")
        .read_text())
    spans = export["spans"]
    ids = {span[0] for span in spans}
    children = [span for span in spans if span[1] is not None]
    assert children and all(span[1] in ids for span in children)
    assert all(span[6] >= -1e-9 for span in spans)   # self time >= 0
    assert any(layer["self_s"] > 0 for layer in export["layers"].values())
    assert any(row["parent"] for row in export["tree"])

    again, _ = _result(_run(workload, 7, 1))
    other, _ = _result(_run(workload, 8, 1))
    same = _deterministic(first["metrics"])
    assert _deterministic(again["metrics"]) == same
    assert _deterministic(other["metrics"]) != same


def test_seed_reaches_the_inputs_untraced():
    first, _ = _result(_run("kv-durable", 7, 0))
    other, _ = _result(_run("kv-durable", 8, 0))
    assert first["metrics"]["bytes_per_user_byte"] != \
        other["metrics"]["bytes_per_user_byte"]


def test_refuses_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    process = _run("kv-durable", 1, 0, cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
