"""The benchmark's own tests: digests, span accounting, metric names.

Run from the repository root with ``python -m pytest jambench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_digest_other_seed_differs(name):
    first = bench.digest(bench.run_once(workloads.build(name, 1)))
    again = bench.digest(bench.run_once(workloads.build(name, 1)))
    other = bench.digest(bench.run_once(workloads.build(name, 2)))
    assert first == again
    assert first != other
    assert first == bench.stored_digests()[name]["digest"]


@pytest.mark.parametrize("name", ["wifi_reactive", "dsss_replay_storm"])
def test_layer_self_times_add_up_to_run_wall_time(name):
    w = workloads.build(name, 1)
    jammer = bench.configured(w)
    ref = bench.digest(jammer.run(w.rx, chunk_size=w.chunk_size))
    recorder = spans.SpanRecorder()
    result = bench.timed_pass(jammer, w, ref, recorder)
    assert result["failed"] == 0

    runs = [s for s in recorder.spans if s[0] == "jammer"]
    assert len(runs) == 1 and runs[0][3] == -1
    run_ns = runs[0][2] - runs[0][1]
    busy, calls = spans.layer_totals(recorder.spans)
    assert sum(busy.values()) == run_ns
    assert all(ns >= 0 for ns in spans.self_times(recorder.spans))
    assert calls["chunk"] == -(-w.samples // w.chunk_size)
    # Every layer of the data path was reached from inside a chunk.
    names = {name for name, *_ in recorder.spans}
    assert {"ddc", "xcorr", "energy", "fsm", "tx.schedule", "tx.capture",
            "tx.synth", "duc"} <= names
    for name, start, end, parent in recorder.spans:
        if parent >= 0:
            _pname, pstart, pend, _ = recorder.spans[parent]
            assert pstart <= start <= end <= pend
    # The wrappers are gone once the pass ends.
    assert "process" not in vars(jammer.device)
    assert result["wall_ns"] >= run_ns


def test_recorder_reads_counts_at_layer_boundaries():
    w = workloads.build("dsss_replay_storm", 1)
    jammer = bench.configured(w)
    ref = bench.digest(jammer.run(w.rx, chunk_size=w.chunk_size))
    recorder = spans.SpanRecorder()
    report = bench.timed_pass(jammer, w, ref, recorder)["report"]
    metrics = bench.layer_metrics(w, recorder, report, 1)
    assert metrics["fsm.events_in"] == len(report.detections)
    assert metrics["tx.bursts"] == len(report.jams)
    assert metrics["fsm.fires"] >= metrics["tx.bursts"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "jambench/run.py", "--workload", "wifi_reactive",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "jambench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "jambench/run.py", "--workload", "wifi_reactive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
