"""Measurement for the ``ReactiveJammer.run`` benchmark (see README.md).

One caller streams a workload's trace through one configured jammer
as a closed loop: ``ReactiveJammer.run`` hands ``UsrpN210.process`` the
next chunk only after the previous one returns, as a host whose input
rate is fixed by the radio would.  Every pass replays the whole trace
after ``ReactiveJammer.reset``; outputs are checked for identity
before any timing and again after every timed pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro import units
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import DegradationPolicy, ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.hw.tx_controller import INIT_LATENCY_SAMPLES
from repro.kernels.dispatch import get_backend
from repro.runtime.cache import DEFAULT_CACHE

import spans
import workloads
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"

#: The radio's baseband rate the throughput is quoted against.
WIRE_MSPS = units.BASEBAND_RATE / 1e6

#: Timed passes run at least this often, however long ``--seconds``.
MIN_PASSES = 5

#: The chunk tail is taken over windows of whole passes holding at
#: least this many chunks, and reported as the median over windows:
#: one host hiccup then moves one window's tail, not the run's.
TAIL_WINDOW_CHUNKS = 100

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 61

#: Names and units of the metrics each mode prints.
END_TO_END = {
    "throughput_msps": "Msps",
    "chunk_p50_us": "us",
    "chunk_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "ddc.busy_ms": "ms",
    "xcorr.busy_ms": "ms",
    "xcorr.ns_per_sample_bank": "ns",
    "energy.busy_ms": "ms",
    "core.self_ms": "ms",
    "core.detections": "count",
    "fsm.busy_ms": "ms",
    "fsm.events_in": "count",
    "fsm.fires": "count",
    "fsm.fire_ratio": "ratio",
    "tx.synth_ms": "ms",
    "tx.synth_calls": "count",
    "tx.capture_ms": "ms",
    "tx.capture_calls": "count",
    "tx.schedule_ms": "ms",
    "tx.bursts": "count",
    "tx.burst_ratio": "ratio",
    "tx.jam_duty": "frac",
    "duc.busy_ms": "ms",
    "jammer.self_ms": "ms",
    "chunk.calls": "count",
    "trace.run_ms": "ms",
    "trace.overhead_frac": "frac",
    "setup.configure_ms": "ms",
    "setup.register_writes": "count",
    "setup.verified_writes": "count",
    "setup.cache_misses": "count",
}


# ----------------------------------------------------------------------
# Output identity

def digest(report) -> str:
    """SHA-256 over the tx bytes, the detections and the jam list."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(report.tx, dtype="<c16").view(np.uint8))
    h.update(json.dumps([[d.time, d.source.name, d.protocol]
                         for d in report.detections]).encode())
    h.update(json.dumps([[j.trigger_time, j.start, j.end, j.waveform.name]
                         for j in report.jams]).encode())
    return h.hexdigest()


def configured(w: Workload) -> ReactiveJammer:
    """A fresh jammer programmed with the workload's configuration."""
    jammer = ReactiveJammer()
    jammer.configure(w.detection(), JammingEventBuilder().on_correlation(),
                     w.personality)
    return jammer


def run_once(w: Workload, chunk_size: int | None = None):
    """One pass of the trace through a freshly configured jammer."""
    return configured(w).run(w.rx, chunk_size=chunk_size or w.chunk_size)


def _reactive_problems(w: Workload, report) -> list[str]:
    """Every frame jammed, and nothing transmitted outside a burst."""
    problems = []
    triggers = np.array([j.trigger_time for j in report.jams],
                        dtype=np.int64)
    jammed = sum(bool(np.any((triggers >= f.start)
                             & (triggers < f.start + f.length)))
                 for f in w.frames)
    if jammed != len(w.frames):
        problems.append(f"jammed {jammed} of {len(w.frames)} frames")
    on_air = np.zeros(report.tx.size, dtype=bool)
    for jam in report.jams:
        on_air[jam.start:jam.end] = True
    stray = int(np.count_nonzero(report.tx[~on_air]))
    if stray:
        problems.append(f"{stray} tx samples outside jam spans")
    return problems


def _wifi_problems(w: Workload, report) -> list[str]:
    problems = _reactive_problems(w, report)
    if len(report.jams) != len(w.frames):
        problems.append(f"{len(report.jams)} bursts for "
                        f"{len(w.frames)} frames")
    return problems


def _dsss_problems(w: Workload, report) -> list[str]:
    problems = _reactive_problems(w, report)
    fired = len(report.jams) / max(len(report.detections), 1)
    if fired < 0.9:
        problems.append(f"only {fired:.2f} of detections fired a burst")
    return problems


def _multistandard_problems(w: Workload, report) -> list[str]:
    """Never silent; each stacked bank matches a single-bank jammer."""
    problems = []
    silent = w.samples - int(np.count_nonzero(report.tx))
    if silent:
        problems.append(f"continuous jammer silent on {silent} samples")
    for name, template, threshold in workloads.MULTI_BANKS:
        single = ReactiveJammer()
        single.configure(DetectionConfig(template=template(),
                                         xcorr_threshold=threshold),
                         JammingEventBuilder().on_correlation(),
                         reactive_jammer(1e-5))
        serial = [d.time for d in
                  single.run(w.rx, chunk_size=w.chunk_size).detections
                  if d.source.name == "XCORR"]
        stacked = [d.time for d in report.detections if d.protocol == name]
        if not stacked:
            problems.append(f"protocol {name} never detected")
        if stacked != serial:
            problems.append(f"protocol {name}: {len(stacked)} stacked vs "
                            f"{len(serial)} single-bank detections")
    return problems


#: Ground-truth checks per workload, on top of the common ones.
GROUND_TRUTH = {
    "wifi_reactive": _wifi_problems,
    "dsss_replay_storm": _dsss_problems,
    "multistandard_continuous": _multistandard_problems,
}


def seed_identity(w: Workload) -> dict:
    """Digest of ``w`` and the checks that hold for any seed.

    The outputs must not depend on the chunk size, and must match the
    trace's ground truth.
    """
    report = run_once(w)
    problems = []
    if report.tx.size != w.samples:
        problems.append(f"tx has {report.tx.size} samples, "
                        f"trace has {w.samples}")
    late = sum(j.start != j.trigger_time + INIT_LATENCY_SAMPLES
               for j in report.jams)
    if late:
        problems.append(f"{late} bursts do not start "
                        f"{INIT_LATENCY_SAMPLES} samples after trigger")
    problems += GROUND_TRUTH[w.name](w, report)
    ref = digest(report)
    if digest(run_once(w, w.alt_chunk_size)) != ref:
        problems.append(f"chunk size {w.alt_chunk_size} changes the output")
    return {"seed": w.seed, "digest": ref,
            "detections": len(report.detections), "jams": len(report.jams),
            "protocol_counts": report.protocol_counts, "problems": problems}


def stored_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check_identity(w: Workload) -> dict:
    """:func:`seed_identity`, plus the stored digest and per-protocol
    counts when ``w`` was built from the default seed."""
    info = seed_identity(w)
    if w.seed != workloads.DEFAULT_SEED:
        return info
    stored = stored_digests()[w.name]
    if stored["digest"] != info["digest"]:
        info["problems"].append(f"digest {info['digest'][:16]} != stored "
                                f"{stored['digest'][:16]}")
    if stored["protocol_counts"] != info["protocol_counts"]:
        info["problems"].append(
            f"protocol counts {info['protocol_counts']} != stored "
            f"{stored['protocol_counts']}")
    return info


# ----------------------------------------------------------------------
# Host

def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(thread_env: dict, host_thread_env: dict) -> dict:
    """What a reader needs to compare records from different hosts."""
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": get_backend().name,
        "thread_env": thread_env,
        "host_thread_env": host_thread_env,
        "git_sha": _git_sha(),
    }


def _reset_peak_rss() -> None:
    # Linux: writing 5 resets this process's VmHWM to its current RSS.
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ----------------------------------------------------------------------
# Measurement

def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten of ``count`` beyond."""
    for pct in TAIL_LADDER:
        if int(count * (100.0 - pct) / 100.0) >= 10:
            return pct
    return TAIL_LADDER[-1]


def measure_setup(w: Workload, recorder: spans.SpanRecorder | None = None
                  ) -> dict:
    """Build and configure a jammer from a cleared artifact cache.

    Repeated :data:`SETUP_REPEATS` times; the median is ``setup_s``.
    With a recorder, ``configure`` is wrapped and the register and
    cache counts of one set-up are read as well.
    """
    times = []
    configure_ns = []
    counts = {}
    for _ in range(SETUP_REPEATS):
        DEFAULT_CACHE.clear()
        misses = DEFAULT_CACHE.stats()["misses"]
        gc.collect()
        start = time.perf_counter()
        jammer = ReactiveJammer()
        if recorder is not None:
            recorder.clear()
            recorder.wrap(jammer, "configure", "setup")
        jammer.configure(w.detection(),
                         JammingEventBuilder().on_correlation(),
                         w.personality)
        times.append(time.perf_counter() - start)
        if recorder is not None:
            (_name, begin, end, _parent), = recorder.spans
            configure_ns.append(end - begin)
            recorder.detach()
            counts = {
                "setup.register_writes": jammer.device.bus.write_count,
                "setup.verified_writes": jammer.driver.health.writes,
                "setup.cache_misses":
                    DEFAULT_CACHE.stats()["misses"] - misses,
            }
    result = {"setup_s": statistics.median(times)}
    if recorder is not None:
        result["setup.configure_ms"] = statistics.median(configure_ns) / 1e6
        result.update(counts)
    return result


class ChunkTimer:
    """One timestamp pair around each ``UsrpN210.process`` call."""

    def __init__(self, jammer: ReactiveJammer) -> None:
        self.ns: list[int] = []
        device = jammer.device
        original = device.process
        sink = self.ns
        clock = time.perf_counter_ns

        def process(chunk):
            start = clock()
            out = original(chunk)
            sink.append(clock() - start)
            return out

        device.process = process


def timed_pass(jammer: ReactiveJammer, w: Workload, ref: str,
               recorder: spans.SpanRecorder | None = None) -> dict:
    """One closed-loop pass of the trace; outputs checked afterwards."""
    chunks = -(-w.samples // w.chunk_size)
    jammer.reset()
    gc.collect()
    if recorder is not None:
        recorder.clear()
        recorder.attach(jammer)
    start = time.perf_counter_ns()
    try:
        report = jammer.run(w.rx, chunk_size=w.chunk_size,
                            degradation=DegradationPolicy.SKIP_AND_LOG)
    except Exception:  # the benchmark keeps measuring; the pass failed
        traceback.print_exc(file=sys.stderr)
        return {"wall_ns": time.perf_counter_ns() - start,
                "chunks": chunks, "failed": chunks, "report": None}
    finally:
        if recorder is not None:
            recorder.detach()
    wall = time.perf_counter_ns() - start
    failed = report.health.chunks_skipped
    if digest(report) != ref:
        failed = chunks
    return {"wall_ns": wall, "chunks": chunks, "failed": failed,
            "report": report}


def layer_metrics(w: Workload, recorder: spans.SpanRecorder, report,
                  banks: int) -> dict:
    """Per-layer numbers of one traced pass."""
    busy, calls = spans.layer_totals(recorder.spans)
    counts = recorder.counts

    def ms(layer):
        return busy.get(layer, 0) / 1e6

    fires = counts.get("fsm.fires", 0)
    events_in = counts.get("fsm.events_in", 0)
    bursts = counts.get("tx.bursts", 0)
    run_ns = sum(end - start for name, start, end, _p in recorder.spans
                 if name == "jammer")
    return {
        "ddc.busy_ms": ms("ddc"),
        "xcorr.busy_ms": ms("xcorr"),
        "xcorr.ns_per_sample_bank": busy.get("xcorr", 0)
        / (w.samples * banks),
        "energy.busy_ms": ms("energy"),
        "core.self_ms": ms("core"),
        "core.detections": len(report.detections),
        "fsm.busy_ms": ms("fsm"),
        "fsm.events_in": events_in,
        "fsm.fires": fires,
        "fsm.fire_ratio": fires / events_in if events_in else 0.0,
        "tx.synth_ms": ms("tx.synth"),
        "tx.synth_calls": calls.get("tx.synth", 0),
        "tx.capture_ms": ms("tx.capture"),
        "tx.capture_calls": calls.get("tx.capture", 0),
        "tx.schedule_ms": ms("tx.schedule"),
        "tx.bursts": bursts,
        "tx.burst_ratio": bursts / fires if fires else 0.0,
        "tx.jam_duty": int(np.count_nonzero(report.tx)) / w.samples,
        "duc.busy_ms": ms("duc"),
        "jammer.self_ms": ms("jammer"),
        "chunk.calls": calls.get("chunk", 0),
        "trace.run_ms": run_ns / 1e6,
    }


def measure(w: Workload, seconds: float, trace: bool) -> dict:
    """The timed part of one run: passes until ``seconds`` have elapsed.

    Untraced, every pass is timed and chunk latencies are collected.
    Traced, untraced and traced passes alternate; the untraced ones
    are the base of ``trace.overhead_frac``.
    """
    jammer = configured(w)
    ref = digest(jammer.run(w.rx, chunk_size=w.chunk_size))  # warm-up
    chunks = -(-w.samples // w.chunk_size)
    window = -(-TAIL_WINDOW_CHUNKS // chunks)
    min_passes = MIN_PASSES if trace else max(MIN_PASSES, window)
    recorder = spans.SpanRecorder() if trace else None
    timer = None if trace else ChunkTimer(jammer)
    banks = max(jammer.device.core.bank_count, 1)
    passes = {"plain": [], "traced": []}
    layers: list[dict] = []
    last_spans: list = []
    gc.collect()
    if not trace:
        _reset_peak_rss()
    deadline = time.perf_counter() + seconds
    while True:
        # Traced runs swap the order every round, so neither kind of
        # pass always runs first after the other.
        kinds = ["plain", "traced"] if trace else ["plain"]
        if len(passes["plain"]) % 2:
            kinds.reverse()
        for kind in kinds:
            traced = kind == "traced"
            outcome = timed_pass(jammer, w, ref,
                                 recorder if traced else None)
            passes[kind].append(outcome)
            if traced and outcome["report"] is not None:
                layers.append(layer_metrics(w, recorder, outcome["report"],
                                            banks))
                last_spans = list(recorder.spans)
            outcome["report"] = None
        done = len(passes["plain"])
        if done >= min_passes and time.perf_counter() >= deadline:
            break
    result = {"passes": {k: len(v) for k, v in passes.items()},
              "samples_per_pass": w.samples, "chunks_per_pass": chunks}
    all_passes = passes["plain"] + passes["traced"]
    result["attempted"] = sum(p["chunks"] for p in all_passes)
    result["failed"] = sum(p["failed"] for p in all_passes)
    plain_walls = [p["wall_ns"] for p in passes["plain"]]
    if trace:
        traced_walls = [p["wall_ns"] for p in passes["traced"]]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]} if layers else {}
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls)
                                          - 1.0)
        result["metrics"] = metrics
        result["spans"] = last_spans
        return result
    peak_rss_mb = _peak_rss_mb()
    msps = [w.samples / ns * 1e3 for ns in plain_walls]
    chunk_ns = np.asarray(timer.ns, dtype=np.float64)
    pct = tail_percentile(window * chunks)
    windows = chunk_ns[:len(chunk_ns) // (window * chunks) * window * chunks]
    tails = np.percentile(windows.reshape(-1, window * chunks), pct, axis=1)
    result["metrics"] = {
        "throughput_msps": statistics.median(msps),
        "chunk_p50_us": float(np.median(chunk_ns)) / 1e3,
        "chunk_tail_us": float(np.median(tails)) / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    result["tail"] = {"percentile": pct, "window_chunks": window * chunks,
                      "windows": len(tails), "chunks": len(chunk_ns)}
    return result


def write_digests() -> None:
    """Store the default seed's digests.

    Only for a reviewed change of the program's outputs: a performance
    change must reproduce the stored digests, never rewrite them.
    """
    stored = {}
    for name in workloads.WORKLOADS:
        info = seed_identity(workloads.build(name, workloads.DEFAULT_SEED))
        if info["problems"]:
            raise RuntimeError(f"{name}: {info['problems']}")
        del info["problems"]
        stored[name] = info
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
