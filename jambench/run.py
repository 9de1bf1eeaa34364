#!/usr/bin/env python3
"""End-to-end benchmark of ``ReactiveJammer.run`` (see README.md).

    python3 jambench/run.py --workload wifi_reactive --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(chunks) and ``metrics``.  The line before it is the full record.

BLAS/OpenMP pools are pinned to one thread before numpy is imported:
one caller streams the chunks, so extra pool threads only contend
with it.  ``--advisory-default-pool`` is the internal entry of the
advisory pass that runs under the host's default pools instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HOST_THREAD_ENV = {name: os.environ.get(name) for name in THREAD_VARS}

#: Seconds the advisory default-pool pass may take before it is killed.
ADVISORY_TIMEOUT_S = 90


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="wifi_reactive")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--advisory-default-pool", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the source tree and this directory on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"jambench: no program source at {src}/repro; "
                         "run from the repository root of a full checkout")
    sys.path[:0] = [str(src), str(HERE)]


def _advisory_pass(seed: int) -> dict:
    """A wifi_reactive pass under the host's default thread pools.

    Runs in a child process whose environment carries the host's own
    BLAS/OpenMP settings.  It gates nothing: it keeps a pool-induced
    stall visible in the record.
    """
    env = dict(os.environ)
    for name, value in HOST_THREAD_ENV.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--advisory-default-pool",
         "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=ADVISORY_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-500:] or "no output"}
    return json.loads(lines[-1])


def _advisory_child(seed: int) -> None:
    import statistics

    import numpy as np

    import bench
    import spans
    import workloads

    w = workloads.build("wifi_reactive", seed)
    jammer = bench.configured(w)
    ref = bench.digest(jammer.run(w.rx, chunk_size=w.chunk_size))
    timer = bench.ChunkTimer(jammer)
    plain = bench.timed_pass(jammer, w, ref)
    del jammer.device.process  # drop the ChunkTimer wrapper
    recorder = spans.SpanRecorder()
    traced = bench.timed_pass(jammer, w, ref, recorder)
    layers = bench.layer_metrics(w, recorder, traced["report"], 1)
    print(json.dumps({
        "workload": w.name,
        "thread_env": HOST_THREAD_ENV,
        "throughput_msps": w.samples / plain["wall_ns"] * 1e3,
        "chunk_p50_us": statistics.median(timer.ns) / 1e3,
        "chunk_p90_us": float(np.percentile(timer.ns, 90.0)) / 1e3,
        "failed": plain["failed"] + traced["failed"],
        "traced_run_ms": layers["trace.run_ms"],
        "traced_xcorr_ms": layers["xcorr.busy_ms"],
    }))


def _print_record(args, w, identity, setup, result, fingerprint,
                  advisory) -> None:
    import bench

    metrics = result["metrics"]
    lines = [f"jambench {w.name} seed={w.seed} trace={args.trace} "
             f"samples={w.samples} chunk={w.chunk_size} "
             f"passes={result['passes']}"]
    host_pools = {k: v for k, v in fingerprint["host_thread_env"].items()
                  if v is not None} or "unset"
    lines.append("host: " + ", ".join(
        f"{k}={v}" for k, v in fingerprint.items()
        if k not in ("thread_env", "host_thread_env"))
        + f", blas/omp threads pinned to 1 (host: {host_pools})")
    for check in identity:
        state = "ok" if not check["problems"] else \
            "FAILED: " + "; ".join(check["problems"])
        lines.append(f"identity seed={check['seed']} "
                     f"digest={check['digest'][:16]} {state}")
    if args.trace:
        for name, unit in bench.PER_LAYER.items():
            lines.append(f"{name:<26}{metrics[name]:>14.6g} {unit}")
        lines.append(
            f"ratios: fsm.fires/fsm.events_in = {metrics['fsm.fires']:g}"
            f"/{metrics['fsm.events_in']:g}, tx.bursts/fsm.fires = "
            f"{metrics['tx.bursts']:g}/{metrics['fsm.fires']:g}")
        lines.append(f"advisory default-pool wifi_reactive pass: "
                     f"{json.dumps(advisory)}")
    else:
        air_us = w.chunk_size / bench.WIRE_MSPS
        tail = result["tail"]
        notes = {
            "throughput_msps": f"{metrics['throughput_msps'] / bench.WIRE_MSPS:.3f}"
                               f"x of the {bench.WIRE_MSPS:g} MSPS wire rate",
            "chunk_p50_us": f"chunk air time {air_us:.2f} us at "
                            f"{bench.WIRE_MSPS:g} MSPS",
            "chunk_tail_us": f"p{tail['percentile']:g} of each "
                             f"{tail['window_chunks']}-chunk window, median "
                             f"of {tail['windows']} windows",
            "setup_s": f"median of {bench.SETUP_REPEATS} set-ups from a "
                       "cleared ArtifactCache",
            "peak_rss_mb": "VmHWM over the timed passes",
        }
        for name, unit in bench.END_TO_END.items():
            lines.append(f"{name:<18}{metrics[name]:>14.6g} {unit:<5} "
                         f"({notes[name]})")
        lines.append(f"failed_frac       {result['failed_frac']:>14.6g} "
                     f"({result['failed']} of {result['attempted']} chunks)")
    print("\n".join(lines))
    record = {
        "workload": w.name, "seed": w.seed, "trace": args.trace,
        "fingerprint": fingerprint, "identity": identity,
        "setup": setup, "advisory_default_pool": advisory,
        **{k: v for k, v in result.items() if k != "spans"},
    }
    print(json.dumps({"record": record}))


def main(argv=None) -> int:
    args = _parse(argv)
    if not args.advisory_default_pool:
        for name in THREAD_VARS:
            os.environ[name] = "1"
    _import_program()
    if args.advisory_default_pool:
        _advisory_child(args.seed)
        return 0

    import bench
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"jambench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    fingerprint = bench.fingerprint(
        {name: os.environ[name] for name in THREAD_VARS}, HOST_THREAD_ENV)

    # Output identity before any timing: the stored default-seed digest
    # first, then this seed's own checks.
    identity = []
    if args.seed != workloads.DEFAULT_SEED:
        identity.append(bench.check_identity(
            workloads.build(args.workload, workloads.DEFAULT_SEED)))
    w = workloads.build(args.workload, args.seed)
    identity.append(bench.check_identity(w))
    correct = not any(check["problems"] for check in identity)

    recorder = spans.SpanRecorder() if args.trace else None
    setup = bench.measure_setup(w, recorder)
    result = bench.measure(w, args.seconds, bool(args.trace))
    if not correct:
        result["failed"] = result["attempted"]
    correct = correct and result["failed"] == 0
    result["failed_frac"] = result["failed"] / result["attempted"]

    advisory = None
    if args.trace:
        result["metrics"].update(setup)
        del result["metrics"]["setup_s"]
        advisory = _advisory_pass(args.seed)
        bench.OUT_DIR.mkdir(exist_ok=True)
        out = bench.OUT_DIR / f"spans_{w.name}_{w.seed}.json"
        out.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": result["spans"]}))
        names = bench.PER_LAYER
    else:
        result["metrics"]["setup_s"] = setup["setup_s"]
        names = bench.END_TO_END
    _print_record(args, w, identity, setup, result, fingerprint, advisory)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
