"""Benchmark-suite fixtures.

The ``*_record`` fixtures collect per-test perf records; at session
end everything collected is written to its ``BENCH_*.json`` at the
repository root, where the CI perf-smoke job uploads them as
artifacts.  One writer stamps every file with jambench's host
fingerprint (CPUs, Python/numpy, thread env, git SHA), so a record
compares with jambench's runs.  Each file is only written when at
least one contributing benchmark ran, so partial invocations leave no
stray output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

#: Where the perf records land (repository root).
_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_TELEMETRY_PATH = _REPO_ROOT / "BENCH_telemetry.json"
BENCH_RUNTIME_PATH = _REPO_ROOT / "BENCH_runtime.json"
BENCH_KERNELS_PATH = _REPO_ROOT / "BENCH_kernels.json"
BENCH_RESILIENCE_PATH = _REPO_ROOT / "BENCH_resilience.json"
BENCH_DEFENSE_PATH = _REPO_ROOT / "BENCH_defense.json"
BENCH_MULTISTANDARD_PATH = _REPO_ROOT / "BENCH_multistandard.json"
BENCH_TX_PATH = _REPO_ROOT / "BENCH_tx.json"
_JAMBENCH = _REPO_ROOT / "jambench"


def _jambench_fingerprint() -> dict:
    """jambench's host fingerprint, so a record compares with its runs."""
    sys.path.insert(0, str(_JAMBENCH))
    try:
        import bench
        from run import HOST_THREAD_ENV
    finally:
        sys.path.remove(str(_JAMBENCH))
    return bench.fingerprint(HOST_THREAD_ENV, HOST_THREAD_ENV)


def _record_fixture(path: Path):
    record: dict[str, object] = {}
    yield record
    if record:
        record["fingerprint"] = _jambench_fingerprint()
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


@pytest.fixture(scope="session")
def telemetry_record():
    """A dict the telemetry benchmarks drop their results into."""
    yield from _record_fixture(BENCH_TELEMETRY_PATH)


@pytest.fixture(scope="session")
def runtime_record():
    """A dict the runtime benchmarks drop their results into."""
    yield from _record_fixture(BENCH_RUNTIME_PATH)


@pytest.fixture(scope="session")
def kernels_record():
    """A dict the kernel benchmarks drop their results into."""
    yield from _record_fixture(BENCH_KERNELS_PATH)


@pytest.fixture(scope="session")
def resilience_record():
    """A dict the chaos-sweep benchmarks drop their results into."""
    yield from _record_fixture(BENCH_RESILIENCE_PATH)


@pytest.fixture(scope="session")
def defense_record():
    """A dict the defense-tournament benchmarks drop their results into."""
    yield from _record_fixture(BENCH_DEFENSE_PATH)


@pytest.fixture(scope="session")
def multistandard_record():
    """A dict the stacked-bank benchmarks drop their results into."""
    yield from _record_fixture(BENCH_MULTISTANDARD_PATH)


@pytest.fixture(scope="session")
def tx_record():
    """A dict the transmit-synthesis benchmarks drop their results into."""
    yield from _record_fixture(BENCH_TX_PATH)
