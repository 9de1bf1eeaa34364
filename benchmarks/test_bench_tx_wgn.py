"""Continuous WGN jamming costs the same per sample at any time on air.

The paper's continuous mode radiates WGN with no end, and a burst may
last up to 2^30 samples (42.9 s).  The transmit controller carries each
WGN stream's generator across chunks, so the cost of a chunk does not
grow with the time the stream has been on air.  This bench streams
silence (zero IQ16 planes) through
:class:`repro.hw.dsp_core.CustomDspCore` in continuous mode, in
65536-sample chunks, for 1 M and for 4 M samples, alternating the two
lengths round by round.  It records the ns/sample of each as
paired medians, and asserts that the 4 M run's ns/sample is within
``MAX_LONG_SHORT_RATIO`` of the 1 M run's.  A path that replays the
stream from the burst start on every chunk is quadratic and reads
about 4.

Output identity is checked before timing: the 1 M run's transmit bytes
must equal the WGN closed form drawn from a fresh generator.  The
record lands in ``BENCH_tx.json`` at the repository root (a CI
artifact), stamped with jambench's host fingerprint by
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.hw import register_map as regmap
from repro.hw.dsp_core import CustomDspCore

CHUNK = 65536
SHORT = 2 ** 20
LONG = 4 * SHORT
ROUNDS = 5

#: Ceiling on (4 M ns/sample) / (1 M ns/sample); linear synthesis reads
#: about 1.0.
MAX_LONG_SHORT_RATIO = 1.5


def _continuous_core() -> CustomDspCore:
    core = CustomDspCore()
    core.bus.write(regmap.REG_CONTROL_FLAGS,
                   regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
    return core


def _stream(core: CustomDspCore, samples: int, keep: bool = False):
    """Wall ns to stream ``samples`` of silence from a reset core."""
    rx = np.zeros((CHUNK, 2), dtype=np.int16)
    core.reset()
    chunks = []
    start = time.perf_counter_ns()
    for _ in range(samples // CHUNK):
        tx = core.process(rx).tx
        if keep:
            chunks.append(tx)
    elapsed = time.perf_counter_ns() - start
    return elapsed, chunks


@pytest.mark.perf
def test_bench_continuous_wgn_is_linear(tx_record):
    core = _continuous_core()

    _, chunks = _stream(core, SHORT, keep=True)
    p = np.random.default_rng((core.tx.wgn_seed, 0)).standard_normal(
        2 * SHORT)
    expected = (p[0::2] + 1j * p[1::2]) / np.sqrt(2.0) * core.tx.amplitude
    identical = np.concatenate(chunks).tobytes() == expected.tobytes()
    assert identical, "continuous WGN differs from its closed form"
    del chunks, p, expected

    short_ns: list[float] = []
    long_ns: list[float] = []
    for _ in range(ROUNDS):  # interleaved so drift hits both lengths
        short_ns.append(_stream(core, SHORT)[0] / SHORT)
        long_ns.append(_stream(core, LONG)[0] / LONG)
    # Paired per-round ratios: both runs of a round are adjacent in
    # time, so background load cancels within each pair.
    ratio = statistics.median(b / a for a, b in zip(short_ns, long_ns))
    short_med = statistics.median(short_ns)
    long_med = statistics.median(long_ns)
    print(f"\nContinuous WGN through CustomDspCore.process: "
          f"{short_med:.1f} ns/sample at 1 M, {long_med:.1f} at 4 M "
          f"(median paired ratio {ratio:.2f})")
    tx_record["continuous_wgn"] = {
        "chunk_size": CHUNK,
        "rounds": ROUNDS,
        "short_samples": SHORT,
        "long_samples": LONG,
        "short_ns_per_sample": short_med,
        "long_ns_per_sample": long_med,
        "long_short_ratio": ratio,
        "max_long_short_ratio": MAX_LONG_SHORT_RATIO,
        "identical_to_closed_form": identical,
    }
    assert ratio < MAX_LONG_SHORT_RATIO, (
        f"4 M samples cost {ratio:.2f}x the ns/sample of 1 M "
        f"(limit {MAX_LONG_SHORT_RATIO})"
    )
