"""WGN synthesis is linear in time on air and matches its definition.

Each WGN burst, and the continuous-mode span, draws from one generator
seeded from ``(wgn_seed, burst start)``.  The controller carries that
generator across chunks, so rendering a burst of any length over any
chunking draws every normal exactly once.  The linearity tests count
the normals drawn through a wrapper around ``np.random.default_rng``
(counts, never wall time, so they are deterministic on a loaded host);
the oracle tests pin the rendered bytes to the waveform's closed form
computed from a fresh generator.  The long-gap test bounds the memory
that discarding a skipped span costs.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.hw import register_map as regmap
from repro.hw.dsp_core import CustomDspCore
from repro.hw.tx_controller import TransmitController
from repro.hw.watchdog import TRIP_DUTY_CYCLE, Watchdog, WatchdogConfig

BURST = 2 ** 20


class _CountingGenerator:
    """Forwards ``standard_normal`` to a generator and counts the draws."""

    def __init__(self, rng: np.random.Generator, key, ledger) -> None:
        self._rng = rng
        self._key = key
        self._ledger = ledger

    def standard_normal(self, size):
        self._ledger.drawn[self._key] += size
        return self._rng.standard_normal(size)


class _Ledger:
    """Generators built and normals drawn, per seed."""

    def __init__(self) -> None:
        self.seeded: Counter = Counter()
        self.drawn: Counter = Counter()


@pytest.fixture
def ledger(monkeypatch) -> _Ledger:
    real = np.random.default_rng
    book = _Ledger()

    def counting(seed=None):
        key = tuple(seed) if isinstance(seed, tuple) else seed
        book.seeded[key] += 1
        return _CountingGenerator(real(seed), key, book)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return book


def _split(total: int, cuts: int, seed: int) -> list[int]:
    """Sorted random chunk boundaries strictly inside ``(0, total)``.

    Built without ``default_rng``, which the counting tests wrap.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    inner = rng.choice(np.arange(1, total), size=cuts, replace=False)
    return [0, *sorted(int(c) for c in inner), total]


def _closed_form(seed: int, start: int, n: int,
                 amplitude: float) -> np.ndarray:
    """The WGN definition: ``n`` samples of a fresh ``(seed, start)`` stream."""
    rng = np.random.default_rng((seed, start))
    p = rng.standard_normal(2 * n)
    return (p[0::2] + 1j * p[1::2]) / np.sqrt(2.0) * amplitude


def _continuous_core(watchdog: Watchdog | None = None,
                     amplitude: float = 1.0) -> CustomDspCore:
    core = CustomDspCore(watchdog=watchdog)
    core.tx.amplitude = amplitude
    core.bus.write(regmap.REG_CONTROL_FLAGS,
                   regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
    return core


def _run_continuous(core: CustomDspCore, bounds: list[int],
                    gap: tuple[int, int] | None = None) -> np.ndarray:
    """Stream silence through ``core`` chunk by chunk; skip ``gap``.

    Returns the transmit output on the absolute timeline, with the
    skipped span left at zero.
    """
    tx = np.zeros(bounds[-1], dtype=np.complex128)
    for lo, hi in zip(bounds, bounds[1:]):
        if gap is not None and lo == gap[0]:
            core.skip(hi - lo)
            continue
        tx[lo:hi] = core.process(np.zeros((hi - lo, 2), dtype=np.int16)).tx
    return tx


class TestLinearDraws:
    @pytest.mark.parametrize("chunk", [4096, 3001])
    def test_long_burst_draws_each_normal_once(self, ledger, chunk):
        tx = TransmitController(uptime_samples=BURST)
        burst = tx.schedule([0])[0]
        for lo in range(0, burst.end, chunk):
            tx.synthesize(lo, chunk)
        key = (tx.wgn_seed, burst.start)
        assert ledger.seeded[key] == 1
        assert ledger.drawn[key] == 2 * BURST

    def test_muted_chunk_discards_only_its_span(self, ledger):
        tx = TransmitController(uptime_samples=20_000)
        burst = tx.schedule([0])[0]
        for index, lo in enumerate(range(0, burst.end, 3001)):
            tx.synthesize(lo, 3001, mute=index == 3)
        key = (tx.wgn_seed, burst.start)
        assert ledger.seeded[key] == 1
        assert ledger.drawn[key] == 2 * 20_000

    @pytest.mark.parametrize("split_seed", [1, 2, 3])
    def test_continuous_span_with_gap_and_throttle(self, ledger, split_seed):
        total = 60_000
        bounds = _split(total, 24, split_seed)
        gap = (bounds[8], bounds[9])
        # The continuous span uses up the budget well inside the trace,
        # so later chunks are throttled.
        watchdog = Watchdog(WatchdogConfig(max_duty_cycle=0.6,
                                           duty_window_samples=20_000))
        core = _continuous_core(watchdog)
        out = _run_continuous(core, bounds, gap)
        assert watchdog.trips_by_reason(TRIP_DUTY_CYCLE)
        assert not out[gap[0]:gap[1]].any()
        rendered = np.flatnonzero(out)
        # The continuous span starts at sample 0, so the stream's last
        # rendered offset + count is one past the last nonzero sample.
        key = (core.tx.wgn_seed, 0)
        assert ledger.seeded[key] == 1
        assert ledger.drawn[key] == 2 * (int(rendered[-1]) + 1)
        assert rendered.size < total - (gap[1] - gap[0])  # throttled

    def test_reset_rewinds_the_stream(self, ledger):
        tx = TransmitController(uptime_samples=10_000)
        burst = tx.schedule([0])[0]
        tx.synthesize(0, 4000)
        tx.reset()
        tx.schedule([0])
        tx.synthesize(0, 3000)
        key = (tx.wgn_seed, burst.start)
        assert ledger.seeded[key] == 2
        assert ledger.drawn[key] == 2 * (3998 + 2998)

    def test_seed_change_rewinds_the_stream(self, ledger):
        tx = TransmitController(uptime_samples=10_000)
        burst = tx.schedule([0])[0]
        first = tx.wgn_seed
        tx.synthesize(0, 4000)
        tx.wgn_seed = first + 1
        tx.synthesize(4000, 2000)
        tx.wgn_seed = first
        tx.synthesize(6000, 2000)
        assert ledger.seeded[(first, burst.start)] == 2
        assert ledger.drawn[(first, burst.start)] == 2 * (3998 + 7998)
        assert ledger.seeded[(first + 1, burst.start)] == 1
        assert ledger.drawn[(first + 1, burst.start)] == 2 * 5998


class TestClosedFormOracle:
    @pytest.mark.parametrize("amplitude", [1.0, 0.7, 0.3333])
    @pytest.mark.parametrize("chunking", ["whole", 4096, 3001, "random"])
    def test_bursts_match_definition(self, amplitude, chunking):
        total = 40_000
        tx = TransmitController(uptime_samples=7_000, delay_samples=13,
                                amplitude=amplitude)
        bursts = tx.schedule([100, 9_000, 21_000, 32_990])
        if chunking == "whole":
            bounds = [0, total]
        elif chunking == "random":
            bounds = _split(total, 30, 7)
        else:
            bounds = [*range(0, total, chunking), total]
        out = np.concatenate([tx.synthesize(lo, hi - lo)
                              for lo, hi in zip(bounds, bounds[1:])])
        expected = np.zeros(total, dtype=np.complex128)
        for burst in bursts:
            n = min(burst.end, total) - burst.start
            expected[burst.start:burst.start + n] = _closed_form(
                tx.wgn_seed, burst.start, n, amplitude)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("amplitude", [1.0, 0.7, 0.3333])
    @pytest.mark.parametrize("split_seed", [None, 4, 5])
    def test_continuous_span_matches_definition(self, amplitude, split_seed):
        total = 50_000
        bounds = [0, total] if split_seed is None \
            else _split(total, 20, split_seed)
        gap = None if split_seed is None else (bounds[5], bounds[6])
        core = _continuous_core(amplitude=amplitude)
        out = _run_continuous(core, bounds, gap)
        expected = _closed_form(core.tx.wgn_seed, 0, total, amplitude)
        if gap is not None:
            expected[gap[0]:gap[1]] = 0
        assert out.tobytes() == expected.tobytes()


class TestLongGap:
    def test_skip_discards_the_gap_in_bounded_memory(self):
        # A skip() of 2^22 samples (0.17 s) inside the continuous span:
        # the next chunk discards the gap's 2^23 normals before drawing
        # its own, and must not hold them all at once.
        chunk, gap = 4096, 1 << 22
        core = _continuous_core()
        silence = np.zeros((chunk, 2), dtype=np.int16)
        core.process(silence)
        core.skip(gap)
        tracemalloc.start()
        try:
            tx = core.process(silence).tx
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The closed form, with the gap drawn and discarded in one call.
        rng = np.random.default_rng((core.tx.wgn_seed, 0))
        rng.standard_normal(2 * (chunk + gap))
        p = rng.standard_normal(2 * chunk)
        expected = (p[0::2] + 1j * p[1::2]) / np.sqrt(2.0) * core.tx.amplitude
        assert tx.tobytes() == expected.tobytes()
        assert peak < 4 << 20, f"gap discard peaked at {peak / 2**20:.1f} MB"
