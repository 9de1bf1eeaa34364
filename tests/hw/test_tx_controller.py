"""Tests for the jamming transmit controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.dsp.fixed_point import IQ16, iq16_to_complex
from repro.errors import ConfigurationError, StreamError
from repro.hw.tx_controller import (
    INIT_LATENCY_CLOCKS,
    INIT_LATENCY_SAMPLES,
    MAX_REPLAY_LENGTH,
    MAX_UPTIME_SAMPLES,
    JamEvent,
    JamWaveform,
    TransmitController,
)


class TestLatencyConstants:
    def test_init_latency_is_eight_clocks(self):
        # Paper: 1 cycle to initiate + ~7 to fill the DUC = 80 ns.
        assert INIT_LATENCY_CLOCKS == 8
        assert units.clocks_to_seconds(INIT_LATENCY_CLOCKS) == pytest.approx(80e-9)

    def test_init_latency_in_samples(self):
        assert INIT_LATENCY_SAMPLES == 2


class TestConfiguration:
    def test_uptime_range(self):
        tx = TransmitController()
        tx.uptime_samples = 1
        tx.uptime_samples = MAX_UPTIME_SAMPLES
        with pytest.raises(ConfigurationError):
            tx.uptime_samples = 0
        with pytest.raises(ConfigurationError):
            tx.uptime_samples = MAX_UPTIME_SAMPLES + 1

    def test_uptime_covers_paper_range(self):
        # 1 sample = 40 ns up to ~40 s.
        assert units.samples_to_seconds(1) == pytest.approx(40e-9)
        assert units.samples_to_seconds(MAX_UPTIME_SAMPLES) > 40.0

    def test_replay_length_range(self):
        tx = TransmitController()
        tx.replay_length = 1
        tx.replay_length = MAX_REPLAY_LENGTH
        with pytest.raises(ConfigurationError):
            tx.replay_length = 0
        with pytest.raises(ConfigurationError):
            tx.replay_length = MAX_REPLAY_LENGTH + 1

    def test_amplitude_range(self):
        tx = TransmitController()
        with pytest.raises(ConfigurationError):
            tx.amplitude = 0.0
        with pytest.raises(ConfigurationError):
            tx.amplitude = 1.5

    def test_delay_validation(self):
        tx = TransmitController()
        with pytest.raises(ConfigurationError):
            tx.delay_samples = -1

    def test_host_waveform_validation(self):
        tx = TransmitController()
        with pytest.raises(StreamError):
            tx.set_host_waveform(np.zeros(0, dtype=complex))


class TestScheduling:
    def test_burst_timing(self):
        tx = TransmitController(uptime_samples=100, delay_samples=0)
        intervals = tx.schedule([1000])
        assert len(intervals) == 1
        iv = intervals[0]
        assert iv.start == 1000 + INIT_LATENCY_SAMPLES
        assert iv.end == iv.start + 100

    def test_delay_shifts_burst(self):
        tx = TransmitController(uptime_samples=100, delay_samples=50)
        iv = tx.schedule([1000])[0]
        assert iv.start == 1000 + INIT_LATENCY_SAMPLES + 50

    def test_triggers_during_burst_ignored(self):
        tx = TransmitController(uptime_samples=100)
        intervals = tx.schedule([1000, 1010, 1050])
        assert len(intervals) == 1

    def test_trigger_after_burst_accepted(self):
        tx = TransmitController(uptime_samples=100)
        intervals = tx.schedule([1000, 1200])
        assert len(intervals) == 2

    def test_trigger_exactly_at_busy_end(self):
        tx = TransmitController(uptime_samples=100, delay_samples=0)
        first = tx.schedule([1000])[0]
        assert tx.schedule([first.end]) != []

    def test_bursts_are_the_core_jam_events(self):
        from repro import hw
        from repro.hw import dsp_core

        assert hw.JamEvent is dsp_core.JamEvent is JamEvent


class TestWgnSynthesis:
    def test_unit_power(self):
        tx = TransmitController(uptime_samples=50_000)
        iv = tx.schedule([0])[0]
        wave = tx.synthesize(0, 60_000)[iv.start:iv.end]
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_chunk_invariance(self):
        whole_tx = TransmitController(uptime_samples=1000)
        whole_tx.schedule([100])
        whole = whole_tx.synthesize(0, 2000)
        tx = TransmitController(uptime_samples=1000)
        tx.schedule([100])
        combined = np.concatenate([
            tx.synthesize(start, min(137, 2000 - start))
            for start in range(0, 2000, 137)
        ])
        assert np.array_equal(combined, whole)
        active = np.zeros(2000, dtype=bool)
        active[102:1102] = True
        assert np.array_equal(whole != 0, active)

    def test_different_bursts_use_different_noise(self):
        tx = TransmitController(uptime_samples=100)
        iv1 = tx.schedule([0])[0]
        iv2 = tx.schedule([500])[0]
        wave = tx.synthesize(0, 1000)
        assert not np.allclose(wave[iv1.start:iv1.end],
                               wave[iv2.start:iv2.end])

    def test_amplitude_scales_waveform(self):
        tx = TransmitController(uptime_samples=10_000)
        tx.amplitude = 0.5
        iv = tx.schedule([0])[0]
        wave = tx.synthesize(0, 10_002)[iv.start:iv.end]
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(0.25, rel=0.05)

    def test_no_overlap_returns_empty(self):
        tx = TransmitController(uptime_samples=10)
        iv = tx.schedule([100])[0]
        before = tx.synthesize(0, 100)
        assert before.size == 100 and not before.any()
        # The burst was not retired by a chunk that ends before it.
        assert np.count_nonzero(tx.synthesize(100, 100)) == iv.end - iv.start


def _plane(rng, n: int) -> np.ndarray:
    """A random received IQ16 plane of ``n`` samples."""
    return rng.integers(IQ16.min_int, IQ16.max_int + 1, size=(n, 2),
                        dtype=np.int16)


class TestReplay:
    def test_replays_captured_samples(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=64, replay_length=32)
        captured = _plane(rng, 32)
        tx.observe_rx(captured)
        iv = tx.schedule([100])[0]
        wave = tx.synthesize(0, 300)[iv.start:iv.end]
        # 64 samples of cyclic replay of the 32 captured samples.
        assert np.array_equal(wave[:32], iq16_to_complex(captured))
        assert np.array_equal(wave[32:64], iq16_to_complex(captured))

    def test_capture_depth_limited(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=16, replay_length=16)
        history = _plane(rng, 100)
        tx.observe_rx(history)
        iv = tx.schedule([200])[0]
        wave = tx.synthesize(0, 300)[iv.start:iv.end]
        assert np.array_equal(wave, iq16_to_complex(history[-16:]))

    def test_snapshot_frozen_at_trigger(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=8, replay_length=8)
        first = _plane(rng, 8)
        tx.observe_rx(first)
        iv = tx.schedule([50])[0]
        tx.observe_rx(_plane(rng, 8))  # arrives after trigger
        wave = tx.synthesize(0, 100)[iv.start:iv.end]
        assert np.array_equal(wave, iq16_to_complex(first))

    def test_synthesize_drops_finished_burst(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY, uptime_samples=8)
        tx.observe_rx(_plane(rng, 8))
        iv = tx.schedule([10])[0]
        tx.synthesize(0, iv.end - 1)
        assert [burst for burst, _source in tx._active] == [iv]
        tx.synthesize(iv.end - 1, 1)
        assert tx._active == []

    def test_snapshot_slices_chunk_up_to_trigger(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=6, replay_length=6)
        history = _plane(rng, 4)
        chunk = _plane(rng, 10)
        tx.observe_rx(history)
        # Trigger at absolute 102 = local sample 2 of a chunk at 100:
        # the snapshot is the last 6 of [history | chunk[:3]].
        iv = tx.schedule([102], chunk, 100)[0]
        tx.observe_rx(chunk)
        wave = tx.synthesize(100, 20)[iv.start - 100:iv.end - 100]
        assert np.array_equal(
            wave, iq16_to_complex(np.concatenate([history[-3:], chunk[:3]])))

    def test_bursts_in_one_chunk_snapshot_their_own_triggers(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=4, replay_length=5)
        chunk = _plane(rng, 40)
        first, second = tx.schedule([10, 30], chunk, 0)
        wave = tx.synthesize(0, 40)
        samples = iq16_to_complex(chunk)
        assert np.array_equal(wave[first.start:first.end], samples[6:10])
        assert np.array_equal(wave[second.start:second.end], samples[26:30])

    def test_nothing_received_replays_silence(self):
        tx = TransmitController(waveform=JamWaveform.REPLAY, uptime_samples=4)
        tx.schedule([0], np.zeros((0, 2), dtype=np.int16), 0)
        assert not tx.synthesize(0, 10).any()


class TestDutyGuard:
    def test_veto_frees_pipeline_for_later_trigger(self):
        tx = TransmitController(uptime_samples=100)
        calls = []

        def admit(start, end):
            calls.append((start, end))
            return len(calls) > 1  # veto only the first burst

        bursts = tx.schedule([0, 10], admit=admit)
        assert calls == [(2, 102), (12, 112)]
        assert [burst.trigger_time for burst in bursts] == [10]

    def test_vetoed_burst_is_never_rendered(self):
        tx = TransmitController(uptime_samples=10)
        assert tx.schedule([0], admit=lambda _s, _e: False) == []
        assert not tx.synthesize(0, 20).any()


class TestHostStream:
    def test_cycles_host_buffer(self):
        tx = TransmitController(waveform=JamWaveform.HOST_STREAM,
                                uptime_samples=10)
        host = np.array([1, 2, 3, 4], dtype=complex)
        tx.set_host_waveform(host)
        iv = tx.schedule([0])[0]
        wave = tx.synthesize(0, 20)
        expected = np.array([1, 2, 3, 4, 1, 2, 3, 4, 1, 2], dtype=complex)
        assert np.allclose(wave[iv.start:iv.end], expected)
        assert not wave[iv.end:].any()

    def test_missing_host_buffer_radiates_silence(self):
        # An un-filled hardware FIFO transmits zeros; it must never
        # crash the data path (found by register fuzzing).
        tx = TransmitController(waveform=JamWaveform.HOST_STREAM,
                                uptime_samples=4)
        tx.schedule([0])
        wave = tx.synthesize(0, 10)
        assert wave.size == 10
        assert not wave.any()


class TestContinuousAndMute:
    def test_continuous_burst_replaces_scheduled_ones(self):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=50)
        tx.observe_rx(np.ones((8, 2), dtype=np.int16))
        tx.schedule([0])
        continuous = JamEvent(trigger_time=0, start=0, end=30,
                              waveform=JamWaveform.WGN)
        wave = tx.synthesize(0, 40, continuous=continuous)
        # The REPLAY burst on [2, 52) is reported but not rendered.
        assert np.array_equal(wave != 0, np.arange(40) < 30)

    def test_mute_renders_nothing_but_still_retires(self):
        tx = TransmitController(uptime_samples=10)
        tx.schedule([0])
        assert not tx.synthesize(0, 20, mute=True).any()
        assert tx._active == []

    def test_retire_drops_bursts_ending_in_a_gap(self):
        tx = TransmitController(uptime_samples=10)
        tx.schedule([0])
        long = tx.schedule([20])[0]
        tx.retire(15)
        assert [burst for burst, _source in tx._active] == [long]


class TestReset:
    def test_reset_aborts_busy_state(self):
        tx = TransmitController(uptime_samples=1000)
        tx.schedule([100])
        tx.reset()
        assert tx.schedule([150]) != []
