"""Tests for the composite custom DSP core and its register plane."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import StreamError
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import UserRegisterBus, pack_signed_fields
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from tests.planes import iq16


@pytest.fixture
def template(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


def program_template(core: CustomDspCore, template: np.ndarray) -> None:
    ci, cq = quantize_coefficients(template)
    for off, word in enumerate(pack_signed_fields([int(c) for c in ci], 3)):
        core.bus.write(regmap.REG_COEFF_I_BASE + off, word)
    for off, word in enumerate(pack_signed_fields([int(c) for c in cq], 3)):
        core.bus.write(regmap.REG_COEFF_Q_BASE + off, word)


def make_core(template: np.ndarray, threshold: int = 30_000,
              uptime: int = 100, waveform: JamWaveform = JamWaveform.WGN,
              stages: int = regmap.TRIGGER_MODE_BIT * 0) -> CustomDspCore:
    core = CustomDspCore()
    program_template(core, template)
    core.bus.write(regmap.REG_XCORR_THRESHOLD, threshold)
    # Single XCORR stage.
    core.bus.write(regmap.REG_TRIGGER_CONFIG,
                   (1 << regmap.STAGE_ENABLE_SHIFT) | int(TriggerSource.XCORR))
    core.bus.write(regmap.REG_JAM_UPTIME, uptime)
    core.bus.write(regmap.REG_JAM_WAVEFORM, int(waveform))
    core.bus.write(regmap.REG_CONTROL_FLAGS, regmap.FLAG_JAMMER_ENABLE)
    return core


class TestRegisterPlane:
    def test_coefficients_land_in_correlator(self, template):
        core = CustomDspCore()
        program_template(core, template)
        ci, cq = quantize_coefficients(template)
        got_i, got_q = core.correlator.bank_coefficients(0)
        assert np.array_equal(got_i, ci)
        assert np.array_equal(got_q, cq)

    def test_threshold_register(self, template):
        core = CustomDspCore()
        core.bus.write(regmap.REG_XCORR_THRESHOLD, 12345)
        assert core.correlator.thresholds.tolist() == [12345]

    def test_energy_thresholds(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_ENERGY_THRESHOLD_HIGH,
                       regmap.encode_energy_threshold_db(12.5))
        core.bus.write(regmap.REG_ENERGY_THRESHOLD_LOW,
                       regmap.encode_energy_threshold_db(7.0))
        assert core.energy.threshold_high_db == pytest.approx(12.5)
        assert core.energy.threshold_low_db == pytest.approx(7.0)

    def test_trigger_config_stages(self):
        core = CustomDspCore()
        word = ((1 << regmap.STAGE_ENABLE_SHIFT)
                | (1 << (regmap.STAGE_ENABLE_SHIFT + 1))
                | int(TriggerSource.ENERGY_HIGH)
                | (int(TriggerSource.XCORR) << regmap.STAGE_SOURCE_BITS))
        core.bus.write(regmap.REG_TRIGGER_WINDOW, 50)
        core.bus.write(regmap.REG_TRIGGER_CONFIG, word)
        assert [s.source for s in core.fsm.stages] == [
            TriggerSource.ENERGY_HIGH, TriggerSource.XCORR]

    def test_trigger_any_mode_bit(self):
        core = CustomDspCore()
        word = ((1 << regmap.STAGE_ENABLE_SHIFT)
                | (1 << (regmap.STAGE_ENABLE_SHIFT + 1))
                | regmap.TRIGGER_MODE_BIT)
        core.bus.write(regmap.REG_TRIGGER_CONFIG, word)
        assert core.fsm.mode is TriggerMode.ANY

    def test_jammer_settings(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_JAM_DELAY, 77)
        core.bus.write(regmap.REG_JAM_UPTIME, 2500)
        core.bus.write(regmap.REG_REPLAY_LENGTH, 256)
        assert core.tx.delay_samples == 77
        assert core.tx.uptime_samples == 2500
        assert core.tx.replay_length == 256

    def test_control_flags(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_CONTROL_FLAGS,
                       regmap.FLAG_JAMMER_ENABLE | (0xAB << regmap.ANTENNA_SHIFT))
        assert core.jammer_enabled
        assert core.antenna_bits == 0xAB
        core.bus.write(regmap.REG_CONTROL_FLAGS, 0)
        assert not core.jammer_enabled

    def test_registers_used_is_24(self):
        assert regmap.REGISTERS_USED == 24
        assert regmap.REG_REPLAY_LENGTH == 23


class TestDataPath:
    def test_detection_and_jam_pipeline(self, rng, template):
        core = make_core(template)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        out = core.process(iq16(rx))
        xcorr = [d for d in out.detections if d.source is TriggerSource.XCORR]
        assert len(xcorr) == 1
        assert xcorr[0].time == 563
        assert len(out.jams) == 1
        assert out.jams[0].start == 565  # detection + 2 samples (80 ns)
        # TX waveform active only during the burst.
        assert np.all(out.tx[:565] == 0)
        assert np.any(np.abs(out.tx[565:665]) > 0)
        assert np.all(out.tx[665:] == 0)

    def test_chunked_equals_single_shot(self, rng, template):
        rx = awgn(3000, 1e-6, rng)
        rx[700:764] += template
        core_a = make_core(template)
        whole = core_a.process(iq16(rx))
        core_b = make_core(template)
        parts = [core_b.process(iq16(rx[i:i + 251])) for i in range(0, 3000, 251)]
        tx = np.concatenate([p.tx for p in parts])
        assert np.allclose(tx, whole.tx)
        jams = [j for p in parts for j in p.jams]
        assert [(j.start, j.end) for j in jams] == \
            [(j.start, j.end) for j in whole.jams]

    def test_jammer_disabled_produces_no_tx(self, rng, template):
        core = make_core(template)
        core.bus.write(regmap.REG_CONTROL_FLAGS, 0)  # disable
        rx = awgn(1000, 1e-6, rng)
        rx[300:364] += template
        out = core.process(iq16(rx))
        assert len(out.detections) >= 1  # detection still runs
        assert not out.jams
        assert np.all(out.tx == 0)

    def test_disabling_mid_burst_finishes_the_active_burst(self, rng,
                                                          template):
        core = make_core(template)
        rx = awgn(1000, 1e-6, rng)
        rx[500:564] += template
        first = core.process(iq16(rx[:600]))
        assert [(j.start, j.end) for j in first.jams] == [(565, 665)]
        core.bus.write(regmap.REG_CONTROL_FLAGS, 0)  # disable
        rest = core.process(iq16(rx[600:]))
        assert np.all(np.abs(rest.tx[:65]) > 0)
        assert np.all(rest.tx[65:] == 0)

    def test_skip_emits_nothing_for_bursts_ending_in_the_gap(self, rng,
                                                             template):
        rx = awgn(1400, 1e-6, rng)
        rx[500:564] += template
        for uptime, on_air in ((100, 0), (300, 165)):
            core = make_core(template, uptime=uptime)
            core.process(iq16(rx[:600]))
            core.skip(100)  # the burst runs [565, 565 + uptime)
            tx = core.process(iq16(rx[700:])).tx
            assert np.all(np.abs(tx[:on_air]) > 0)
            assert np.all(tx[on_air:] == 0)

    def test_continuous_mode_transmits_always(self, rng, template):
        core = make_core(template)
        core.bus.write(regmap.REG_CONTROL_FLAGS,
                       regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
        rx = awgn(1000, 1e-6, rng)
        out = core.process(iq16(rx))
        assert np.all(np.abs(out.tx) > 0)

    def test_detection_counters(self, rng, template):
        core = make_core(template)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        rx[1500:1564] += template
        core.process(iq16(rx))
        assert core.detection_counts[TriggerSource.XCORR] == 2
        assert core.jam_count == 2

    def test_clock_advances(self, rng, template):
        core = make_core(template)
        core.process(iq16(awgn(123, 1.0, rng)))
        core.process(iq16(awgn(77, 1.0, rng)))
        assert core.clock == 200

    def test_reset_restores_cold_state(self, rng, template):
        core = make_core(template)
        core.process(iq16(awgn(500, 1e-6, rng)))
        core.reset()
        assert core.clock == 0
        assert core.jam_count == 0
        assert core.detection_counts[TriggerSource.XCORR] == 0

    @pytest.mark.parametrize("chunk", [
        np.zeros(16, dtype=np.complex128),        # complex baseband
        np.zeros((16, 2), dtype=np.float64),      # float pairs
        np.zeros((16, 2), dtype=np.int32),        # wrong word width
        np.zeros((16, 3), dtype=np.int16),        # not I/Q pairs
        np.zeros(32, dtype=np.int16),             # flat words
        np.zeros((2, 16, 2), dtype=np.int16),     # a batch of planes
    ])
    def test_rejects_anything_but_an_iq16_plane(self, template, chunk):
        core = make_core(template)
        with pytest.raises(StreamError):
            core.process(chunk)
        assert core.clock == 0

    def test_empty_chunk(self, template):
        core = make_core(template)
        out = core.process(iq16(np.zeros(0, dtype=complex)))
        assert out.tx.size == 0

    def test_nan_samples_saturate_like_zeros(self, rng, template):
        # NaN has no ADC level: the IQ16 quantizer maps it to 0, so a
        # chunk with NaN samples must behave exactly like the same
        # chunk with zeros there — no spurious energy edges, no numpy
        # cast warning.
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        holed = rx.copy()
        holed[960:1040] = np.nan
        holed[1500] = complex(np.nan, 0.25)
        zeroed = rx.copy()
        zeroed[960:1040] = 0
        zeroed[1500] = 0.25j
        outputs = []
        for signal in (holed, zeroed):
            core = make_core(template)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                outputs.append([core.process(iq16(signal[i:i + 1000]))
                                for i in (0, 1000)])
        for got, want in zip(*outputs):
            assert got.detections == want.detections
            assert got.jams == want.jams
            np.testing.assert_array_equal(got.tx, want.tx)

    def test_replay_waveform_echoes_preamble(self, rng, template):
        core = make_core(template, waveform=JamWaveform.REPLAY, uptime=64)
        core.bus.write(regmap.REG_REPLAY_LENGTH, 64)
        rx = awgn(1000, 1e-9, rng)
        rx[300:364] += template * 0.5
        out = core.process(iq16(rx))
        assert len(out.jams) == 1
        burst = out.tx[out.jams[0].start:out.jams[0].end]
        # The replayed burst must correlate strongly with the preamble
        # it captured (quantization makes it inexact).
        captured = burst[:64]
        rho = np.abs(np.vdot(captured, template)) / (
            np.linalg.norm(captured) * np.linalg.norm(template))
        assert rho > 0.9
