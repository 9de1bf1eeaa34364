"""Tests for the USRP N210 device model and the UHD-like driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import ConfigurationError, HardwareError
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import (
    SBX_FREQ_MAX_HZ,
    SBX_FREQ_MIN_HZ,
    SbxFrontend,
    UsrpN210,
)


@pytest.fixture
def template(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


@pytest.fixture
def rig(template):
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_template(template)
    driver.set_xcorr_threshold(30_000)
    driver.set_trigger_stages([TriggerSource.XCORR])
    driver.set_jam_waveform(JamWaveform.WGN)
    driver.set_jam_uptime(100)
    driver.set_control(jammer_enabled=True)
    return device, driver


class TestSbxFrontend:
    def test_defaults_to_wifi_channel_14(self):
        fe = SbxFrontend()
        assert fe.center_freq_hz == pytest.approx(2.484e9)

    def test_tune_range(self):
        fe = SbxFrontend()
        fe.tune(2.608e9)  # the WiMAX experiment frequency
        assert fe.center_freq_hz == pytest.approx(2.608e9)
        with pytest.raises(HardwareError):
            fe.tune(SBX_FREQ_MIN_HZ - 1)
        with pytest.raises(HardwareError):
            fe.tune(SBX_FREQ_MAX_HZ + 1)

    def test_gain_limits(self):
        fe = SbxFrontend()
        fe.set_tx_gain(31.5)
        fe.set_rx_gain(0.0)
        with pytest.raises(HardwareError):
            fe.set_tx_gain(32.0)
        with pytest.raises(HardwareError):
            fe.set_rx_gain(-1.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(HardwareError):
            SbxFrontend(center_freq_hz=100e6)


class TestUsrpDevice:
    def test_full_duplex_detect_and_jam(self, rng, rig, template):
        device, _driver = rig
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        out = device.run(rx)
        assert len(out.jams) == 1
        assert np.any(np.abs(out.tx) > 0)

    def test_chunk_size_invariance(self, rng, template):
        rx = awgn(5000, 1e-6, rng)
        rx[1000:1064] += template

        def build():
            device = UsrpN210()
            driver = UhdDriver(device)
            driver.set_correlator_template(template)
            driver.set_xcorr_threshold(30_000)
            driver.set_trigger_stages([TriggerSource.XCORR])
            driver.set_jam_uptime(100)
            driver.set_control(True)
            return device

        a = build().run(rx, chunk_size=100)
        b = build().run(rx, chunk_size=4096)
        assert np.allclose(a.tx, b.tx)

    def test_tx_digital_gain(self, rng, rig, template):
        device, _ = rig
        device.set_tx_amplitude_db(-20.0)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        out = device.run(rx)
        burst = out.tx[np.abs(out.tx) > 0]
        assert np.mean(np.abs(burst) ** 2) == pytest.approx(0.01, rel=0.2)

    def test_bad_chunk_size(self, rig):
        device, _ = rig
        with pytest.raises(ConfigurationError):
            device.run(np.zeros(10, dtype=complex), chunk_size=0)


class TestUhdDriver:
    def test_template_ships_over_register_bus(self, rig, template):
        device, driver = rig
        ci, cq = quantize_coefficients(template)
        got_i, got_q = device.core.correlator.bank_coefficients(0)
        assert np.array_equal(got_i, ci)
        assert np.array_equal(got_q, cq)

    def test_register_write_accounting(self, rig):
        _device, driver = rig
        # 14 coefficient words + threshold + trigger + waveform +
        # uptime + control = 19 writes at minimum.
        assert driver.register_writes() >= 19

    def test_energy_thresholds(self, rig):
        device, driver = rig
        driver.set_energy_thresholds(15.0, 5.0)
        assert device.core.energy.threshold_high_db == pytest.approx(15.0)
        assert device.core.energy.threshold_low_db == pytest.approx(5.0)

    def test_jam_uptime_seconds(self, rig):
        device, driver = rig
        driver.set_jam_uptime_seconds(1e-4)
        assert device.core.tx.uptime_samples == 2500

    def test_jam_delay_seconds(self, rig):
        device, driver = rig
        driver.set_jam_delay_seconds(4e-6)
        assert device.core.tx.delay_samples == 100

    def test_uptime_bounds(self, rig):
        _device, driver = rig
        with pytest.raises(ConfigurationError):
            driver.set_jam_uptime(0)

    def test_uptime_saturates_at_the_hardware_maximum(self, rig):
        from repro.hw.tx_controller import MAX_UPTIME_SAMPLES

        device, driver = rig
        # Oversized requests clip (the register map's "clipped to
        # 2^32 - 1 by the bus width" contract) instead of raising.
        driver.set_jam_uptime(regmap.JAM_UPTIME_MAX + 12345)
        assert device.core.tx.uptime_samples == MAX_UPTIME_SAMPLES
        assert device.bus.read(regmap.REG_JAM_UPTIME) == MAX_UPTIME_SAMPLES

    def test_uptime_at_exact_maximum(self, rig):
        from repro.hw.tx_controller import MAX_UPTIME_SAMPLES

        device, driver = rig
        driver.set_jam_uptime(MAX_UPTIME_SAMPLES)
        assert device.core.tx.uptime_samples == MAX_UPTIME_SAMPLES

    def test_trigger_stage_count_validation(self, rig):
        _device, driver = rig
        with pytest.raises(ConfigurationError):
            driver.set_trigger_stages([])
        with pytest.raises(ConfigurationError):
            driver.set_trigger_stages([TriggerSource.XCORR] * 4)

    def test_multi_stage_needs_window_in_sequence_mode(self, rig):
        _device, driver = rig
        with pytest.raises(ConfigurationError):
            driver.set_trigger_stages(
                [TriggerSource.ENERGY_HIGH, TriggerSource.XCORR])

    def test_any_mode_without_window(self, rig):
        device, driver = rig
        driver.set_trigger_stages(
            [TriggerSource.ENERGY_HIGH, TriggerSource.XCORR],
            mode=TriggerMode.ANY)
        assert device.core.fsm.mode is TriggerMode.ANY

    def test_antenna_bits(self, rig):
        device, driver = rig
        driver.set_control(True, False, antenna_bits=0x3C)
        assert device.core.antenna_bits == 0x3C
        with pytest.raises(ConfigurationError):
            driver.set_control(True, False, antenna_bits=0x100)

    def test_feedback_counters(self, rng, rig, template):
        device, driver = rig
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        device.run(rx)
        assert driver.detection_counts()[TriggerSource.XCORR] == 1
        assert driver.jam_count() == 1

    def test_personality_swap_without_reprogramming(self, rng, rig, template):
        # Paper §4.3: all jammer types realized at runtime on one
        # hardware instantiation via register writes only.
        device, driver = rig
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        out1 = device.run(rx)
        assert len(out1.jams) == 1
        device.core.reset()
        driver.set_control(jammer_enabled=True, continuous=True)
        out2 = device.run(rx)
        assert np.all(np.abs(out2.tx) > 0)  # now continuous
        device.core.reset()
        driver.set_control(jammer_enabled=True, continuous=False)
        driver.set_jam_uptime(250)
        out3 = device.run(rx)
        assert len(out3.jams) == 1
        assert out3.jams[0].end - out3.jams[0].start == 250


class TestControlPlaneRegressions:
    """Register-programming bugs fixed alongside the hardening work."""

    def test_reprogram_to_single_stage_clears_stale_window(self, rig):
        device, driver = rig
        driver.set_trigger_stages(
            [TriggerSource.ENERGY_HIGH, TriggerSource.XCORR],
            window_samples=500)
        assert device.bus.read(regmap.REG_TRIGGER_WINDOW) == 500
        # Dropping back to one stage with the default window=0 must
        # clear the hardware register, not leave 500 behind.
        driver.set_trigger_stages([TriggerSource.XCORR])
        assert device.bus.read(regmap.REG_TRIGGER_WINDOW) == 0
        assert device.core.fsm.window_samples == 0

    def test_replay_length_bounds_rejected(self, rig):
        _device, driver = rig
        with pytest.raises(ConfigurationError):
            driver.set_replay_length(0)
        with pytest.raises(ConfigurationError):
            driver.set_replay_length(513)
        driver.set_replay_length(512)  # the exact maximum is legal

    def test_oversized_wgn_seed_rejected_not_masked(self, rig):
        device, driver = rig
        with pytest.raises(ConfigurationError):
            driver.set_jam_waveform(JamWaveform.WGN, wgn_seed=1 << 30)
        # The register was not touched by the rejected call.
        before = device.bus.read(regmap.REG_JAM_WAVEFORM)
        driver.set_jam_waveform(JamWaveform.WGN, wgn_seed=(1 << 30) - 1)
        after = device.bus.read(regmap.REG_JAM_WAVEFORM)
        assert after >> regmap.WGN_SEED_SHIFT == (1 << 30) - 1
        assert before != after
