"""Tests for jammer configuration profiles (save/restore)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.coeffs import wifi_short_preamble_template
from repro.core.profiles import (
    apply_profile,
    load_profile,
    save_profile,
    snapshot_profile,
)
from repro.errors import ConfigurationError
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210


@pytest.fixture
def configured_device() -> UsrpN210:
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_template(wifi_short_preamble_template())
    driver.set_xcorr_threshold(23_456)
    driver.set_energy_thresholds(12.0, 8.0)
    driver.set_trigger_stages([TriggerSource.XCORR,
                               TriggerSource.ENERGY_HIGH],
                              mode=TriggerMode.ANY)
    driver.set_jam_waveform(JamWaveform.REPLAY, wgn_seed=777)
    driver.set_jam_uptime(2500)
    driver.set_jam_delay(100)
    driver.set_replay_length(256)
    driver.set_control(True, False, antenna_bits=0x03)
    device.frontend.tune(2.608e9)
    return device


class TestSnapshotRestore:
    def test_snapshot_contains_everything(self, configured_device):
        profile = snapshot_profile(configured_device, name="test")
        assert profile["name"] == "test"
        assert profile["detection"]["xcorr_threshold"] == 23_456
        assert profile["trigger"]["mode"] == "ANY"
        assert profile["response"]["waveform"] == "REPLAY"
        assert profile["frontend"]["center_freq_hz"] == pytest.approx(2.608e9)

    def test_roundtrip_onto_fresh_device(self, configured_device):
        profile = snapshot_profile(configured_device)
        fresh = UsrpN210()
        apply_profile(fresh, profile)
        assert snapshot_profile(fresh) == snapshot_profile(configured_device)

    def test_restored_device_behaves_identically(self, configured_device,
                                                 rng):
        from repro.channel.awgn import awgn
        from repro.dsp.resample import resample
        from repro.phy.wifi.preamble import short_preamble

        profile = snapshot_profile(configured_device)
        fresh = UsrpN210()
        apply_profile(fresh, profile)
        stf = resample(short_preamble(), 20e6, 25e6)
        rx = awgn(3000, 1e-8, rng)
        rx[500:500 + stf.size] += 0.3 * stf
        out_a = configured_device.run(rx)
        out_b = fresh.run(rx)
        assert np.allclose(out_a.tx, out_b.tx)
        assert [(j.start, j.end) for j in out_a.jams] == \
            [(j.start, j.end) for j in out_b.jams]

    def test_profile_is_json_serializable(self, configured_device):
        profile = snapshot_profile(configured_device)
        json.dumps(profile)  # must not raise


class TestFiles:
    def test_save_and_load(self, configured_device, tmp_path):
        path = tmp_path / "jammer.json"
        save_profile(configured_device, path)
        fresh = UsrpN210()
        writes = load_profile(fresh, path)
        assert writes > 15  # coefficients + all settings
        assert snapshot_profile(fresh)["detection"]["xcorr_threshold"] == 23_456

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), "/nonexistent/profile.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), path)

    def test_malformed_profile(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"version": 1, "name": "x"}))
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), path)

    def test_wrong_version(self, configured_device):
        profile = snapshot_profile(configured_device)
        profile["version"] = 99
        with pytest.raises(ConfigurationError):
            apply_profile(UsrpN210(), profile)


class TestConsoleIntegration:
    def test_console_save_load(self, tmp_path):
        from repro.tools.console import JammerConsole

        console = JammerConsole()
        console.execute("template wimax")
        console.execute("threshold 11950")
        console.execute("trigger xcorr")
        path = tmp_path / "wimax.json"
        assert "saved" in console.execute(f"save {path}")

        other = JammerConsole()
        assert "loaded" in other.execute(f"load {path}")
        assert other.device.core.correlator.thresholds[0] == 11950

    def test_console_load_error_reported(self):
        from repro.tools.console import JammerConsole

        console = JammerConsole()
        assert "error" in console.execute("load /no/such/file.json")
