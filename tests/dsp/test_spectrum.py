"""Tests for spectral measurements and the framework's RF claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.dsp.spectrum import (
    band_power,
    occupied_bandwidth,
    spectral_flatness_db,
    welch_psd,
)
from repro.errors import ConfigurationError, StreamError


class TestWelchPsd:
    def test_tone_peaks_at_its_frequency(self, rng):
        rate = 25e6
        tone = np.exp(2j * np.pi * 3e6 * np.arange(8192) / rate)
        freqs, psd = welch_psd(tone, rate)
        assert freqs[np.argmax(psd)] == pytest.approx(3e6, abs=rate / 256)

    def test_parseval_total_power(self, rng):
        rate = 25e6
        noise = (rng.standard_normal(16384)
                 + 1j * rng.standard_normal(16384)) / np.sqrt(2)
        freqs, psd = welch_psd(noise, rate)
        bin_width = rate / psd.size
        assert float(np.sum(psd) * bin_width) == pytest.approx(1.0, rel=0.1)

    def test_validation(self, rng):
        with pytest.raises(StreamError):
            welch_psd(np.ones(10, dtype=complex), 25e6, segment=256)
        with pytest.raises(ConfigurationError):
            welch_psd(np.ones(1000, dtype=complex), -1.0)


class TestOccupiedBandwidth:
    def test_white_noise_fills_the_band(self, rng):
        rate = 25e6
        noise = (rng.standard_normal(32768)
                 + 1j * rng.standard_normal(32768)) / np.sqrt(2)
        bw = occupied_bandwidth(noise, rate, fraction=0.99)
        assert bw > 0.9 * rate

    def test_narrow_tone_is_narrow(self):
        rate = 25e6
        tone = np.exp(2j * np.pi * 1e6 * np.arange(32768) / rate)
        bw = occupied_bandwidth(tone, rate, fraction=0.99)
        assert bw < 0.05 * rate

    def test_fraction_validated(self, rng):
        with pytest.raises(ConfigurationError):
            occupied_bandwidth(np.ones(1000, dtype=complex), 25e6,
                               fraction=1.5)


class TestFrameworkRfClaims:
    def test_wgn_jam_covers_25mhz(self, rng):
        # Paper §2.4: "a pseudorandom 25 MHz White Gaussian Noise
        # signal" — the WGN preset must fill the whole data path band.
        from repro.hw.tx_controller import TransmitController

        tx = TransmitController(uptime_samples=40_000)
        burst = tx.schedule([0])[0]
        wave = tx.synthesize(0, burst.end)[burst.start:]
        bw = occupied_bandwidth(wave, units.BASEBAND_RATE, fraction=0.99)
        assert bw > 0.9 * units.BASEBAND_RATE
        assert spectral_flatness_db(wave, units.BASEBAND_RATE) < 4.0

    def test_wifi_ofdm_occupies_standard_band(self, rng):
        # 52 carriers at 312.5 kHz spacing ~ 16.6 MHz of a 20 MHz chan.
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu

        psdu = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu, WifiFrameConfig())
        bw = occupied_bandwidth(wave[320:], 20e6, fraction=0.98)
        assert 14e6 < bw < 18.5e6

    def test_wifi_guard_bands_quiet(self, rng):
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu

        psdu = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu, WifiFrameConfig())
        in_band = band_power(wave, 20e6, -8e6, 8e6)
        edge = band_power(wave, 20e6, 9e6, 10e6)
        assert in_band > 100 * edge

    def test_wimax_guard_bands_quiet(self, rng):
        from repro.phy.wimax.frame import build_downlink_frame
        from repro.phy.wimax.params import WIMAX_SAMPLE_RATE, WimaxConfig

        frame = build_downlink_frame(WimaxConfig(), rng)
        dl = frame[:20_000]
        # 86+ guard carriers per edge at ~11.1 kHz spacing: the outer
        # ~0.9 MHz on each side is silent.
        in_band = band_power(dl, WIMAX_SAMPLE_RATE, -4e6, 4e6)
        edge = band_power(dl, WIMAX_SAMPLE_RATE, 5.0e6, 5.6e6)
        assert in_band > 100 * edge

    def test_zigbee_energy_near_carrier(self, rng):
        from repro.phy.zigbee.frame import preamble_waveform
        from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

        wave = preamble_waveform()
        bw = occupied_bandwidth(wave, ZIGBEE_SAMPLE_RATE, fraction=0.95)
        # O-QPSK at 2 Mchip/s: main lobe ~2-3 MHz.
        assert bw < 3.5e6
