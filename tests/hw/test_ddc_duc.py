"""Tests for the DDC and DUC chain models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.fixed_point import IQ16, iq16_to_complex
from repro.errors import StreamError
from repro.hw.ddc import DigitalDownConverter
from repro.hw.duc import DigitalUpConverter


class TestDdc:
    def test_unity_gain_quantizes_only(self, rng):
        ddc = DigitalDownConverter(rx_gain_db=0.0)
        x = 0.2 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        x = np.clip(x.real, -0.99, 0.99) + 1j * np.clip(x.imag, -0.99, 0.99)
        plane = ddc.process(x)
        assert plane.dtype == np.int16 and plane.shape == (256, 2)
        out = iq16_to_complex(plane)
        assert np.max(np.abs(out - x)) < 1 / 32768

    def test_gain_applied_before_quantization(self):
        ddc = DigitalDownConverter(rx_gain_db=20.0)
        x = np.full(16, 0.01 + 0j)
        out = iq16_to_complex(ddc.process(x))
        assert np.allclose(out.real, 0.1, atol=1e-4)

    def test_saturation_at_full_scale(self):
        ddc = DigitalDownConverter(rx_gain_db=40.0)
        x = np.full(16, 0.5 + 0.5j)
        out = ddc.process(x)
        assert np.all(out == IQ16.max_int)

    def test_filtered_variant_runs(self, rng):
        ddc = DigitalDownConverter(rx_gain_db=0.0, use_filter=True)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out = ddc.process(x)
        assert out.dtype == np.int16 and out.shape == (512, 2)
        ddc.reset()

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            DigitalDownConverter().process(np.zeros((2, 2)))


class TestDuc:
    def test_unity_gain(self, rng):
        duc = DigitalUpConverter(tx_gain_db=0.0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(duc.process(x), x)

    def test_attenuation(self):
        duc = DigitalUpConverter(tx_gain_db=-20.0)
        x = np.ones(8, dtype=complex)
        assert np.allclose(duc.process(x), 0.1)

    def test_gain(self):
        duc = DigitalUpConverter(tx_gain_db=6.0)
        x = np.ones(8, dtype=complex)
        assert np.allclose(np.abs(duc.process(x)), 10 ** 0.3)

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            DigitalUpConverter().process(np.zeros((2, 2)))
