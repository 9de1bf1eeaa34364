"""Tests for repro.dsp.fixed_point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.fixed_point import (
    COEFF3,
    IQ16,
    FixedPointFormat,
    quantize,
    quantize_iq16,
    sign_bits,
)
from repro.errors import ConfigurationError
from repro.kernels import sign_plane


class TestFixedPointFormat:
    def test_iq16_range(self):
        assert IQ16.max_int == 32767
        assert IQ16.min_int == -32768
        assert IQ16.max_value == pytest.approx(32767 / 32768)
        assert IQ16.min_value == -1.0

    def test_coeff3_range(self):
        assert COEFF3.max_int == 3
        assert COEFF3.min_int == -4
        assert COEFF3.scale == 1

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=0)

    def test_rejects_negative_fractional(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=8, fractional_bits=-1)

    def test_rejects_all_fractional(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=8, fractional_bits=8)

    def test_to_int_saturates_high(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        assert fmt.to_int(np.array([1000.0]))[0] == fmt.max_int

    def test_to_int_saturates_low(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        assert fmt.to_int(np.array([-1000.0]))[0] == fmt.min_int

    def test_roundtrip_within_range(self):
        fmt = FixedPointFormat(total_bits=12, fractional_bits=6)
        values = np.array([0.0, 0.5, -0.5, 1.25, -2.0])
        back = fmt.to_float(fmt.to_int(values))
        assert np.allclose(back, values)

    def test_quantization_step(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        # step is 1/16; 0.06 rounds to 1/16
        assert fmt.to_float(fmt.to_int(np.array([0.06])))[0] == pytest.approx(1 / 16)


class TestQuantize:
    def test_real_passthrough_of_exact_values(self):
        fmt = FixedPointFormat(total_bits=16, fractional_bits=8)
        values = np.array([1.0, -0.5, 0.25])
        assert np.allclose(quantize(values, fmt), values)

    def test_complex_componentwise(self):
        values = np.array([0.3 + 0.7j, -0.2 - 0.9j])
        out = quantize(values, IQ16)
        assert np.allclose(out.real, quantize(values.real, IQ16))
        assert np.allclose(out.imag, quantize(values.imag, IQ16))

    def test_iq16_clips_at_full_scale(self):
        out = quantize_iq16(np.array([2.0 + 3.0j]))
        assert out[0].real == pytest.approx(32767 / 32768)
        assert out[0].imag == pytest.approx(32767 / 32768)

    def test_iq16_error_bound(self, rng):
        values = rng.uniform(-0.9, 0.9, 500) + 1j * rng.uniform(-0.9, 0.9, 500)
        out = quantize_iq16(values)
        step = 1 / 32768
        assert np.max(np.abs(out.real - values.real)) <= step / 2 + 1e-12
        assert np.max(np.abs(out.imag - values.imag)) <= step / 2 + 1e-12


class TestSignBits:
    def test_positive_maps_to_plus_one(self):
        assert sign_bits(np.array([0.5]))[0] == 1

    def test_negative_maps_to_minus_one(self):
        assert sign_bits(np.array([-0.5]))[0] == -1

    def test_zero_maps_to_plus_one_like_hardware(self):
        # MSB of +0 is clear in two's complement.
        assert sign_bits(np.array([0.0]))[0] == 1

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            sign_bits(np.array([1.0 + 1.0j]))

    def test_sign_bits_iq_components(self):
        values = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 0 + 0j])
        plane = sign_plane(values).reshape(-1, 2)
        assert list(plane[:, 0]) == [1, -1, 1, -1, 1]
        assert list(plane[:, 1]) == [1, 1, -1, -1, 1]

    def test_sign_bits_iq_dtype(self, rng):
        values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        plane = sign_plane(values)
        assert plane.dtype == np.int8 and plane.shape == (128,)
        assert set(np.unique(plane)) <= {-1, 1}
