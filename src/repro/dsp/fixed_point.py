"""Fixed-point quantization matching the FPGA data path.

The USRP N210 carries baseband I/Q as 16-bit signed integers.  The
paper's cross-correlator further reduces each sample to its sign bit and
stores coefficients as 3-bit signed values.  This module provides a
small Q-format abstraction so every block states its word width
explicitly instead of sprinkling ``np.clip`` calls around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format with ``total_bits`` including sign.

    ``fractional_bits`` positions the binary point: a float ``x`` is
    represented as the integer ``round(x * 2**fractional_bits)``,
    saturated to the representable range.

    Attributes:
        total_bits: Total word width, including the sign bit.
        fractional_bits: Number of fractional bits (may be 0).
    """

    total_bits: int
    fractional_bits: int = 0

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise ConfigurationError("total_bits must be >= 1")
        if self.fractional_bits < 0:
            raise ConfigurationError("fractional_bits must be >= 0")
        if self.fractional_bits >= self.total_bits:
            raise ConfigurationError(
                "fractional_bits must leave at least the sign bit: "
                f"got {self.fractional_bits} of {self.total_bits}"
            )

    @property
    def max_int(self) -> int:
        """Largest representable integer value."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_int(self) -> int:
        """Smallest (most negative) representable integer value."""
        return -(1 << (self.total_bits - 1))

    @property
    def scale(self) -> int:
        """Integer units per 1.0 of real value."""
        return 1 << self.fractional_bits

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_int / self.scale

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_int / self.scale

    def to_int(self, values: np.ndarray) -> np.ndarray:
        """Quantize real ``values`` to integers with saturation.

        Saturates the way an ADC does: out-of-range values and +-inf
        clip to full scale, and NaN (no defined level) maps to 0.
        """
        # Saturating before scaling keeps huge finite values from
        # overflowing; the scale is a power of two, so the result is
        # the same as rounding first and saturating after.
        values = np.asarray(values, dtype=np.float64)
        scaled = np.empty_like(values)
        np.maximum(values, self.min_value, out=scaled)
        np.minimum(scaled, self.max_value, out=scaled)
        scaled *= self.scale
        np.rint(scaled, out=scaled)
        scaled[np.isnan(scaled)] = 0.0
        return scaled.astype(np.int64)

    def to_float(self, ints: np.ndarray) -> np.ndarray:
        """Convert stored integers back to real values."""
        # One pass; the scale is a power of two, so this is exact.
        return np.multiply(ints, 1.0 / self.scale, dtype=np.float64)


#: The N210 RX/TX sample format: 16-bit signed, full-scale at +-1.0.
IQ16 = FixedPointFormat(total_bits=16, fractional_bits=15)

#: The cross-correlator coefficient format from the WARP reference core.
COEFF3 = FixedPointFormat(total_bits=3, fractional_bits=0)


def iq_pairs(samples: np.ndarray) -> np.ndarray:
    """I/Q samples as a real ``(..., n, 2)`` pair plane (I, Q columns).

    A real ``(..., n, 2)`` plane, such as the DDC's int16 IQ16 plane,
    passes through unchanged.  Complex128 ``(..., n)`` samples are
    viewed as their interleaved float64 ``[re, im]`` memory without a
    copy; other input is converted to complex128 first.
    """
    samples = np.asarray(samples)
    if samples.ndim >= 2 and samples.shape[-1] == 2 \
            and not np.iscomplexobj(samples):
        return samples
    samples = np.asarray(samples, dtype=np.complex128)
    return samples[..., None].view(np.float64)


def iq16_to_complex(plane: np.ndarray) -> np.ndarray:
    """The complex baseband an ``(..., n, 2)`` IQ16 plane stands for."""
    return IQ16.to_float(plane).view(np.complex128)[..., 0]


def quantize(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Round-trip ``values`` through ``fmt`` (quantize, then re-scale).

    Complex inputs are quantized component-wise, mirroring independent
    I and Q hardware paths.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        real = fmt.to_float(fmt.to_int(values.real))
        imag = fmt.to_float(fmt.to_int(values.imag))
        return real + 1j * imag
    return fmt.to_float(fmt.to_int(values))


def quantize_iq16(values: np.ndarray) -> np.ndarray:
    """Quantize complex baseband to the N210's 16-bit I/Q format."""
    return quantize(values, IQ16)


def sign_bits(values: np.ndarray) -> np.ndarray:
    """Extract the sign bit of each real value as +-1 integers.

    The hardware slices the MSB of each 16-bit sample; a cleared MSB
    (value >= 0) maps to +1 and a set MSB (value < 0) maps to -1.  Zero
    therefore maps to +1, exactly as two's-complement hardware behaves.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise TypeError("sign_bits takes real input; the data path slices "
                        "I/Q pairs with repro.kernels.sign_plane")
    return np.where(values < 0, -1, 1).astype(np.int8)
