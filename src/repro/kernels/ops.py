"""Shared primitive wrappers: the repo's one home for raw DSP calls.

repro-lint rule RJ009 flags direct ``np.correlate`` / ``np.convolve``
/ ``sliding_window_view`` use outside :mod:`repro.kernels`, the same
choke-point discipline RJ008 applies to process pools: correlation
datapaths that matter for bit-exactness must go through the kernel
layer, and the remaining convolution call sites (channel models,
matched filters) route through here so a future optimization has
exactly one place to land.
"""

from __future__ import annotations

import numpy as np


def convolve(signal: np.ndarray, kernel: np.ndarray,
             mode: str = "full") -> np.ndarray:
    """``np.convolve`` behind the kernel-layer choke point."""
    return np.convolve(signal, kernel, mode=mode)
