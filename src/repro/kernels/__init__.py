"""repro.kernels: fused, batched DSP kernels.

The bit-exact compute layer under the detector facades:

* :mod:`repro.kernels.xcorr` — the sign-bit cross-correlator as two
  GEMMs over an interleaved sign plane, ``K`` stacked banks per pass
  (the paper's correlator is ``K = 1``; fused metric + trigger + edge
  extraction, streaming and chained-batch forms);
* :mod:`repro.kernels.energy` — the moving-sum energy differentiator
  with exact float tail stitching for batched rows;
* :mod:`repro.kernels.numpy_backend` — the one implementation of the
  two primitives every detector reduces to, shared through
  :func:`repro.kernels.dispatch.get_backend`;
* :mod:`repro.kernels.ops` — the choke point for the remaining raw
  convolution call sites (see repro-lint RJ009).

The facades in :mod:`repro.hw` stay the stateful streaming API while
all per-sample math lives here.
"""

from __future__ import annotations

from repro.kernels.dispatch import get_backend
from repro.kernels.energy import (
    EnergyBatchResult,
    energy_detect_batch,
    moving_sums,
)
from repro.kernels.numpy_backend import NumpyKernelBackend
from repro.kernels.xcorr import (
    StackedBatchResult,
    StackedCoefficients,
    StackedDetection,
    chained_edges,
    prepare_stacked,
    rising_edge_plane,
    sign_plane,
    stacked_bank_program,
    xcorr_detect_stacked,
    xcorr_detect_stacked_batch,
    xcorr_metric_stacked,
)

__all__ = [
    "EnergyBatchResult",
    "NumpyKernelBackend",
    "StackedBatchResult",
    "StackedCoefficients",
    "StackedDetection",
    "chained_edges",
    "energy_detect_batch",
    "get_backend",
    "moving_sums",
    "prepare_stacked",
    "rising_edge_plane",
    "sign_plane",
    "stacked_bank_program",
    "xcorr_detect_stacked",
    "xcorr_detect_stacked_batch",
    "xcorr_metric_stacked",
]
