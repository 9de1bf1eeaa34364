"""repro.kernels: fused, batched, backend-dispatched DSP kernels.

The bit-exact compute layer under the detector facades:

* :mod:`repro.kernels.xcorr` — the sign-bit cross-correlator as two
  GEMMs over an interleaved sign plane, ``K`` stacked banks per pass
  (the paper's correlator is ``K = 1``; fused metric + trigger + edge
  extraction, streaming and chained-batch forms);
* :mod:`repro.kernels.energy` — the moving-sum energy differentiator
  with exact float tail stitching for batched rows;
* :mod:`repro.kernels.dispatch` — the backend registry (``numpy``
  reference, optional ``numba`` JIT) selected per call or via the
  ``REPRO_KERNEL_BACKEND`` environment variable;
* :mod:`repro.kernels.ops` — the choke point for the remaining raw
  convolution call sites (see repro-lint RJ009).

Every backend is required to be byte-identical to the numpy reference;
the facades in :mod:`repro.hw` stay the stateful streaming API while
all per-sample math lives here.
"""

from __future__ import annotations

from repro.kernels.dispatch import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    BackendUnavailable,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.kernels.energy import (
    EnergyBatchResult,
    energy_detect_batch,
    moving_sums,
)
from repro.kernels.numba_backend import make_numba_backend
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

register_backend("numpy", NumpyKernelBackend)
register_backend("numba", make_numba_backend)

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "BackendUnavailable",
    "EnergyBatchResult",
    "KernelBackend",
    "NumpyKernelBackend",
    "StackedBatchResult",
    "StackedCoefficients",
    "StackedDetection",
    "available_backends",
    "chained_edges",
    "energy_detect_batch",
    "get_backend",
    "make_numba_backend",
    "moving_sums",
    "prepare_stacked",
    "register_backend",
    "rising_edge_plane",
    "sign_plane",
    "stacked_bank_program",
    "xcorr_detect_stacked",
    "xcorr_detect_stacked_batch",
    "xcorr_metric_stacked",
]
