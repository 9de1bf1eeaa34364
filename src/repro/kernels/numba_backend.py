"""Optional numba JIT backend.

A straight-line integer transcription of the kernel semantics: int64
accumulation over the int8 sign plane for the correlator, sequential
float64 cumulative sums for the energy path.  Integer arithmetic is
associative and the cumulative sum is written in the exact sequential
order the numpy reference uses, so the JIT results are bit-identical
to the reference — the parity tests enforce it whenever numba is
importable.

numba is *not* a dependency of this repo.  The backend registers a
factory that raises :class:`repro.kernels.dispatch.BackendUnavailable`
when the import fails, which :func:`repro.kernels.dispatch.get_backend`
turns into a warning-and-fallback for environment-variable selection.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dispatch import BackendUnavailable, KernelBackend


def _compile_kernels():
    from numba import njit, prange

    @njit(parallel=True, cache=True)
    def xcorr_metric_stacked(plane, stacked, history_pairs, out):
        rows, length = plane.shape
        taps2 = stacked.shape[0]
        banks = stacked.shape[1] // 2
        n = length // 2 - history_pairs
        for r in prange(rows):
            for t in range(n):
                base = 2 * t
                for b in range(banks):
                    corr_re = np.int64(0)
                    corr_im = np.int64(0)
                    for j in range(taps2):
                        value = np.int64(plane[r, base + j])
                        corr_re += stacked[j, 2 * b] * value
                        corr_im += stacked[j, 2 * b + 1] * value
                    out[r, b, t] = corr_re * corr_re + corr_im * corr_im

    @njit(parallel=True, cache=True)
    def moving_sums(padded, window, csum, out):
        rows, length = padded.shape
        n = length - window
        for r in prange(rows):
            acc = 0.0
            for k in range(length):
                acc += padded[r, k]
                csum[r, k] = acc
            for i in range(n):
                out[r, i] = csum[r, window + i] - csum[r, i]

    return xcorr_metric_stacked, moving_sums


class NumbaKernelBackend(KernelBackend):
    """JIT-compiled integer kernels (requires the optional numba)."""

    name = "numba"

    def __init__(self) -> None:
        try:
            self._xcorr_stacked, self._sums = _compile_kernels()
        except ImportError as exc:
            raise BackendUnavailable(
                "the numba backend needs the optional 'numba' package"
            ) from exc

    def xcorr_metric_stacked(self, plane: np.ndarray, coeffs,
                             out: np.ndarray | None = None,
                             scratch=None) -> np.ndarray:
        plane = np.asarray(plane, dtype=np.int8)
        lead = plane.shape[:-1]
        length = plane.shape[-1]
        n = length // 2 - coeffs.history_pairs
        banks = coeffs.n_banks
        if out is None:
            out = np.empty(lead + (banks, n), dtype=np.int64)
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        self._xcorr_stacked(
            np.ascontiguousarray(plane.reshape(rows, length)),
            coeffs.stacked, coeffs.history_pairs,
            out.reshape(rows, banks, n))
        return out

    def moving_sums(self, padded: np.ndarray, window: int,
                    out: np.ndarray | None = None,
                    csum_scratch=None) -> np.ndarray:
        padded = np.asarray(padded, dtype=np.float64)
        lead = padded.shape[:-1]
        length = padded.shape[-1]
        n = length - window
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        if out is None:
            out = np.empty(lead + (n,), dtype=np.float64)
        csum = np.empty((rows, length), dtype=np.float64)
        self._sums(np.ascontiguousarray(padded.reshape(rows, length)),
                   window, csum, out.reshape(rows, n))
        return out


def make_numba_backend() -> NumbaKernelBackend:
    """Factory for the dispatch registry (raises BackendUnavailable)."""
    return NumbaKernelBackend()
