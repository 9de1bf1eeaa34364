"""The kernel implementation: exact BLAS evaluation of the primitives.

Every detector reduces to two primitives, the stacked correlator
metric and the energy moving sums; the fused/batched/chained logic
above them is array bookkeeping in :mod:`repro.kernels.xcorr` /
:mod:`repro.kernels.energy`.  The correlation metric is evaluated with
the block-Toeplitz two-GEMM scheme described in
:mod:`repro.kernels.xcorr`; the float dtype is chosen by
:func:`repro.kernels.xcorr.prepare_stacked` so that every
intermediate is an exactly-representable integer, making the float
GEMM bit-identical to int64 arithmetic.

All large intermediates live in grow-only scratch buffers owned by
the instance, which :func:`repro.kernels.get_backend` shares: the
temporaries here are hundreds of kilobytes, which glibc serves via
mmap and hands back to the kernel on free, so naive per-call
allocation pays the zero-page fault cost on every single chunk.  Only
the returned metric array is freshly allocated.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.buffers import ScratchBuffer


class NumpyKernelBackend:
    """The two detector primitives, with grow-only scratch storage."""

    name = "numpy"

    def __init__(self) -> None:
        self._scratch: dict[tuple[str, np.dtype], ScratchBuffer] = {}

    def _view(self, tag: str, dtype: np.dtype, n: int) -> np.ndarray:
        key = (tag, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = ScratchBuffer(dtype)
        return buf.view(n)

    def xcorr_metric_stacked(self, plane: np.ndarray, coeffs,
                             out: np.ndarray | None = None,
                             scratch=None) -> np.ndarray:
        """Per-bank squared metric over one shared sign plane.

        ``plane`` is ``(..., 2 * (history + n))`` int8 with I/Q signs
        interleaved (``plane[..., 2m]`` = sign I of pair ``m``); the
        leading ``2 * (coeffs.taps - 1)`` entries are carried history
        (zeros after reset).  ``coeffs`` is a
        :class:`repro.kernels.xcorr.StackedCoefficients` carrying the
        ``K`` zero-padded banks (``K = 1`` for the paper's correlator).
        Returns ``(..., K, n)`` int64 — bank ``k``'s row is
        byte-identical to the same op run with bank ``k`` alone.
        """
        plane = np.asarray(plane)
        lead = plane.shape[:-1]
        length = plane.shape[-1]
        pairs = length // 2
        n = pairs - coeffs.history_pairs
        k = coeffs.n_banks
        two_s = 2 * coeffs.block
        n_blocks = -(-pairs // coeffs.block)
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        padded_len = (n_blocks + 1) * two_s
        dtype = coeffs.gemm_dtype

        # Copy the plane into block-aligned zero-padded float storage
        # (the caller's scratch when its dtype matches); windows that
        # start in the zero padding produce garbage rows sliced away
        # below, never junk data read.  The plane is shared by every
        # bank; only the Toeplitz bands grow with K.
        if scratch is not None and scratch.dtype == dtype:
            flat = scratch.view(rows * padded_len)
        else:
            flat = self._view("padded", dtype, rows * padded_len)
        padded = flat.reshape(rows, padded_len)
        padded[:, :length] = plane.reshape(rows, length)
        padded[:, length:] = 0

        # Window g of the flat padded buffer is (row g // (n_blocks+1),
        # block g % (n_blocks+1)): X0 is the buffer itself and X1 the
        # same buffer offset by one block, so both GEMM operands are
        # contiguous views — no window gather/copy at all.  The extra
        # per-row window (j == n_blocks, whose X1 operand crosses into
        # the next row) is sliced away with the padding garbage below.
        # One GEMM pair covers all K banks: the operand columns carry
        # every bank's corr_re/corr_im per window (flattened index
        # j*2K + 2k + c), so the output row reshapes straight into the
        # (window, bank, component) metric layout.
        m = rows * (n_blocks + 1)
        width = two_s * k
        x0 = flat.reshape(m, two_s)
        x1 = flat[two_s:m * two_s].reshape(m - 1, two_s)
        gemm = self._view("gemm0", dtype, m * width).reshape(m, width)
        gemm_b = self._view("gemm1", dtype, m * width).reshape(m, width)
        np.matmul(x0, coeffs.a_matrix, out=gemm)
        np.matmul(x1, coeffs.b_matrix, out=gemm_b[:m - 1])
        gemm_b[m - 1:] = 0
        gemm += gemm_b
        corr = gemm.reshape(rows, (n_blocks + 1) * coeffs.block, k, 2)
        corr_re = corr[:, :n, :, 0]
        corr_im = corr[:, :n, :, 1]

        count = rows * n * k
        sq_re = self._view("sq_re", dtype, count).reshape(rows, n, k)
        sq_im = self._view("sq_im", dtype, count).reshape(rows, n, k)
        np.multiply(corr_re, corr_re, out=sq_re)
        np.multiply(corr_im, corr_im, out=sq_im)
        summed = self._view("stacked_sum", np.int64,
                            count).reshape(rows, n, k)
        np.add(sq_re, sq_im, out=summed, casting="unsafe")
        if out is None:
            out = np.empty(lead + (k, n), dtype=np.int64)
        # (rows, n, k) -> (rows, k, n): one transposed copy into the
        # caller-facing per-bank layout.
        np.copyto(out.reshape(rows, k, n), summed.transpose(0, 2, 1))
        return out

    def moving_sums(self, padded: np.ndarray, window: int,
                    out: np.ndarray | None = None,
                    csum_scratch=None) -> np.ndarray:
        """Length-``window`` moving sums over ``(..., window + n)`` rows.

        Each row is ``[tail | energies]`` float64; returns ``(..., n)``
        float64 computed exactly as the sequential cumulative-sum
        difference the streaming block uses, so results are
        bit-identical across batch shapes.
        """
        padded = np.asarray(padded, dtype=np.float64)
        lead = padded.shape[:-1]
        length = padded.shape[-1]
        n = length - window
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        flat = padded.reshape(rows, length)
        if csum_scratch is not None \
                and csum_scratch.dtype == np.dtype(np.float64):
            csum = csum_scratch.view(rows * length).reshape(rows, length)
        else:
            csum = self._view("csum", np.float64,
                              rows * length).reshape(rows, length)
        np.cumsum(flat, axis=-1, out=csum)
        if out is None:
            out = np.empty(lead + (n,), dtype=np.float64)
        np.subtract(csum[:, window:], csum[:, :-window],
                    out=out.reshape(rows, n))
        return out
