"""Fused, batched sign-bit cross-correlation kernels.

The paper's correlator (Fig. 3) is one fixed-point pipeline: slice
each I/Q pair to its sign bit, correlate against 64 3-bit complex
coefficients, square, compare, trigger.  The seed software model spent
four separate ``np.correlate`` passes per chunk on this; here the
whole datapath is two GEMMs.  There is one kernel path: ``K``
coefficient banks stacked into one operand, of which the paper's single
correlator is the ``K = 1`` case.

**Layout.**  A chunk becomes an *interleaved sign plane*:
``plane[2m] = sign(I[m])``, ``plane[2m+1] = sign(Q[m])``, prefixed by
the ``2 * (taps - 1)`` entries of carried history (zeros after reset,
matching the hardware).  With the stacked coefficient matrix ``C`` of
shape ``(2T, 2K)``, bank ``b`` owning columns ``2b`` and ``2b + 1``::

    C[2k, 2b] = cI[k]    C[2k+1, 2b] = cQ[k]      # -> corr_re
    C[2k, 2b+1] = -cQ[k] C[2k+1, 2b+1] = cI[k]    # -> corr_im

the window starting at pair ``t`` satisfies
``(corr_re[t], corr_im[t]) = plane[2t : 2t + 2T] @ C[:, 2b:2b+2]`` —
both correlator accumulators of every bank from one product.

**Block-Toeplitz evaluation.**  Gathering every window explicitly
(``sliding_window_view`` + matmul) is memory-bound: each input element
is copied ~64 times.  Instead the plane is cut into contiguous
non-overlapping blocks of ``2S`` entries (``S = taps``) and the
windows are recovered algebraically: every window spans at most two
consecutive blocks, so with banded Toeplitz matrices ``A`` and ``B``
(``A[tau, j*2K + c] = C[tau - 2j, c]`` where defined, ``B`` the
continuation into the next block)::

    out = X0 @ A + X1 @ B        # X1 = X0 shifted one block

which runs at full BLAS speed on the untouched input layout.

**Exactness.**  Every partial sum is an integer bounded by
``sum(|cI| + |cQ|)`` and the metric by twice its square; when that
fits float32's 2**24 integer window (it does for 3-bit banks: bound
512, metric 524288) the GEMM is performed in float32 and is *exact* —
every intermediate is an exactly-representable integer regardless of
summation order.  Larger banks fall back to float64 (exact through
2**53).  The result is bit-identical to the int64 reference, which the
parity tests enforce property-style.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fixed_point import iq_pairs
from repro.errors import ConfigurationError, StreamError
from repro.kernels.dispatch import get_backend
from repro.runtime.cache import cached_artifact

#: Largest integer float32 runs an exact accumulation over.
_F32_EXACT_LIMIT = 1 << 24

#: Int8 scalars for the in-place 0/1 -> +1/-1 sign mapping.
_SIGN_SCALE = np.int8(-2)
_SIGN_POS = np.int8(1)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StackedCoefficients:
    """``K`` protocol banks prepared for one stacked dual-GEMM pass.

    The banks are zero-padded *at the front* to the longest bank's
    length ``T`` and interleaved into one block-Toeplitz operand: the
    stacked matrix ``C`` grows to ``(2T, 2K)`` with bank ``k``'s
    corr_re in column ``2k`` and corr_im in column ``2k + 1``, and the
    Toeplitz bands to ``(2S, 2K * S)`` with flattened column index
    ``j * 2K + 2k + c`` — so one pair of GEMMs over the *shared* sign
    plane evaluates every bank at once and the output reshapes to a
    per-bank metric plane.

    Front-padding preserves the per-sample metric exactly: a padded
    window's extra leading coefficients are zero, so they contribute
    nothing regardless of what the (longer) shared history holds.
    Bank ``k``'s row of the stacked metric is therefore byte-identical
    to a ``K = 1`` stack holding bank ``k`` alone (and to the
    ``np.correlate`` reference) — the invariant the parity suite pins.

    Attributes:
        taps: Padded common template length ``T`` (= max bank length).
        n_banks: Number of stacked banks ``K``.
        bank_taps: Original (pre-padding) length of each bank.
        stacked: ``(2T, 2K)`` int64 stacked coefficient matrix.
        gemm_dtype: float32 when *every* bank satisfies the exactness
            bound, else float64 (both are exact; see module docstring).
        block: Block length ``S`` of the Toeplitz evaluation (= taps).
        a_matrix: ``(2S, 2K * S)`` in-block Toeplitz band.
        b_matrix: ``(2S, 2K * S)`` next-block continuation band.
    """

    taps: int
    n_banks: int
    bank_taps: tuple[int, ...]
    stacked: np.ndarray
    gemm_dtype: np.dtype
    block: int
    a_matrix: np.ndarray
    b_matrix: np.ndarray

    @property
    def history_pairs(self) -> int:
        """Sign pairs of history a stream must carry: ``taps - 1``."""
        return self.taps - 1


def _normalize_banks(banks) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Validate and canonicalize a bank list for the artifact cache.

    Lists and tuples tokenize differently in the cache key, so every
    entry point funnels through this one canonical
    tuple-of-(int64, int64) form before the memoized builders run.
    """
    normalized = []
    for bank in banks:
        coeffs_i, coeffs_q = bank
        coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
        coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
        if coeffs_i.ndim != 1 or coeffs_i.shape != coeffs_q.shape:
            raise ConfigurationError(
                "each bank must be two 1-D arrays of equal length"
            )
        if coeffs_i.size < 1:
            raise ConfigurationError("coefficient banks must not be empty")
        normalized.append((coeffs_i, coeffs_q))
    if not normalized:
        raise ConfigurationError("a stacked bank needs at least one bank")
    return tuple(normalized)


@cached_artifact
def _prepare_stacked(banks) -> StackedCoefficients:
    taps = max(coeffs_i.size for coeffs_i, _ in banks)
    n_banks = len(banks)
    bank_taps = tuple(coeffs_i.size for coeffs_i, _ in banks)

    stacked = np.zeros((2 * taps, 2 * n_banks), dtype=np.int64)
    bound = 0
    for k, (coeffs_i, coeffs_q) in enumerate(banks):
        pad = taps - coeffs_i.size
        padded_i = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_i])
        padded_q = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_q])
        stacked[0::2, 2 * k] = padded_i
        stacked[1::2, 2 * k] = padded_q
        stacked[0::2, 2 * k + 1] = -padded_q
        stacked[1::2, 2 * k + 1] = padded_i
        bound = max(bound, int(np.sum(np.abs(coeffs_i))
                               + np.sum(np.abs(coeffs_q))))

    # One dtype serves every bank, so the exactness bound is the worst
    # bank's.  Either dtype is exact within its bound, so the int64
    # metric is identical whichever is picked.
    exact_in_f32 = 2 * bound * bound < _F32_EXACT_LIMIT
    gemm_dtype = np.dtype(np.float32 if exact_in_f32 else np.float64)

    block = taps
    two_s = 2 * block
    # 2K stacked columns per window position: a_matrix[tau, j*2K + c2]
    # = stacked[tau - 2j, c2] where defined, b_matrix the continuation.
    offsets = np.arange(two_s)[:, None] - 2 * np.arange(block)[None, :]
    clipped = offsets.clip(0, 2 * taps - 1)
    in_band = (offsets >= 0) & (offsets < 2 * taps)
    a_matrix = np.where(in_band[:, :, None], stacked[clipped], 0)
    offsets_b = offsets + two_s
    clipped_b = offsets_b.clip(0, 2 * taps - 1)
    in_band_b = (offsets_b >= 0) & (offsets_b < 2 * taps)
    b_matrix = np.where(in_band_b[:, :, None], stacked[clipped_b], 0)

    width = block * 2 * n_banks
    return StackedCoefficients(
        taps=taps,
        n_banks=n_banks,
        bank_taps=bank_taps,
        stacked=_freeze(stacked),
        gemm_dtype=gemm_dtype,
        block=block,
        a_matrix=_freeze(a_matrix.reshape(two_s, width).astype(gemm_dtype)),
        b_matrix=_freeze(b_matrix.reshape(two_s, width).astype(gemm_dtype)),
    )


def prepare_stacked(banks) -> StackedCoefficients:
    """Pad and stack ``K`` coefficient banks into one GEMM operand.

    ``banks`` is a sequence of ``(coeffs_i, coeffs_q)`` pairs; banks
    may have different lengths (each is front-padded with zeros to the
    longest).  Memoized through the artifact cache
    (:mod:`repro.runtime.cache`) on the bank contents, so sweeps and
    repeated facade loads share one frozen instance.
    """
    return _prepare_stacked(_normalize_banks(banks))


@cached_artifact
def _stacked_bank_program(banks, thresholds
                          ) -> tuple[StackedCoefficients, np.ndarray]:
    prepared = _prepare_stacked(banks)
    return prepared, np.asarray(thresholds, dtype=np.int64)


def stacked_bank_program(banks, thresholds
                         ) -> tuple[StackedCoefficients, np.ndarray]:
    """A full detection program: stacked banks plus per-bank thresholds.

    Memoized over the ``K`` bank fingerprints *and* the thresholds —
    the key a sweep varies — while the expensive block-Toeplitz
    padding is cached one level down on the banks alone, so a
    threshold-only sweep re-pads nothing.  Returns
    ``(StackedCoefficients, (K,) int64 thresholds)``, both frozen.
    """
    banks = _normalize_banks(banks)
    thresholds = tuple(int(t) for t in thresholds)
    if len(thresholds) != len(banks):
        raise ConfigurationError(
            f"got {len(thresholds)} thresholds for {len(banks)} banks"
        )
    for value in thresholds:
        if not 0 <= value <= 0xFFFF_FFFF:
            raise ConfigurationError(
                "per-bank thresholds must fit the 32-bit register"
            )
    return _stacked_bank_program(banks, thresholds)


def sign_plane(samples: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Interleave the I/Q sign bits of ``(..., n)`` I/Q samples.

    ``samples`` is anything :func:`repro.dsp.fixed_point.iq_pairs`
    takes: an ``(..., n, 2)`` IQ16 plane or complex baseband.  Matches
    the hardware MSB slice: negative maps to -1, everything else
    (including exact zero) to +1.  Returns ``(..., 2n)`` int8.
    """
    pairs = iq_pairs(samples)
    shape = pairs.shape[:-2] + (2 * pairs.shape[-2],)
    if out is None:
        out = np.empty(shape, dtype=np.int8)
    elif out.shape != shape:
        raise StreamError(
            f"sign plane output must have shape {shape}, got {out.shape}"
        )
    # The pair plane is already the interleaved [I, Q] layout, so the
    # comparison writes straight into the int8 plane viewed as bools
    # (same itemsize), and two in-place passes map 0/1 to +1/-1.
    np.less(pairs.reshape(shape), 0, out=out.view(np.bool_))
    np.multiply(out, _SIGN_SCALE, out=out)
    out += _SIGN_POS
    return out


def rising_edge_plane(trigger: np.ndarray, previous_last) -> np.ndarray:
    """Elementwise rising-edge mask of a boolean trigger plane.

    ``previous_last`` is the trigger value preceding column 0 (a bool,
    or per-row bools for a 2-D plane).
    """
    edges = np.empty_like(trigger)
    edges[..., 1:] = trigger[..., 1:] & ~trigger[..., :-1]
    edges[..., 0] = trigger[..., 0] & ~np.asarray(previous_last)
    return edges


def chained_edges(trigger: np.ndarray, lengths: np.ndarray,
                  last: bool = False) -> np.ndarray:
    """Rising edges over batch rows chained as one stream.

    Row ``b``'s predecessor for column 0 is the last *valid* trigger
    of row ``b - 1`` (``last`` for row 0), exactly as if the rows had
    been fed through a streaming detector back to back.  Columns at or
    beyond each row's valid length are masked off.
    """
    batch, width = trigger.shape
    previous = np.empty_like(trigger)
    previous[:, 1:] = trigger[:, :-1]
    previous[0, 0] = last
    if batch > 1:
        previous[1:, 0] = trigger[np.arange(batch - 1), lengths[:-1] - 1]
    edges = trigger & ~previous
    edges &= np.arange(width)[None, :] < lengths[:, None]
    return edges


def batch_rows(blocks: np.ndarray, lengths: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(batch, width, 2)`` pair rows and int64 row lengths."""
    blocks = iq_pairs(blocks)
    lengths = np.asarray(lengths, dtype=np.int64)
    if blocks.ndim != 3 or lengths.shape != (blocks.shape[0],):
        raise StreamError("expected (batch, width) blocks with one "
                          "length per row")
    if np.any(lengths < 1) or np.any(lengths > blocks.shape[1]):
        raise StreamError("row lengths must be in [1, width]")
    return blocks, lengths


def stitch_tails(full: np.ndarray, lengths: np.ndarray,
                 init_tail: np.ndarray, tail_len: int) -> None:
    """Fill ``full[:, :tail_len]`` with each previous row's valid tail.

    ``full`` rows are ``[tail | payload]``; the last ``tail_len``
    valid entries of row ``b - 1`` start at column ``lengths[b - 1]``.
    Rows shorter than the tail gather from their own stitched prefix,
    so they stitch sequentially.
    """
    batch = full.shape[0]
    full[0, :tail_len] = init_tail
    if batch == 1 or tail_len == 0:
        return
    if np.all(lengths[:-1] >= tail_len):
        cols = lengths[:-1, None] + np.arange(tail_len)[None, :]
        full[1:, :tail_len] = np.take_along_axis(full[:-1], cols, axis=1)
    else:
        for b in range(1, batch):
            start = lengths[b - 1]
            full[b, :tail_len] = full[b - 1, start:start + tail_len]


@dataclass(frozen=True)
class StackedDetection:
    """Fused single-stream detection result over ``K`` stacked banks.

    ``metric``/``trigger`` are ``(K, n)``; ``edges`` holds one rising-
    edge index array per bank; ``last`` is the ``(K,)`` per-bank carry
    state for the next chunk.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edges: tuple[np.ndarray, ...]
    last: np.ndarray


@dataclass(frozen=True)
class StackedBatchResult:
    """Chained batch detection result over ``K`` stacked banks.

    ``metric``/``trigger``/``edge_plane`` are ``(batch, K, width)``;
    columns past a row's length are meaningless in ``trigger`` and
    already masked in ``edge_plane``.  ``history`` (shared across
    banks) and ``last`` (``(K,)`` bools) are the carry-out stream
    state for the next call.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edge_plane: np.ndarray
    history: np.ndarray
    last: np.ndarray


def xcorr_metric_stacked(plane: np.ndarray, coeffs: StackedCoefficients,
                         out: np.ndarray | None = None,
                         scratch=None) -> np.ndarray:
    """Per-bank squared metric over one shared sign plane: ``(..., K, n)``."""
    return get_backend().xcorr_metric_stacked(plane, coeffs, out=out,
                                              scratch=scratch)


def _check_stacked_thresholds(thresholds: np.ndarray,
                              coeffs: StackedCoefficients) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if thresholds.shape != (coeffs.n_banks,):
        raise ConfigurationError(
            f"expected {coeffs.n_banks} per-bank thresholds, "
            f"got shape {thresholds.shape}"
        )
    return thresholds


def xcorr_detect_stacked(plane: np.ndarray, coeffs: StackedCoefficients,
                         thresholds: np.ndarray,
                         last: np.ndarray | None = None,
                         scratch=None) -> StackedDetection:
    """The fused streaming datapath: one GEMM pass, K detectors.

    Metric, threshold compare and rising-edge extraction in one call,
    so the DSP core consumes edge indices directly.  ``thresholds`` is
    ``(K,)`` (one per bank) and ``last`` the ``(K,)`` per-bank trigger
    carry from the previous chunk.  Bank ``k``'s trigger/edges are
    byte-identical to a ``K = 1`` detector holding bank ``k`` alone,
    run with its own threshold over the same stream.
    """
    thresholds = _check_stacked_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
    metric = xcorr_metric_stacked(plane, coeffs, scratch=scratch)
    trigger = metric > thresholds[:, None]
    edge_mask = rising_edge_plane(trigger, last)
    edges = tuple(np.flatnonzero(edge_mask[k])
                  for k in range(coeffs.n_banks))
    new_last = trigger[:, -1].copy() if trigger.shape[-1] \
        else np.asarray(last, dtype=bool).copy()
    return StackedDetection(metric=metric, trigger=trigger, edges=edges,
                            last=new_last)


def xcorr_detect_stacked_batch(blocks: np.ndarray, lengths: np.ndarray,
                               coeffs: StackedCoefficients,
                               thresholds: np.ndarray,
                               history: np.ndarray | None = None,
                               last: np.ndarray | None = None
                               ) -> StackedBatchResult:
    """Run a batch of chained sample rows through the stacked detector.

    ``blocks`` is ``(batch, width)`` complex, or its ``(batch, width,
    2)`` pair plane, with row ``b`` valid through ``lengths[b]`` (rows
    may be zero-padded to the common width).  Rows are *chained*: each row's sign history is stitched
    from the previous row's valid tail, so the ``(batch, K, width)``
    planes equal what streaming :func:`xcorr_detect_stacked` produces
    over the concatenated rows — tests pin this.  ``history``
    (``(2 * (taps - 1),)`` int8) and ``last`` (``(K,)`` bools) seed the
    chain and come back updated in the result.
    """
    thresholds = _check_stacked_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
    last = np.asarray(last, dtype=bool)
    blocks, lengths = batch_rows(blocks, lengths)
    batch, width = blocks.shape[:2]
    pairs = coeffs.history_pairs
    if history is None:
        history = np.zeros(2 * pairs, dtype=np.int8)

    plane = np.empty((batch, 2 * (pairs + width)), dtype=np.int8)
    sign_plane(blocks, out=plane[:, 2 * pairs:])
    # Each row's history is the previous row's valid tail; a pair is
    # two plane entries.
    stitch_tails(plane, 2 * lengths, history, 2 * pairs)

    metric = xcorr_metric_stacked(plane, coeffs)
    trigger = metric > thresholds[None, :, None]
    edge_plane = np.empty_like(trigger)
    for k in range(coeffs.n_banks):
        edge_plane[:, k, :] = chained_edges(
            np.ascontiguousarray(trigger[:, k, :]), lengths, bool(last[k]))

    tail_start = 2 * lengths[-1]
    return StackedBatchResult(
        metric=metric,
        trigger=trigger,
        edge_plane=edge_plane,
        history=plane[-1, tail_start:tail_start + 2 * pairs].copy(),
        last=trigger[-1, :, lengths[-1] - 1].copy(),
    )
