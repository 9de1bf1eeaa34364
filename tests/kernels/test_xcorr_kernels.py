"""Correctness of the fused sign-bit correlation kernels.

The ground truth throughout is the seed model's four-pass
``np.correlate`` evaluation over the sign-sliced stream; the fused and
batched kernels must reproduce it byte-for-byte, for any chunking of
the same stream.  These cases run the paper's single correlator as the
``K = 1`` stack; ``test_xcorr_stacked.py`` covers ``K > 1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.fixed_point import iq16_to_complex
from repro.errors import ConfigurationError, StreamError
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.kernels import (
    prepare_stacked,
    sign_plane,
    xcorr_detect_stacked,
    xcorr_detect_stacked_batch,
    xcorr_metric_stacked,
)

TAPS = 64


def _random_bank(rng, taps=TAPS):
    return (rng.integers(-4, 4, taps), rng.integers(-4, 4, taps))


def _prepare(ci, cq):
    """One bank prepared as a ``K = 1`` stack."""
    return prepare_stacked([(ci, cq)])


def _metric(plane, prepared):
    """Bank 0's row of the stacked metric."""
    return xcorr_metric_stacked(plane, prepared)[..., 0, :]


def _reference_metric(samples, ci, cq, history=None):
    """The seed datapath: sign slice, four np.correlate passes, square."""
    sign_i = np.where(np.real(samples) < 0, -1, 1).astype(np.int64)
    sign_q = np.where(np.imag(samples) < 0, -1, 1).astype(np.int64)
    pairs = ci.size - 1
    hist_i = np.zeros(pairs, dtype=np.int64)
    hist_q = np.zeros(pairs, dtype=np.int64)
    if history is not None:
        hist_i = history[0::2].astype(np.int64)
        hist_q = history[1::2].astype(np.int64)
    full_i = np.concatenate([hist_i, sign_i])
    full_q = np.concatenate([hist_q, sign_q])
    corr_re = (np.correlate(full_i, ci, mode="valid")
               + np.correlate(full_q, cq, mode="valid"))
    corr_im = (np.correlate(full_q, ci, mode="valid")
               - np.correlate(full_i, cq, mode="valid"))
    return corr_re * corr_re + corr_im * corr_im


def _plane_with_history(samples, pairs, history=None):
    plane = np.empty(2 * (pairs + samples.size), dtype=np.int8)
    plane[:2 * pairs] = 0 if history is None else history
    sign_plane(samples, out=plane[2 * pairs:])
    return plane


class TestPrepareCoefficients:
    def test_stacked_layout(self):
        prepared = _prepare([1, -2], [3, 0])
        np.testing.assert_array_equal(
            prepared.stacked,
            [[1, -3], [3, 1], [-2, 0], [0, -2]])
        assert prepared.taps == 2
        assert prepared.n_banks == 1
        assert prepared.history_pairs == 1

    def test_three_bit_bank_runs_in_float32(self):
        rng = np.random.default_rng(0)
        prepared = _prepare(*_random_bank(rng))
        assert prepared.gemm_dtype == np.float32

    def test_wide_bank_falls_back_to_float64(self):
        ci = np.full(64, 1 << 10)
        prepared = _prepare(ci, ci)
        assert prepared.gemm_dtype == np.float64

    def test_rejects_mismatched_banks(self):
        with pytest.raises(ConfigurationError):
            _prepare([1, 2], [1, 2, 3])

    def test_rejects_empty_banks(self):
        with pytest.raises(ConfigurationError):
            _prepare([], [])

    def test_matrices_are_frozen(self):
        prepared = _prepare([1, 2], [3, 4])
        with pytest.raises(ValueError):
            prepared.a_matrix[0, 0] = 9.0


class TestSignPlane:
    def test_interleaves_and_maps_zero_positive(self):
        samples = np.array([1 - 2j, -3 + 0j, 0 + 0j])
        np.testing.assert_array_equal(
            sign_plane(samples), [1, -1, -1, 1, 1, 1])

    def test_iq16_plane_slices_like_its_complex_value(self, rng):
        plane = rng.integers(-2 ** 15, 2 ** 15, size=(257, 2),
                             dtype=np.int16)
        plane[:5] = 0  # exact zeros map to +1
        np.testing.assert_array_equal(
            sign_plane(plane), sign_plane(iq16_to_complex(plane)))
        np.testing.assert_array_equal(
            sign_plane(plane), np.where(plane.reshape(-1) < 0, -1, 1))

    def test_strided_and_batched_input(self, rng):
        samples = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        strided = samples[:, ::2]
        expected = np.stack([np.where(strided.real < 0, -1, 1),
                             np.where(strided.imag < 0, -1, 1)], axis=-1)
        np.testing.assert_array_equal(sign_plane(strided),
                                      expected.reshape(3, 40))

    def test_out_shape_is_validated(self):
        with pytest.raises(StreamError):
            sign_plane(np.zeros(4, dtype=complex),
                       out=np.empty(7, dtype=np.int8))


class TestXcorrMetric:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 500])
    def test_matches_reference(self, n):
        rng = np.random.default_rng(n)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        plane = _plane_with_history(samples, prepared.history_pairs)
        np.testing.assert_array_equal(
            _metric(plane, prepared),
            _reference_metric(samples, ci, cq))

    def test_metric_dtype_is_int64(self):
        rng = np.random.default_rng(1)
        prepared = _prepare(*_random_bank(rng))
        samples = rng.normal(size=100) + 1j * rng.normal(size=100)
        plane = _plane_with_history(samples, prepared.history_pairs)
        metric = xcorr_metric_stacked(plane, prepared)
        assert metric.shape == (1, 100)
        assert metric.dtype == np.int64

    def test_chunk_size_invariance(self):
        """Any chunking of the same stream yields the same metrics."""
        rng = np.random.default_rng(2)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        pairs = prepared.history_pairs
        stream = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        whole = _metric(_plane_with_history(stream, pairs), prepared)
        np.testing.assert_array_equal(
            whole, _reference_metric(stream, ci, cq))
        for sizes in ([1000], [1, 999], [63, 64, 873], [100] * 10):
            history = np.zeros(2 * pairs, dtype=np.int8)
            got = []
            start = 0
            for size in sizes:
                chunk = stream[start:start + size]
                plane = _plane_with_history(chunk, pairs, history)
                got.append(_metric(plane, prepared))
                history = plane[2 * chunk.size:].copy()
                start += size
            np.testing.assert_array_equal(np.concatenate(got), whole)

    def test_facade_matches_reference(self):
        rng = np.random.default_rng(3)
        ci, cq = _random_bank(rng)
        correlator = CrossCorrelator()
        correlator.load_banks([(ci, cq)], [1000])
        samples = rng.normal(size=300) + 1j * rng.normal(size=300)
        np.testing.assert_array_equal(
            correlator.metric(samples)[0],
            _reference_metric(samples, ci, cq))

    def test_paper_bank_matches_reference(self):
        from repro.core.coeffs import wifi_long_preamble_template

        rng = np.random.default_rng(4)
        ci, cq = quantize_coefficients(wifi_long_preamble_template())
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        plane = _plane_with_history(samples, prepared.history_pairs)
        np.testing.assert_array_equal(
            _metric(plane, prepared),
            _reference_metric(samples, ci, cq))


class TestXcorrDetect:
    def test_fused_stream_matches_parts(self):
        rng = np.random.default_rng(5)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=400) + 1j * rng.normal(size=400)
        plane = _plane_with_history(samples, prepared.history_pairs)
        metric = _reference_metric(samples, ci, cq)
        threshold = int(np.percentile(metric, 90))
        result = xcorr_detect_stacked(plane, prepared, [threshold])
        np.testing.assert_array_equal(result.metric[0], metric)
        np.testing.assert_array_equal(result.trigger[0], metric > threshold)
        expected_edges = np.flatnonzero(
            np.diff(np.concatenate([[False], metric > threshold])
                    .astype(np.int8)) > 0)
        np.testing.assert_array_equal(result.edges[0], expected_edges)
        assert result.last.tolist() == [bool((metric > threshold)[-1])]


class TestXcorrDetectBatch:
    def _stream_reference(self, rows, lengths, prepared, threshold):
        """Feed the rows one by one through the streaming kernel."""
        pairs = prepared.history_pairs
        history = np.zeros(2 * pairs, dtype=np.int8)
        last = None
        triggers, edge_counts = [], []
        for row, length in zip(rows, lengths):
            chunk = row[:length]
            plane = _plane_with_history(chunk, pairs, history)
            result = xcorr_detect_stacked(plane, prepared, [threshold],
                                          last=last)
            history = plane[2 * chunk.size:].copy()
            last = result.last
            triggers.append(result.trigger[0])
            edge_counts.append(result.edges[0].size)
        return triggers, edge_counts, history, last

    def test_byte_identical_to_streaming(self):
        rng = np.random.default_rng(6)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        width = 300
        lengths = np.array([300, 150, 64, 300, 299], dtype=np.int64)
        blocks = rng.normal(size=(5, width)) \
            + 1j * rng.normal(size=(5, width))
        metric_all = _reference_metric(
            np.concatenate([blocks[b, :lengths[b]] for b in range(5)]),
            ci, cq)
        threshold = int(np.percentile(metric_all, 85))

        result = xcorr_detect_stacked_batch(blocks, lengths, prepared,
                                            [threshold])
        triggers, edge_counts, history, last = self._stream_reference(
            blocks, lengths, prepared, threshold)

        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        for b, length in enumerate(lengths):
            np.testing.assert_array_equal(
                result.metric[b, 0, :length],
                metric_all[starts[b]:starts[b] + length])
            np.testing.assert_array_equal(
                result.trigger[b, 0, :length], triggers[b])
            assert int(result.edge_plane[b, 0].sum()) == edge_counts[b]
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    def test_short_rows_fall_back_to_sequential_stitch(self):
        """Rows shorter than the history depth still chain exactly."""
        rng = np.random.default_rng(7)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        lengths = np.array([200, 5, 3, 200], dtype=np.int64)
        blocks = rng.normal(size=(4, 200)) \
            + 1j * rng.normal(size=(4, 200))
        threshold = 100_000
        result = xcorr_detect_stacked_batch(blocks, lengths, prepared,
                                            [threshold])
        triggers, edge_counts, history, last = self._stream_reference(
            blocks, lengths, prepared, threshold)
        for b, length in enumerate(lengths):
            np.testing.assert_array_equal(
                result.trigger[b, 0, :length], triggers[b])
            assert int(result.edge_plane[b, 0].sum()) == edge_counts[b]
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    def test_carry_state_chains_across_calls(self):
        """Splitting a batch into two calls with carried state is exact."""
        rng = np.random.default_rng(8)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        blocks = rng.normal(size=(6, 128)) \
            + 1j * rng.normal(size=(6, 128))
        lengths = np.full(6, 128, dtype=np.int64)
        threshold = [50_000]

        whole = xcorr_detect_stacked_batch(blocks, lengths, prepared,
                                           threshold)
        first = xcorr_detect_stacked_batch(blocks[:3], lengths[:3],
                                           prepared, threshold)
        second = xcorr_detect_stacked_batch(blocks[3:], lengths[3:],
                                            prepared, threshold,
                                            history=first.history,
                                            last=first.last)
        np.testing.assert_array_equal(
            np.vstack([first.edge_plane, second.edge_plane]),
            whole.edge_plane)
        np.testing.assert_array_equal(second.history, whole.history)
        np.testing.assert_array_equal(second.last, whole.last)

    def test_rejects_bad_shapes(self):
        prepared = _prepare([1, 2], [3, 4])
        with pytest.raises(StreamError):
            xcorr_detect_stacked_batch(np.zeros(8, dtype=complex),
                                       np.array([8]), prepared, [0])
        with pytest.raises(StreamError):
            xcorr_detect_stacked_batch(np.zeros((2, 8), dtype=complex),
                                       np.array([8, 9]), prepared, [0])
        with pytest.raises(StreamError):
            xcorr_detect_stacked_batch(np.zeros((2, 8), dtype=complex),
                                       np.array([8, 0]), prepared, [0])
