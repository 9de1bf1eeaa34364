"""Property suite: the stacked bank is K independent correlators.

Hypothesis drives random coefficient banks, random thresholds, and —
the load-bearing part — *random chunk splits* of one sample stream.
However the stream is sliced, a streaming ``K``-bank
:class:`repro.hw.CrossCorrelator` must stay byte-identical to K
independent streaming ``K = 1`` instances, bank by bank: metric plane,
trigger plane, rising edges, and the per-bank carry state that chains
edges across chunk boundaries.  The metric leg also checks every bank
against the ``np.correlate`` reference over the whole stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw import CrossCorrelator
from repro.hw.register_map import CORRELATOR_LENGTH
from repro.kernels import (
    prepare_stacked,
    xcorr_detect_stacked,
    xcorr_detect_stacked_batch,
)
from tests.kernels.test_xcorr_kernels import _reference_metric

#: seed for the data stream, bank count, per-chunk sizes (zeros allowed
#: — an empty chunk must be a no-op), and a per-bank threshold scale.
stream_case = st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 4),
    st.lists(st.integers(0, 160), min_size=1, max_size=6),
    st.integers(0, 2_000),
)


def _make_banks(rng, n_banks):
    return [(rng.integers(-4, 4, CORRELATOR_LENGTH),
             rng.integers(-4, 4, CORRELATOR_LENGTH))
            for _ in range(n_banks)]


def _single(coeffs_i, coeffs_q, threshold=0):
    """An independent ``K = 1`` correlator holding one bank."""
    correlator = CrossCorrelator()
    correlator.load_banks([(coeffs_i, coeffs_q)], [threshold])
    return correlator


class TestStreamingChunkSplits:
    @given(stream_case)
    @settings(max_examples=40, deadline=None)
    def test_detect_matches_independent_streams(self, case):
        seed, n_banks, chunk_sizes, threshold_scale = case
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        # Low thresholds so triggers and edges actually occur on noise.
        thresholds = rng.integers(0, threshold_scale + 1, n_banks)
        samples = rng.normal(size=sum(chunk_sizes)) \
            + 1j * rng.normal(size=sum(chunk_sizes))

        banked = CrossCorrelator()
        banked.load_banks(banks, thresholds)
        singles = [_single(ci, cq, thr)
                   for (ci, cq), thr in zip(banks, thresholds)]

        position = 0
        for size in chunk_sizes:
            chunk = samples[position:position + size]
            position += size
            trigger, edges = banked.detect(chunk)
            assert trigger.shape == (n_banks, size)
            for k, single in enumerate(singles):
                t, e = single.detect(chunk)
                np.testing.assert_array_equal(trigger[k], t[0])
                np.testing.assert_array_equal(edges[k], e[0])

    @given(stream_case)
    @settings(max_examples=30, deadline=None)
    def test_metric_plane_matches_independent_streams(self, case):
        seed, n_banks, chunk_sizes, _scale = case
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        samples = rng.normal(size=sum(chunk_sizes)) \
            + 1j * rng.normal(size=sum(chunk_sizes))

        banked = CrossCorrelator()
        banked.load_banks(banks, np.zeros(n_banks, dtype=np.int64))
        singles = [_single(ci, cq) for ci, cq in banks]

        position = 0
        planes = []
        for size in chunk_sizes:
            chunk = samples[position:position + size]
            position += size
            plane = banked.metric(chunk)
            assert plane.shape == (n_banks, size)
            for k, single in enumerate(singles):
                np.testing.assert_array_equal(plane[k],
                                              single.metric(chunk)[0])
            planes.append(plane)
        whole = np.concatenate(planes, axis=1)
        # np.correlate's "valid" mode swaps operands on an empty
        # stream, so the reference only speaks for non-empty ones.
        for k, (ci, cq) in enumerate(banks if samples.size else ()):
            np.testing.assert_array_equal(
                whole[k], _reference_metric(samples, ci, cq))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_chunked_equals_one_shot(self, seed, n_banks):
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        thresholds = rng.integers(0, 2_000, n_banks)
        samples = rng.normal(size=300) + 1j * rng.normal(size=300)

        one_shot = CrossCorrelator()
        one_shot.load_banks(banks, thresholds)
        _trigger, whole_edges = one_shot.detect(samples)

        chunked = CrossCorrelator()
        chunked.load_banks(banks, thresholds)
        collected = [[] for _ in range(n_banks)]
        for start in range(0, 300, 77):
            _t, edges = chunked.detect(samples[start:start + 77])
            for k in range(n_banks):
                collected[k].extend(edges[k] + start)
        for k in range(n_banks):
            np.testing.assert_array_equal(np.array(collected[k]),
                                          whole_edges[k])


class TestBatchLeg:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_batch_rows_equal_streaming_stacked(self, seed, n_banks,
                                                batch):
        rng = np.random.default_rng(seed)
        banks = [(rng.integers(-4, 4, 8), rng.integers(-4, 4, 8))
                 for _ in range(n_banks)]
        stacked = prepare_stacked(banks)
        thresholds = rng.integers(0, 200, n_banks)
        width = 40
        lengths = rng.integers(1, width + 1, batch)
        blocks = rng.normal(size=(batch, width)) \
            + 1j * rng.normal(size=(batch, width))

        result = xcorr_detect_stacked_batch(blocks, lengths, stacked,
                                            thresholds)

        history = np.zeros(2 * stacked.history_pairs, dtype=np.int8)
        last = np.zeros(n_banks, dtype=bool)
        from repro.kernels import sign_plane
        for b in range(batch):
            row = blocks[b, :lengths[b]]
            plane = np.concatenate([history, sign_plane(row)])
            ref = xcorr_detect_stacked(plane, stacked, thresholds,
                                       last=last)
            n = int(lengths[b])
            np.testing.assert_array_equal(result.metric[b, :, :n],
                                          ref.metric)
            np.testing.assert_array_equal(result.trigger[b, :, :n],
                                          ref.trigger)
            for k in range(n_banks):
                np.testing.assert_array_equal(
                    np.flatnonzero(result.edge_plane[b, k, :n]),
                    ref.edges[k])
            history = plane[2 * n:]
            last = ref.last
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)
