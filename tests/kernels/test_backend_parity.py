"""Every registered backend is byte-identical to the numpy reference.

These are property tests: random sign planes and random 3-bit
coefficient banks run as a ``K = 1`` stack, with the numpy reference
compared against an int64 brute-force evaluation (and against the
numba JIT when that optional dependency is installed — the numba cases
auto-skip otherwise).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    BackendUnavailable,
    available_backends,
    get_backend,
    prepare_stacked,
)


def _brute_metric(plane, ci, cq):
    """Int64 brute force straight off the Fig. 3 datapath."""
    taps = ci.size
    sign_i = plane[0::2].astype(np.int64)
    sign_q = plane[1::2].astype(np.int64)
    n = sign_i.size - (taps - 1)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        wi = sign_i[t:t + taps]
        wq = sign_q[t:t + taps]
        corr_re = int(np.dot(ci, wi) + np.dot(cq, wq))
        corr_im = int(np.dot(ci, wq) - np.dot(cq, wi))
        out[t] = corr_re * corr_re + corr_im * corr_im
    return out


def _numba_backend_or_skip():
    try:
        return get_backend("numba")
    except BackendUnavailable:
        pytest.skip("numba is not installed")


#: Small banks keep the brute force cheap while exercising every
#: alignment of the block-Toeplitz evaluation.
bank_and_plane = st.integers(min_value=2, max_value=12).flatmap(
    lambda taps: st.tuples(
        st.lists(st.integers(-4, 3), min_size=taps, max_size=taps),
        st.lists(st.integers(-4, 3), min_size=taps, max_size=taps),
        st.lists(st.sampled_from([-1, 0, 1]),
                 min_size=2 * taps, max_size=2 * (taps + 40)),
    )
)


class TestNumpyAgainstBruteForce:
    @given(bank_and_plane)
    @settings(max_examples=60, deadline=None)
    def test_metric_matches_brute_force(self, case):
        ci_list, cq_list, plane_list = case
        ci = np.array(ci_list, dtype=np.int64)
        cq = np.array(cq_list, dtype=np.int64)
        # Round the plane down to whole I/Q pairs.
        plane = np.array(plane_list[:len(plane_list) & ~1],
                         dtype=np.int8)
        if plane.size // 2 < ci.size:
            plane = np.pad(plane, (0, 2 * ci.size - plane.size))
        prepared = prepare_stacked([(ci, cq)])
        got = get_backend("numpy").xcorr_metric_stacked(plane, prepared)
        np.testing.assert_array_equal(got[0], _brute_metric(plane, ci, cq))


class TestNumbaParity:
    @given(bank_and_plane)
    @settings(max_examples=25, deadline=None)
    def test_xcorr_metric_parity(self, case):
        backend = _numba_backend_or_skip()
        ci_list, cq_list, plane_list = case
        ci = np.array(ci_list, dtype=np.int64)
        cq = np.array(cq_list, dtype=np.int64)
        plane = np.array(plane_list[:len(plane_list) & ~1],
                         dtype=np.int8)
        if plane.size // 2 < ci.size:
            plane = np.pad(plane, (0, 2 * ci.size - plane.size))
        prepared = prepare_stacked([(ci, cq)])
        np.testing.assert_array_equal(
            backend.xcorr_metric_stacked(plane, prepared),
            get_backend("numpy").xcorr_metric_stacked(plane, prepared))

    @given(st.integers(1, 16), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moving_sums_parity(self, window, n, seed):
        backend = _numba_backend_or_skip()
        rng = np.random.default_rng(seed)
        padded = rng.random(window + n)
        np.testing.assert_array_equal(
            backend.moving_sums(padded, window),
            get_backend("numpy").moving_sums(padded, window))


class TestAllAvailableBackends:
    def test_every_available_backend_agrees_on_the_paper_shape(self):
        rng = np.random.default_rng(9)
        ci = rng.integers(-4, 4, 64)
        cq = rng.integers(-4, 4, 64)
        prepared = prepare_stacked([(ci, cq)])
        plane = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=2 * (63 + 777))
        reference = get_backend("numpy").xcorr_metric_stacked(plane,
                                                              prepared)
        np.testing.assert_array_equal(reference[0],
                                      _brute_metric(plane, ci, cq))
        for name in available_backends():
            np.testing.assert_array_equal(
                get_backend(name).xcorr_metric_stacked(plane, prepared),
                reference, err_msg=f"backend {name!r} diverged")
