"""The kernel metric is byte-identical to the Fig. 3 datapath.

These are property tests: random sign planes and random 3-bit
coefficient banks run as a ``K = 1`` stack, with the kernel metric
compared against an int64 brute-force evaluation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels import prepare_stacked, xcorr_metric_stacked


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
        got = xcorr_metric_stacked(plane, prepared)
        np.testing.assert_array_equal(got[0], _brute_metric(plane, ci, cq))


class TestAllAvailableBackends:
    def test_every_available_backend_agrees_on_the_paper_shape(self):
        # The paper's 64-tap bank over a long plane, brute-forced.
        rng = np.random.default_rng(9)
        ci = rng.integers(-4, 4, 64)
        cq = rng.integers(-4, 4, 64)
        prepared = prepare_stacked([(ci, cq)])
        plane = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=2 * (63 + 777))
        got = xcorr_metric_stacked(plane, prepared)
        np.testing.assert_array_equal(got[0], _brute_metric(plane, ci, cq))
