"""Batched energy-differentiator kernels (paper Fig. 4).

The streaming block is a length-``window`` moving energy sum compared
against its own value ``delay`` samples earlier.  Batching rows is
*not* free of state the way it looks: the moving sum is evaluated as a
float64 cumulative-sum difference, and float addition does not cancel
prefixes — ``(A + x) - (A + y) != x - y`` in general — so a batched
row must start from the previous row's *actual* tail values, not from
a fresh zero tail, to stay byte-identical to the stream.  The chained
kernel therefore stitches two per-row carries:

* the last ``window`` energies of the previous row (moving-sum warmup);
* the last ``delay`` sums of the previous row (the Z^-64 delay line).

Rows shorter than a tail reach into their own stitched prefix, which
makes the gather order-dependent; that rare shape falls back to a
sequential stitch, keeping the identity guarantee unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.dispatch import get_backend
from repro.kernels.xcorr import batch_rows, chained_edges, stitch_tails


def iq_energy(pairs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-sample energy ``I*I + Q*Q`` of a pair plane, into ``out``.

    An IQ16 plane gives integers below 2**31: exact in float64, as are
    the moving sums over them.
    """
    squares = np.square(pairs, dtype=np.float64)
    return np.add(squares[..., 0], squares[..., 1], out=out)


def moving_sums(padded: np.ndarray, window: int,
                out: np.ndarray | None = None,
                csum_scratch=None) -> np.ndarray:
    """Moving sums over ``[tail | energies]`` rows."""
    return get_backend().moving_sums(padded, window, out=out,
                                     csum_scratch=csum_scratch)


@dataclass(frozen=True)
class EnergyBatchResult:
    """Chained batch result of the energy differentiator.

    ``trigger_high``/``trigger_low`` are raw ``(batch, width)`` planes
    (columns past a row's length are meaningless); the edge planes are
    masked to valid columns.  ``energy_tail``/``sum_tail`` and the two
    ``last`` bits are the carry-out stream state.
    """

    sums: np.ndarray
    trigger_high: np.ndarray
    trigger_low: np.ndarray
    edge_high: np.ndarray
    edge_low: np.ndarray
    energy_tail: np.ndarray
    sum_tail: np.ndarray
    last_high: bool
    last_low: bool


def energy_detect_batch(blocks: np.ndarray, lengths: np.ndarray,
                        window: int, delay: int,
                        threshold_high: float, threshold_low: float,
                        energy_tail: np.ndarray | None = None,
                        sum_tail: np.ndarray | None = None,
                        last_high: bool = False, last_low: bool = False
                        ) -> EnergyBatchResult:
    """Run a batch of chained sample rows through the energy detector.

    Same contract as :func:`repro.kernels.xcorr.xcorr_detect_stacked_batch`:
    ``blocks`` is ``(batch, width)`` complex, or its ``(batch, width,
    2)`` pair plane, with per-row valid ``lengths``; rows are chained
    through the stitched tails, and the result is byte-identical to
    the streaming facade fed row by row.
    ``threshold_high``/``threshold_low`` are the *linear* ratios.
    """
    blocks, lengths = batch_rows(blocks, lengths)
    batch, width = blocks.shape[:2]

    # Zero padding has zero energy, and every padded-column value is
    # sliced off or masked before it can reach a carried tail.
    padded = np.empty((batch, window + width), dtype=np.float64)
    iq_energy(blocks, out=padded[:, window:])
    if energy_tail is None:
        energy_tail = np.zeros(window, dtype=np.float64)
    stitch_tails(padded, lengths, energy_tail, window)

    sums = moving_sums(padded, window)

    delayed_full = np.empty((batch, delay + width), dtype=np.float64)
    delayed_full[:, delay:] = sums
    if sum_tail is None:
        sum_tail = np.zeros(delay, dtype=np.float64)
    stitch_tails(delayed_full, lengths, sum_tail, delay)
    delayed = delayed_full[:, :width]

    trigger_high = sums > delayed * threshold_high
    trigger_low = sums * threshold_low < delayed

    tail_start = int(lengths[-1])
    return EnergyBatchResult(
        sums=sums,
        trigger_high=trigger_high,
        trigger_low=trigger_low,
        edge_high=chained_edges(trigger_high, lengths, last_high),
        edge_low=chained_edges(trigger_low, lengths, last_low),
        energy_tail=padded[-1, tail_start:tail_start + window].copy(),
        sum_tail=delayed_full[-1, tail_start:tail_start + delay].copy(),
        last_high=bool(trigger_high[-1, lengths[-1] - 1]),
        last_low=bool(trigger_low[-1, lengths[-1] - 1]),
    )
