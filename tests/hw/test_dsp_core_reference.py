"""The vectorized core vs a sample-by-sample reference implementation.

``CustomDspCore`` runs an event-driven fast path (vectorized triggers,
edge lists, interval synthesis).  This module re-implements the whole
detect-trigger-jam pipeline the slow, obviously-correct way — one
sample at a time, mimicking per-clock hardware — and checks the fast
path produces identical detections, jam intervals, and transmit
samples on short signals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.dsp.fixed_point import quantize_iq16, sign_bits
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import pack_signed_fields
from repro.hw.trigger import TriggerSource
from repro.hw.tx_controller import INIT_LATENCY_SAMPLES
from tests.planes import iq16


class ReferenceCore:
    """A per-sample software model of the detect-and-jam pipeline.

    Single XCORR trigger stage, WGN waveform; enough surface to
    cross-check the fast path's event machinery end to end.
    """

    def __init__(self, coeffs_i, coeffs_q, threshold, uptime, delay):
        self.ci = np.asarray(coeffs_i, dtype=np.int64)
        self.cq = np.asarray(coeffs_q, dtype=np.int64)
        self.threshold = threshold
        self.uptime = uptime
        self.delay = delay

    def run(self, rx: np.ndarray):
        quantized = quantize_iq16(rx)
        si = sign_bits(quantized.real).astype(np.int64)
        sq = sign_bits(quantized.imag).astype(np.int64)
        n = rx.size
        detections = []
        jams = []
        busy_until = -1
        prev_trig = False
        for t in range(n):
            # 64-tap sign correlation ending at sample t.
            re = im = 0
            for k in range(64):
                idx = t - 63 + k
                if idx < 0:
                    continue
                re += self.ci[k] * si[idx] + self.cq[k] * sq[idx]
                im += self.ci[k] * sq[idx] - self.cq[k] * si[idx]
            trig = (re * re + im * im) > self.threshold
            if trig and not prev_trig:
                detections.append(t)
                if t >= busy_until:
                    start = t + INIT_LATENCY_SAMPLES + self.delay
                    jams.append((t, start, start + self.uptime))
                    busy_until = start + self.uptime
            prev_trig = trig
        return detections, jams


def program_core(template, threshold, uptime, delay) -> CustomDspCore:
    core = CustomDspCore()
    ci, cq = quantize_coefficients(template)
    for off, word in enumerate(pack_signed_fields([int(c) for c in ci], 3)):
        core.bus.write(regmap.REG_COEFF_I_BASE + off, word)
    for off, word in enumerate(pack_signed_fields([int(c) for c in cq], 3)):
        core.bus.write(regmap.REG_COEFF_Q_BASE + off, word)
    core.bus.write(regmap.REG_XCORR_THRESHOLD, threshold)
    core.bus.write(regmap.REG_TRIGGER_CONFIG,
                   (1 << regmap.STAGE_ENABLE_SHIFT) | int(TriggerSource.XCORR))
    core.bus.write(regmap.REG_JAM_UPTIME, uptime)
    core.bus.write(regmap.REG_JAM_DELAY, delay)
    core.bus.write(regmap.REG_CONTROL_FLAGS, regmap.FLAG_JAMMER_ENABLE)
    return core


@pytest.mark.parametrize("uptime,delay,seed", [
    (50, 0, 1),
    (120, 0, 2),
    (30, 25, 3),
    (200, 10, 4),
])
def test_fast_path_matches_reference(uptime, delay, seed):
    rng = np.random.default_rng(seed)
    template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    threshold = 30_000

    rx = awgn(1500, 1e-6, rng)
    # Two preambles; the second may fall inside the first's busy span
    # depending on uptime, exercising trigger suppression.
    rx[300:364] += template
    rx[480:544] += template

    core = program_core(template, threshold, uptime, delay)
    ci, cq = core.correlator.bank_coefficients(0)
    reference = ReferenceCore(ci, cq, threshold, uptime, delay)

    tx_parts, detections, jams = [], [], []
    for lo in range(0, rx.size, 333):
        chunk_out = core.process(iq16(rx[lo:lo + 333]))
        tx_parts.append(chunk_out.tx)
        detections.extend(chunk_out.detections)
        jams.extend(chunk_out.jams)
    tx = np.concatenate(tx_parts)
    ref_detections, ref_jams = reference.run(rx)

    fast_detections = [d.time for d in detections
                       if d.source is TriggerSource.XCORR]
    assert fast_detections == ref_detections

    fast_jams = [(j.trigger_time, j.start, j.end) for j in jams]
    assert fast_jams == ref_jams

    # TX activity exactly inside the reference's jam spans.
    active = np.abs(tx) > 0
    expected = np.zeros(rx.size, dtype=bool)
    for _trig, start, end in ref_jams:
        expected[start:min(end, rx.size)] = True
    assert np.array_equal(active, expected)


def test_reference_agrees_on_quiet_input():
    rng = np.random.default_rng(9)
    template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    core = program_core(template, 30_000, 50, 0)
    ci, cq = core.correlator.bank_coefficients(0)
    reference = ReferenceCore(ci, cq, 30_000, 50, 0)
    rx = awgn(800, 1e-6, rng)
    out = core.process(iq16(rx))
    ref_detections, ref_jams = reference.run(rx)
    assert [d.time for d in out.detections
            if d.source is TriggerSource.XCORR] == ref_detections
    assert ref_jams == [(j.trigger_time, j.start, j.end) for j in out.jams]
