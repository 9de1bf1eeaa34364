"""The transmit path gives the same output under every chunking.

One short trace of energy pulses runs through ``CustomDspCore`` in one
chunk and in random splits; the transmit bytes, detections and jam
bursts must match the single-shot run for every waveform preset and
continuous mode, with and without the watchdog's duty guard.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import register_map as regmap
from repro.hw.dsp_core import CustomDspCore
from repro.hw.tx_controller import JamWaveform
from repro.hw.watchdog import Watchdog, WatchdogConfig

TRACE_SAMPLES = 3000


def _trace() -> np.ndarray:
    rng = np.random.default_rng(11)
    rx = 1e-3 * (rng.standard_normal(TRACE_SAMPLES)
                 + 1j * rng.standard_normal(TRACE_SAMPLES))
    # Energy rises closer together than one burst, so triggers are
    # dropped as busy, vetoed by the guard, and share chunks.
    for lo in (60, 170, 420, 500, 610, 980, 1100, 1190, 1650, 2300, 2390):
        rx[lo:lo + 40] *= 300
    return rx


RX = _trace()

#: Duty guards per mode.  Continuous transmission is throttled chunk
#: by chunk (a long-run duty bound, not a per-burst veto), so in that
#: mode the guard runs with a budget the trace never exhausts: the
#: continuous span plus every burst scheduled beside it.
GUARDS = {
    "burst": WatchdogConfig(max_duty_cycle=0.3, duty_window_samples=1000),
    "continuous": WatchdogConfig(max_duty_cycle=0.9,
                                 duty_window_samples=10_000),
}


def _core(mode: str, guarded: bool) -> CustomDspCore:
    continuous = mode == "continuous"
    guard = GUARDS["continuous" if continuous else "burst"]
    core = CustomDspCore(watchdog=Watchdog(guard) if guarded else None)
    bus = core.bus
    bus.write(regmap.REG_JAM_UPTIME, 150)
    bus.write(regmap.REG_JAM_DELAY, 20)
    bus.write(regmap.REG_REPLAY_LENGTH, 64)
    waveform = JamWaveform.WGN if continuous else JamWaveform[mode]
    bus.write(regmap.REG_JAM_WAVEFORM, int(waveform))
    core.tx.set_host_waveform(np.exp(2j * np.pi * np.arange(37) / 37))
    flags = regmap.FLAG_JAMMER_ENABLE
    if continuous:
        flags |= regmap.FLAG_CONTINUOUS
    bus.write(regmap.REG_CONTROL_FLAGS, flags)
    return core


def _run(mode: str, guarded: bool, cuts: list[int]):
    core = _core(mode, guarded)
    bounds = [0, *cuts, TRACE_SAMPLES]
    tx, detections, jams = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        out = core.process(RX[lo:hi])
        tx.append(out.tx)
        detections.extend(out.detections)
        jams.extend(out.jams)
    return np.concatenate(tx).tobytes(), detections, jams


@functools.cache
def _single_shot(mode: str, guarded: bool):
    return _run(mode, guarded, [])


MODES = ["WGN", "REPLAY", "HOST_STREAM", "continuous"]

cut_lists = st.lists(st.integers(1, TRACE_SAMPLES - 1), max_size=8,
                     unique=True).map(sorted)


@pytest.mark.parametrize("guarded", [False, True],
                         ids=["unguarded", "duty-guard"])
@pytest.mark.parametrize("mode", MODES)
@given(cuts=cut_lists)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_tx_path_is_chunking_invariant(mode, guarded, cuts):
    tx, detections, jams = _run(mode, guarded, cuts)
    ref_tx, ref_detections, ref_jams = _single_shot(mode, guarded)
    assert detections == ref_detections
    assert jams == ref_jams
    assert tx == ref_tx


def test_trace_exercises_busy_drops_and_vetoes():
    _tx, detections, jams = _single_shot("WGN", False)
    _tx, _detections, guarded_jams = _single_shot("WGN", True)
    assert len(jams) < len(detections)
    assert 0 < len(guarded_jams) < len(jams)
