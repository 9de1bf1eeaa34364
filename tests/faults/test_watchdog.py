"""The in-fabric watchdog: duty guard, re-arm timeout, safe state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw import register_map as regmap
from repro.hw.dsp_core import CustomDspCore
from repro.hw.usrp import UsrpN210
from repro.hw.watchdog import (
    TRIP_DUTY_CYCLE,
    TRIP_ILLEGAL_REGISTER,
    TRIP_REARM_TIMEOUT,
    Watchdog,
    WatchdogConfig,
)


class TestConfigValidation:
    def test_duty_cycle_bounds(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(max_duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            WatchdogConfig(max_duty_cycle=1.5)

    def test_window_positive(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(duty_window_samples=0)

    def test_timeout_non_negative(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(rearm_timeout_samples=-1)


class TestDutyGuard:
    def _wd(self, max_duty=0.5, window=100):
        return Watchdog(WatchdogConfig(max_duty_cycle=max_duty,
                                       duty_window_samples=window))

    def test_admit_within_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert wd.duty_cycle(100) == 0.5
        assert wd.trips == []

    def test_veto_over_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert not wd.admit_interval(60, 80)
        trips = wd.trips_by_reason(TRIP_DUTY_CYCLE)
        assert len(trips) == 1
        assert trips[0].time == 60
        # The vetoed burst left no trace in the budget.
        assert wd.duty_cycle(100) == 0.5

    def test_sliding_window_frees_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert not wd.admit_interval(60, 110)
        # A full window later the old span has aged out.
        assert wd.admit_interval(200, 250)

    def test_guard_disabled_at_full_duty(self):
        wd = self._wd(max_duty=1.0)
        for k in range(10):
            assert wd.admit_interval(k * 10, k * 10 + 10)
        assert wd.trips == []

    def test_continuous_throttled_to_budget(self):
        wd = self._wd()
        allowed = wd.continuous_allowance(0, 80)
        assert allowed == 50
        assert wd.trips_by_reason(TRIP_DUTY_CYCLE)
        # The budget is spent for the rest of the window...
        assert wd.continuous_allowance(50, 40) == 0
        # ...and refills once the window slides past the spans.
        assert wd.continuous_allowance(200, 40) == 40

    def test_reset_clears_state(self):
        wd = self._wd()
        wd.admit_interval(0, 50)
        wd.admit_interval(60, 80)
        wd.reset()
        assert wd.trips == []
        assert wd.duty_cycle(100) == 0.0


class TestSafeState:
    def test_flag_and_clear(self):
        wd = Watchdog()
        assert not wd.safe_state
        wd.flag_illegal(21, time=5, detail="bad waveform")
        assert wd.safe_state
        assert wd.illegal_registers == {21: "bad waveform"}
        wd.clear_illegal(21)
        assert not wd.safe_state

    def test_trips_once_per_flagged_register(self):
        wd = Watchdog()
        wd.flag_illegal(21, time=5, detail="bad")
        wd.flag_illegal(21, time=9, detail="still bad")
        assert len(wd.trips_by_reason(TRIP_ILLEGAL_REGISTER)) == 1
        wd.clear_illegal(21)
        wd.flag_illegal(21, time=20, detail="bad again")
        assert len(wd.trips_by_reason(TRIP_ILLEGAL_REGISTER)) == 2


class _FakeFsm:
    def __init__(self, armed_since):
        self.armed_since = armed_since
        self.resets = 0

    def reset(self):
        self.resets += 1


class TestRearmTimeout:
    def test_disabled_by_default(self):
        wd = Watchdog()
        fsm = _FakeFsm(armed_since=0)
        assert not wd.check_rearm(fsm, now=10 ** 9)
        assert fsm.resets == 0

    def test_stale_fsm_is_reset(self):
        wd = Watchdog(WatchdogConfig(rearm_timeout_samples=1000))
        fsm = _FakeFsm(armed_since=100)
        assert not wd.check_rearm(fsm, now=1100)  # exactly at the limit
        assert wd.check_rearm(fsm, now=1101)
        assert fsm.resets == 1
        assert wd.trips_by_reason(TRIP_REARM_TIMEOUT)

    def test_idle_fsm_untouched(self):
        wd = Watchdog(WatchdogConfig(rearm_timeout_samples=10))
        fsm = _FakeFsm(armed_since=None)
        assert not wd.check_rearm(fsm, now=10 ** 6)
        assert fsm.resets == 0


class TestCoreIntegration:
    """Safe state entry/exit through the register decode path."""

    def _device(self):
        device = UsrpN210(watchdog=Watchdog())
        bus = device.bus
        bus.write(regmap.REG_CONTROL_FLAGS,
                  regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
        return device, bus

    def test_illegal_waveform_suppresses_tx(self):
        device, bus = self._device()
        noise = np.zeros(256, dtype=np.complex128)
        assert np.any(device.process(noise).tx != 0)  # continuous TX on
        bus.write(regmap.REG_JAM_WAVEFORM, 3)  # undefined preset select
        assert device.core.watchdog.safe_state
        assert np.all(device.process(noise).tx == 0)
        trips = device.core.watchdog.trips_by_reason(TRIP_ILLEGAL_REGISTER)
        assert len(trips) == 1
        assert str(regmap.REG_JAM_WAVEFORM) in trips[0].detail

    def test_legal_word_exits_safe_state(self):
        device, bus = self._device()
        noise = np.zeros(256, dtype=np.complex128)
        bus.write(regmap.REG_JAM_WAVEFORM, 3)
        assert np.all(device.process(noise).tx == 0)
        bus.write(regmap.REG_JAM_WAVEFORM, 0)  # back to WGN
        assert not device.core.watchdog.safe_state
        assert np.any(device.process(noise).tx != 0)

    def test_without_watchdog_illegal_word_raises(self):
        device = UsrpN210()
        with pytest.raises(ConfigurationError):
            device.bus.write(regmap.REG_JAM_WAVEFORM, 3)


class TestDutyGuardChunking:
    """A vetoed burst frees the pipeline however the stream is chunked."""

    @staticmethod
    def _run(chunk):
        rng = np.random.default_rng(5)
        rx = 1e-3 * (rng.standard_normal(4096)
                     + 1j * rng.standard_normal(4096))
        for lo in (100, 1290, 1490):
            rx[lo:lo + 100] *= 300
        core = CustomDspCore(watchdog=Watchdog(WatchdogConfig(
            max_duty_cycle=0.5, duty_window_samples=1000)))
        core.bus.write(regmap.REG_JAM_UPTIME, 400)
        jams = []
        for lo in range(0, rx.size, chunk):
            jams.extend(core.process(rx[lo:lo + chunk]).jams)
        trips = [(trip.time, trip.reason) for trip in core.watchdog.trips]
        return [(j.trigger_time, j.start, j.end) for j in jams], trips

    @pytest.mark.parametrize("chunk", [4096, 1400])
    def test_vetoed_burst_does_not_block_same_chunk_trigger(self, chunk):
        # The burst triggered at 1290 is vetoed; the trigger at 1490
        # falls inside its would-be span and must still fire, whether
        # or not the two triggers share a chunk.
        jams, trips = self._run(chunk)
        assert jams == [(0, 2, 402), (1490, 1492, 1892)]
        assert trips == [(1292, TRIP_DUTY_CYCLE)]
