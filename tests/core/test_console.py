"""Tests for the jammer control console (the paper's GUI equivalent)."""

from __future__ import annotations

import pytest

from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.tools.console import JammerConsole


@pytest.fixture
def console() -> JammerConsole:
    return JammerConsole()


class TestCommands:
    def test_template_loads_coefficients(self, console):
        reply = console.execute("template wifi-short")
        assert "wifi-short" in reply
        ci, _cq = console.device.core.correlator.bank_coefficients(0)
        assert ci.any()

    def test_unknown_template(self, console):
        assert "error" in console.execute("template lte")

    def test_threshold(self, console):
        console.execute("threshold 12345")
        assert console.device.core.correlator.thresholds[0] == 12345

    def test_energy(self, console):
        console.execute("energy 12 6")
        assert console.device.core.energy.threshold_high_db == 12.0
        assert console.device.core.energy.threshold_low_db == 6.0

    def test_energy_range_error_reported(self, console):
        assert "error" in console.execute("energy 50 10")

    def test_trigger_sequence(self, console):
        reply = console.execute("trigger energy-rise xcorr window 250")
        assert "ENERGY_HIGH -> XCORR" in reply
        fsm = console.device.core.fsm
        assert [s.source for s in fsm.stages] == [
            TriggerSource.ENERGY_HIGH, TriggerSource.XCORR]
        assert fsm.window_samples == 250

    def test_trigger_any_mode(self, console):
        console.execute("trigger xcorr energy-rise mode any")
        assert console.device.core.fsm.mode is TriggerMode.ANY

    def test_waveform_and_timing(self, console):
        console.execute("waveform replay")
        console.execute("uptime 1e-4")
        console.execute("delay 4e-6")
        tx = console.device.core.tx
        assert tx.waveform is JamWaveform.REPLAY
        assert tx.uptime_samples == 2500
        assert tx.delay_samples == 100

    def test_enable_disable(self, console):
        console.execute("enable off")
        assert not console.device.core.jammer_enabled
        console.execute("enable on")
        assert console.device.core.jammer_enabled

    def test_continuous(self, console):
        console.execute("continuous on")
        assert console.device.core.continuous

    def test_tune_and_gains(self, console):
        console.execute("tune 2.608e9")
        console.execute("txgain 20")
        console.execute("rxgain 10")
        fe = console.device.frontend
        assert fe.center_freq_hz == pytest.approx(2.608e9)
        assert fe.tx_gain_db == 20.0
        assert fe.rx_gain_db == 10.0

    def test_tune_out_of_range_reported(self, console):
        assert "error" in console.execute("tune 100e6")

    def test_status_mentions_configuration(self, console):
        console.execute("template wimax")
        console.execute("threshold 9000")
        status = console.execute("status")
        assert "wimax" in status
        assert "9000" in status

    def test_timeline_shows_budget(self, console):
        out = console.execute("timeline")
        assert "T_xcorr_det" in out
        assert "2.560 us" in out

    def test_registers_counter(self, console):
        before = console.execute("registers")
        console.execute("threshold 100")
        after = console.execute("registers")
        assert before != after

    def test_unknown_command(self, console):
        assert "error" in console.execute("fire-the-lasers")

    def test_empty_line(self, console):
        assert console.execute("") == ""

    def test_quit(self, console):
        console.execute("quit")
        assert console.done

    def test_help_lists_commands(self, console):
        text = console.execute("help")
        for word in ("template", "trigger", "uptime", "demo"):
            assert word in text


class TestDemos:
    @pytest.mark.parametrize("kind,template", [
        ("wifi", "wifi-short"),
        ("wimax", "wimax"),
        ("zigbee", "zigbee"),
    ])
    def test_demo_detects_and_jams(self, console, kind, template):
        console.execute(f"template {template}")
        console.execute("threshold 20000" if kind != "wimax"
                        else "threshold 9000")
        console.execute("trigger xcorr")
        console.execute("uptime 1e-5")
        reply = console.execute(f"demo {kind}")
        assert "jam bursts" in reply
        assert " 0 jam bursts" not in reply

    def test_unknown_demo(self, console):
        console.execute("template wifi-short")
        console.execute("trigger xcorr")
        assert "error" in console.execute("demo lte")


class TestFaCalibration:
    def test_fa_sets_threshold_from_budget(self, console):
        console.execute("template wifi-long")
        reply = console.execute("fa 0.083")
        assert "calibrated" in reply
        strict = console.device.core.correlator.thresholds[0]
        console.execute("fa 0.52")
        loose = console.device.core.correlator.thresholds[0]
        assert strict > loose > 0

    def test_fa_requires_template(self, console):
        assert "error" in console.execute("fa 0.1")


class TestImpairments:
    def test_profiles_attach_to_ddc(self, console):
        from repro.hw.impairments import TYPICAL_N210

        assert console.device.ddc.impairments is None
        console.execute("impairments typical")
        assert console.device.ddc.impairments == TYPICAL_N210
        console.execute("impairments off")
        assert console.device.ddc.impairments is None

    def test_unknown_profile(self, console):
        assert "error" in console.execute("impairments filthy")


class TestTelemetryCommands:
    def _run_demo(self, console):
        console.execute("template wifi-short")
        console.execute("threshold 20000")
        console.execute("trigger xcorr")
        console.execute("uptime 1e-5")
        console.execute("demo wifi")

    def test_stats_after_demo(self, console):
        self._run_demo(console)
        text = console.execute("stats")
        assert "error" not in text
        assert "detect.xcorr" in text

    def test_stats_disabled_bundle(self):
        from repro.telemetry import Telemetry

        console = JammerConsole(telemetry=Telemetry.disabled())
        assert console.execute("stats") == "telemetry is disabled"

    def test_trace_writes_chrome_json(self, console, tmp_path):
        import json

        self._run_demo(console)
        out = tmp_path / "demo.trace.json"
        reply = console.execute(f"trace {out}")
        assert "trace written" in reply
        data = json.loads(out.read_text())
        assert data["traceEvents"]
        names = {e.get("name") for e in data["traceEvents"]}
        assert "detect.xcorr" in names

    def test_trace_disabled_bundle(self, tmp_path):
        from repro.telemetry import Telemetry

        console = JammerConsole(telemetry=Telemetry.disabled())
        assert "error" in console.execute(f"trace {tmp_path / 'x.json'}")

    def test_help_lists_telemetry_commands(self, console):
        text = console.execute("help")
        assert "stats" in text
        assert "trace" in text


class TestSweepCommands:
    def test_help_lists_sweep_commands(self, console):
        text = console.execute("help")
        assert "sweep run" in text
        assert "sweep status" in text

    def test_status_before_any_run(self, console):
        import repro.runtime.jobs as jobs

        jobs._LAST_HEALTH = None  # isolate from other tests' sweeps
        assert "no sweep has run yet" in console.execute("sweep status")

    def test_run_then_status_shows_health(self, console):
        reply = console.execute("sweep run")
        assert "P(detect)" in reply
        assert "crashes: 0" in reply
        status = console.execute("sweep status")
        assert "completed" in status
        assert "retries" in status

    def test_unknown_subcommand(self, console):
        assert "error" in console.execute("sweep bogus")


class TestDefenseCommands:
    def test_help_lists_defense_commands(self, console):
        text = console.execute("help")
        assert "defense roc" in text
        assert "defense tournament" in text

    def test_roc_reports_auc_per_detector(self, console):
        reply = console.execute(
            "defense roc --trials=2 --seed=3")
        assert "logistic" in reply and "xu-rule" in reply
        assert "auc=" in reply
        assert "op@fpr<=0.1" in reply

    def test_tournament_prints_policy_table(self, console):
        reply = console.execute(
            "defense tournament --policies=1,0.5 --trials=2 --seed=3")
        assert "always" in reply and "p0.5" in reply
        assert "auc:logistic" in reply and "auc:xu-rule" in reply
        assert "effic" in reply

    def test_constant_scenario(self, console):
        reply = console.execute(
            "defense roc --scenario=constant --trials=2")
        assert "error" not in reply
        assert "auc=" in reply

    def test_unknown_subcommand_and_option(self, console):
        assert "error" in console.execute("defense bogus")
        assert "error" in console.execute("defense roc --frobnicate=1")

    def test_invalid_policy_probability_is_reported(self, console):
        reply = console.execute("defense tournament --policies=0")
        assert reply.startswith("error:")
