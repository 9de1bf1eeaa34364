"""A UHD/gr-uhd-like host driver for the custom core.

The paper's host application (a GNU Radio Companion GUI) programs the
custom DSP core through UHD's ``set_user_register`` API.  This module
provides the equivalent named setters: each call translates a friendly
parameter into the packed register writes the hardware expects, so the
rest of the framework never touches raw addresses.

The driver is *hardened* against the N210's UDP-borne control path
(see :mod:`repro.faults`): by default every register write is verified
by readback and re-sent with exponential backoff until it sticks, the
driver keeps a host-side **shadow map** of every value it has written,
and :meth:`UhdDriver.scrub` compares the shadow against the device and
repairs any register that has drifted (dropped datagrams, stale
reordered writes, SEUs).  Backoff is *virtual* — the model accumulates
the would-be wait in :class:`DriverHealth` instead of sleeping, so
deterministic tests stay fast.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro import units
from repro.errors import ConfigurationError, RegisterError, RegisterWriteError
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.registers import WORD_MASK, UserRegisterBus, pack_signed_fields
from repro.hw.trigger import TriggerMode, TriggerSource, TriggerStateMachine
from repro.hw.tx_controller import (
    MAX_REPLAY_LENGTH,
    MAX_UPTIME_SAMPLES,
    JamWaveform,
)
from repro.hw.usrp import UsrpN210
from repro.telemetry.tracer import CAT_DRIVER, NULL_TRACER, Tracer

#: Verified-write retry budget: the original send plus this many
#: re-sends before the driver gives up with :class:`RegisterWriteError`.
DEFAULT_MAX_RETRIES = 8


@dataclass
class DriverHealth:
    """Control-plane health counters kept by the hardened driver.

    Attributes:
        writes: Verified-write transactions attempted.
        retries: Individual re-sends after a failed verification.
        recovered_writes: Transactions that needed at least one retry
            but eventually verified.
        write_failures: Transactions abandoned after the retry budget
            (each raised :class:`~repro.errors.RegisterWriteError`).
        scrub_passes: Completed :meth:`UhdDriver.scrub` sweeps.
        scrub_repairs: Registers found drifted and rewritten by scrub.
        backoff_ops: Accumulated virtual exponential backoff, in bus
            operations (1, 2, 4, ... per successive retry).
    """

    writes: int = 0
    retries: int = 0
    recovered_writes: int = 0
    write_failures: int = 0
    scrub_passes: int = 0
    scrub_repairs: int = 0
    backoff_ops: int = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and logs)."""
        return asdict(self)


class UhdDriver:
    """Host-side control of one USRP running the custom core.

    ``verify_writes=True`` (the default) turns every register write
    into a write/readback/compare transaction with up to
    ``max_retries`` re-sends; ``verify_writes=False`` restores the
    fire-and-forget behaviour of plain ``set_user_register`` (useful
    as the *unhardened* arm of fault-injection experiments).
    """

    def __init__(self, device: UsrpN210, verify_writes: bool = True,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.device = device
        self.verify_writes = verify_writes
        self.max_retries = max_retries
        self.health = DriverHealth()
        self._bus: UserRegisterBus = device.bus
        self._shadow: dict[int, int] = {}
        #: Telemetry probe: register-write transactions land in the
        #: trace, stamped with the core's sample clock.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Hardened write path

    def _write(self, address: int, value: int) -> None:
        """Write one register, verified and shadowed.

        The value is validated host-side first so caller bugs surface
        immediately (reject, never mask); only wire-level corruption
        enters the retry loop.  A :class:`ConfigurationError` raised by
        the core while decoding the landed word is treated the same as
        a readback mismatch: the word that arrived is not the word
        that was sent.
        """
        value = int(value)
        if not 0 <= value <= WORD_MASK:
            raise RegisterError(
                f"value {value:#x} does not fit the 32-bit data bus "
                "(the driver rejects out-of-range words, it never masks)"
            )
        self._shadow[address] = value
        if not self.verify_writes:
            self._bus.write(address, value)
            self.tracer.instant("register.write", CAT_DRIVER,
                                self.device.core.clock,
                                address=address, value=value, attempts=1)
            return
        self.health.writes += 1
        backoff = 1
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.health.retries += 1
                self.health.backoff_ops += backoff
                backoff *= 2
            try:
                self._bus.write(address, value)
                landed = self._bus.read(address)
            except ConfigurationError:
                # The core rejected what arrived — corruption on the
                # wire (or a stale reordered write landing mid-readback),
                # since the driver only sends decodable words.
                continue
            if landed == value:
                if attempt:
                    self.health.recovered_writes += 1
                self.tracer.instant("register.write", CAT_DRIVER,
                                    self.device.core.clock,
                                    address=address, value=value,
                                    attempts=attempt + 1)
                return
        self.health.write_failures += 1
        self.tracer.instant("register.write_failed", CAT_DRIVER,
                            self.device.core.clock,
                            address=address, value=value,
                            attempts=self.max_retries + 1)
        raise RegisterWriteError(
            f"register {address} write of {value:#x} could not be "
            f"verified after {self.max_retries + 1} attempts"
        )

    def scrub(self) -> list[int]:
        """Sweep the shadow map and repair any drifted register.

        Reads back every register the driver has ever written and
        rewrites (verified) those whose device contents disagree with
        the shadow — the detect-and-repair pass that catches dropped
        datagrams, stale reordered writes landing late, and SEU-style
        upsets that never crossed the wire at all.  Returns the
        repaired addresses in ascending order.

        A repair re-fires the core's register watcher, so in-flight
        soft state derived from that register (e.g. partial trigger-FSM
        progress under ``REG_TRIGGER_CONFIG``) is rebuilt, exactly as
        a host rewrite would on real hardware.
        """
        repaired: list[int] = []
        for address in sorted(self._shadow):
            value = self._shadow[address]
            try:
                drifted = self._bus.read(address) != value
            except ConfigurationError:
                drifted = True  # a stale write landed mid-read; repair
            if drifted:
                self._write(address, value)
                repaired.append(address)
        self.health.scrub_passes += 1
        self.health.scrub_repairs += len(repaired)
        return repaired

    def shadow_registers(self) -> dict[int, int]:
        """The host's intended register file (copy), address -> value."""
        return dict(self._shadow)

    # ------------------------------------------------------------------
    # Detection configuration

    def set_correlator_coefficients(self, coeffs_i: np.ndarray,
                                    coeffs_q: np.ndarray) -> None:
        """Ship 3-bit signed coefficient banks over the register bus."""
        words_i = pack_signed_fields([int(c) for c in coeffs_i],
                                     regmap.COEFF_BITS)
        words_q = pack_signed_fields([int(c) for c in coeffs_q],
                                     regmap.COEFF_BITS)
        if len(words_i) != regmap.COEFF_WORDS or len(words_q) != regmap.COEFF_WORDS:
            raise ConfigurationError(
                f"expected {regmap.CORRELATOR_LENGTH} coefficients per bank"
            )
        for offset, word in enumerate(words_i):
            self._write(regmap.REG_COEFF_I_BASE + offset, word)
        for offset, word in enumerate(words_q):
            self._write(regmap.REG_COEFF_Q_BASE + offset, word)

    def set_correlator_template(self, template: np.ndarray) -> None:
        """Quantize a complex preamble template and load it.

        This is the host-side "generated offline ... based on knowledge
        of the wireless standards' preambles" step from paper §2.3.
        """
        coeffs_i, coeffs_q = quantize_coefficients(template)
        self.set_correlator_coefficients(coeffs_i, coeffs_q)

    def set_xcorr_threshold(self, threshold: int) -> None:
        """Set the correlation detection threshold."""
        self._write(regmap.REG_XCORR_THRESHOLD, int(threshold))

    # ------------------------------------------------------------------
    # Multi-standard stacked banks

    def _check_bank_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank index {index} outside 0..{regmap.MAX_BANKS - 1}"
            )
        return index

    def _write_bank_coefficients(self, index: int, coeffs_i: np.ndarray,
                                 coeffs_q: np.ndarray) -> None:
        words_i = pack_signed_fields([int(c) for c in coeffs_i],
                                     regmap.COEFF_BITS)
        words_q = pack_signed_fields([int(c) for c in coeffs_q],
                                     regmap.COEFF_BITS)
        if len(words_i) != regmap.COEFF_WORDS \
                or len(words_q) != regmap.COEFF_WORDS:
            raise ConfigurationError(
                f"expected {regmap.CORRELATOR_LENGTH} coefficients per bank"
            )
        self._write(regmap.REG_BANK_SELECT, index)
        for offset, word in enumerate(words_i):
            self._write(regmap.REG_BANK_COEFF_I_BASE + offset, word)
        for offset, word in enumerate(words_q):
            self._write(regmap.REG_BANK_COEFF_Q_BASE + offset, word)

    def set_bank_threshold(self, index: int, threshold: int) -> None:
        """Retune one stacked bank's threshold (one verified write)."""
        index = self._check_bank_index(index)
        self._write(regmap.REG_BANK_THRESHOLD_BASE + index, int(threshold))

    def set_bank_count(self, count: int) -> None:
        """Select how many stacked banks run (0 = the paper's correlator)."""
        count = int(count)
        if not 0 <= count <= regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 0..{regmap.MAX_BANKS}, got {count}"
            )
        self._write(regmap.REG_BANK_COUNT, count)

    def set_correlator_bank(self, index: int, template: np.ndarray,
                            threshold: int | None = None,
                            label: str | None = None) -> None:
        """Hot-swap one stacked bank over the register bus (verified).

        The threshold, when given, is written *before* the coefficient
        words — a chunk processed mid-swap may see the old template
        with the new threshold, never the new template with a stale
        threshold.  Takes effect on the next processed chunk; the
        core's sign history and trigger carries are untouched, so
        :meth:`repro.core.jammer.ReactiveJammer.run` keeps streaming.
        """
        index = self._check_bank_index(index)
        if label is not None:
            self.device.core.set_bank_label(index, label)
        if threshold is not None:
            self.set_bank_threshold(index, threshold)
        coeffs_i, coeffs_q = quantize_coefficients(template)
        self._write_bank_coefficients(index, coeffs_i, coeffs_q)

    def set_correlator_banks(self, templates, thresholds,
                             labels=None) -> None:
        """Program K protocol banks and enable stacked detection.

        Atomic in the same sense as :meth:`set_trigger_stages`: the
        bank count is parked at 0 first, then every per-bank threshold
        and coefficient word is shipped (verified), and only then does
        the final count write arm the stacked correlator — no chunk
        can ever be processed against a partially-programmed bank set.
        """
        templates = list(templates)
        count = len(templates)
        if not 1 <= count <= regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 1..{regmap.MAX_BANKS}, got {count}"
            )
        thresholds = [int(t) for t in thresholds]
        if len(thresholds) != count:
            raise ConfigurationError(
                f"expected {count} thresholds, got {len(thresholds)}"
            )
        if labels is not None and len(labels) != count:
            raise ConfigurationError(
                f"expected {count} labels, got {len(labels)}"
            )
        self._write(regmap.REG_BANK_COUNT, 0)
        if labels is not None:
            for index, label in enumerate(labels):
                self.device.core.set_bank_label(index, label)
        for index, threshold in enumerate(thresholds):
            self.set_bank_threshold(index, threshold)
        for index, template in enumerate(templates):
            coeffs_i, coeffs_q = quantize_coefficients(template)
            self._write_bank_coefficients(index, coeffs_i, coeffs_q)
        self._write(regmap.REG_BANK_COUNT, count)

    def set_energy_thresholds(self, high_db: float, low_db: float) -> None:
        """Set energy rise/fall thresholds (3..30 dB)."""
        self._write(regmap.REG_ENERGY_THRESHOLD_HIGH,
                    regmap.encode_energy_threshold_db(high_db))
        self._write(regmap.REG_ENERGY_THRESHOLD_LOW,
                    regmap.encode_energy_threshold_db(low_db))

    def set_trigger_stages(self, sources: list[TriggerSource],
                           window_samples: int = 0,
                           mode: TriggerMode = TriggerMode.SEQUENCE) -> None:
        """Program the three-stage trigger state machine.

        The window register is written unconditionally: reprogramming
        with ``window_samples=0`` must clear a previously-set window
        rather than silently leaving the stale value in the hardware.
        """
        if not 1 <= len(sources) <= TriggerStateMachine.MAX_STAGES:
            raise ConfigurationError(
                "the trigger FSM supports 1 to 3 stages"
            )
        word = 0
        for stage, source in enumerate(sources):
            word |= int(source) << (stage * regmap.STAGE_SOURCE_BITS)
            word |= 1 << (regmap.STAGE_ENABLE_SHIFT + stage)
        if mode is TriggerMode.ANY:
            word |= regmap.TRIGGER_MODE_BIT
        elif len(sources) > 1 and window_samples < 1:
            raise ConfigurationError(
                "multi-stage sequential triggering needs a positive window"
            )
        self._write(regmap.REG_TRIGGER_CONFIG, word)
        self._write(regmap.REG_TRIGGER_WINDOW, int(window_samples))

    # ------------------------------------------------------------------
    # Jamming configuration

    def set_jam_delay(self, samples: int) -> None:
        """Delay between trigger and burst start, in samples."""
        self._write(regmap.REG_JAM_DELAY, int(samples))

    def set_jam_delay_seconds(self, seconds: float) -> None:
        """Delay between trigger and burst start, in seconds."""
        self.set_jam_delay(units.seconds_to_samples(seconds))

    def set_jam_uptime(self, samples: int) -> None:
        """Jam burst duration in samples.

        Requests saturate rather than fail: the register layout
        promises uptimes are "clipped to 2^32 - 1 by the bus width"
        (:func:`repro.hw.register_map.clip_jam_uptime`), and the
        transmit controller's uptime counter further caps the usable
        range at ``MAX_UPTIME_SAMPLES``.  Zero/negative uptimes have
        no hardware meaning and are rejected.
        """
        if samples < 1:
            raise ConfigurationError(
                f"uptime {samples} must be at least 1 sample"
            )
        clipped = min(regmap.clip_jam_uptime(int(samples)),
                      MAX_UPTIME_SAMPLES)
        self._write(regmap.REG_JAM_UPTIME, clipped)

    def set_jam_uptime_seconds(self, seconds: float) -> None:
        """Jam burst duration in seconds (40 ns .. ~40 s)."""
        self.set_jam_uptime(units.seconds_to_samples(seconds))

    def set_jam_waveform(self, waveform: JamWaveform, wgn_seed: int = 0x5EED) -> None:
        """Select the jamming waveform preset (and WGN seed).

        The seed must fit its 30-bit register field; an oversized seed
        is rejected rather than silently masked, matching the bus-wide
        "reject, never mask" policy.
        """
        wgn_seed = int(wgn_seed)
        if not 0 <= wgn_seed <= regmap.WGN_SEED_MASK:
            raise ConfigurationError(
                f"wgn_seed {wgn_seed:#x} does not fit the 30-bit seed field "
                f"(0..{regmap.WGN_SEED_MASK:#x})"
            )
        word = int(JamWaveform(waveform)) & regmap.WAVEFORM_SELECT_MASK
        word |= wgn_seed << regmap.WGN_SEED_SHIFT
        self._write(regmap.REG_JAM_WAVEFORM, word)

    def set_replay_length(self, samples: int) -> None:
        """Depth of the replay capture buffer (1..512 samples)."""
        samples = int(samples)
        if not 1 <= samples <= MAX_REPLAY_LENGTH:
            raise ConfigurationError(
                f"replay length {samples} outside the hardware's "
                f"[1, {MAX_REPLAY_LENGTH}]-sample capture buffer"
            )
        self._write(regmap.REG_REPLAY_LENGTH, samples)

    def set_control(self, jammer_enabled: bool = True,
                    continuous: bool = False, antenna_bits: int = 0) -> None:
        """Program the control-flag register."""
        if not 0 <= antenna_bits <= 0xFF:
            raise ConfigurationError("antenna_bits must fit 8 bits")
        word = 0
        if jammer_enabled:
            word |= regmap.FLAG_JAMMER_ENABLE
        if continuous:
            word |= regmap.FLAG_CONTINUOUS
        word |= antenna_bits << regmap.ANTENNA_SHIFT
        self._write(regmap.REG_CONTROL_FLAGS, word)

    # ------------------------------------------------------------------
    # Feedback path

    def detection_counts(self) -> dict[TriggerSource, int]:
        """Per-source detection counters (the host feedback flags)."""
        return dict(self.device.core.detection_counts)

    def jam_count(self) -> int:
        """Total jam bursts scheduled since reset."""
        return self.device.core.jam_count

    def register_writes(self) -> int:
        """Number of bus writes issued (reconfiguration cost metric)."""
        return self._bus.write_count
