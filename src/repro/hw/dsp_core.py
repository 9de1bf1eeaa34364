"""The custom DSP core: detection + jamming control (paper Fig. 2).

This block sits inside the N210's DDC chain.  It wires together the
four functional blocks — cross-correlator, energy differentiator,
trigger state machine, and transmit controller — and exposes the
register bus the host uses for run-time reconfiguration.

Processing model: the core consumes received baseband chunks (25 MSPS,
16-bit-quantized complex) and produces the transmit chunk for the same
span of the timeline plus event records (detections and jam bursts)
stamped with absolute sample indices.  Internally the per-sample
trigger booleans are computed vectorized and reduced to rising edges;
the FSM and transmit controller, whose state changes only at events,
walk the edge lists.  Tests validate this fast path against a
sample-by-sample reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.dsp.fixed_point import quantize_iq16
from repro.errors import ConfigurationError, RegisterError, StreamError
from repro.hw import register_map as regmap
from repro.telemetry.tracer import CAT_DETECTOR, CAT_TX, NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.telemetry.profiler import HostProfiler
from repro.hw.watchdog import Watchdog
from repro.hw.cross_correlator import DEFAULT_BANK_LABELS, METRIC_MAX, \
    CrossCorrelator
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.registers import UserRegisterBus, unpack_signed_fields
from repro.hw.trigger import (
    TriggerMode,
    TriggerSource,
    TriggerStateMachine,
)
from repro.hw.tx_controller import JamEvent, JamWaveform, TransmitController


@dataclass(frozen=True)
class DetectionEvent:
    """A rising-edge detection from one of the detector blocks.

    ``protocol`` names the correlator bank that fired when the core
    runs in stacked multi-standard mode (the ``which_protocol``
    telemetry dimension); it is ``None`` for energy detections and for
    the paper's correlator (``REG_BANK_COUNT`` = 0).
    """

    time: int
    source: TriggerSource
    protocol: str | None = None


@dataclass
class CoreOutput:
    """Result of processing one received chunk."""

    tx: np.ndarray
    detections: list[DetectionEvent] = field(default_factory=list)
    jams: list[JamEvent] = field(default_factory=list)


class CustomDspCore:
    """The paper's custom DSP core with its register-bus control plane."""

    def __init__(self, bus: UserRegisterBus | None = None,
                 watchdog: Watchdog | None = None) -> None:
        self.bus = bus if bus is not None else UserRegisterBus()
        #: Optional in-fabric watchdog (duty guard, re-arm timeout,
        #: safe state).  ``None`` reproduces the unguarded core.
        self.watchdog = watchdog
        #: The paper's correlator (Fig. 3): registers 0-23 decode into
        #: its one bank.  On the data path while ``REG_BANK_COUNT`` is
        #: 0; its power-on bank is all-zero with a threshold that never
        #: fires (the trigger needs metric > threshold).
        self.correlator = CrossCorrelator()
        zeros = np.zeros(regmap.CORRELATOR_LENGTH, dtype=np.int64)
        self.correlator.load_banks([(zeros, zeros)], [METRIC_MAX])
        #: The stacked multi-standard bank (K protocols, one GEMM
        #: pass), decoded from registers 24-43.  Dormant until
        #: ``REG_BANK_COUNT`` selects K >= 1, at which point it
        #: replaces ``correlator`` on the data path.
        self.banked = CrossCorrelator()
        #: Host-side protocol names for the banked correlator; strings
        #: cannot cross the register bus, so the host (driver) sets
        #: them directly before programming the bank count.
        self.bank_labels = list(DEFAULT_BANK_LABELS)
        self._bank_count = 0
        self._bank_select = 0
        # Per-bank coefficient shadow storage behind the windowed
        # write path: words latch into the *selected* bank's slot.
        self._bank_words_i = [[0] * regmap.COEFF_WORDS
                              for _ in range(regmap.MAX_BANKS)]
        self._bank_words_q = [[0] * regmap.COEFF_WORDS
                              for _ in range(regmap.MAX_BANKS)]
        # METRIC_MAX never fires, matching the paper bank's quiet
        # power-on default.
        self._bank_thresholds = np.full(regmap.MAX_BANKS, METRIC_MAX,
                                        dtype=np.int64)
        self._protocol_registry = None
        self._protocol_counters: dict[str, object] = {}
        self.energy = EnergyDifferentiator()
        self.fsm = TriggerStateMachine([TriggerSource.ENERGY_HIGH])
        self.tx = TransmitController()
        #: Telemetry probes; the null tracer / no profiler by default
        #: (see :mod:`repro.telemetry` — opt-in observability).
        self._tracer: Tracer = NULL_TRACER
        self.profiler: "HostProfiler | None" = None
        self._clock = 0  # absolute index of the next sample to process
        self._continuous_since: int | None = None
        self.detection_counts = {source: 0 for source in TriggerSource}
        self.jam_count = 0
        self._jammer_enabled = True
        self._antenna_bits = 0
        self._wire_registers()

    # ------------------------------------------------------------------
    # Register control plane

    def _wire_registers(self) -> None:
        for offset in range(regmap.COEFF_WORDS):
            self.bus.watch(regmap.REG_COEFF_I_BASE + offset,
                           lambda _v: self._reload_coefficients())
            self.bus.watch(regmap.REG_COEFF_Q_BASE + offset,
                           lambda _v: self._reload_coefficients())
        self.bus.watch(regmap.REG_XCORR_THRESHOLD, self._set_xcorr_threshold)
        self.bus.watch(regmap.REG_ENERGY_THRESHOLD_HIGH,
                       self._set_energy_high)
        self.bus.watch(regmap.REG_ENERGY_THRESHOLD_LOW,
                       self._set_energy_low)
        for address, handler in (
            (regmap.REG_TRIGGER_CONFIG, self._set_trigger_config),
            (regmap.REG_TRIGGER_WINDOW, self._set_trigger_window),
            (regmap.REG_JAM_DELAY, self._set_jam_delay),
            (regmap.REG_JAM_UPTIME, self._set_jam_uptime),
            (regmap.REG_JAM_WAVEFORM, self._set_jam_waveform),
            (regmap.REG_CONTROL_FLAGS, self._set_control_flags),
            (regmap.REG_REPLAY_LENGTH, self._set_replay_length),
            (regmap.REG_BANK_COUNT, self._set_bank_count),
            (regmap.REG_BANK_SELECT, self._set_bank_select),
        ):
            self.bus.watch(address, self._guarded(address, handler))
        for offset in range(regmap.COEFF_WORDS):
            self.bus.watch(regmap.REG_BANK_COEFF_I_BASE + offset,
                           self._bank_coeff_watch(self._bank_words_i,
                                                  offset))
            self.bus.watch(regmap.REG_BANK_COEFF_Q_BASE + offset,
                           self._bank_coeff_watch(self._bank_words_q,
                                                  offset))
        for index in range(regmap.MAX_BANKS):
            self.bus.watch(regmap.REG_BANK_THRESHOLD_BASE + index,
                           self._bank_threshold_watch(index))

    def _guarded(self, address, handler):
        """Route a register decode through the watchdog's safe state.

        Without a watchdog (or with ``safe_state_on_illegal`` off) an
        undecodable register word raises straight into the writer, as
        before.  With one, the register is flagged illegal and the
        core keeps running with transmission suppressed until a legal
        word lands on the same address.
        """
        def wrapped(value: int) -> None:
            try:
                handler(value)
            except ConfigurationError as exc:
                wd = self.watchdog
                if wd is not None and wd.config.safe_state_on_illegal:
                    wd.flag_illegal(address, self._clock, str(exc))
                    return
                raise
            if self.watchdog is not None:
                self.watchdog.clear_illegal(address)
        return wrapped

    @staticmethod
    def _unpacked_words(words_i, words_q) -> tuple[np.ndarray, np.ndarray]:
        coeffs_i = unpack_signed_fields(words_i, regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        coeffs_q = unpack_signed_fields(words_q, regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        return np.array(coeffs_i), np.array(coeffs_q)

    def _reload_coefficients(self) -> None:
        words_i = [self.bus.read(regmap.REG_COEFF_I_BASE + k)
                   for k in range(regmap.COEFF_WORDS)]
        words_q = [self.bus.read(regmap.REG_COEFF_Q_BASE + k)
                   for k in range(regmap.COEFF_WORDS)]
        self.correlator.load_bank(0, *self._unpacked_words(words_i, words_q))

    def _unpacked_bank(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self._unpacked_words(self._bank_words_i[index],
                                    self._bank_words_q[index])

    def _set_bank_count(self, value: int) -> None:
        count = int(value)
        if not 0 <= count <= regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 0..{regmap.MAX_BANKS}, got {count}"
            )
        if count == 0:
            # Back to the paper's correlator; the shadows keep their
            # contents for a later re-enable.
            if self._bank_count:
                self.correlator.resume_from(self.banked)
            self._bank_count = 0
            return
        banks = [self._unpacked_bank(k) for k in range(count)]
        self.banked.load_banks(banks, self._bank_thresholds[:count],
                               labels=self.bank_labels[:count])
        if not self._bank_count:
            # The received stream moves across with the mode switch: a
            # preamble straddling the switch must still correlate.
            self.banked.resume_from(self.correlator)
        self._bank_count = count

    def _set_bank_select(self, value: int) -> None:
        index = int(value)
        if not 0 <= index < regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank select must be 0..{regmap.MAX_BANKS - 1}, got {index}"
            )
        self._bank_select = index

    def _bank_coeff_watch(self, words, offset):
        """Latch a windowed coefficient word into the selected bank.

        A write targeting a *live* bank hot-swaps it immediately — the
        new template takes effect on the next processed chunk, with
        the sign history and trigger carries intact.
        """
        def handler(value: int) -> None:
            index = self._bank_select
            words[index][offset] = int(value)
            if index < self._bank_count:
                coeffs_i, coeffs_q = self._unpacked_bank(index)
                self.banked.load_bank(index, coeffs_i, coeffs_q)
        return handler

    def _bank_threshold_watch(self, index):
        def handler(value: int) -> None:
            self._bank_thresholds[index] = int(value)
            if index < self._bank_count:
                self.banked.set_threshold(index, int(value))
        return handler

    def set_bank_label(self, index: int, label: str) -> None:
        """Name the protocol a bank detects (host-side metadata)."""
        if not 0 <= index < regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank index {index} outside 0..{regmap.MAX_BANKS - 1}"
            )
        self.bank_labels[index] = str(label)
        if index < self._bank_count:
            self.banked.set_label(index, label)

    def _set_xcorr_threshold(self, value: int) -> None:
        self.correlator.set_threshold(0, value)

    def _set_energy_high(self, value: int) -> None:
        self.energy.threshold_high_db = regmap.decode_energy_threshold_db(value)

    def _set_energy_low(self, value: int) -> None:
        self.energy.threshold_low_db = regmap.decode_energy_threshold_db(value)

    def _set_trigger_config(self, value: int) -> None:
        stages: list[TriggerSource] = []
        for stage in range(TriggerStateMachine.MAX_STAGES):
            if value & (1 << (regmap.STAGE_ENABLE_SHIFT + stage)):
                raw = (value >> (stage * regmap.STAGE_SOURCE_BITS)) \
                    & regmap.STAGE_SOURCE_MASK
                try:
                    stages.append(TriggerSource(raw))
                except ValueError as exc:
                    raise RegisterError(
                        f"stage {stage} selects unknown source "
                        f"encoding {raw}"
                    ) from exc
        mode = TriggerMode.ANY if value & regmap.TRIGGER_MODE_BIT \
            else TriggerMode.SEQUENCE
        window = self.fsm.window_samples
        if len(stages) > 1 and window == 0 and mode is TriggerMode.SEQUENCE:
            window = 1
        self.fsm = TriggerStateMachine(stages or [TriggerSource.ENERGY_HIGH],
                                       window_samples=window, mode=mode)
        self.fsm.tracer = self._tracer

    def _set_trigger_window(self, value: int) -> None:
        self.fsm.window_samples = value

    def _set_jam_delay(self, value: int) -> None:
        self.tx.delay_samples = value

    def _set_jam_uptime(self, value: int) -> None:
        self.tx.uptime_samples = value

    def _set_jam_waveform(self, value: int) -> None:
        select = value & regmap.WAVEFORM_SELECT_MASK
        try:
            self.tx.waveform = JamWaveform(select)
        except ValueError as exc:
            raise RegisterError(
                f"waveform select {select} is not a defined preset"
            ) from exc
        self.tx.wgn_seed = value >> regmap.WGN_SEED_SHIFT

    def _set_control_flags(self, value: int) -> None:
        self._jammer_enabled = bool(value & regmap.FLAG_JAMMER_ENABLE)
        continuous = bool(value & regmap.FLAG_CONTINUOUS)
        if continuous and self._continuous_since is None:
            self._continuous_since = self._clock
        if not continuous:
            self._continuous_since = None
        self._antenna_bits = (value & regmap.ANTENNA_MASK) >> regmap.ANTENNA_SHIFT

    def _set_replay_length(self, value: int) -> None:
        self.tx.replay_length = value

    # ------------------------------------------------------------------
    # Status (the "host feedback / synchro flags" path in Fig. 1)

    @property
    def tracer(self) -> Tracer:
        """The attached trace sink (the null tracer by default)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        # The FSM is rebuilt on trigger-config writes, so the tracer
        # rides along through this setter and `_set_trigger_config`.
        self._tracer = tracer
        self.fsm.tracer = tracer

    @property
    def clock(self) -> int:
        """Absolute index of the next sample to be processed."""
        return self._clock

    @property
    def bank_count(self) -> int:
        """Active stacked banks (0 = the paper's correlator)."""
        return self._bank_count

    def attach_metrics(self, registry) -> None:
        """Expose per-protocol detection counters on a registry.

        Counters are created lazily as ``detect.which_protocol.<label>``
        the first time each protocol fires.  Pass ``None`` to detach.
        """
        self._protocol_registry = registry
        self._protocol_counters = {}

    def _protocol_counter(self, label: str):
        counter = self._protocol_counters.get(label)
        if counter is None:
            counter = self._protocol_registry.counter(
                f"detect.which_protocol.{label}")
            self._protocol_counters[label] = counter
        return counter

    @property
    def jammer_enabled(self) -> bool:
        """Whether jam bursts are transmitted at all."""
        return self._jammer_enabled

    @property
    def antenna_bits(self) -> int:
        """Antenna-control field from the control register."""
        return self._antenna_bits

    @property
    def continuous(self) -> bool:
        """Whether the continuous-jamming flag is set."""
        return self._continuous_since is not None

    @property
    def _tx_allowed(self) -> bool:
        """Jamming enabled and the watchdog not holding safe state."""
        if not self._jammer_enabled:
            return False
        return self.watchdog is None or not self.watchdog.safe_state

    def reset(self) -> None:
        """Hardware reset: clears all block state but keeps registers."""
        self.correlator.reset()
        self.banked.reset()
        self.energy.reset()
        self.fsm.reset()
        self.tx.reset()
        self._clock = 0
        self._continuous_since = None if self._continuous_since is None else 0
        self.detection_counts = {source: 0 for source in TriggerSource}
        self.jam_count = 0
        if self.watchdog is not None:
            self.watchdog.reset()

    # ------------------------------------------------------------------
    # Data path

    def process(self, rx_chunk: np.ndarray, *,
                quantized: bool = False) -> CoreOutput:
        """Run one received chunk through detection and jamming control.

        ``rx_chunk`` is complex baseband at 25 MSPS; it is quantized to
        the 16-bit data path on entry (the ADC/DDC already delivers
        integers in the real system).  Callers that already hold
        IQ16-quantized complex128 samples — the DDC output — pass
        ``quantized=True`` to skip the redundant re-quantize copy.
        Returns the transmit waveform aligned to the same sample span
        plus all events.
        """
        if quantized:
            rx_chunk = np.asarray(rx_chunk)
        else:
            rx_chunk = np.asarray(rx_chunk, dtype=np.complex128)
        if rx_chunk.ndim != 1:
            raise StreamError("CustomDspCore expects a 1-D complex chunk")
        chunk_start = self._clock
        n = rx_chunk.size
        if n == 0:
            return CoreOutput(tx=np.zeros(0, dtype=np.complex128))
        samples = rx_chunk if quantized else quantize_iq16(rx_chunk)

        if self.watchdog is not None:
            self.watchdog.check_rearm(self.fsm, chunk_start)

        profiler = self.profiler
        stacked = self._bank_count >= 1
        correlator = self.banked if stacked else self.correlator
        if profiler is None:
            _trig, xcorr_edges = correlator.detect(samples)
            _high, _low, ehigh_edges, elow_edges = self.energy.detect(samples)
        else:
            with profiler.profile("xcorr"):
                _trig, xcorr_edges = correlator.detect(samples)
            with profiler.profile("energy"):
                _high, _low, ehigh_edges, elow_edges = \
                    self.energy.detect(samples)
        # The detectors own their trigger carries; the paper's bank
        # fires with no protocol label.
        protocols = correlator.labels if stacked else (None,)
        xcorr_banks = list(zip(xcorr_edges, protocols))

        detections = self._collect_detections(
            chunk_start, xcorr_banks, ehigh_edges, elow_edges
        )
        jam_times = self.fsm.process_events(
            [(event.time, event.source) for event in detections]
        )

        # The transmit controller owns every burst; each of its stages
        # runs once per chunk.
        watchdog = self.watchdog
        jams = self.tx.schedule(
            jam_times if self._tx_allowed else [],
            samples, chunk_start,
            None if watchdog is None else watchdog.admit_interval,
        )
        self.tx.observe_rx(samples)
        self.jam_count += len(jams)
        muted = watchdog is not None and watchdog.safe_state
        continuous = None
        if self._continuous_since is not None and self._tx_allowed:
            allowed = n if watchdog is None \
                else watchdog.continuous_allowance(chunk_start, n)
            continuous = JamEvent(
                trigger_time=self._continuous_since,
                start=self._continuous_since,
                end=chunk_start + allowed, waveform=JamWaveform.WGN,
            )
        tx_chunk = self.tx.synthesize(chunk_start, n, continuous=continuous,
                                      mute=muted)
        if self._tracer.enabled:
            for jam in jams:
                self._tracer.span(
                    "jam", CAT_TX, jam.start, jam.end,
                    trigger_sample=jam.trigger_time,
                    waveform=jam.waveform.name,
                )
        self._clock += n
        return CoreOutput(tx=tx_chunk, detections=detections, jams=jams)

    def skip(self, n: int) -> None:
        """Advance the sample clock over ``n`` samples that were lost.

        The recovery path uses this when a chunk cannot be processed:
        the absolute timeline stays aligned (later events keep correct
        timestamps) while the lost span produces no detections and no
        transmit samples.  Edge trackers are cleared — the trigger
        state on the far side of a gap is unknown, and re-detecting an
        edge is safer than missing one.
        """
        if n < 0:
            raise StreamError("cannot skip a negative number of samples")
        self._clock += n
        self.energy.clear_last()
        self.correlator.clear_last()
        self.banked.clear_last()
        self.tx.retire(self._clock)

    def _collect_detections(self, chunk_start: int,
                            xcorr_banks: list,
                            ehigh_edges: np.ndarray,
                            elow_edges: np.ndarray
                            ) -> list[DetectionEvent]:
        """Merge per-bank correlator edges with the energy detector's.

        ``xcorr_banks`` is a list of ``(edges, protocol)`` pairs — one
        entry (protocol ``None``) for the paper's correlator, K entries
        in stacked mode.  Events sort by time, then source, then bank
        index, so coincident multi-protocol hits come out in bank order.
        """
        xcorr_total = sum(edges.size for edges, _ in xcorr_banks)
        self.detection_counts[TriggerSource.XCORR] += xcorr_total
        self.detection_counts[TriggerSource.ENERGY_HIGH] += ehigh_edges.size
        self.detection_counts[TriggerSource.ENERGY_LOW] += elow_edges.size
        total = xcorr_total + ehigh_edges.size + elow_edges.size
        if not total:
            # The common chunk: no edges, no objects built at all.
            return []
        times = np.concatenate([edges for edges, _ in xcorr_banks]
                               + [ehigh_edges, elow_edges])
        times += chunk_start
        sources = np.empty(total, dtype=np.int64)
        banks = np.full(total, -1, dtype=np.int64)
        sources[:xcorr_total] = TriggerSource.XCORR
        cursor = 0
        for bank, (edges, _) in enumerate(xcorr_banks):
            banks[cursor:cursor + edges.size] = bank
            cursor += edges.size
        split_b = xcorr_total + ehigh_edges.size
        sources[xcorr_total:split_b] = TriggerSource.ENERGY_HIGH
        sources[split_b:] = TriggerSource.ENERGY_LOW
        order = np.lexsort((banks, sources, times))
        labels = [protocol for _, protocol in xcorr_banks]
        events = []
        for k in order:
            bank = int(banks[k])
            events.append(DetectionEvent(
                time=int(times[k]),
                source=TriggerSource(int(sources[k])),
                protocol=labels[bank] if bank >= 0 else None,
            ))
        if self._protocol_registry is not None:
            for event in events:
                if event.protocol is not None:
                    self._protocol_counter(event.protocol).inc()
        if self._tracer.enabled:
            for event in events:
                if event.protocol is None:
                    self._tracer.instant(
                        f"detect.{event.source.name.lower()}",
                        CAT_DETECTOR, event.time,
                    )
                else:
                    self._tracer.instant(
                        f"detect.{event.source.name.lower()}",
                        CAT_DETECTOR, event.time,
                        which_protocol=event.protocol,
                    )
        return events
