"""The jamming transmit controller (paper §2.4).

Once the trigger state machine fires, the controller takes over the
transmit data path and emits one of three user-selectable waveforms:

1. a pseudorandom 25 MHz white Gaussian noise signal,
2. a repetitive replay of up to the 512 most recently received samples,
3. the waveform currently streamed to the transmit buffer by the host.

Jamming duration (uptime) ranges from 1 sample (40 ns) to 2^32 samples
(~40 s); an optional delay between trigger and transmission lets the
user target specific packet locations ("surgical" jamming).  The RF
response begins 8 FPGA clock cycles after the trigger (1 cycle to
initiate plus ~7 to populate the DUC), i.e. 80 ns — the paper's T_init.

The controller owns each burst from trigger to retirement and operates
on absolute sample timestamps, so the surrounding core can run
vectorized with one call per stage and chunk: :meth:`schedule` turns
the chunk's triggers into admitted bursts (busy rule, duty guard,
replay capture), :meth:`observe_rx` keeps the capture history, and
:meth:`synthesize` renders the bursts overlapping the chunk and
retires those that end inside it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import units
from repro.errors import ConfigurationError, StreamError

#: Clock cycles from trigger to first RF sample out of the DUC.
INIT_LATENCY_CLOCKS = 8

#: The same latency expressed in baseband samples (80 ns = 2 samples).
INIT_LATENCY_SAMPLES = INIT_LATENCY_CLOCKS // units.CLOCKS_PER_SAMPLE

#: Maximum replay-buffer depth in samples (paper §2.4).
MAX_REPLAY_LENGTH = 512

#: Maximum jam uptime in samples.  The hardware's 32-bit uptime
#: counter runs on the 100 MHz clock (2^32 cycles ~ 42.9 s, the
#: paper's "about 40 s"); at 4 clocks per baseband sample that is
#: 2^30 samples.
MAX_UPTIME_SAMPLES = 2 ** 32 // units.CLOCKS_PER_SAMPLE


class JamWaveform(enum.IntEnum):
    """Waveform presets, encoded as the 2-bit register field."""

    WGN = 0
    REPLAY = 1
    HOST_STREAM = 2


@dataclass(frozen=True)
class JamEvent:
    """One jamming burst on the absolute sample timeline.

    ``start``/``end`` delimit the transmitted span (end exclusive);
    ``trigger_time`` is the FSM completion time that caused it.
    """

    trigger_time: int
    start: int
    end: int
    waveform: JamWaveform


class TransmitController:
    """Owns every jam burst: schedule, capture, admit, render, retire."""

    def __init__(self, waveform: JamWaveform = JamWaveform.WGN,
                 uptime_samples: int = 2500, delay_samples: int = 0,
                 wgn_seed: int = 0x5EED, replay_length: int = MAX_REPLAY_LENGTH,
                 amplitude: float = 1.0) -> None:
        self.waveform = waveform
        self.uptime_samples = uptime_samples
        self.delay_samples = delay_samples
        self.replay_length = replay_length
        self.amplitude = amplitude
        self._wgn_seed = int(wgn_seed)
        self._busy_until = -1
        self._rx_history = np.zeros(0, dtype=np.complex128)
        self._host_waveform = np.zeros(0, dtype=np.complex128)
        # Active bursts, each with its REPLAY snapshot (else None).
        self._active: list[tuple[JamEvent, np.ndarray | None]] = []

    # ------------------------------------------------------------------
    # Configuration

    @property
    def waveform(self) -> JamWaveform:
        """Selected jamming waveform preset."""
        return self._waveform

    @waveform.setter
    def waveform(self, value: JamWaveform) -> None:
        self._waveform = JamWaveform(value)

    @property
    def uptime_samples(self) -> int:
        """Jam burst length in baseband samples."""
        return self._uptime

    @uptime_samples.setter
    def uptime_samples(self, value: int) -> None:
        if not 1 <= value <= MAX_UPTIME_SAMPLES:
            raise ConfigurationError(
                f"uptime {value} outside [1, {MAX_UPTIME_SAMPLES}] samples"
            )
        self._uptime = int(value)

    @property
    def delay_samples(self) -> int:
        """Extra delay between trigger and burst start, in samples."""
        return self._delay

    @delay_samples.setter
    def delay_samples(self, value: int) -> None:
        if not 0 <= value <= MAX_UPTIME_SAMPLES:
            raise ConfigurationError("delay_samples must be a 32-bit count")
        self._delay = int(value)

    @property
    def replay_length(self) -> int:
        """Replay capture depth in samples (1..512)."""
        return self._replay_length

    @replay_length.setter
    def replay_length(self, value: int) -> None:
        if not 1 <= value <= MAX_REPLAY_LENGTH:
            raise ConfigurationError(
                f"replay length {value} outside [1, {MAX_REPLAY_LENGTH}]"
            )
        self._replay_length = int(value)

    @property
    def amplitude(self) -> float:
        """Full-scale amplitude of the synthesized waveform."""
        return self._amplitude

    @amplitude.setter
    def amplitude(self, value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise ConfigurationError("amplitude must be in (0, 1] full scale")
        self._amplitude = float(value)

    @property
    def wgn_seed(self) -> int:
        """Seed of the hardware WGN generator."""
        return self._wgn_seed

    @wgn_seed.setter
    def wgn_seed(self, value: int) -> None:
        self._wgn_seed = int(value) & 0x3FFF_FFFF

    def set_host_waveform(self, samples: np.ndarray) -> None:
        """Install the host-streamed transmit buffer (cycled during jams)."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise StreamError("host waveform must be a non-empty 1-D array")
        self._host_waveform = samples.copy()

    def reset(self) -> None:
        """Abort every active burst and clear capture history."""
        self._busy_until = -1
        self._rx_history = np.zeros(0, dtype=np.complex128)
        self._active.clear()

    # ------------------------------------------------------------------
    # Burst lifecycle: schedule -> observe_rx -> synthesize, per chunk

    def schedule(self, trigger_times: list[int],
                 rx_chunk: np.ndarray | None = None, chunk_start: int = 0,
                 admit: Callable[[int, int], bool] | None = None
                 ) -> list[JamEvent]:
        """Turn FSM jam triggers into bursts; returns the admitted ones.

        Triggers that arrive while a previous burst (including its
        delay period) is still pending are ignored, as the hardware's
        single transmit pipeline cannot queue overlapping bursts.
        ``admit(start, end)`` is the duty guard: it runs before a
        burst marks the pipeline busy, so a vetoed burst leaves later
        triggers free to fire.  ``rx_chunk`` is the chunk received
        from ``chunk_start`` on, not yet passed to :meth:`observe_rx`;
        a REPLAY burst snapshots the samples received up to and
        including its trigger.
        """
        bursts: list[JamEvent] = []
        for trigger in trigger_times:
            if trigger < self._busy_until:
                continue
            start = trigger + INIT_LATENCY_SAMPLES + self._delay
            end = start + self._uptime
            if admit is not None and not admit(start, end):
                continue
            self._busy_until = end
            burst = JamEvent(trigger_time=trigger, start=start, end=end,
                             waveform=self._waveform)
            source = None
            if self._waveform is JamWaveform.REPLAY:
                received = self._rx_history[:0] if rx_chunk is None \
                    else rx_chunk[:max(trigger - chunk_start + 1, 0)]
                source = self._recent(received, self._replay_length)
                if source.size == 0:
                    source = np.zeros(1, dtype=np.complex128)
            self._active.append((burst, source))
            bursts.append(burst)
        return bursts

    def _recent(self, received: np.ndarray, depth: int) -> np.ndarray:
        """The last ``depth`` samples of ``[history | received]`` (a copy)."""
        received = received[-depth:]
        keep = self._rx_history.size - (depth - received.size)
        return np.concatenate([self._rx_history[max(keep, 0):], received])

    def observe_rx(self, rx_chunk: np.ndarray) -> None:
        """Feed received samples into the replay capture buffer."""
        self._rx_history = self._recent(np.asarray(rx_chunk),
                                        MAX_REPLAY_LENGTH)

    # ------------------------------------------------------------------
    # Waveform synthesis

    def _wgn_samples(self, interval_start: int, offset: int, count: int) -> np.ndarray:
        """Deterministic WGN: a per-burst stream seeded from the burst start.

        Seeding from ``(seed, interval_start)`` makes the synthesized
        waveform independent of how the timeline is chunked.
        """
        rng = np.random.default_rng((self._wgn_seed, interval_start))
        if offset:
            rng.standard_normal(2 * offset)  # advance the stream
        pairs = rng.standard_normal(2 * count)
        samples = (pairs[0::2] + 1j * pairs[1::2]) / np.sqrt(2.0)
        return samples

    def synthesize(self, chunk_start: int, n: int, *,
                   continuous: JamEvent | None = None,
                   mute: bool = False) -> np.ndarray:
        """The transmit waveform for ``[chunk_start, chunk_start + n)``.

        Renders every active burst that overlaps the chunk, then drops
        the bursts that end inside it.  A ``continuous`` WGN burst is
        rendered in place of the scheduled ones (which still run out
        their time); ``mute`` (the watchdog's safe state) renders
        nothing.
        """
        tx = np.zeros(n, dtype=np.complex128)
        if mute:
            bursts = []
        elif continuous is not None:
            bursts = [(continuous, None)]
        else:
            bursts = self._active
        for burst, source in bursts:
            lo = max(burst.start, chunk_start)
            hi = min(burst.end, chunk_start + n)
            if hi <= lo:
                continue
            offset, count = lo - burst.start, hi - lo
            if burst.waveform is JamWaveform.WGN:
                wave = self._wgn_samples(burst.start, offset, count)
            else:
                if source is None:
                    source = self._host_waveform
                if source.size == 0:
                    # An empty host transmit buffer radiates silence,
                    # as an un-filled hardware FIFO would — never a
                    # crash.
                    continue
                wave = source[(offset + np.arange(count)) % source.size]
            tx[lo - chunk_start:hi - chunk_start] += wave * self._amplitude
        self.retire(chunk_start + n)
        return tx

    def retire(self, until: int) -> None:
        """Drop the bursts that end by sample ``until``."""
        self._active = [(burst, source) for burst, source in self._active
                        if burst.end > until]
