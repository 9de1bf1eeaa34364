"""Seeded workloads for the end-to-end ``ReactiveJammer.run`` benchmark.

Each workload is a received trace plus the jammer program that runs on
it.  The seed draws payload bytes, frame-start jitter and channel
noise; the frame layout, SNR, detection program and personality are
fixed, so every seed asks the jammer for the same kind and amount of
work.  The jammer only ever sees the generated trace.

* ``wifi_reactive`` — the paper's Fig. 10/11 reactive jammer: 802.11g
  frames, the short-preamble correlator, 0.1 ms WGN bursts, 4096-sample
  chunks.  Per-chunk fixed cost and the per-sample DDC, xcorr and
  energy layers all carry weight.
* ``dsss_replay_storm`` — 802.11b DSSS frames with long payloads; the
  Barker spreading re-crosses the threshold on every symbol and a
  REPLAY burst shorter than a symbol lets almost every detection fire.
  The event-bound workload.
* ``multistandard_continuous`` — WiFi/DSSS/WiMAX/ZigBee frames mixed on
  one timeline, four stacked protocol banks and continuous WGN jamming
  in 65536-sample chunks.  The per-sample-bound workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import units
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_short_preamble_template,
    wimax_preamble_template,
    zigbee_preamble_template,
)
from repro.core.detection import DetectionConfig, ProtocolBank
from repro.core.presets import JammerPersonality, continuous_jammer, \
    reactive_jammer
from repro.hw.tx_controller import JamWaveform
from repro.phy.wifi.dsss import DSSS_SAMPLE_RATE, build_dsss_ppdu
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.params import WIFI_SAMPLE_RATE
from repro.phy.wimax.frame import build_downlink_frame
from repro.phy.wimax.params import WIMAX_SAMPLE_RATE, WimaxConfig
from repro.phy.zigbee.frame import build_ppdu as build_zigbee_ppdu
from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

#: Receiver noise floor shared by every workload (linear power).
NOISE = 1e-4

#: The seed whose digests are stored in ``digests.json``.
DEFAULT_SEED = 1


@dataclass
class Frame:
    """Ground truth for one injected frame (25 MSPS sample indices)."""

    start: int
    length: int


@dataclass
class Workload:
    """One benchmark input: a trace and the jammer program to run on it.

    Every workload triggers on the correlator alone.  ``detection`` is a
    factory, not a value: set-up timing rebuilds the templates from a
    cleared artifact cache, as a fresh host would.
    """

    name: str
    seed: int
    rx: np.ndarray
    chunk_size: int
    #: A second chunk size for the chunk-invariance identity check.
    alt_chunk_size: int
    detection: Callable[[], DetectionConfig]
    personality: JammerPersonality
    frames: list[Frame] = field(default_factory=list)

    @property
    def samples(self) -> int:
        """Trace length in samples."""
        return int(self.rx.size)


def _place(rng: np.random.Generator, specs, slot_s: float, lead_s: float,
           jitter_s: float, snr_db: float, duration_s: float):
    """Mix ``(waveform, native_rate)`` specs, one per slot."""
    transmissions = []
    frames = []
    for slot, (wave, rate) in enumerate(specs):
        start_s = slot * slot_s + lead_s + rng.uniform(0.0, jitter_s)
        transmissions.append(Transmission(
            wave, rate, start_time=start_s,
            power=units.db_to_linear(snr_db) * NOISE))
        frames.append(Frame(
            start=int(round(start_s * units.BASEBAND_RATE)),
            length=int(round(wave.size * units.BASEBAND_RATE / rate))))
    rx = mix_at_port(transmissions, out_rate=units.BASEBAND_RATE,
                     duration=duration_s, noise_power=NOISE, rng=rng)
    return rx, frames


def _payload(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size, dtype=np.uint8).tobytes()


# ----------------------------------------------------------------------
# wifi_reactive

WIFI_FRAMES = 100
WIFI_SLOT_S = 400e-6           # 10000 samples: room for a 0.1 ms burst
WIFI_THRESHOLD = 20_000


def _wifi_detection() -> DetectionConfig:
    return DetectionConfig(template=wifi_short_preamble_template(),
                           xcorr_threshold=WIFI_THRESHOLD)


def wifi_reactive(seed: int) -> Workload:
    """100 802.11g frames at 20 dB SNR over 1 M samples (40 ms)."""
    rng = np.random.default_rng([seed, 11])
    specs = [(build_ppdu(_payload(rng, 100), WifiFrameConfig()),
              WIFI_SAMPLE_RATE) for _ in range(WIFI_FRAMES)]
    rx, frames = _place(rng, specs, WIFI_SLOT_S, 20e-6, 200e-6, 20.0,
                        WIFI_FRAMES * WIFI_SLOT_S)
    return Workload(
        name="wifi_reactive", seed=seed, rx=rx, chunk_size=4096,
        alt_chunk_size=3001, detection=_wifi_detection,
        personality=reactive_jammer(1e-4), frames=frames)


# ----------------------------------------------------------------------
# dsss_replay_storm

DSSS_FRAMES = 10
DSSS_PAYLOAD_BYTES = 200       # 1.6 ms of 1 Mb/s DBPSK payload
DSSS_SLOT_S = 2.0e-3
DSSS_THRESHOLD = 13_000
#: REPLAY uptime: 16 samples (0.64 us) is shorter than one 1 us DSSS
#: symbol, so the transmit pipeline is free again before the next
#: Barker peak and almost every detection schedules a burst.
DSSS_UPTIME_S = 16 * units.SAMPLE_PERIOD


def _dsss_detection() -> DetectionConfig:
    return DetectionConfig(template=dsss_preamble_template(),
                           xcorr_threshold=DSSS_THRESHOLD)


def dsss_replay_storm(seed: int) -> Workload:
    """Ten long 802.11b DSSS frames: an event storm of REPLAY bursts."""
    rng = np.random.default_rng([seed, 22])
    specs = [(build_dsss_ppdu(_payload(rng, DSSS_PAYLOAD_BYTES)),
              DSSS_SAMPLE_RATE) for _ in range(DSSS_FRAMES)]
    rx, frames = _place(rng, specs, DSSS_SLOT_S, 20e-6, 100e-6, 15.0,
                        DSSS_FRAMES * DSSS_SLOT_S)
    return Workload(
        name="dsss_replay_storm", seed=seed, rx=rx, chunk_size=4096,
        alt_chunk_size=3001, detection=_dsss_detection,
        personality=reactive_jammer(DSSS_UPTIME_S,
                                    waveform=JamWaveform.REPLAY),
        frames=frames)


# ----------------------------------------------------------------------
# multistandard_continuous

MULTI_ROUNDS = 12
MULTI_SLOT_S = 1.2e-3
#: (protocol, template factory, threshold) — the stacked bank program.
MULTI_BANKS = (
    ("wifi", wifi_short_preamble_template, 12_000),
    ("dsss", dsss_preamble_template, 13_000),
    ("wimax", wimax_preamble_template, 9_000),
    ("zigbee", zigbee_preamble_template, 42_000),
)


def _multi_detection() -> DetectionConfig:
    return DetectionConfig(banks=tuple(
        ProtocolBank(name, template(), threshold)
        for name, template, threshold in MULTI_BANKS))


def multistandard_continuous(seed: int) -> Workload:
    """12 rounds of WiFi/DSSS/WiMAX/ZigBee frames, 4 stacked banks."""
    rng = np.random.default_rng([seed, 33])
    wimax_cfg = WimaxConfig()
    specs = []
    for _ in range(MULTI_ROUNDS):
        # DSSS and ZigBee payloads reuse their preambles' spreading
        # codes, so short payloads keep the event stream moderate.
        specs += [
            (build_ppdu(_payload(rng, 120), WifiFrameConfig()),
             WIFI_SAMPLE_RATE),
            (build_dsss_ppdu(_payload(rng, 4)), DSSS_SAMPLE_RATE),
            (build_downlink_frame(wimax_cfg, rng)[:10_000],
             WIMAX_SAMPLE_RATE),
            (build_zigbee_ppdu(_payload(rng, 4)), ZIGBEE_SAMPLE_RATE),
        ]
    rx, frames = _place(rng, specs, MULTI_SLOT_S, 100e-6, 50e-6, 15.0,
                        len(specs) * MULTI_SLOT_S)
    return Workload(
        name="multistandard_continuous", seed=seed, rx=rx,
        chunk_size=65536, alt_chunk_size=262144,
        detection=_multi_detection,
        personality=continuous_jammer(), frames=frames)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "wifi_reactive": wifi_reactive,
    "dsss_replay_storm": dsss_replay_storm,
    "multistandard_continuous": multistandard_continuous,
}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` generated from ``seed``."""
    return WORKLOADS[name](seed)
