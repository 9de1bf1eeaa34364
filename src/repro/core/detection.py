"""Detection configuration records.

A :class:`DetectionConfig` bundles everything the host programs into
the detection half of the custom core: the correlator template and
threshold, and the energy differentiator thresholds.  It is a plain
value object; :class:`repro.core.jammer.ReactiveJammer` translates it
into register writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.cross_correlator import METRIC_MAX
from repro.hw.energy_differentiator import THRESHOLD_MAX_DB, THRESHOLD_MIN_DB
from repro.hw.register_map import CORRELATOR_LENGTH, MAX_BANKS


@dataclass
class ProtocolBank:
    """One protocol's entry in a multi-standard detection config.

    Attributes:
        name: Protocol label stamped onto detections from this bank
            (the ``which_protocol`` telemetry dimension).
        template: 64 complex samples at 25 MSPS for the correlator.
        threshold: Metric threshold for this bank's trigger.
    """

    name: str
    template: np.ndarray
    threshold: int = METRIC_MAX

    def __post_init__(self) -> None:
        self.name = str(self.name)
        if not self.name:
            raise ConfigurationError("protocol bank name must be non-empty")
        self.template = np.asarray(self.template, dtype=np.complex128)
        if self.template.size != CORRELATOR_LENGTH:
            raise ConfigurationError(
                f"template must have {CORRELATOR_LENGTH} samples"
            )
        if not 0 <= self.threshold <= 0xFFFF_FFFF:
            raise ConfigurationError("threshold must fit 32 bits")


@dataclass
class DetectionConfig:
    """What the detection subsystem should look for.

    Attributes:
        template: 64 complex samples at 25 MSPS for the correlator, or
            None to leave the correlator unprogrammed (energy-only).
        xcorr_threshold: Metric threshold for the correlator trigger.
        energy_high_db: Energy-rise threshold in dB (3..30).
        energy_low_db: Energy-fall threshold in dB (3..30).
        banks: Up to :data:`~repro.hw.register_map.MAX_BANKS`
            :class:`ProtocolBank` entries for multi-standard stacked
            detection, or None for the paper's single correlator.
            Mutually exclusive with ``template`` (each bank carries
            its own template and threshold).
    """

    template: np.ndarray | None = None
    xcorr_threshold: int = METRIC_MAX
    energy_high_db: float = 10.0
    energy_low_db: float = 10.0
    banks: tuple[ProtocolBank, ...] | None = None

    def __post_init__(self) -> None:
        if self.banks is not None:
            if self.template is not None:
                raise ConfigurationError(
                    "template and banks are mutually exclusive; put the "
                    "template in a ProtocolBank"
                )
            self.banks = tuple(self.banks)
            for bank in self.banks:
                if not isinstance(bank, ProtocolBank):
                    raise ConfigurationError(
                        "banks must be ProtocolBank instances"
                    )
            if not 1 <= len(self.banks) <= MAX_BANKS:
                raise ConfigurationError(
                    f"banks must hold 1..{MAX_BANKS} entries, "
                    f"got {len(self.banks)}"
                )
        if self.template is not None:
            self.template = np.asarray(self.template, dtype=np.complex128)
            if self.template.size != CORRELATOR_LENGTH:
                raise ConfigurationError(
                    f"template must have {CORRELATOR_LENGTH} samples"
                )
        if not 0 <= self.xcorr_threshold <= 0xFFFF_FFFF:
            raise ConfigurationError("xcorr_threshold must fit 32 bits")
        for name, value in (("energy_high_db", self.energy_high_db),
                            ("energy_low_db", self.energy_low_db)):
            if not THRESHOLD_MIN_DB <= value <= THRESHOLD_MAX_DB:
                raise ConfigurationError(
                    f"{name}={value} outside "
                    f"[{THRESHOLD_MIN_DB}, {THRESHOLD_MAX_DB}] dB"
                )

    @staticmethod
    def xcorr_threshold_fraction(fraction: float) -> int:
        """A correlator threshold as a fraction of the perfect-match metric.

        A clean sign-match of a full-scale template scores roughly
        ``2 * (sum|cI| + sum|cQ|)^2 / 2``; expressing thresholds as a
        fraction of :data:`METRIC_MAX` keeps them hardware-portable.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        return int(METRIC_MAX * fraction)
