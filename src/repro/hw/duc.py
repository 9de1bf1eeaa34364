"""Digital up-conversion chain model.

The DUC takes the custom core's transmit samples (25 MSPS, full scale
+-1.0), applies the TX gain, and hands them to the RF front end.  Its
fill latency — about seven clock cycles to populate the interpolation
pipeline — is part of the paper's 80 ns T_init and is accounted for in
:mod:`repro.hw.tx_controller`; here we model the amplitude path only.
Samples are not clipped at digital full scale: the gain is applied
as-is.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import StreamError

#: Clock cycles to populate the interpolation pipeline after a trigger
#: (included in TransmitController.INIT_LATENCY_CLOCKS).
FILL_LATENCY_CLOCKS = 7


class DigitalUpConverter:
    """TX back-half of the data path after the custom DSP core."""

    def __init__(self, tx_gain_db: float = 0.0) -> None:
        self.tx_gain_db = tx_gain_db

    @property
    def tx_gain_db(self) -> float:
        """Transmit gain applied to the core's output, in dB."""
        return self._tx_gain_db

    @tx_gain_db.setter
    def tx_gain_db(self, value: float) -> None:
        self._tx_gain_db = float(value)
        self._tx_gain = units.db_to_amplitude(self._tx_gain_db)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Apply TX gain (no full-scale clipping is modelled)."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise StreamError("DUC expects a 1-D complex chunk")
        scaled = samples * self._tx_gain
        return scaled
