"""IQ16 planes for tests that drive the DSP core directly.

The DDC is the one quantizer on the receive path, so a test that feeds
:meth:`repro.hw.dsp_core.CustomDspCore.process` builds its ``(n, 2)``
int16 plane the way the device does.
"""

from __future__ import annotations

import numpy as np

from repro.hw.ddc import DigitalDownConverter


def iq16(samples: np.ndarray) -> np.ndarray:
    """The IQ16 plane a unity-gain DDC delivers for ``samples``."""
    return DigitalDownConverter().process(samples)
