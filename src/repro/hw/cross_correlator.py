"""The 64-sample sign-bit weighted phase cross-correlator (paper Fig. 3).

The block is extracted from the Rice WARP OFDM reference design: each
incoming 16-bit I/Q pair is sliced to its sign bit (1-bit signed,
giving 90-degree phase resolution), then correlated against a template
of 64 3-bit signed coefficients for I and Q.  The complex correlation
magnitude-squared is compared against a user threshold to produce the
detection trigger.

With template ``c[k] = cI[k] + j*cQ[k]`` and sliced signal
``s[n] = sign(I[n]) + j*sign(Q[n])`` the correlator computes::

    corr[n] = sum_k conj(c[k]) * s[n - 63 + k]
    metric[n] = Re(corr)^2 + Im(corr)^2        (the two x^2 paths in Fig. 3)
    trigger[n] = metric[n] > threshold

The output peaks on the sample where the last template symbol arrives,
so a detection fires exactly 64 samples (2.56 us at 25 MSPS) after the
start of a 64-sample preamble — the paper's T_xcorr_det.

:class:`CrossCorrelator` runs ``K`` such banks side by side, as the
same Drexel lab's multi-standard packet detector runs several
run-time-swappable preamble correlators concurrently.  Up to
:data:`repro.hw.register_map.MAX_BANKS` banks are stacked into one
block-Toeplitz operand (:func:`repro.kernels.prepare_stacked`) and
evaluated over a *single* shared interleaved sign plane by one
dual-GEMM pass per chunk.  The paper's correlator is the ``K = 1``
case of the same class and the same kernel.

The class is the thin stateful *facade*: it owns the streaming sign
history, the per-bank thresholds and trigger carries, and the scratch
buffers, while the per-sample math runs in :mod:`repro.kernels`.

Banks are hot-swappable: :meth:`CrossCorrelator.load_bank` replaces
one bank's coefficients between chunks (the register bus write path
lands here) and takes effect on the next chunk — the sign history is
received *data*, not coefficient state, so it survives the swap just
as the hardware shift register would.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fixed_point import COEFF3, iq_pairs
from repro.errors import ConfigurationError, StreamError
from repro.hw.register_map import CORRELATOR_LENGTH, MAX_BANKS
from repro.kernels import (
    StackedCoefficients,
    prepare_stacked,
    sign_plane,
    xcorr_detect_stacked,
    xcorr_metric_stacked,
)
from repro.runtime.buffers import ScratchBuffer
from repro.runtime.cache import cached_artifact

#: Pipeline latency from last-sample arrival to trigger assertion, in
#: FPGA clock cycles.  The comparator output registers once.
PIPELINE_LATENCY_CLOCKS = 1

#: Upper bound of the metric: |Re| and |Im| are each at most
#: 64 * (|cI| + |cQ|) <= 64 * (4 + 4), so the metric fits in 32 bits.
METRIC_MAX = 2 * (CORRELATOR_LENGTH * 8) ** 2

#: Host-side protocol names when the caller provides none.
DEFAULT_BANK_LABELS = tuple(f"bank{k}" for k in range(MAX_BANKS))


@cached_artifact
def quantize_coefficients(template: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # repro-lint: disable=RJ003 (host-side offline step, not datapath)
    """Quantize a complex template to 3-bit signed I/Q coefficients.

    The host generates these offline from knowledge of the standard's
    preamble (paper §2.3).  The template is scaled so its largest
    component magnitude maps to the 3-bit maximum (+3), then rounded.

    Memoized by template content (:mod:`repro.runtime.cache`): the
    returned banks are frozen read-only arrays shared by every caller;
    :meth:`CrossCorrelator.load_banks` copies them anyway.

    Returns:
        ``(coeffs_i, coeffs_q)`` int arrays of length 64 in [-4, 3].
    """
    template = np.asarray(template, dtype=np.complex128)
    if template.size != CORRELATOR_LENGTH:
        raise ConfigurationError(
            f"correlator template must have {CORRELATOR_LENGTH} samples, "
            f"got {template.size}"
        )
    peak = float(np.max(np.abs(np.concatenate([template.real, template.imag]))))
    if peak == 0.0:
        raise ConfigurationError("correlator template has zero energy")
    scaled = template / peak * COEFF3.max_int
    coeffs_i = COEFF3.to_int(scaled.real)
    coeffs_q = COEFF3.to_int(scaled.imag)
    return coeffs_i.astype(np.int64), coeffs_q.astype(np.int64)


def _check_bank(coeffs_i: np.ndarray,
                coeffs_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    for name, bank in (("I", coeffs_i), ("Q", coeffs_q)):
        if bank is None:
            raise ConfigurationError(f"missing {name} coefficient bank")
    coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
    coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
    for name, bank in (("I", coeffs_i), ("Q", coeffs_q)):
        if bank.ndim != 1 or bank.size != CORRELATOR_LENGTH:
            raise ConfigurationError(
                f"{name} bank must have {CORRELATOR_LENGTH} coefficients"
            )
        if np.any(bank < COEFF3.min_int) or np.any(bank > COEFF3.max_int):
            raise ConfigurationError(
                f"{name} coefficients exceed the 3-bit signed range"
            )
    return coeffs_i.copy(), coeffs_q.copy()


class CrossCorrelator:
    """K stacked 64-tap sign-bit correlators sharing one GEMM pass.

    Per-bank state is exactly what ``K`` independent correlators would
    keep: one shared 63-pair sign history (every bank is 64 taps, so
    the histories coincide) and a per-bank trigger carry for
    rising-edge extraction.
    """

    def __init__(self) -> None:
        self._banks: list[tuple[np.ndarray, np.ndarray]] = []
        self._thresholds = np.zeros(0, dtype=np.int64)
        self._labels: tuple[str, ...] = ()
        #: The stacked kernel operand; ``None`` until the first use
        #: after a bank change (see :meth:`_prepared`).
        self._stacked: StackedCoefficients | None = None
        # The interleaved sign history (zeros after reset, exactly as
        # the hardware shift register clears); the scratch buffers
        # carry the [history | chunk] plane and the kernel's padded
        # GEMM storage across calls without reallocating.
        self._history = np.zeros(2 * (CORRELATOR_LENGTH - 1),
                                 dtype=np.int8)
        self._last = np.zeros(0, dtype=bool)
        self._plane_scratch = ScratchBuffer(np.int8)
        self._gemm_scratch: ScratchBuffer | None = None
        self._metric_chunks = None
        self._metric_samples = None

    # ------------------------------------------------------------------
    # Configuration

    @property
    def n_banks(self) -> int:
        """Number of loaded banks (0 = unconfigured)."""
        return len(self._banks)

    @property
    def labels(self) -> tuple[str, ...]:
        """Host-side protocol name per bank."""
        return self._labels

    @property
    def thresholds(self) -> np.ndarray:
        """Per-bank detection thresholds (copy)."""
        return self._thresholds.copy()

    @property
    def prepared_coefficients(self) -> StackedCoefficients | None:
        """The stacked kernel operand (frozen), or ``None``."""
        return self._prepared() if self._banks else None

    def bank_coefficients(self, index: int
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Bank ``index``'s I and Q coefficient banks (copies)."""
        coeffs_i, coeffs_q = self._banks[index]
        return coeffs_i.copy(), coeffs_q.copy()

    def load_banks(self, banks, thresholds, labels=None) -> None:
        """Load a full bank set: ``K`` ``(coeffs_i, coeffs_q)`` pairs.

        Replaces any previous configuration; per-bank trigger carries
        restart cleared (as ``K`` freshly-reset single correlators
        would) while the shared sign history — received data — is
        kept.
        """
        banks = [_check_bank(ci, cq) for ci, cq in banks]
        if not 1 <= len(banks) <= MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 1..{MAX_BANKS}, got {len(banks)}"
            )
        thresholds = np.asarray(thresholds, dtype=np.int64)
        if thresholds.shape != (len(banks),):
            raise ConfigurationError(
                f"expected {len(banks)} thresholds, "
                f"got shape {thresholds.shape}"
            )
        if np.any(thresholds < 0) or np.any(thresholds > 0xFFFF_FFFF):
            raise ConfigurationError(
                "per-bank thresholds must fit the 32-bit register"
            )
        if labels is None:
            labels = DEFAULT_BANK_LABELS[:len(banks)]
        labels = tuple(str(label) for label in labels)
        if len(labels) != len(banks):
            raise ConfigurationError(
                f"expected {len(banks)} labels, got {len(labels)}"
            )
        self._banks = banks
        self._thresholds = thresholds.copy()
        self._labels = labels
        self._last = np.zeros(len(banks), dtype=bool)
        self._stacked = None

    def load_bank(self, index: int, coeffs_i: np.ndarray,
                  coeffs_q: np.ndarray) -> None:
        """Hot-swap one bank's coefficients (effective next chunk).

        The shared sign history and every bank's trigger carry are
        untouched — swapping a template does not clear the hardware
        shift register or the comparator output registers.
        """
        self._check_index(index)
        self._banks[index] = _check_bank(coeffs_i, coeffs_q)
        self._stacked = None

    def set_label(self, index: int, label: str) -> None:
        """Rename one bank's host-side protocol label."""
        self._check_index(index)
        labels = list(self._labels)
        labels[index] = str(label)
        self._labels = tuple(labels)

    def set_threshold(self, index: int, threshold: int) -> None:
        """Retune one bank's detection threshold (effective next chunk)."""
        self._check_index(index)
        threshold = int(threshold)
        if not 0 <= threshold <= 0xFFFF_FFFF:
            raise ConfigurationError(
                "threshold must fit the 32-bit register"
            )
        self._thresholds[index] = threshold

    def _prepared(self) -> StackedCoefficients:
        """The stacked operand, built on first use after a bank change.

        The register bus delivers a bank one 32-bit word at a time and
        every word reloads it, so preparing eagerly would build an
        operand per half-written bank that nothing ever detects on.
        """
        if self._stacked is None:
            self._stacked = prepare_stacked(self._banks)
            if self._gemm_scratch is None \
                    or self._gemm_scratch.dtype != self._stacked.gemm_dtype:
                self._gemm_scratch = ScratchBuffer(self._stacked.gemm_dtype)
        return self._stacked

    def _require_configured(self) -> None:
        if not self._banks:
            raise ConfigurationError(
                "no banks loaded; call load_banks() first"
            )

    def _check_index(self, index: int) -> None:
        self._require_configured()
        if not 0 <= index < len(self._banks):
            raise ConfigurationError(
                f"bank index {index} outside the {len(self._banks)} "
                "loaded banks"
            )

    # ------------------------------------------------------------------
    # Telemetry

    def attach_metrics(self, registry) -> None:
        """Fold per-chunk throughput counters into a metrics registry.

        Exposes ``kernels.xcorr.chunks`` / ``kernels.xcorr.samples``.
        Pass ``None`` to detach.
        """
        if registry is None:
            self._metric_chunks = None
            self._metric_samples = None
            return
        self._metric_chunks = registry.counter("kernels.xcorr.chunks")
        self._metric_samples = registry.counter("kernels.xcorr.samples")

    # ------------------------------------------------------------------
    # Streaming state

    def reset(self) -> None:
        """Clear the sign history and trigger carries (hardware reset)."""
        self._history[:] = 0
        self._last[:] = False

    def clear_last(self) -> None:
        """Forget the trigger carries only (used across skipped gaps)."""
        self._last[:] = False

    def resume_from(self, other: CrossCorrelator) -> None:
        """Take over the received stream ``other`` was correlating.

        The sign history is received data, so it moves across with the
        stream; the trigger carries restart cleared, as across a
        skipped gap — ``other``'s comparator outputs say nothing about
        this instance's banks.
        """
        self._history[:] = other._history
        self._last[:] = False

    def _assemble_plane(self, samples: np.ndarray) -> np.ndarray | None:
        """[history | chunk] interleaved sign plane in scratch storage.

        ``None`` for an empty chunk, which leaves the history as it is.
        """
        self._require_configured()
        pairs = iq_pairs(samples)
        if pairs.ndim != 2:
            raise StreamError("CrossCorrelator expects a 1-D sample chunk")
        n = pairs.shape[0]
        if n == 0:
            return None
        history = self._history.size
        plane = self._plane_scratch.view(history + 2 * n)
        plane[:history] = self._history
        sign_plane(pairs, out=plane[history:])
        # The new history is the last 63 sign pairs of the plane; the
        # scratch is distinct storage, so this holds for any chunk size.
        self._history[:] = plane[2 * n:]
        if self._metric_chunks is not None:
            self._metric_chunks.inc()
            self._metric_samples.inc(n)
        return plane

    def metric(self, samples: np.ndarray) -> np.ndarray:
        """Per-bank squared metric, ``(K, n)``; consumes the chunk.

        ``metric[k, n]`` corresponds to bank ``k``'s window *ending* at
        chunk sample ``n``; windows that reach back before the
        first-ever sample see the reset history, which contributes
        zero to the correlation.
        """
        plane = self._assemble_plane(samples)
        if plane is None:
            return np.zeros((self.n_banks, 0), dtype=np.int64)
        stacked = self._prepared()
        return xcorr_metric_stacked(plane, stacked,
                                    scratch=self._gemm_scratch)

    def detect(self, samples: np.ndarray
               ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """One stacked pass: ``((K, n) trigger, per-bank edge indices)``.

        The per-bank trigger carry is owned here, so edges are not
        double-counted across chunk boundaries and the caller simply
        feeds chunks — the path :class:`repro.hw.dsp_core.CustomDspCore`
        runs per chunk.
        """
        plane = self._assemble_plane(samples)
        if plane is None:
            empty = np.zeros(0, dtype=np.int64)
            return (np.zeros((self.n_banks, 0), dtype=bool),
                    tuple(empty for _ in range(self.n_banks)))
        stacked = self._prepared()
        result = xcorr_detect_stacked(plane, stacked, self._thresholds,
                                      last=self._last,
                                      scratch=self._gemm_scratch)
        self._last = result.last
        return result.trigger, result.edges
