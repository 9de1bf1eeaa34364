"""Backend dispatch for the detection kernels.

The kernel layer has exactly one semantic: the numpy reference
implementation.  Alternative backends (the optional numba JIT) are
*accelerations* of that semantic, required to be byte-identical to the
reference on every input — the parity tests in
``tests/kernels/test_backend_parity.py`` enforce this, and nothing in
the repo is allowed to behave differently depending on which backend
ran.

Selection order for :func:`get_backend`:

1. an explicit ``backend=`` argument (a name or an already-resolved
   :class:`KernelBackend`) — unknown or unavailable names raise,
   because the caller asked for something specific;
2. the ``REPRO_KERNEL_BACKEND`` environment variable — unknown or
   unavailable names *fall back* to the reference backend with a
   one-shot warning, because an environment knob must never turn a
   working run into a crash (e.g. ``REPRO_KERNEL_BACKEND=numba`` on a
   box without numba);
3. the default: ``numpy``.

Backends register lazily via a factory so that merely importing
:mod:`repro.kernels` never imports an optional dependency.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError

#: Environment variable naming the preferred kernel backend.
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: The reference backend every other backend must match byte-for-byte.
DEFAULT_BACKEND = "numpy"


class BackendUnavailable(Exception):
    """A registered backend cannot run here (missing optional dep)."""


class KernelBackend:
    """Interface the detection kernels dispatch through.

    A backend implements the two primitives every detector reduces to;
    the fused/batched/chained logic above them is backend-independent
    array bookkeeping in :mod:`repro.kernels.xcorr` /
    :mod:`repro.kernels.energy`.
    """

    #: Registry name; concrete backends override this.
    name = "abstract"

    def xcorr_metric_stacked(self, plane: np.ndarray, coeffs,
                             out: np.ndarray | None = None,
                             scratch=None) -> np.ndarray:
        """Per-bank squared metric over one shared sign plane.

        ``plane`` is ``(..., 2 * (history + n))`` int8 with I/Q signs
        interleaved (``plane[..., 2m]`` = sign I of pair ``m``); the
        leading ``2 * (coeffs.taps - 1)`` entries are carried history
        (zeros after reset).  ``coeffs`` is a
        :class:`repro.kernels.xcorr.StackedCoefficients` carrying the
        ``K`` zero-padded banks (``K = 1`` for the paper's correlator).
        Returns ``(..., K, n)`` int64 — bank ``k``'s row is
        byte-identical to the same op run with bank ``k`` alone.
        """
        raise NotImplementedError

    def moving_sums(self, padded: np.ndarray, window: int,
                    out: np.ndarray | None = None,
                    csum_scratch=None) -> np.ndarray:
        """Length-``window`` moving sums over ``(..., window + n)`` rows.

        Each row is ``[tail | energies]`` float64; returns ``(..., n)``
        float64 computed exactly as the sequential cumulative-sum
        difference the streaming block uses, so results are
        bit-identical across backends and batch shapes.
        """
        raise NotImplementedError


_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_WARNED: set[str] = set()


def register_backend(name: str,
                     factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory runs on first selection; it may raise
    :class:`BackendUnavailable` to signal a missing optional
    dependency.
    """
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends that construct on this host."""
    names = []
    for name in _FACTORIES:
        try:
            _resolve(name)
        except BackendUnavailable:
            continue
        names.append(name)
    return tuple(names)


def _resolve(name: str) -> KernelBackend:
    instance = _INSTANCES.get(name)
    if instance is None:
        if name not in _FACTORIES:
            raise ConfigurationError(
                f"unknown kernel backend {name!r}; registered: "
                f"{sorted(_FACTORIES)}"
            )
        instance = _INSTANCES[name] = _FACTORIES[name]()
    return instance


def get_backend(backend: "str | KernelBackend | None" = None
                ) -> KernelBackend:
    """Resolve a kernel backend (see module docstring for the order)."""
    if isinstance(backend, KernelBackend):
        return backend
    if backend is not None:
        return _resolve(backend)
    from_env = os.environ.get(BACKEND_ENV)
    if from_env:
        try:
            return _resolve(from_env)
        except (ConfigurationError, BackendUnavailable) as exc:
            if from_env not in _WARNED:
                _WARNED.add(from_env)
                warnings.warn(
                    f"{BACKEND_ENV}={from_env!r} is not usable here "
                    f"({exc}); falling back to the "
                    f"{DEFAULT_BACKEND!r} reference backend",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _resolve(DEFAULT_BACKEND)
