"""The one shared kernel instance.

The kernel layer has exactly one implementation,
:class:`repro.kernels.numpy_backend.NumpyKernelBackend`.  Every caller
goes through the single instance :func:`get_backend` returns, so the
grow-only scratch buffers it owns are reused across facades and chunks
instead of being re-faulted per caller.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import NumpyKernelBackend

_SHARED = NumpyKernelBackend()


def get_backend() -> NumpyKernelBackend:
    """The shared kernel instance (its ``name`` is ``"numpy"``)."""
    return _SHARED
