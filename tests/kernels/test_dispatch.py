"""The shared kernel instance the facades and the benchmark read."""

from __future__ import annotations

from repro.kernels import NumpyKernelBackend, get_backend


class TestSelection:
    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"
        assert isinstance(get_backend(), NumpyKernelBackend)

    def test_instances_are_cached(self):
        assert get_backend() is get_backend()
