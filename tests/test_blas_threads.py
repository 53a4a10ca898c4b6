"""The test session runs OpenBLAS with one thread (see conftest.py)."""

import ctypes

import numpy as np
import pytest

GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_threads():
    """Thread count reported by the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def test_openblas_runs_one_thread():
    np.ones((2, 2)) @ np.ones((2, 2))  # BLAS is loaded and initialized
    threads = openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS found in this process")
    assert threads == 1
