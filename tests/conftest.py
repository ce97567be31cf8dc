import sys
import threading

import pytest

from erunion import spectral


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"ACCEPTANCE {name}: {status}", file=sys.stderr)


@pytest.fixture
def blas_get_at_two_threads():
    """numpy's OpenBLAS set to 2 threads for the test; yields its thread-count getter."""
    controls = spectral._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in /proc/self/maps")
    get, set_ = controls
    original = get()
    set_(2)
    try:
        yield get
    finally:
        set_(original)


@pytest.fixture
def record_dsyevr(monkeypatch):
    """``start(get, fail=False)``: from then on each dsyevr call of the
    solver seam appends (in main thread, ``get()``) to the list ``start``
    returns, and raises when ``fail`` is set."""
    dsyevr = spectral._dsyevr()
    if dsyevr is None:
        pytest.skip("numpy's OpenBLAS exports no scipy_dsyevr_64_")

    def start(get, fail=False):
        seen = []

        def recording(*args):
            seen.append((threading.current_thread() is threading.main_thread(), get()))
            if fail:
                raise RuntimeError("solver failed")
            return dsyevr(*args)

        monkeypatch.setattr(spectral, "_dsyevr", lambda: recording)
        return seen

    return start
