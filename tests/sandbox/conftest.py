"""Sandbox-suite fixtures."""

import pytest

from repro.sandbox.verifier.analysis import ModuleAnalysis


@pytest.fixture(scope="package", autouse=True)
def _release_shared_analyses():
    """The golden corpus and the degraded-mode tests analyse modules of
    tens of thousands of instructions; the process-wide LRU would keep
    those results (hundreds of thousands of objects) alive through the
    wall-clock guards that run later in the same process."""
    yield
    with ModuleAnalysis._lock:
        ModuleAnalysis._shared.clear()
