import pytest

from pwadvect import kernel


def pytest_report_header(config):
    # builds the compiled kernel on first use, as the first test would
    lib = kernel._compiled()
    return f"pwadvect kernel: {kernel.evaluator()} ({lib._name if lib else 'no library'})"


@pytest.fixture
def numpy_replay(monkeypatch):
    """Pin compute_block to the numpy replay for one test."""
    monkeypatch.setattr(kernel, "_lib", None)
