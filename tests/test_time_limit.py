"""The per-test time limit of conftest.py fails a test that runs on, and names it."""

import signal
import time
from types import SimpleNamespace

import pytest

import conftest


def test_a_test_past_the_time_limit_fails_and_is_named(monkeypatch):
    monkeypatch.setattr(conftest, "TEST_TIME_LIMIT_S", 0.2)
    handler = signal.getsignal(signal.SIGALRM)
    limited = conftest.pytest_runtest_call(SimpleNamespace(nodeid="tests/test_x.py::test_hangs"))
    next(limited)  # the timer runs from here, as around a test call
    start = time.monotonic()
    with pytest.raises(conftest.TimeLimitExceeded,
                       match="tests/test_x.py::test_hangs ran past the per-test limit of 0.2 s"):
        while True:  # a loop that stopped terminating
            time.sleep(0.01)
    assert time.monotonic() - start < 5
    with pytest.raises(StopIteration):
        limited.send(None)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
