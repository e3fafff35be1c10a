"""A per-test time limit, so a test that stops terminating fails alone instead of hanging the run.

Each test call runs under a SIGALRM timer.  When it goes off, the test fails
with ``TimeLimitExceeded`` naming it, and the run goes on to the next
test.  That exception derives from BaseException, so neither the test's own
``except Exception`` nor hypothesis (which would replay and shrink a failure)
swallows it.  Standard library only; where SIGALRM does not exist no limit is
set.
"""

import signal

import pytest

#: seconds one test call may run; the slowest tier-1 test takes about 2 s
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran past TEST_TIME_LIMIT_S."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past the per-test limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
