"""Fixtures shared by the whole suite."""

import signal

import pytest

#: ceiling for tests that wait on forked workers; each such test also
#: asserts its own, tighter, elapsed time where the contract names one
HARD_TIME_BOUND_S = 60


@pytest.fixture
def hard_time_bound():
    """Fail (instead of hanging CI) when a test outlives its bound.

    ``SIGALRM`` interrupts a blocked ``wait``/``recv`` in the main
    thread; forked workers do not inherit a pending alarm.
    """

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its hard {HARD_TIME_BOUND_S} s time bound"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
