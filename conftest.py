import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "src"))

# seconds each phase of a test (setup, call, teardown) may run before it
# fails; the slowest test takes a few seconds, so only a hang reaches it
TIME_LIMIT_S = 120


class PhaseTimeout(Exception):
    """A test phase ran longer than ``TIME_LIMIT_S``."""


def _expire(signum, frame):
    raise PhaseTimeout(f"test phase ran longer than {TIME_LIMIT_S} s, in "
                       f"{frame.f_code.co_name} ({frame.f_code.co_filename}:{frame.f_lineno})")


def _time_limited():
    # SIGALRM does not exist on every platform; there the phase runs unguarded
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        return (yield)
    except PhaseTimeout as exc:
        # the interrupted frame can carry a traceback entry without a line
        # number, which pytest cannot render, so fail with a fresh exception
        raise PhaseTimeout(str(exc)) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _time_limited())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _time_limited())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    return (yield from _time_limited())
