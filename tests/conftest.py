"""Test-wide configuration.

Hypothesis runs derandomized and without a per-example deadline, and keeps
no example database, so every run of the suite draws the same examples.
A test that runs past TEST_TIME_LIMIT seconds ends the run with every
thread's traceback, so a hang fails instead of holding the run.
"""

import faulthandler
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from exptrig.params import Lanes

settings.register_profile("exptrig", derandomize=True, deadline=None, database=None)
settings.load_profile("exptrig")

TEST_TIME_LIMIT = 120
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so stderr is the
    # terminal's here; during a test it may be a capture file, which an exit
    # from faulthandler would leave unread.
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    """Dump every thread's traceback and exit if the test outlasts TEST_TIME_LIMIT."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def _check_lanes(lanes) -> None:
    """What every core over arrays returns: one params.Lanes whose fields
    each hold one entry per lane, where a lane is ok exactly when it has no
    error, and an ok lane has a finite value and a count of at least 1."""
    assert isinstance(lanes, Lanes)
    assert len({len(field) for field in lanes}) == 1
    for i, (ok, error) in enumerate(zip(lanes.ok.tolist(), lanes.error)):
        assert ok == (error is None), i
        if ok:
            assert np.isfinite(lanes.value[i]).all() and lanes.count[i] >= 1, i


@pytest.fixture(scope="session")
def lane_contract():
    """_check_lanes, for the tests of every lane route (session-scoped, so
    hypothesis tests may take it)."""
    return _check_lanes
