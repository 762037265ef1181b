"""Checks shared by every test."""

import atexit
import multiprocessing
import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

# One profile for every property test: the same examples on every run, no
# deadline and no example database.  Hypothesis still caches the constants
# it reads from the source in its home directory, so that goes to a
# temporary directory instead of .hypothesis/ in the checkout.
settings.register_profile("bulksurf", derandomize=True, database=None, deadline=None)
settings.load_profile("bulksurf")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="bulksurf-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test after which a child process (a snapshot writer or a probe
    worker) is still running; end it first, so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    if left:
        pytest.fail(f"{len(left)} child process(es) left running: {left}")
