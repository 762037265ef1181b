"""Checks shared by every test."""

import multiprocessing

import pytest


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
