"""Shared test fixtures."""

import time

import pytest


def _wait_for_corpse(pool, timeout=30.0):
    """Block until a shard pool's executor has noticed a killed worker.

    SIGKILL is asynchronous: with two workers the survivor can drain an
    entire batch before the executor's manager thread reaps the corpse,
    in which case the next dispatch succeeds *without* a respawn and
    ``worker_respawns`` assertions race (seen under CPU contention).
    The executor flags itself broken the moment it reaps — wait for
    that before dispatching the batch that must trip over the corpse.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool._executor._broken:
            return
        time.sleep(0.005)
    pytest.fail("executor never noticed the killed worker")


@pytest.fixture
def wait_for_corpse():
    """``wait_for_corpse(pool)``: call between ``os.kill`` and dispatch."""
    return _wait_for_corpse
