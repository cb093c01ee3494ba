"""Shared test fixtures."""

import time

import pytest

from repro.runtime import band_kernels


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


def _assert_ledger_closed(stats):
    """Every frame an ingestor admitted ended in one terminal outcome.

    Call on ``ToneMapIngestor.stats`` after ``close()`` or ``drain()``
    in a run where no batch failed: each submitted frame was served,
    shed (shed-oldest, the overload ladder or drain) or expired past
    its deadline — exactly one of the three.
    """
    submitted = sum(tenant.submitted for tenant in stats.tenants)
    served = sum(tenant.served for tenant in stats.tenants)
    shed = sum(tenant.shed for tenant in stats.tenants)
    expired = stats.reliability.deadline_shed
    assert submitted == served + shed + expired, (
        f"ledger open: {submitted} submitted != {served} served + "
        f"{shed} shed + {expired} deadline-shed"
    )


@pytest.fixture
def assert_ledger_closed():
    """``assert_ledger_closed(stats)``: the ingestor frame-ledger identity."""
    return _assert_ledger_closed


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Run on the NumPy band kernels, as a host with no C compiler does."""
    monkeypatch.setattr(band_kernels, "compiled_kernels", lambda: None)
