"""Shared test fixtures."""

import time

import numpy as np
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

    Call on ``ToneMapIngestor.stats`` after ``close()`` or ``drain()``:
    each submitted frame was served, shed (shed-oldest, the overload
    ladder or drain), expired past its deadline or failed with its
    batch — exactly one of the four.
    """
    submitted = sum(tenant.submitted for tenant in stats.tenants)
    served = sum(tenant.served for tenant in stats.tenants)
    shed = sum(tenant.shed for tenant in stats.tenants)
    failed = sum(tenant.failed for tenant in stats.tenants)
    expired = stats.reliability.deadline_shed
    assert submitted == served + shed + expired + failed, (
        f"ledger open: {submitted} submitted != {served} served + "
        f"{shed} shed + {expired} deadline-shed + {failed} failed"
    )


@pytest.fixture
def assert_ledger_closed():
    """``assert_ledger_closed(stats)``: the ingestor frame-ledger identity."""
    return _assert_ledger_closed


def _run_materialized(backend, stack):
    """One batch through a backend's data plane: lease an arena input
    stack, write ``stack`` into it, ``run_leased``, and return the
    materialized float32 outputs."""
    in_lease = backend.lease_input(np.shape(stack))
    try:
        in_lease.array[:] = stack
        return backend.run_leased(in_lease).materialize()
    finally:
        in_lease.release()


@pytest.fixture
def run_materialized():
    """``run_materialized(backend, stack)``: one leased batch's outputs."""
    return _run_materialized


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Run on the NumPy band kernels, as a host with no C compiler does."""
    monkeypatch.setattr(band_kernels, "compiled_kernels", lambda: None)
