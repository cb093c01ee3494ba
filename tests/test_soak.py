"""Concurrency soak: hammer the multi-tenant runtime and hold invariants.

Marked ``slow``: the default CI test job deselects it (``-m "not
slow"``), the per-PR fault-injection job runs it with a 3 s soak, and
the nightly job runs it with a longer duration via ``SOAK_SECONDS``.
The tier-1 local run keeps the default short soak so the invariants
stay continuously exercised.

Invariants held under sustained mixed-shape multi-tenant load:

* weighted fairness — saturating tenants are served in proportion to
  their DRR weights (ratio band + Jain index floor);
* zero steady-state SHM allocations — the arena stops creating
  segments once warm, storms and all;
* clean shutdown — every future resolves, nothing stays leased, and
  ``/dev/shm`` ends exactly as it started.
"""

import os
import threading
import time

import pytest

from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import TenantConfig, ToneMapIngestor, ToneMapService
from repro.tonemap.pipeline import ToneMapParams

pytestmark = pytest.mark.slow

PARAMS = ToneMapParams(sigma=2.0, radius=6)
SHM_DIR = "/dev/shm"

#: Soak duration; the nightly CI job raises it (e.g. SOAK_SECONDS=20).
SOAK_SECONDS = float(os.environ.get("SOAK_SECONDS", "3.0"))


def shm_names():
    if not os.path.isdir(SHM_DIR):
        pytest.skip("no /dev/shm to scan on this platform")
    return set(os.listdir(SHM_DIR))


def test_multi_tenant_soak_fairness_and_zero_allocs():
    baseline_shm = shm_names()
    # Pre-built frames so submitter threads measure the runtime, not the
    # synthetic-scene generator.
    frame_a = [
        make_scene(
            "window_interior", SceneParams(height=24, width=24, seed=i)
        )
        for i in range(4)
    ]
    frame_b = [
        make_scene(
            "window_interior", SceneParams(height=32, width=32, seed=50 + i)
        )
        for i in range(4)
    ]
    deadline = time.perf_counter() + SOAK_SECONDS
    stop = threading.Event()
    futures_by_tenant = {"heavy": [], "light": [], "bursty": []}
    errors = []

    with ToneMapService(
        PARAMS, batch_size=4, max_workers=4, shards=2, arena_slots=8
    ) as service:
        ingestor = ToneMapIngestor(
            service,
            queue_limit=48,
            per_tenant_queue_limit=16,
            policy="block",
            tenants={
                "heavy": TenantConfig(weight=2.0),
                "light": TenantConfig(weight=1.0),
                "bursty": TenantConfig(weight=1.0),
            },
        )

        def submitter(tenant, frames):
            index = 0
            try:
                while not stop.is_set():
                    future = ingestor.submit(frames[index % 4], tenant)
                    futures_by_tenant[tenant].append(future)
                    index += 1
            except Exception as exc:  # pragma: no cover - should not happen
                errors.append((tenant, exc))

        # heavy and light fight over the *same* shape (the direct DRR
        # contention the weights must resolve); bursty stresses the
        # mixed-shape path with start/stop pulses of a second shape.
        threads = [
            threading.Thread(target=submitter, args=("heavy", frame_a)),
            threading.Thread(target=submitter, args=("light", frame_a)),
        ]

        def bursty():
            try:
                while not stop.is_set():
                    for _ in range(8):
                        if stop.is_set():
                            return
                        futures_by_tenant["bursty"].append(
                            ingestor.submit(
                                frame_b[len(futures_by_tenant["bursty"]) % 4],
                                "bursty",
                            )
                        )
                    time.sleep(0.01)
            except Exception as exc:  # pragma: no cover
                errors.append(("bursty", exc))

        threads.append(threading.Thread(target=bursty))
        for thread in threads:
            thread.start()

        while time.perf_counter() < deadline:
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "submitter thread hung"

        assert not errors, errors
        # --- every soak future resolves (nothing hung, nothing lost) --
        for tenant, futures in futures_by_tenant.items():
            assert futures, f"tenant {tenant} never submitted"
            for future in futures:
                assert future.result(timeout=60) is not None
        # --- zero steady-state SHM allocations ------------------------
        # The soak drove the arena to its full working-set depth; an
        # echo round of the very same traffic over the warm pool must
        # not create a single further segment (and the soak itself must
        # never have overflowed into transient ones).
        warm = service.pool.data_plane_stats
        assert warm.batches > 0, "soak produced no load"
        assert warm.arena.overflow == 0, "soak overflowed the slab ring"
        for tenant, frames in (
            ("heavy", frame_a), ("light", frame_a), ("bursty", frame_b)
        ):
            # Two waves of two batches each: echo concurrency stays at
            # or below what the soak already drove per shape, so any new
            # segment here is a genuine steady-state allocation.
            for _ in range(2):
                ingestor.map_many(frames * 2, tenant)
        echo = service.pool.data_plane_stats
        assert (
            echo.arena.segments_created == warm.arena.segments_created
        ), "steady-state serving allocated shared memory"
        assert echo.arena.overflow == warm.arena.overflow
        ingestor.close()
        stats = ingestor.stats
        assert stats.queue_depth == 0
        assert stats.shed == 0 and stats.rejected == 0  # block policy
        # --- weighted fairness ----------------------------------------
        by_name = {t.tenant: t for t in stats.tenants}
        heavy, light = by_name["heavy"], by_name["light"]
        soak_submitted = sum(len(f) for f in futures_by_tenant.values())
        served_total = sum(t.served for t in stats.tenants)
        assert served_total == soak_submitted + 3 * 16  # echo rounds
        ratio = heavy.served / max(1, light.served)
        assert 1.3 <= ratio <= 3.0, (
            f"heavy/light served ratio {ratio:.2f} strayed from the 2:1 "
            f"weights (heavy {heavy.served}, light {light.served})"
        )
        # Jain's index over the *saturating* tenants (DRR promises
        # weight-proportional service only to backlogged queues; bursty
        # under-demands on purpose and legitimately gets less).
        from dataclasses import replace

        saturated = replace(stats, tenants=(heavy, light))
        assert saturated.fairness_index > 0.9, saturated.fairness_index
        # Nobody starved: the light tenant's p95 stayed in the same
        # regime as the heavy tenant's (not unboundedly behind it).
        assert light.latency_p95_ms <= 4 * max(1.0, heavy.latency_p95_ms)
        # --- data plane ends clean ------------------------------------
        assert service.pool.arena.stats.leases_active == 0
    assert shm_names() <= baseline_shm
