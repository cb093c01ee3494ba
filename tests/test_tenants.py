"""Multi-tenant fair scheduling + lease-native delivery tests.

Covers the deficit-round-robin seat allocator (pure, driven grant by
grant), per-tenant admission limits and policies, cross-tenant batch
coalescing, the coalesced shed-storm error contract, per-tenant stats /
fairness index, and the zero-copy ``ResultHandle`` result path.
"""

import os

import numpy as np
import pytest

from repro.errors import ServiceOverloadedError, ToneMapError
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    DeficitRoundRobin,
    FakeClock,
    ResultHandle,
    ServiceStats,
    TenantConfig,
    TenantStats,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)
SHM_DIR = "/dev/shm"


def scenes(count, size=24, base=100):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=base + i),
        )
        for i in range(count)
    ]


def occupy_slot(ingestor, entered, tenant="blocker"):
    """Submit a frame that holds the one batch slot of a gated service
    until its gate opens; later frames stay queued.  Returns its future.
    """
    future = ingestor.submit(scenes(1, base=999)[0], tenant)
    assert entered.wait(timeout=30)
    return future


def shm_names():
    if not os.path.isdir(SHM_DIR):
        pytest.skip("no /dev/shm to scan on this platform")
    return set(os.listdir(SHM_DIR))


class TestDeficitRoundRobin:
    def test_equal_weights_split_evenly(self):
        drr = DeficitRoundRobin()
        grants = drr.allocate({"a": 10, "b": 10}, {"a": 1, "b": 1}, 8)
        assert grants == {"a": 4, "b": 4}

    def test_weights_split_proportionally(self):
        drr = DeficitRoundRobin()
        grants = drr.allocate({"a": 100, "b": 100}, {"a": 3, "b": 1}, 8)
        assert grants == {"a": 6, "b": 2}

    def test_light_tenant_always_gets_a_seat(self):
        # The tentpole property: a huge backlog cannot squeeze out a
        # tenant with one queued frame.
        drr = DeficitRoundRobin()
        grants = drr.allocate({"heavy": 1000, "light": 1}, {}, 8)
        assert grants["light"] == 1
        assert grants["heavy"] == 7

    def test_fractional_weight_served_every_other_round(self):
        drr = DeficitRoundRobin()
        # weight 0.5 accrues one seat every two allocations while the
        # tenant stays backlogged.
        seats = [
            drr.allocate({"a": 10, "b": 10}, {"a": 1, "b": 0.5}, 3)
            for _ in range(2)
        ]
        total_b = sum(grant.get("b", 0) for grant in seats)
        total_a = sum(grant.get("a", 0) for grant in seats)
        assert total_a == 2 * total_b

    def test_grants_sum_to_available(self):
        drr = DeficitRoundRobin()
        grants = drr.allocate({"a": 2, "b": 1}, {"a": 1, "b": 1}, 8)
        assert sum(grants.values()) == 3
        assert grants == {"a": 2, "b": 1}

    def test_drained_queue_forfeits_deficit(self):
        drr = DeficitRoundRobin()
        # b drains in round 1; its deficit must not bank credit it can
        # spend in round 2 after sitting idle.
        drr.allocate({"a": 10, "b": 1}, {"a": 1, "b": 5}, 4)
        grants = drr.allocate({"a": 10, "b": 10}, {"a": 1, "b": 1}, 8)
        assert grants == {"a": 4, "b": 4}

    def test_empty_input_returns_nothing(self):
        drr = DeficitRoundRobin()
        assert drr.allocate({}, {}, 8) == {}
        assert drr.allocate({"a": 0}, {"a": 1}, 8) == {}

    def test_tiny_weights_allocate_without_spinning(self):
        # Weights are only required to be > 0; a microscopic one must
        # not make allocate() spin millions of rotations under the
        # ingestor lock.  Increments are normalized per rotation, so
        # this completes in O(seats) and the share ratios still hold.
        import time as _time

        drr = DeficitRoundRobin()
        start = _time.perf_counter()
        grants = drr.allocate({"a": 8}, {"a": 1e-8}, 8)
        assert _time.perf_counter() - start < 0.5
        assert grants == {"a": 8}
        drr = DeficitRoundRobin()
        totals = {"big": 0, "tiny": 0}
        for _ in range(2_000_000 // 100_000):
            grant = drr.allocate(
                {"big": 100, "tiny": 100},
                {"big": 1.0, "tiny": 1e-6},
                4,
            )
            for name, n in grant.items():
                totals[name] += n
        # The heavy tenant dominates in proportion; the tiny one is not
        # starved forever but accrues (almost) nothing at this horizon.
        assert totals["big"] >= 0.9 * (totals["big"] + totals["tiny"])

    def test_deterministic_across_instances(self):
        a = DeficitRoundRobin()
        b = DeficitRoundRobin()
        queued = {"x": 7, "y": 3, "z": 5}
        weights = {"x": 2, "y": 1, "z": 1}
        for _ in range(4):
            assert a.allocate(dict(queued), weights, 4) == b.allocate(
                dict(queued), weights, 4
            )


class TestTenantConfig:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ToneMapError):
            TenantConfig(weight=0.0)
        with pytest.raises(ToneMapError):
            TenantConfig(weight=-1.0)

    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ToneMapError):
            TenantConfig(queue_limit=0)

    def test_policy_string_normalized(self):
        from repro.runtime import BackpressurePolicy

        config = TenantConfig(policy="reject")
        assert config.policy is BackpressurePolicy.REJECT

    def test_weight_shorthand_in_ingestor(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(
                service, tenants={"heavy": 3, "light": TenantConfig()}
            ) as ingestor:
                ingestor.map_many(scenes(2), tenant="heavy")
                stats = ingestor.stats
        by_name = {t.tenant: t for t in stats.tenants}
        assert by_name["heavy"].weight == 3.0
        assert by_name["light"].weight == 1.0

    def test_bad_tenant_config_type_rejected(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            with pytest.raises(ToneMapError):
                ToneMapIngestor(service, tenants={"a": "fast"})


class TestPerTenantAdmission:
    def test_tenant_limit_does_not_block_other_tenants(self, gated_blur):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=64,
                per_tenant_queue_limit=2,
                policy="reject",
            )
            heavy = [
                ingestor.submit(img, tenant="heavy")
                for img in scenes(2, base=0)
            ]
            # heavy is at its own limit; its third frame is refused ...
            with pytest.raises(ServiceOverloadedError) as info:
                ingestor.submit(scenes(1, base=9)[0], tenant="heavy")
            assert info.value.tenant == "heavy"
            # ... but light admits freely.
            light = ingestor.submit(scenes(1, base=5)[0], tenant="light")
            gate.set()
            ingestor.close()
            for future in heavy + [light]:
                assert future.result(timeout=30) is not None
            stats = ingestor.stats
        by_name = {t.tenant: t for t in stats.tenants}
        assert by_name["heavy"].rejected == 1
        assert by_name["light"].rejected == 0
        assert by_name["light"].served == 1

    def test_tenant_policy_overrides_default(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=64,
                policy="block",
                tenants={
                    "spiky": TenantConfig(queue_limit=1, policy="shed-oldest")
                },
            )
            blocker = occupy_slot(ingestor, entered)
            first = ingestor.submit(scenes(1, base=0)[0], tenant="spiky")
            second = ingestor.submit(scenes(1, base=1)[0], tenant="spiky")
            with pytest.raises(ServiceOverloadedError):
                first.result(timeout=5)
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert second.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_global_shed_takes_globally_oldest(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=3,
                policy="shed-oldest",
            )
            blocker = occupy_slot(ingestor, entered)
            oldest = ingestor.submit(scenes(1, base=0)[0], tenant="heavy")
            kept = ingestor.submit(scenes(1, base=1)[0], tenant="heavy")
            newcomer = ingestor.submit(scenes(1, base=2)[0], tenant="light")
            with pytest.raises(ServiceOverloadedError):
                oldest.result(timeout=5)
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert kept.result(timeout=30) is not None
            assert newcomer.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)


class TestCrossTenantCoalescing:
    def test_one_batch_serves_two_tenants(
        self, gated_blur, assert_ledger_closed
    ):
        # Two same-shape frames from different tenants waiting behind a
        # busy slot must coalesce into a single batch, not one batch per
        # tenant.
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            with ToneMapIngestor(service) as ingestor:
                blocker = occupy_slot(ingestor, entered)
                a = ingestor.submit(scenes(1, base=0)[0], tenant="a")
                b = ingestor.submit(scenes(1, base=1)[0], tenant="b")
                gate.set()
                assert blocker.result(timeout=30) is not None
                assert a.result(timeout=30) is not None
                assert b.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)
        assert service.stats.batches == 2  # the blocker's, then a + b

    def test_outputs_identical_across_tenants(self):
        images = scenes(6)
        with ToneMapService(PARAMS, batch_size=3, shards=1) as service:
            with ToneMapIngestor(service) as ingestor:
                futures = [
                    ingestor.submit(img, tenant=("a" if i % 2 else "b"))
                    for i, img in enumerate(images)
                ]
                outputs = [f.result(timeout=30) for f in futures]
        expected = BatchToneMapper(PARAMS).run(images).outputs
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got.pixels, want.pixels)

    def test_light_tenant_not_starved_by_heavy_backlog(
        self, gated_blur, assert_ledger_closed
    ):
        # The tentpole behavior, end to end: a light frame arriving
        # behind a heavy backlog rides the *next* scheduled batch.
        params, entered, gate = gated_blur
        done_at = {}
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            ingestor = ToneMapIngestor(service)
            futures = {}
            # The first heavy dispatches at once (and blocks on the
            # gate); five more park in heavy's queue.
            for i, img in enumerate(scenes(6, base=0)):
                futures[f"h{i}"] = ingestor.submit(img, tenant="heavy")
                if i == 0:
                    assert entered.wait(timeout=30)
            futures["light"] = ingestor.submit(
                scenes(1, base=50)[0], tenant="light"
            )
            import time as _time

            for key, future in futures.items():
                future.add_done_callback(
                    lambda f, key=key: done_at.setdefault(
                        key, _time.perf_counter()
                    )
                )
            gate.set()
            ingestor.close()
            assert_ledger_closed(ingestor.stats)
        # The light frame must complete before heavy's tail: it gets a
        # DRR seat in the first post-backlog batch, so at least two
        # parked heavies finish after it.
        later = [k for k in ("h2", "h3", "h4", "h5")
                 if done_at[k] > done_at["light"]]
        assert len(later) >= 2, (done_at, later)

    def test_oldest_head_outranks_younger_full_shape(
        self, gated_blur, assert_ledger_closed
    ):
        # A tenant flooding one frame shape keeps that shape full; a
        # different-shape frame that is older than the flood's head must
        # leave first, alone, instead of waiting out the whole flood
        # (which is what full-shape-first selection would do: the odd
        # partial batch can never fill and would always lose).
        params, entered, gate = gated_blur
        clock = FakeClock()
        done = []
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            ingestor = ToneMapIngestor(service, clock=clock)
            futures = {"blocker": occupy_slot(ingestor, entered)}
            clock.advance(1.0)
            # Different shape, single frame: can never fill a batch.
            futures["odd"] = ingestor.submit(
                scenes(1, size=16, base=77)[0], tenant="rare"
            )
            for i, img in enumerate(scenes(4, size=24, base=0)):
                clock.advance(1.0)
                futures[f"h{i}"] = ingestor.submit(img, tenant="flood")
            for key, future in futures.items():
                future.add_done_callback(lambda f, key=key: done.append(key))
            gate.set()
            ingestor.close()
            assert_ledger_closed(ingestor.stats)
        # One slot, so completion order is dispatch order: the odd head
        # (age 4) goes before the full flood shape (head age 3).
        assert done == ["blocker", "odd", "h0", "h1", "h2", "h3"], done

    def test_fairness_index_near_one_for_weighted_service(self):
        stats = ServiceStats(
            tenants=(
                TenantStats(tenant="a", weight=2.0, submitted=20, served=20),
                TenantStats(tenant="b", weight=1.0, submitted=10, served=10),
            )
        )
        assert stats.fairness_index == pytest.approx(1.0)

    def test_fairness_index_detects_monopoly(self):
        stats = ServiceStats(
            tenants=(
                TenantStats(tenant="a", weight=1.0, submitted=90, served=90),
                TenantStats(tenant="b", weight=1.0, submitted=90, served=0),
            )
        )
        assert stats.fairness_index == pytest.approx(0.5)

    def test_fairness_index_vacuous_for_single_tenant(self):
        assert ServiceStats().fairness_index == 1.0
        stats = ServiceStats(
            tenants=(TenantStats(tenant="a", submitted=5, served=5),)
        )
        assert stats.fairness_index == 1.0


class TestShedStormCoalescing:
    def test_storm_victims_share_one_error_context(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=3,
                policy="shed-oldest",
            )
            blocker = occupy_slot(ingestor, entered)
            victims = [ingestor.submit(img) for img in scenes(2, base=0)]
            # Each newcomer sheds one victim; all sheds belong to one
            # storm (no dispatch in between), so the victims must share
            # a single coalesced exception instance.
            survivors = [
                ingestor.submit(img) for img in scenes(2, base=10)
            ]
            errors = [future.exception(timeout=5) for future in victims]
            assert all(isinstance(e, ServiceOverloadedError) for e in errors)
            assert errors[0] is errors[1], "storm must coalesce contexts"
            assert errors[0].shed_count == 2
            # The *global* limit bound, so the storm is not attributed
            # to any single tenant.
            assert errors[0].tenant is None
            assert ingestor.stats.shed == 2
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            for future in survivors:
                assert future.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_new_storm_gets_fresh_context_after_dispatch(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=2,
                policy="shed-oldest",
            )
            # First frame dispatches and blocks on the gate; the next
            # one parks where a newcomer can shed it.
            running = ingestor.submit(scenes(1, base=0)[0])
            assert entered.wait(timeout=30)
            victim1 = ingestor.submit(scenes(1, base=1)[0])
            kept1 = ingestor.submit(scenes(1, base=2)[0])  # storm 1
            storm1 = victim1.exception(timeout=5)
            assert isinstance(storm1, ServiceOverloadedError)
            # Drain: the dispatch of `kept1` ends storm 1.
            gate.set()
            assert running.result(timeout=30) is not None
            assert kept1.result(timeout=30) is not None
            # Rebuild the same overload shape for storm 2: kept1's batch
            # has run, so the next blur call is running2's.
            entered.clear()
            gate.clear()
            running2 = ingestor.submit(scenes(1, base=3)[0])
            assert entered.wait(timeout=30)
            victim2 = ingestor.submit(scenes(1, base=4)[0])
            kept2 = ingestor.submit(scenes(1, base=5)[0])  # storm 2
            storm2 = victim2.exception(timeout=5)
            assert isinstance(storm2, ServiceOverloadedError)
            assert storm2 is not storm1, "dispatch must end a storm"
            assert storm1.shed_count == 1
            assert storm2.shed_count == 1
            gate.set()
            ingestor.close()
            assert running2.result(timeout=30) is not None
            assert kept2.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_concurrent_storms_keep_separate_scopes(
        self, gated_blur, assert_ledger_closed
    ):
        # Two tenants hitting their own limits (no dispatch between)
        # must each get their own coalesced context with their own
        # tenant attribution — not share the first storm's metadata.
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=64,
                per_tenant_queue_limit=2,
                policy="shed-oldest",
            )
            blocker = occupy_slot(ingestor, entered)
            a_victim = ingestor.submit(scenes(1, base=0)[0], tenant="a")
            ingestor.submit(scenes(1, base=1)[0], tenant="a")
            ingestor.submit(scenes(1, base=2)[0], tenant="a")  # sheds in a
            b_victim = ingestor.submit(scenes(1, base=3)[0], tenant="b")
            ingestor.submit(scenes(1, base=4)[0], tenant="b")
            ingestor.submit(scenes(1, base=5)[0], tenant="b")  # sheds in b
            storm_a = a_victim.exception(timeout=5)
            storm_b = b_victim.exception(timeout=5)
            assert storm_a is not storm_b
            assert storm_a.tenant == "a" and storm_a.shed_count == 1
            assert storm_b.tenant == "b" and storm_b.shed_count == 1
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_shed_storm_holds_no_arena_slots(
        self, gated_blur, assert_ledger_closed
    ):
        # Slot accounting: queued frames own no arena leases, so a shed
        # storm leaves the data plane untouched — nothing to release,
        # nothing leaked, no staged bytes.  Only the blocker's batch,
        # running in the one slot, holds leases meanwhile.
        params, entered, gate = gated_blur
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service,
                queue_limit=3,
                policy="shed-oldest",
            )
            blocker = occupy_slot(ingestor, entered)
            before = service.pool.data_plane_stats
            victims = [ingestor.submit(img) for img in scenes(2, base=0)]
            survivors = [
                ingestor.submit(img) for img in scenes(4, base=10)
            ]
            during = service.pool.data_plane_stats
            assert during.arena.leases_active == before.arena.leases_active
            assert during.arena.acquisitions == before.arena.acquisitions
            for victim in victims[:2]:
                assert isinstance(
                    victim.exception(timeout=5), ServiceOverloadedError
                )
            gate.set()
            ingestor.close()
            assert blocker.result(timeout=30) is not None
            after = service.pool.data_plane_stats
            assert after.arena.leases_active == 0
            assert after.arena.bytes_copied_in == 0
            for future in survivors[-2:]:
                assert future.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)


class TestLeaseNativeResults:
    def test_handles_bit_identical_to_materialized(self):
        images = scenes(4, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                futures = [ingestor.submit(img) for img in images]
                handles = [f.result(timeout=30) for f in futures]
                assert all(isinstance(h, ResultHandle) for h in handles)
                expected = BatchToneMapper(PARAMS).run(images).outputs
                for handle, want in zip(handles, expected):
                    np.testing.assert_array_equal(handle.pixels, want.pixels)
                for handle in handles:
                    handle.release()
            assert service.pool.arena.stats.leases_active == 0

    def test_lease_results_stage_zero_bytes(self):
        images = scenes(4, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                for future in [ingestor.submit(img) for img in images]:
                    future.result(timeout=30).release()
            stats = service.pool.data_plane_stats
        # Neither ingest nor delivery copied a byte: frames entered SHM
        # once (the producer write) and results were read in place.
        assert stats.arena.bytes_copied_in == 0
        assert stats.arena.bytes_materialized == 0

    def test_slab_recycles_after_last_handle(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        images = scenes(2, size=16)
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                blocker = occupy_slot(ingestor, entered)
                # Both wait behind the busy slot and share one batch.
                pending = [ingestor.submit(img) for img in images]
                gate.set()
                blocker.result(timeout=30).release()
                first, second = [f.result(timeout=30) for f in pending]
                arena = service.pool.arena
                assert arena.stats.leases_active == 1  # both share the slab
                first.release()
                assert arena.stats.leases_active == 1
                second.release()
                assert arena.stats.leases_active == 0
                first.release()  # idempotent
            assert_ledger_closed(ingestor.stats)

    def test_released_handle_refuses_reads(self):
        images = scenes(2, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                handle = ingestor.submit(images[0]).result(timeout=30)
                with handle:
                    assert handle.shape == (16, 16, 3)
                assert handle.released
                with pytest.raises(ToneMapError):
                    handle.pixels

    def test_materialize_escapes_the_lease(self):
        images = scenes(2, size=16)
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                handle = ingestor.submit(images[0]).result(timeout=30)
                view = handle.pixels.copy()
                image = handle.materialize()
            assert handle.released
            assert image.name.endswith(":tonemapped")
            np.testing.assert_array_equal(image.pixels, view)
            assert service.pool.arena.stats.leases_active == 0

    def test_no_shm_leak_across_lease_serving(self):
        baseline = shm_names()
        images = scenes(6, size=16)
        with ToneMapService(PARAMS, batch_size=3, shards=1) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                for future in [ingestor.submit(img) for img in images]:
                    future.result(timeout=30).release()
        assert shm_names() <= baseline

    def test_in_process_lease_results(self):
        # No pool needed: the in-process backend's arena is what the
        # handles lease from.
        baseline = shm_names()
        images = scenes(5, size=16)
        expected = BatchToneMapper(PARAMS).run(images).outputs
        with ToneMapService(PARAMS, batch_size=2) as service:
            with ToneMapIngestor(service, lease_results=True) as ingestor:
                handles = [
                    f.result(timeout=30)
                    for f in [ingestor.submit(img) for img in images]
                ]
            assert all(isinstance(h, ResultHandle) for h in handles)
            for handle, want in zip(handles, expected):
                np.testing.assert_array_equal(handle.pixels, want.pixels)
                handle.release()
            stats = service.pool.data_plane_stats
            assert stats.arena.leases_active == 0
            assert stats.bytes_staged == 0
        assert shm_names() <= baseline

    def test_submit_stack_lease_results_direct(self):
        # The service-level API underneath the ingestor flag.
        stack = np.random.default_rng(5).uniform(
            0.0, 1.0, (3, 16, 16)
        ).astype(np.float32)
        with ToneMapService(PARAMS, batch_size=4, shards=1) as service:
            lease = service.lease_input((16, 16))
            lease.array[:3] = stack
            future = service.submit_stack(
                lease, 3, ["a", "b", "c"], lease_results=True
            )
            handles = future.result(timeout=30)
            want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
            for i, handle in enumerate(handles):
                np.testing.assert_array_equal(handle.pixels, want[i])
                handle.release()
            assert service.pool.arena.stats.leases_active == 0


class TestIngestorValidation:
    def test_bad_knobs_rejected(self):
        with ToneMapService(PARAMS) as service:
            with pytest.raises(ToneMapError):
                ToneMapIngestor(service, per_tenant_queue_limit=0)

    def test_async_submit_carries_tenant(self):
        import asyncio

        async def main():
            with ToneMapService(PARAMS, batch_size=2) as service:
                with ToneMapIngestor(service) as ingestor:
                    out = await ingestor.submit_async(
                        scenes(1)[0], tenant="vip"
                    )
                stats = ingestor.stats  # closed: all bookkeeping settled
                return out, stats

        output, stats = asyncio.run(main())
        assert output is not None
        assert any(t.tenant == "vip" and t.served == 1 for t in stats.tenants)
