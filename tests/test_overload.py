"""Tests for the SLO degradation ladder and service-class scheduling.

The :class:`~repro.runtime.overload.OverloadController` is a pure
policy object, so its hysteresis is driven observation by observation
on a :class:`~repro.runtime.clock.FakeClock`.  Class-aware shedding is
exercised both white-box (fabricated queues, exact victim selection)
and end-to-end through a gated ingestor whose queue state is
deterministic.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ServiceOverloadedError, ToneMapError
from repro.image.synthetic import SceneParams, make_scene
from repro.planner import plan_for
from repro.runtime import (
    LADDER,
    BatchToneMapper,
    FakeClock,
    OverloadController,
    OverloadPolicy,
    ReliabilityStats,
    ServiceClass,
    ServiceLevelObjective,
    ToneMapIngestor,
    ToneMapService,
)
from repro.runtime.ingest import _coerce_class, _edf_key, _Pending
from repro.runtime.overload import (
    LADDER_BROWNOUT,
    LADDER_FULL,
    LADDER_SHED,
    rung_index,
)
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)


def scenes(count, size=24, base=100):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=base + i),
        )
        for i in range(count)
    ]


def depth_policy(limit=4, **kwargs):
    return OverloadPolicy(
        slo=ServiceLevelObjective(queue_depth=limit), **kwargs
    )


class TestServiceLevelObjective:
    def test_requires_at_least_one_bound(self):
        with pytest.raises(ToneMapError, match="needs p95_ms"):
            ServiceLevelObjective()

    def test_rejects_nonpositive_p95(self):
        with pytest.raises(ToneMapError, match="p95_ms must be > 0"):
            ServiceLevelObjective(p95_ms=0.0)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ToneMapError, match="queue_depth must be >= 1"):
            ServiceLevelObjective(queue_depth=0)

    def test_single_bound_is_enough(self):
        assert ServiceLevelObjective(p95_ms=50.0).queue_depth is None
        assert ServiceLevelObjective(queue_depth=8).p95_ms is None


class TestOverloadPolicy:
    def test_slo_type_checked(self):
        with pytest.raises(ToneMapError, match="must be a ServiceLevel"):
            OverloadPolicy(slo="fast please")

    def test_patience_bounds(self):
        with pytest.raises(ToneMapError, match="patience"):
            depth_policy(climb_patience=0)
        with pytest.raises(ToneMapError, match="patience"):
            depth_policy(descend_patience=0)

    def test_recover_fraction_bounds(self):
        with pytest.raises(ToneMapError, match="recover_fraction"):
            depth_policy(recover_fraction=0.0)
        with pytest.raises(ToneMapError, match="recover_fraction"):
            depth_policy(recover_fraction=1.5)

    def test_min_dwell_nonnegative(self):
        with pytest.raises(ToneMapError, match="min_dwell_s"):
            depth_policy(min_dwell_s=-1.0)

    def test_controller_requires_policy(self):
        with pytest.raises(ToneMapError, match="OverloadPolicy"):
            OverloadController(ServiceLevelObjective(queue_depth=4))


class TestOverloadController:
    def test_starts_full_and_climbs_after_patience(self):
        ctl = OverloadController(depth_policy(4, climb_patience=3))
        assert ctl.rung == LADDER_FULL
        assert ctl.observe(None, 10) == LADDER_FULL
        assert ctl.observe(None, 10) == LADDER_FULL
        assert ctl.observe(None, 10) == LADDER_SHED
        assert ctl.transitions == 1

    def test_climbs_one_rung_per_streak_and_caps_at_brownout(self):
        ctl = OverloadController(depth_policy(4, climb_patience=1))
        rungs = [ctl.observe(None, 100) for _ in range(5)]
        assert rungs[:2] == [LADDER_SHED, LADDER_BROWNOUT]
        assert rungs[2:] == [LADDER_BROWNOUT] * 3  # capped, no flapping
        assert ctl.transitions == 2

    def test_dead_zone_resets_the_climb_streak(self):
        # SLO depth 10, recovery band at 5: depth 8 is between the two.
        ctl = OverloadController(
            depth_policy(10, climb_patience=2, recover_fraction=0.5)
        )
        ctl.observe(None, 11)
        ctl.observe(None, 8)  # dead zone: streak forgotten
        ctl.observe(None, 11)
        assert ctl.rung == LADDER_FULL  # one breach, not two consecutive
        assert ctl.observe(None, 11) == LADDER_SHED

    def test_dead_zone_resets_the_descend_streak(self):
        ctl = OverloadController(
            depth_policy(
                10,
                climb_patience=1,
                descend_patience=2,
                recover_fraction=0.5,
            )
        )
        ctl.observe(None, 11)  # -> shed_best_effort
        ctl.observe(None, 4)
        ctl.observe(None, 8)  # dead zone: recovery streak forgotten
        ctl.observe(None, 4)
        assert ctl.rung == LADDER_SHED
        assert ctl.observe(None, 4) == LADDER_FULL
        assert ctl.transitions == 2

    def test_descends_slowly_one_rung_per_streak(self):
        ctl = OverloadController(
            depth_policy(10, climb_patience=1, descend_patience=3)
        )
        ctl.observe(None, 11)
        ctl.observe(None, 11)  # -> brownout
        for _ in range(3):
            ctl.observe(None, 0)
        assert ctl.rung == LADDER_SHED  # one rung down, not two
        for _ in range(3):
            ctl.observe(None, 0)
        assert ctl.rung == LADDER_FULL
        assert ctl.transitions == 4

    def test_min_dwell_gates_transitions_on_the_injected_clock(self):
        clock = FakeClock()
        ctl = OverloadController(
            depth_policy(4, climb_patience=1, min_dwell_s=10.0),
            clock=clock,
        )
        assert ctl.observe(None, 100) == LADDER_SHED
        # Breaches keep arriving but the dwell floor holds the rung.
        assert ctl.observe(None, 100) == LADDER_SHED
        assert ctl.observe(None, 100) == LADDER_SHED
        clock.advance(10.0)
        assert ctl.observe(None, 100) == LADDER_BROWNOUT
        assert ctl.transitions == 2

    def test_empty_latency_window_is_no_signal(self):
        # p95-only SLO: None / 0.0 (empty window) can never breach it.
        ctl = OverloadController(
            OverloadPolicy(
                slo=ServiceLevelObjective(p95_ms=10.0), climb_patience=1
            )
        )
        assert ctl.observe(None, 10_000) == LADDER_FULL
        assert ctl.observe(0.0, 10_000) == LADDER_FULL
        assert ctl.observe(11.0, 0) == LADDER_SHED

    def test_p95_breach_climbs_without_depth_bound(self):
        ctl = OverloadController(
            OverloadPolicy(
                slo=ServiceLevelObjective(p95_ms=10.0),
                climb_patience=1,
                descend_patience=1,
            )
        )
        ctl.observe(50.0, 0)
        assert ctl.rung == LADDER_SHED
        ctl.observe(1.0, 0)  # well inside the recovery band
        assert ctl.rung == LADDER_FULL

    def test_rung_index_rejects_unknown_rungs(self):
        assert [rung_index(r) for r in LADDER] == [0, 1, 2]
        with pytest.raises(ToneMapError, match="unknown ladder rung"):
            rung_index("medium-rare")


class TestServiceClassCoercion:
    def test_none_means_standard(self):
        assert _coerce_class(None) is ServiceClass.STANDARD

    def test_enum_and_string_forms(self):
        assert _coerce_class(ServiceClass.INTERACTIVE) is (
            ServiceClass.INTERACTIVE
        )
        assert _coerce_class("interactive") is ServiceClass.INTERACTIVE
        assert _coerce_class("best_effort") is ServiceClass.BEST_EFFORT
        assert _coerce_class("best-effort") is ServiceClass.BEST_EFFORT

    def test_unknown_priority_raises(self):
        with pytest.raises(ToneMapError, match="priority must be"):
            _coerce_class("urgent")
        with pytest.raises(ToneMapError, match="priority must be"):
            _coerce_class(3)

    def test_submit_rejects_unknown_priority(self):
        with ToneMapService(PARAMS, batch_size=1) as service:
            with ToneMapIngestor(service) as ingestor:
                with pytest.raises(ToneMapError, match="priority"):
                    ingestor.submit(scenes(1)[0], priority="urgent")


class TestEDFOrdering:
    def test_edf_key_orders_deadline_then_class_then_arrival(self):
        def frame(name, deadline, service_class, at):
            return _Pending(
                name, Future(), at, None, "t",
                deadline=deadline, service_class=service_class,
            )

        soon = frame("soon", 5.0, ServiceClass.BEST_EFFORT, 3.0)
        later = frame("later", 9.0, ServiceClass.INTERACTIVE, 0.0)
        ui = frame("ui", None, ServiceClass.INTERACTIVE, 2.0)
        std_old = frame("std_old", None, ServiceClass.STANDARD, 1.0)
        std_new = frame("std_new", None, ServiceClass.STANDARD, 4.0)
        ordered = sorted(
            [std_new, ui, soon, std_old, later], key=_edf_key
        )
        # Any deadline beats none; class rank then arrival break ties.
        assert [p.name for p in ordered] == [
            "soon", "later", "ui", "std_old", "std_new"
        ]

    def test_batch_membership_is_edf_selected(
        self, gated_blur, assert_ledger_closed
    ):
        # One gated worker is one batch slot: with the blocker in it,
        # three frames park in the queue; the next 2-seat batch must
        # take the frame with a deadline and the interactive frame,
        # leaving the older standard frame behind.
        params, entered, gate = gated_blur
        done = []
        with ToneMapService(params, batch_size=2, max_workers=1) as service:
            with ToneMapIngestor(service) as ingestor:
                blocker = ingestor.submit(scenes(1, base=0)[0])
                assert entered.wait(timeout=30)
                a, b, c = scenes(3)
                futures = {
                    "standard": ingestor.submit(a),
                    "deadline": ingestor.submit(b, deadline_ms=60_000),
                    "ui": ingestor.submit(c, priority="interactive"),
                }
                for name, future in futures.items():
                    future.add_done_callback(
                        lambda _, name=name: done.append(name)
                    )
                gate.set()
                blocker.result(timeout=30)
                for future in futures.values():
                    future.result(timeout=30)
            assert_ledger_closed(ingestor.stats)
        assert set(done[:2]) == {"deadline", "ui"}
        assert done[2] == "standard"


def park(ingestor, tenant, name, service_class, deadline=None, at=0.0):
    """Fabricate one queued frame (white-box shed-selection tests)."""
    with ingestor._lock:
        state = ingestor._tenant_locked(tenant)
        pending = _Pending(
            name, Future(), at, None, tenant,
            deadline=deadline, service_class=service_class,
        )
        ingestor._queued.setdefault((8, 8, 3), []).append(pending)
        state.in_flight += 1
        ingestor._in_flight += 1
        return pending


def clear_queues(ingestor):
    """Drop fabricated frames so close() does not wait on them."""
    with ingestor._lock:
        dropped = ingestor._unqueue_locked(lambda pending: True)
    ingestor._settle(
        [(pending, ToneMapError("cleared")) for pending in dropped]
    )


def shed_one(ingestor, tenant=None):
    """One shed-oldest pick, settled; True if a frame was shed."""
    with ingestor._lock:
        state = None if tenant is None else ingestor._tenant_locked(tenant)
        dropped = ingestor._shed_one_locked(state)
    ingestor._settle(dropped)
    return bool(dropped)


@pytest.fixture
def quiet_ingestor():
    clock = FakeClock(start=100.0)
    with ToneMapService(PARAMS, batch_size=64) as service:
        # park() queues without waking the scheduler, which sleeps until
        # an arrival: nothing fabricated ever dispatches or expires.
        ingestor = ToneMapIngestor(service, queue_limit=64, clock=clock)
        try:
            yield ingestor, clock
        finally:
            clear_queues(ingestor)
            ingestor.close()


class TestClassAwareShedding:
    def test_best_effort_sheds_before_older_standard(self, quiet_ingestor):
        ingestor, _ = quiet_ingestor
        std = park(ingestor, "t", "std", ServiceClass.STANDARD, at=1.0)
        cheap = park(
            ingestor, "t", "cheap", ServiceClass.BEST_EFFORT, at=5.0
        )
        assert shed_one(ingestor) is True
        with pytest.raises(ServiceOverloadedError):
            cheap.future.result(timeout=0)
        assert not std.future.done()

    def test_all_standard_sheds_the_oldest(self, quiet_ingestor):
        ingestor, _ = quiet_ingestor
        old = park(ingestor, "t", "old", ServiceClass.STANDARD, at=1.0)
        new = park(ingestor, "t", "new", ServiceClass.STANDARD, at=2.0)
        assert shed_one(ingestor) is True
        assert old.future.done() and not new.future.done()

    def test_interactive_protected_until_its_deadline_expires(
        self, quiet_ingestor
    ):
        ingestor, clock = quiet_ingestor
        ui = park(
            ingestor, "t", "ui", ServiceClass.INTERACTIVE,
            deadline=clock.now() + 5.0, at=1.0,
        )
        # Pre-deadline: the only queued frame is untouchable.
        assert shed_one(ingestor) is False
        clock.advance(6.0)
        assert shed_one(ingestor) is True
        with pytest.raises(ServiceOverloadedError):
            ui.future.result(timeout=0)

    def test_interactive_without_deadline_never_sheds(self, quiet_ingestor):
        ingestor, _ = quiet_ingestor
        park(ingestor, "t", "ui", ServiceClass.INTERACTIVE, at=1.0)
        assert shed_one(ingestor) is False

    def test_tenant_scope_narrows_the_search(self, quiet_ingestor):
        ingestor, _ = quiet_ingestor
        other = park(
            ingestor, "other", "cheap", ServiceClass.BEST_EFFORT, at=1.0
        )
        mine = park(ingestor, "mine", "std", ServiceClass.STANDARD, at=2.0)
        assert shed_one(ingestor, "mine") is True
        # Scoped to "mine": its standard frame goes, not the globally
        # more sheddable best-effort frame of the other tenant.
        assert mine.future.done() and not other.future.done()

    def test_shed_class_drops_every_queued_best_effort(self, quiet_ingestor):
        ingestor, _ = quiet_ingestor
        victims = [
            park(ingestor, t, f"be-{t}", ServiceClass.BEST_EFFORT, at=i)
            for i, t in enumerate(["a", "a", "b"])
        ]
        keeper = park(ingestor, "a", "std", ServiceClass.STANDARD, at=9.0)
        with ingestor._lock:
            dropped = ingestor._shed_class_locked(
                ServiceClass.BEST_EFFORT, reason="drain", ladder=False
            )
        ingestor._settle(dropped)
        assert len(dropped) == 3
        errors = set()
        for victim in victims:
            with pytest.raises(ServiceOverloadedError, match="drain"):
                victim.future.result(timeout=0)
            errors.add(id(victim.future.exception()))
        assert len(errors) == 1  # one coalesced storm error, not three
        assert victims[0].future.exception().shed_count == 3
        assert not keeper.future.done()
        assert ingestor.stats.reliability.ladder_shed == 0  # ladder=False


class TestLadderEndToEnd:
    def test_storm_walks_the_ladder_and_protects_interactive(
        self, gated_blur, assert_ledger_closed
    ):
        # 1 gated worker, one batch slot: submissions pile up to a
        # known depth, then completions drain it one frame at a time —
        # each completion is one ladder observation at a deterministic
        # queue depth (7, 6, ... 0 against an SLO of 2).
        params, entered, gate = gated_blur
        policy = depth_policy(
            2, climb_patience=1, descend_patience=1_000
        )
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            with ToneMapIngestor(
                service, queue_limit=64, overload=policy
            ) as ingestor:
                frames = [
                    ingestor.submit(image, priority="standard")
                    for image in scenes(7)
                ]
                cheap = ingestor.submit(
                    scenes(1, base=900)[0], priority="best_effort"
                )
                gate.set()
                for future in frames:
                    future.result(timeout=30)
                # Queued best-effort was dropped when the ladder hit
                # shed_best_effort (depth 7 > SLO 2 on completion #1).
                with pytest.raises(
                    ServiceOverloadedError, match="overload ladder"
                ):
                    cheap.result(timeout=30)
                # And new best-effort admissions are refused outright.
                with pytest.raises(
                    ServiceOverloadedError, match="suspended"
                ):
                    ingestor.submit(
                        scenes(1, base=901)[0], priority="best_effort"
                    )
                stats = ingestor.stats
            assert_ledger_closed(ingestor.stats)
        reliability = stats.reliability
        assert reliability.ladder_rung == LADDER_BROWNOUT
        assert reliability.ladder_transitions == 2
        assert reliability.ladder_shed == 2  # 1 dropped + 1 refused
        assert stats.tenants[0].served == 7  # standard traffic intact

    def test_slo_accepts_policy_controller_or_objective(self):
        with ToneMapService(PARAMS, batch_size=1) as service:
            slo = ServiceLevelObjective(queue_depth=4)
            for overload in (
                slo,
                OverloadPolicy(slo=slo),
                OverloadController(OverloadPolicy(slo=slo)),
            ):
                with ToneMapIngestor(service, overload=overload) as ing:
                    assert ing.stats.reliability.ladder_rung == LADDER_FULL
            with pytest.raises(ToneMapError, match="overload must be"):
                ToneMapIngestor(service, overload="degrade please")

    def test_ladder_disabled_by_default(self):
        with ToneMapService(PARAMS, batch_size=1) as service:
            with ToneMapIngestor(service) as ingestor:
                future = ingestor.submit(
                    scenes(1)[0], priority="best_effort"
                )
                future.result(timeout=30)
                assert ingestor.stats.reliability.ladder_transitions == 0


class TestServiceRungHooks:
    def test_unplanned_service_degrades_to_a_noop(self):
        # Below brownout a rung changes admission, not execution: the
        # service keeps its own mapper, planned or not.
        images = scenes(2, size=32)
        plan = plan_for(height=32, width=32, batch=2, sigma=PARAMS.sigma)
        for service_plan in (None, plan):
            mapper = BatchToneMapper(PARAMS, plan=service_plan)
            want = mapper.run(images).outputs
            with ToneMapService(
                PARAMS, batch_size=2, plan=service_plan
            ) as service:
                service.apply_overload_rung(LADDER_SHED)
                got = service.map_many(images)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_unknown_rung_raises(self):
        with ToneMapService(PARAMS, batch_size=1) as service:
            with pytest.raises(ToneMapError, match="unknown ladder rung"):
                service.apply_overload_rung("panic")

    def test_in_process_brownout_rung_counts_no_brownout(self):
        # In process the local backend is the only backend: the rung
        # changes nothing, and the stats read as they always have.
        images = scenes(2, size=16)
        with ToneMapService(PARAMS, batch_size=2) as service:
            service.apply_overload_rung(LADDER_BROWNOUT)
            got = service.map_many(images)
            stats = service.stats
        assert stats.shards_active == 0 and stats.shard_respawns == 0
        assert stats.reliability == ReliabilityStats()
        for g, w in zip(got, BatchToneMapper(PARAMS).run(images).outputs):
            np.testing.assert_array_equal(g.pixels, w.pixels)

    def test_brownout_rung_bypasses_the_shard_pool(self):
        images = scenes(2, size=16)
        with ToneMapService(
            PARAMS, batch_size=2, shards=1, arena_slots=2
        ) as service:
            healthy = service.map_many(images)
            before = service.stats.reliability.brownout_batches
            service.apply_overload_rung(LADDER_BROWNOUT)
            browned = service.map_many(images)
            after = service.stats.reliability.brownout_batches
            service.apply_overload_rung(LADDER_FULL)
        assert after == before + 1
        # Brownout trades throughput, never correctness.
        for g, w in zip(browned, healthy):
            np.testing.assert_array_equal(g.pixels, w.pixels)
