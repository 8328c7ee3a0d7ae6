"""Contract of the closed-loop controllers (:mod:`repro.control`).

The AIMD latency-budget law is unit-tested against synthetic metrics
records (each rule in isolation: SLO shrink beats pressure growth, growth
is additive and capped, light traffic decays the budget, everything else
holds); the actuation surface (``MicroBatcher.set_latency_budget``) is
tested directly, including the live re-arm of a batch already waiting
under the old deadline.  Integration tests wire a controller through a
real service and assert the swap gate: control decisions never fire while
an epoch swap is building, flipping or draining.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.control import AdaptiveLatencyBudget, Controller
from repro.exceptions import ControlError, ServiceError
from repro.obs import MetricsHub, MetricsRecord
from repro.service import MicroBatcher, QueryService

from test_service import FakeLocator, GatedLocator


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def service_record(sequence: int, timestamp: float, **metrics: float) -> MetricsRecord:
    return MetricsRecord(
        sequence=sequence, timestamp=timestamp, values={"service": dict(metrics)}
    )


class FakeBatcher:
    """Records every budget the controller applies."""

    def __init__(self):
        self.latency_budget = None
        self.applied = []

    def set_latency_budget(self, budget: float) -> None:
        self.latency_budget = budget
        self.applied.append(budget)


# ----------------------------------------------------------------------
# The AIMD latency-budget law
# ----------------------------------------------------------------------
class TestAdaptiveLatencyBudget:
    def make(self, **overrides):
        params = dict(
            min_budget=0.001,
            max_budget=0.02,
            target_wait_p99=0.01,
            increase=0.002,
            decrease=0.5,
            pressure_inflight=3,
            light_batch=2.0,
        )
        params.update(overrides)
        controller = AdaptiveLatencyBudget(**params)
        batcher = FakeBatcher()
        controller.bind(batcher)
        return controller, batcher

    def test_bind_applies_the_floor(self):
        controller, batcher = self.make()
        assert batcher.applied == [0.001]
        assert controller.budget == 0.001

    def test_first_record_only_seeds_the_baseline(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=50, inflight_batches=9))
        assert controller.holds == 1 and batcher.applied == [0.001]

    def test_pressure_grows_additively_up_to_the_cap(self):
        controller, batcher = self.make()
        timestamp, submitted = 100.0, 0.0
        controller.emit(service_record(1, timestamp, submitted=submitted))
        for tick in range(2, 15):
            timestamp += 0.1
            submitted += 500.0
            controller.emit(
                service_record(
                    tick, timestamp, submitted=submitted,
                    inflight_batches=5, wait_p99=0.001,
                )
            )
        # Additive steps from the floor, saturating at the cap.
        assert batcher.applied[1] == pytest.approx(0.003)
        assert batcher.applied[2] == pytest.approx(0.005)
        assert controller.budget == pytest.approx(0.02)
        assert controller.grows >= 9
        assert max(batcher.applied) <= 0.02

    def test_slo_breach_shrinks_multiplicatively_and_wins_over_pressure(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=0))
        controller.emit(
            service_record(2, 100.1, submitted=100, inflight_batches=5)
        )
        grown = controller.budget
        assert grown == pytest.approx(0.003)
        # Both signals present: the SLO rule must take precedence.
        controller.emit(
            service_record(
                3, 100.2, submitted=200, inflight_batches=9, wait_p99=0.02
            )
        )
        assert controller.budget == pytest.approx(grown * 0.5)
        assert controller.shrinks == 1

    def test_slo_shrink_clamps_at_the_floor(self):
        controller, batcher = self.make(decrease=0.01)
        controller.emit(service_record(1, 100.0, submitted=0))
        controller.emit(service_record(2, 100.1, submitted=10, inflight_batches=5))
        controller.emit(service_record(3, 100.2, submitted=20, wait_p99=0.5))
        assert controller.budget == 0.001  # floor, not 0.003 * 0.01

    def test_light_traffic_decays_the_budget(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=0))
        controller.emit(service_record(2, 100.1, submitted=10, inflight_batches=5))
        assert controller.budget == pytest.approx(0.003)
        # 10 queries over 1 s at a 3 ms budget -> expected batch 0.03 <= 2.
        controller.emit(service_record(3, 101.1, submitted=20, wait_p99=0.001))
        assert controller.budget == pytest.approx(0.0015)
        assert controller.shrinks == 1

    def test_steady_state_holds(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=0))
        # At the floor: light traffic cannot shrink further, no pressure.
        controller.emit(service_record(2, 100.1, submitted=1, wait_p99=0.0001))
        # Busy but healthy above the floor: high rate, no pressure, wait OK.
        controller.emit(
            service_record(3, 100.2, submitted=5001, inflight_batches=1,
                           wait_p99=0.0005)
        )
        assert controller.holds == 3 and batcher.applied == [0.001]

    def test_gate_skips_records_without_actuating(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=0))
        controller.set_gate(lambda: True)
        controller.emit(service_record(2, 100.1, submitted=10, inflight_batches=9))
        assert controller.skipped == 1 and controller.observed == 1
        assert batcher.applied == [0.001]
        controller.set_gate(lambda: False)
        controller.emit(service_record(3, 100.2, submitted=20, inflight_batches=9))
        assert controller.budget > 0.001

    def test_missing_source_is_counted_not_fatal(self):
        controller, batcher = self.make()
        controller.emit(
            MetricsRecord(sequence=1, timestamp=0.0, values={"other": {}})
        )
        assert controller.missing == 1 and batcher.applied == [0.001]

    def test_observe_unbound_raises(self):
        controller = AdaptiveLatencyBudget()
        with pytest.raises(ControlError, match="bind"):
            controller.observe(service_record(1, 0.0, submitted=0))

    def test_trace_records_every_applied_change(self):
        controller, batcher = self.make()
        controller.emit(service_record(1, 100.0, submitted=0))
        controller.emit(service_record(2, 100.1, submitted=10, inflight_batches=5))
        trace = controller.trace()
        assert len(trace) == 2  # bind + the growth
        assert trace[1] == (100.1, pytest.approx(0.003))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(min_budget=-1.0),
            dict(min_budget=0.05, max_budget=0.02),
            dict(increase=0.0),
            dict(decrease=1.0),
            dict(decrease=0.0),
            dict(target_wait_p99=0.0),
            dict(pressure_inflight=0),
            dict(light_batch=-1.0),
            dict(trace_size=0),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ControlError):
            AdaptiveLatencyBudget(**bad)

    def test_base_controller_observe_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Controller().emit(service_record(1, 0.0))


# ----------------------------------------------------------------------
# Actuation surface: MicroBatcher.set_latency_budget
# ----------------------------------------------------------------------
class TestSetLatencyBudget:
    def test_negative_budget_rejected(self):
        batcher = MicroBatcher(FakeLocator().locate_batch, latency_budget=0.001)
        with pytest.raises(ServiceError):
            batcher.set_latency_budget(-0.001)

    def test_retune_rearms_a_waiting_batch(self):
        """A query already waiting under a huge budget seals promptly after
        the budget is retuned down — the deadline is recomputed live."""

        async def main():
            fake = FakeLocator()
            batcher = MicroBatcher(
                fake.locate_batch, latency_budget=60.0, max_batch_size=64
            )
            await batcher.start()
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                pending = asyncio.ensure_future(batcher.submit((1.0, 2.0)))
                await asyncio.sleep(0.05)
                assert batcher.queue_depth == 1  # parked under the 60 s budget
                # Retune from a worker thread, as a controller would.
                await loop.run_in_executor(
                    None, batcher.set_latency_budget, 0.01
                )
                await asyncio.wait_for(pending, 10.0)
                assert loop.time() - started < 5.0  # not the 60 s deadline
                assert batcher.latency_budget == 0.01
            finally:
                await batcher.stop()

        run(main())

    def test_gauges_expose_queue_and_inflight(self):
        async def main():
            gated = GatedLocator()
            batcher = MicroBatcher(gated.locate_batch, latency_budget=0.001)
            await batcher.start()
            try:
                pending = asyncio.ensure_future(batcher.submit((1.0, 2.0)))
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, gated.entered.wait, 5)
                assert batcher.inflight_batches == 1  # sealed, executing
                assert batcher.queue_depth == 0
                gated.gate.set()
                await asyncio.wait_for(pending, 10.0)
                assert batcher.inflight_batches == 0
            finally:
                await batcher.stop()

        run(main())


# ----------------------------------------------------------------------
# Integration: controller wired through a live service
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_owned_hub_drives_the_controller(self, ten_station_network, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "0.02")
        controller = AdaptiveLatencyBudget(min_budget=0.0005)

        async def main():
            async with QueryService(
                ten_station_network, "voronoi", controller=controller
            ) as service:
                assert service.metrics is not None and service.metrics.running
                assert service._batcher.latency_budget == 0.0005
                await service.locate((1.0, 1.0))
                await asyncio.sleep(0.08)
            assert not service.metrics.running
            return service

        service = run(main())
        # Periodic ticks plus the stop()-drained final record reached it.
        assert controller.observed >= 2
        assert service.metrics.records >= 2

    def test_controller_never_fires_mid_swap(self, ten_station_network):
        """The swap gate: records collected during build/flip/drain are
        skipped; actuation resumes once the swap completes."""

        async def main():
            hub = MetricsHub(interval=30.0)  # manual collects only
            controller = AdaptiveLatencyBudget(min_budget=0.0005)
            async with QueryService(
                ten_station_network, "voronoi",
                metrics=hub, controller=controller,
            ) as service:
                loop = asyncio.get_running_loop()
                hub.collect()  # baseline record, gate open
                assert controller.observed == 1

                gated = GatedLocator()
                await service.swap_network(ten_station_network, locator=gated)
                pending = asyncio.ensure_future(service.locate((1.0, 1.0)))
                await loop.run_in_executor(None, gated.entered.wait, 5)

                # Swap away while a gated batch is in flight: the drain
                # phase blocks until the gate opens.
                swap = asyncio.ensure_future(
                    service.swap_network(
                        ten_station_network, locator=FakeLocator()
                    )
                )
                await asyncio.sleep(0.05)
                assert service.swap_in_progress
                skipped_before = controller.skipped
                hub.collect()  # mid-drain tick: must not actuate
                hub.collect()
                assert controller.skipped == skipped_before + 2

                gated.gate.set()
                await asyncio.wait_for(swap, 30.0)
                await asyncio.wait_for(pending, 30.0)
                assert not service.swap_in_progress
                observed_before = controller.observed
                hub.collect()  # post-swap tick actuates again
                assert controller.observed == observed_before + 1

        run(main())
