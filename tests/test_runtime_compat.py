"""Back-compat: every pre-refactor public surface behaves identically.

The runtime unification rehosted the engine-backend registry, the locator
registry, and six hand-rolled lifecycles onto :mod:`repro.runtime`.  This
module pins the historical entry points — import paths, call signatures,
return types, error types, and exact error wording where callers match on
it — so downstream code written against any earlier PR keeps working
unchanged.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    ObservabilityError,
    PointLocationError,
    ReproError,
    ServiceClosedError,
)


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestBackendSurface:
    """`repro.engine.backend`: the PR-2 API, now a Registry instantiation."""

    def test_imports_and_signatures(self):
        from repro.engine.backend import (  # noqa: F401
            NumpyBackend,
            QueryBackend,
            ReferenceBackend,
            active_backend,
            available_backends,
            get_backend,
            register_backend,
            use_backend,
        )

    def test_available_backends_returns_name_to_instance_mapping(self):
        from repro.engine.backend import QueryBackend, available_backends

        backends = available_backends()
        assert {"numpy", "reference"} <= set(backends)
        for backend in backends.values():
            assert isinstance(backend, QueryBackend)

    def test_get_backend_and_active_backend(self):
        from repro.engine.backend import active_backend, get_backend

        assert type(get_backend("reference")).__name__ == "ReferenceBackend"
        assert type(active_backend()).__name__ == "NumpyBackend"  # default

    def test_use_backend_as_context_manager_restores(self):
        from repro.engine.backend import active_backend, use_backend

        before = active_backend()
        with use_backend("reference") as backend:
            assert backend is active_backend()
        assert active_backend() is before

    def test_unknown_backend_is_reproerror_listing_available(self):
        from repro.engine.backend import get_backend

        with pytest.raises(ReproError, match="available"):
            get_backend("antigravity")

    def test_register_backend_round_trip(self):
        from repro.engine import backend as backend_module

        marker = backend_module.NumpyBackend()
        backend_module.register_backend("compat-scratch", marker)
        try:
            assert backend_module.get_backend("compat-scratch") is marker
            assert "compat-scratch" in backend_module.available_backends()
        finally:
            backend_module.BACKENDS.unregister("compat-scratch")


class TestLocatorSurface:
    """`repro.pointlocation.registry`: the PR-3 API with composed names."""

    def test_imports_and_defaults(self):
        from repro.pointlocation.registry import (  # noqa: F401
            Locator,
            LocatorFactory,
            active_locator,
            available_locators,
            build_locator,
            get_locator,
            register_locator,
            use_locator,
        )

        assert "voronoi" in available_locators()

    def test_composed_name_resolves_without_registration(self):
        from repro.pointlocation.registry import (
            available_locators,
            get_locator,
        )

        assert "sharded:voronoi" not in available_locators()
        factory = get_locator("sharded:voronoi")
        assert type(factory).__name__ == "_ComposedFactory"

    def test_registering_a_composed_spelling_keeps_exact_wording(self):
        from repro.pointlocation.registry import register_locator

        with pytest.raises(
            PointLocationError,
            match=(
                r"locator names must not contain ':'; composed names like "
                r"'sharded:voronoi' are derived, not registered"
            ),
        ):
            register_locator("bad:name", object())

    def test_unknown_locator_mentions_composed_spellings(self):
        from repro.pointlocation.registry import get_locator

        with pytest.raises(PointLocationError, match="sharded:<inner>"):
            get_locator("antigravity")

    def test_build_locator_unchanged(self, ten_station_network):
        from repro.pointlocation.registry import build_locator

        locator = build_locator(ten_station_network, "voronoi")
        answers = locator.locate_batch(np.array([[1.0, 1.0]]))
        assert answers.shape == (1,)


class TestServiceSurface:
    """Service lifecycle verbs kept their names, awaitability and errors."""

    def test_batcher_start_stop_submit(self):
        from repro.service import MicroBatcher

        async def main():
            batcher = MicroBatcher(
                lambda pts: np.zeros(len(pts), dtype=np.int64),
                latency_budget=0.005,
            )
            await batcher.start()
            assert await batcher.submit((1.0, 2.0)) == 0
            await batcher.stop()
            with pytest.raises(ServiceClosedError):
                await batcher.submit((1.0, 2.0))

        run(main())

    def test_query_service_async_with_and_snapshots(self, ten_station_network):
        from repro.service import QueryService

        async def main():
            async with QueryService(
                ten_station_network, "voronoi", latency_budget=0.005
            ) as service:
                await service.locate((1.0, 2.0))
                snapshot = service.stats_snapshot()
                assert snapshot.submitted == 1
                assert not service.swap_in_progress

        run(main())

    def test_unstarted_service_still_rejects_queries(self, ten_station_network):
        from repro.service import QueryService

        async def main():
            service = QueryService(ten_station_network, "voronoi")
            with pytest.raises(ServiceClosedError):
                await service.locate((1.0, 2.0))

        run(main())


class TestObsSurface:
    def test_hub_double_start_wording(self):
        from repro.obs import MetricsHub

        async def main():
            hub = MetricsHub(interval=1.0)
            await hub.start()
            try:
                with pytest.raises(ObservabilityError, match="already running"):
                    await hub.start()
            finally:
                await hub.stop()

        run(main())

    def test_source_factories_importable_and_shaped(self):
        from repro.obs import batcher_depth_source, stats_source
        from repro.raster import TileCache
        from repro.service import ServiceStats

        assert stats_source(ServiceStats())()["submitted"] == 0.0
        cache_sample = stats_source(TileCache(max_bytes=1 << 20))()
        assert {"hits", "requests", "hit_rate"} <= set(cache_sample)
        assert callable(batcher_depth_source)
