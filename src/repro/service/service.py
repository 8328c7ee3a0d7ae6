"""The asyncio query service fronting the locator registry.

:class:`QueryService` owns one locator (built by registry name — any name
:func:`repro.pointlocation.get_locator` accepts, including composed
``"sharded:<inner>"`` spellings — or passed pre-built) and one
:class:`~repro.service.batcher.MicroBatcher`.  Awaiting
:meth:`QueryService.locate` queues the point; the batcher answers it
together with every other query that arrived within the latency budget, as
one vectorised ``locate_batch`` call through the active engine backend.

:class:`LocatorRouter` runs one service per locator name, so one process
can serve e.g. ``"voronoi"`` for cheap exact answers and
``"sharded:theorem3"`` for a large deployment side by side, each with its
own batch accumulation and stats.

:func:`serve_points` is the sync facade for scripts and benchmarks: it
spins up an event loop, serves an array of points through a temporary
service with maximal concurrency, and returns the ``int64`` answers.
"""

from __future__ import annotations

import asyncio
import functools
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..engine.batch import PointsLike, as_points_array
from ..exceptions import ServiceClosedError, ServiceError
from ..pointlocation.registry import Locator, build_locator
from ..runtime.component import Component
from ..runtime.epoch import EpochCoordinator, drain_timeout
from .batcher import MicroBatcher
from .stats import ServiceStats, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..geometry.point import Point
    from ..model.delta import NetworkDelta
    from ..model.network import WirelessNetwork
    from ..obs import MetricsHub

#: One query point in any form locate() accepts.
PointLike = Union["Point", Tuple[float, float], "np.ndarray"]

__all__ = ["QueryService", "LocatorRouter", "serve_points"]


class QueryService(Component):
    """Micro-batched async point location over one locator.

    A :class:`~repro.runtime.Component`: ``start()`` exactly once,
    ``stop(drain=...)`` idempotent and final, usable as an async context
    manager; network swaps delegate to a per-service
    :class:`~repro.runtime.EpochCoordinator`.

    Args:
        network: the :class:`~repro.model.network.WirelessNetwork` served.
        locator: a registry name (``"voronoi"``, ``"theorem3"``,
            ``"sharded:voronoi"``, ...), ``None`` for the context's active
            locator selection, or an already built locator object (anything
            with a ``locate_batch``).
        build_options: forwarded to the locator factory's ``build`` when
            ``locator`` is a name (e.g. ``{"epsilon": 0.3}`` or
            ``{"shards": 8}``).
        metrics: an optional :class:`repro.obs.MetricsHub` to report into.
            The service registers a :func:`repro.obs.stats_source` over
            itself under a unique name (``"service"`` when free) at
            construction and deregisters it — plus any controller sink —
            when stopped; the hub's own lifecycle stays with the caller.
        controller: an optional :class:`repro.control.Controller` (e.g.
            :class:`repro.control.AdaptiveLatencyBudget`) closing the loop
            on this service's batcher.  It is bound to the batcher, pointed
            at this service's metrics source, gated off while an epoch swap
            is in progress, and registered as a sink.  When no ``metrics``
            hub is supplied the service creates a private one and runs its
            periodic task over the service's own lifetime.
        **batcher_options: :class:`MicroBatcher` knobs — ``latency_budget``,
            ``max_batch_size``, ``max_pending``, ``dispatch_in_thread``,
            ``dispatch_workers``.

    Use as an async context manager (``async with QueryService(...)``) or
    call :meth:`start` / :meth:`stop` explicitly.  The locator is built
    eagerly in the constructor so that expensive preprocessing (e.g.
    ``theorem3``) happens before the service advertises itself as up.
    """

    def __init__(
        self,
        network: "WirelessNetwork",
        locator: Union[str, Locator, None] = "voronoi",
        *,
        build_options: Optional[Mapping[str, object]] = None,
        metrics: "Optional[MetricsHub]" = None,
        controller: Optional[object] = None,
        **batcher_options: object,
    ) -> None:
        self.network = network
        if locator is None or isinstance(locator, str):
            self._locator_spec: Union[str, None] = locator
            self._build_options = dict(build_options or {})
            self.locator = build_locator(network, locator, **self._build_options)
            self.locator_name = locator if isinstance(locator, str) else getattr(
                self.locator, "name", "<active>"
            )
        else:
            if build_options:
                raise ServiceError(
                    "build_options only apply when the locator is built by name"
                )
            if not hasattr(locator, "locate_batch"):
                raise ServiceError(
                    "a pre-built locator must provide locate_batch(points)"
                )
            self._locator_spec = None
            self._build_options = {}
            self.locator = locator
            self.locator_name = getattr(locator, "name", type(locator).__name__)
        self._prebuilt = not (locator is None or isinstance(locator, str))
        self._batcher = MicroBatcher(self.locator.locate_batch, **batcher_options)
        self._epoch = EpochCoordinator()
        self._owns_hub = controller is not None and metrics is None
        if self._owns_hub:
            # Imported lazily: the observability layer is optional wiring,
            # and obs itself never imports the service tier (sources
            # duck-type their subjects), so this cannot cycle.
            from ..obs import MetricsHub

            metrics = MetricsHub()
        self.metrics = metrics
        self.controller = controller
        self._metrics_source_name: Optional[str] = None
        if metrics is not None:
            from ..obs import stats_source

            name = metrics.unique_source_name("service")
            metrics.add_source(name, stats_source(self))
            self._metrics_source_name = name
            if controller is not None:
                # getattr/setattr narrowing: controllers are duck-typed (any
                # hub sink works), so only wire the hooks a given one has.
                if hasattr(controller, "source"):
                    setattr(controller, "source", name)
                set_gate = getattr(controller, "set_gate", None)
                if callable(set_gate):
                    set_gate(self._epoch.gate())
                bind = getattr(controller, "bind", None)
                if callable(bind):
                    bind(self._batcher)
                metrics.add_sink(controller)

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    async def _do_start(self) -> None:
        await self._batcher.start()
        if self._owns_hub and self.metrics is not None:
            await self.metrics.start()

    async def _do_stop(self, drain: bool) -> None:
        if self._owns_hub and self.metrics is not None and self.metrics.running:
            # Stop the hub while the batcher is still draining-capable: its
            # final collect records the post-traffic stats, and the gated
            # controller sees them before the service goes away.
            await self.metrics.stop()
        await self._batcher.stop(drain=drain)
        if self.metrics is not None and not self._owns_hub:
            # A shared hub outlives this service: withdraw our source and
            # controller sink so later ticks don't sample a stopped batcher.
            if self._metrics_source_name is not None:
                self.metrics.remove_source(self._metrics_source_name)
                self._metrics_source_name = None
            if self.controller is not None:
                self.metrics.remove_sink(self.controller)

    # -- queries ---------------------------------------------------------
    async def locate(self, point: "PointLike") -> int:
        """Answer one query: the heard station's index, or ``-1`` for silence.

        The answer is bit-identical to the locator's own ``locate_batch``
        on the same point — micro-batching regroups queries, never changes
        their answers.
        """
        return await self._batcher.submit(point)

    async def locate_many(self, points: PointsLike) -> np.ndarray:
        """Submit a whole batch concurrently; answers in query order (int64).

        Every point becomes an individual service query (they may be split
        across several micro-batches); the returned array matches a direct
        ``locate_batch`` on the same points exactly.
        """
        pts = as_points_array(points)
        answers = await asyncio.gather(
            *(self._batcher.submit((x, y)) for x, y in pts)
        )
        return np.asarray(answers, dtype=np.int64)

    # -- epoch swaps -----------------------------------------------------
    async def swap_network(
        self,
        new_network: "WirelessNetwork",
        delta: "Optional[NetworkDelta]" = None,
        *,
        locator: Optional[Locator] = None,
        drain_old: bool = True,
    ) -> Locator:
        """Install ``new_network`` for new batches; drain the old epoch.

        The dynamic-network handoff, in three ordered steps:

        1. **Build off-loop.**  The new locator is produced on an executor
           thread (the event loop keeps sealing batches against the old
           epoch meanwhile): incrementally via the current locator's
           ``updated(new_network, delta)`` when it has one (e.g.
           :class:`~repro.pointlocation.sharded.ShardedLocator`), otherwise
           a fresh registry build with this service's original name and
           build options.  Pass ``locator=`` to install a pre-built one
           instead (then ``delta`` is unused).
        2. **Flip the epoch.**  The batcher's answer function is replaced
           atomically from the loop thread.  Batches sealed before the flip
           keep the old function (captured at seal time), batches sealed
           after use the new one — no torn reads, no mixed-epoch batch, and
           queries queued across the flip are simply answered by the new
           epoch.  ``ServiceStats.record_swap`` stamps the update latency
           (build + flip) and bumps the epoch counter.
        3. **Drain.**  With ``drain_old=True`` (default) the call returns
           only after every old-epoch batch has resolved its futures, so no
           in-flight query is lost; the wait is bounded by the
           ``REPRO_SERVICE_DRAIN_TIMEOUT`` knob (seconds).  ``drain_old=
           False`` returns at the flip and lets the old epoch finish in the
           background — cancellation-safe either way, since the flip has
           already happened when the drain starts.

        Returns the installed locator.  Safe to call before :meth:`start`
        (it just replaces the locator).

        The gate-build-flip-record-drain choreography itself lives in this
        service's :class:`~repro.runtime.EpochCoordinator`; attached
        controllers are gated on its ``in_progress`` for the whole span
        (the metrics hub keeps *collecting* throughout — only actuation
        pauses).
        """
        build = None
        if locator is None:
            previous = self.locator
            if hasattr(previous, "updated"):
                build = functools.partial(previous.updated, new_network, delta)
            elif not self._prebuilt:
                build = functools.partial(
                    build_locator, new_network, self._locator_spec,
                    **self._build_options,
                )
            else:
                raise ServiceError(
                    "cannot rebuild an opaque pre-built locator for a new "
                    "network; pass locator= to swap_network"
                )
        elif not hasattr(locator, "locate_batch"):
            raise ServiceError(
                "a pre-built locator must provide locate_batch(points)"
            )

        def flip(built: Optional[Locator]) -> None:
            installed = built if built is not None else locator
            assert installed is not None
            self.network = new_network
            self.locator = installed
            self._batcher.set_locate(installed.locate_batch)

        async def drain() -> None:
            if drain_old and self.running:
                await self._batcher.drain_inflight(timeout=drain_timeout())

        built = await self._epoch.swap(
            build=build, flip=flip, drain=drain,
            record=self.stats.record_swap,
        )
        installed = built if built is not None else locator
        assert installed is not None
        return installed

    # -- introspection ---------------------------------------------------
    @property
    def swap_in_progress(self) -> bool:
        """``True`` while :meth:`swap_network` is building, flipping or
        draining — the window where attached controllers are gated."""
        return self._epoch.in_progress

    @property
    def stats(self) -> ServiceStats:
        return self._batcher.stats

    def stats_snapshot(self) -> StatsSnapshot:
        return self._batcher.stats.snapshot()

    def metrics_sample(self) -> Dict[str, float]:
        """Snapshot counters plus the live batcher gauges, as one flat sample.

        The :class:`~repro.runtime.StatsSource` protocol — what
        :func:`repro.obs.stats_source` (and therefore the metrics hub)
        samples: the percentile/counter fields of :meth:`stats_snapshot`
        plus ``queue_depth``, ``inflight_batches`` and the current
        ``latency_budget``.
        """
        sample = self.stats.metrics_sample()
        sample.update(self._batcher.metrics_sample())
        return sample


class LocatorRouter(Component):
    """One micro-batching service per locator name, behind a single front.

    A :class:`~repro.runtime.Component`: starting the router starts every
    routed service; stopping stops them all (idempotent, final).  The
    router's own :class:`~repro.runtime.EpochCoordinator` gates whole-fleet
    swap sweeps.

    Args:
        network: the network every routed locator serves.
        locators: the routed names — either an iterable of registry names,
            or a mapping ``name -> build_options`` for per-name build
            configuration.
        **batcher_options: shared :class:`MicroBatcher` knobs applied to
            every routed service.

    Each name gets its own :class:`QueryService` (hence its own batcher,
    backpressure bound and stats): a slow ``theorem3`` build or a bursty
    client of one locator never delays batches of another beyond event-loop
    scheduling.
    """

    def __init__(
        self,
        network: "WirelessNetwork",
        locators: Union[Iterable[str], Mapping[str, Mapping[str, object]]],
        **batcher_options: object,
    ) -> None:
        if isinstance(locators, Mapping):
            named: Dict[str, Mapping[str, object]] = dict(locators)
        else:
            named = {name: {} for name in locators}
        if not named:
            raise ServiceError("a LocatorRouter needs at least one locator name")
        self.network = network
        self._epoch = EpochCoordinator()
        self._services: Dict[str, QueryService] = {
            name: QueryService(
                network, name, build_options=options, **batcher_options
            )
            for name, options in named.items()
        }

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    async def _do_start(self) -> None:
        for service in self._services.values():
            await service.start()

    async def _do_stop(self, drain: bool) -> None:
        for service in self._services.values():
            await service.stop(drain=drain)

    # -- routing ---------------------------------------------------------
    def service(self, name: str) -> QueryService:
        try:
            return self._services[name]
        except KeyError:
            raise ServiceError(
                f"no service routes locator {name!r}; "
                f"routed: {sorted(self._services)}"
            ) from None

    @property
    def locator_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._services))

    async def locate(self, name: str, point: "PointLike") -> int:
        return await self.service(name).locate(point)

    async def locate_many(self, name: str, points: PointsLike) -> np.ndarray:
        return await self.service(name).locate_many(points)

    async def swap_network(
        self,
        new_network: "WirelessNetwork",
        delta: "Optional[NetworkDelta]" = None,
        *,
        drain_old: bool = True,
    ) -> None:
        """Swap every routed service to ``new_network``, one epoch each.

        Services are swapped in sorted-name order; each applies
        :meth:`QueryService.swap_network` (incremental where its locator
        supports ``updated``).  During the sweep, already-swapped services
        answer from the new network while the rest still serve the old one —
        per-service epochs are independent by design, exactly as their
        batchers and stats are.  The sweep counts as one epoch on the
        router's own coordinator, whose ``in_progress`` gate covers the
        whole sweep.
        """
        async with self._epoch.swapping():
            for name in self.locator_names:
                await self._services[name].swap_network(
                    new_network, delta, drain_old=drain_old
                )
            self.network = new_network

    @property
    def swap_in_progress(self) -> bool:
        """``True`` while a whole-router swap sweep is underway."""
        return self._epoch.in_progress

    def stats_snapshots(self) -> Dict[str, StatsSnapshot]:
        return {
            name: service.stats_snapshot()
            for name, service in self._services.items()
        }


def serve_points(
    network: "WirelessNetwork",
    points: PointsLike,
    locator: Union[str, Locator, None] = "voronoi",
    *,
    build_options: Optional[Mapping[str, object]] = None,
    return_stats: bool = False,
    **batcher_options: object,
) -> "np.ndarray | Tuple[np.ndarray, StatsSnapshot]":
    """Serve an array of points through a temporary service, synchronously.

    The script-facing facade: runs its own event loop, submits every point
    as an individual concurrent query (so micro-batching genuinely engages),
    and tears the service down cleanly.  Returns the ``int64`` answers — or
    an ``(answers, StatsSnapshot)`` pair with ``return_stats=True`` for
    harnesses that want the batching shape too.

    Must not be called while an event loop is already running in this
    thread (use :class:`QueryService` directly from async code).
    """

    async def _run():
        async with QueryService(
            network, locator, build_options=build_options, **batcher_options
        ) as service:
            answers = await service.locate_many(points)
            return answers, service.stats_snapshot()

    answers, snapshot = asyncio.run(_run())
    if return_stats:
        return answers, snapshot
    return answers
