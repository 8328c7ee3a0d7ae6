"""The four benchmark workloads.

Each workload is one class with the same shape: ``_setup`` builds everything
the timed phase needs (it runs ``setup_repeats`` times and ``setup_s`` is
the median), ``_timed`` runs the measured phase, ``layers`` reads the
per-layer numbers of a traced run, and ``check`` compares every recorded
answer with an oracle after the clock has stopped.  See ``README.md`` for
why each workload exists and what it bypasses.
"""

from __future__ import annotations

import asyncio
import hashlib
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from measure import AnswerBook, RequestLog, SwapLog, nearest_rank, poisson_due_times, run_open_loop
from tracing import END, START, TimedLocator, TracedTileCache, Tracer
from repro.geometry.point import Point
from repro.model.diagram import SINRDiagram
from repro.pointlocation import build_locator
from repro.raster import TileCache
from repro.service import QueryService, RasterService
from repro.workloads import random_waypoint_walk, uniform_random_network

clock = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mixed_points(network, count: int, rng: np.random.Generator, spread: float,
                 lower, upper) -> np.ndarray:
    """Half uniform over the box, half scattered around random stations, so
    the answers mix received stations and ``-1`` silence."""
    near = count // 2
    coords = network.coords
    around = coords[rng.integers(0, len(coords), near)] + rng.normal(0.0, spread, (near, 2))
    uniform = rng.uniform(lower, upper, (count - near, 2))
    return np.concatenate([around, uniform])[rng.permutation(count)]


def brute_force(network, points: np.ndarray) -> np.ndarray:
    return build_locator(network, "brute-force").locate_batch(points)


def locate_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of the ``TimedLocator`` calls."""
    locate = tracer.durations("pointlocation.locate_batch")
    points = tracer.counts["pointlocation.points"]
    return {
        "pointlocation.locate_calls": len(locate),
        "pointlocation.points_per_call": points / len(locate) if len(locate) else 0.0,
        "pointlocation.locate_busy_s": float(locate.sum()),
        "pointlocation.locate_ms_p50": nearest_rank(locate, 0.5).value * 1e3,
    }


class Workload:
    name = ""
    #: Latency samples are per operation; ``op`` names the operation.
    op = ""
    #: How the timed phase's windows are summarised (``measure.Windows``).
    summary = "trimmed"
    #: Set-ups per run; ``setup_s`` is their median (a set-up takes
    #: 0.05-0.3 s, short enough for one slow spell of a shared 2-core VM
    #: to move a single one by 40%).
    setup_repeats = 9
    #: Times the timed phase repeats its build work; per-layer build
    #: numbers are per round.
    build_rounds = 1

    def __init__(self, seed: int, seconds: float, tracer: Optional[Tracer]):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.rng = np.random.default_rng((seed, 1))
        self.build_times: List[float] = []
        #: Per operation of the timed phase: completion clock reading,
        #: latency, and work units done (points, or requests).
        self.done: np.ndarray = np.empty(0)
        self.latencies: np.ndarray = np.empty(0)
        self.units = 1
        self.start = 0.0
        self.operations = 0
        self.rss = 0.0

    def run(self) -> float:
        """Set up ``setup_repeats`` times, run the timed phase on the last
        set-up; returns ``setup_s``."""
        raise NotImplementedError

    def build_s(self) -> float:
        return statistics.median(self.build_times)

    def check(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations, by the oracle."""
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        return {}

    def _span(self, name: str, rid=None):
        return nullcontext() if self.tracer is None else self.tracer.span(name, rid)

    def _record(self, start: float, done: List[float], latencies: List[float]) -> None:
        self.start, self.done, self.latencies = start, np.array(done), np.array(latencies)


class _AsyncWorkload(Workload):
    """A workload driving one service from an asyncio event loop."""

    #: Threads of the loop's default executor.
    executor_threads = 1

    def run(self) -> float:
        return asyncio.run(self._run())

    async def _run(self) -> float:
        loop = asyncio.get_running_loop()
        loop.set_default_executor(ThreadPoolExecutor(self.executor_threads))
        setups = []
        service = None
        for _ in range(self.setup_repeats):
            if service is not None:
                await service.stop()
            start = clock()
            service = await self._setup()
            setups.append(clock() - start)
        before = self._stats(service)
        if self.tracer is not None:
            self.tracer.reset()  # set-up work is not part of the layers
        heartbeat = _Heartbeat() if self.tracer is not None else None
        try:
            await self._run_timed(service)
        finally:
            if heartbeat is not None:
                await heartbeat.stop()
        self.rss = peak_rss_mb()
        self.loop_lag = heartbeat.oversleeps if heartbeat is not None else []
        self.stats = (before, self._stats(service))
        await service.stop()
        return statistics.median(setups)

    async def _run_timed(self, service) -> None:
        await self._timed(service)


# ---------------------------------------------------------------------------
# Service workloads: point-stream (open loop) and bulk-slices (closed loop)
# ---------------------------------------------------------------------------

class _ServiceWorkload(_AsyncWorkload):
    """A ``sharded:voronoi`` locator over a 200-station uniform network,
    pre-built and handed to a ``QueryService``.  The default executor's
    one thread runs the off-loop swap builds; the batcher has its own.

    ``build_s`` is the 10th percentile of from-scratch builds of that
    locator, one every ``build_period`` seconds of the timed phase, each
    made on the event loop's thread and timed by that thread's CPU clock,
    which leaves out the time the build waits for the GIL.  One build takes
    ~1.3 ms.  Spread over the run, the builds reach the machine's fast
    speed, where back-to-back ones all land in whichever speed held at the
    time; their times have a long upper tail from the batcher thread
    working beside them, which the low percentile leaves out.
    """

    stations = 200
    side = 20.0
    build_period = 0.25

    def _network(self):
        return uniform_random_network(self.stations, side=self.side, seed=self.seed)

    def _points(self, network, count: int) -> np.ndarray:
        return mixed_points(network, count, self.rng, 0.15, (0.0, 0.0), (self.side, self.side))

    async def _run_timed(self, service: QueryService) -> None:
        probe = asyncio.get_running_loop().create_task(self._probe_builds())
        try:
            await self._timed(service)
        finally:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass

    async def _probe_builds(self) -> None:
        while True:
            await asyncio.sleep(self.build_period)
            start = time.thread_time()
            build_locator(self.network, "sharded:voronoi")
            self.build_times.append(time.thread_time() - start)

    def build_s(self) -> float:
        return nearest_rank(self.build_times, 0.1).value

    async def _make_service(self, network) -> QueryService:
        locator = build_locator(network, "sharded:voronoi")
        if self.tracer is not None:
            locator = TimedLocator(locator, self.tracer)
        service = QueryService(network, locator)
        await service.start()
        return service

    @staticmethod
    def _stats(service: QueryService):
        return service.stats_snapshot()

    def _service_layers(self, client_latency_mean: float) -> Dict[str, float]:
        before, after = self.stats
        tracer = self.tracer
        batches = after.batches - before.batches
        batched = after.mean_batch_size * after.batches - (
            before.mean_batch_size * before.batches if before.batches else 0.0)
        points = tracer.counts["pointlocation.points"]
        per_query = tracer.counts["pointlocation.point_seconds"] / points if points else 0.0
        return {
            "service.batches": batches,
            "service.batch_size_mean": batched / batches if batches else 0.0,
            "service.seal_wait_p50_ms": after.wait_p50 * 1e3,
            "service.seal_wait_p99_ms": after.wait_p99 * 1e3,
            "service.latency_p99_ms": after.latency_p99 * 1e3,
            "service.failed": after.failed - before.failed,
            "service.cancelled": after.cancelled - before.cancelled,
            "service.self_ms_mean": (client_latency_mean - per_query) * 1e3,
            "service.loop_lag_p99_ms": nearest_rank(self.loop_lag, 0.99).value * 1e3,
            **locate_layers(tracer),
        }


class PointStream(_ServiceWorkload):
    """Open loop: Poisson arrivals, one ``QueryService.locate`` each, and a
    ``swap_network`` moving one station every ``swap_period`` seconds."""

    name = "point-stream"
    op = "query"
    #: Offered load, well below the knee: at 3k q/s and above, slow spells
    #: of the shared machine pushed p90 from ~4.3 ms to 9-13 ms for many
    #: seconds at a time (see README.md); at 2k q/s the 2 ms seal-wait
    #: budget still sets p90 (~3.6-4.1 ms).
    rate = 2000.0
    swap_period = 1.0

    async def _setup(self) -> QueryService:
        network = self._network()
        service = await self._make_service(network)
        self.network = network
        self.walk = random_waypoint_walk(network, 10_000, speed=0.5, seed=self.seed)
        warm = self._points(network, 2000)
        await asyncio.gather(*(service.locate(tuple(p)) for p in warm))
        step = next(self.walk)  # the first swap pays executor start-up
        await service.swap_network(step.network, step.delta)
        count = int(self.rate * self.seconds)
        self.points = self._points(network, count)
        self.queries = [tuple(p) for p in self.points.tolist()]
        self.log = RequestLog(poisson_due_times(self.rate, count, self.rng))
        self.swaps = SwapLog(step.network)
        return service

    async def _timed(self, service: QueryService) -> None:
        answers = np.full(len(self.queries), -2, dtype=np.int64)
        queries = self.queries

        async def request(index: int) -> None:
            with self._span("workloads.request", index):
                answers[index] = await service.locate(queries[index])

        origin = clock() + 0.001
        horizon = origin + float(self.log.due[-1])
        finished = asyncio.Event()

        async def swapper() -> None:
            tick = origin + self.swap_period / 2
            while tick < horizon:
                try:
                    await asyncio.wait_for(finished.wait(), tick - clock())
                    return
                except asyncio.TimeoutError:
                    pass
                step = next(self.walk)
                started = clock()
                with self._span("runtime.swap"):
                    await service.swap_network(step.network, step.delta)
                self.swaps.record(step.network, started, clock())
                tick += self.swap_period

        swap_task = asyncio.get_running_loop().create_task(swapper())
        try:
            await run_open_loop(self.log, request, clock, start=origin)
        finally:
            finished.set()
            await swap_task
        self.answers = answers
        self.start, self.done, self.latencies = origin, self.log.done, self.log.latency
        self.operations = len(answers)

    def check(self) -> Tuple[int, int]:
        ok = self.swaps.check(self.answers, self.log.sent, self.log.done,
                              brute_force, self.points)
        return len(ok), int((~ok).sum())

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        walls = tracer.durations("runtime.swap")
        updates = tracer.durations("pointlocation.update")
        pairs = min(len(walls), len(updates))
        return {
            **self._service_layers(float(np.mean(self.log.service_time))),
            "workloads.lag_p50_ms": nearest_rank(self.log.lag, 0.5).value * 1e3,
            "workloads.lag_p99_ms": nearest_rank(self.log.lag, 0.99).value * 1e3,
            "runtime.swaps": len(self.swaps.started),
            "runtime.swap_ms_p50": nearest_rank(walls, 0.5).value * 1e3,
            "runtime.drain_ms_p50": nearest_rank(walls[:pairs] - updates[:pairs], 0.5).value * 1e3,
            "pointlocation.update_ms_p50": nearest_rank(updates, 0.5).value * 1e3,
        }


class BulkSlices(_ServiceWorkload):
    """Closed loop: ``clients`` coroutines each await ``locate_many`` on
    ``slice_size``-point slices, cycling through a fixed pool of slices."""

    name = "bulk-slices"
    op = "slice"
    clients = 2
    slice_size = 1024
    pool = 8

    async def _setup(self) -> QueryService:
        network = self._network()
        service = await self._make_service(network)
        self.network = network
        self.slices = {
            (client, slot): self._points(network, self.slice_size)
            for client in range(self.clients) for slot in range(self.pool)
        }
        for client in range(self.clients):
            await service.locate_many(self.slices[client, 0])
        return service

    async def _timed(self, service: QueryService) -> None:
        self.book = AnswerBook()
        latencies: List[float] = []
        finished: List[float] = []
        start = clock()
        end = start + self.seconds

        async def client(index: int) -> None:
            turn = 0
            while clock() < end:
                key = (index, turn % self.pool)
                sent = clock()
                with self._span("workloads.slice", f"c{index}-{turn}"):
                    answers = await service.locate_many(self.slices[key])
                finished.append(clock())
                latencies.append(finished[-1] - sent)
                self.book.record(key, answers)
                turn += 1

        await asyncio.gather(*(client(index) for index in range(self.clients)))
        self._record(start, finished, latencies)
        self.units = self.slice_size
        self.operations = len(latencies) * self.slice_size

    def check(self) -> Tuple[int, int]:
        return self.operations, self.book.wrong(
            lambda key: brute_force(self.network, self.slices[key]))

    def layers(self) -> Dict[str, float]:
        return self._service_layers(float(np.mean(self.latencies)))


# ---------------------------------------------------------------------------
# cold-build: the Theorem-3 preprocessing, then direct batch queries
# ---------------------------------------------------------------------------

class ColdBuild(Workload):
    """``theorem3`` builds over a fixed set of small networks in
    ``build_rounds`` rounds; after each round's builds, query rounds of one
    ``locate_batch`` per structure just built, for an equal share of
    ``seconds``.

    This workload is one thread computing, so its speed is the machine's:
    a shared 2-core VM runs at two speeds ~1.5x apart and stays at the
    slower one for up to half a minute.  Interleaving builds and queries
    spreads both over the whole run, and both are reported at the fastest
    the run saw: ``build_s`` sums each network's fastest round, and the
    query figures are those of the best 1-second window.
    """

    name = "cold-build"
    op = "round"
    summary = "best"
    #: (stations, network seed): fixed, so every run builds the same
    #: structures and the build counters repeat exactly; ``--seed`` draws
    #: the query points.  One round takes ~6 s at the machine's fast speed.
    networks = ((2, 10), (3, 11), (4, 12))
    build_rounds = 4
    #: Each set-up includes a warm-up build (~0.7 s), so fewer of them.
    setup_repeats = 5
    epsilon = 0.5
    batch = 1024
    pool = 16

    def _networks(self) -> list:
        return [uniform_random_network(n, seed=s) for n, s in self.networks]

    def _setup(self) -> None:
        warm = uniform_random_network(2, seed=0)
        build_locator(warm, "theorem3", epsilon=0.9).locate_batch(np.zeros((16, 2)))
        self.built_networks = self._networks()
        self.batches = {}
        for index, network in enumerate(self.built_networks):
            coords = network.coords
            lower, upper = coords.min(axis=0) - 1.0, coords.max(axis=0) + 1.0
            for slot in range(self.pool):
                self.batches[index, slot] = mixed_points(
                    network, self.batch, self.rng, 0.5, lower, upper)

    def run(self) -> float:
        setups = []
        for _ in range(self.setup_repeats):
            start = clock()
            self._setup()
            setups.append(clock() - start)
        if self.tracer is not None:
            self.tracer.reset()
        self._timed()
        self.rss = peak_rss_mb()
        return statistics.median(setups)

    def _timed(self) -> None:
        self.round_times = []
        self.book = AnswerBook()
        latencies: List[float] = []
        finished: List[float] = []
        querying = 0.0  # query time of the earlier rounds
        share = self.seconds / self.build_rounds
        turn = 0
        for build_round in range(self.build_rounds):
            # Fresh network objects each round: nothing cached on them is
            # shared between rounds.
            networks = self._networks() if build_round else self.built_networks
            self.structures, times = [], []
            for index, network in enumerate(networks):
                start = clock()
                with self._span("workloads.build", f"build-{build_round}-{index}"):
                    structure = build_locator(network, "theorem3", epsilon=self.epsilon)
                times.append(clock() - start)
                self.structures.append(structure)
            self.round_times.append(times)
            locators = self.structures
            if self.tracer is not None:
                locators = [TimedLocator(s, self.tracer) for s in locators]
            # ``finished`` is kept on a clock that runs only while querying.
            start = clock() - querying
            end = start + share * (build_round + 1)
            while clock() < end:
                slot = turn % self.pool
                sent = clock()
                with self._span("workloads.round", f"round-{turn}"):
                    answers = [s.locate_batch(self.batches[i, slot]) for i, s in enumerate(locators)]
                now = clock()
                finished.append(now - start)
                latencies.append(now - sent)
                for index, answer in enumerate(answers):
                    self.book.record((index, slot), answer)
                turn += 1
            querying = clock() - start
        self._record(0.0, finished, latencies)
        self.units = self.batch * len(self.networks)
        self.operations = len(latencies) * self.units

    def build_s(self) -> float:
        return float(np.min(self.round_times, axis=0).sum())

    def check(self) -> Tuple[int, int]:
        return self.operations, self.book.wrong(
            lambda key: brute_force(self.built_networks[key[0]], self.batches[key]))

    def layers(self) -> Dict[str, float]:
        return {
            **locate_layers(self.tracer),
            "pointlocation.segment_tests": sum(s.report.total_segment_tests for s in self.structures),
            "pointlocation.suspect_cells": sum(s.report.total_suspect_cells for s in self.structures),
        }


# ---------------------------------------------------------------------------
# raster-pan: cached tiles behind panning viewers
# ---------------------------------------------------------------------------

class RasterPan(_AsyncWorkload):
    """Closed loop: ``viewers`` coroutines on one ``RasterService`` pan a
    256-px viewport back and forth along their own strip of tiles, one tile
    column per request, with the cache budget below the strips' tiles.  The
    service runs requests on the default executor: one thread per viewer."""

    name = "raster-pan"
    op = "request"
    stations = 50
    side = 32.0
    viewers = 2
    executor_threads = viewers
    tile = 64
    view = 256
    #: World units per pixel: a power of two, so every box edge is exact and
    #: all viewports share one pixel lattice (and hence their tiles).
    pitch = 2.0 ** -5
    #: Tile columns of each viewer's strip; 2 strips x 16 x 4 tiles of
    #: ~1.7 MB is ~213 MB of tiles against a 64 MiB budget.
    strip_columns = 16
    budget = 64 * 2 ** 20
    #: Per viewer, the request numbers whose response is fingerprinted for
    #: the bit-identity check (hashing ~26 MB costs tens of ms, so few).
    checked = (5, 21, 37, 53)

    def _box(self, viewer: int, column: int) -> Tuple[Point, Point]:
        span = self.view * self.pitch
        x0 = column * self.tile * self.pitch
        y0 = span * (1 + viewer)
        return Point(x0, y0), Point(x0 + span, y0 + span)

    async def _setup(self) -> RasterService:
        network = uniform_random_network(self.stations, side=self.side, seed=self.seed)
        self.network = network
        if self.tracer is None:
            cache = TileCache(max_bytes=self.budget, tile_size=self.tile)
        else:
            cache = TracedTileCache(self.tracer, max_bytes=self.budget, tile_size=self.tile)
        service = RasterService(network, cache=cache, max_concurrency=self.viewers)
        last = self.strip_columns - self.view // self.tile
        self.columns = [int(c) for c in self.rng.integers(0, last + 1, self.viewers)]
        self.steps = [1 if c < last else -1 for c in self.columns]
        # Warm-up, timed as build_s: each viewer's first viewport rendered
        # into the empty cache.
        for viewer in range(self.viewers):
            cold = clock()
            await service.rasterize(*self._box(viewer, self.columns[viewer]), self.view)
            self.build_times.append(clock() - cold)
        return service

    @staticmethod
    def _stats(service: RasterService):
        return service.cache_stats()

    def _pan(self, viewer: int) -> int:
        last = self.strip_columns - self.view // self.tile
        column = self.columns[viewer] + self.steps[viewer]
        if not 0 <= column <= last:
            self.steps[viewer] = -self.steps[viewer]
            column = self.columns[viewer] + self.steps[viewer]
        self.columns[viewer] = column
        return column

    async def _timed(self, service: RasterService) -> None:
        latencies: List[float] = []
        finished: List[float] = []
        self.fingerprints: List[Tuple[int, int, str]] = []
        self.malformed = 0
        self.queue_times: List[float] = []
        start = clock()
        end = start + self.seconds

        async def viewer(index: int) -> None:
            count = 0
            while clock() < end:
                column = self._pan(index)
                sent = clock()
                with self._span("workloads.view", f"v{index}-{count}") as record:
                    response = await service.rasterize(*self._box(index, column), self.view)
                finished.append(clock())
                latencies.append(finished[-1] - sent)
                if record is not None:
                    executor = self.tracer.adopt(response, record)
                    if executor is not None:
                        self.queue_times.append(latencies[-1] - (executor[END] - executor[START]))
                if response.labels.shape != (self.view, self.view):
                    self.malformed += 1
                if count in self.checked:
                    self.fingerprints.append((index, column, _fingerprint(response)))
                count += 1
                del response  # do not hold it while the next one is built

        await asyncio.gather(*(viewer(index) for index in range(self.viewers)))
        self._record(start, finished, latencies)
        self.operations = len(latencies)

    def check(self) -> Tuple[int, int]:
        diagram = SINRDiagram(self.network)
        wrong = self.malformed
        for viewer, column, digest in self.fingerprints:
            reference = diagram.rasterize(*self._box(viewer, column), self.view)
            wrong += digest != _fingerprint(reference)
        return self.operations, wrong

    def layers(self) -> Dict[str, float]:
        tracer = self.tracer
        before, after = self.stats
        hits, misses = after.hits - before.hits, after.misses - before.misses
        renders = tracer.durations("raster.render")
        return {
            "service.loop_lag_p99_ms": nearest_rank(self.loop_lag, 0.99).value * 1e3,
            "raster.hits": hits,
            "raster.misses": misses,
            "raster.evictions": after.evictions - before.evictions,
            "raster.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "raster.lookup_ms_p50": nearest_rank(tracer.self_times("raster.tile"), 0.5).value * 1e3,
            "raster.render_ms_p50": nearest_rank(renders, 0.5).value * 1e3,
            "raster.render_busy_s": float(renders.sum()),
            "raster.assemble_ms_p50": nearest_rank(tracer.self_times("raster.rasterize"), 0.5).value * 1e3,
            "raster.queue_ms_p50": nearest_rank(self.queue_times, 0.5).value * 1e3,
        }


def _fingerprint(raster) -> str:
    digest = hashlib.sha1(np.ascontiguousarray(raster.labels))
    digest.update(np.ascontiguousarray(raster.sinr_values))
    return digest.hexdigest()


class _Heartbeat:
    """Oversleep of a 1 ms periodic coroutine: how late the event loop runs
    its callbacks (traced runs only)."""

    period = 0.001

    def __init__(self):
        self.oversleeps: List[float] = []
        self._task = asyncio.get_running_loop().create_task(self._beat())

    async def _beat(self) -> None:
        while True:
            before = clock()
            await asyncio.sleep(self.period)
            self.oversleeps.append(clock() - before - self.period)

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


WORKLOADS = {cls.name: cls for cls in (PointStream, BulkSlices, ColdBuild, RasterPan)}
