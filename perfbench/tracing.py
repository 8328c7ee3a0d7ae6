"""Spans and counters recorded around the calls into each layer.

Everything here wraps the library from the outside, through its public
classes and injection points; the library itself carries no tracing code:

* ``engine`` — :class:`TimingBackend`, a delegating backend registered with
  ``register_backend`` and selected with ``use_backend``;
* ``pointlocation`` — :class:`TimedLocator`, a pre-built locator handed to
  ``QueryService`` (it also times the incremental ``updated`` builds of a
  ``swap_network``), plus patched build phases of the Theorem-3 structure;
* ``raster`` — :class:`TracedTileCache`, a ``TileCache`` passed as
  ``cache=``, and the executor-side ``SINRDiagram.rasterize`` call;
* ``algebra`` / ``model`` — call counters on ``Polynomial``,
  ``SturmSequence.of``, ``ReceptionPolynomial.restrict_to_parametric_line``
  and the scalar ``WirelessNetwork.is_received``.

A span is ``[id, name, start, end, parent id, request id]``.  Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algebra.polynomial import Polynomial
from repro.algebra.reception import ReceptionPolynomial
from repro.algebra.sturm import SturmSequence
from repro.engine import register_backend, use_backend
from repro.engine.backend import BACKENDS, NumpyBackend
from repro.model.diagram import SINRDiagram
from repro.model.network import WirelessNetwork
from repro.pointlocation import SturmSegmentTest, ZoneGridIndex
from repro.pointlocation import ds as theorem3_module
from repro.raster import TileCache

__all__ = ["Tracer", "TimingBackend", "TimedLocator", "TracedTileCache", "instrument"]

ID, NAME, START, END, PARENT, RID = range(6)


class Tracer:
    """In-memory spans and counters shared by every thread of one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._by_result: Dict[int, list] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work is not measured)."""
        with self._lock:
            self.spans = []
            self.counts = Counter()
            self._by_result = {}

    @contextmanager
    def span(self, name: str, rid=None):
        parent = self._current.get()
        record = [
            next(self._ids), name, self.clock(), 0.0,
            None if parent is None else parent[ID],
            rid if rid is not None or parent is None else parent[RID],
        ]
        token = self._current.set(record)
        try:
            yield record
        finally:
            record[END] = self.clock()
            self._current.reset(token)
            self.spans.append(record)

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def counted(self, counter: str, function: Callable) -> Callable:
        def counting(*args, **kwargs):
            self.counts[counter] += 1  # only counted on single-threaded paths
            return function(*args, **kwargs)

        return counting

    # -- linking work done on another thread to the request it served ---
    def tag_result(self, result, record: list) -> None:
        with self._lock:
            self._by_result[id(result)] = record

    def adopt(self, result, parent: list) -> Optional[list]:
        """Re-parent the span that produced ``result`` under ``parent``."""
        with self._lock:
            record = self._by_result.pop(id(result), None)
        if record is not None:
            record[PARENT], record[RID] = parent[ID], parent[RID]
        return record

    # -- reading ---------------------------------------------------------
    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    def durations(self, name: str) -> np.ndarray:
        return np.array([span[END] - span[START] for span in self.named(name)])

    def self_times(self, name: str) -> np.ndarray:
        """Duration of each ``name`` span minus the time its children cover."""
        children = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        return np.array([
            span[END] - span[START] - children[span[ID]] for span in self.named(name)
        ])

    def dump(self, path) -> None:
        """Write every span as one JSON line, request ids inherited down."""
        by_id = {span[ID]: span for span in self.spans}

        def rid_of(span):
            while span[RID] is None and span[PARENT] in by_id:
                span = by_id[span[PARENT]]
            return span[RID]

        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s[START]):
                handle.write(json.dumps({
                    "id": span[ID], "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT], "rid": rid_of(span),
                }) + "\n")


class TimingBackend:
    """Delegating engine backend: every kernel call becomes an ``engine.*``
    span, and the points it was asked about are counted."""

    def __init__(self, tracer: Tracer, inner=None):
        self.name = "perfbench-timing"
        self._tracer = tracer
        self._inner = NumpyBackend() if inner is None else inner

    def __getattr__(self, attribute: str):
        method = getattr(self._inner, attribute)
        if not callable(method):
            return method
        tracer, name = self._tracer, "engine." + attribute

        def timed(coords, powers, points, *args, **kwargs):
            with tracer.span(name):
                result = method(coords, powers, points, *args, **kwargs)
            tracer.add("engine.points", len(points))
            return result

        setattr(self, attribute, timed)  # resolve each kernel once
        return timed


class TimedLocator:
    """A pre-built locator whose batch calls and incremental updates are
    timed; ``updated`` returns another :class:`TimedLocator`."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.network = inner.network
        self.name = getattr(inner, "name", type(inner).__name__)
        self._tracer = tracer

    def locate_batch(self, points):
        with self._tracer.span("pointlocation.locate_batch") as record:
            answers = self.inner.locate_batch(points)
        seconds = self._tracer.clock() - record[START]
        self._tracer.add("pointlocation.points", len(points))
        self._tracer.add("pointlocation.point_seconds", seconds * len(points))
        return answers

    def updated(self, network, delta=None):
        with self._tracer.span("pointlocation.update"):
            inner = self.inner.updated(network, delta)
        return TimedLocator(inner, self._tracer)


class TracedTileCache(TileCache):
    """A tile cache whose lookups (``raster.tile``) and renders
    (``raster.render``, a child of its lookup) are spans."""

    def __init__(self, tracer: Tracer, **options):
        super().__init__(**options)
        self._tracer = tracer

    def get_or_compute(self, key, factory):
        tracer = self._tracer

        def render():
            with tracer.span("raster.render"):
                return factory()

        with tracer.span("raster.tile"):
            return super().get_or_compute(key, render)


def _patch(patches: list, owner, attribute: str, replacement) -> None:
    patches.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper and select the timing backend; undo on exit.

    Must be entered before the services are built: they capture the engine
    backend selection when they start.
    """
    patches: list = []
    _patch(patches, Polynomial, "__init__", tracer.counted(
        "algebra.polynomials", Polynomial.__init__))
    _patch(patches, SturmSequence, "of", staticmethod(
        tracer.wrap("algebra.sturm_chain", SturmSequence.of)))
    _patch(patches, ReceptionPolynomial, "restrict_to_parametric_line", tracer.counted(
        "algebra.restrictions", ReceptionPolynomial.restrict_to_parametric_line))
    _patch(patches, WirelessNetwork, "is_received", tracer.counted(
        "model.is_received_calls", WirelessNetwork.is_received))
    _patch(patches, theorem3_module, "radius_bounds", tracer.wrap(
        "pointlocation.bounds", theorem3_module.radius_bounds))
    _patch(patches, ZoneGridIndex, "__init__", tracer.wrap(
        "pointlocation.zone_index", ZoneGridIndex.__init__))
    _patch(patches, SturmSegmentTest, "test", tracer.wrap(
        "pointlocation.segment_test", SturmSegmentTest.test))

    rasterize = SINRDiagram.rasterize

    def traced_rasterize(diagram, *args, **kwargs):
        if kwargs.get("cache") is None:  # the uncached oracle path
            return rasterize(diagram, *args, **kwargs)
        with tracer.span("raster.rasterize") as record:
            result = rasterize(diagram, *args, **kwargs)
        tracer.tag_result(result, record)
        return result

    _patch(patches, SINRDiagram, "rasterize", traced_rasterize)
    register_backend("perfbench-timing", TimingBackend(tracer))
    try:
        with use_backend("perfbench-timing"):
            yield tracer
    finally:
        BACKENDS.unregister("perfbench-timing")
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
