"""Observability layer: a metrics hub, source adapters and stock sinks.

The hub (:class:`MetricsHub`) periodically samples registered *sources*
(zero-argument callables returning ``{metric: float}``) into immutable
:class:`MetricsRecord` snapshots and fans each one out to registered
*sinks* (anything with ``emit(record)``).  The generic
:func:`stats_source` adapter lives in :mod:`repro.obs.sources`; ring-buffer,
JSONL and log sinks in :mod:`repro.obs.sinks`.  The closed-loop controllers of
:mod:`repro.control` consume records through the same sink protocol.
"""

from .hub import MetricSource, MetricsHub, MetricsRecord
from .sinks import JsonlSink, LogSink, MemorySink
from .sources import batcher_depth_source, stats_source

__all__ = [
    "JsonlSink",
    "LogSink",
    "MemorySink",
    "MetricSource",
    "MetricsHub",
    "MetricsRecord",
    "batcher_depth_source",
    "stats_source",
]
