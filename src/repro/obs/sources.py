"""The one source adapter over every stats-bearing object in the stack.

:func:`stats_source` wraps any stats-bearing subject in a zero-argument
callable returning a flat ``{metric_name: float}`` mapping — the
:data:`~repro.obs.hub.MetricSource` shape :class:`~repro.obs.hub.MetricsHub`
collects.  One probe order covers every stock object:

1. a ``metrics_sample()`` method — the
   :class:`~repro.runtime.StatsSource` protocol; every first-party
   stats object (:class:`~repro.service.ServiceStats`, the batcher's
   gauges, :class:`~repro.raster.TileCache`, the mixed-precision screen
   counters) implements it, so this is the common path;
2. else the first of ``stats_snapshot()`` / ``snapshot()`` / ``stats()``
   is called and its result flattened — the duck-typed escape hatch that
   keeps third-party and test fakes working without implementing the
   protocol;
3. else the subject's own public numeric attributes are flattened.

After flattening, well-known derived quantities (``requests``,
``hit_rate``, ``verify_fraction``) found on the snapshot as properties or
zero-argument methods are added — dataclass flattening only sees fields.

The subject is duck-typed throughout, so this module never imports the
service, raster or engine layers and cannot create an import cycle with
them.  The one other adapter, :func:`batcher_depth_source`, is an explicit
projection onto a bare batcher's three gauges.

Counter-valued metrics (submitted, hits, evictions, …) are cumulative; a
consumer wanting per-interval rates takes deltas between consecutive
records, which is exactly what :class:`repro.control.AdaptiveLatencyBudget`
does.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping

__all__ = [
    "batcher_depth_source",
    "stats_source",
]

#: Snapshot methods probed, most specific first, when the subject does not
#: implement ``metrics_sample`` itself.
_SNAPSHOT_METHODS = ("stats_snapshot", "snapshot", "stats")

#: Derived quantities added when the snapshot exposes them as properties
#: or zero-argument methods (dataclass flattening only sees fields).
_DERIVED = ("requests", "hit_rate", "verify_fraction")


def _flatten(snapshot: object) -> Dict[str, float]:
    """Numeric fields of a (possibly dataclass) snapshot as ``{name: float}``."""
    if dataclasses.is_dataclass(snapshot) and not isinstance(snapshot, type):
        fields = dataclasses.asdict(snapshot)
    elif isinstance(snapshot, Mapping):
        fields = dict(snapshot)
    else:
        fields = {
            name: getattr(snapshot, name)
            for name in dir(snapshot)
            if not name.startswith("_")
            and not callable(getattr(snapshot, name))
        }
    flat: Dict[str, float] = {}
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        flat[str(name)] = float(value)
    return flat


def stats_source(subject: object) -> Callable[[], Dict[str, float]]:
    """Adapt any stats-bearing ``subject`` into a hub source.

    See the module docstring for the probe order.  The subject is probed
    afresh on every sample, so the callable always reflects the subject's
    live state.
    """

    def sample() -> Dict[str, float]:
        sampler = getattr(subject, "metrics_sample", None)
        if callable(sampler):
            return {
                str(name): float(value)
                for name, value in dict(sampler()).items()
            }
        snapshot = subject
        for method_name in _SNAPSHOT_METHODS:
            method = getattr(subject, method_name, None)
            if callable(method):
                snapshot = method()
                break
        flat = _flatten(snapshot)
        for name in _DERIVED:
            if name in flat:
                continue
            value = getattr(snapshot, name, None)
            if callable(value):
                try:
                    value = value()
                except TypeError:
                    continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            flat[name] = float(value)
        return flat

    return sample


def batcher_depth_source(batcher: object) -> Callable[[], Dict[str, float]]:
    """Adapter over a bare :class:`repro.service.MicroBatcher`'s gauges.

    Kept as an explicit three-gauge projection (not a generic probe): the
    contract is exactly these keys, whatever else the subject grows.
    """
    def sample() -> Dict[str, float]:
        return {
            "queue_depth": float(batcher.queue_depth),
            "inflight_batches": float(batcher.inflight_batches),
            "latency_budget": float(batcher.latency_budget),
        }

    return sample

