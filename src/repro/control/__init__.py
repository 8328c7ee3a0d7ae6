"""Closed-loop adaptive control over the serving stack's tuning knobs.

Controllers consume :class:`repro.obs.MetricsRecord` snapshots through the
metrics hub's sink protocol and actuate the runtime retuning surfaces the
rest of the stack exposes:

* :class:`AdaptiveLatencyBudget` — AIMD on
  :meth:`repro.service.MicroBatcher.set_latency_budget`, keyed off the
  seal-wait p99 (SLO) and the in-flight batch count (congestion).

``QueryService(controller=...)`` wires a controller into the service's own
metrics plumbing, including gating actuation off during epoch swaps.
"""

from .base import Controller
from .latency import AdaptiveLatencyBudget

__all__ = [
    "AdaptiveLatencyBudget",
    "Controller",
]
