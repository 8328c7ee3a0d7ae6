"""AIMD control of the micro-batcher's latency budget.

The latency budget is the classic batching trade-off: a large budget lets
batches fill (amortising per-batch dispatch overhead), a small one bounds
how long a lonely query waits for batch-mates.  No static setting wins on
both sides of a load shift, so :class:`AdaptiveLatencyBudget` closes the
loop: it watches the service's metrics records and retunes
:meth:`repro.service.MicroBatcher.set_latency_budget` with an
additive-increase / multiplicative-decrease law.

The signals, in priority order:

1. **SLO breach** — the seal-wait p99 exceeds the target while the budget
   is above its floor: shrink multiplicatively.  Waits approach the budget
   whenever traffic is too light to size-seal, so this is what walks the
   budget back down after a burst passes.
2. **Pressure** — sealed batches are piling up at the dispatch executor
   (``inflight_batches`` at or above the threshold): grow additively, so
   batches fill further and per-batch overhead stops compounding the
   backlog.  The *unsealed* queue depth is deliberately not the signal:
   the dispatcher seals freely under overload, so backlog shows up as
   in-flight batches, not queued entries.
3. **Light traffic** — the arrival rate over the last interval would fill
   only a trivial batch within the whole budget: shrink, the budget is
   buying waiting instead of batching.

Anything else holds.  The controller starts at the *floor*: growth costs a
few ticks after load arrives, but an idle or light service never pays
budget-sized waits while the loop converges.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

from ..env import CONTROL_BUDGET_CAP, CONTROL_WAIT_TARGET, read_float_knob
from ..exceptions import ControlError, ObservabilityError
from ..obs.hub import MetricsRecord
from .base import Controller

__all__ = ["AdaptiveLatencyBudget"]

#: Default budget floor: a quarter millisecond still lets a dense burst
#: coalesce while costing a lone query essentially nothing.
DEFAULT_MIN_BUDGET = 0.00025

#: Trace entries retained (each budget change appends one).
DEFAULT_TRACE_SIZE = 1024


class AdaptiveLatencyBudget(Controller):
    """AIMD tuner for a :class:`repro.service.MicroBatcher` latency budget.

    Args:
        source: name of the hub source to read (a
            :meth:`repro.service.QueryService.metrics_sample`-shaped
            mapping with ``wait_p99``, ``inflight_batches`` and
            ``submitted``).
        min_budget: budget floor in seconds; also the starting point.
        max_budget: budget cap in seconds; defaults to the
            ``REPRO_CONTROL_BUDGET_CAP`` knob (0.02 s).
        target_wait_p99: seal-wait SLO in seconds; defaults to the
            ``REPRO_CONTROL_WAIT_TARGET`` knob (0.02 s).
        increase: additive growth per pressured tick, in seconds.
        decrease: multiplicative shrink factor in ``(0, 1)``.
        pressure_inflight: in-flight batch count that signals congestion.
        light_batch: expected batch size at or below which the budget is
            considered to buy waiting, not batching.
    """

    def __init__(
        self,
        source: str = "service",
        min_budget: float = DEFAULT_MIN_BUDGET,
        max_budget: Optional[float] = None,
        target_wait_p99: Optional[float] = None,
        increase: float = 0.001,
        decrease: float = 0.7,
        pressure_inflight: int = 3,
        light_batch: float = 2.0,
        trace_size: int = DEFAULT_TRACE_SIZE,
    ):
        super().__init__()
        if max_budget is None:
            max_budget = read_float_knob(CONTROL_BUDGET_CAP, 0.02)
        if target_wait_p99 is None:
            target_wait_p99 = read_float_knob(CONTROL_WAIT_TARGET, 0.02)
        if min_budget < 0.0:
            raise ControlError(f"min_budget must be >= 0, got {min_budget}")
        if max_budget < min_budget:
            raise ControlError(
                f"max_budget ({max_budget}) must be >= min_budget ({min_budget})"
            )
        if increase <= 0.0:
            raise ControlError(f"the additive increase must be > 0, got {increase}")
        if not 0.0 < decrease < 1.0:
            raise ControlError(
                f"the multiplicative decrease must be in (0, 1), got {decrease}"
            )
        if target_wait_p99 <= 0.0:
            raise ControlError(
                f"target_wait_p99 must be > 0, got {target_wait_p99}"
            )
        if pressure_inflight < 1:
            raise ControlError(
                f"pressure_inflight must be >= 1, got {pressure_inflight}"
            )
        if light_batch < 0.0:
            raise ControlError(f"light_batch must be >= 0, got {light_batch}")
        if trace_size < 1:
            raise ControlError(f"trace_size must be >= 1, got {trace_size}")
        self.source = source
        self.min_budget = float(min_budget)
        self.max_budget = float(max_budget)
        self.target_wait_p99 = float(target_wait_p99)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.pressure_inflight = int(pressure_inflight)
        self.light_batch = float(light_batch)
        self._batcher = None
        self._budget = self.min_budget
        self._last: Optional[Tuple[float, float]] = None  # (timestamp, submitted)
        self.grows = 0
        self.shrinks = 0
        self.holds = 0
        self.missing = 0
        self._trace: Deque[Tuple[float, float]] = deque(maxlen=trace_size)

    # -- binding ---------------------------------------------------------
    def bind(self, batcher) -> "AdaptiveLatencyBudget":
        """Attach the batcher to actuate and apply the starting budget."""
        self._batcher = batcher
        self._apply(self._budget, timestamp=float("nan"))
        return self

    @property
    def budget(self) -> float:
        """The budget this controller last applied (starts at the floor)."""
        return self._budget

    def trace(self) -> Tuple[Tuple[float, float], ...]:
        """``(record timestamp, budget)`` pairs, one per applied change."""
        return tuple(self._trace)

    # -- the control law -------------------------------------------------
    def observe(self, record: MetricsRecord) -> None:
        if self._batcher is None:
            raise ControlError(
                "AdaptiveLatencyBudget must be bound to a batcher before it "
                "observes records (call bind())"
            )
        try:
            metrics = record.source(self.source)
        except ObservabilityError:
            self.missing += 1
            return
        submitted = metrics.get("submitted", 0.0)
        previous = self._last
        self._last = (record.timestamp, submitted)
        if previous is None:
            self.holds += 1
            return

        wait_p99 = metrics.get("wait_p99", float("nan"))
        inflight = metrics.get("inflight_batches", 0.0)
        budget = self._budget

        if (
            not math.isnan(wait_p99)
            and wait_p99 > self.target_wait_p99
            and budget > self.min_budget
        ):
            self._apply(max(self.min_budget, budget * self.decrease), record.timestamp)
            self.shrinks += 1
            return
        if inflight >= self.pressure_inflight and budget < self.max_budget:
            self._apply(min(self.max_budget, budget + self.increase), record.timestamp)
            self.grows += 1
            return
        elapsed = record.timestamp - previous[0]
        arrived = submitted - previous[1]
        if elapsed > 0.0 and budget > self.min_budget:
            expected_batch = (arrived / elapsed) * budget
            if expected_batch <= self.light_batch:
                self._apply(
                    max(self.min_budget, budget * self.decrease), record.timestamp
                )
                self.shrinks += 1
                return
        self.holds += 1

    def _apply(self, budget: float, timestamp: float) -> None:
        self._budget = budget
        self._batcher.set_latency_budget(budget)
        self._trace.append((timestamp, budget))
