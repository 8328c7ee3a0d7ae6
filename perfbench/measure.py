"""Measurement primitives of the benchmark: percentiles, the open-loop
generator and the swap-aware correctness oracle.

Nothing here imports the library under test, so the logic is unit-tested on
its own (``perfbench/tests``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from collections import Counter
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AnswerBook",
    "Quantile",
    "RequestLog",
    "SwapLog",
    "Windows",
    "nearest_rank",
    "poisson_due_times",
    "run_open_loop",
    "trimmed_mean",
]


@dataclass(frozen=True)
class Quantile:
    """A nearest-rank percentile together with the number of samples it
    was taken from (``count == 0`` means no sample: ``value`` is 0.0)."""

    value: float
    count: int


def nearest_rank(samples: Sequence[float], fraction: float) -> Quantile:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it (rank ``ceil(fraction * n)``).

    The answer is always an observed value, never an interpolation.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = np.sort(np.asarray(samples, dtype=float))
    if ordered.size == 0:
        return Quantile(0.0, 0)
    rank = max(1, math.ceil(fraction * ordered.size))
    return Quantile(float(ordered[rank - 1]), int(ordered.size))


@dataclass(frozen=True)
class Windows:
    """The timed phase cut into equal windows, each summarised on its own.

    ``throughput`` is completed work units per second and ``p50``/``p90``
    are nearest-rank latency percentiles, each computed per window and then
    summarised over the windows in one of two ways:

    * ``"trimmed"``: the mean after dropping the highest and the lowest
      tenth of the windows.  On a shared 2-core VM the speed of a workload
      whose threads hand the GIL back and forth drifts from second to
      second; the trimmed mean weighs those speeds by time and ignores a
      lone disturbed window, where a median snaps to whichever speed held
      most of the run.
    * ``"best"``: the best window of each figure (highest throughput,
      lowest percentile).  A single computing thread runs at one of two
      machine speeds ~1.5x apart, switching every few seconds; the best
      window measures the program at the faster one, which every run
      reaches, where any average depends on how long the run spent at each.

    ``samples`` counts the latencies in all windows and ``fewest`` those of
    the emptiest one.
    """

    throughput: float
    p50: float
    p90: float
    samples: int
    fewest: int
    count: int

    trim = 0.1

    @classmethod
    def of(cls, done, latency, units, start: float, length: float, count: int,
           summary: str = "trimmed") -> "Windows":
        """Summarise operations finishing at ``done`` (clock readings) that
        took ``latency`` seconds and did ``units`` units of work each;
        operations finishing after ``start + count * length`` are left out."""
        if summary not in ("trimmed", "best"):
            raise ValueError(f"unknown summary {summary!r}")
        done = np.asarray(done, dtype=float)
        latency = np.asarray(latency, dtype=float)
        units = np.broadcast_to(np.asarray(units, dtype=float), done.shape)
        slot = np.floor((done - start) / length)
        rates, p50s, p90s, sizes = [], [], [], []
        for window in range(count):
            inside = slot == window
            rates.append(units[inside].sum() / length)
            p50s.append(nearest_rank(latency[inside], 0.5).value)
            p90s.append(nearest_rank(latency[inside], 0.9).value)
            sizes.append(int(inside.sum()))
        if summary == "best":
            figures = (max(rates), min(p50s), min(p90s))
        else:
            figures = tuple(trimmed_mean(v, cls.trim) for v in (rates, p50s, p90s))
        return cls(*figures, samples=int(sum(sizes)), fewest=int(min(sizes)), count=count)


def trimmed_mean(values: Sequence[float], fraction: float) -> float:
    """Mean of ``values`` without the lowest and highest ``fraction``."""
    ordered = np.sort(np.asarray(values, dtype=float))
    cut = int(fraction * ordered.size)
    return float(ordered[cut:ordered.size - cut].mean())


def poisson_due_times(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Poisson arrival times (seconds from 0) at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


class RequestLog:
    """Per-request timestamps of an open-loop run, all on one clock.

    ``due`` is when the schedule wanted the request sent, ``sent`` when the
    request coroutine actually started and ``done`` when its answer arrived.
    Latency is counted from ``due``, so a stalled generator charges its
    delay to every request it held back; ``lag`` reports that delay.
    """

    def __init__(self, due: np.ndarray):
        self.due = np.asarray(due, dtype=float)
        self.sent = np.full(self.due.shape, np.nan)
        self.done = np.full(self.due.shape, np.nan)

    @property
    def lag(self) -> np.ndarray:
        return self.sent - self.due

    @property
    def latency(self) -> np.ndarray:
        return self.done - self.due

    @property
    def service_time(self) -> np.ndarray:
        """Send to answer: the part of the latency the service itself owns."""
        return self.done - self.sent


async def run_open_loop(
    log: RequestLog,
    request: Callable[[int], Awaitable[None]],
    clock: Callable[[], float] = time.perf_counter,
    start: Optional[float] = None,
) -> float:
    """Send request ``i`` at ``start + log.due[i]`` from one coroutine.

    The generator launches every request that is due, then sleeps until the
    next due time; each launched request records ``sent`` when it starts
    and ``done`` when ``request(i)`` returns.  ``log.due`` is rebased to
    absolute clock readings.  Returns ``start``; all requests have finished
    when it returns.
    """
    loop = asyncio.get_running_loop()
    origin = clock() if start is None else start
    log.due += origin
    due = log.due
    pending: set = set()

    async def one(index: int) -> None:
        log.sent[index] = clock()
        await request(index)
        log.done[index] = clock()

    index, count = 0, len(due)
    while index < count:
        now = clock()
        while index < count and due[index] <= now:
            task = loop.create_task(one(index))
            pending.add(task)
            task.add_done_callback(pending.discard)
            index += 1
        if index < count:
            await asyncio.sleep(max(0.0, due[index] - clock()))
    while pending:
        # Retrieve every result: a failed request must surface, not vanish.
        results = await asyncio.gather(*list(pending), return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
    return origin


class SwapLog:
    """Network epochs of a run with live swaps, for the correctness oracle.

    ``networks[k]`` is the network of epoch ``k``; swap ``k`` (1-based)
    moved the service from epoch ``k - 1`` to ``k`` somewhere inside its
    window ``[started[k - 1], finished[k - 1]]``.  A query submitted at
    ``a`` and answered at ``b`` may legitimately be answered by any epoch
    from the last one whose swap had *finished* before ``a`` to the last one
    whose swap had *started* before ``b``.
    """

    def __init__(self, network):
        self.networks: List[object] = [network]
        self.started: List[float] = []
        self.finished: List[float] = []

    def record(self, network, started: float, finished: float) -> None:
        self.networks.append(network)
        self.started.append(started)
        self.finished.append(finished)

    def epoch_range(self, submitted: np.ndarray, answered: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Lowest and highest acceptable epoch per query (inclusive)."""
        low = np.searchsorted(np.asarray(self.finished), submitted, side="left")
        high = np.searchsorted(np.asarray(self.started), answered, side="right")
        return low, np.maximum(low, high)

    def check(
        self,
        answers: np.ndarray,
        submitted: np.ndarray,
        answered: np.ndarray,
        truth: Callable[[object, np.ndarray], np.ndarray],
        points: np.ndarray,
    ) -> np.ndarray:
        """Mask of answers that match ``truth(network, points)`` for at
        least one epoch the query's lifetime allows."""
        low, high = self.epoch_range(submitted, answered)
        ok = np.zeros(len(answers), dtype=bool)
        for epoch, network in enumerate(self.networks):
            rows = np.flatnonzero((low <= epoch) & (epoch <= high) & ~ok)
            if rows.size:
                ok[rows] = truth(network, points[rows]) == answers[rows]
        return ok


class AnswerBook:
    """Answers to a fixed pool of inputs that a closed loop cycles through.

    The first answer to each input is kept for the oracle; every later
    answer to the same input must repeat it exactly.
    """

    def __init__(self):
        self.first: Dict[Hashable, np.ndarray] = {}
        self.uses: Counter = Counter()
        self.repeat_mismatches = 0

    def record(self, key: Hashable, answers: np.ndarray) -> None:
        first = self.first.get(key)
        if first is None:
            self.first[key] = answers
        elif not np.array_equal(first, answers):
            self.repeat_mismatches += int(np.sum(first != answers))
        self.uses[key] += 1

    def wrong(self, truth: Callable[[Hashable], np.ndarray]) -> int:
        """Wrong answers over every use, given ``truth(key)`` per input."""
        wrong = self.repeat_mismatches
        for key, first in self.first.items():
            wrong += int(np.sum(truth(key) != first)) * self.uses[key]
        return wrong
