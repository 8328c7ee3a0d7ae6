"""Tests of the benchmark's own measurement logic (``perfbench/measure.py``).

Run with ``python -m pytest perfbench/tests``; they need only numpy.
"""

import asyncio
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import (  # noqa: E402
    AnswerBook, RequestLog, SwapLog, Windows, nearest_rank, poisson_due_times, run_open_loop,
    trimmed_mean,
)


# -- nearest-rank percentile ---------------------------------------------------

def test_nearest_rank_picks_an_observed_sample_and_reports_the_count():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 0.5).value == 3.0
    assert nearest_rank(samples, 0.9).value == 5.0  # rank ceil(4.5) = 5
    assert nearest_rank(samples, 0.2).value == 1.0  # rank ceil(1.0) = 1
    assert nearest_rank(samples, 0.0).value == 1.0
    assert nearest_rank(samples, 1.0).value == 5.0
    assert nearest_rank(samples, 0.5).count == 5


def test_nearest_rank_of_hundred_samples_matches_the_textbook_rank():
    samples = np.arange(1, 101, dtype=float)[::-1]
    assert nearest_rank(samples, 0.9).value == 90.0
    assert nearest_rank(samples, 0.99).value == 99.0
    assert nearest_rank(samples, 0.991).value == 100.0


def test_nearest_rank_of_no_samples_is_zero_with_count_zero():
    quantile = nearest_rank([], 0.5)
    assert quantile.value == 0.0 and quantile.count == 0


def test_nearest_rank_rejects_fractions_outside_the_unit_interval():
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


# -- swap-aware oracle ---------------------------------------------------------

def _truth(network, points):
    """A stand-in oracle: epoch ``network`` answers every point with itself."""
    return np.full(len(points), network, dtype=np.int64)


def _log_with_one_swap():
    log = SwapLog(0)
    log.record(1, started=10.0, finished=12.0)
    return log


def test_swap_oracle_accepts_either_epoch_for_a_query_overlapping_the_window():
    log = _log_with_one_swap()
    points = np.zeros((2, 2))
    submitted = np.array([9.0, 11.0])
    answered = np.array([11.0, 13.0])
    for answer in (0, 1):
        answers = np.full(2, answer, dtype=np.int64)
        assert log.check(answers, submitted, answered, _truth, points).all()


def test_swap_oracle_pins_queries_outside_the_window_to_one_epoch():
    log = _log_with_one_swap()
    points = np.zeros((2, 2))
    submitted = np.array([1.0, 13.0])   # long before / after the swap
    answered = np.array([2.0, 14.0])
    good = np.array([0, 1], dtype=np.int64)
    assert log.check(good, submitted, answered, _truth, points).all()
    swapped = np.array([1, 0], dtype=np.int64)
    assert not log.check(swapped, submitted, answered, _truth, points).any()


def test_swap_oracle_rejects_a_label_no_epoch_gives():
    log = _log_with_one_swap()
    ok = log.check(np.array([7], dtype=np.int64), np.array([11.0]), np.array([11.5]),
                   _truth, np.zeros((1, 2)))
    assert not ok.any()


def test_swap_oracle_epoch_range_spans_consecutive_swaps():
    log = SwapLog(0)
    log.record(1, started=10.0, finished=11.0)
    log.record(2, started=20.0, finished=21.0)
    low, high = log.epoch_range(np.array([5.0, 10.5, 12.0, 10.5]),
                                np.array([6.0, 10.6, 20.5, 25.0]))
    assert low.tolist() == [0, 0, 1, 0]
    assert high.tolist() == [0, 1, 2, 2]


# -- open-loop generator -------------------------------------------------------

class _FakeClock:
    """A clock that only moves when the test moves it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_lag_and_latency_are_measured_from_the_due_time():
    log = RequestLog(np.array([0.0, 1.0, 2.0]))
    log.due += 10.0
    log.sent[:] = [10.0, 11.5, 14.0]
    log.done[:] = [10.2, 12.0, 14.1]
    assert np.allclose(log.lag, [0.0, 0.5, 2.0])
    assert np.allclose(log.latency, [0.2, 1.0, 2.1])
    assert np.allclose(log.service_time, [0.2, 0.5, 0.1])


def test_open_loop_charges_a_stalled_generator_to_the_requests_it_held_back():
    clock = _FakeClock()
    log = RequestLog(np.array([0.0, 0.001, 0.002]))

    async def request(index):
        clock.now += 0.010  # each answer takes 10 ms of clock

    async def main():
        return await run_open_loop(log, request, clock)

    start = asyncio.run(main())
    assert start == 100.0
    assert np.allclose(log.due, [100.0, 100.001, 100.002])
    # Request 0 is due at once and holds the clock for 10 ms; requests 1
    # and 2 fell due meanwhile and start late, one after the other.
    assert np.allclose(log.sent, [100.0, 100.010, 100.020])
    assert np.allclose(log.lag, [0.0, 0.009, 0.018])
    assert np.allclose(log.latency, [0.010, 0.019, 0.028])


def test_open_loop_sends_each_request_once_and_on_schedule():
    seen = []
    log = RequestLog(np.array([0.0, 0.002, 0.004, 0.006]))

    async def request(index):
        seen.append(index)

    asyncio.run(run_open_loop(log, request))
    assert sorted(seen) == [0, 1, 2, 3]
    assert np.all(log.lag >= 0.0)
    assert np.all(np.isfinite(log.done))


def test_open_loop_surfaces_a_failed_request():
    log = RequestLog(np.array([0.0, 0.0]))

    async def request(index):
        if index == 1:
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        asyncio.run(run_open_loop(log, request))


def test_poisson_due_times_are_increasing_at_the_requested_rate():
    due = poisson_due_times(1000.0, 20000, np.random.default_rng(3))
    assert np.all(np.diff(due) > 0)
    assert due[-1] == pytest.approx(20.0, rel=0.05)


# -- windows and repeated answers ----------------------------------------------

def test_windows_average_per_window_figures_without_the_extreme_windows():
    # Ten 1-second windows of one 10 ms operation each, except window 3: a
    # disturbed one with a single 500 ms operation, and window 7: a fast
    # one with three 2 ms operations.  Each operation does 2 units.
    done = np.arange(10) + 0.5
    latency = np.full(10, 0.010)
    latency[3] = 0.500
    done = np.append(done, [7.6, 7.7])
    latency = np.append(latency, [0.002, 0.002])
    latency[7] = 0.002
    windows = Windows.of(done, latency, 2, start=0.0, length=1.0, count=10)
    # Trimming drops one window from each end: the 500 ms and the 2 ms
    # windows for the percentiles, the 6-units/s window and one of the
    # 2-units/s ones for the rates.
    assert windows.p50 == pytest.approx(0.010)
    assert windows.p90 == pytest.approx(0.010)
    assert windows.throughput == pytest.approx(2.0)
    assert (windows.samples, windows.fewest) == (12, 1)


def test_windows_best_summary_takes_each_figure_from_its_best_window():
    # Window 0: two 10 ms operations; window 1: one 4 ms and one 30 ms
    # operation; window 2: one 8 ms operation.
    done = [0.2, 0.4, 1.2, 1.4, 2.5]
    latency = [0.010, 0.010, 0.004, 0.030, 0.008]
    windows = Windows.of(done, latency, 1, start=0.0, length=1.0, count=3, summary="best")
    assert windows.throughput == 2.0
    assert windows.p50 == pytest.approx(0.004)  # window 1's p50: rank ceil(1.0) = 1
    assert windows.p90 == pytest.approx(0.008)  # window 2's lone sample
    assert (windows.samples, windows.fewest) == (5, 1)


def test_windows_reject_an_unknown_summary():
    with pytest.raises(ValueError):
        Windows.of([0.5], [1.0], 1, start=0.0, length=1.0, count=1, summary="median")


def test_windows_leave_out_operations_after_the_last_window():
    windows = Windows.of([0.5, 1.5, 2.5], [1.0, 1.0, 9.0], 1, start=0.0, length=1.0, count=2)
    assert windows.samples == 2 and windows.p90 == 1.0


def test_trimmed_mean_drops_the_given_share_at_each_end():
    assert trimmed_mean(range(10), 0.1) == pytest.approx(4.5)
    assert trimmed_mean([1.0, 2.0, 100.0] + [2.0] * 7, 0.1) == pytest.approx(2.0)
    assert trimmed_mean([3.0, 5.0], 0.1) == 4.0


def test_answer_book_checks_first_answers_and_counts_every_use():
    book = AnswerBook()
    book.record("a", np.array([1, 2]))
    book.record("a", np.array([1, 2]))
    book.record("b", np.array([3]))
    truth = {"a": np.array([1, 0]), "b": np.array([3])}
    assert book.wrong(truth.get) == 2          # one wrong label, used twice
    book.record("b", np.array([4]))            # a repeat that disagrees
    assert book.wrong(truth.get) == 2 + 1
