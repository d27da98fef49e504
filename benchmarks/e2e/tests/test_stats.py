"""The percentile rule and the capacity/backlog rule, on synthetic data."""

import pytest

from harness import clock
from harness.clock import PartClock, quiet_seconds, scaled_by_quiet_speed
from harness.stats import (StepSummary, band_percentile, capacity,
                           capacity_step, median_and_tail, percentile, spread,
                           supported_percentile)

LIMIT = 250.0


def test_percentile_rule_needs_ten_samples_beyond():
    assert supported_percentile(999) == 90.0    # 9.99 samples beyond p99
    assert supported_percentile(1000) == 99.0   # exactly ten
    assert supported_percentile(10_000, ceiling=99.9) == 99.9
    assert supported_percentile(10_000) == 99.0  # capped by the ceiling
    assert supported_percentile(100) == 90.0
    assert supported_percentile(99) == 50.0
    assert supported_percentile(1) == 50.0


def test_nearest_rank_percentile():
    ordered = list(range(1, 101))
    assert percentile(ordered, 50.0) == 50
    assert percentile(ordered, 99.0) == 99
    assert percentile(ordered, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_band_percentile_averages_the_ranks_around_the_percentile():
    ordered = [float(value) for value in range(1, 2001)]
    # ranks 991..1010 and 1971..1990: centred on the nearest-rank values
    assert band_percentile(ordered, 50.0) == 1000.5
    assert band_percentile(ordered, 99.0) == 1980.5
    assert band_percentile([7.0], 99.0) == 7.0
    assert band_percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    flat = [11.0] * 900 + [500.0] * 100
    assert band_percentile(flat, 50.0) == 11.0  # an atom stays an atom


def test_median_and_tail_degrades_with_the_sample_count():
    samples = [float(value) for value in range(2000, 0, -1)]
    assert median_and_tail(samples) == (1000.5, 1980.5, 99.0)
    assert median_and_tail(samples[:500])[2] == 90.0
    with pytest.raises(ValueError):
        median_and_tail([])


def test_quiet_seconds_takes_the_fastest_repeat_of_every_part():
    repeats = [[1.0, 5.0, 2.0], [3.0, 1.5, 2.5], [1.2, 9.0, 1.0]]
    assert quiet_seconds(repeats) == 1.0 + 1.5 + 1.0
    assert quiet_seconds([[2.0, 3.0]]) == 5.0
    assert quiet_seconds([[1.0, 1.0, 4.0], [2.0, 0.5]]) == 1.5  # common parts


def steps(*rows):
    return [StepSummary(rate, tail, drain, failures, valid)
            for rate, tail, drain, failures, valid in rows]


def test_capacity_is_the_highest_passing_step():
    ladder = steps((100e3, 30.0, 20.0, 0, True),
                   (200e3, 80.0, 40.0, 0, True),
                   (300e3, 240.0, 200.0, 0, True),
                   (400e3, 900.0, 2000.0, 0, True))
    assert capacity_step(ladder, LIMIT).rate == 300e3
    # Interpolated toward the failing step, never past it or below.
    assert 300e3 < capacity(ladder, LIMIT) < 400e3


def test_growing_backlog_fails_a_step_whose_tail_still_passes():
    ladder = steps((100e3, 30.0, 20.0, 0, True),
                   (200e3, 200.0, 400.0, 0, True))  # last reply lands late
    assert capacity_step(ladder, LIMIT).rate == 100e3
    assert capacity(ladder, LIMIT) == 100e3  # not a tail failure: no interp


def test_failures_and_generator_lag_disqualify_a_step():
    ladder = steps((100e3, 30.0, 20.0, 0, True),
                   (200e3, 40.0, 20.0, 1, True),     # one failed op
                   (300e3, 50.0, 20.0, 0, False))    # generator ran late
    assert capacity_step(ladder, LIMIT).rate == 100e3
    assert capacity(ladder, LIMIT) == 100e3


def test_capacity_of_a_ladder_that_never_fails_is_its_top():
    ladder = steps((100e3, 30.0, 20.0, 0, True), (200e3, 60.0, 20.0, 0, True))
    assert capacity(ladder, LIMIT) == 200e3


def test_capacity_of_a_ladder_that_never_passes_is_zero():
    assert capacity(steps((100e3, 900.0, 20.0, 0, True)), LIMIT) == 0.0
    assert capacity_step([], LIMIT) is None


def test_interpolation_is_continuous_at_the_limit():
    def ladder(tail):
        return steps((500e3, tail, 10.0, 0, True),
                     (600e3, 400.0, 900.0, 0, True))
    assert capacity(ladder(249.9), LIMIT) == pytest.approx(500e3, rel=1e-3)
    assert capacity(ladder(100.0), LIMIT) > capacity(ladder(200.0), LIMIT)


def test_spread_is_the_interquartile_share_of_the_median():
    values = [9.0, 9.0] + [10.0] * 6 + [11.0, 11.0]
    assert spread(values) == pytest.approx(0.05)  # quartiles 9.75, 10.25
    assert spread([5.0] * 10) == 0.0


def _clock(samples, brackets):
    made = PartClock.__new__(PartClock)  # no calibration: samples are given
    made.samples, made.brackets = samples, brackets
    return made


def test_parts_scale_to_reference_seconds_by_the_host_speed_around_them():
    reference = clock._ITERATIONS / clock.REFERENCE_RATE
    # A host at reference speed, then half as fast around the last part.
    samples = [reference] * 4 + [2 * reference] * 4
    made = _clock(samples, [[1.0], [1.0, 3.0], [1.0], [1.0], [1.0], [1.0],
                            [1.0]])
    scaled = made.scaled_locally()
    assert scaled[0] == [pytest.approx(1.0)]
    assert scaled[1] == [pytest.approx(1.0), pytest.approx(3.0)]
    assert scaled[-1] == [pytest.approx(0.5)]  # slow host: less work done
    assert made.speed() == pytest.approx(0.5)


def test_two_process_parts_scale_by_the_runs_quiet_speed():
    reference = clock._ITERATIONS / clock.REFERENCE_RATE
    quiet = _clock([reference] * 5, [[2.0]])
    noisy = _clock([3 * reference] * 5, [[2.0], [4.0]])
    assert scaled_by_quiet_speed([quiet, noisy]) == [
        [[pytest.approx(2.0)]],
        [[pytest.approx(2.0)], [pytest.approx(4.0)]]]
