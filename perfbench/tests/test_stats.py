"""The tail-percentile rule and the spread summary."""

import statistics

import pytest

from perfbench.stats import (TAIL_BEYOND, median, quantile, spread,
                             summarise, tail)


@pytest.mark.parametrize("n", [11, 12, 40, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    value, percentile, samples = tail(values)
    assert samples == n
    assert percentile == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)
    # The estimate sits at the element with ten samples above it, give
    # or take one neighbour.
    element = values[n - TAIL_BEYOND - 1]
    assert element - 1.0 <= value <= element + 1.0
    assert sum(1 for v in values if v > value + 1.0) <= TAIL_BEYOND


def test_tail_is_the_highest_such_percentile():
    values = [float(i) for i in range(100)]
    value, percentile, _ = tail(values)
    # One step higher would leave only nine samples beyond.
    assert percentile == 90.0
    assert value == pytest.approx(quantile(values, 0.9))


def test_tail_is_the_harrell_davis_quantile():
    # An eleventh slow op moves the sample element with ten above it
    # from 89 to 100; the estimate moves by a fraction of that.
    fast = [float(i) for i in range(90)]
    ten_slow = fast + [100.0] * 10
    eleven_slow = fast[:-1] + [100.0] * 11
    assert sorted(ten_slow)[89] == 89.0 and sorted(eleven_slow)[89] == 100.0
    step = tail(eleven_slow)[0] - tail(ten_slow)[0]
    assert 0.0 < step < 0.25 * (100.0 - 89.0)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0,
              11.0]
    assert tail(values)[0] == tail(sorted(values))[0]


@pytest.mark.parametrize("n", [1, 5, 10])
def test_too_few_samples_fall_back_to_the_median(n):
    values = [float(i) for i in range(n)]
    assert tail(values) == (statistics.median(values), 50.0, n)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    stats = spread(values)
    assert stats["median"] == median
    assert stats["iqr_share"] == pytest.approx((q3 - q1) / median)


def test_summarise_per_metric():
    runs = [{"a": float(i), "b": 2.0 * i} for i in range(1, 6)]
    summary = summarise(runs)
    assert set(summary) == {"a", "b"}
    assert summary["b"]["median"] == 2 * summary["a"]["median"]


def test_median_of_constant_and_single_samples():
    assert median([4.0]) == pytest.approx(4.0)
    assert median([7.0] * 9) == pytest.approx(7.0)


def test_median_of_a_symmetric_sample_is_its_centre():
    assert median([float(i) for i in range(101)]) == pytest.approx(50.0)


def test_median_moves_smoothly_across_a_gap():
    # Two modes, 10 and 100; shifting one sample across the middle
    # moves the plain median by the whole gap, this estimate by little.
    low = [10.0] * 49 + [100.0] * 51
    high = [10.0] * 51 + [100.0] * 49
    assert statistics.median(low) - statistics.median(high) == 90.0
    assert 0 < median(low) - median(high) < 30.0


def test_set_agreement_is_two_sided():
    from perfbench.prove import agreement

    def summary(value):
        return {"ops_per_s": {"median": value}}

    bounds = {"ops_per_s": 0.25}
    slower = agreement(summary(10.0), summary(7.0), bounds)["ops_per_s"]
    faster = agreement(summary(10.0), summary(14.0), bounds)["ops_per_s"]
    close = agreement(summary(10.0), summary(11.0), bounds)["ops_per_s"]
    assert not slower["within"] and not faster["within"]
    assert faster["gap"] == pytest.approx(0.4)
    assert close["within"] and close["gap"] == pytest.approx(0.1)
