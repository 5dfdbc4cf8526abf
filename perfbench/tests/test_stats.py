import pytest

from stats import beyond, percentile, tail_percentile


def test_p90_needs_100_samples():
    assert beyond(99, 90.0) == 9
    assert beyond(100, 90.0) == 10
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0


@pytest.mark.parametrize("n, expect", [(10, None), (100, 90.0), (999, 90.0), (1000, 99.0),
                                       (9999, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_beyond(n, expect):
    assert tail_percentile(n) == expect
    if expect is not None:
        assert beyond(n, expect) >= 10


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile([7.0], 90.0) == 7.0
    assert percentile([1, 2], 50.0) == 1
