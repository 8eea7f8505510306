"""The percentile rule behind cert_tail_s."""

import pytest

from run import latency_metrics, tail_percentile


def above(n, p):
    k = max(1, -(-p * n // 100))  # nearest rank, 1-based
    return n - k


@pytest.mark.parametrize("n", range(11, 400))
def test_highest_percentile_with_ten_samples_above(n):
    p, rank = tail_percentile(n)
    assert n - rank - 1 >= 10
    assert above(n, p) >= 10
    if p < 100:
        assert above(n, p + 1) < 10


def test_known_points():
    assert tail_percentile(20) == (50, 9)
    assert tail_percentile(100) == (90, 89)
    assert tail_percentile(1000) == (99, 989)
    assert tail_percentile(10) is None


def test_latency_metrics_picks_the_ranked_sample():
    xs = [float(i) for i in range(100, 0, -1)]  # unsorted input
    p50, tail, pct = latency_metrics(xs)
    assert p50 == 50.5
    assert (tail, pct) == (90.0, 90)
    assert sum(x > tail for x in xs) == 10
