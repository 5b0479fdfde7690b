"""The percentile rule and the regression verdicts on fixed arrays."""

import pytest

from bench import stats


@pytest.mark.parametrize(
    ("n", "pct"), [(40, 75), (24, 58), (21, 52), (20, 50), (3, 50), (1, 50)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


@pytest.mark.parametrize("n", [24, 40, 100])
def test_tail_value_has_ten_samples_beyond_it(n):
    values = [float(i) for i in range(1, n + 1)]
    value, _ = stats.tail(values)
    assert sum(v > value for v in values) == 10


def test_tail_of_few_samples_is_the_median():
    assert stats.tail([1.0, 2.0, 3.0, 10.0]) == (2.5, 50)


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_verdict_ok_within_bound():
    change = [v * 1.05 for v in STEADY]
    assert stats.verdict(STEADY, change, better="lower", bound=0.10) == "ok"


def test_verdict_worse_beyond_bound():
    change = [v * 1.20 for v in STEADY]
    assert stats.verdict(STEADY, change, better="lower", bound=0.10) == "worse"
    assert stats.verdict(change, STEADY, better="higher", bound=0.10) == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.75, 1.25, 1.0]
    change = [v * 1.02 for v in noisy]
    assert stats.verdict(noisy, change, better="lower", bound=0.10) == "unresolved"


def test_noisy_change_that_always_reads_better_is_ok():
    noisy = [1.5, 2.5, 1.6, 2.4, 2.0, 1.8, 2.2, 1.55, 2.45, 2.0]
    faster = [v / 2 for v in noisy]
    assert stats.verdict(noisy, faster, better="lower", bound=0.10) == "ok"
