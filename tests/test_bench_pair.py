"""The verdict rule of tools/bench_pair.py, on synthetic runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pair

# ten parent runs with quartiles 102.25 and 106.75 around a median of 104.5
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("change, better, bound, expected", [
    # lower is better: 12 ms less in every pair, against a 4.5 ms spread
    ([p - 12 for p in PARENT], "lower", 0.2, "gain"),
    # the same runs when higher is better: 11.5 % worse, within 20 %
    ([p - 12 for p in PARENT], "higher", 0.2, "within bound"),
    ([p - 12 for p in PARENT], "higher", 0.1, "worse"),
    # won 8 of 10 pairs: no gain, however large the difference
    ([p - 12 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]], "lower", 0.2,
     "within bound"),
    # won every pair, by less than the parent's quartile distance
    ([p - 1 for p in PARENT], "lower", 0.2, "within bound"),
    # a parent spread (4.3 %) wider than the bound (1 %): unresolved
    ([p + 0.5 for p in PARENT], "lower", 0.01, "unresolved"),
    # worse by more than the bound, however wide the spread
    ([p - 10 for p in PARENT], "higher", 0.01, "worse"),
], ids=["gain", "higher-is-better-within", "higher-is-better-worse",
        "too-few-wins", "inside-the-spread", "unresolved", "worse-beats-unresolved"])
def test_verdict(change, better, bound, expected):
    assert bench_pair.verdict(PARENT, change, better, bound) == expected


def test_every_change_run_better_resolves_a_wide_spread():
    parent, change = PARENT[:5], [110.0, 111.0, 112.0, 113.0, 114.0]
    assert bench_pair.verdict(parent, change, "higher", 0.01) == "within bound"
    assert bench_pair.verdict(parent, change[:4] + [101.0], "higher", 0.01) \
        == "unresolved"


def test_fewer_than_ten_pairs_never_show_a_gain():
    change = [p - 50 for p in PARENT]
    assert bench_pair.verdict(PARENT, change, "lower", 0.2) == "gain"
    assert bench_pair.verdict(PARENT[:9], change[:9], "lower", 0.2) \
        == "within bound"


def test_a_larger_failed_share_shows_no_gain():
    change = [p - 12 for p in PARENT]
    assert bench_pair.verdict(PARENT, change, "lower", 0.2, (0.01, 0.01)) == "gain"
    assert bench_pair.verdict(PARENT, change, "lower", 0.2, (0.01, 0.02)) \
        == "within bound"
    results = [{"failed": 1, "attempted": 40}, {"failed": 0, "attempted": 60}]
    assert bench_pair.failed_share(results) == 0.01


def test_ratio_interval_of_constant_ratios_is_that_ratio():
    ratio, lo, hi = bench_pair.ratio_interval(PARENT, [0.9 * p for p in PARENT])
    assert ratio == pytest.approx(0.9) and lo == pytest.approx(0.9) \
        and hi == pytest.approx(0.9)
    ratio, lo, hi = bench_pair.ratio_interval(PARENT, PARENT[::-1])
    assert lo <= ratio <= hi and lo < 1 < hi
