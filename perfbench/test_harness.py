"""Tests of the benchmark's own arithmetic: the tail-percentile rule,
self-time subtraction, failure counting and the spread measure.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import statistics

import pytest

import harness


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n, rank", [(100, 90), (30, 20), (21, 11), (20, 10),
                                     (19, 10), (11, 6), (10, 5), (1, 1)])
def test_tail_rank_leaves_ten_beyond_and_never_drops_below_median(n, rank):
    assert harness.tail_rank(n) == rank


def test_tail_percentile_value_and_label():
    values = list(range(1, 101))           # 1..100, shuffled order must not matter
    values.reverse()
    value, pct = harness.tail_percentile(values)
    assert value == 90                      # ten samples (91..100) lie beyond it
    assert pct == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_percentile_small_sample_falls_back_to_median():
    value, pct = harness.tail_percentile([5.0, 1.0, 3.0])
    assert value == 3.0
    assert pct == pytest.approx(200 / 3)


def test_tail_rank_rejects_empty():
    with pytest.raises(ValueError):
        harness.tail_rank(0)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    tr.enter("render")             # render: 10 s in all
    clock.advance(1.0)
    tr.enter("light")              # light: 6 s, of which 4 s in mlp
    clock.advance(2.0)
    tr.enter("mlp")
    clock.advance(4.0)
    tr.exit()
    tr.exit()
    clock.advance(1.0)
    tr.enter("brdf")               # brdf: 2 s leaf
    clock.advance(2.0)
    tr.exit()
    tr.exit()
    assert tr.busy == {"render": 10.0, "light": 6.0, "mlp": 4.0, "brdf": 2.0}
    assert tr.self_time == {"render": 2.0, "light": 2.0, "mlp": 4.0, "brdf": 2.0}
    assert sum(tr.self_time.values()) == tr.busy["render"]


def test_self_time_accumulates_over_repeated_calls():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    for _ in range(3):
        tr.enter("op")
        tr.enter("leaf")
        clock.advance(0.5)
        tr.exit()
        clock.advance(0.25)
        tr.exit()
    assert tr.calls == {"op": 3, "leaf": 3}
    assert tr.self_time["op"] == pytest.approx(0.75)
    assert tr.busy["op"] == pytest.approx(2.25)


def test_snapshot_delta_isolates_one_operation():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    tr.enter("a")
    clock.advance(1.0)
    tr.exit()
    tr.add("lanes", 7)
    before = tr.snapshot()
    tr.enter("a")
    clock.advance(3.0)
    tr.exit()
    tr.add("lanes", 5)
    tr.add("rays", 2)
    d = harness.snapshot_delta(tr.snapshot(), before)
    assert d["calls"] == {"a": 1}
    assert d["busy"] == {"a": 3.0}
    assert d["counts"] == {"lanes": 5, "rays": 2}


# -- failures and spread -----------------------------------------------------


def test_count_failures_and_fail_ratio():
    attempted, failed = harness.count_failures([True, False, True, False, True])
    assert (attempted, failed) == (5, 2)
    assert harness.fail_ratio(failed, attempted) == 0.4
    assert harness.fail_ratio(0, 3) == 0.0


@pytest.mark.parametrize("failed, attempted", [(1, 0), (-1, 2), (3, 2)])
def test_fail_ratio_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        harness.fail_ratio(failed, attempted)


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)
