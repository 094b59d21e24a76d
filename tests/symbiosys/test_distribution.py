"""Tests for interval-distribution tracking (reservoir + percentiles)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbiosys import profiling
from repro.symbiosys.profiling import (
    INTERVALS,
    RESERVOIR_SIZE,
    IntervalStats,
    ProfileKey,
    ProfileStore,
)


def test_small_sample_percentiles_exact():
    s = IntervalStats()
    for v in range(1, 11):  # 1..10
        s.add(float(v))
    assert s.percentile(0) == 1.0
    assert s.percentile(100) == 10.0
    assert 4.0 <= s.percentile(50) <= 7.0


def test_reservoir_bounded():
    s = IntervalStats()
    for v in range(10_000):
        s.add(float(v))
    assert len(s.samples()) == RESERVOIR_SIZE
    assert s.count == 10_000


def test_percentile_empty_and_bounds():
    s = IntervalStats()
    assert s.percentile(50) == 0.0
    with pytest.raises(ValueError):
        s.percentile(-1)
    with pytest.raises(ValueError):
        s.percentile(101)


def test_extremes_always_exact():
    s = IntervalStats()
    for v in range(100_000):
        s.add(float(v))
    assert s.percentile(0) == 0.0
    assert s.percentile(100) == 99_999.0


def test_reservoir_is_deterministic():
    a = IntervalStats()
    b = IntervalStats()
    for v in range(1000):
        a.add(float(v))
        b.add(float(v))
    assert sorted(a.samples()) == sorted(b.samples())


def test_percentile_estimate_reasonable_on_uniform():
    s = IntervalStats()
    for v in range(100_000):
        s.add(float(v))
    # Uniform 0..1e5: the reservoir median should land near 5e4 (a wide
    # tolerance -- 64 samples).
    assert 2e4 < s.percentile(50) < 8e4
    assert s.percentile(90) > s.percentile(50) > s.percentile(10)


def test_merge_combines_reservoirs():
    a = IntervalStats()
    b = IntervalStats()
    for v in range(10):
        a.add(float(v))
    for v in range(1000, 1010):
        b.add(float(v))
    a.merge(b)
    samples = a.samples()
    assert len(samples) == 20
    assert any(v < 100 for v in samples)
    assert any(v >= 1000 for v in samples)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=50)
def test_property_reservoir_subset_of_inputs(values):
    s = IntervalStats()
    for v in values:
        s.add(v)
    assert len(s.samples()) == min(len(values), RESERVOIR_SIZE)
    for v in s.samples():
        assert v in values


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=50)
def test_property_percentiles_monotone(values):
    s = IntervalStats()
    for v in values:
        s.add(v)
    qs = [0, 10, 25, 50, 75, 90, 100]
    ps = [s.percentile(q) for q in qs]
    assert ps == sorted(ps)
    assert ps[0] == min(values)
    assert ps[-1] == max(values)


# -- brute-force reservoir oracle ------------------------------------------------


class _Model:
    """Brute-force mirror of one IntervalStats: every (priority, value)
    sample it has absorbed, plus the summary fields computed with the
    same float operations in the same order."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples = []

    def add(self, value):
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.samples.append((profiling._slot_priority(self.count), value))

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.samples = self.samples + other.samples

    def check(self, stats):
        assert stats.count == self.count
        assert stats.total == self.total
        assert stats.minimum == self.minimum
        assert stats.maximum == self.maximum
        want = sorted(self.samples)[-RESERVOIR_SIZE:]
        assert sorted(stats._reservoir) == want


_POOL = 3
_VALUES = st.floats(-1e6, 1e6, allow_nan=False)
_SLOT = st.integers(0, _POOL - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _SLOT, _VALUES),
        st.tuples(
            st.just("add_many"),
            st.lists(st.tuples(_SLOT, _VALUES), max_size=12),
        ),
        st.tuples(st.just("merge"), _SLOT, _SLOT),
    ),
    max_size=60,
)


def _run_ops(ops):
    key = ProfileKey(callpath=1, origin="a", target="b")
    names = INTERVALS[:_POOL]
    pool = [IntervalStats() for _ in range(_POOL)]
    store = ProfileStore()
    store._data[key] = dict(zip(names, pool))
    models = [_Model() for _ in range(_POOL)]
    for op in ops:
        if op[0] == "add":
            _, i, value = op
            pool[i].add(value)
            models[i].add(value)
        elif op[0] == "add_many":
            store.add_many(key, [(names[i], v) for i, v in op[1]])
            for i, v in op[1]:
                models[i].add(v)
        else:
            _, i, j = op
            pool[i].merge(pool[j])
            models[i].merge(models[j])
    for stats, model in zip(pool, models):
        model.check(stats)


@given(_OPS)
@settings(max_examples=150, deadline=None)
def test_property_reservoir_matches_brute_force(ops):
    """After any add / add_many / merge sequence, every stats object holds
    exactly the top-RESERVOIR_SIZE (priority, value) samples, with the
    brute-force count, total, min and max."""
    _run_ops(ops)


@given(_OPS)
@settings(max_examples=150, deadline=None)
def test_property_reservoir_matches_brute_force_past_table_bound(ops):
    """The same oracle with the table bound patched down to 8, so most
    sequence numbers (merges double counts) fall past it and take the
    computed path."""
    with mock.patch.object(profiling, "PRIORITY_TABLE_BOUND", 8):
        _run_ops(ops)


def test_priority_table_matches_splitmix():
    bound = profiling.PRIORITY_TABLE_BOUND
    assert len(profiling._PRIORITIES) == bound
    assert list(profiling._PRIORITIES) == [
        profiling._slot_priority(seq) for seq in range(bound)
    ]


def test_long_stream_past_table_bound_matches_brute_force():
    stats = IntervalStats()
    model = _Model()
    for v in range(profiling.PRIORITY_TABLE_BOUND + 500):
        stats.add(float(v % 977))
        model.add(float(v % 977))
    model.check(stats)
