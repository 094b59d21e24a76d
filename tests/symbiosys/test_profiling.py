"""Unit and property tests for the profile stores."""

import pytest
from hypothesis import given, strategies as st

from repro.symbiosys import IntervalStats, ProfileKey, ProfileStore


def test_interval_stats_streaming():
    s = IntervalStats()
    for v in (1.0, 3.0, 2.0):
        s.add(v)
    assert s.count == 3
    assert s.total == pytest.approx(6.0)
    assert s.mean == pytest.approx(2.0)
    assert s.minimum == 1.0
    assert s.maximum == 3.0


def test_interval_stats_empty_mean():
    assert IntervalStats().mean == 0.0


def test_interval_stats_merge():
    a = IntervalStats()
    b = IntervalStats()
    for v in (1.0, 2.0):
        a.add(v)
    for v in (10.0, 20.0):
        b.add(v)
    a.merge(b)
    assert a.count == 4
    assert a.total == pytest.approx(33.0)
    assert a.minimum == 1.0
    assert a.maximum == 20.0


def test_store_add_and_get():
    store = ProfileStore()
    key = ProfileKey(callpath=0xAB, origin="cli", target="svr")
    store.add(key, "origin_execution_time", 0.5)
    store.add(key, "origin_execution_time", 1.5)
    stats = store.get(key, "origin_execution_time")
    assert stats.count == 2
    assert stats.total == pytest.approx(2.0)


def test_store_unknown_interval_rejected():
    store = ProfileStore()
    key = ProfileKey(callpath=1, origin="a", target="b")
    with pytest.raises(ValueError):
        store.add(key, "not_an_interval", 1.0)


_NAMES = st.sampled_from(
    ["origin_execution_time", "target_handler_time", "bulk_transfer_time"]
)


@given(batches=st.lists(
    st.lists(st.tuples(_NAMES, st.floats(0, 1e3, allow_nan=False)), max_size=5),
    max_size=40,
))
def test_store_add_many_equals_repeated_add(batches):
    """One ``add_many`` per batch leaves the same counts, totals, extremes,
    reservoirs and interval order as one ``add`` per pair."""
    key = ProfileKey(callpath=7, origin="a", target="b")
    one, many = ProfileStore(), ProfileStore()
    for batch in batches:
        for name, value in batch:
            one.add(key, name, value)
        many.add_many(key, batch)
    assert len(one) == len(many)
    want, got = one.intervals_for(key), many.intervals_for(key)
    assert list(want) == list(got)
    for name in want:
        assert want[name] == got[name]


def test_store_add_many_rejects_unknown_interval_before_adding():
    store = ProfileStore()
    key = ProfileKey(callpath=1, origin="a", target="b")
    with pytest.raises(ValueError, match="not_an_interval"):
        store.add_many(
            key, [("origin_execution_time", 1.0), ("not_an_interval", 1.0)]
        )
    assert len(store) == 0


def test_store_separate_keys():
    store = ProfileStore()
    k1 = ProfileKey(callpath=1, origin="a", target="b")
    k2 = ProfileKey(callpath=1, origin="a", target="c")
    store.add(k1, "origin_execution_time", 1.0)
    store.add(k2, "origin_execution_time", 2.0)
    assert len(store) == 2
    assert store.get(k1, "origin_execution_time").total == 1.0
    assert store.get(k2, "origin_execution_time").total == 2.0


def test_store_get_missing_returns_none():
    store = ProfileStore()
    key = ProfileKey(callpath=1, origin="a", target="b")
    assert store.get(key, "origin_execution_time") is None


def test_store_merge_disjoint_and_overlapping():
    s1 = ProfileStore()
    s2 = ProfileStore()
    shared = ProfileKey(callpath=1, origin="a", target="b")
    only2 = ProfileKey(callpath=2, origin="a", target="b")
    s1.add(shared, "origin_execution_time", 1.0)
    s2.add(shared, "origin_execution_time", 2.0)
    s2.add(only2, "target_handler_time", 0.25)
    s1.merge(s2)
    assert s1.get(shared, "origin_execution_time").total == pytest.approx(3.0)
    assert s1.get(only2, "target_handler_time").total == pytest.approx(0.25)
    # Merge must copy, not alias, the source stats.
    s2.add(only2, "target_handler_time", 1.0)
    assert s1.get(only2, "target_handler_time").total == pytest.approx(0.25)


def test_total_over_interval():
    store = ProfileStore()
    for i in range(4):
        key = ProfileKey(callpath=i, origin="a", target="b")
        store.add(key, "origin_execution_time", 1.0)
        store.add(key, "target_handler_time", 0.5)
    assert store.total_over_interval("origin_execution_time") == pytest.approx(4.0)
    assert store.total_over_interval("target_handler_time") == pytest.approx(2.0)


@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_stats_match_reference(values):
    s = IntervalStats()
    for v in values:
        s.add(v)
    assert s.count == len(values)
    assert s.total == pytest.approx(sum(values))
    assert s.minimum == min(values)
    assert s.maximum == max(values)
    assert s.mean == pytest.approx(sum(values) / len(values))


@given(
    st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=20),
)
def test_property_merge_equals_combined(xs, ys):
    a = IntervalStats()
    b = IntervalStats()
    combined = IntervalStats()
    for v in xs:
        a.add(v)
        combined.add(v)
    for v in ys:
        b.add(v)
        combined.add(v)
    a.merge(b)
    assert a.count == combined.count
    assert a.total == pytest.approx(combined.total)
    assert a.minimum == combined.minimum
    assert a.maximum == combined.maximum
