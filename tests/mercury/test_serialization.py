"""Tests for the serialization cost model and size estimation."""

import enum
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mercury import BulkRef, SerializationModel, estimate_size


def test_ser_time_affine():
    m = SerializationModel(ser_fixed=1e-6, ser_per_byte=1e-9)
    assert m.ser_time(0) == pytest.approx(1e-6)
    assert m.ser_time(1000) == pytest.approx(1e-6 + 1e-6)


def test_deser_time_affine():
    m = SerializationModel(deser_fixed=2e-6, deser_per_byte=2e-9)
    assert m.deser_time(500) == pytest.approx(2e-6 + 1e-6)


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        SerializationModel(ser_fixed=-1.0)
    with pytest.raises(ValueError):
        SerializationModel(deser_per_byte=-1e-9)


def test_estimate_size_primitives():
    assert estimate_size(None) == 4
    assert estimate_size(True) == 4
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size(b"abc") == 8 + 3
    assert estimate_size("abc") == 8 + 3


def test_estimate_size_unicode_uses_utf8():
    assert estimate_size("é") == 8 + 2


def test_estimate_size_containers():
    assert estimate_size([1, 2]) == 8 + 16
    assert estimate_size((1, 2)) == 8 + 16
    assert estimate_size({"k": 1}) == 8 + (8 + 1) + 8


def test_estimate_size_nested():
    payload = {"rows": [{"id": 1, "val": "x"}] * 3}
    assert estimate_size(payload) > 3 * estimate_size({"id": 1, "val": "x"})


def test_estimate_size_unsupported_type():
    with pytest.raises(TypeError):
        estimate_size(object())


@given(st.binary(max_size=4096))
def test_bytes_size_monotone_in_length(data):
    assert estimate_size(data) == 8 + len(data)


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**62), 2**62),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
            st.binary(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=5), children, max_size=5),
        ),
        max_leaves=20,
    )
)
def test_estimate_size_always_positive_and_deterministic(payload):
    s1 = estimate_size(payload)
    s2 = estimate_size(payload)
    assert s1 == s2
    assert s1 >= 4


@given(st.lists(st.integers(0, 100), max_size=30))
def test_list_size_is_sum_of_parts_plus_overhead(items):
    assert estimate_size(items) == 8 + sum(estimate_size(i) for i in items)


def test_bulk_ref_counts_as_descriptor_only():
    """A BulkRef rides as a 24-byte descriptor regardless of payload --
    the split between RPC metadata and bulk data."""
    from repro.mercury import BulkRef

    big = BulkRef(b"x" * 1_000_000)
    assert big.nbytes == 8 + 1_000_000
    assert estimate_size(big) == 24
    assert estimate_size({"bulk": big}) == 8 + (8 + 4) + 24


def test_bulk_ref_explicit_size_overrides_estimate():
    from repro.mercury import BulkRef

    ref = BulkRef(b"abc", 999)
    assert ref.nbytes == 999
    assert BulkRef(b"abc", 0).nbytes == 0


# -- differential test against the isinstance-chain estimator -------------------


def reference_size(payload):
    """The estimator before exact-type dispatch: one ``__encoded_size__``
    lookup and ``isinstance`` chain per node.  Kept as the oracle that the
    fast path must match byte for byte."""
    if payload is None:
        return 4
    encoded = getattr(type(payload), "__encoded_size__", None)
    if encoded is not None:
        return int(encoded)
    if isinstance(payload, bool):
        return 4
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return 8 + len(payload)
    if isinstance(payload, str):
        return 8 + len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return 8 + sum(reference_size(v) for v in payload)
    if isinstance(payload, dict):
        return 8 + sum(reference_size(k) + reference_size(v) for k, v in payload.items())
    raise TypeError(f"cannot estimate encoded size of {type(payload).__name__}")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    pass


class _Doc(dict):
    pass


_text = st.text(max_size=12) | st.sampled_from(["", "é", "日本", "a\x00b", "plain"])

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    _text,
    st.binary(max_size=12),
    st.sampled_from(list(_Level)),
    _text.map(_Name),
    st.floats(allow_nan=False).map(np.float64),
)

_keys = st.one_of(
    _text,
    st.integers(-1000, 1000),
    st.binary(max_size=6),
    st.none(),
    st.booleans(),
    st.sampled_from(list(_Level)),
    _text.map(_Name),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        st.dictionaries(_keys, children, max_size=5).map(_Doc),
        st.dictionaries(_text, children, max_size=5).map(OrderedDict),
        children.map(BulkRef),
    )


_payloads = st.recursive(_scalars, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_payloads)
@example(["", "é", "日本", True, False, None, 1.5, b""])
@example(("abc", ("é", [True])))
@example({"é": "日本", 1: b"", b"k": None, None: (True,), True: False})
@example({_Name("k"): _Level.HIGH, "x": _Name("é"), "f": np.float64(0.5)})
@example(_Doc(a=OrderedDict(b=[BulkRef({"c": "é"})])))
def test_estimate_size_matches_reference(payload):
    assert estimate_size(payload) == reference_size(payload)


@pytest.mark.parametrize(
    "payload",
    [object(), np.int64(3), [1, object()], {"k": np.int64(3)}, {"k": (None, b"", object())}],
)
def test_estimate_size_rejects_what_reference_rejects(payload):
    with pytest.raises(TypeError) as expected:
        reference_size(payload)
    with pytest.raises(TypeError) as got:
        estimate_size(payload)
    assert str(got.value) == str(expected.value)
