"""Serialization cost model and payload size estimation.

Real Mercury spends CPU encoding RPC metadata with a proc-based XDR-like
encoder; the time is roughly affine in the encoded size.  The simulated
(de)serializers charge the calling ULT ``fixed + per_byte * nbytes``
seconds of compute, which is what the ``input_serialization_time`` /
``input_deserialization_time`` / ``output_serialization_time`` handle
PVARs report.

``estimate_size`` gives a deterministic encoded-size estimate for the
plain-Python payloads the services exchange, so callers don't have to
hand-count bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..config import Replaceable

__all__ = ["SerializationModel", "estimate_size"]


@dataclass(frozen=True, kw_only=True)
class SerializationModel(Replaceable):
    """Affine cost model for encode/decode of RPC metadata."""

    ser_fixed: float = 0.3e-6
    ser_per_byte: float = 0.25e-9
    deser_fixed: float = 0.35e-6
    deser_per_byte: float = 0.3e-9

    def __post_init__(self) -> None:
        for field_name in ("ser_fixed", "ser_per_byte", "deser_fixed", "deser_per_byte"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def ser_time(self, nbytes: int) -> float:
        """CPU time to serialize ``nbytes`` of metadata."""
        return self.ser_fixed + self.ser_per_byte * nbytes

    def deser_time(self, nbytes: int) -> float:
        """CPU time to deserialize ``nbytes`` of metadata."""
        return self.deser_fixed + self.deser_per_byte * nbytes


_OVERHEAD_PER_ITEM = 8  # length/tag prefix, like an XDR 4+4
_NULL_SIZE = 4

#: Encoded size of the fixed-size scalars, keyed by exact type.
_SCALAR_SIZE: dict[type, int] = {
    type(None): _NULL_SIZE,
    bool: _NULL_SIZE,
    int: 8,
    float: 8,
}


def estimate_size(payload: Any) -> int:
    """Deterministic encoded-size estimate (bytes) for an RPC payload.

    Supports the payload shapes used across the services: None, bool,
    int, float, str, bytes, and (possibly nested) list/tuple/dict.  A
    type that defines ``__encoded_size__`` is counted as that many bytes.

    The built-in types are dispatched on their exact type; anything else
    (subclasses, ``__encoded_size__`` carriers, unsupported types) takes
    the generic path, which gives the same sizes.
    """
    cls = type(payload)
    size = _SCALAR_SIZE.get(cls)
    if size is not None:
        return size
    sizer = _SIZERS.get(cls)
    if sizer is not None:
        return sizer(payload)
    return _generic_size(payload)


def _str_size(s: str) -> int:
    return _OVERHEAD_PER_ITEM + (len(s) if s.isascii() else len(s.encode("utf-8")))


def _bytes_size(b: bytes) -> int:
    return _OVERHEAD_PER_ITEM + len(b)


def _elements_size(items: Iterable[Any]) -> int:
    """Summed size of ``items``, making no call for a scalar or an ASCII
    ``str``."""
    total = 0
    scalar = _SCALAR_SIZE.get
    for v in items:
        cls = type(v)
        size = scalar(cls)
        if size is None:
            if cls is str and v.isascii():
                size = _OVERHEAD_PER_ITEM + len(v)
            else:
                size = estimate_size(v)
        total += size
    return total


def _sequence_size(seq: list | tuple) -> int:
    return _OVERHEAD_PER_ITEM + _elements_size(seq)


def _dict_size(d: dict) -> int:
    return _OVERHEAD_PER_ITEM + _elements_size(d) + _elements_size(d.values())


_SIZERS = {
    str: _str_size,
    bytes: _bytes_size,
    list: _sequence_size,
    tuple: _sequence_size,
    dict: _dict_size,
}


def _generic_size(payload: Any) -> int:
    """The ``isinstance`` path for every type without an exact-type entry."""
    encoded = getattr(type(payload), "__encoded_size__", None)
    if encoded is not None:
        return int(encoded)
    if isinstance(payload, bool):
        return _NULL_SIZE
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, bytes):
        return _OVERHEAD_PER_ITEM + len(payload)
    if isinstance(payload, str):
        return _OVERHEAD_PER_ITEM + len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return _OVERHEAD_PER_ITEM + sum(estimate_size(v) for v in payload)
    if isinstance(payload, dict):
        return _OVERHEAD_PER_ITEM + sum(
            estimate_size(k) + estimate_size(v) for k, v in payload.items()
        )
    raise TypeError(f"cannot estimate encoded size of {type(payload).__name__}")
