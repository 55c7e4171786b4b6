"""Shared JSON scalar conventions.

Rationals travel as exact strings ``"p/q"``.  Integers travel as JSON numbers
when they fit in a double-precision mantissa, and as ``"int:<decimal>"``
strings beyond that, so arbitrary precision survives any JSON parser.
"""
from __future__ import annotations

import json
from fractions import Fraction

INT_SAFE = 2**53


def encode_int(value: int):
    if -INT_SAFE < value < INT_SAFE:
        return int(value)
    return f"int:{value}"


def decode_int(obj) -> int:
    if isinstance(obj, bool):
        raise ValueError(f"expected an integer, got {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str) and obj.startswith("int:"):
        return int(obj[4:])
    raise ValueError(f"expected an integer, got {obj!r}")


def decode_list(obj) -> list:
    """A JSON list, passed through; strings and objects are not sequences here."""
    if not isinstance(obj, list):
        raise ValueError(f"expected a list, got {obj!r}")
    return obj


def encode_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decode_fraction(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ValueError(f"expected a rational, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if obj.startswith("int:"):
            return Fraction(int(obj[4:]))
        try:
            return Fraction(obj)  # accepts "p/q" and plain "p"
        except ZeroDivisionError as exc:
            raise ValueError(f"rational {obj!r} has a zero denominator") from exc
    raise ValueError(f"expected a rational, got {obj!r}")


def dumps(payload) -> str:
    """Serialize with a fixed layout so output is byte-stable across runs."""
    return json.dumps(payload, indent=2)
