"""Shared JSON scalar conventions.

Rationals travel as exact strings ``"p/q"``.  Integers travel as JSON numbers
when they fit in a double-precision mantissa, and as ``"int:<decimal>"``
strings beyond that, so arbitrary precision survives any JSON parser.  Digits
are ASCII, with an optional sign in front.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import SizeLimit

INT_SAFE = 2**53
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _int_text(value: int) -> str:
    """Decimal text of an integer; SizeLimit when it has more digits than
    Python converts (``sys.get_int_max_str_digits``)."""
    try:
        return str(value)
    except ValueError as exc:
        raise SizeLimit(
            f"an integer of {value.bit_length()} bits has too many digits to print"
        ) from exc


def encode_int(value: int):
    if -INT_SAFE < value < INT_SAFE:
        return int(value)
    return f"int:{_int_text(value)}"


def decode_int(obj) -> int:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, str) and obj.startswith("int:") and _INTEGER.fullmatch(obj, 4):
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
    """A JSON integer, ``"int:<digits>"``, ``"p/q"`` or ``"p"``; no decimal
    point, exponent, space or underscore."""
    if isinstance(obj, str) and not obj.startswith("int:"):
        m = _RATIONAL.fullmatch(obj)
        if m is None:
            raise ValueError(f'expected a rational "p/q" or "p", got {obj!r}')
        num, den = int(m[1]), int(m[2] or 1)
        if not den:
            raise ValueError(f"rational {obj!r} has a zero denominator")
        return Fraction(num, den)
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"expected a rational, got {obj!r}")
    return Fraction(decode_int(obj))


def dumps(payload) -> str:
    """Serialize with a fixed layout so output is byte-stable across runs."""
    return json.dumps(payload, indent=2)
