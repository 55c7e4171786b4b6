"""Scalar JSON conventions: "p/q" rationals, "int:..." big-integer fallback."""
from fractions import Fraction

import pytest

from logq import FixedPointTerm
from logq.jsonio import decode_fraction, decode_int, dumps, encode_fraction, encode_int


class TestIntCodec:
    def test_small_ints_stay_numbers(self):
        assert encode_int(42) == 42
        assert encode_int(-(2**52)) == -(2**52)

    def test_big_ints_become_strings(self):
        v = 2**64
        assert encode_int(v) == f"int:{v}"
        assert decode_int(encode_int(v)) == v

    def test_decode_accepts_plain_ints(self):
        assert decode_int(-7) == -7

    def test_rejects_bool_and_float(self):
        with pytest.raises(ValueError):
            decode_int(True)
        with pytest.raises(ValueError):
            decode_int(1.5)


class TestFractionCodec:
    def test_canonical_form(self):
        assert encode_fraction(Fraction(2, 4)) == "1/2"
        assert encode_fraction(Fraction(-3)) == "-3/1"

    def test_decode_variants(self):
        assert decode_fraction("3/4") == Fraction(3, 4)
        assert decode_fraction("5") == Fraction(5)
        assert decode_fraction(7) == Fraction(7)
        assert decode_fraction("int:9") == Fraction(9)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            decode_fraction(0.25)

    def test_zero_denominator_is_value_error(self):
        for text in ("1/0", "0/0", "-3/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                decode_fraction(text)


class TestStability:
    def test_dumps_is_deterministic(self):
        payload = {"b": [1, 2], "a": {"x": "1/2"}}
        assert dumps(payload) == dumps(payload)

    def test_fixed_point_term_round_trip(self):
        t = FixedPointTerm(-1, (2, -1), ((1, 0), (0, -3)))
        assert FixedPointTerm.from_jsonable(t.to_jsonable()) == t
