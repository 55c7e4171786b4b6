"""Scalar JSON conventions: "p/q" rationals, "int:..." big-integer fallback."""
from fractions import Fraction

import pytest

from logq import FixedPointTerm, SizeLimit, jsonio
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

    @pytest.mark.parametrize("text", ["int: 5", "int:1_000", "int:\u0663", "int:5.0", "int:"])
    def test_rejects_undocumented_digits(self, text):
        with pytest.raises(ValueError, match="expected an integer"):
            decode_int(text)

    def test_unprintable_integer_is_size_limit(self):
        big = 10**5000
        with pytest.raises(SizeLimit, match="too many digits to print"):
            encode_int(big)
        with pytest.raises(SizeLimit):
            jsonio._int_text(-big)
        assert jsonio._int_text(-(10**4299)) == str(-(10**4299))


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

    def test_signs_and_ascii_digits(self):
        assert decode_fraction("+3/4") == Fraction(3, 4)
        assert decode_fraction("-6/04") == Fraction(-3, 2)
        assert decode_fraction("int:-12") == Fraction(-12)
        assert decode_fraction("int:+12") == Fraction(12)

    @pytest.mark.parametrize(
        "text",
        ["1e10000000", "1e5000", "1E3", "1.5", ".5", "1/2.0", " 3/4", "3/4 ", "3 / 4", "1_000",
         "\u0663", "3/-4", "3/+4", "+", "", "1/", "/2", "0x10", "inf", "nan", "int:1_0",
         "int: 5", "int:1e3", "int:"],
    )
    def test_undocumented_notation_rejected(self, text):
        with pytest.raises(ValueError, match="expected a rational|expected an integer"):
            decode_fraction(text)


class TestStability:
    def test_dumps_is_deterministic(self):
        payload = {"b": [1, 2], "a": {"x": "1/2"}}
        assert dumps(payload) == dumps(payload)

    def test_fixed_point_term_round_trip(self):
        t = FixedPointTerm(-1, (2, -1), ((1, 0), (0, -3)))
        assert FixedPointTerm.from_jsonable(t.to_jsonable()) == t
