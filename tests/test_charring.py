"""Character-ring arithmetic tests.

Derived expectations are computed by independent oracles: geometric long
division for rational quotients, multiply-back checks for exact divisions,
and re-expansion for SU(2) decompositions.
"""
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logq import (
    Character,
    FixedPointTerm,
    LaurentPoly,
    NotFinite,
    NotSU2Character,
    RankMismatch,
    SizeLimit,
    SU2Char,
    indexcalc,
    rational_to_laurent,
    su2_decompose,
    weyl_char,
)


def rank1(mapping):
    return Character(1, {(k,): v for k, v in mapping.items()})


def geometric_char(n1, n2):
    """Long-division oracle for (t^n1 - t^n2) / (1 - t) with n1 <= n2."""
    return rank1({j: 1 for j in range(n1, n2)})


class TestCharAdd:
    def test_additive_inverse(self):
        assert rank1({0: 1}) + rank1({0: -1}) == rank1({})

    def test_merge(self):
        assert rank1({0: 1, 1: 1}) + rank1({1: 2}) == rank1({0: 1, 1: 3})

    def test_ab_char_cancels_with_negation(self):
        ab = geometric_char(0, 3)
        assert ab + (-ab) == rank1({})

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            rank1({0: 1}) + Character(2, {(0, 0): 1})

    def test_commutative_associative(self):
        rng = random.Random(11)
        chars = [
            rank1({rng.randrange(-4, 5): rng.choice([-2, -1, 1, 2]) for _ in range(3)})
            for _ in range(12)
        ]
        for a in chars:
            for b in chars:
                assert a + b == b + a
        for a, b, c in zip(chars, chars[1:], chars[2:]):
            assert (a + b) + c == a + (b + c)


class TestCharNegate:
    def test_zero(self):
        assert -rank1({}) == rank1({})

    def test_definition(self):
        assert -rank1({0: 1, 1: 1, 2: 1}) == rank1({0: -1, 1: -1, 2: -1})

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(25):
            c = rank1({rng.randrange(-6, 7): rng.randrange(-3, 4) for _ in range(4)})
            assert -(-c) == c


class TestMultiplicityAndFriends:
    def test_multiplicity_level_one(self):
        assert geometric_char(0, 3).multiplicity((1,)) == 1

    def test_multiplicity_empty(self):
        assert rank1({}).multiplicity((7,)) == 0

    def test_multiplicity_above_top_level(self):
        # Levels past n2 come from point pairs with opposite orientations.
        assert geometric_char(0, 3).multiplicity((5,)) == 0

    def test_multiplicity_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            rank1({0: 1}).multiplicity((0, 0))

    def test_dimension(self):
        assert geometric_char(0, 3).dimension() == 3
        assert rank1({}).dimension() == 0
        assert rank1({0: 2, 1: -1}).dimension() == 1

    def test_invariant_part(self):
        assert geometric_char(0, 3).invariant_part() == 1
        assert rank1({}).invariant_part() == 0
        assert rank1({0: -2}).invariant_part() == -2
        assert Character(2, {(0, 0): 5, (1, 0): 7}).invariant_part() == 5


def fp(sign, mu, weights=()):
    """A rank-1 fixed-point term sign * t^mu / prod(1 - t^w)."""
    return FixedPointTerm(sign, (mu,), [(w,) for w in weights])


def interval_poly(intervals):
    """Oracle for sum over [a, b) of (t^a - t^b) / (1 - t): count each exponent."""
    counts = Counter(e for a, b in intervals for e in range(a, b))
    return LaurentPoly({e: c for e, c in counts.items() if c})


class TestRationalToLaurent:
    def test_one_minus_t_cубed_over_one_minus_t(self):
        terms = [fp(1, 0, (1,)), fp(-1, 3, (1,))]
        assert rational_to_laurent(terms) == LaurentPoly({0: 1, 1: 1, 2: 1})

    def test_empty(self):
        assert rational_to_laurent([]) == LaurentPoly()

    def test_geometric_series_rejected(self):
        with pytest.raises(NotFinite):
            rational_to_laurent([fp(1, 0, (1,))])

    def test_embedding_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            p = LaurentPoly({rng.randrange(-5, 6): rng.randrange(-3, 4) for _ in range(4)})
            # p as denominator-free terms, one per unit of each coefficient
            terms = [
                fp(1 if c > 0 else -1, e) for e, c in p.coeffs.items() for _ in range(abs(c))
            ]
            assert rational_to_laurent(terms) == p

    def test_negation_commutes(self):
        terms = [fp(1, 0, (1,)), fp(-1, 4, (1,)), fp(1, 2, (-2,)), fp(1, -2, (2,))]
        direct = rational_to_laurent(terms)
        assert direct == LaurentPoly({0: 2, 1: 1, 2: 2, 3: 1, -2: 1})
        negated = [FixedPointTerm(-t.sign, t.mu, t.weights) for t in terms]
        assert rational_to_laurent(negated) == -direct

    def test_negative_denominator_weight(self):
        # t^2/(1-t^-2) + t^-2/(1-t^2); multiply-back oracle against weyl_char(2).
        got = rational_to_laurent([fp(1, 2, (-2,)), fp(1, -2, (2,))])
        assert got == weyl_char(2)

    def test_non_integer_quotient_rejected(self):
        # (1 - t^2) / (1 - t)^2 is not a Laurent polynomial
        terms = [fp(1, 0, (1, 1)), fp(-1, 2, (1, 1))]
        with pytest.raises(NotFinite):
            rational_to_laurent(terms)

    def test_rank_two_terms_rejected(self):
        with pytest.raises(RankMismatch):
            rational_to_laurent([FixedPointTerm(1, (0, 0), ((1, 0),))])

    def test_many_alternating_terms_scale(self):
        # 20 000 terms (-1)^i t^i/(1-t), the intervals [2k, 2k+1).  A
        # numerator copied once per term is quadratic: 16.5 s on a 2-CPU
        # x86-64 host, against 1.4 s when it is built in one dict.
        intervals = [(2 * k, 2 * k + 1) for k in range(10_000)]
        terms = [fp(s, e, (1,)) for a, b in intervals for s, e in ((1, a), (-1, b))]
        start = time.perf_counter()
        got = rational_to_laurent(terms)
        elapsed = time.perf_counter() - start
        assert got == interval_poly(intervals)
        assert elapsed < 5.0, f"{elapsed:.2f} s"


    def test_division_cap_edge(self):
        # sum (-1)^i t^i over 1 - t, i < 20 000: the running sum along the
        # line alternates 1, 0, so the quotient is t^0 + t^2 + ... + t^19998.
        num = {(i,): (-1) ** i for i in range(20_000)}
        want = {(2 * j,): 1 for j in range(10_000)}
        assert indexcalc._divided_by_factor(num, (1,), 10_000) == want
        assert indexcalc._divided_by_factor(num, (1,), 9_999) is None
        # 20 000 is not a multiple of 3: the line through 0 has total 6667.
        with pytest.raises(NotFinite):
            indexcalc._divided_by_factor({(i,): 1 for i in range(20_000)}, (3,), 10**7)

    @pytest.mark.parametrize("pair_first", [True, False], ids=["pair-first", "pair-last"])
    @pytest.mark.parametrize("run_w, pair_w", [(1, 100), (100, 1)], ids=["dense", "sparse"])
    def test_cap_does_not_depend_on_factor_order(self, run_w, pair_w, pair_first):
        # 1 - t^pair_w cancels out of the sum, whose quotient is the 5 terms
        # (1 - t^(5 run_w)) / (1 - t^run_w).  Divided by 1 - t^run_w first,
        # the partial quotient is that times 1 - t^pair_w: 10 terms, past a
        # cap of 6.  So no fixed order of the binomials keeps both cases in.
        pair = [fp(1, 0, (pair_w,)), fp(-1, 0, (pair_w,))]
        run = [fp(1, 0, (run_w,)), fp(-1, 5 * run_w, (run_w,))]
        terms = pair + run if pair_first else run + pair
        want = LaurentPoly({run_w * e: 1 for e in range(5)})
        assert rational_to_laurent(terms, max_terms=6) == want
        assert rational_to_laurent(terms, max_terms=5) == want
        with pytest.raises(SizeLimit, match="^rational_to_laurent: quotient exceeds cap 4 terms$"):
            rational_to_laurent(terms, max_terms=4)

    @pytest.mark.parametrize("order", ["pairs-first", "pairs-last", "mixed"])
    def test_numerator_cap_does_not_depend_on_term_order(self, order):
        # A run of 10 terms with no denominator, and cancelling pairs over
        # 1 - t and 1 - t^100: N is the run times (1 - t)(1 - t^100), 4 terms.
        # Times 1 - t^100 first, the run's share has 20 terms, past the cap.
        run = [fp(1, e) for e in range(10)]
        wide, narrow = [fp(1, 0, (100,)), fp(-1, 0, (100,))], [fp(1, 0, (1,)), fp(-1, 0, (1,))]
        terms = {"pairs-first": wide + narrow + run, "pairs-last": run + wide + narrow,
                 "mixed": narrow + run + wide}[order]
        want = LaurentPoly({e: 1 for e in range(10)})
        assert rational_to_laurent(terms, max_terms=10) == want
        with pytest.raises(SizeLimit, match="^rational_to_laurent: quotient exceeds cap 9 terms$"):
            rational_to_laurent(terms, max_terms=9)

    def test_no_partial_quotient_past_the_cap(self):
        # (1 - t^M) / prod_{k=1..5}(1 - t^k), M = 1.5 * 10^8, is not finite,
        # but each binomial alone divides 1 - t^M, into M/k terms.  A
        # partial quotient allowed 2^(binomials left) times the cap would
        # hold 1.5 * 10^8 terms before the next binomial proved it.
        ws = [1, 2, 3, 4, 5]
        terms = [fp(1, 0, ws), fp(-1, 150_000_000, ws)]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SizeLimit, match="quotient exceeds cap 10000000 terms"):
                rational_to_laurent(terms)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        assert peak < 10**6, f"{peak} bytes"

    def test_infinite_sum_refused_before_any_quotient_term(self):
        # (1 - 2 t^2000000) / (1 - t): the line's total is -1.  Peeling from
        # the least exponent wrote 10^6 quotient terms first and raised
        # SizeLimit after 0.6-1.4 s on a 2-vCPU x86-64 host.
        terms = [fp(1, 0, (1,)), fp(-1, 2_000_000, (1,)), fp(-1, 2_000_000, (1,))]
        start = time.perf_counter()
        with pytest.raises(NotFinite, match="does not reduce to a finite character"):
            rational_to_laurent(terms, max_terms=10**6)
        assert time.perf_counter() - start < 0.1


@st.composite
def _poly_and_weight(draw):
    """A weight -> coefficient map of rank 1-3 and a nonzero weight."""
    rank = draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(-4, 4)] * rank)
    p = draw(st.dictionaries(key, st.integers(-3, 3).filter(bool), max_size=8))
    w = draw(st.tuples(*[st.integers(-3, 3)] * rank).filter(any))
    return p, w


class TestDividedByFactor:
    @settings(max_examples=200, deadline=None)
    @given(_poly_and_weight(), st.data())
    def test_inverts_times_factor(self, case, data):
        p, w = case
        n = indexcalc._times_factor(p, w)
        assert indexcalc._divided_by_factor(n, w, 10**6) == p
        # One coefficient changed by 1 changes its line's total by 1.
        e = data.draw(st.sampled_from(sorted(n) or [(0,) * len(w)]))
        changed = {**n, e: n.get(e, 0) + 1}
        if not changed[e]:
            del changed[e]
        with pytest.raises(NotFinite):
            indexcalc._divided_by_factor(changed, w, 10**6)


class TestSpecialize:
    def test_direct_pairing(self):
        c = Character(2, {(1, 0): 1, (0, 1): 1})
        assert c.specialize((1, 2)) == LaurentPoly({1: 1, 2: 1})

    def test_zero_subgroup_gives_dimension(self):
        c = Character(2, {(1, 0): 2, (0, 1): 3, (2, 2): -1})
        assert c.specialize((0, 0)) == LaurentPoly({0: c.dimension()})

    def test_collision_documents_genericity(self):
        c = Character(2, {(1, 0): 1, (0, 1): -1})
        assert c.specialize((1, 1)) == LaurentPoly()

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            rank1({0: 1}).specialize((1, 2))


class TestWeylChar:
    def test_trivial(self):
        assert weyl_char(0) == LaurentPoly({0: 1})

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_exact_division_oracle(self, j):
        # (t - 1/t) * weyl_char(j) must re-expand to t^(j+1) - t^-(j+1).
        numerator = LaurentPoly({j + 1: 1, -(j + 1): -1})
        denominator = LaurentPoly({1: 1, -1: -1})
        assert denominator * weyl_char(j) == numerator

    def test_small_cases(self):
        assert weyl_char(1) == LaurentPoly({1: 1, -1: 1})
        assert weyl_char(2) == LaurentPoly({2: 1, 0: 1, -2: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weyl_char(-1)


class TestSU2Decompose:
    def test_inverse_of_weyl(self):
        s = su2_decompose(LaurentPoly({1: 1, -1: 1}))
        assert dict(s.mults) == {1: 1}

    def test_peel_with_multiplicity(self):
        s = su2_decompose(LaurentPoly({2: 1, 0: 3, -2: 1}))
        assert dict(s.mults) == {2: 1, 0: 2}
        # re-expansion oracle
        assert s.to_laurent() == LaurentPoly({2: 1, 0: 3, -2: 1})

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSU2Character):
            su2_decompose(LaurentPoly({1: 1}))

    def test_round_trip_sweep(self):
        rng = random.Random(17)
        for _ in range(200):
            mults = {}
            for j in rng.sample(range(7), rng.randrange(1, 4)):
                mults[j] = rng.choice([-3, -2, -1, 1, 2, 3])
            expanded = LaurentPoly()
            for j, m in mults.items():
                expanded = expanded + m * weyl_char(j)
            assert dict(su2_decompose(expanded).mults) == mults


class TestCanonicalForm:
    def test_no_zero_multiplicities_stored(self):
        c = Character(1, [((0,), 2), ((0,), -2), ((1,), 1)])
        assert dict(c.terms) == {(1,): 1}

    def test_laurent_no_zero_coeffs(self):
        p = LaurentPoly([(3, 1), (3, -1), (0, 2)])
        assert dict(p.coeffs) == {0: 2}

    def test_character_immutable(self):
        c = rank1({0: 1})
        with pytest.raises(AttributeError):
            c.rank = 2
        with pytest.raises(TypeError):
            c.terms[(0,)] = 5

    def test_no_floats(self):
        with pytest.raises(TypeError):
            Character(1, {(0,): 1.0})
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})

    @pytest.mark.parametrize("rank", [True, False, 1.0, 2.0, "1", 0, None])
    def test_rank_must_be_positive_int(self, rank):
        with pytest.raises(ValueError, match="rank must be a positive integer"):
            Character(rank, {})


class TestCharacterJson:
    def test_sorted_lexicographically(self):
        c = Character(2, {(1, 0): 2, (0, 1): 3, (-1, 5): 1})
        obj = c.to_jsonable()
        assert obj["rank"] == 2
        assert [e["weight"] for e in obj["terms"]] == [[-1, 5], [0, 1], [1, 0]]

    def test_round_trip(self):
        c = Character(2, {(1, 0): 2, (0, 1): -3})
        assert Character.from_jsonable(c.to_jsonable()) == c

    def test_big_int_fallback(self):
        c = rank1({0: 2**70})
        obj = c.to_jsonable()
        assert obj["terms"][0]["mult"] == f"int:{2**70}"
        assert Character.from_jsonable(obj) == c


# The three integer maps: (class, name of the map property, key strategy for a rank).
INT_MAPS = {
    "Character": (Character, "terms", lambda r: st.tuples(*[st.integers(-3, 3)] * r)),
    "LaurentPoly": (LaurentPoly, "coeffs", lambda r: st.integers(-5, 5)),
    "SU2Char": (SU2Char, "mults", lambda r: st.integers(0, 5)),
}


def build(name, rank, pairs):
    cls = INT_MAPS[name][0]
    return cls(rank, pairs) if cls is Character else cls(pairs)


@st.composite
def int_map_cases(draw):
    """A class, a rank (used by Character only) and two lists of (key, value)
    pairs with repeated keys and zero values."""
    name = draw(st.sampled_from(sorted(INT_MAPS)))
    rank = draw(st.integers(1, 3))
    pairs = st.lists(st.tuples(INT_MAPS[name][2](rank), st.integers(-3, 3)), max_size=8)
    return name, rank, draw(pairs), draw(pairs)


class TestSharedIntMap:
    """Sums, differences, negations and ``to_character`` are built without
    the public constructor; they must be the values it would build."""

    @settings(max_examples=300, deadline=None)
    @given(int_map_cases())
    def test_results_match_public_constructor(self, case):
        name, rank, p, q = case
        cls, prop, _ = INT_MAPS[name]
        a, b = build(name, rank, p), build(name, rank, q)
        minus_q = [(k, -v) for k, v in q]
        for got, pairs in [(a + b, p + q), (a - b, p + minus_q), (-b, minus_q)]:
            want = build(name, rank, pairs)
            assert type(got) is cls
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert dict(getattr(got, prop)) == dict(getattr(want, prop))
            assert 0 not in getattr(got, prop).values()
        if cls is LaurentPoly:
            want = Character(1, [((k,), v) for k, v in p])
            assert a.to_character() == want and hash(a.to_character()) == hash(want)
        empty = a - a
        assert not empty and not getattr(empty, prop)
        assert empty == build(name, rank, []) and hash(empty) == hash(build(name, rank, []))
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            empty.foo = 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_rank_mismatch(self, r1, r2, data):
        assume(r1 != r2)
        a = build("Character", r1, data.draw(st.lists(
            st.tuples(INT_MAPS["Character"][2](r1), st.integers(-3, 3)), max_size=4)))
        b = Character(r2, {})
        for op in (lambda: a + b, lambda: a - b, lambda: b + a):
            with pytest.raises(RankMismatch, match="cannot add characters of ranks"):
                op()
        assert a != b

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), max_size=6))
    def test_classes_never_equal(self, pairs):
        """The same integer map in each class: no two of them are equal."""
        values = [
            Character(1, [((k,), v) for k, v in pairs]),
            LaurentPoly(pairs),
            SU2Char(pairs),
        ]
        for i, x in enumerate(values):
            for y in values[i + 1:]:
                assert x != y and not x == y
                with pytest.raises(TypeError):
                    x + y
