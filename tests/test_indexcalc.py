"""Tests for the two quantization routes and the cross-check harness."""
import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logq import (
    Character,
    DivisorWall,
    FixedPointTerm,
    Halfspace,
    InfiniteSupport,
    LaurentPoly,
    LogqError,
    NotDelzant,
    NotFinite,
    Polyhedron,
    PolytopePiece,
    RankMismatch,
    SizeLimit,
    Stratum,
    SU2Char,
    ToricLogData,
    atiyah_bott,
    bwb,
    delzant,
    fixed_terms_delzant,
    fixed_terms_s2,
    mincoupling_index,
    qr_check,
    quantize_lattice,
    reduced_multiplicity,
    s2_family,
    su2_decompose,
    weyl_char,
)
from logq import charring, indexcalc, polyhedra, toricmodel
from logq.jsonio import dumps


def rank1(mapping):
    return Character(1, {(k,): v for k, v in mapping.items()})


def interval(lo, hi):
    return Polyhedron(1, [Halfspace((1,), lo), Halfspace((-1,), -hi)])


def rect(x0, x1, y0, y1):
    return Polyhedron(
        2,
        [
            Halfspace((1, 0), x0),
            Halfspace((-1, 0), -x1),
            Halfspace((0, 1), y0),
            Halfspace((0, -1), -y1),
        ],
    )


def simplex(k):
    return Polyhedron(
        2, [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), -k)]
    )


def single_ray_data(sign=1):
    return ToricLogData(
        rank=1,
        components=("A",),
        walls=(),
        pieces=(PolytopePiece("A", Polyhedron(1, [Halfspace((1,), 0)])),),
        strata=(),
        base_component="A",
        global_sign=sign,
    )


class TestQuantizeLattice:
    def test_s2_family(self):
        d, _ = s2_family(0, 3)
        assert quantize_lattice(d) == rank1({0: 1, 1: 1, 2: 1})

    def test_delzant_square(self):
        # brute-force lattice oracle: 9 points, all multiplicity 1
        expected = Character(
            2, {(x, y): 1 for x in range(3) for y in range(3)}
        )
        assert quantize_lattice(delzant(rect(0, 2, 0, 2))) == expected

    def test_single_unbounded_piece(self):
        with pytest.raises(InfiniteSupport):
            quantize_lattice(single_ray_data())

    def test_facet_free_pieces(self):
        whole = Polyhedron(1, [])
        base = dict(rank=1, components=("A",), walls=(), strata=(), base_component="A")
        with pytest.raises(InfiniteSupport):
            quantize_lattice(
                ToricLogData(pieces=(PolytopePiece("A", whole),), **base)
            )
        cancelling = ToricLogData(
            pieces=(PolytopePiece("A", whole), PolytopePiece("A", whole)),
            global_sign=1,
            **base,
        )
        # same component, same sign: 1 + 1 != 0
        with pytest.raises(InfiniteSupport):
            quantize_lattice(cancelling)

    def test_validation_failures_propagate(self):
        from logq import NotProper, Stratum, DivisorWall

        d = ToricLogData(
            rank=1,
            components=("A", "B"),
            walls=(
                DivisorWall("w1", (1,), ("A", "B")),
                DivisorWall("w2", (-1,), ("A", "B")),
            ),
            pieces=(PolytopePiece("A", interval(0, 1)),),
            strata=(Stratum({"w1", "w2"}),),
            base_component="A",
        )
        with pytest.raises(NotProper):
            quantize_lattice(d)

    def test_matches_reduced_multiplicity_everywhere(self):
        for n1, n2 in [(0, 3), (-2, 2), (1, 1), (-3, 0)]:
            d, _ = s2_family(n1, n2)
            char = quantize_lattice(d)
            for lam in range(-6, 7):
                assert char.multiplicity((lam,)) == reduced_multiplicity(d, (lam,))

    def test_orientation_flip(self):
        d, _ = s2_family(-1, 2)
        assert quantize_lattice(d.flipped()) == -quantize_lattice(d)

    def test_single_point_piece(self):
        assert quantize_lattice(delzant(interval(2, 2))) == rank1({2: 1})

    def test_overlapping_signed_pieces(self):
        # Two + pieces on A and two - pieces on B, overlapping within each
        # sign and across the signs.
        d = ToricLogData(
            rank=2,
            components=("A", "B"),
            walls=(DivisorWall("w", (1, 0), ("A", "B")),),
            pieces=(
                PolytopePiece("A", rect(0, 3, 0, 1)),
                PolytopePiece("A", rect(2, 4, 0, 0)),
                PolytopePiece("B", rect(1, 5, 0, 0)),
                PolytopePiece("B", rect(4, 6, 0, 1)),
            ),
            base_component="A",
        )
        for data in (d, d.flipped()):
            o = toricmodel.signs(data)
            per_point = {
                w: sum(oj for oj, p in zip(o, data.pieces) if p.region.contains(w))
                for w in product(range(-1, 8), range(-1, 3))
            }
            assert quantize_lattice(data) == Character(2, per_point)
            if data is d:
                assert per_point[(1, 0)] == 0  # + and - cancel exactly
                assert per_point[(2, 0)] == 1  # + + -
                assert per_point[(5, 0)] == -2  # only - pieces, overlapping
                assert per_point[(6, 1)] == -1  # only a - piece


def two_sided(outer, inner):
    """Pieces ``outer`` (sign +) and ``inner`` (sign -) on the two sides of a wall."""
    return ToricLogData(
        rank=outer.rank,
        components=("A", "B"),
        walls=(DivisorWall("w", (1,) + (0,) * (outer.rank - 1), ("A", "B")),),
        pieces=(PolytopePiece("A", outer), PolytopePiece("B", inner)),
        base_component="A",
    )


def no_sweep(*args, **kwargs):
    raise AssertionError("the arrangement sweep ran")


class TestSweepSkip:
    def test_outer_box_minus_inner_box(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "_unbounded_cells", no_sweep)
        d = two_sided(rect(0, 4, -1, 3), rect(1, 2, 0, Fraction(5, 2)))
        expected = Character(
            2,
            {
                (x, y): 1 - (1 <= x <= 2 and 0 <= y <= 2)
                for x in range(0, 5)
                for y in range(-1, 4)
            },
        )
        assert quantize_lattice(d) == expected
        report = qr_check(d, [])
        assert [c for w, a, b, c in report.per_weight_table] == [
            expected.multiplicity(w) for w, *_ in report.per_weight_table
        ]

    def test_inner_piece_sticking_out(self, monkeypatch):
        monkeypatch.setattr(polyhedra, "_unbounded_cells", no_sweep)
        d = two_sided(interval(0, 3), interval(2, 6))
        assert quantize_lattice(d) == rank1({0: 1, 1: 1, 4: -1, 5: -1, 6: -1})

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.lists(
                st.tuples(st.integers(-6, 2), st.integers(1, 6), st.integers(1, 2)),
                min_size=2 * r,
                max_size=2 * r,
            )
        )
    )
    def test_bounded_boxes_match_brute_force(self, bounds):
        # Two boxes with rational faces, signs + and -: [lo, lo + width] / den.
        rank = len(bounds) // 2
        boxes = [bounds[:rank], bounds[rank:]]

        def box_poly(sides):
            hs = []
            for i, (lo, width, den) in enumerate(sides):
                e = tuple(int(j == i) for j in range(rank))
                hs.append(Halfspace(e, Fraction(lo, den)))
                hs.append(Halfspace(tuple(-c for c in e), -Fraction(lo + width, den)))
            return Polyhedron(rank, hs)

        def inside(sides, pt):
            return all(lo <= x * den <= lo + width for (lo, width, den), x in zip(sides, pt))

        expected = Character(
            rank,
            {
                pt: inside(boxes[0], pt) - inside(boxes[1], pt)
                for pt in product(range(-6, 9), repeat=rank)
            },
        )
        d = two_sided(box_poly(boxes[0]), box_poly(boxes[1]))
        with mock.patch.object(polyhedra, "_unbounded_cells", no_sweep):
            assert quantize_lattice(d) == expected

    def test_unbounded_piece_still_swept(self, monkeypatch):
        half_plane = Polyhedron(2, [Halfspace((1, 0), 0)])
        d = two_sided(rect(0, 2, 0, 2), half_plane)
        with pytest.raises(InfiniteSupport):
            quantize_lattice(d)
        # The name the tests above patch is the one the sweep runs through.
        monkeypatch.setattr(polyhedra, "_unbounded_cells", no_sweep)
        with pytest.raises(AssertionError, match="the arrangement sweep ran"):
            quantize_lattice(d)

    def test_hyperplane_cap_keeps_sweep_error_text(self):
        normals = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1),
                   (-1, -1), (2, 1), (1, 2), (-2, 1), (-1, -2), (2, -1)]
        d = delzant(Polyhedron(2, [Halfspace(n, -3) for n in normals]))
        with pytest.raises(SizeLimit) as info:
            quantize_lattice(d)
        assert str(info.value) == "arrangement_cells: 13 hyperplanes exceed cap 12"


def _swept_outcome(d):
    """The InfiniteSupport message of the full sweep (the least unbounded
    cell, in sign-vector order, whose witness has a nonzero signed
    indicator), or None when every unbounded cell sums to zero."""
    o = toricmodel.signs(d)
    hyperplanes = indexcalc._facet_hyperplanes(d)
    for cell, (p, q) in polyhedra.arrangement_cells_with_points(hyperplanes):
        if not cell.bounded:
            point = [Fraction(c, q) for c in p]
            s = sum(oj for oj, piece in zip(o, d.pieces) if piece.region.contains(point))
            if s:
                return f"signed indicator is {s} on unbounded cell {cell.sign_vector}"
    return None


_piece = st.integers(1, 3).flatmap(
    lambda r: st.lists(
        st.tuples(
            st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda rows: Polyhedron(r, [Halfspace(a, b) for a, b in rows]))
)


class TestFiniteSupportCertificate:
    """The sign-mask certificate decides as the full sweep does, message and all."""

    @settings(max_examples=300, deadline=None)
    @given(_piece.flatmap(lambda P: st.tuples(st.just(P), _piece.filter(lambda Q: Q.rank == P.rank))))
    def test_matches_full_sweep(self, pieces):
        outer, inner = pieces
        assume(not polyhedra.is_empty(outer) and not polyhedra.is_empty(inner))
        d = two_sided(outer, inner)
        expected = _swept_outcome(d)
        if expected is None:
            quantize_lattice(d, box_cap=10**5)
        else:
            with pytest.raises(InfiniteSupport) as info:
                quantize_lattice(d, box_cap=10**5)
            assert str(info.value) == expected


def cube_shell(weights, rank):
    """The points within Chebyshev distance 1 of ``weights``, sorted, by brute force."""
    return sorted({
        tuple(a + b for a, b in zip(w, off))
        for w in weights
        for off in product((-1, 0, 1), repeat=rank)
    })


def shell_points(weights, rank):
    """The points of :func:`indexcalc._shell_runs`, in the order it gives them."""
    return [
        head + (x,)
        for head, runs in indexcalc._shell_runs(weights, rank)
        for lo, hi in runs
        for x in range(lo, hi + 1)
    ]


@st.composite
def _walks(draw, rank):
    """Weights on a walk with steps of at most 2 along each outer axis and at
    most 4 along the last: the distances at which runs of neighbouring points,
    and of neighbouring heads, overlap, share an endpoint, touch or stay apart.
    Points may repeat."""
    w = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        out.append(tuple(w))
        step = draw(st.lists(st.integers(-2, 2), min_size=rank - 1, max_size=rank - 1))
        last = draw(st.integers(-4, 4))
        w = [a + b for a, b in zip(w, step + [last])]
    return out


class TestShell:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.one_of(_walks(r), st.lists(st.tuples(*[st.integers(-3, 3)] * r), max_size=6)),
            )
        )
    )
    def test_matches_cube_offsets(self, case):
        # Equal lists: the same points, each once, in lexicographic order.
        rank, weights = case
        assert shell_points(weights, rank) == cube_shell(weights, rank)

    @pytest.mark.parametrize(
        "weights",
        [
            [(0,), (1,)], [(0,), (2,)], [(0,), (3,)], [(0,), (4,)], [(0,), (0,)],
            [(0, 0), (1, 2)], [(0, 0), (1, 3)], [(0, 0), (2, 0)], [(0, 0), (2, 2)],
            [(0, 0), (2, 4)], [(0, 0), (3, 0)], [(0, 0, 0), (0, 2, 2)], [(0, 0, 0), (2, 0, 2)],
            [(0, 0, 0), (1, 1, 4)], [(0, 0, 0), (2, 2, 0)],
        ],
    )
    def test_run_merge_edges(self, weights):
        assert shell_points(weights, len(weights[0])) == cube_shell(weights, len(weights[0]))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_empty(self, rank):
        assert indexcalc._shell_runs([], rank) == []

    def test_runs_are_maximal(self):
        # Points 3 apart give touching runs, which are one run; 4 apart, two.
        assert indexcalc._shell_runs([(0,), (3,), (7,)], 1) == [((), [(-1, 4), (6, 8)])]
        assert indexcalc._shell_runs([(0, 0), (2, 3)], 2) == [
            ((-1,), [(-1, 1)]), ((0,), [(-1, 1)]), ((1,), [(-1, 4)]),
            ((2,), [(2, 4)]), ((3,), [(2, 4)]),
        ]


class TestReducedMultiplicity:
    def test_interior_level(self):
        d, _ = s2_family(0, 3)
        assert reduced_multiplicity(d, (1,)) == 1

    def test_cancelling_pair_above(self):
        d, _ = s2_family(0, 3)
        assert reduced_multiplicity(d, (4,)) == 0

    def test_empty_below(self):
        d, _ = s2_family(0, 3)
        assert reduced_multiplicity(d, (-2,)) == 0

    def test_rank_mismatch(self):
        d, _ = s2_family(0, 3)
        with pytest.raises(RankMismatch):
            reduced_multiplicity(d, (0, 0))


class TestAtiyahBott:
    def test_s2_terms(self):
        assert atiyah_bott(fixed_terms_s2(0, 3)) == rank1({0: 1, 1: 1, 2: 1})

    def test_isolated_point(self):
        assert atiyah_bott([FixedPointTerm(1, (5,))]) == rank1({5: 1})

    def test_projective_line_gives_weyl_character(self):
        terms = [FixedPointTerm(1, (2,), ((-2,),)), FixedPointTerm(1, (-2,), ((2,),))]
        got = atiyah_bott(terms)
        # exact-division oracle: result must re-expand against (1-t^2)(1-t^-2)
        assert got == weyl_char(2).to_character()

    def test_empty_terms(self):
        assert atiyah_bott([]) == rank1({})

    def test_invalid_data_not_finite(self):
        with pytest.raises(NotFinite):
            atiyah_bott([FixedPointTerm(1, (0,), ((1,),))])

    @pytest.mark.parametrize("hi", [(2, 3), (1, 2, 2)], ids=["rank2", "rank3"])
    def test_higher_rank_box(self, hi):
        P = box((0,) * len(hi), hi)
        assert atiyah_bott(fixed_terms_delzant(P)) == quantize_lattice(delzant(P))

    def test_rank_two_not_finite(self):
        with pytest.raises(NotFinite):
            atiyah_bott([FixedPointTerm(1, (0, 0), ((1, 0),))])

    def test_mixed_rank_rejected(self):
        with pytest.raises(RankMismatch):
            atiyah_bott([FixedPointTerm(1, (0,)), FixedPointTerm(1, (0, 0))])


class TestFixedPointTermSign:
    @pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 0, 2, "1"])
    def test_only_int_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign must be"):
            FixedPointTerm(sign, (0,), ((1,),))


class TestFixedTermsS2:
    def test_structure(self):
        terms = fixed_terms_s2(0, 3)
        assert [(t.sign, t.mu, t.weights) for t in terms] == [
            (1, (0,), ((1,),)),
            (-1, (3,), ((1,),)),
        ]

    def test_equal_levels_cancel(self):
        assert atiyah_bott(fixed_terms_s2(4, 4)) == rank1({})

    def test_negative_window(self):
        # long-division oracle: (t^-2 - t^1)/(1 - t) = t^-2 + t^-1 + 1
        assert atiyah_bott(fixed_terms_s2(-2, 1)) == rank1({-2: 1, -1: 1, 0: 1})


class TestFixedTermsDelzant:
    def test_segment(self):
        terms = fixed_terms_delzant(interval(0, 2))
        assert [(t.sign, t.mu, t.weights) for t in terms] == [
            (1, (0,), ((1,),)),
            (1, (2,), ((-1,),)),
        ]
        assert atiyah_bott(terms) == rank1({0: 1, 1: 1, 2: 1})

    def test_unit_square_four_terms(self):
        terms = fixed_terms_delzant(rect(0, 1, 0, 1))
        assert len(terms) == 4
        assert {t.mu for t in terms} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert all(t.sign == 1 and len(t.weights) == 2 for t in terms)

    def test_non_unimodular_vertex(self):
        tilted = Polyhedron(
            2, [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -2), -2)]
        )
        with pytest.raises(NotDelzant):
            fixed_terms_delzant(tilted)

    def test_non_lattice_vertex(self):
        with pytest.raises(NotDelzant):
            fixed_terms_delzant(interval(Fraction(1, 2), 2))

    def test_unbounded_rejected(self):
        from logq import Unbounded

        with pytest.raises(Unbounded):
            fixed_terms_delzant(Polyhedron(1, [Halfspace((1,), 0)]))

    def test_simplex_edges(self):
        terms = {t.mu: set(t.weights) for t in fixed_terms_delzant(simplex(2))}
        assert terms[(0, 0)] == {(1, 0), (0, 1)}
        assert terms[(2, 0)] == {(-1, 0), (-1, 1)}
        assert terms[(0, 2)] == {(0, -1), (1, -1)}


class TestBWB:
    def test_positive_via_projective_line_oracle(self):
        terms = [FixedPointTerm(1, (2,), ((-2,),)), FixedPointTerm(1, (-2,), ((2,),))]
        poly = LaurentPoly({(k,)[0]: m for (k,), m in atiyah_bott(terms).terms.items()})
        assert su2_decompose(poly) == bwb(2)

    def test_vanishing_degree(self):
        assert bwb(-1) == SU2Char()

    def test_negative_degree(self):
        # (t^-2 - t^2)/(t - t^-1) = -(t + t^-1): multiply-back oracle
        lhs = LaurentPoly({-2: 1, 2: -1})
        assert (-weyl_char(1)) * LaurentPoly({1: 1, -1: -1}) == lhs
        assert bwb(-3) == SU2Char({1: -1})

    def test_weyl_numerator_antisymmetry(self):
        for k in range(-10, 11):
            assert bwb(k) == -bwb(-k - 2)

    def test_matches_su2_decompose_of_weyl(self):
        for j in range(7):
            assert su2_decompose(weyl_char(j)) == bwb(j)


class TestMincouplingIndex:
    def test_degree_one_window(self):
        fibre = rank1({0: 1, 1: 1})
        assert mincoupling_index(1, fibre) == SU2Char({1: 1, 2: 1})

    def test_empty_fibre(self):
        assert mincoupling_index(1, rank1({})) == SU2Char()

    def test_cancelling_degree(self):
        assert mincoupling_index(1, rank1({-2: 1})) == SU2Char()

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            mincoupling_index(1, Character(2, {(0, 0): 1}))

    def test_window_sweep(self):
        for n1 in range(0, 5):
            for n2 in range(n1, 5):
                fibre = rank1({j: 1 for j in range(n1, n2)})
                expected = SU2Char({j: 1 for j in range(n1 + 1, n2 + 1)})
                assert mincoupling_index(1, fibre) == expected


class TestQRCheck:
    def test_s2_agrees(self):
        d, _ = s2_family(0, 3)
        report = qr_check(d, fixed_terms_s2(0, 3))
        assert report.agree
        assert report.lattice_char == report.fixedpoint_char
        for w, lat, fp, red in report.per_weight_table:
            assert lat == fp == red

    def test_delzant_segment_agrees(self):
        P = interval(0, 2)
        report = qr_check(delzant(P), fixed_terms_delzant(P))
        assert report.agree

    def test_tampered_terms_disagree_at_level_three(self):
        d, _ = s2_family(0, 3)
        tampered = [FixedPointTerm(1, (0,), ((1,),)), FixedPointTerm(-1, (4,), ((1,),))]
        report = qr_check(d, tampered)
        assert not report.agree
        rows = {w: (lat, fp) for w, lat, fp, _ in report.per_weight_table}
        assert rows[(3,)] == (0, 1)

    def test_rank_two_specialization_route(self):
        for P in [rect(0, 2, 0, 2), rect(-1, 1, -2, 0), simplex(3)]:
            report = qr_check(delzant(P), fixed_terms_delzant(P))
            assert report.agree
            assert report.lattice_char == report.fixedpoint_char

    def test_rank_three_cube(self):
        cube = Polyhedron(
            3,
            [Halfspace(tuple(1 if i == j else 0 for j in range(3)), 0) for i in range(3)]
            + [Halfspace(tuple(-1 if i == j else 0 for j in range(3)), -1) for i in range(3)],
        )
        d = delzant(cube)
        char = quantize_lattice(d)
        assert len(char.terms) == 8 and set(char.terms.values()) == {1}
        terms = fixed_terms_delzant(cube)
        assert len(terms) == 8
        report = qr_check(d, terms)
        assert report.agree

    def test_rank_two_wrong_polytope_terms_disagree(self):
        # terms of a taller rectangle: a finite but different character
        report = qr_check(delzant(rect(0, 1, 0, 1)), fixed_terms_delzant(rect(0, 1, 0, 2)))
        assert not report.agree
        assert report.fixedpoint_char.multiplicity((0, 2)) == 1
        assert report.lattice_char.multiplicity((0, 2)) == 0

    def test_rank_two_disagreement_reports_the_quotient(self):
        # t^(5,5) lies outside the table shell of the point, so restricting
        # the sum to rank 1 and reading it back on that shell lost it.
        d = delzant(box((0, 0), (0, 0)))
        report = qr_check(d, [FixedPointTerm(1, (0, 0)), FixedPointTerm(1, (5, 5))])
        assert not report.agree
        assert report.fixedpoint_char == Character(2, {(0, 0): 1, (5, 5): 1})

    def test_rank_two_table_shell_built_once_on_agreement(self, monkeypatch):
        calls = []
        shell = indexcalc._shell_runs

        def counting(weights, rank):
            calls.append(rank)
            return shell(weights, rank)

        monkeypatch.setattr(indexcalc, "_shell_runs", counting)
        P = rect(0, 2, 0, 2)
        report = qr_check(delzant(P), fixed_terms_delzant(P))
        assert report.agree and len(calls) == 1
        assert [w for w, *_ in report.per_weight_table] == cube_shell(
            report.lattice_char.support(), 2
        )
        # On disagreement the table covers both supports, so it takes its own shell.
        calls.clear()
        report = qr_check(delzant(rect(0, 1, 0, 1)), fixed_terms_delzant(rect(0, 1, 0, 2)))
        assert not report.agree and len(calls) == 2
        support = set(report.lattice_char.support()) | set(report.fixedpoint_char.support())
        assert [w for w, *_ in report.per_weight_table] == cube_shell(support, 2)

    def test_rank_two_invalid_terms_raise_not_finite(self):
        # flipping one Brion vertex sign leaves a genuine rational function
        P = rect(0, 1, 0, 1)
        terms = fixed_terms_delzant(P)
        tampered = terms[:-1] + [FixedPointTerm(-1, terms[-1].mu, terms[-1].weights)]
        with pytest.raises(NotFinite):
            qr_check(delzant(P), tampered)

    def test_term_rank_checked(self):
        d, _ = s2_family(0, 3)
        with pytest.raises(RankMismatch):
            qr_check(d, [FixedPointTerm(1, (0, 0), ((1, 0),))])

    def test_table_is_sorted_with_shell(self):
        d, _ = s2_family(0, 2)
        report = qr_check(d, fixed_terms_s2(0, 2))
        weights = [w for w, *_ in report.per_weight_table]
        assert weights == sorted(weights)
        assert (-1,) in weights and (2,) in weights  # 1-margin shell

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_table_counts_no_point_twice(self, rank, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("qr_check counted a point again")

        calls, signs = [], toricmodel.signs
        monkeypatch.setattr(polyhedra.Polyhedron, "contains", no_count)
        monkeypatch.setattr(toricmodel, "signs", lambda d: calls.append(d) or signs(d))
        P = box(tuple(range(-1, rank - 1)), tuple(range(1, rank + 1)))
        d = delzant(P)
        report = qr_check(d, fixed_terms_delzant(P))
        assert report.agree and len(calls) == 1  # the one in quantize_lattice
        assert [(a, b) for _, a, b, _ in report.per_weight_table] == [
            (c, c) for *_, c in report.per_weight_table
        ]


def box(lo, hi):
    rank = len(lo)
    return Polyhedron(
        rank,
        [Halfspace(tuple(int(j == i) for j in range(rank)), lo[i]) for i in range(rank)]
        + [Halfspace(tuple(-int(j == i) for j in range(rank)), -hi[i]) for i in range(rank)],
    )


def welded_box(lo, hi, chamfer):
    """The lattice box lo <= x < hi as 2^rank welded orthants, and their Brion terms.

    Component ``b`` (a bit tuple) carries the orthant x_i >= c_b[i], with
    c_b[i] = hi[i] when bit i is set and lo[i] otherwise, and the
    crossing-parity sign (-1)^|b|.  ``chamfer`` = (b, k) cuts the orthant of
    component b by sum(x - c_b) >= k, which removes a simplex from the answer.
    """
    rank = len(lo)
    comps = list(product((0, 1), repeat=rank))
    name = {b: "C" + "".join(map(str, b)) for b in comps}
    walls = [
        DivisorWall(f"w{i}{name[b]}", tuple(int(j == i) for j in range(rank)),
                    (name[b], name[b[:i] + (1,) + b[i + 1:]]))
        for b in comps for i in range(rank) if not b[i]
    ]
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    pieces, terms = [], []
    for b in comps:
        c = tuple(hi[i] if b[i] else lo[i] for i in range(rank))
        sign = -1 if sum(b) % 2 else 1
        hs = [Halfspace(units[i], c[i]) for i in range(rank)]
        if chamfer is not None and chamfer[0] == b:
            k = chamfer[1]
            hs.append(Halfspace((1,) * rank, sum(c) + k))
            for j in range(rank):
                mu = tuple(c[i] + k * (i == j) for i in range(rank))
                ws = [units[j]] + [
                    tuple(units[i][t] - units[j][t] for t in range(rank))
                    for i in range(rank) if i != j
                ]
                terms.append(FixedPointTerm(sign, mu, ws))
        else:
            terms.append(FixedPointTerm(sign, c, units))
        pieces.append(PolytopePiece(name[b], Polyhedron(rank, hs)))
    d = ToricLogData(
        rank=rank,
        components=tuple(name[b] for b in comps),
        walls=tuple(walls),
        pieces=tuple(pieces),
        strata=tuple(Stratum({w.id}) for w in walls),
        base_component=name[comps[0]],
    )
    return d, terms


@st.composite
def welded_cases(draw):
    """Welded boxes, some chamfered, with the Brion terms of a second box of
    either sign added to the fixed-point side half of the time."""
    rank = draw(st.integers(1, 3))
    lo = draw(st.tuples(*[st.integers(-4, 4)] * rank))
    hi = tuple(a + draw(st.integers(1, 3)) for a in lo)
    chamfer = None
    if rank > 1 and draw(st.booleans()):
        b = draw(st.tuples(*[st.integers(0, 1)] * rank))
        chamfer = (b, draw(st.integers(1, min(h - a for a, h in zip(lo, hi)))))
    d, terms = welded_box(lo, hi, chamfer)
    if draw(st.booleans()):
        lo2 = draw(st.tuples(*[st.integers(-8, 8)] * rank))
        hi2 = tuple(a + draw(st.integers(1, 2)) for a in lo2)
        sign = draw(st.sampled_from([1, -1]))
        terms += [FixedPointTerm(sign * t.sign, t.mu, t.weights)
                  for t in fixed_terms_delzant(box(lo2, hi2))]
    return d, terms


class TestReducedPointsColumn:
    @settings(max_examples=60, deadline=None)
    @given(welded_cases())
    def test_matches_reduced_multiplicity(self, case):
        d, terms = case
        assert not all(polyhedra.is_bounded(p.region) for p in d.pieces)
        report = qr_check(d, terms)
        for w, lat, _, red in report.per_weight_table:
            assert red == reduced_multiplicity(d, w) == lat

    def test_welded_box_is_the_box(self):
        d, terms = welded_box((0, -1), (2, 1), ((1, 0), 1))
        # The chamfer takes the corner (2, -1) out of orthant C10, of sign -1.
        expected = {(x, y): 1 for x in (0, 1) for y in (-1, 0)}
        expected[(2, -1)] = 1
        report = qr_check(d, terms)
        assert report.lattice_char == Character(2, expected)
        assert report.agree


def cut_rect(x0, y0, w, h, cuts):
    """The rectangle [x0, x0 + w] x [y0, y0 + h] with its four corners cut by
    diagonal facets at lattice depths ``cuts`` (0 leaves the corner)."""
    x1, y1 = x0 + w, y0 + h
    hs = list(rect(x0, x1, y0, y1).halfspaces)
    corners = ((1, 1, x0, y0), (-1, 1, x1, y0), (1, -1, x0, y1), (-1, -1, x1, y1))
    for (sx, sy, cx, cy), k in zip(corners, cuts):
        if k:
            hs.append(Halfspace((sx, sy), sx * cx + sy * cy + k))
    return Polyhedron(2, hs)


@st.composite
def delzant_cases(draw):
    """Delzant boxes of rank 1-3 and cut rectangles, with their vertex terms."""
    if draw(st.booleans()):
        rank = draw(st.integers(1, 3))
        lo = draw(st.tuples(*[st.integers(-4, 4)] * rank))
        P = box(lo, tuple(a + draw(st.integers(1, 4)) for a in lo))
    else:
        w, h = draw(st.integers(3, 6)), draw(st.integers(3, 6))
        # Cuts of depth below half the shorter side never meet on an edge.
        depth = st.integers(0, (min(w, h) - 1) // 2)
        P = cut_rect(draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), w, h,
                     draw(st.lists(depth, min_size=4, max_size=4)))
    return delzant(P), fixed_terms_delzant(P)


def cut_rect_vertices(x0, y0, w, h, cuts):
    """The vertices of :func:`cut_rect` in counterclockwise order, read off
    its parameters (an uncut corner appears twice)."""
    x1, y1 = x0 + w, y0 + h
    bl, br, tl, tr = cuts
    return [(x0, y0 + bl), (x0 + bl, y0), (x1 - br, y0), (x1, y0 + br),
            (x1, y1 - tr), (x1 - tr, y1), (x0 + tl, y1), (x0, y1 - tl)]


def pick_count(vs):
    """Lattice points of a lattice polygon by Pick's theorem, A + B/2 + 1:
    twice the area A by the shoelace formula, and B the sum of the gcds of
    the edge vectors."""
    edges = list(zip(vs, vs[1:] + vs[:1]))
    twice_area = sum(x * y2 - x2 * y for (x, y), (x2, y2) in edges)
    boundary = sum(gcd(x2 - x, y2 - y) for (x, y), (x2, y2) in edges)
    return (twice_area + boundary) // 2 + 1


class TestPickOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(3, 6), st.integers(3, 6),
           st.data())
    def test_cut_rectangles(self, x0, y0, w, h, data):
        depth = st.integers(0, (min(w, h) - 1) // 2)
        cuts = data.draw(st.lists(depth, min_size=4, max_size=4))
        P = cut_rect(x0, y0, w, h, cuts)
        assert quantize_lattice(delzant(P)).dimension() == pick_count(
            cut_rect_vertices(x0, y0, w, h, cuts))

    def test_large_cut_square(self):
        args = (-500, 7, 1000, 1000, (0, 3, 499, 1))
        assert quantize_lattice(delzant(cut_rect(*args))).dimension() == pick_count(
            cut_rect_vertices(*args)) == 1001**2 - 6 - 124750 - 1


def _outcome(d, terms, **kwargs):
    """qr_check's report and its JSON, or the error it raises."""
    try:
        report = qr_check(d, terms, **kwargs)
    except LogqError as exc:
        return type(exc), str(exc)
    return report, dumps(report.to_jsonable())


def agrees_by_product(lattice_char, terms, cap):
    """:func:`indexcalc._agrees_by_product` on the terms' own N and D."""
    return indexcalc._agrees_by_product(
        lattice_char, *indexcalc._over_common_denominator(terms, cap), cap)


def _divided_outcome(d, terms, **kwargs):
    """:func:`_outcome` with the product test refusing every job, so the
    fixed-point sum is always divided out."""
    with mock.patch.object(indexcalc, "_agrees_by_product", lambda *args: False):
        return _outcome(d, terms, **kwargs)


class TestProductTest:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(delzant_cases(), welded_cases()))
    def test_same_report_as_division(self, case):
        d, terms = case
        got = _outcome(d, terms)
        assert got == _divided_outcome(d, terms)
        # The division route is sound here: a welded case's extra terms add a
        # nonzero box character, which no specialization sends to 0.
        report = got[0]
        assert agrees_by_product(
            report.lattice_char, terms, polyhedra.BOX_VOLUME_CAP) == report.agree

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_shifted_vertex_refused(self, rank):
        P = box((0,) * rank, (2,) * rank)
        d, terms = delzant(P), fixed_terms_delzant(P)
        t = terms[-1]
        terms[-1] = FixedPointTerm(t.sign, (t.mu[0] + 1,) + t.mu[1:], t.weights)
        lattice_char = quantize_lattice(d)
        assert agrees_by_product(lattice_char, fixed_terms_delzant(P), 10**7)
        assert not agrees_by_product(lattice_char, terms, 10**7)
        assert _outcome(d, terms) == _divided_outcome(d, terms)

    @pytest.mark.parametrize("top", [5, 1000], ids=["agree", "quotient-over-cap"])
    def test_small_cap_gives_up(self, top):
        # The segment [0, 5] x {0} (6 points) over (1 - t^(0,1))(1 - t^(1,0)):
        # the sorted-first binomial 1 - t^(0,1) takes L to 12 terms, past the
        # cap of 6, before 1 - t^(1,0) would bring it back to 4.
        d = delzant(box((0, 0), (5, 0)))
        units = ((1, 0), (0, 1))
        terms = [FixedPointTerm(s, (x, y), units)
                 for s, x, y in [(1, 0, 0), (-1, top + 1, 0), (-1, 0, 1), (1, top + 1, 1)]]
        lattice_char = quantize_lattice(d)
        assert agrees_by_product(lattice_char, terms, 10**7) == (top == 5)
        assert not agrees_by_product(lattice_char, terms, 6)
        got = _outcome(d, terms, box_cap=6)
        assert got == _divided_outcome(d, terms, box_cap=6)
        if top == 5:
            assert got[0].agree
        else:
            assert got == (SizeLimit, "rational_to_laurent: quotient exceeds cap 6 terms")

    def test_verdict_does_not_depend_on_term_order(self):
        # A cancelling pair over 1 - t^100 and the box [0, 5] over 1 - t: in
        # sorted order L * (1 - t) has 2 terms and then 4, within the cap of
        # 6; multiplying by 1 - t^100 first would take L to 12 terms.
        d, _ = s2_family(0, 5)
        lattice_char = quantize_lattice(d)
        terms = [FixedPointTerm(1, (0,), ((100,),)), FixedPointTerm(-1, (0,), ((100,),)),
                 *fixed_terms_s2(0, 5)]
        for order in permutations(terms):
            assert agrees_by_product(lattice_char, list(order), 6)
            report = qr_check(d, list(order), box_cap=6)
            assert report.agree and report.fixedpoint_char is report.lattice_char

    @pytest.mark.parametrize("agree", [True, False], ids=["agree", "disagree"])
    def test_numerator_built_once(self, agree, monkeypatch):
        calls = []
        over = indexcalc._over_common_denominator
        monkeypatch.setattr(indexcalc, "_over_common_denominator",
                            lambda *args: calls.append(args) or over(*args))
        P = box((0, 0), (2, 3))
        d, terms = delzant(P), fixed_terms_delzant(box((0, 0), (2, 3 + (not agree))))
        assert qr_check(d, terms).agree == agree
        assert len(calls) == 1

    @pytest.mark.parametrize("sides", [(60, 60), (15, 15, 15)], ids=["square60", "cube15"])
    def test_agreement_needs_no_division(self, sides, monkeypatch):
        def no_division(*args, **kwargs):
            raise AssertionError("an agreeing qr_check divided")

        P = box((0,) * len(sides), sides)
        d, terms = delzant(P), fixed_terms_delzant(P)
        for name in ("rational_to_laurent", "_quotient", "_divided_by_factor",
                     "_specialization_xi", "atiyah_bott"):
            monkeypatch.setattr(indexcalc, name, no_division)
        monkeypatch.setattr(Character, "specialize", no_division)
        report = qr_check(d, terms)
        assert report.agree and report.fixedpoint_char is report.lattice_char
        assert report.lattice_char.dimension() == prod(s + 1 for s in sides)


def shifted(term, rank):
    """The term with its moment value moved by the first unit vector."""
    return FixedPointTerm(term.sign, (term.mu[0] + 1,) + term.mu[1:rank], term.weights)


class TestShiftedTermNeverAgrees:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(delzant_cases(), welded_cases()), st.data())
    def test_rank_two_and_three(self, case, data):
        """Shifting one term's mu by e_1 adds sign * t^mu (t^e_1 - 1) / prod(1 - t^w)
        to the sum.  With r >= 2 binomials that is not finite, as they cannot
        all divide 1 - t^e_1; with none (a cancelling pair of isolated points
        added at c) it is the nonzero t^(c + e_1) - t^c, up to sign.  A welded
        case's extra box terms add a box character of one sign, which that
        difference cannot cancel, even after restriction to rank 1."""
        d, terms = case
        rank = d.rank
        assume(rank >= 2)
        c = data.draw(st.tuples(*[st.integers(-6, 6)] * rank))
        terms = terms + [FixedPointTerm(1, c), FixedPointTerm(-1, c)]
        before = atiyah_bott(terms)
        n = len(terms)
        i = data.draw(st.one_of(st.integers(0, n - 1), st.sampled_from([n - 2, n - 1])))
        t = terms[i]
        terms[i] = shifted(t, rank)
        if t.weights:
            with pytest.raises(NotFinite):
                atiyah_bott(terms)
            with pytest.raises(NotFinite):
                qr_check(d, terms)
            return
        report = qr_check(d, terms)
        moved = Character(rank, {terms[i].mu: t.sign, t.mu: -t.sign})
        assert not report.agree
        assert report.fixedpoint_char == atiyah_bott(terms) == before + moved


def _sum_or_error(terms):
    try:
        return atiyah_bott(terms)
    except NotFinite:
        return NotFinite


class TestDualTwistReciprocity:
    @settings(max_examples=60, deadline=None)
    @given(delzant_cases(), st.data())
    def test_interior_points(self, case, data):
        """Brion's sum with every edge reversed and the sign (-1)^r counts the
        interior points: t^e / (1 - t^e) = -1 / (1 - t^-e) turns each vertex
        cone into its open cone (Stanley reciprocity)."""
        d, terms = case
        P = d.pieces[0].region
        rank = P.rank
        rows = [h.row for h in P.halfspaces]
        corners = polyhedra.vertices(P)
        ranges = [range(int(min(v[i] for v in corners)), int(max(v[i] for v in corners)) + 1)
                  for i in range(rank)]
        interior = [x for x in product(*ranges)
                    if all(sum(map(mul, a, x)) >= b + 1 for a, b in rows)]
        dual = [FixedPointTerm(t.sign * (-1) ** rank, t.mu, [tuple(-c for c in w)
                                                             for w in t.weights])
                for t in terms]
        want = Character(rank, dict.fromkeys(interior, 1))
        assert atiyah_bott(dual) == want
        i = data.draw(st.integers(0, len(dual) - 1))
        t, j = dual[i], data.draw(st.integers(0, rank - 1))
        unnegated = FixedPointTerm(t.sign, t.mu, [terms[i].weights[k] if k == j else w
                                                  for k, w in enumerate(t.weights)])
        for variant in (shifted(t, rank), unnegated):
            assert _sum_or_error(dual[:i] + [variant] + dual[i + 1:]) != want


class TestTrustedResults:
    def test_no_key_checked_again(self, monkeypatch):
        """Lattice counts, sums, negations and ``to_character`` are built from
        keys the package has already checked, so none goes through
        ``as_weight`` again."""
        square = delzant(rect(0, 30, -5, 25))
        welded, _ = welded_box((0, -1, 2), (3, 2, 4), ((1, 0, 1), 1))
        want = [quantize_lattice(square), quantize_lattice(welded)]
        a = Character(2, {(0, 0): 2, (1, -1): 1})
        b = Character(2, {(0, 0): -2, (3, 3): 4})
        p = LaurentPoly({-1: 2, 4: -3})

        def no_check(coords):
            raise AssertionError("a checked key went through as_weight again")

        monkeypatch.setattr(charring, "as_weight", no_check)
        got = [quantize_lattice(square), quantize_lattice(welded)]
        assert got == want
        assert len(got[0].terms) == 31 * 31 and got[1].dimension() == 3 * 3 * 2 - 1
        assert dict((a + b).terms) == {(1, -1): 1, (3, 3): 4}
        assert dict((a - b).terms) == {(0, 0): 4, (1, -1): 1, (3, 3): -4}
        assert dict((-a).terms) == {(0, 0): -2, (1, -1): -1}
        assert dict(p.to_character().terms) == {(-1,): 2, (4,): -3}


class TestQRInvariantSuite:
    def test_s2_window_identity(self):
        for n1 in range(-5, 6):
            for n2 in range(n1, 6):
                d, _ = s2_family(n1, n2)
                expected = rank1({j: 1 for j in range(n1, n2)})
                lat = quantize_lattice(d)
                assert lat == expected
                assert atiyah_bott(fixed_terms_s2(n1, n2)) == expected
                assert lat.dimension() == n2 - n1

    def test_random_delzant_rectangles(self):
        rng = random.Random(99)
        for _ in range(10):
            x0 = rng.randrange(-4, 3)
            y0 = rng.randrange(-4, 3)
            P = rect(x0, x0 + rng.randrange(1, 4), y0, y0 + rng.randrange(1, 4))
            d = delzant(P)
            char = quantize_lattice(d)
            assert set(char.terms.values()) == {1}
            assert qr_check(d, fixed_terms_delzant(P)).agree
            assert quantize_lattice(d.flipped()) == -char

    def test_finiteness_guard_never_returns_infinite(self):
        # either a finite Character or InfiniteSupport, never a hang or junk
        d, _ = s2_family(0, 3)
        assert quantize_lattice(d).dimension() == 3
        with pytest.raises(InfiniteSupport):
            quantize_lattice(single_ray_data(sign=-1))
