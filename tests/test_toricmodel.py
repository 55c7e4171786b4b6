"""Toric data model tests: parity, properness, prequantization, builders."""
import math
from fractions import Fraction

import pytest

from logq import (
    DivisorWall,
    EmptyPiece,
    Halfspace,
    ParityInconsistent,
    Polyhedron,
    PolytopePiece,
    Stratum,
    ToricLogData,
    Unbounded,
    delzant,
    prequant_check,
    s2_family,
    signs,
    validate,
)


def halfline(lo):
    return Polyhedron(1, [Halfspace((1,), lo)])


def interval(lo, hi):
    return Polyhedron(1, [Halfspace((1,), lo), Halfspace((-1,), -hi)])


def two_wall_data(res1, res2, strata):
    """Two components joined by two walls with the given rank-1 residues."""
    return ToricLogData(
        rank=1,
        components=("A", "B"),
        walls=(
            DivisorWall("w1", (res1,), ("A", "B")),
            DivisorWall("w2", (res2,), ("A", "B")),
        ),
        pieces=(PolytopePiece("A", interval(0, 1)),),
        strata=tuple(Stratum(s) for s in strata),
        base_component="A",
    )


class TestValidate:
    def test_s2_family_passes(self):
        d, _ = s2_family(0, 3)
        report = validate(d)
        assert report.ok
        assert [c.name for c in report.checks] == ["parity", "properness", "pieces"]

    def test_two_parallel_walls_parity_ok_but_joint_stratum_not_proper(self):
        # Cycle of length 2 is even, so parity passes with singleton strata.
        ok = two_wall_data(1, -1, [{"w1"}, {"w2"}])
        assert validate(ok).ok
        # A joint stratum has modular weights {-1, +1}: not strongly convex.
        bad = two_wall_data(1, -1, [{"w1", "w2"}])
        report = validate(bad)
        assert not report.ok
        assert report.check("parity").passed
        assert not report.check("properness").passed
        from logq import NotProper

        with pytest.raises(NotProper) as exc:
            report.raise_if_failed()
        assert exc.value.stratum is not None
        assert set(exc.value.stratum.walls) == {"w1", "w2"}

    def test_three_parallel_walls_even_cycles(self):
        d = ToricLogData(
            rank=1,
            components=("A", "B"),
            walls=tuple(
                DivisorWall(f"w{i}", (1,), ("A", "B")) for i in range(3)
            ),
            pieces=(PolytopePiece("A", interval(0, 1)),),
            strata=(),
            base_component="A",
        )
        assert validate(d).check("parity").passed

    def test_self_gluing_wall_is_an_odd_cycle(self):
        d = ToricLogData(
            rank=1,
            components=("A",),
            walls=(DivisorWall("w", (1,), ("A", "A")),),
            pieces=(),
            strata=(),
            base_component="A",
        )
        report = validate(d)
        assert not report.check("parity").passed
        with pytest.raises(ParityInconsistent):
            report.raise_if_failed()

    def test_odd_triangle_cycle(self):
        d = ToricLogData(
            rank=1,
            components=("A", "B", "C"),
            walls=(
                DivisorWall("w1", (1,), ("A", "B")),
                DivisorWall("w2", (1,), ("B", "C")),
                DivisorWall("w3", (1,), ("C", "A")),
            ),
            pieces=(),
            strata=(),
            base_component="A",
        )
        assert not validate(d).check("parity").passed

    def test_unreachable_component_rejected(self):
        d = ToricLogData(
            rank=1,
            components=("A", "B"),
            walls=(),
            pieces=(),
            strata=(),
            base_component="A",
        )
        assert not validate(d).check("parity").passed

    def test_empty_piece_detected(self):
        d = ToricLogData(
            rank=1,
            components=("A",),
            walls=(),
            pieces=(PolytopePiece("A", Polyhedron(1, [Halfspace((1,), 0), Halfspace((-1,), 1)])),),
            strata=(),
            base_component="A",
        )
        report = validate(d)
        assert not report.check("pieces").passed
        with pytest.raises(EmptyPiece):
            report.raise_if_failed()

    def test_validate_s2_sweep(self):
        for n1 in range(-3, 4):
            for n2 in range(n1, 4):
                d, _ = s2_family(n1, n2)
                assert validate(d).ok


class TestSigns:
    def test_s2_signs(self):
        d, _ = s2_family(0, 3)
        assert signs(d) == (1, -1)

    def test_single_component_all_plus(self):
        d = delzant(interval(0, 2))
        assert signs(d) == (1,)

    def test_global_sign_flips_everything(self):
        d, _ = s2_family(0, 3)
        assert signs(d.flipped()) == (-1, 1)

    def test_rerooting_changes_by_global_flip_only(self):
        d, _ = s2_family(0, 3)
        rerooted = ToricLogData(
            rank=d.rank,
            components=d.components,
            walls=d.walls,
            pieces=d.pieces,
            strata=d.strata,
            base_component="C2",
            global_sign=d.global_sign,
        )
        assert signs(rerooted) == tuple(-s for s in signs(d))

    def test_signs_raise_on_odd_cycle(self):
        d = ToricLogData(
            rank=1,
            components=("A",),
            walls=(DivisorWall("w", (1,), ("A", "A")),),
            pieces=(),
            strata=(),
            base_component="A",
        )
        with pytest.raises(ParityInconsistent):
            signs(d)


class TestPrequantCheck:
    def test_s2_integer_endpoints(self):
        d = ToricLogData(
            rank=1,
            components=("A",),
            walls=(),
            pieces=(PolytopePiece("A", halfline(0)), PolytopePiece("A", halfline(3))),
            strata=(),
            base_component="A",
        )
        assert prequant_check(d)

    def test_half_integer_vertex(self):
        d = delzant(interval(Fraction(1, 2), 2))
        assert not prequant_check(d)

    def test_vacuous(self):
        d = ToricLogData(rank=1, components=("A",), base_component="A")
        assert prequant_check(d)

    def test_matches_vertex_integrality_for_delzant(self):
        for lo, hi in [(0, 2), (Fraction(1, 3), 1), (-2, -1)]:
            d = delzant(interval(lo, hi))
            integral = Fraction(lo).denominator == 1 and Fraction(hi).denominator == 1
            assert prequant_check(d) == integral

    # A piece with no vertex passes the vertex test whatever its offsets,
    # though its facet x = 1/2 does not pair integrally with the lattice.
    @pytest.mark.xfail(strict=True, reason="a vertex-free piece passes the vertex test")
    @pytest.mark.parametrize(
        "halfspaces",
        [
            [Halfspace((1, 0), Fraction(1, 2))],
            [Halfspace((1, 0), Fraction(1, 2)), Halfspace((-1, 0), Fraction(-5, 2))],
        ],
        ids=["half-plane", "strip"],
    )
    def test_half_integer_facet_without_vertices(self, halfspaces):
        piece = PolytopePiece("A", Polyhedron(2, halfspaces))
        d = ToricLogData(rank=2, components=("A",), pieces=(piece,), base_component="A")
        assert not prequant_check(d)


class TestS2Family:
    def test_structure(self):
        d, params = s2_family(0, 3)
        assert d.rank == 1
        assert d.components == ("C1", "C2")
        assert d.base_component == "C1"
        assert len(d.walls) == 1
        # modular weight -1 on the base side means residue +1
        assert d.walls[0].residue == (Fraction(1),)
        assert d.walls[0].modular_weight() == (Fraction(-1),)
        assert [p.component for p in d.pieces] == ["C1", "C2"]
        assert d.pieces[0].region.halfspaces[0].offset == 0
        assert d.pieces[1].region.halfspaces[0].offset == 3
        assert params.n == 3

    def test_parameter_solves_log_equation(self):
        _, params = s2_family(0, 3)
        assert abs(params.a - (1 - math.e**3) / (1 + math.e**3)) < 1e-15
        assert abs(math.log((1 - params.a) / (1 + params.a)) - 3) < 3e-12

    def test_symmetric_divisor(self):
        _, params = s2_family(5, 5)
        assert params.n == 0
        assert params.a == 0.0

    def test_unit_gap(self):
        _, params = s2_family(0, 1)
        assert abs(params.a - (1 - math.e) / (1 + math.e)) < 1e-15

    def test_a_prime_places_momentum_at_n1(self):
        # mu(z) = -log|z - a| + a' must equal n1 at z = 1
        for n1, n2 in [(0, 3), (-2, 1), (4, 4)]:
            _, p = s2_family(n1, n2)
            assert abs(-math.log(abs(1 - p.a)) + p.a_prime - n1) < 1e-10
            assert abs(-math.log(abs(-1 - p.a)) + p.a_prime - n2) < 1e-10


class TestDelzantBuilder:
    def test_square(self):
        P = Polyhedron(
            2,
            [
                Halfspace((1, 0), 0),
                Halfspace((-1, 0), -2),
                Halfspace((0, 1), 0),
                Halfspace((0, -1), -2),
            ],
        )
        d = delzant(P)
        assert d.components == ("C",)
        assert d.walls == ()
        assert len(d.pieces) == 1
        assert validate(d).ok

    def test_empty_rejected(self):
        with pytest.raises(EmptyPiece):
            delzant(Polyhedron(1, [Halfspace((1,), 0), Halfspace((-1,), 1)]))

    def test_unbounded_rejected(self):
        with pytest.raises(Unbounded):
            delzant(halfline(0))


class TestToricJson:
    def test_round_trip(self):
        d, _ = s2_family(-1, 2)
        obj = d.to_jsonable()
        assert obj["walls"][0]["residue"] == ["1/1"]
        back = ToricLogData.from_jsonable(obj)
        assert back == d

    def test_referential_integrity_enforced(self):
        with pytest.raises(ValueError):
            ToricLogData(
                rank=1,
                components=("A",),
                walls=(DivisorWall("w", (1,), ("A", "Z")),),
                base_component="A",
            )
        with pytest.raises(ValueError):
            ToricLogData(rank=1, components=("A",), base_component="Z")
        with pytest.raises(ValueError):
            ToricLogData(
                rank=1,
                components=("A",),
                strata=(Stratum({"ghost"}),),
                base_component="A",
            )

    def test_rank_must_be_positive_int(self):
        for rank in (0, -1, True, "1", 1.0):
            with pytest.raises(ValueError, match="rank must be a positive integer"):
                ToricLogData(rank=rank, components=("C",), base_component="C")

    def test_global_sign_must_be_int_plus_or_minus_one(self):
        for sign in (True, False, 1.0, -1.0, 0, 2, "1"):
            with pytest.raises(ValueError, match="global_sign must be"):
                ToricLogData(rank=1, components=("C",), base_component="C", global_sign=sign)
