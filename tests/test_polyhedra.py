"""Exact polyhedral geometry tests."""
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logq import (
    Cell,
    Halfspace,
    Polyhedron,
    SizeLimit,
    arrangement_cells_with_points,
    is_bounded,
    is_empty,
    lattice_points,
    strongly_convex,
    vertices,
)
from logq import polyhedra
from logq.polyhedra import arrangement_vertex_box


def interval(lo=None, hi=None):
    hs = []
    if lo is not None:
        hs.append(Halfspace((1,), lo))
    if hi is not None:
        hs.append(Halfspace((-1,), -hi))
    return Polyhedron(1, hs)


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


TRIANGLE = Polyhedron(
    2, [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), -2)]
)


class TestIsEmpty:
    def test_contradictory_rays(self):
        assert is_empty(Polyhedron(1, [Halfspace((1,), 0), Halfspace((-1,), 1)]))

    def test_halfline(self):
        assert not is_empty(interval(lo=0))

    def test_square(self):
        assert not is_empty(rect(0, 2, 0, 2))

    def test_rational_data(self):
        thin = Polyhedron(
            1, [Halfspace((Fraction(2, 3),), Fraction(1, 2)), Halfspace((-1,), Fraction(-3, 4))]
        )
        assert not is_empty(thin)  # 3/4 <= x <= 3/4

    def test_rank_cap(self):
        with pytest.raises(SizeLimit):
            is_empty(Polyhedron(4, [Halfspace((1, 0, 0, 0), 0)]))


class TestIsBounded:
    def test_square(self):
        assert is_bounded(rect(0, 2, 0, 2))

    def test_ray(self):
        assert not is_bounded(interval(lo=3))

    def test_line(self):
        line = Polyhedron(2, [Halfspace((1, 1), 0), Halfspace((-1, -1), 0)])
        assert not is_bounded(line)

    def test_empty_vacuously_bounded(self):
        assert is_bounded(Polyhedron(2, [Halfspace((1, 0), 0), Halfspace((-1, 0), 1)]))

    def test_triangle(self):
        assert is_bounded(TRIANGLE)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_no_halfspaces(self, rank):
        assert not is_bounded(Polyhedron(rank))

    def test_parallel_normals_in_rank_three(self):
        slab = [Halfspace((1, 2, -1), 0), Halfspace((-2, -4, 2), -3), Halfspace((1, 2, -1), 1)]
        assert not is_bounded(Polyhedron(3, slab))

    def test_normals_spanning_a_plane_in_rank_three(self):
        # A bounded triangle in the xy-plane, extruded along the z-axis.
        prism = [Halfspace((1, 0, 0), 0), Halfspace((0, 1, 0), 0), Halfspace((-1, -1, 0), -2)]
        assert not is_bounded(Polyhedron(3, prism))


class TestVertices:
    def test_interval(self):
        assert vertices(interval(0, 2)) == [(Fraction(0),), (Fraction(2),)]

    def test_triangle(self):
        assert vertices(TRIANGLE) == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(2)),
            (Fraction(2), Fraction(0)),
        ]

    def test_ray_has_one_vertex(self):
        assert vertices(interval(lo=3)) == [(Fraction(3),)]

    def test_vertices_lie_in_polyhedron_with_enough_active_facets(self):
        for P in [rect(-1, 3, 0, 2), TRIANGLE, interval(0, 5)]:
            for v in vertices(P):
                assert P.contains(v)
                active = sum(
                    1
                    for h in P.halfspaces
                    if sum(a * x for a, x in zip(h.normal, v)) == h.offset
                )
                assert active >= P.rank

    def test_duplicate_halfspaces_ignored(self):
        P = Polyhedron(1, [Halfspace((1,), 0), Halfspace((2,), 0), Halfspace((-1,), -2)])
        assert vertices(P) == [(Fraction(0),), (Fraction(2),)]


class TestLatticePoints:
    def test_interval(self):
        assert lattice_points(interval(0, 2), [(-5, 5)]) == [(0,), (1,), (2,)]

    def test_square_count_matches_brute_force(self):
        # independent brute-force oracle
        expected = [
            (x, y) for x in range(-4, 5) for y in range(-4, 5) if 0 <= x <= 2 and 0 <= y <= 2
        ]
        assert len(expected) == 9
        assert lattice_points(rect(0, 2, 0, 2), [(-4, 4), (-4, 4)]) == expected

    def test_empty_polyhedron(self):
        P = Polyhedron(1, [Halfspace((1,), 0), Halfspace((-1,), 1)])
        assert lattice_points(P, [(-3, 3)]) == []

    def test_volume_cap(self):
        with pytest.raises(SizeLimit):
            lattice_points(rect(0, 2, 0, 2), [(-10**4, 10**4), (-10**4, 10**4)])

    def test_nested_box_consistency(self):
        P = TRIANGLE
        small = lattice_points(P, [(-1, 1), (-1, 1)])
        large = lattice_points(P, [(-3, 3), (-3, 3)])
        inside = [p for p in large if all(-1 <= c <= 1 for c in p)]
        assert small == inside

    def test_stabilizes_once_box_covers_vertices(self):
        P = TRIANGLE  # vertices within [0,2]^2
        assert lattice_points(P, [(-2, 2), (-2, 2)]) == lattice_points(
            P, [(-6, 6), (-6, 6)]
        )


    def test_box_cap_counts_box_volume_not_points(self):
        point = rect(0, 0, 0, 0)
        box = [(-2, 2), (-2, 2)]  # volume 25, one point inside
        with pytest.raises(SizeLimit, match="box volume 25 exceeds cap 24"):
            lattice_points(point, box, volume_cap=24)
        assert lattice_points(point, box, volume_cap=25) == [(0, 0)]
        empty = Polyhedron(2, [Halfspace((1, 0), 1), Halfspace((-1, 0), 0)])
        with pytest.raises(SizeLimit):
            lattice_points(empty, box, volume_cap=24)

    def test_empty_box_interval(self):
        assert lattice_points(rect(0, 2, 0, 2), [(0, 2), (1, 0)]) == []
        assert lattice_points(rect(0, 2, 0, 2), [(3, 2), (0, 2)]) == []


# Random polyhedra of rank 1-3: a few halfspaces with small normals and
# rational offsets, so both bounded and unbounded pieces (and empty ones) occur.
_small_rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _polyhedron(draw, rank):
    normals = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).filter(any)
    hs = draw(st.lists(st.builds(Halfspace, normals, _small_rational), max_size=6))
    return Polyhedron(rank, hs)


@st.composite
def _polyhedron_and_box(draw):
    rank = draw(st.integers(1, 3))
    P = draw(_polyhedron(rank))
    box = []
    for _ in range(rank):
        lo = draw(st.integers(-4, 3))
        box.append((lo, lo + draw(st.integers(-1, 5))))  # hi = lo - 1 is an empty interval
    return P, box


def _fraction_member(P, point):
    """Direct Fraction evaluation of every halfspace, independent of its row."""
    return all(
        sum(a * Fraction(x) for a, x in zip(h.normal, point)) >= h.offset
        for h in P.halfspaces
    )


class TestScanlineOracles:
    @settings(max_examples=300, deadline=None)
    @given(_polyhedron_and_box())
    def test_lattice_points_match_box_filter(self, case):
        P, box = case
        expected = [
            pt
            for pt in product(*[range(lo, hi + 1) for lo, hi in box])
            if _fraction_member(P, pt)
        ]
        assert lattice_points(P, box) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                _polyhedron(r), st.lists(_small_rational, min_size=r, max_size=r)
            )
        )
    )
    def test_contains_matches_fraction_evaluation(self, case):
        P, point = case
        assert P.contains(point) == _fraction_member(P, point)
        assert P.contains([str(c) for c in point]) == _fraction_member(P, point)

    def test_contains_rejects_floats(self):
        with pytest.raises(TypeError):
            rect(0, 2, 0, 2).contains((0.5, 1))

    def test_contains_rank_mismatch(self):
        with pytest.raises(ValueError):
            rect(0, 2, 0, 2).contains((1,))


class TestStronglyConvex:
    def test_opposite_rays(self):
        # witness: (1/2) * (+1) + (1/2) * (-1) == 0
        assert Fraction(1, 2) * 1 + Fraction(1, 2) * (-1) == 0
        assert not strongly_convex([(1,), (-1,)])

    def test_orthants(self):
        assert strongly_convex([(1, 0), (0, 1)])

    def test_empty(self):
        assert strongly_convex([])

    def test_scaling_invariance(self):
        base = [(1, 0), (0, 1), (1, 1)]
        assert strongly_convex(base) == strongly_convex(base + [(3, 0)])
        flat = [(1, 1), (-2, -2)]
        assert strongly_convex(flat) == strongly_convex(flat + [(Fraction(1, 2), Fraction(1, 2))])

    def test_zero_vector_never_strongly_convex(self):
        assert not strongly_convex([(0, 0)])

    def test_planar_dependence(self):
        assert not strongly_convex([(1, 0), (-1, 1), (-1, -1)])
        assert strongly_convex([(1, 0), (1, 1), (1, -1)])

    def test_rational_inputs(self):
        assert not strongly_convex([(Fraction(1, 3),), (Fraction(-2, 7),)])

    def test_generator_cap(self):
        with pytest.raises(SizeLimit):
            strongly_convex([(1,)] * 17)

    def test_dimension_cap(self):
        assert strongly_convex([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(SizeLimit, match="ambient dimension 4 exceeds cap 3"):
            strongly_convex([(1, 0, 0, 0)])


def _witness_point(witness):
    """The rational point of a sweep witness: integer numerators over a
    positive common denominator, in lowest terms."""
    p, q = witness
    assert all(type(c) is int for c in p) and type(q) is int and q > 0
    assert gcd(q, *p) == 1
    return tuple(Fraction(c, q) for c in p)


def cells(hps):
    """The cells of the arrangement, without their witnesses."""
    return [cell for cell, _ in arrangement_cells_with_points([h.row for h in hps])]


class TestArrangementCells:
    def test_single_hyperplane(self):
        found = cells([Halfspace((1,), 0)])
        assert [c.sign_vector for c in found] == [(-1,), (0,), (1,)]
        assert [c.bounded for c in found] == [False, True, False]

    def test_two_points_on_line(self):
        found = cells([Halfspace((1,), 0), Halfspace((1,), 3)])
        assert len(found) == 5
        assert sum(1 for c in found if not c.bounded) == 2
        assert [c.sign_vector for c in found] == [
            (-1, -1),
            (0, -1),
            (1, -1),
            (1, 0),
            (1, 1),
        ]

    def test_duplicate_hyperplane_contradictions_omitted(self):
        found = cells([Halfspace((1,), 0), Halfspace((1,), 0)])
        assert [c.sign_vector for c in found] == [(-1, -1), (0, 0), (1, 1)]

    def test_plane_arrangement_counts(self):
        # two crossing lines: 4 open quadrants, 4 open half-lines, 1 point
        found = cells([Halfspace((1, 0), 0), Halfspace((0, 1), 0)])
        assert len(found) == 9
        assert sum(1 for c in found if c.bounded) == 1

    def test_witness_points_realize_signs(self):
        hps = [Halfspace((1, 0), 0), Halfspace((0, 1), 1), Halfspace((1, 1), 2)]
        for cell, witness in arrangement_cells_with_points([h.row for h in hps]):
            point = _witness_point(witness)
            for h, s in zip(hps, cell.sign_vector):
                val = sum(a * x for a, x in zip(h.normal, point))
                if s > 0:
                    assert val > h.offset
                elif s < 0:
                    assert val < h.offset
                else:
                    assert val == h.offset

    def test_hyperplane_cap(self):
        with pytest.raises(SizeLimit):
            cells([Halfspace((1,), k) for k in range(13)])

    def test_cell_type(self):
        (c, *_), = [cells([Halfspace((1,), 0)])[:1]]
        assert isinstance(c, Cell)

    @pytest.mark.parametrize("fn", [arrangement_cells_with_points, arrangement_vertex_box])
    def test_zero_normal_row_rejected(self, fn):
        # A Halfspace refuses a zero normal; so do the functions taking raw rows.
        with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
            fn([((1, 0), 0), ((0, 0), 1)])


class TestHalfspaceValidation:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((0, 0), 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Halfspace((0.5, 1), 0)

    def test_rank_mismatch_in_polyhedron(self):
        with pytest.raises(ValueError):
            Polyhedron(2, [Halfspace((1,), 0)])

    def test_integer_row_is_primitive(self):
        assert Halfspace((Fraction(1, 2), -1), Fraction(3, 4)).row == ((2, -4), 3)
        assert Halfspace((2, 4), 6).row == ((1, 2), 3)
        assert Halfspace((0, -3), 0).row == ((0, -1), 0)

    def test_row_stays_out_of_equality_and_repr(self):
        assert Halfspace((2,), 0) != Halfspace((1,), 0)  # same row, other normal
        assert Halfspace((2,), 0) == Halfspace((Fraction(4, 2),), "0")
        assert "row" not in repr(Halfspace((2,), 0))

    def test_json_round_trip(self):
        P = Polyhedron(2, [Halfspace((Fraction(1, 2), -1), Fraction(3, 4))])
        obj = P.to_jsonable()
        assert obj["halfspaces"][0]["normal"] == ["1/2", "-1/1"]
        assert obj["halfspaces"][0]["offset"] == "3/4"
        assert Polyhedron.from_jsonable(obj) == P


# ---------------------------------------------------------------------------
# Independent oracles for the arrangement sweep, in Fraction arithmetic.


def _rank_of(rows):
    """Rank of a list of rational row vectors, by Gaussian elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _fraction_det(rows):
    """Determinant of a square rational matrix, by Gaussian elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def _solve(rows, rhs):
    """The unique solution of a square rational system, or None if singular."""
    n = len(rows)
    m = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _sign(v):
    return (v > 0) - (v < 0)


def _arrangement_signs(hps, point):
    return tuple(_sign(_dot(h.normal, point) - h.offset) for h in hps)


def _brute_force_sign_vectors(hps):
    """Every s in {-1, 0, 1}^H that some point realizes.

    The arrangement is first restricted to the span of its normals, in the
    coordinates of a basis of normals, so that its normals span and every
    nonempty closed cell {x : sign(x) <= s} is a pointed polyhedron: the
    convex hull of the arrangement vertices in it plus the cone of the
    candidate rays in it.  The mean of those vertices plus the sum of those
    rays lies in the relative interior, which is the open cell; so s is a
    cell iff that point realizes s.
    """
    basis = []
    for h in hps:
        if _rank_of(basis + [h.normal]) > len(basis):
            basis.append(h.normal)
    k = len(basis)
    rows = [(tuple(_dot(h.normal, n) for n in basis), h.offset) for h in hps]

    def signs(point, affine=True):
        return tuple(_sign(_dot(a, point) - (b if affine else 0)) for a, b in rows)

    verts = []
    for sub in combinations(rows, k):
        x = _solve([a for a, _ in sub], [b for _, b in sub])
        if x is not None:
            verts.append((x, signs(x)))
    rays = []
    for sub in combinations([a for a, _ in rows], k - 1):
        for j in range(k):
            unit = tuple(int(i == j) for i in range(k))
            d = _solve(list(sub) + [unit], [0] * (k - 1) + [1])
            if d is not None:
                for ray in (d, [-c for c in d]):
                    rays.append((ray, signs(ray, affine=False)))
                break

    def inside(sv, s):
        return all(c == 0 or c == si for c, si in zip(sv, s))

    found = set()
    for s in product((-1, 0, 1), repeat=len(rows)):
        vs = [x for x, sv in verts if inside(sv, s)]
        if not vs:
            continue
        point = [sum(c) / len(vs) for c in zip(*vs)]
        for d, sv in rays:
            if inside(sv, s):
                point = [x + c for x, c in zip(point, d)]
        if signs(point) == s:
            found.add(s)
    return found


def _characteristic_polynomial(hps):
    """chi(t) of the arrangement as {dimension: coefficient}, from its
    intersection poset: sum over nonempty flats X of mu(R^r, X) t^dim(X).

    A flat is identified by the set of hyperplanes that contain it; every
    flat is cut out by at most r of them.
    """
    r = len(hps[0].normal)
    aug = [tuple(h.normal) + (h.offset,) for h in hps]
    flats = {}
    for size in range(r + 1):
        for sub in combinations(range(len(hps)), size):
            rk = _rank_of([hps[i].normal for i in sub])
            if _rank_of([aug[i] for i in sub]) != rk:
                continue  # the hyperplanes do not meet
            on = frozenset(
                i for i in range(len(hps)) if _rank_of([aug[j] for j in sub] + [aug[i]]) == rk
            )
            flats[on] = r - rk
    mu = {}
    for X in sorted(flats, key=len):
        mu[X] = 1 if not X else -sum(m for Y, m in mu.items() if Y < X)
    chi = {}
    for X, dim in flats.items():
        chi[dim] = chi.get(dim, 0) + mu[X]
    return chi


def _closure(hps, sign_vector):
    """The closed halfspaces cutting out the closure of a cell."""
    out = set()
    for h, s in zip(hps, sign_vector):
        if s >= 0:
            out.add(h)
        if s <= 0:
            out.add(Halfspace([-c for c in h.normal], -h.offset))
    return out


def _outside_box(box):
    """The 2r closed halfspaces just outside an integer box."""
    r = len(box)
    for j, (lo, hi) in enumerate(box):
        unit = [int(i == j) for i in range(r)]
        yield Halfspace(unit, hi + 1)
        yield Halfspace([-c for c in unit], 1 - lo)


_offset = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _arrangement(draw, max_size):
    """Rank 1-3 arrangements with repeated, parallel and, through normals
    kept in a coordinate hyperplane, non-spanning hyperplanes."""
    rank = draw(st.integers(1, 3))
    k = rank - (rank > 1 and draw(st.booleans()))
    normal = st.lists(st.integers(-2, 2), min_size=k, max_size=k).filter(any)
    hps = []
    for _ in range(draw(st.integers(1, max_size))):
        how = draw(st.sampled_from(["new", "new", "parallel", "repeat"])) if hps else "new"
        if how == "repeat":
            hps.append(draw(st.sampled_from(hps)))
        elif how == "parallel":
            n = draw(st.sampled_from(hps)).normal
            hps.append(Halfspace([c * draw(st.sampled_from([-2, -1, 1])) for c in n], draw(_offset)))
        else:
            hps.append(Halfspace(draw(normal) + [0] * (rank - k), draw(_offset)))
    return hps


class TestSweepOracles:
    @settings(max_examples=200, deadline=None)
    @given(_arrangement(max_size=8))
    def test_region_counts_match_zaslavsky(self, hps):
        found = cells(hps)
        regions = [c for c in found if 0 not in c.sign_vector]
        chi = _characteristic_polynomial(hps)
        assert len(regions) == abs(sum(m * (-1) ** d for d, m in chi.items()))
        rank = len(hps[0].normal)
        spanning = _rank_of([h.normal for h in hps]) == rank
        # Zaslavsky counts relatively bounded regions; with normals that do
        # not span, every region contains a line and none is bounded.
        bounded = abs(sum(chi.values())) if spanning else 0
        assert sum(c.bounded for c in regions) == bounded

    @settings(max_examples=100, deadline=None)
    @given(_arrangement(max_size=6))
    def test_sign_vectors_match_brute_force(self, hps):
        got = [c.sign_vector for c in cells(hps)]
        assert got == sorted(got)
        assert set(got) == _brute_force_sign_vectors(hps)

    @settings(max_examples=150, deadline=None)
    @given(_arrangement(max_size=7))
    def test_witnesses_and_bounded_flags(self, hps):
        rank = len(hps[0].normal)
        # With no vertex box there is no bounded cell, and any box will do.
        box = arrangement_vertex_box([h.row for h in hps]) or [(0, 0)] * rank
        for cell, witness in arrangement_cells_with_points([h.row for h in hps]):
            point = _witness_point(witness)
            assert _arrangement_signs(hps, point) == cell.sign_vector
            closure = _closure(hps, cell.sign_vector)
            leaves_box = any(
                not is_empty(Polyhedron(rank, closure | {h})) for h in _outside_box(box)
            )
            assert cell.bounded == (not leaves_box)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(_polyhedron))
    def test_is_bounded_matches_vertex_box(self, P):
        if is_empty(P):
            expected = True
        else:
            # A nonempty bounded polyhedron is the hull of its vertices.
            vs = vertices(P)
            box = [(floor(min(c)), ceil(max(c))) for c in zip(*vs)]
            expected = bool(vs) and all(
                is_empty(Polyhedron(P.rank, P.halfspaces + (h,))) for h in _outside_box(box)
            )
        assert is_bounded(P) == expected

    def test_normals_in_a_plane_leave_every_cell_unbounded(self):
        hps = [Halfspace((1, 0, 0), 0), Halfspace((0, 1, 0), 0), Halfspace((1, 1, 0), 1)]
        found = cells(hps)
        assert len(found) == len(_brute_force_sign_vectors(hps)) == 19
        assert not any(c.bounded for c in found)

    def test_triangle_arrangement(self):
        hps = list(TRIANGLE.halfspaces)
        found = cells(hps)
        # 7 regions, 9 edges, 3 vertices; bounded: the triangle, its edges and vertices
        assert len(found) == 19
        assert sum(c.bounded for c in found) == 7
        assert ((1, 1, 1), True) in [(c.sign_vector, c.bounded) for c in found]

    @settings(max_examples=200, deadline=None)
    @given(_arrangement(max_size=8))
    def test_sweep_needs_no_fm(self, hps):
        fm = mock.patch.object(
            polyhedra, "_fm_feasible", side_effect=AssertionError("FM call in the sweep")
        )
        with fm:
            cells = arrangement_cells_with_points([h.row for h in hps])
        assert [_arrangement_signs(hps, _witness_point(w)) for _, w in cells] == [
            c.sign_vector for c, _ in cells
        ]

    def test_hyperplane_in_both_orientations_and_a_parallel_one(self):
        hps = [
            Halfspace((1, 0), 0),
            Halfspace((-1, 0), 0),
            Halfspace((1, 0), 1),
            Halfspace((0, 1), 0),
        ]
        cells = arrangement_cells_with_points([h.row for h in hps])
        assert {c.sign_vector for c, _ in cells} == _brute_force_sign_vectors(hps)
        assert len(cells) == 15
        for cell, witness in cells:
            assert _arrangement_signs(hps, _witness_point(witness)) == cell.sign_vector
        # The two points on y = 0 and the open segment between them.
        assert sorted(c.sign_vector for c, _ in cells if c.bounded) == [
            (0, 0, -1, 0),
            (1, -1, -1, 0),
            (1, -1, 0, 0),
        ]


def _axis_planes():
    return [Halfspace([int(i == k) for i in range(3)], c) for k in range(3) for c in range(4)]


def _cube_and_diagonals():
    cube = [Halfspace([int(i == k) for i in range(3)], c) for k in range(3) for c in (0, 1)]
    normals = [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1)]
    return cube + [Halfspace(n, 1) for n in normals]


def _random_planes():
    rng = random.Random(0)
    return [
        Halfspace(
            [rng.randint(-5, 5) or 1 for _ in range(3)],
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )
        for _ in range(12)
    ]


class TestTwelvePlanes:
    """The three fixed 12-plane rank-3 arrangements at the hyperplane cap."""

    @pytest.mark.parametrize(
        "planes, count",
        [(_axis_planes, 729), (_cube_and_diagonals, 621), (_random_planes, 2017)],
    )
    def test_cells_match_zaslavsky_in_time(self, planes, count):
        hps = planes()
        start = time.perf_counter()
        found = cells(hps)
        elapsed = time.perf_counter() - start
        assert len(found) == count
        regions = [c for c in found if 0 not in c.sign_vector]
        chi = _characteristic_polynomial(hps)
        assert len(regions) == abs(sum(m * (-1) ** d for d, m in chi.items()))
        assert sum(c.bounded for c in regions) == abs(sum(chi.values()))
        assert elapsed < 5.0


def _masks(sign_vector):
    """A sign vector as (zero mask, positive mask)."""
    zero = sum(1 << i for i, c in enumerate(sign_vector) if c == 0)
    return zero, sum(1 << i for i, c in enumerate(sign_vector) if c > 0)


def _unbounded_masks(hps):
    """The unbounded cells, as (zero mask, positive mask), decided by FM.

    A cell is unbounded iff the recession cone of its closure,
    {d : s_i (a_i . d) >= 0, and a_i . d = 0 where s_i = 0}, is not the
    origin, that is iff it holds a d with d_j = +-1 for some coordinate j.
    Each (j, +-1) is one FM call with d_j substituted.  The sign vectors
    come from the sweep, which the brute-force oracle checks on its own.
    """
    rank = len(hps[0].normal)
    out = set()
    for cell in cells(hps):
        cone = [
            tuple(t * c for c in h.row[0])
            for h, s in zip(hps, cell.sign_vector)
            for t in ((s,) if s else (1, -1))
        ]
        if any(
            polyhedra._fm_feasible(
                [(a[:j] + a[j + 1:], -u * a[j], polyhedra._GE) for a in cone], rank - 1
            )
            for j in range(rank)
            for u in (1, -1)
        ):
            out.add(_masks(cell.sign_vector))
    return out


def _recession_masks(hps):
    return polyhedra._unbounded_cells([h.row for h in hps], len(hps[0].normal))


class TestUnboundedCells:
    """The recession route lists exactly the unbounded cells, and the sweep
    flags exactly those, by an FM reference on each cell's recession cone."""

    @settings(max_examples=300, deadline=None)
    @given(_arrangement(max_size=8))
    def test_matches_sweep(self, hps):
        expected = _unbounded_masks(hps)
        assert _recession_masks(hps) == expected
        assert {_masks(c.sign_vector) for c in cells(hps) if not c.bounded} == expected

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_single_hyperplane(self, rank):
        hps = [Halfspace([1] + [0] * (rank - 1), Fraction(1, 2))]
        # Rank 1: the two open rays; above, the plane itself is unbounded too.
        expected = {(0, 0), (0, 1)} | ({(1, 0)} if rank > 1 else set())
        assert _recession_masks(hps) == _unbounded_masks(hps) == expected

    def test_parallel_hyperplanes(self):
        hps = [Halfspace((1, 2), c) for c in (-1, 0, 3)] + [Halfspace((-2, -4), 1)]
        assert _recession_masks(hps) == _unbounded_masks(hps)

    def test_normals_that_do_not_span(self):
        # Every cell contains a line along the third axis.
        hps = [Halfspace((1, 0, 0), 0), Halfspace((0, 1, 0), 1), Halfspace((1, 1, 0), 3)]
        found = _unbounded_masks(hps)
        assert len(found) == len(cells(hps))
        assert _recession_masks(hps) == found

    @pytest.mark.parametrize("planes", [_axis_planes, _cube_and_diagonals, _random_planes])
    def test_twelve_planes(self, planes):
        hps = planes()
        expected = _unbounded_masks(hps)
        assert _recession_masks(hps) == expected
        assert {_masks(c.sign_vector) for c in cells(hps) if not c.bounded} == expected


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-10**12, 10**12) | st.integers(-3, 3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_fraction_elimination(self, rows):
        m = [tuple(r) for r in rows]
        assert polyhedra._det(m) == _fraction_det(m)

    def test_past_rank_cap(self):
        with pytest.raises(ValueError):
            polyhedra._det([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


# ---------------------------------------------------------------------------
# Independent oracles for vertices, the vertex box and strong convexity, by
# Fraction Gaussian elimination in this file.


def _fraction_vertices(P):
    """Every feasible unique solution of rank-many facet equalities."""
    found = set()
    for sub in combinations(P.halfspaces, P.rank):
        x = _solve([h.normal for h in sub], [h.offset for h in sub])
        if x is not None and _fraction_member(P, x):
            found.add(tuple(x))
    return sorted(found)


def _fraction_vertex_box(hps):
    points = []
    for sub in combinations(hps, len(hps[0].normal)):
        x = _solve([h.normal for h in sub], [h.offset for h in sub])
        if x is not None:
            points.append(x)
    if not points:
        return None
    return [(floor(min(c)), ceil(max(c))) for c in zip(*points)]


def _origin_in_hull(vecs):
    """Caratheodory: 0 is a convex combination of the vectors iff it is one of
    an affinely independent subset, whose weights are then unique."""
    dim = len(vecs[0])
    rhs = [0] * dim + [1]
    for k in range(1, min(len(vecs), dim + 1) + 1):
        for sub in combinations(vecs, k):
            cols = [tuple(v) + (1,) for v in sub]
            if _rank_of(cols) < k:
                continue  # affinely dependent
            rows = list(zip(*cols))  # sum_i t_i (v_i, 1) = (0, 1)
            basis = []
            for i in range(len(rows)):
                if _rank_of([rows[j] for j in basis + [i]]) > len(basis):
                    basis.append(i)
            t = _solve([rows[i] for i in basis], [rhs[i] for i in basis])
            if all(_dot(r, t) == b for r, b in zip(rows, rhs)) and min(t) >= 0:
                return True
    return False


@st.composite
def _generators(draw):
    """Rank 1-3 cone generators, some zero, some rational, some a multiple
    (possibly negative) of an earlier one."""
    dim = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-2, 2), _offset)
    vecs = []
    for _ in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(["new"] * 4 + ["multiple"] * 2 + ["zero"])) if vecs else "new"
        if how == "zero":
            vecs.append((0,) * dim)
        elif how == "multiple":
            scale = draw(st.sampled_from([-2, -1, Fraction(-1, 3), Fraction(1, 2), 3]))
            vecs.append(tuple(c * scale for c in draw(st.sampled_from(vecs))))
        else:
            vecs.append(tuple(draw(st.lists(coord, min_size=dim, max_size=dim))))
    return vecs


class TestCramerOracles:
    @settings(max_examples=300, deadline=None)
    @given(_arrangement(max_size=7))
    def test_vertices_match_fraction_solve(self, hps):
        P = Polyhedron(len(hps[0].normal), hps)
        got = vertices(P)
        assert all(type(c) is Fraction for v in got for c in v)
        assert got == _fraction_vertices(P)

    @settings(max_examples=300, deadline=None)
    @given(_arrangement(max_size=7))
    def test_vertex_box_matches_fraction_solve(self, hps):
        box = arrangement_vertex_box([h.row for h in hps])
        assert box == _fraction_vertex_box(hps)
        assert box is None or all(type(c) is int for interval in box for c in interval)

    @settings(max_examples=500, deadline=None)
    @given(_generators())
    def test_strongly_convex_matches_caratheodory(self, vecs):
        assert strongly_convex(vecs) == (not _origin_in_hull(vecs))


def _cramer_bound(P):
    """A bound on the coordinates of some point of P, if P is nonempty.

    A minimal face of P contains the solution of a nonsingular square system
    of at most rank rows of P's integer-scaled rows [a | b], with the other
    coordinates set to 0.  By Cramer's rule each coordinate is a ratio of
    determinants of those rows, with an integer denominator, so it is at most
    M^rank in absolute value, M the largest 1-norm of a scaled row.
    """
    m = 1
    for h in P.halfspaces:
        row = h.normal + (h.offset,)
        scale = lcm(*[c.denominator for c in row])
        m = max(m, sum(abs(c * scale) for c in row))
    return m**P.rank


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(_arrangement(max_size=6))
    def test_is_empty_matches_box_vertices(self, hps):
        # P is nonempty iff P cut by the box [-R, R]^r, with R past the Cramer
        # bound, is a nonempty polytope, that is iff the cut has a vertex.
        rank = len(hps[0].normal)
        P = Polyhedron(rank, hps)
        R = _cramer_bound(P) + 1
        box = []
        for j in range(rank):
            unit = [int(i == j) for i in range(rank)]
            box += [Halfspace(unit, -R), Halfspace([-c for c in unit], -R)]
        cut = Polyhedron(rank, P.halfspaces + tuple(box))
        assert is_empty(P) == (not _fraction_vertices(cut))

    @settings(max_examples=200, deadline=None)
    @given(_arrangement(max_size=8))
    def test_kernel_builds_no_fraction(self, hps):
        P = Polyhedron(len(hps[0].normal), hps)
        with mock.patch.object(
            polyhedra, "Fraction", side_effect=AssertionError("Fraction built in the kernel")
        ):
            is_empty(P)
            arrangement_cells_with_points([h.row for h in hps])
            arrangement_vertex_box([h.row for h in hps])
