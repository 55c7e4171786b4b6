"""Equivariance of the vertex, boundedness and quantization routines under
the lattice's affine automorphisms.

A unimodular integer matrix U and an integer shift v map the lattice to
itself, by y = U x + v.  The halfspace a.x >= b maps to
(a U^-1).y >= b + (a U^-1).v, so a piece P maps to a piece P'.  Then the
vertices of P' are the images of those of P; emptiness, boundedness and
the prequantization verdict are unchanged; each Delzant fixed-point
term t^mu / prod(1 - t^e) maps to t^(U mu + v) / prod(1 - t^(U e)); the
lattice character maps weight by weight, and an infinite support stays
infinite.  A shift by v alone moves every row of ``qr_check``'s per-weight
table by v and keeps its counts.
"""
from collections import Counter
from fractions import Fraction
from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logq import (
    DivisorWall,
    FixedPointTerm,
    Halfspace,
    LogqError,
    Polyhedron,
    PolytopePiece,
    ToricLogData,
    delzant,
    fixed_terms_delzant,
    is_bounded,
    is_empty,
    prequant_check,
    qr_check,
    quantize_lattice,
    vertices,
)


@st.composite
def unimodular(draw, rank):
    """(U, U^-1): a product of elementary integer row operations, and the
    product of their inverses in reverse order."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        op = draw(st.sampled_from(("shear", "swap", "negate")))
        if op == "shear" and i != j:
            # row i += c row j; the inverse subtracts c column i from column j.
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in inv:
                row[j] -= c * row[i]
        elif op == "swap":
            u[i], u[j] = u[j], u[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif op == "negate":
            u[i] = [-x for x in u[i]]
            for row in inv:
                row[i] = -row[i]
    assert all(
        sum(u[i][k] * inv[k][j] for k in range(rank)) == int(i == j)
        for i in range(rank) for j in range(rank)
    )
    return u, inv


@st.composite
def affine_maps(draw, rank):
    u, inv = draw(unimodular(rank))
    shift = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    return u, inv, tuple(shift)


def image(P, affine):
    """P' = {U x + v : x in P}."""
    _, inv, shift = affine
    out = []
    for h in P.halfspaces:
        a = [sum(c * inv[i][k] for i, c in enumerate(h.normal)) for k in range(P.rank)]
        out.append(Halfspace(a, h.offset + sum(x * y for x, y in zip(a, shift))))
    return Polyhedron(P.rank, out)


def push(point, affine):
    u, _, shift = affine
    return tuple(sum(r * c for r, c in zip(row, point)) + s for row, s in zip(u, shift))


def halfspaces(rank):
    normal = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any)
    offset = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))
    return st.builds(Halfspace, normal, offset)


@st.composite
def random_pieces(draw, rank):
    """Up to six random halfspaces: empty, unbounded, non-spanning, rational."""
    return Polyhedron(rank, draw(st.lists(halfspaces(rank), max_size=6)))


@st.composite
def empty_pieces(draw, rank):
    """a.x >= b and a.x <= b - gap, beside up to three random halfspaces."""
    a = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any))
    b = draw(st.integers(-4, 4))
    gap = draw(st.sampled_from((Fraction(1, 2), 1, 2)))
    extra = draw(st.lists(halfspaces(rank), max_size=3))
    pair = [Halfspace(a, b), Halfspace([-c for c in a], gap - b)]
    return Polyhedron(rank, draw(st.permutations(pair + extra)))


@st.composite
def boxes(draw, rank):
    """Integer boxes, in rank 2 with at most one corner cut by a diagonal,
    so most are Delzant."""
    lo = draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    side = draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    hs = []
    for i in range(rank):
        e = [int(k == i) for k in range(rank)]
        hs += [Halfspace(e, lo[i]), Halfspace([-c for c in e], -lo[i] - side[i])]
    if rank == 2 and draw(st.booleans()):
        sx, sy = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        cx = lo[0] + side[0] * (sx > 0)
        cy = lo[1] + side[1] * (sy > 0)
        k = draw(st.integers(1, 4))
        hs.append(Halfspace((-sx, -sy), -(sx * cx + sy * cy) + k))
    return Polyhedron(rank, hs)


def with_map(pieces):
    return st.integers(1, 3).flatmap(lambda r: st.tuples(pieces(r), affine_maps(r)))


def one_piece(P):
    return ToricLogData(
        rank=P.rank, components=("C",), pieces=(PolytopePiece("C", P),), base_component="C"
    )


def outcome(P, affine=None):
    """fixed_terms_delzant's terms, pushed by ``affine``, as a multiset; or
    the type of the error it raises."""
    try:
        terms = fixed_terms_delzant(P)
    except LogqError as exc:
        return type(exc).__name__
    if affine is None:
        return Counter((t.sign, t.mu, tuple(sorted(t.weights))) for t in terms)
    linear = (affine[0], affine[1], (0,) * P.rank)
    return Counter(
        (t.sign, push(t.mu, affine), tuple(sorted(push(e, linear) for e in t.weights)))
        for t in terms
    )


pieces = st.one_of(with_map(random_pieces), with_map(empty_pieces), with_map(boxes))


class TestEquivariance:
    @settings(max_examples=150, deadline=None)
    @given(pieces)
    def test_vertices_map_to_images(self, case):
        P, affine = case
        assert vertices(image(P, affine)) == sorted(push(x, affine) for x in vertices(P))

    @settings(max_examples=150, deadline=None)
    @given(pieces)
    def test_emptiness_and_boundedness_are_kept(self, case):
        P, affine = case
        Q = image(P, affine)
        assert (is_empty(Q), is_bounded(Q)) == (is_empty(P), is_bounded(P))

    @settings(max_examples=150, deadline=None)
    @given(pieces)
    def test_prequant_verdict_is_kept(self, case):
        P, affine = case
        assert prequant_check(one_piece(image(P, affine))) == prequant_check(one_piece(P))

    @settings(max_examples=150, deadline=None)
    @given(pieces)
    def test_delzant_terms_map_to_images(self, case):
        P, affine = case
        assert outcome(image(P, affine)) == outcome(P, affine)


class TestEmptyIsBounded:
    @settings(max_examples=150, deadline=None)
    @given(with_map(empty_pieces))
    # x >= 1 and -x >= 0 in rank 3: the normals do not span.
    @example((Polyhedron(3, [Halfspace((1, 0, 0), 1), Halfspace((-1, 0, 0), 0)]),
              ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],) * 2 + ((0, 0, 0),)))
    def test_every_empty_piece_is_bounded(self, case):
        P, affine = case
        for piece in (P, image(P, affine)):
            assert is_empty(piece)
            assert is_bounded(piece)
            assert vertices(piece) == []
            assert fixed_terms_delzant(piece) == []


def signed(plus, minus):
    """Toric log data with the pieces ``plus`` on the base side of one wall
    (sign +1) and ``minus`` on the other (sign -1)."""
    rank = (plus + minus)[0].rank
    return ToricLogData(
        rank=rank,
        components=("A", "B"),
        walls=(DivisorWall("w", (1,) + (0,) * (rank - 1), ("A", "B")),),
        pieces=tuple(PolytopePiece("A", P) for P in plus)
        + tuple(PolytopePiece("B", P) for P in minus),
        base_component="A",
    )


@st.composite
def welded(draw, rank):
    """The box lo <= x < lo + side as the 2^rank orthants x_i >= c_i, c_i in
    {lo_i, lo_i + side_i}, with sign (-1)^(number of upper corners); so the
    signed sum is finite.  With ``drop``, one orthant is left out, and the
    support is infinite."""
    lo = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    side = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    corners = list(product((0, 1), repeat=rank))
    drop = draw(st.sampled_from([None] + corners))
    plus, minus = [], []
    for b in corners:
        if b != drop:
            hs = [Halfspace([int(k == i) for k in range(rank)], lo[i] + b[i] * side[i])
                  for i in range(rank)]
            (minus if sum(b) % 2 else plus).append(Polyhedron(rank, hs))
    return plus, minus


@st.composite
def two_sided(draw, rank):
    """One piece of each sign, each a box or up to three random halfspaces."""
    def piece():
        return st.one_of(boxes(rank), st.builds(
            Polyhedron, st.just(rank), st.lists(halfspaces(rank), min_size=1, max_size=3)))
    return [draw(piece())], [draw(piece())]


def signed_pieces():
    return st.integers(1, 3).flatmap(
        lambda r: st.tuples(st.one_of(welded(r), two_sided(r)), affine_maps(r))
    )


def lattice_outcome(plus, minus, affine=None):
    """quantize_lattice's character on the pieces, pushed by ``affine``, or
    the type of the error it raises."""
    try:
        char = quantize_lattice(signed(plus, minus), box_cap=10**4)
    except LogqError as exc:
        return type(exc).__name__
    if affine is None:
        return dict(char.terms)
    return {push(w, affine): m for w, m in char.terms.items()}


def shift(v):
    rank = len(v)
    eye = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return eye, eye, tuple(v)


@st.composite
def qr_jobs(draw, rank):
    """(P, terms): a box with its Delzant terms, which agree (no terms when
    a cut corner makes it not Delzant), or the lower corner p of a box as
    the piece against the term t^(p + e_1), which does not."""
    P = draw(boxes(rank))
    if draw(st.booleans()):
        try:
            return P, fixed_terms_delzant(P)
        except LogqError:
            return P, []
    p = [int(h.offset) for h in P.halfspaces[:2 * rank:2]]
    point = Polyhedron(rank, [h for i, c in enumerate(p) for h in (
        Halfspace([int(k == i) for k in range(rank)], c),
        Halfspace([-int(k == i) for k in range(rank)], -c))])
    return point, [FixedPointTerm(1, [c + (i == 0) for i, c in enumerate(p)])]


def moved(t, v):
    return FixedPointTerm(t.sign, [a + b for a, b in zip(t.mu, v)], t.weights)


def qr_outcome(P, terms):
    """qr_check's report on the Delzant data of P, as plain values, or the
    type of the error it raises."""
    try:
        report = qr_check(delzant(P), terms)
    except LogqError as exc:
        return type(exc).__name__
    return (report.agree, dict(report.lattice_char.terms),
            dict(report.fixedpoint_char.terms), report.per_weight_table)


class TestQuantizeLattice:
    @settings(max_examples=80, deadline=None)
    @given(signed_pieces())
    def test_character_and_infinite_support_map_to_images(self, case):
        (plus, minus), affine = case
        mapped = lattice_outcome([image(P, affine) for P in plus],
                                 [image(P, affine) for P in minus])
        expected = lattice_outcome(plus, minus, affine)
        # A map moves the arrangement's vertex box, so the box cap is not kept.
        assume("SizeLimit" not in (mapped, expected))
        assert mapped == expected


class TestQRCheckTranslation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda r: st.tuples(
        qr_jobs(r), st.lists(st.integers(-6, 6), min_size=r, max_size=r))))
    def test_report_moves_with_the_data(self, case):
        (P, terms), v = case
        before = qr_outcome(P, terms)
        after = qr_outcome(image(P, shift(v)), [moved(t, v) for t in terms])
        if isinstance(before, str):
            assert after == before
            return
        agree, lat, fp, table = before
        assert after == (
            agree,
            {push(w, shift(v)): m for w, m in lat.items()},
            {push(w, shift(v)): m for w, m in fp.items()},
            tuple((push(w, shift(v)), *counts) for w, *counts in table),
        )
