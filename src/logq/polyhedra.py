"""Exact rational polyhedral geometry at desk scale.

Everything is exact, with no tolerances.  Each halfspace is compiled once,
when it is built, to a primitive integer row (a, b), meaning a.x >= b, and
one small kernel works on those rows: Fourier-Motzkin elimination
(feasibility), the generalized cross product and the determinant.  FM serves
only emptiness (one call) and strong convexity (Gordan's alternative, one
call on the rows v.y >= 1).  Hyperplanes and weights are compared up to sign
in one orientation (:func:`_turned`).  The arrangement sweep finds every cell
as a region of the restriction of the arrangement to the cell's flat: a flat
is an integer point over a denominator plus an integer basis, cutting it by
a hyperplane is one integer elimination, and each region is a region of a
lower flat pushed off a hyperplane by an integer step too short to cross any
other.  A nonempty polyhedron is unbounded iff its normals do not span or
some candidate extreme ray of its recession cone, the cross product of
rank-1 normals up to sign, lies on the inner side of every facet, so
emptiness is asked last.  A cell of an arrangement is unbounded iff the
recession arrangement lists it, without sweeping the bounded cells: each
unbounded cell is a cell of the central arrangement of the normals paired
with a cell of the hyperplanes whose normals vanish on it.  The same list
certifies finite support.  The vertex cones (each vertex with its active
rows) and the arrangement vertex box solve square systems by Cramer's rule,
as the cross product of the augmented rows, with closed-form determinants up
to 3x3; and lattice points come from a scanline over a box (the last
coordinate's integer interval in closed form).  Hard caps keep inputs at the
intended desk scale; exceeding them raises :class:`SizeLimit` rather than
silently truncating.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import SizeLimit
from .jsonio import _Record, _int_text, decode_fraction, decode_int, decode_list, encode_fraction

RANK_CAP = 3
HALFSPACE_CAP = 16
ARRANGEMENT_CAP = 12
BOX_VOLUME_CAP = 10_000_000
GENERATOR_CAP = 16


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x  # immutable, so no copy is needed
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact polyhedral data; use Fraction or str")
    return Fraction(x)


class Halfspace(_Record):
    """The closed halfspace {x : <normal, x> >= offset}.

    ``row`` is the same halfspace as coprime integers ``(a, b)`` with
    a.x >= b, computed once here.  It is a plain attribute, not a field, so
    equality, hashing, repr and the JSON form see only normal and offset.
    """

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __init__(self, normal: Sequence, offset=0):
        n = tuple(_frac(c) for c in normal)
        if not any(n):
            raise ValueError("halfspace normal must be nonzero")
        off = _frac(offset)
        *a, b = _primitive(n + (off,))
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "row", (tuple(a), b))

    def to_jsonable(self) -> dict:
        return {
            "normal": [encode_fraction(c) for c in self.normal],
            "offset": encode_fraction(self.offset),
        }

    @classmethod
    def from_jsonable(cls, obj) -> "Halfspace":
        normal = [decode_fraction(c) for c in decode_list(obj["normal"])]
        return cls(normal, decode_fraction(obj["offset"]))


class Polyhedron(_Record):
    """Intersection of finitely many closed halfspaces; may be empty or unbounded."""

    rank: int
    halfspaces: tuple[Halfspace, ...]

    def __init__(self, rank: int, halfspaces: Iterable[Halfspace] = ()):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        hs = tuple(halfspaces)
        for h in hs:
            if not isinstance(h, Halfspace):
                raise TypeError(f"expected Halfspace, got {h!r}")
            if len(h.normal) != rank:
                raise ValueError(f"halfspace normal {h.normal} does not match rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "halfspaces", hs)

    def contains(self, point: Sequence) -> bool:
        """Exact membership test; coordinates may be int, Fraction or str.

        A rational point is scaled by the least common multiple of its
        denominators, so every halfspace is checked in integers.
        """
        p = tuple(point)
        scale = 1
        if not all(type(c) is int for c in p):
            p = [_frac(c) for c in p]
            scale = lcm(*[c.denominator for c in p])
            p = [c.numerator * (scale // c.denominator) for c in p]
        if len(p) != self.rank:
            raise ValueError(f"point {point!r} does not match rank {self.rank}")
        for h in self.halfspaces:
            a, b = h.row
            if sum(map(mul, a, p)) < b * scale:
                return False
        return True

    def to_jsonable(self) -> dict:
        return {
            "rank": self.rank,
            "halfspaces": [h.to_jsonable() for h in self.halfspaces],
        }

    @classmethod
    def from_jsonable(cls, obj) -> "Polyhedron":
        return cls(
            decode_int(obj["rank"]),
            [Halfspace.from_jsonable(h) for h in decode_list(obj.get("halfspaces", []))],
        )


class Cell(_Record):
    """A relatively open cell of a hyperplane arrangement.

    ``sign_vector[i]`` records the position relative to hyperplane i:
    +1 above, 0 on, -1 below.  ``bounded`` is exact for the region.
    """

    sign_vector: tuple[int, ...]
    bounded: bool


# ---------------------------------------------------------------------------
# Integer constraint kernel.


def _normalize_row(a: tuple[int, ...], b: int):
    g = gcd(*a, b)
    if g > 1:
        a = tuple(c // g for c in a)
        b = b // g
    return (a, b)


def _compress(rows):
    """Dedupe rows (a, b) by a, keeping the largest b; decide zero rows
    0 >= b on the spot.  Returns None when infeasible."""
    best: dict[tuple[int, ...], int] = {}
    for a, b in rows:
        if not any(a):
            if b > 0:
                return None
        elif best.get(a, b) <= b:
            best[a] = b
    return list(best.items())


def _fm_feasible(rows, nvars) -> bool:
    """Fourier-Motzkin feasibility: True iff some rational point satisfies
    every integer row ``(a, b)`` of ``rows``, meaning a.x >= b, as
    :attr:`Halfspace.row`.

    Each variable is eliminated by pairing its positive and negative rows
    (Ziegler, *Lectures on Polytopes*, 1.2).
    """
    system = _compress([_normalize_row(*row) for row in rows])
    if system is None:
        return False
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for row in system:
            c = row[0][var]
            if c > 0:
                pos.append(row)
            elif c < 0:
                neg.append(row)
            else:
                rest.append(row)
        derived = rest
        for pa, pb in pos:
            pj = pa[var]
            for na, nb in neg:
                nj = -na[var]
                a = tuple(nj * x + pj * y for x, y in zip(pa, na))
                derived.append(_normalize_row(a, nj * pb + pj * nb))
        system = _compress(derived)
        if system is None:
            return False
    return True


def _primitive(vec) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to a primitive integer vector
    (same direction)."""
    scale = lcm(*[c.denominator for c in vec])
    ints = [c.numerator * (scale // c.denominator) for c in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return tuple(ints)


def _turned(a: tuple[int, ...]) -> tuple[int, ...]:
    """Whichever of a and -a has a positive first nonzero coordinate (a
    itself when a is zero): the orientation in which hyperplanes and
    weights are compared up to sign.  ``_turned(a) != a`` iff a was turned."""
    return max(a, tuple([-c for c in a]))


def _det(m) -> int:
    """Determinant of a square integer matrix of size 0 to 3, in closed form.

    No caller needs more: every matrix is a square system or a minor of one
    in at most ``RANK_CAP`` = 3 unknowns (Cramer's rule, cross products,
    edge generators).
    """
    n = len(m)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 1:
        return m[0][0]
    if n == 0:
        return 1
    raise ValueError(f"_det: size {n} exceeds the rank cap {RANK_CAP}")


def _cross(rows, n) -> tuple[int, ...]:
    """Generalized cross product of n-1 integer rows: orthogonal to each row,
    and nonzero iff the rows are independent."""
    return tuple(
        (-1) ** j * _det([a[:j] + a[j + 1:] for a in rows]) for j in range(n)
    )


def _solve(rows, n):
    """The unique solution of n integer rows a.x = b as (numerators, den)
    in lowest terms with den > 0, or None when the system is singular.

    Cramer's rule by cross product: the cross product of the augmented rows
    [a | -b] is orthogonal to each of them, so it is (x * den, den) with
    den = +-det(a), and den = 0 exactly when the normals a are dependent.
    """
    *num, den = _cross([a + (-b,) for a, b in rows], n + 1)
    if not den:
        return None
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return tuple(c // g for c in num), den // g


def _check_caps(P: Polyhedron, op: str) -> None:
    if P.rank > RANK_CAP:
        raise SizeLimit(f"{op}: rank {P.rank} exceeds cap {RANK_CAP}")
    if len(P.halfspaces) > HALFSPACE_CAP:
        raise SizeLimit(
            f"{op}: {len(P.halfspaces)} halfspaces exceed cap {HALFSPACE_CAP}"
        )


# ---------------------------------------------------------------------------
# Public operations.


def is_empty(P: Polyhedron) -> bool:
    """Exact emptiness test: True iff no rational point satisfies all halfspaces."""
    _check_caps(P, "is_empty")
    return not _fm_feasible([h.row for h in P.halfspaces], P.rank)


def is_bounded(P: Polyhedron) -> bool:
    """True iff P is empty or its recession cone {d : a . d >= 0 for every
    normal a} is the origin.

    If no rank-1 distinct normal directions are independent, the normals do
    not span and a common-kernel line lies in the cone.  Otherwise the cone
    is pointed, and if nonzero it has an extreme ray with rank-1 independent
    active normals: their cross product d, up to sign, with a . d >= 0 for
    every normal a, or <= 0 for every one.  An empty set is bounded, so
    emptiness is asked only when a ray or a line is found.
    """
    _check_caps(P, "is_bounded")
    normals = [h.row[0] for h in P.halfspaces]
    dirs = sorted({_turned(a) for a in normals})
    spans = False
    for subset in combinations(dirs, P.rank - 1):
        d = _cross(subset, P.rank)
        if any(d):
            dots = [sum(map(mul, a, d)) for a in normals]
            if min(dots, default=0) >= 0 or max(dots, default=0) <= 0:
                return is_empty(P)
            spans = True
    return spans or is_empty(P)


def _vertex_cones(P: Polyhedron):
    """Every vertex of P as ``(point, numerators, den, active rows)``, sorted
    by the point (Fractions).  Each is the Cramer solution (:func:`_solve`)
    of rank-many distinct rows at equality that satisfies every row; the same
    integer pass records the rows tight at it, in sorted row order.  They cut
    out the vertex's tangent cone, from which its fixed-point term
    t^v / prod(1 - t^(e_i)) is read (Brion; Lawrence)."""
    _check_caps(P, "vertices")
    rows = sorted(set(h.row for h in P.halfspaces))
    cones = {}
    for subset in combinations(rows, P.rank):
        sol = _solve(subset, P.rank)
        if sol is not None and sol not in cones:
            num, den = sol
            slack = [sum(map(mul, a, num)) - b * den for a, b in rows]
            if min(slack) >= 0:
                cones[sol] = [row for row, s in zip(rows, slack) if not s]
    return sorted((tuple(Fraction(c, den) for c in num), num, den, active)
                  for (num, den), active in cones.items())


def vertices(P: Polyhedron) -> list[tuple[Fraction, ...]]:
    """All vertices, deduplicated, in lexicographic order: the points of
    :func:`_vertex_cones`."""
    return [point for point, *_ in _vertex_cones(P)]


def lattice_points(
    P: Polyhedron,
    box: Sequence[tuple[int, int]],
    *,
    volume_cap: int = BOX_VOLUME_CAP,
) -> list[tuple[int, ...]]:
    """All integer points of the box that lie in P, in lexicographic order.

    The box is a product of integer intervals [lo, hi], one per coordinate.
    Boxes with volume beyond ``volume_cap`` are rejected.  The scan walks the
    first rank-1 coordinates of the box and emits, for each, the integer
    interval of the last coordinate that P cuts out, in closed form.
    """
    _check_caps(P, "lattice_points")
    if len(box) != P.rank:
        raise ValueError(f"box has {len(box)} intervals, expected {P.rank}")
    volume = 1
    for lo, hi in box:
        volume *= max(0, hi - lo + 1)
    if volume > volume_cap:
        raise SizeLimit(
            f"lattice_points: box volume {_int_text(volume)} exceeds cap {volume_cap}"
        )
    if volume == 0:
        return []
    rows = [h.row for h in P.halfspaces]
    *outer, (last_lo, last_hi) = box
    out = []
    for head in product(*[range(lo, hi + 1) for lo, hi in outer]):
        start, stop = last_lo, last_hi
        for a, b in rows:
            # a[-1] * x_last >= rest
            rest = b - sum(map(mul, a, head))
            c = a[-1]
            if c > 0:
                start = max(start, -(-rest // c))
            elif c < 0:
                stop = min(stop, rest // c)
            elif rest > 0:
                break
        else:
            out.extend(head + (x,) for x in range(start, stop + 1))
    return out


def strongly_convex(vectors: Sequence[Sequence]) -> bool:
    """True iff no nonzero nonnegative combination of the vectors is zero.

    Equivalent to the cone they generate containing no line.  By Gordan's
    theorem of the alternative this holds iff some y has v.y > 0 for every
    generator v, that is (scaling y) iff some y has v.y >= 1 for every v:
    one Fourier-Motzkin feasibility call on the rows ``(v, 1)``, made
    primitive; a zero generator makes its row 0 >= 1 infeasible.
    """
    vecs = [tuple(_frac(c) for c in v) for v in vectors]
    if not vecs:
        return True
    if len(vecs) > GENERATOR_CAP:
        raise SizeLimit(f"strongly_convex: {len(vecs)} generators exceed cap {GENERATOR_CAP}")
    dim = len(vecs[0])
    if dim > RANK_CAP:
        raise SizeLimit(f"strongly_convex: ambient dimension {dim} exceeds cap {RANK_CAP}")
    for v in vecs:
        if len(v) != dim:
            raise ValueError("generators must share a common ambient dimension")
    rows = [_primitive(v + (1,)) for v in vecs]
    return _fm_feasible([(r[:-1], r[-1]) for r in rows], dim)


# ---------------------------------------------------------------------------
# Hyperplane arrangements.


def _flat_regions(hps, p, q, basis, mask, memo):
    """Regions of the arrangement restricted to the flat p/q + span(basis),
    stored in ``memo[mask]``, and those of every lower flat in their entries.

    ``mask`` has bit i set iff hyperplane i contains the flat.  A region is
    stored as its positive mask (the bits where a.x > b; the flat's mask is
    zero and every other bit is negative) mapped to an integer witness (p, q).
    A flat that no hyperplane cuts is one region.  Otherwise every region has
    a facet, which is a region of the child flat cut out by some hyperplane
    a.x = b; pushing each child region off that hyperplane to both sides
    along d = sum c_k B_k, with c_k = a.B_k, finds them all.  ``memo`` is
    keyed by mask, so a flat reached from several parents is solved once.
    """
    regions = memo[mask] = {}
    # Tuples here are built from lists: tuple() of a generator allocates ten
    # slots and shrinks, and the shrunk tuples then pile up unused in
    # CPython's free list for their length (1 MB of peak RSS on welded_sweep).
    dots = [tuple([sum(map(mul, a, v)) for v in basis]) for a, _ in hps]
    seen = mask
    for i, c in enumerate(dots):
        if seen >> i & 1 or not any(c):
            continue
        a, b = hps[i]
        j = next(k for k, x in enumerate(c) if x)
        cj, bj = c[j], basis[j]
        # The point of a.x = b on the line p/q + t * B_j, in integers.
        u = b * q - sum(map(mul, a, p))
        num = [cj * x + u * y for x, y in zip(p, bj)]
        den = q * cj
        g = gcd(den, *num)
        if den < 0:
            g = -g
        num, den = tuple([x // g for x in num]), den // g
        # a_h . d for every hyperplane h; the child flat is cut out by the
        # hyperplanes whose restriction to the flat is parallel to a's and
        # that pass through the point.
        ad = [sum(map(mul, dh, c)) for dh in dots]
        plus = minus = 0
        for h, dh in enumerate(dots):
            if ad[h] and all(x * cj == y * dh[j] for x, y in zip(dh, c)):
                ah, bh = hps[h]
                if sum(map(mul, ah, num)) == bh * den:
                    if ad[h] > 0:
                        plus |= 1 << h
                    else:
                        minus |= 1 << h
        child = mask | plus | minus
        seen |= child
        if child not in memo:
            sub = [
                _primitive([cj * x - ck * y for x, y in zip(bk, bj)])
                for k, (ck, bk) in enumerate(zip(c, basis))
                if k != j
            ]
            _flat_regions(hps, num, den, sub, child, memo)
        # At (2R w + s d) / (2R w_q), a.x - b has the numerator
        # 2R (a.w - b w_q) + s a.d.  The first term is 0 or at least 2R in
        # absolute value and |a.d| <= R, so only the hyperplanes through w
        # change sign, each to the sign of s a.d.
        d = [sum(map(mul, c, col)) for col in zip(*basis)]
        r2 = 2 * max(map(abs, ad))
        for pos, (pw, qw) in memo[child].items():
            for key, s in ((pos | plus, 1), (pos | minus, -1)):
                if key not in regions:
                    pt = [r2 * x + s * y for x, y in zip(pw, d)]
                    g = gcd(r2 * qw, *pt)
                    regions[key] = (tuple([x // g for x in pt]), r2 * qw // g)
    if seen == mask:
        pos = 0
        for i, (a, b) in enumerate(hps):
            if sum(map(mul, a, p)) > b * q:
                pos |= 1 << i
        regions[pos] = (p, q)


def _sweep(hps_int, rank):
    """Every cell of the arrangement, as ``{zero mask: {positive mask:
    witness}}``, swept from the whole space by :func:`_flat_regions`."""
    memo = {}
    unit = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    _flat_regions(hps_int, (0,) * rank, 1, unit, 0, memo)
    return memo


def _unbounded_cells(hps_int, rank):
    """The unbounded cells of the arrangement, as a set of (zero mask,
    positive mask) pairs, found without sweeping the bounded ones.

    A relatively open cell is unbounded iff it holds a ray x + s d (s >= 0)
    with d != 0, and then its sign vector is that of x + s d for large s:
    sign(a . d) on every hyperplane with a . d != 0, and the sign of x on the
    rest, A_C.  So the unbounded cells are the pairs (C, K) (Zaslavsky,
    Stanley): C a cell other than {0} of the central arrangement of the
    distinct normal directions, and K a cell of A_C, the hyperplanes whose
    normal is zero on C.  The all-zero central cell is {0} exactly when the
    normals span; otherwise it is the common-kernel line space, A_C is the
    whole arrangement and every cell is unbounded.  The central arrangement
    is swept once, and each A_C once, cached by C's zero mask.
    """
    dirs: dict[tuple[int, ...], int] = {}
    where = []  # per hyperplane: (bit of its direction, same orientation?)
    for a, _ in hps_int:
        g = gcd(*a)
        a = tuple([c // g for c in a])
        key = _turned(a)
        where.append((1 << dirs.setdefault(key, len(dirs)), key == a))
    central = _sweep([(c, 0) for c in dirs], rank)
    spans = any(_det(m) for m in combinations(dirs, rank))
    origin = (1 << len(dirs)) - 1
    cells = set()
    for zc, regions in central.items():
        if zc == origin and spans:
            continue
        bits = [i for i, (k, _) in enumerate(where) if zc & k]
        sub = _sweep([hps_int[i] for i in bits], rank)
        inner = [
            (_spread(zk, bits), _spread(pk, bits)) for zk, cs in sub.items() for pk in cs
        ]
        for pc in regions:
            off = 0
            for i, (k, same) in enumerate(where):
                if not zc & k and bool(pc & k) == same:
                    off |= 1 << i
            cells.update([(zk, pk | off) for zk, pk in inner])
    return cells


def _spread(mask, bits):
    """``mask`` over a sub-arrangement, with bit j moved to bit ``bits[j]``."""
    out = 0
    for j, i in enumerate(bits):
        if mask >> j & 1:
            out |= 1 << i
    return out


def _arrangement_rank(rows: Sequence[tuple[tuple[int, ...], int]], op: str) -> int:
    """The common rank of the coprime integer hyperplane rows (as
    :attr:`Halfspace.row`), after the arrangement caps and a zero-normal check."""
    if not rows:
        raise ValueError(f"{op}: need at least one hyperplane")
    rank = len(rows[0][0])
    if rank > RANK_CAP:
        raise SizeLimit(f"{op}: rank {rank} exceeds cap {RANK_CAP}")
    if len(rows) > ARRANGEMENT_CAP:
        raise SizeLimit(f"{op}: {len(rows)} hyperplanes exceed cap {ARRANGEMENT_CAP}")
    if any(len(a) != rank for a, _ in rows):
        raise ValueError("hyperplanes must share a common rank")
    if not all(any(a) for a, _ in rows):
        raise ValueError("hyperplane normal must be nonzero")
    return rank


def arrangement_cells_with_points(
    rows: Sequence[tuple[tuple[int, ...], int]],
) -> list[tuple[Cell, tuple[tuple[int, ...], int]]]:
    """Every cell of the arrangement of the given hyperplane boundaries, in
    sign-vector order, paired with an interior point of its relatively open
    region as ``(numerators, den)``: integer numerators over a positive
    common denominator, in lowest terms.

    Each coprime integer row ``(a, b)``, as :attr:`Halfspace.row`, gives the
    hyperplane a.x = b.  The cells are every sign vector in {-1, 0, +1}^H
    that cuts out a nonempty region, swept by restriction to flats
    (:func:`_flat_regions`) with no Fourier-Motzkin call.  A cell is bounded
    iff its (zero mask, positive mask) pair is not one of the recession
    arrangement's unbounded cells (:func:`_unbounded_cells`).
    """
    rank = _arrangement_rank(rows, "arrangement_cells")
    unbounded = _unbounded_cells(rows, rank)
    full = (1 << len(rows)) - 1
    out = []
    for zero, regions in _sweep(rows, rank).items():
        for pos, pt in regions.items():
            neg = full & ~(zero | pos)
            sv = tuple([(pos >> i & 1) - (neg >> i & 1) for i in range(len(rows))])
            out.append((Cell(sv, (zero, pos) not in unbounded), pt))
    out.sort(key=lambda t: t[0].sign_vector)
    return out


def arrangement_vertex_box(rows: Sequence[tuple[tuple[int, ...], int]]):
    """Integer bounding box of all rank-fold intersection points of the
    hyperplanes a.x = b of the coprime integer rows ``(a, b)``, as
    :attr:`Halfspace.row`.

    Every vertex of every bounded arrangement cell is such a point, so the box
    contains the closure of every bounded cell.  The points come from
    Cramer's rule (:func:`_solve`) and are rounded outwards by integer
    division.  Returns None when the arrangement has no such points (and
    hence no bounded cells).
    """
    rank = _arrangement_rank(rows, "arrangement_vertex_box")
    points = [p for p in (_solve(s, rank) for s in combinations(rows, rank)) if p]
    if not points:
        return None
    return [
        (min(num[i] // den for num, den in points), max(-(-num[i] // den) for num, den in points))
        for i in range(rank)
    ]
