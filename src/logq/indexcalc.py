"""The two quantization routes and their cross-check.

Route one counts lattice points of the polytope pieces with crossing-parity
signs; when some piece is unbounded it first certifies that the signed
indicator vanishes on every unbounded arrangement cell (so the result is an
honest finite character).  Route two sums the Atiyah-Bott fixed-point
terms ``sign * t^mu / prod(1 - t^w)`` (:class:`FixedPointTerm`, the one
term type of the package) over a common denominator and reduces the sum
to a Laurent polynomial by exact division (:func:`rational_to_laurent`).
``qr_check`` runs both and reports their agreement weight by weight, which
is the executable content of quantization commuting with reduction.
"""
from __future__ import annotations

from collections import Counter
from operator import mul
from typing import Iterable, Sequence

from . import polyhedra, toricmodel
from .charring import Character, LaurentPoly, SU2Char, Weight, as_weight
from .errors import (
    InfiniteSupport,
    NotDelzant,
    NotFinite,
    RankMismatch,
    SizeLimit,
    Unbounded,
)
from .jsonio import _Record, decode_int, decode_list, encode_int
from .polyhedra import Halfspace, Polyhedron
from .toricmodel import ToricLogData


class FixedPointTerm(_Record):
    """One fixed-point contribution sign * t^mu / prod_i (1 - t^(w_i)).

    ``mu`` is the moment value of the fixed point and ``weights`` are the
    isotropy weights, stored raw so orientation conventions stay visible.
    """

    sign: int
    mu: Weight
    weights: tuple[Weight, ...]

    def __init__(self, sign: int, mu: Iterable[int], weights: Iterable[Iterable[int]] = ()):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        m = as_weight(mu)
        ws = tuple(as_weight(w) for w in weights)
        for w in ws:
            if len(w) != len(m):
                raise RankMismatch(f"isotropy weight {w} does not match moment rank {len(m)}")
            if not any(w):
                raise ValueError("isotropy weights must be nonzero")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "mu", m)
        object.__setattr__(self, "weights", ws)

    @property
    def rank(self) -> int:
        return len(self.mu)

    def to_jsonable(self) -> dict:
        return {
            "sign": self.sign,
            "mu": [encode_int(c) for c in self.mu],
            "weights": [[encode_int(c) for c in w] for w in self.weights],
        }

    @classmethod
    def from_jsonable(cls, obj) -> "FixedPointTerm":
        return cls(
            decode_int(obj["sign"]),
            [decode_int(c) for c in decode_list(obj["mu"])],
            [
                [decode_int(c) for c in decode_list(w)]
                for w in decode_list(obj.get("weights", []))
            ],
        )


class QRReport(_Record):
    """Outcome of the two-route comparison.

    ``per_weight_table`` rows are (weight, lattice multiplicity, fixed-point
    multiplicity, signed reduced-space point count), in lexicographic weight
    order over the union of supports padded by a 1-margin shell.

    The reduced-space count equals the lattice multiplicity, so it is read
    from ``lattice_char``: inside the arrangement vertex box both are the
    signed indicator sum at the weight, and outside it the sum is zero (the
    sweep certified it, or every piece is bounded and inside the box).
    :func:`reduced_multiplicity` evaluates the sum point by point as a check.
    """

    lattice_char: Character
    fixedpoint_char: Character
    agree: bool
    per_weight_table: tuple[tuple[Weight, int, int, int], ...]

    def to_jsonable(self) -> dict:
        return {
            "agree": self.agree,
            "lattice_char": self.lattice_char.to_jsonable(),
            "fixedpoint_char": self.fixedpoint_char.to_jsonable(),
            "per_weight_table": [
                {
                    "weight": [encode_int(c) for c in w],
                    "lattice": encode_int(a),
                    "fixed_point": encode_int(b),
                    "reduced_points": encode_int(c2),
                }
                for w, a, b, c2 in self.per_weight_table
            ],
        }


def _validated_signs(d: ToricLogData) -> tuple[int, ...]:
    toricmodel.validate(d).raise_if_failed()
    return toricmodel.signs(d)


def _facet_hyperplanes(d: ToricLogData) -> list[Halfspace]:
    """Deduplicated facet hyperplanes of all pieces, canonically oriented."""
    seen = {}
    for piece in d.pieces:
        for h in piece.region.halfspaces:
            a, b = h.row
            lead = next(c for c in a if c)
            if lead < 0:
                a, b = tuple(-c for c in a), -b
            seen[(a, b)] = None
    return [
        Halfspace(a, b) for a, b in sorted(seen)
    ]


def quantize_lattice(d: ToricLogData, *, box_cap: int = polyhedra.BOX_VOLUME_CAP) -> Character:
    """Signed lattice count of the polytope pieces, as a finite character.

    When some piece is unbounded, finiteness of the support is certified
    first on the arrangement of all facet hyperplanes.  The signed indicator
    sum is constant on every relatively open cell, and a piece holds a cell
    iff the cell's sign vector puts none of the piece's facets on the wrong
    side, so the sum is read off sign masks.  Only the unbounded cells are
    listed, from the recession arrangement (:func:`polyhedra._unbounded_cells`),
    with no witness point; a nonzero sum raises :class:`InfiniteSupport` for
    the least such cell in sign-vector order.  When every piece is bounded
    this sweep is skipped: a finite signed sum of indicators of bounded sets
    is zero on every unbounded cell.  The character is then accumulated over
    a box that contains every bounded cell.
    """
    o = _validated_signs(d)
    rank = d.rank
    if not d.pieces:
        return Character(rank, {})
    hyperplanes = _facet_hyperplanes(d)
    if not hyperplanes:
        # Pieces with no facets cover all of t*; only total cancellation is finite.
        if sum(o):
            raise InfiniteSupport("facet-free pieces with nonzero total sign")
        return Character(rank, {})
    # The sweep's caps hold on both paths, with the sweep's error text.
    rows, _ = polyhedra._arrangement_int(hyperplanes, "arrangement_cells")
    if not all(polyhedra.is_bounded(piece.region) for piece in d.pieces):
        _certify_finite(d, o, rows)
    box = polyhedra.arrangement_vertex_box(hyperplanes)
    if box is None:
        return Character(rank, {})
    if len(d.pieces) == 1:
        points = polyhedra.lattice_points(d.pieces[0].region, box, volume_cap=box_cap)
        return Character._trusted(dict.fromkeys(points, o[0]), rank)
    # + and - pieces apart (Counter's "-" drops negative counts), merged once.
    plus, minus = Counter(), Counter()
    for oj, piece in zip(o, d.pieces):
        points = polyhedra.lattice_points(piece.region, box, volume_cap=box_cap)
        (plus if oj > 0 else minus).update(points)
    terms = {w: c for w, m in plus.items() if (c := m - minus.get(w, 0))}
    terms.update((w, -m) for w, m in minus.items() if w not in plus)
    return Character._trusted(terms, rank)


def _certify_finite(d: ToricLogData, o: Sequence[int], rows) -> None:
    """Raise :class:`InfiniteSupport` unless the signed indicator is zero on
    every unbounded cell of the arrangement of the facet rows ``rows``.

    A piece's facets are hyperplanes of the arrangement, so whether it holds
    a cell is read off the cell's sign masks: the piece needs sign >= 0 on
    the bits of ``ge`` and sign <= 0 on those of ``le``.  The error names the
    least failing cell in sign-vector order.
    """
    index = {row: i for i, row in enumerate(rows)}
    needs = []
    for oj, piece in zip(o, d.pieces):
        ge = le = 0
        for h in piece.region.halfspaces:
            i = index.get(h.row)
            if i is not None:
                ge |= 1 << i
            else:
                a, b = h.row
                le |= 1 << index[(tuple([-c for c in a]), -b)]
        needs.append((oj, ge, le))
    full = (1 << len(rows)) - 1
    least = None
    for zero, pos in polyhedra._unbounded_cells(rows, d.rank):
        neg = full & ~(zero | pos)
        s = 0
        for oj, ge, le in needs:
            if not (ge & neg or le & pos):
                s += oj
        if s:
            sv = tuple([(pos >> i & 1) - (neg >> i & 1) for i in range(len(rows))])
            if least is None or sv < least[0]:
                least = (sv, s)
    if least is not None:
        sv, s = least
        raise InfiniteSupport(f"signed indicator is {s} on unbounded cell {sv}")


def reduced_multiplicity(d: ToricLogData, weight: Iterable[int]) -> int:
    """Signed count of reduced-space points over the given weight.

    This is the sum of the signs of the pieces whose region contains the
    lattice point (:meth:`Polyhedron.contains`); it equals the multiplicity
    of that weight in the lattice-count quantization by construction, and is
    the point-by-point reference for the ``reduced_points`` column of
    :func:`qr_check`'s table.
    """
    w = as_weight(weight)
    if len(w) != d.rank:
        raise RankMismatch(f"weight {w} does not match rank {d.rank}")
    o = toricmodel.signs(d)
    return sum(oj for oj, piece in zip(o, d.pieces) if piece.region.contains(w))


def _times_factor(p: dict[int, int], w: int) -> dict[int, int]:
    """The product p * (1 - t^w) of an exponent -> coefficient map."""
    out = dict(p)
    for e, c in p.items():
        out[e + w] = out.get(e + w, 0) - c
    return out


def _exact_div(num: dict[int, int], den: dict[int, int], max_terms: int):
    """Exact quotient num/den in Z[t, 1/t], or None when it does not exist.

    Both are exponent -> nonzero coefficient maps.  Peels from the lowest
    exponent.  Any exact quotient q satisfies max(q) = max(num) - max(den),
    which bounds the loop; that span can be astronomically wide, so a
    quotient of more than ``max_terms`` nonzero terms raises
    :class:`SizeLimit`.
    """
    if not num:
        return LaurentPoly()
    work = dict(num)
    d_min = min(den)
    d_lead = den[d_min]
    top = max(num) - max(den)
    den_terms = tuple(den.items())
    quotient: dict[int, int] = {}
    while work:
        n_min = min(work)
        e = n_min - d_min
        if e > top:
            return None
        c, r = divmod(work[n_min], d_lead)
        if r:
            return None
        quotient[e] = c
        if len(quotient) > max_terms:
            raise SizeLimit(f"rational_to_laurent: quotient exceeds cap {max_terms} terms")
        for de, dc in den_terms:
            k = e + de
            v = work.get(k, 0) - c * dc
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    # Each peel clears the lowest exponent, so every e is set once, to c != 0.
    return LaurentPoly._trusted(quotient)


def rational_to_laurent(
    terms: Sequence[FixedPointTerm], *, max_terms: int = polyhedra.BOX_VOLUME_CAP
) -> LaurentPoly:
    """Reduce a sum of rank-1 fixed-point terms to a finite Laurent polynomial.

    All terms are put over a common denominator (multiset maximum of the
    factors ``1 - t^w``) and the quotient is computed by exact integer
    division.  Terms with the same weights are summed first, and the
    numerator is accumulated in one dict.  Raises :class:`NotFinite` when
    a nonzero remainder shows the formal sum is not a finite character,
    and :class:`SizeLimit` when the quotient has more than ``max_terms``
    terms.
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for t in terms:
        if t.rank != 1:
            raise RankMismatch("rational_to_laurent takes rank-1 fixed-point terms")
        part = groups.setdefault(tuple(sorted(w for (w,) in t.weights)), {})
        part[t.mu[0]] = part.get(t.mu[0], 0) + t.sign
    common: Counter = Counter()
    for ws in groups:
        common |= Counter(ws)
    numerator: dict[int, int] = {}
    for ws, part in groups.items():
        for w in (common - Counter(ws)).elements():
            part = _times_factor(part, w)
        for e, c in part.items():
            numerator[e] = numerator.get(e, 0) + c
    denominator = {0: 1}
    for w in common.elements():
        denominator = _times_factor(denominator, w)
    quotient = _exact_div(
        {e: c for e, c in numerator.items() if c},
        {e: c for e, c in denominator.items() if c},
        max_terms,
    )
    if quotient is None:
        raise NotFinite("rational character sum does not reduce to a finite character")
    return quotient


def atiyah_bott(
    terms: Sequence[FixedPointTerm], *, box_cap: int = polyhedra.BOX_VOLUME_CAP
) -> Character:
    """Evaluate a rank-1 fixed-point sum as a finite character.

    Assembles sign * t^mu / prod(1 - t^w) over all terms and performs the
    exact division.  Raises :class:`NotFinite` when the sum is not a finite
    character (invalid fixed-point data), :class:`SizeLimit` when it has
    more than ``box_cap`` terms, and :class:`RankMismatch` for ranks other
    than 1, which are handled through specialization in :func:`qr_check`
    instead.
    """
    if not terms:
        return Character(1, {})
    rank = terms[0].rank
    if any(t.rank != rank for t in terms):
        raise RankMismatch("fixed-point terms must share a common rank")
    if rank != 1:
        raise RankMismatch("direct evaluation requires rank 1; use qr_check for higher rank")
    return rational_to_laurent(terms, max_terms=box_cap).to_character()


def fixed_terms_s2(n1: int, n2: int) -> list[FixedPointTerm]:
    """Fixed-point data of the rank-1 sphere family.

    Both poles contribute denominator (1 - t): the complex structure is
    compatible with the log symplectic form, which flips sign across the
    divisor, so the isotropy weights agree.  The second pole carries the minus
    sign of its induced orientation.
    """
    return [
        FixedPointTerm(1, (n1,), ((1,),)),
        FixedPointTerm(-1, (n2,), ((1,),)),
    ]


def fixed_terms_delzant(P: Polyhedron) -> list[FixedPointTerm]:
    """One fixed-point term per vertex of a Delzant lattice polytope.

    The vertex v contributes t^v / prod(1 - t^(e_i)) with e_i the primitive
    inward edge generators.  Vertices must be simple (exactly rank active
    facets), unimodular (edge determinant +-1), and lattice points; anything
    else raises :class:`NotDelzant`.
    """
    if not polyhedra.is_bounded(P):
        raise Unbounded("fixed-point data needs a bounded polytope")
    rank = P.rank
    facets = sorted(set(h.row for h in P.halfspaces))
    out = []
    for v in polyhedra.vertices(P):
        num, den = polyhedra._integer_point(v)
        active = [(a, b) for a, b in facets if sum(map(mul, a, num)) == b * den]
        if len(active) != rank:
            raise NotDelzant(f"vertex {v} has {len(active)} active facets, expected {rank}")
        edges = []
        for i in range(rank):
            others = [a for j, (a, _) in enumerate(active) if j != i]
            e = polyhedra._cross(others, rank)
            if not any(e):
                raise NotDelzant(f"vertex {v} has dependent active facets")
            e = polyhedra._primitive(e)
            inward = sum(x * c for x, c in zip(active[i][0], e))
            if inward == 0:
                raise NotDelzant(f"vertex {v} has dependent active facets")
            if inward < 0:
                e = tuple(-c for c in e)
            edges.append(e)
        if abs(polyhedra._det(edges)) != 1:
            raise NotDelzant(f"vertex {v} has non-unimodular edge generators {edges}")
        if den != 1:
            raise NotDelzant(f"vertex {v} is not in the weight lattice")
        out.append(FixedPointTerm(1, num, edges))
    out.sort(key=lambda t: t.mu)
    return out


def bwb(k: int) -> SU2Char:
    """Index of the degree-k line bundle on the projective line, as an SU(2)
    character: V_k for k >= 0, zero for k = -1, and -V_(-k-2) for k <= -2."""
    if k >= 0:
        return SU2Char({k: 1})
    if k == -1:
        return SU2Char()
    return SU2Char({-k - 2: -1})


def mincoupling_index(base_degree: int, fibre: Character) -> SU2Char:
    """Quantization of a fibre bundle over the degree-1 projective line.

    Each fibre weight j contributes its multiplicity times the index of the
    line bundle of degree base_degree + j on the base.
    """
    if fibre.rank != 1:
        raise RankMismatch("fibre character must have rank 1")
    total = SU2Char()
    for (j,), m in sorted(fibre.terms.items()):
        piece = bwb(base_degree + j)
        total = total + SU2Char({jj: m * mm for jj, mm in piece.mults.items()})
    return total


def _shell(weights: Iterable[Weight], rank: int) -> set[Weight]:
    """All lattice points within Chebyshev distance 1 of the given set.

    The unit cube is the sum of the unit segments of the axes, so the set is
    grown by one step along each axis in turn.
    """
    out: set[Weight] = set(weights)
    for i in range(rank):
        out |= {w[:i] + (w[i] + s,) + w[i + 1:] for w in out for s in (-1, 1)}
    return out


def _specialization_xi(
    lattice_char: Character, domain: Sequence[Weight], terms: Sequence[FixedPointTerm]
) -> Weight:
    """Deterministic generic one-parameter subgroup for rank >= 2 comparison.

    Tries xi = (1, m, m^2, ...) for m = M, M+1, ... with M past the support
    diameter, until pairing is injective on the comparison domain and nonzero
    on every denominator weight.  Only finitely many m fail either condition.
    """
    rank = lattice_char.rank
    support = lattice_char.support()
    diam = 0
    for i in range(rank):
        coords = [w[i] for w in support]
        if coords:
            diam = max(diam, max(coords) - min(coords))
    m0 = max(diam + 1, 2)
    for k in range(1000):
        m = m0 + k
        xi = tuple(m**i for i in range(rank))
        values = {sum(a * b for a, b in zip(w, xi)) for w in domain}
        if len(values) != len(domain):
            continue
        if any(sum(a * b for a, b in zip(w, xi)) == 0 for t in terms for w in t.weights):
            continue
        return xi
    raise RuntimeError("no injective specialization found")  # pragma: no cover


def qr_check(
    d: ToricLogData,
    terms: Sequence[FixedPointTerm],
    *,
    box_cap: int = polyhedra.BOX_VOLUME_CAP,
) -> QRReport:
    """Compare the lattice-count and fixed-point quantizations.

    Rank 1 compares the characters directly.  Higher rank compares the two
    sides after restricting to a deterministic generic one-parameter subgroup
    that is injective on the comparison domain; on agreement the fixed-point
    character is the lattice character, otherwise it records the
    coefficients attributed back through the specialization.  Disagreement is
    reported, not raised.  ``box_cap`` caps both the lattice box volume and
    the number of terms of the fixed-point quotient (:class:`SizeLimit`).
    """
    lattice_char = quantize_lattice(d, box_cap=box_cap)
    rank = d.rank
    terms = list(terms)
    if any(t.rank != rank for t in terms):
        raise RankMismatch("fixed-point terms do not match the rank of the toric data")
    if rank == 1:
        fp_char = atiyah_bott(terms, box_cap=box_cap)
        agree = fp_char == lattice_char
    else:
        domain = sorted(_shell(lattice_char.support(), rank))
        xi = _specialization_xi(lattice_char, domain, terms)
        specialized = [
            FixedPointTerm(
                t.sign,
                (sum(a * b for a, b in zip(t.mu, xi)),),
                [(sum(a * b for a, b in zip(w, xi)),) for w in t.weights],
            )
            for t in terms
        ]
        fp_poly = rational_to_laurent(specialized, max_terms=box_cap)
        agree = fp_poly == lattice_char.specialize(xi)
        if agree:
            fp_char = lattice_char
        else:
            attributed = {
                w: fp_poly.coeff(sum(a * b for a, b in zip(w, xi))) for w in domain
            }
            fp_char = Character(rank, attributed)
    if rank == 1 or not agree:
        # On agreement at rank >= 2 the table spans the same shell as xi's domain.
        support = set(lattice_char.support()) | set(fp_char.support())
        domain = sorted(_shell(support, rank))
    lat, fp = lattice_char.terms, fp_char.terms
    table = tuple((w, lat.get(w, 0), fp.get(w, 0), lat.get(w, 0)) for w in domain)
    return QRReport(
        lattice_char=lattice_char,
        fixedpoint_char=fp_char,
        agree=agree,
        per_weight_table=table,
    )
