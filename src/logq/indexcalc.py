"""The two quantization routes and their cross-check.

Route one counts lattice points of the polytope pieces with crossing-parity
signs; when some piece is unbounded it first certifies that the signed
indicator vanishes on every unbounded arrangement cell (so the result is an
honest finite character).  Route two sums the Atiyah-Bott fixed-point
terms ``sign * t^mu / prod(1 - t^w)`` (:class:`FixedPointTerm`, the one
term type of the package) over a common denominator D with numerator N,
and reduces N / D to a character at every rank by dividing N by one binomial
1 - t^w of D at a time (:func:`_quotient`, over :func:`_divided_by_factor`,
the inverse of :func:`_times_factor`).  ``qr_check`` runs both and reports
their agreement weight by weight, which is the executable content of
quantization commuting with reduction.  It builds N and D once per job,
decides agreement with the lattice character L exactly, by L * D = N, and
divides only when that fails.  Its per-weight table covers the supports
and their 1-margin shell, which :func:`_shell_runs` builds as sorted
integer runs of the last coordinate per head (the other coordinates), so
the rows are written in lexicographic order with no set of shell points
and no sort of them.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import add, sub
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
from .polyhedra import Polyhedron
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


def _facet_hyperplanes(d: ToricLogData) -> list[tuple[tuple[int, ...], int]]:
    """The distinct facet hyperplanes a.x = b of all pieces, as sorted
    coprime integer rows ``(a, b)`` (each piece's :attr:`Halfspace.row`),
    turned so that the first nonzero coefficient of a is positive."""
    seen = set()
    for piece in d.pieces:
        for h in piece.region.halfspaces:
            a, b = h.row
            if next(filter(None, a)) < 0:
                a, b = tuple([-c for c in a]), -b
            seen.add((a, b))
    return sorted(seen)


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
    rows = _facet_hyperplanes(d)
    if not rows:
        # Pieces with no facets cover all of t*; only total cancellation is finite.
        if sum(o):
            raise InfiniteSupport("facet-free pieces with nonzero total sign")
        return Character(rank, {})
    # The sweep's caps hold on both paths, with the sweep's error text.
    polyhedra._arrangement_rank(rows, "arrangement_cells")
    if not all(polyhedra.is_bounded(piece.region) for piece in d.pieces):
        _certify_finite(d, o, rows)
    box = polyhedra.arrangement_vertex_box(rows)
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


def _times_factor(p: dict[Weight, int], w: Weight) -> dict[Weight, int]:
    """The product p * (1 - t^w) of a weight -> coefficient map, with the
    coefficients it cancels to 0 dropped."""
    out = dict(p)
    for e, c in p.items():
        k = tuple(map(add, e, w))
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _over_common_denominator(
    terms: Iterable[FixedPointTerm], cap: int
) -> tuple[dict[Weight, int], Counter]:
    """The fixed-point sum as N / prod(1 - t^w), w over the returned multiset
    (the multiset maximum of the terms' weights), with N's zeros dropped.
    Each weight is first turned to have its first nonzero coordinate
    positive, by 1/(1 - t^w) = -t^(-w) / (1 - t^(-w)).  Raises
    :class:`SizeLimit` once N, or one term group's share of it, passes
    ``cap`` terms: each factor can double a share, so an uncapped share
    grows exponentially in the number of weights.  Groups and factors are
    taken in sorted order, so the outcome depends on the terms as a
    multiset; a sum whose finished N is within the cap can still raise
    when a share or the running N passes it before a later factor or group
    shrinks it."""
    groups: dict[tuple[Weight, ...], dict[Weight, int]] = {}
    for t in terms:
        sign, mu, weights = t.sign, t.mu, []
        for w in t.weights:
            if next(filter(None, w)) < 0:
                sign, mu, w = -sign, tuple(map(sub, mu, w)), tuple([-c for c in w])
            weights.append(w)
        part = groups.setdefault(tuple(sorted(weights)), {})
        part[mu] = part.get(mu, 0) + sign
    common: Counter = Counter()
    for ws in groups:
        common |= Counter(ws)
    numerator: dict[Weight, int] = {}
    for ws, part in sorted(groups.items()):
        for w in sorted((common - Counter(ws)).elements()):
            part = _times_factor(part, w)
            if len(part) > cap:
                break
        for e, c in part.items():
            if v := numerator.get(e, 0) + c:
                numerator[e] = v
            else:
                numerator.pop(e, None)
        if len(part) > cap or len(numerator) > cap:
            raise SizeLimit(f"fixed-point sum: numerator exceeds cap {cap} terms")
    return numerator, common


def _divided_by_factor(p: dict[Weight, int], w: Weight, cap: int) -> dict[Weight, int] | None:
    """The exact quotient p / (1 - t^w), the inverse of :func:`_times_factor`,
    or None when it has more than ``cap`` terms.

    With w_j the first nonzero coordinate of w, each key is x = base + s * w
    with s = x_j // w_j, on the line of its base.  Along a line,
    p = q * (1 - t^w) reads p_s = q_s - q_(s-1), so q_s is the running sum
    of p up to s, and q is finite iff every line's total is 0.  A nonzero
    total raises :class:`NotFinite`, and the quotient's size is counted from
    its runs, before any quotient term is written.
    """
    j = next(i for i, c in enumerate(w) if c)
    lines: dict[Weight, list[tuple[int, int, Weight]]] = {}
    for x, c in p.items():
        s = x[j] // w[j]
        lines.setdefault(tuple([a - s * b for a, b in zip(x, w)]), []).append((s, c, x))
    if any(sum(c for _, c, _ in line) for line in lines.values()):
        raise NotFinite("rational character sum does not reduce to a finite character")
    runs = []
    for line in lines.values():
        line.sort()
        run = 0
        for (s, c, x), (end, _, _) in zip(line, line[1:]):
            run += c
            if run:
                runs.append((x, end - s, run))
    if sum(n for _, n, _ in runs) > cap:
        return None
    out: dict[Weight, int] = {}
    for x, n, c in runs:
        for _ in range(n):
            out[x] = c
            x = tuple(map(add, x, w))
    return out


def _quotient(numerator: dict[Weight, int], common: Counter, cap: int) -> dict[Weight, int]:
    """The exact quotient N / prod(1 - t^w), w over the multiset ``common``,
    at any rank: the one division of the package.

    N is divided by one binomial 1 - t^w at a time (:func:`_divided_by_factor`):
    each step divides by the binomial, of those left, whose quotient has the
    fewest terms (the least w on a tie).  Raises :class:`NotFinite` when one
    leaves a remainder, since the formal sum is then not a finite character,
    and :class:`SizeLimit` when no binomial left keeps the quotient within
    ``cap`` terms.  So the outcome depends on N and the multiset of binomials
    only, and no partial quotient passes the cap; a final quotient within the
    cap can still raise, as a partial one is the final one times the
    binomials still to divide.
    """
    quotient = numerator
    while common:
        best = None
        for w in sorted(common):
            q = _divided_by_factor(quotient, w, len(best[0]) - 1 if best else cap)
            if q is not None:
                best = q, w
        if best is None:
            raise SizeLimit(f"rational_to_laurent: quotient exceeds cap {cap} terms")
        quotient, w = best
        common = common - Counter([w])
    return quotient


def rational_to_laurent(
    terms: Sequence[FixedPointTerm], *, max_terms: int = polyhedra.BOX_VOLUME_CAP
) -> LaurentPoly:
    """Reduce a sum of rank-1 fixed-point terms to a finite Laurent polynomial:
    the rank-1 view of :func:`atiyah_bott`, with its errors and ``max_terms``
    as its cap."""
    if any(t.rank != 1 for t in terms):
        raise RankMismatch("rational_to_laurent takes rank-1 fixed-point terms")
    quotient = _quotient(*_over_common_denominator(terms, max_terms), max_terms)
    return LaurentPoly._trusted({e: c for (e,), c in quotient.items()})


def _agrees_by_product(
    lattice_char: Character, numerator: dict[Weight, int], common: Counter, cap: int
) -> bool:
    """Whether the fixed-point sum N / D, with D = prod(1 - t^w) over
    ``common`` (:func:`_over_common_denominator`), equals ``lattice_char``
    (L), decided exactly as L * D = N in Z[t^+-1], which has no zero
    divisors.  L is multiplied by the binomials in sorted order, so the
    verdict does not depend on the order of the terms; it is False also when
    a partial product has more than ``cap`` terms."""
    product = lattice_char.terms
    for w in sorted(common.elements()):
        product = _times_factor(product, w)
        if len(product) > cap:
            return False
    return product == numerator


def atiyah_bott(
    terms: Sequence[FixedPointTerm], *, box_cap: int = polyhedra.BOX_VOLUME_CAP
) -> Character:
    """Evaluate a fixed-point sum of any rank as a finite character.

    Puts sign * t^mu / prod(1 - t^w) over a common denominator
    (:func:`_over_common_denominator`) and divides it out one binomial at a
    time (:func:`_quotient`), the route :func:`qr_check` takes.  Raises
    :class:`NotFinite` when the sum is not a finite character (invalid
    fixed-point data), :class:`SizeLimit` when its numerator or a partial
    quotient passes ``box_cap`` terms, and :class:`RankMismatch` when the
    terms do not share one rank.
    """
    if not terms:
        return Character(1, {})
    rank = terms[0].rank
    if any(t.rank != rank for t in terms):
        raise RankMismatch("fixed-point terms must share a common rank")
    quotient = _quotient(*_over_common_denominator(terms, box_cap), box_cap)
    return Character._trusted(quotient, rank)


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
    inward edge generators, read from the facets active at v in its vertex
    cone (:func:`polyhedra._vertex_cones`).  Vertices must be simple (exactly
    rank active facets), unimodular (edge determinant +-1), and lattice
    points; anything else raises :class:`NotDelzant`.
    """
    if not polyhedra.is_bounded(P):
        raise Unbounded("fixed-point data needs a bounded polytope")
    rank = P.rank
    out = []
    for v, num, den, active in polyhedra._vertex_cones(P):
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


def _merged(runs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Closed integer runs (lo, hi), given in order of lo, with the runs that
    overlap or touch joined into one."""
    out: list[tuple[int, int]] = []
    for lo, hi in runs:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _shell_runs(weights: Iterable[Weight], rank: int) -> list[tuple[Weight, list[tuple[int, int]]]]:
    """All lattice points within Chebyshev distance 1 of the given weights
    (repeats allowed), as sorted (head, runs) pairs: the points head + (x,),
    lo <= x <= hi, for each closed run (lo, hi) of each head, in order.

    The weights are grouped by their first rank - 1 coordinates, the head.
    Each point x of a head is widened to the run [x - 1, x + 1], and runs
    that overlap or touch are merged.  Then, one outer axis at a time, each
    head's runs are spread to the heads one step away along it and merged
    again where they meet (the unit cube is the sum of the axes' unit
    segments).  Merged runs are disjoint and do not touch, so each point
    comes out once, and in lexicographic order, with no set of points built
    and no sort of them: only each head's last coordinates, the runs met at
    one head, and the heads are sorted.
    """
    rows: dict[Weight, list[int]] = {}
    for w in weights:
        rows.setdefault(w[:-1], []).append(w[-1])
    shell: dict[Weight, list[tuple[int, int]]] = {}
    for head, xs in rows.items():
        xs.sort()
        runs, lo, hi = [], xs[0] - 1, xs[0] + 1
        for x in xs:
            if x > hi + 2:  # [x - 1, x + 1] neither overlaps nor touches [lo, hi]
                runs.append((lo, hi))
                lo = x - 1
            hi = x + 1
        runs.append((lo, hi))
        shell[head] = runs
    for i in range(rank - 1):
        spread: dict[Weight, list[tuple[int, int]]] = {}
        for head, runs in shell.items():
            for s in (-1, 0, 1):
                spread.setdefault(head[:i] + (head[i] + s,) + head[i + 1:], []).extend(runs)
        shell = {head: _merged(sorted(runs)) for head, runs in spread.items()}
    return [(head, shell[head]) for head in sorted(shell)]


def _specialization_xi(lattice_char: Character) -> Weight:
    """Deterministic generic one-parameter subgroup for the rank >= 2
    collision kept in :func:`qr_check`.

    Tries xi = (1, m, m^2, ...) for m = M, M+1, ... with M past the support
    diameter, until pairing is injective on the support of ``lattice_char``
    padded by a 1-margin shell.  Only finitely many m fail.
    """
    rank = lattice_char.rank
    support = lattice_char.support()
    shell = _shell_runs(support, rank)
    domain = [h + (x,) for h, runs in shell for lo, hi in runs for x in range(lo, hi + 1)]
    diam = max((max(coords) - min(coords) for coords in zip(*support)), default=0)
    m0 = max(diam + 1, 2)
    for m in range(m0, m0 + 1000):
        xi = tuple(m**i for i in range(rank))
        values = {sum(a * b for a, b in zip(w, xi)) for w in domain}
        if len(values) == len(domain):
            return xi
    raise RuntimeError("no injective specialization found")  # pragma: no cover


def qr_check(
    d: ToricLogData,
    terms: Sequence[FixedPointTerm],
    *,
    box_cap: int = polyhedra.BOX_VOLUME_CAP,
) -> QRReport:
    """Compare the lattice-count and fixed-point quantizations.

    The fixed-point sum is put over its common denominator once
    (:func:`_over_common_denominator`).  Agreement is decided first, exactly
    and at every rank, by the product test of :func:`_agrees_by_product`; the
    fixed-point character is then the lattice character.  When the test
    fails, the sum is divided out (:func:`_quotient`, the route of
    :func:`atiyah_bott`) at every rank and compared, so a sum that is not
    finite raises :class:`NotFinite`.  One defect is kept at rank >= 2: a
    quotient whose restriction to a deterministic generic one-parameter
    subgroup matches the lattice character's is reported as agreement.
    Disagreement is reported, not raised.  ``box_cap`` caps the lattice box
    volume and the number of terms of the fixed-point numerator and quotient
    (:class:`SizeLimit`).
    """
    lattice_char = quantize_lattice(d, box_cap=box_cap)
    rank = d.rank
    terms = list(terms)
    if any(t.rank != rank for t in terms):
        raise RankMismatch("fixed-point terms do not match the rank of the toric data")
    numerator, common = _over_common_denominator(terms, box_cap)
    if _agrees_by_product(lattice_char, numerator, common, box_cap):
        fp_char, agree = lattice_char, True
    else:
        fp_char = Character._trusted(_quotient(numerator, common, box_cap), rank)
        agree = fp_char == lattice_char
        # Kept until bench/oracle.py can read a disagreeing job's character:
        # at rank >= 2, a quotient that differs from L but collides with it
        # along xi is reported as agreement, with L as the fixed-point
        # character.
        if not agree and rank > 1:
            xi = _specialization_xi(lattice_char)
            if fp_char.specialize(xi) == lattice_char.specialize(xi):
                fp_char, agree = lattice_char, True
    lat, fp = lattice_char.terms, fp_char.terms
    same = fp_char is lattice_char  # then each row takes one lookup
    table = tuple([
        (w := head + (x,), a := lat.get(w, 0), a if same else fp.get(w, 0), a)
        for head, runs in _shell_runs(lat if same else chain(lat, fp), rank)
        for lo, hi in runs
        for x in range(lo, hi + 1)
    ])
    return QRReport(
        lattice_char=lattice_char,
        fixedpoint_char=fp_char,
        agree=agree,
        per_weight_table=table,
    )
