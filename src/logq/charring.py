"""Exact arithmetic in character rings.

Finite characters of a rank-r torus are integer-multiplicity functions on the
weight lattice Z^r.  Univariate Laurent polynomials model characters of a
circle, rational character expressions model fixed-point contributions of the
form ``sign * t^mu / prod(1 - t^w)``, and SU(2) characters are recorded by
highest weight.  Everything here is exact integer arithmetic; no floats.
"""
from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotFinite, NotSU2Character, RankMismatch, SizeLimit
from .jsonio import decode_int, decode_list, encode_int
from .polyhedra import BOX_VOLUME_CAP

Weight = tuple[int, ...]


def as_weight(coords: Iterable[int]) -> Weight:
    """Coerce a sequence of integers to a weight tuple."""
    w = tuple(coords)
    for c in w:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError(f"weight coordinates must be integers, got {c!r}")
    return w


def _check_rank(weight: Weight, rank: int) -> None:
    if len(weight) != rank:
        raise RankMismatch(f"weight {weight} has length {len(weight)}, expected rank {rank}")


class Character:
    """Finite integer-multiplicity map on the weight lattice of a rank-r torus.

    Zero multiplicities are never stored, so equality of the term maps is
    equality in the representation ring.  Instances are immutable.
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Iterable[int], int] | Iterable = ()):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Weight, int] = {}
        for weight, mult in items:
            w = as_weight(weight)
            _check_rank(w, rank)
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise TypeError(f"multiplicity must be an integer, got {mult!r}")
            m = clean.get(w, 0) + mult
            if m:
                clean[w] = m
            elif w in clean:
                del clean[w]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    @property
    def terms(self) -> Mapping[Weight, int]:
        return self._terms

    def multiplicity(self, weight: Iterable[int]) -> int:
        w = as_weight(weight)
        _check_rank(w, self.rank)
        return self._terms.get(w, 0)

    def dimension(self) -> int:
        """Signed (virtual) dimension: the sum of all multiplicities."""
        return sum(self._terms.values())

    def invariant_part(self) -> int:
        """Multiplicity of the trivial weight."""
        return self._terms.get((0,) * self.rank, 0)

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(self._terms))

    def specialize(self, xi: Iterable[int]) -> "LaurentPoly":
        """Restrict along the one-parameter subgroup ``xi``.

        Returns ``sum m_w * t^<w, xi>``.  Distinct weights may collide unless
        the caller has checked that pairing with ``xi`` is injective on the
        support.
        """
        x = as_weight(xi)
        _check_rank(x, self.rank)
        out: dict[int, int] = {}
        for w, m in self._terms.items():
            e = sum(a * b for a, b in zip(w, x))
            v = out.get(e, 0) + m
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly(out)

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatch(f"cannot add characters of ranks {self.rank} and {other.rank}")
        merged = Counter(self._terms)
        merged.update(other._terms)
        return Character(self.rank, merged)

    def __neg__(self) -> "Character":
        return Character(self.rank, {w: -m for w, m in self._terms.items()})

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.rank == other.rank and dict(self._terms) == dict(other._terms)

    def __hash__(self):
        return hash((self.rank, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {m}" for w, m in sorted(self._terms.items()))
        return f"Character(rank={self.rank}, {{{body}}})"

    def to_jsonable(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"weight": [encode_int(c) for c in w], "mult": encode_int(m)}
                for w, m in sorted(self._terms.items())
            ],
        }

    @classmethod
    def from_jsonable(cls, obj) -> "Character":
        rank = decode_int(obj["rank"])
        terms = {}
        for entry in decode_list(obj.get("terms", [])):
            w = tuple(decode_int(c) for c in decode_list(entry["weight"]))
            terms[w] = terms.get(w, 0) + decode_int(entry["mult"])
        return cls(rank, terms)


class LaurentPoly:
    """Univariate Laurent polynomial over Z in the variable t.

    Stored as a map exponent -> nonzero coefficient, so the canonical form is
    unique and equality is dictionary equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for e, c in items:
            if isinstance(e, bool) or not isinstance(e, int):
                raise TypeError(f"exponent must be an integer, got {e!r}")
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"coefficient must be an integer, got {c!r}")
            v = clean.get(e, 0) + c
            if v:
                clean[e] = v
            elif e in clean:
                del clean[e]
        object.__setattr__(self, "_coeffs", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @classmethod
    def one_minus(cls, w: int) -> "LaurentPoly":
        """The factor 1 - t^w for nonzero w."""
        if w == 0:
            raise ValueError("factor weight must be nonzero")
        return cls({0: 1, w: -1})

    @property
    def coeffs(self) -> Mapping[int, int]:
        return self._coeffs

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def min_exp(self):
        return min(self._coeffs) if self._coeffs else None

    def max_exp(self):
        return max(self._coeffs) if self._coeffs else None

    def is_symmetric(self) -> bool:
        """True when invariant under t -> 1/t."""
        return all(self._coeffs.get(-e, 0) == c for e, c in self._coeffs.items())

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = Counter(self._coeffs)
        merged.update(other._coeffs)
        return LaurentPoly(merged)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly({e: other * c for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return dict(self._coeffs) == dict(other._coeffs)

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return "LaurentPoly(" + " + ".join(parts) + ")"

    def to_character(self) -> Character:
        """Reinterpret as a rank-1 torus character."""
        return Character(1, {(e,): c for e, c in self._coeffs.items()})


class RationalTerm:
    """One summand ``sign * t^mu / prod_i (1 - t^(w_i))``.

    Denominator weights are stored raw (no sign normalization) so orientation
    conventions in fixed-point data stay visible.
    """

    __slots__ = ("sign", "mu", "denom")

    def __init__(self, sign: int, mu: int, denom: Iterable[int] = ()):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if isinstance(mu, bool) or not isinstance(mu, int):
            raise TypeError(f"numerator exponent must be an integer, got {mu!r}")
        d = tuple(sorted(denom))
        for w in d:
            if isinstance(w, bool) or not isinstance(w, int):
                raise TypeError(f"denominator weight must be an integer, got {w!r}")
            if w == 0:
                raise ValueError("denominator weights must be nonzero")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "denom", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalTerm is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalTerm):
            return NotImplemented
        return (self.sign, self.mu, self.denom) == (other.sign, other.mu, other.denom)

    def __hash__(self):
        return hash((self.sign, self.mu, self.denom))

    def __repr__(self):
        return f"RationalTerm({self.sign:+d}, mu={self.mu}, denom={list(self.denom)})"


class RationalChar:
    """Finite formal sum of rational terms.

    A desk-scale stand-in for formal infinite character combinations: sums are
    kept as exact rational expressions and only converted to honest finite
    characters by :func:`rational_to_laurent`, which fails loudly when the sum
    is not polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        lst = []
        for t in terms:
            if isinstance(t, RationalTerm):
                lst.append(t)
            else:
                sign, mu, denom = t
                lst.append(RationalTerm(sign, mu, denom))
        object.__setattr__(self, "terms", tuple(lst))

    def __setattr__(self, name, value):
        raise AttributeError("RationalChar is immutable")

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"RationalChar({list(self.terms)!r})"


class SU2Char:
    """Virtual SU(2) character: finite multiplicities of the irreducibles V_j."""

    __slots__ = ("_mults",)

    def __init__(self, mults: Mapping[int, int] | Iterable = ()):
        items = mults.items() if isinstance(mults, Mapping) else mults
        clean: dict[int, int] = {}
        for j, m in items:
            if isinstance(j, bool) or not isinstance(j, int) or j < 0:
                raise ValueError(f"highest weight must be a nonnegative integer, got {j!r}")
            if isinstance(m, bool) or not isinstance(m, int):
                raise TypeError(f"multiplicity must be an integer, got {m!r}")
            v = clean.get(j, 0) + m
            if v:
                clean[j] = v
            elif j in clean:
                del clean[j]
        object.__setattr__(self, "_mults", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("SU2Char is immutable")

    @property
    def mults(self) -> Mapping[int, int]:
        return self._mults

    def multiplicity(self, j: int) -> int:
        return self._mults.get(j, 0)

    def to_laurent(self) -> LaurentPoly:
        """Expand into the character of the maximal torus."""
        out = LaurentPoly()
        for j, m in self._mults.items():
            out = out + m * weyl_char(j)
        return out

    def __add__(self, other: "SU2Char") -> "SU2Char":
        if not isinstance(other, SU2Char):
            return NotImplemented
        merged = Counter(self._mults)
        merged.update(other._mults)
        return SU2Char(merged)

    def __neg__(self) -> "SU2Char":
        return SU2Char({j: -m for j, m in self._mults.items()})

    def __sub__(self, other: "SU2Char") -> "SU2Char":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, SU2Char):
            return NotImplemented
        return dict(self._mults) == dict(other._mults)

    def __hash__(self):
        return hash(frozenset(self._mults.items()))

    def __bool__(self):
        return bool(self._mults)

    def __repr__(self):
        body = ", ".join(f"V_{j}: {m}" for j, m in sorted(self._mults.items()))
        return f"SU2Char({{{body}}})"

    def to_jsonable(self) -> dict:
        return {
            "terms": [
                {"j": encode_int(j), "mult": encode_int(m)}
                for j, m in sorted(self._mults.items())
            ]
        }

    @classmethod
    def from_jsonable(cls, obj) -> "SU2Char":
        mults = {}
        for entry in decode_list(obj.get("terms", [])):
            j = decode_int(entry["j"])
            mults[j] = mults.get(j, 0) + decode_int(entry["mult"])
        return cls(mults)


def _exact_div(num: LaurentPoly, den: LaurentPoly, max_terms: int):
    """Exact quotient num/den in Z[t, 1/t], or None when it does not exist.

    Peels from the lowest exponent.  Any exact quotient q satisfies
    max(q) = max(num) - max(den), which bounds the loop; that span can be
    astronomically wide, so a quotient of more than ``max_terms`` nonzero
    terms raises :class:`SizeLimit`.
    """
    if not num:
        return LaurentPoly()
    work = dict(num.coeffs)
    d_min = den.min_exp()
    d_lead = den.coeff(d_min)
    top = num.max_exp() - den.max_exp()
    den_terms = tuple(den.coeffs.items())
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
    return LaurentPoly(quotient)


def rational_to_laurent(r: RationalChar, *, max_terms: int = BOX_VOLUME_CAP) -> LaurentPoly:
    """Collapse a rational character expression to a finite Laurent polynomial.

    All terms are put over a common denominator (multiset maximum of the
    factors ``1 - t^w``) and the quotient is computed by exact integer
    division.  Raises :class:`NotFinite` when a nonzero remainder shows the
    formal sum is not a finite character, and :class:`SizeLimit` when the
    quotient has more than ``max_terms`` terms.
    """
    if not r.terms:
        return LaurentPoly()
    common: Counter = Counter()
    for term in r.terms:
        common |= Counter(term.denom)
    numerator = LaurentPoly()
    for term in r.terms:
        extra = common - Counter(term.denom)
        part = LaurentPoly.monomial(term.mu, term.sign)
        for w in sorted(extra.elements()):
            part = part * LaurentPoly.one_minus(w)
        numerator = numerator + part
    denominator = LaurentPoly({0: 1})
    for w in sorted(common.elements()):
        denominator = denominator * LaurentPoly.one_minus(w)
    quotient = _exact_div(numerator, denominator, max_terms)
    if quotient is None:
        raise NotFinite("rational character sum does not reduce to a finite character")
    return quotient


def weyl_char(j: int) -> LaurentPoly:
    """Torus character of the SU(2) irreducible with highest weight j.

    Equals the exact quotient (t^(j+1) - t^-(j+1)) / (t - 1/t), expanded as
    sum_{k=0..j} t^(j-2k).
    """
    if isinstance(j, bool) or not isinstance(j, int) or j < 0:
        raise ValueError(f"highest weight must be a nonnegative integer, got {j!r}")
    return LaurentPoly({j - 2 * k: 1 for k in range(j + 1)})


def su2_decompose(p: LaurentPoly) -> SU2Char:
    """Decompose a symmetric Laurent polynomial into SU(2) irreducibles.

    Greedy peel from the highest exponent; exact integers throughout, so a
    failure is an error rather than a rounding.  The result s satisfies
    ``s.to_laurent() == p``.
    """
    if not p.is_symmetric():
        raise NotSU2Character("polynomial is not symmetric under t -> 1/t")
    mults: dict[int, int] = {}
    work = p
    while work:
        j = work.max_exp()
        if j < 0:
            raise NotSU2Character("peel failed to terminate at zero")
        m = work.coeff(j)
        mults[j] = mults.get(j, 0) + m
        work = work - m * weyl_char(j)
    return SU2Char(mults)
