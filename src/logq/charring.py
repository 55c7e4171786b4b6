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


class _IntMap:
    """Immutable finite map from keys to nonzero integers.

    The public constructor checks every key (``_check_key``) and value;
    ``_trusted`` takes a map the package built from checked values.  A
    subclass's own ``__slots__`` (a Character's rank) take part in equality,
    hashing and the rank check of ``+``.
    """

    __slots__ = ("_map",)
    _value_name = "multiplicity"

    def _fill(self, items) -> None:
        items = items.items() if isinstance(items, Mapping) else items
        clean: dict = {}
        for key, value in items:
            key = self._check_key(key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{self._value_name} must be an integer, got {value!r}")
            v = clean.get(key, 0) + value
            if v:
                clean[key] = v
            elif key in clean:
                del clean[key]
        object.__setattr__(self, "_map", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, clean: dict, *fields):
        """Wrap ``clean``, a dict of valid keys to nonzero integers, unchecked."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(obj, name, value)
        object.__setattr__(obj, "_map", MappingProxyType(clean))
        return obj

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._fields() != other._fields():
            raise RankMismatch(f"cannot add characters of ranks {self.rank} and {other.rank}")
        merged = Counter(self._map)
        merged.update(other._map)
        return self._trusted({k: v for k, v in merged.items() if v}, *self._fields())

    def __neg__(self):
        return self._trusted({k: -v for k, v in self._map.items()}, *self._fields())

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._fields() == other._fields() and self._map == other._map

    def __hash__(self):
        return hash((self._fields(), frozenset(self._map.items())))

    def __bool__(self) -> bool:
        return bool(self._map)


class Character(_IntMap):
    """Finite integer-multiplicity map on the weight lattice of a rank-r torus.

    Zero multiplicities are never stored, so equality of the term maps is
    equality in the representation ring.  Instances are immutable.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms: Mapping[Iterable[int], int] | Iterable = ()):
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        object.__setattr__(self, "rank", rank)
        self._fill(terms)

    def _check_key(self, weight) -> Weight:
        w = as_weight(weight)
        if len(w) != self.rank:
            raise RankMismatch(f"weight {w} has length {len(w)}, expected rank {self.rank}")
        return w

    @property
    def terms(self) -> Mapping[Weight, int]:
        return self._map

    def multiplicity(self, weight: Iterable[int]) -> int:
        return self._map.get(self._check_key(weight), 0)

    def dimension(self) -> int:
        """Signed (virtual) dimension: the sum of all multiplicities."""
        return sum(self._map.values())

    def invariant_part(self) -> int:
        """Multiplicity of the trivial weight."""
        return self._map.get((0,) * self.rank, 0)

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(self._map))

    def specialize(self, xi: Iterable[int]) -> "LaurentPoly":
        """Restrict along the one-parameter subgroup ``xi``.

        Returns ``sum m_w * t^<w, xi>``.  Distinct weights may collide unless
        the caller has checked that pairing with ``xi`` is injective on the
        support.
        """
        x = self._check_key(xi)
        out: dict[int, int] = {}
        for w, m in self._map.items():
            e = sum(a * b for a, b in zip(w, x))
            v = out.get(e, 0) + m
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._trusted(out)

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {m}" for w, m in sorted(self._map.items()))
        return f"Character(rank={self.rank}, {{{body}}})"

    def to_jsonable(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"weight": [encode_int(c) for c in w], "mult": encode_int(m)}
                for w, m in sorted(self._map.items())
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


class LaurentPoly(_IntMap):
    """Univariate Laurent polynomial over Z in the variable t.

    Stored as a map exponent -> nonzero coefficient, so the canonical form is
    unique and equality is dictionary equality.
    """

    __slots__ = ()
    _value_name = "coefficient"

    def __init__(self, coeffs: Mapping[int, int] | Iterable = ()):
        self._fill(coeffs)

    @staticmethod
    def _check_key(e) -> int:
        if isinstance(e, bool) or not isinstance(e, int):
            raise TypeError(f"exponent must be an integer, got {e!r}")
        return e

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
        return self._map

    def coeff(self, exponent: int) -> int:
        return self._map.get(exponent, 0)

    def min_exp(self):
        return min(self._map) if self._map else None

    def max_exp(self):
        return max(self._map) if self._map else None

    def is_symmetric(self) -> bool:
        """True when invariant under t -> 1/t."""
        return all(self._map.get(-e, 0) == c for e, c in self._map.items())

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly({e: other * c for e, c in self._map.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._map.items():
            for e2, c2 in other._map.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly._trusted(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._map:
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self._map):
            c = self._map[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return "LaurentPoly(" + " + ".join(parts) + ")"

    def to_character(self) -> Character:
        """Reinterpret as a rank-1 torus character."""
        return Character._trusted({(e,): c for e, c in self._map.items()}, 1)


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


class SU2Char(_IntMap):
    """Virtual SU(2) character: finite multiplicities of the irreducibles V_j."""

    __slots__ = ()

    def __init__(self, mults: Mapping[int, int] | Iterable = ()):
        self._fill(mults)

    @staticmethod
    def _check_key(j) -> int:
        if isinstance(j, bool) or not isinstance(j, int) or j < 0:
            raise ValueError(f"highest weight must be a nonnegative integer, got {j!r}")
        return j

    @property
    def mults(self) -> Mapping[int, int]:
        return self._map

    def multiplicity(self, j: int) -> int:
        return self._map.get(j, 0)

    def to_laurent(self) -> LaurentPoly:
        """Expand into the character of the maximal torus."""
        out = LaurentPoly()
        for j, m in self._map.items():
            out = out + m * weyl_char(j)
        return out

    def __repr__(self):
        body = ", ".join(f"V_{j}: {m}" for j, m in sorted(self._map.items()))
        return f"SU2Char({{{body}}})"

    def to_jsonable(self) -> dict:
        return {
            "terms": [
                {"j": encode_int(j), "mult": encode_int(m)}
                for j, m in sorted(self._map.items())
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
