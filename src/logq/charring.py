"""Exact arithmetic in character rings.

Finite characters of a rank-r torus are integer-multiplicity functions on the
weight lattice Z^r.  Univariate Laurent polynomials model characters of a
circle, and SU(2) characters are recorded by highest weight.  Fixed-point
sums live in :mod:`logq.indexcalc`, which reduces them to Laurent
polynomials.  Everything here is exact integer arithmetic; no floats.
"""
from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotSU2Character, RankMismatch
from .jsonio import decode_int, decode_list, encode_int

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
        return cls(decode_int(obj["rank"]), [
            ([decode_int(c) for c in decode_list(e["weight"])], decode_int(e["mult"]))
            for e in decode_list(obj.get("terms", []))
        ])


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

    @property
    def coeffs(self) -> Mapping[int, int]:
        return self._map

    def coeff(self, exponent: int) -> int:
        return self._map.get(exponent, 0)

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
        return cls([
            (decode_int(e["j"]), decode_int(e["mult"])) for e in decode_list(obj.get("terms", []))
        ])


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
