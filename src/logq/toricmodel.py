"""Combinatorial model of tropical-welded toric data.

A welded momentum codomain is recorded purely combinatorially: chart
components, divisor walls carrying residues and joining two components,
polytope pieces (one polyhedron per component occurrence), declared wall
strata, and a basepoint component that anchors crossing parities.  Validation
covers the three facts quantization relies on: crossing parity is
well-defined (the wall graph is bipartite from the basepoint), every declared
stratum has a strongly convex modular-weight cone (properness of the momentum
map), and no piece is empty.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import polyhedra
from .errors import EmptyPiece, NotProper, ParityInconsistent, SizeLimit, Unbounded
from .jsonio import _Record, decode_fraction, decode_int, decode_list, encode_fraction
from .polyhedra import Halfspace, Polyhedron, _frac


class DivisorWall(_Record):
    """A divisor hypersurface between two chart components.

    ``residue`` is the residue of the tropical 1-form at the wall; the modular
    weight of the wall is minus the residue.
    """

    id: str
    residue: tuple[Fraction, ...]
    joins: tuple[str, str]

    def __init__(self, id: str, residue: Sequence, joins: Sequence[str]):
        res = tuple(_frac(c) for c in residue)
        if not any(res):
            raise ValueError(f"wall {id!r}: residue must be nonzero")
        j = tuple(joins)
        if len(j) != 2:
            raise ValueError(f"wall {id!r}: joins must name exactly two components")
        object.__setattr__(self, "id", str(id))
        object.__setattr__(self, "residue", res)
        object.__setattr__(self, "joins", j)

    def modular_weight(self) -> tuple[Fraction, ...]:
        return tuple(-c for c in self.residue)


class PolytopePiece(_Record):
    """One polyhedral piece of the momentum image, tagged by its component."""

    component: str
    region: Polyhedron


class Stratum(_Record):
    """A set of walls whose hypersurfaces mutually intersect."""

    walls: frozenset[str]

    def __init__(self, walls: Iterable[str]):
        ws = frozenset(str(w) for w in walls)
        if not ws:
            raise ValueError("a stratum must contain at least one wall")
        object.__setattr__(self, "walls", ws)


class ToricLogData(_Record):
    """Tropical-welded toric input, reduced to combinatorics.

    ``global_sign`` flips the overall orientation: it multiplies every
    crossing-parity sign, hence negates the quantization.
    """

    rank: int
    components: tuple[str, ...]
    walls: tuple[DivisorWall, ...]
    pieces: tuple[PolytopePiece, ...]
    strata: tuple[Stratum, ...]
    base_component: str
    global_sign: int = 1

    def __init__(
        self,
        rank: int,
        components: Iterable[str],
        walls: Iterable[DivisorWall] = (),
        pieces: Iterable[PolytopePiece] = (),
        strata: Iterable[Stratum] = (),
        base_component: str = "",
        global_sign: int = 1,
    ):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        comps = tuple(str(c) for c in components)
        if len(set(comps)) != len(comps):
            raise ValueError("component ids must be unique")
        ws = tuple(walls)
        wall_ids = [w.id for w in ws]
        if len(set(wall_ids)) != len(wall_ids):
            raise ValueError("wall ids must be unique")
        comp_set = set(comps)
        for w in ws:
            if len(w.residue) != rank:
                raise ValueError(f"wall {w.id!r}: residue length != rank {rank}")
            for c in w.joins:
                if c not in comp_set:
                    raise ValueError(f"wall {w.id!r} joins unknown component {c!r}")
        ps = tuple(pieces)
        for p in ps:
            if p.component not in comp_set:
                raise ValueError(f"piece on unknown component {p.component!r}")
            if p.region.rank != rank:
                raise ValueError(f"piece region rank {p.region.rank} != rank {rank}")
        sts = tuple(strata)
        wall_set = set(wall_ids)
        for s in sts:
            for wid in s.walls:
                if wid not in wall_set:
                    raise ValueError(f"stratum names unknown wall {wid!r}")
        base = str(base_component)
        if base not in comp_set:
            raise ValueError(f"base component {base!r} not among components")
        if type(global_sign) is not int or global_sign not in (1, -1):
            raise ValueError(f"global_sign must be +1 or -1, got {global_sign!r}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "walls", ws)
        object.__setattr__(self, "pieces", ps)
        object.__setattr__(self, "strata", sts)
        object.__setattr__(self, "base_component", base)
        object.__setattr__(self, "global_sign", global_sign)

    def wall(self, wall_id: str) -> DivisorWall:
        for w in self.walls:
            if w.id == wall_id:
                return w
        raise KeyError(wall_id)

    def flipped(self) -> "ToricLogData":
        """The same data with the opposite overall orientation."""
        return type(self)(*self._values()[:-1], -self.global_sign)

    def to_jsonable(self) -> dict:
        return {
            "rank": self.rank,
            "components": list(self.components),
            "walls": [
                {
                    "id": w.id,
                    "residue": [encode_fraction(c) for c in w.residue],
                    "joins": list(w.joins),
                }
                for w in self.walls
            ],
            "pieces": [
                {"component": p.component, "region": p.region.to_jsonable()}
                for p in self.pieces
            ],
            "strata": [sorted(s.walls) for s in self.strata],
            "base_component": self.base_component,
            "global_sign": self.global_sign,
        }

    @classmethod
    def from_jsonable(cls, obj) -> "ToricLogData":
        return cls(
            rank=decode_int(obj["rank"]),
            components=[str(c) for c in decode_list(obj["components"])],
            walls=[
                DivisorWall(
                    w["id"],
                    [decode_fraction(c) for c in decode_list(w["residue"])],
                    [str(c) for c in decode_list(w["joins"])],
                )
                for w in decode_list(obj.get("walls", []))
            ],
            pieces=[
                PolytopePiece(str(p["component"]), Polyhedron.from_jsonable(p["region"]))
                for p in decode_list(obj.get("pieces", []))
            ],
            strata=[Stratum(decode_list(s)) for s in decode_list(obj.get("strata", []))],
            base_component=str(obj["base_component"]),
            global_sign=decode_int(obj.get("global_sign", 1)),
        )


class S2FamilyParams(_Record):
    """Geometric parameters of the rank-1 two-piece sphere family.

    The only floating-point numbers in the package live here: ``a`` is the
    divisor height solving log((1-a)/(1+a)) = n, and ``a_prime`` shifts the
    momentum map so the two fixed points sit at n1 and n2.
    """

    n1: int
    n2: int
    n: int
    a: float
    a_prime: float


class CheckResult(_Record):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(_Record):
    """One result per check; ``bad_stratum`` is the first stratum that failed
    the properness check, carried into :class:`NotProper`."""

    checks: tuple[CheckResult, ...]
    bad_stratum: Stratum | None = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def raise_if_failed(self) -> None:
        for c in self.checks:
            if c.passed:
                continue
            if c.name == "parity":
                raise ParityInconsistent(c.detail)
            if c.name == "properness":
                raise NotProper(c.detail, stratum=self.bad_stratum)
            raise EmptyPiece(c.detail)

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _component_parities(d: ToricLogData) -> dict[str, int]:
    """Crossing parity (0 or 1) of each component seen from the basepoint.

    Raises ParityInconsistent when a wall cycle is odd or a component cannot
    be reached through walls.
    """
    adjacency: dict[str, list[tuple[str, str]]] = {c: [] for c in d.components}
    for w in d.walls:
        u, v = w.joins
        adjacency[u].append((v, w.id))
        adjacency[v].append((u, w.id))
    parity = {d.base_component: 0}
    queue = [d.base_component]
    while queue:
        cur = queue.pop(0)
        for nbr, wid in sorted(adjacency[cur]):
            p = parity[cur] ^ 1
            if nbr not in parity:
                parity[nbr] = p
                queue.append(nbr)
            elif parity[nbr] != p:
                raise ParityInconsistent(
                    f"odd wall cycle through wall {wid!r} at component {nbr!r}"
                )
    missing = [c for c in d.components if c not in parity]
    if missing:
        raise ParityInconsistent(
            f"components {missing} are not connected to base {d.base_component!r}"
        )
    return parity


def validate(d: ToricLogData) -> ValidationReport:
    """Run the parity, properness, and nonempty-piece checks.

    Returns a report with one pass/fail entry per check; use
    ``report.raise_if_failed()`` to convert failures into exceptions.
    """
    checks = []
    bad_stratum = None
    try:
        _component_parities(d)
        checks.append(CheckResult("parity", True))
    except ParityInconsistent as exc:
        checks.append(CheckResult("parity", False, str(exc)))

    offending = []
    for s in d.strata:
        weights = [d.wall(w).modular_weight() for w in sorted(s.walls)]
        if not polyhedra.strongly_convex(weights):
            offending.append(sorted(s.walls))
            if bad_stratum is None:
                bad_stratum = s
    if offending:
        checks.append(
            CheckResult(
                "properness",
                False,
                f"modular weight cone not strongly convex on strata {offending}",
            )
        )
    else:
        checks.append(CheckResult("properness", True))

    empty = [
        i for i, p in enumerate(d.pieces) if polyhedra.is_empty(p.region)
    ]
    if empty:
        checks.append(CheckResult("pieces", False, f"empty piece regions at indices {empty}"))
    else:
        checks.append(CheckResult("pieces", True))

    return ValidationReport(tuple(checks), bad_stratum)


def signs(d: ToricLogData) -> tuple[int, ...]:
    """Crossing-parity sign of each piece, in piece order.

    The sign of a piece is global_sign * (-1)^(wall distance parity from the
    basepoint component to the piece's component).
    """
    parity = _component_parities(d)
    return tuple(
        d.global_sign * (-1) ** parity[p.component] for p in d.pieces
    )


def prequant_check(d: ToricLogData) -> bool:
    """Sufficient integrality test: every vertex of every piece is a lattice point."""
    return all(den == 1 for p in d.pieces for _, _, den, _ in polyhedra._vertex_cones(p.region))


def _log1p_exp(x: float) -> float:
    """log(1 + e^x) without overflow."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def s2_family(n1: int, n2: int) -> tuple[ToricLogData, S2FamilyParams]:
    """The rank-1 sphere family with momentum values n1, n2 at the two poles.

    Two components joined by one wall whose modular weight is -1 on the base
    side (residue +1); pieces [n1, oo) on the base with sign + and [n2, oo)
    across the wall with sign -.  The divisor height a solves
    log((1-a)/(1+a)) = n for n = n2 - n1, i.e. a = (1-e^n)/(1+e^n), which is
    computed as -tanh(n/2) for stability.  Momentum values beyond the float
    range raise :class:`SizeLimit`.
    """
    n = n2 - n1
    try:
        a = -math.tanh(n / 2.0)
        # log(1 - a) = log(2 e^n / (e^n + 1)) = log 2 - log(1 + e^(-n))
        a_prime = n1 + math.log(2.0) - _log1p_exp(-float(n))
    except OverflowError as exc:
        raise SizeLimit("s2_family: momentum values exceed the float range") from exc
    data = ToricLogData(
        rank=1,
        components=("C1", "C2"),
        walls=(DivisorWall("w", (Fraction(1),), ("C1", "C2")),),
        pieces=(
            PolytopePiece("C1", Polyhedron(1, [Halfspace((1,), n1)])),
            PolytopePiece("C2", Polyhedron(1, [Halfspace((1,), n2)])),
        ),
        strata=(Stratum({"w"}),),
        base_component="C1",
        global_sign=1,
    )
    return data, S2FamilyParams(n1=n1, n2=n2, n=n, a=a, a_prime=a_prime)


def delzant(P: Polyhedron) -> ToricLogData:
    """Classical toric data: one component, no walls, a single + piece."""
    if polyhedra.is_empty(P):
        raise EmptyPiece("cannot build toric data from an empty polytope")
    if not polyhedra.is_bounded(P):
        raise Unbounded("classical toric data needs a bounded polytope")
    return ToricLogData(
        rank=P.rank,
        components=("C",),
        walls=(),
        pieces=(PolytopePiece("C", P),),
        strata=(),
        base_component="C",
        global_sign=1,
    )
