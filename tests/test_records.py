"""The immutable record base (``jsonio._Record``) behaves as the frozen
dataclasses it replaced: same repr text, value equality within one exact
class, hashing, defaults, immutability and constructor errors.  Importing
the package loads neither ``dataclasses`` nor ``inspect``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logq import (
    Cell,
    Character,
    DivisorWall,
    FixedPointTerm,
    Halfspace,
    Polyhedron,
    PolytopePiece,
    QRReport,
    S2FamilyParams,
    Stratum,
    ToricLogData,
    ValidationReport,
)
from logq.cli import JobConfig
from logq.jsonio import _Record
from logq.toricmodel import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

HS = Halfspace((1, "1/2"), 3)
WALL = DivisorWall("w", (1,), ("A", "B"))
PIECE = PolytopePiece("A", Polyhedron(1, [Halfspace((1,), 0)]))
CHECK = CheckResult("parity", True)

# One sample of each record class, with the repr the frozen dataclasses gave.
SAMPLES = [
    (HS, "Halfspace(normal=(Fraction(1, 1), Fraction(1, 2)), offset=Fraction(3, 1))"),
    (
        Polyhedron(2, [HS]),
        "Polyhedron(rank=2, halfspaces=(Halfspace(normal=(Fraction(1, 1), Fraction(1, 2)),"
        " offset=Fraction(3, 1)),))",
    ),
    (Cell((1, 0, -1), True), "Cell(sign_vector=(1, 0, -1), bounded=True)"),
    (FixedPointTerm(-1, (2,), [(1,)]), "FixedPointTerm(sign=-1, mu=(2,), weights=((1,),))"),
    (
        QRReport(Character(1, {(0,): 1}), Character(1, {(0,): 1}), True, (((0,), 1, 1, 1),)),
        "QRReport(lattice_char=Character(rank=1, {(0,): 1}), fixedpoint_char=Character(rank=1,"
        " {(0,): 1}), agree=True, per_weight_table=(((0,), 1, 1, 1),))",
    ),
    (WALL, "DivisorWall(id='w', residue=(Fraction(1, 1),), joins=('A', 'B'))"),
    (
        PIECE,
        "PolytopePiece(component='A', region=Polyhedron(rank=1, halfspaces=(Halfspace(normal="
        "(Fraction(1, 1),), offset=Fraction(0, 1)),)))",
    ),
    (Stratum(["w"]), "Stratum(walls=frozenset({'w'}))"),
    (
        ToricLogData(1, ("A", "B"), (WALL,), (PIECE,), (), "A"),
        "ToricLogData(rank=1, components=('A', 'B'), walls=(DivisorWall(id='w', residue="
        "(Fraction(1, 1),), joins=('A', 'B')),), pieces=(PolytopePiece(component='A', region="
        "Polyhedron(rank=1, halfspaces=(Halfspace(normal=(Fraction(1, 1),), offset="
        "Fraction(0, 1)),))),), strata=(), base_component='A', global_sign=1)",
    ),
    (
        S2FamilyParams(0, 3, 3, -0.5, 0.25),
        "S2FamilyParams(n1=0, n2=3, n=3, a=-0.5, a_prime=0.25)",
    ),
    (CHECK, "CheckResult(name='parity', passed=True, detail='')"),
    (
        ValidationReport((CHECK,)),
        "ValidationReport(checks=(CheckResult(name='parity', passed=True, detail=''),),"
        " bad_stratum=None)",
    ),
    (
        JobConfig("s2_family", (0, 3), None, {}),
        "JobConfig(kind='s2_family', payload=(0, 3), fixed_terms=None, options={})",
    ),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]


def _rebuilt(record):
    """A second instance with the same field values, built by the constructor."""
    return type(record)(*[getattr(record, n) for n in record._fields])


@pytest.mark.parametrize("record, text", SAMPLES, ids=IDS)
def test_repr_matches_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_values_are_equal(record):
    twin = _rebuilt(record)
    assert twin is not record
    assert twin == record and not twin != record
    if not isinstance(record, JobConfig):  # its options are a dict
        values = tuple(getattr(record, n) for n in record._fields)
        assert hash(twin) == hash(record) == hash(values)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_immutable(record):
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value
    assert not hasattr(record, "extra")


def test_fields_are_the_annotations_in_order():
    assert ToricLogData._fields == (
        "rank", "components", "walls", "pieces", "strata", "base_component", "global_sign",
    )
    assert Halfspace._fields == ("normal", "offset")


def test_non_field_attribute_stays_out():
    assert HS.row == ((2, 1), 6)
    assert "row" not in repr(HS)
    with pytest.raises(AttributeError):
        HS.row = None


def test_unequal_values():
    assert CheckResult("parity", True) != CheckResult("parity", False)
    assert Halfspace((2,), 0) != Halfspace((1,), 0)
    assert Stratum(["w"]) != Stratum(["w", "v"])


def test_equality_needs_the_exact_class():
    class Other(_Record):
        name: str
        passed: bool
        detail: str = ""

    other = Other("parity", True)
    assert repr(other).endswith("Other(name='parity', passed=True, detail='')")
    assert other != CHECK and CHECK != other
    assert CHECK.__eq__(other) is NotImplemented
    assert CHECK.__eq__(("parity", True, "")) is NotImplemented
    assert CHECK != ("parity", True, "")


def test_subclass_without_fields_keeps_the_parents():
    class Tagged(Halfspace):
        pass

    class Named(CheckResult):
        pass

    tagged = Tagged((2,), 4)
    assert tagged.row == ((1,), 2)  # Halfspace's own __init__ still runs
    assert repr(tagged).endswith("Tagged(normal=(Fraction(2, 1),), offset=Fraction(4, 1))")
    assert tagged != Halfspace((2,), 4) and tagged == Tagged((2,), 4)
    assert Named("parity", True) == Named(name="parity", passed=True, detail="")
    assert Named("parity", True) != CHECK


def test_generated_init_defaults_and_keywords():
    assert CheckResult("parity", True).detail == ""
    assert ValidationReport(()).bad_stratum is None
    assert CheckResult(detail="d", name="n", passed=False) == CheckResult("n", False, "d")
    assert Cell(bounded=False, sign_vector=(1,)) == Cell((1,), False)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CheckResult("parity"),
        lambda: CheckResult("parity", True, "", "extra"),
        lambda: CheckResult("parity", True, colour="red"),
        lambda: CheckResult("parity", True, name="again"),
        lambda: JobConfig("s2_family", (0, 3), None),
        lambda: S2FamilyParams(0, 3, 3, -0.5),
    ],
)
def test_missing_or_unknown_field(build):
    with pytest.raises(TypeError):
        build()


def test_flipped_builds_through_the_constructor():
    d = SAMPLES[8][0]
    flipped = d.flipped()
    assert flipped.global_sign == -1
    assert [getattr(flipped, n) for n in d._fields[:-1]] == [
        getattr(d, n) for n in d._fields[:-1]
    ]
    assert flipped.flipped() == d


def test_import_loads_no_dataclasses():
    """In a fresh interpreter (pytest itself imports ``inspect``), without
    ``site``, whose ``.pth`` files may import anything."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, logq, logq.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
