"""logq: exact equivariant quantization of toric and rank-1 log symplectic data.

Two independent computation routes (signed lattice counting over welded
polytope pieces, and Atiyah-Bott fixed-point summation in exact character
arithmetic) plus a cross-check harness certifying that they agree.
"""

from .charring import (
    Character,
    LaurentPoly,
    SU2Char,
    Weight,
    as_weight,
    su2_decompose,
    weyl_char,
)
from .errors import (
    EmptyPiece,
    InfiniteSupport,
    LogqError,
    MalformedConfig,
    NotDelzant,
    NotFinite,
    NotProper,
    NotSU2Character,
    ParityInconsistent,
    RankMismatch,
    SizeLimit,
    Unbounded,
)
from .indexcalc import (
    FixedPointTerm,
    QRReport,
    atiyah_bott,
    bwb,
    fixed_terms_delzant,
    fixed_terms_s2,
    mincoupling_index,
    qr_check,
    quantize_lattice,
    rational_to_laurent,
    reduced_multiplicity,
)
from .polyhedra import (
    Cell,
    Halfspace,
    Polyhedron,
    arrangement_cells_with_points,
    is_bounded,
    is_empty,
    lattice_points,
    strongly_convex,
    vertices,
)
from .toricmodel import (
    DivisorWall,
    PolytopePiece,
    S2FamilyParams,
    Stratum,
    ToricLogData,
    ValidationReport,
    delzant,
    prequant_check,
    s2_family,
    signs,
    validate,
)

__version__ = "0.1.0"
