"""Exact lattice-polytope toolkit for correspondences between weighted K3
hypersurface families: kernel lattices of weight systems, Newton polytopes,
polar duality and reflexivity, Picard ranks by lattice point counts, and
verification of the monomial transformation table."""

from .correspondence import (
    VerificationReport,
    common_delta,
    derive_iso,
    search_sub_reflexive,
    verify_row,
    verify_swaps,
)
from .dataset import RowRecord, load_rows, select_rows
from .picard import PicardBreakdown, picard_rank
from .polytope import (
    FaceCounts,
    Polytope3,
    hull,
    is_reflexive,
    polar_dual,
    transform,
    unimodular_equivalent,
)
from .weights import (
    Monomial,
    WeightSystem,
    newton_polytope,
    parse_monomial,
)

__all__ = [
    "FaceCounts",
    "Monomial",
    "PicardBreakdown",
    "Polytope3",
    "RowRecord",
    "VerificationReport",
    "WeightSystem",
    "common_delta",
    "derive_iso",
    "hull",
    "is_reflexive",
    "load_rows",
    "newton_polytope",
    "parse_monomial",
    "picard_rank",
    "polar_dual",
    "search_sub_reflexive",
    "select_rows",
    "transform",
    "unimodular_equivalent",
    "verify_row",
    "verify_swaps",
]

__version__ = "0.1.0"
