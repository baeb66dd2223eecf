"""Exact computer algebra for three families of diagram algebras.

Builds the Gram matrices of the partition-diagram family, its doubled
(flip-stable) relative, and the signed subfamily; reduces them to
block-diagonal form along the coarsening order; computes the generalized
coarser-diagram counts; and decides semisimplicity at exact rational
parameter values.
"""

from .determinant import DetResult, det_blocks, det_direct
from .diagrams import PartitionDiagram
from .gram import (
    ALGEBRAS,
    DiagramKey,
    GramMatrix,
    ResourceGuardError,
    WindowError,
    build_gram,
    enumerate_diagrams,
    projected_dimension,
)
from .polynomials import Poly, phi_z2
from .reduction import (
    BlockDecomposition,
    CoarseningPoset,
    coarsening_poset,
    diagram_coarser_or_equal,
    minimal_common_coarsening,
    reduce_gram,
    reduced_decomposition,
)
from .semisimplicity import Verdict, global_poly, verdict
from .stirling import (
    count_coarser_bruteforce,
    gen_stirling_z2,
    stirling2,
)
from .z2diagrams import Z2Diagram

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAS",
    "BlockDecomposition",
    "CoarseningPoset",
    "DetResult",
    "DiagramKey",
    "GramMatrix",
    "PartitionDiagram",
    "Poly",
    "ResourceGuardError",
    "Verdict",
    "WindowError",
    "Z2Diagram",
    "build_gram",
    "coarsening_poset",
    "count_coarser_bruteforce",
    "det_blocks",
    "det_direct",
    "diagram_coarser_or_equal",
    "enumerate_diagrams",
    "gen_stirling_z2",
    "global_poly",
    "minimal_common_coarsening",
    "phi_z2",
    "projected_dimension",
    "reduce_gram",
    "reduced_decomposition",
    "stirling2",
    "verdict",
]
