"""Exact Ehrhart-type computations for tropical vector bundles.

The package builds tropical vector bundles from integer diagrams over
matroids and complete fans, computes their sections and equivariant Euler
characteristics, realizes them as convex chains, and verifies the
combinatorial Riemann-Roch identity and the vanishing theorem for
tautological bundles of matroids.  All arithmetic is exact.
"""

from .chains import (
    ConvexChain,
    MultiValuedSupportFunction,
    SupportNumbers,
    brianchon_gram,
    convolve,
    degree,
    evaluate,
    integral,
    invert_polytope,
    lattice_sum,
    support_function_chain,
)
from .hrr import hrr_verify, todd_coeffs
from .lattice import (
    Cone,
    Fan,
    HPolyhedron,
    VPolytope,
    dual_cone,
    faces,
    is_complete,
    is_refinement,
    is_smooth,
    min_containing_cone,
    minkowski_sum,
    refine_by_hyperplanes,
    stellar_subdivision,
    vertex_enumeration,
    volume,
)
from .matroid import (
    Matroid,
    bergman_project,
    circuits,
    closure,
    initial_matroid,
    loops,
    matroid_polytope,
    max_weight_basis,
    rank,
    uniform_matroid,
)
from .taut import flag_alternating_sum, vanishing_check
from .tropvb import (
    SplitBundle,
    TropicalVectorBundle,
    k_class,
    k_class_identity,
    split_resolution,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Cone", "Fan", "HPolyhedron", "VPolytope",
    "dual_cone", "vertex_enumeration", "minkowski_sum", "volume",
    "faces", "min_containing_cone",
    "refine_by_hyperplanes", "stellar_subdivision",
    "is_refinement", "is_smooth", "is_complete",
    "ConvexChain", "SupportNumbers", "MultiValuedSupportFunction",
    "evaluate", "degree", "convolve", "invert_polytope", "brianchon_gram",
    "lattice_sum", "integral", "support_function_chain",
    "Matroid", "uniform_matroid",
    "rank", "closure", "circuits", "loops", "matroid_polytope",
    "max_weight_basis", "bergman_project", "initial_matroid",
    "TropicalVectorBundle", "SplitBundle", "validate",
    "split_resolution", "k_class", "k_class_identity",
    "todd_coeffs", "hrr_verify",
    "vanishing_check", "flag_alternating_sum",
]
