"""Exact rank inequalities for subspace arrangements.

Polymatroids and set functions on the Boolean lattice, sparse functionals
with the Ingleton/Kinser inequality hierarchy, union-preserving maps with
their pullback/pushforward, exact linear algebra over GF(p) and the
rationals, subspace arrangements, and machine-checked certificates for the
structural facts tying them together.
"""

from .subsets import SubsetRef, subset, mobius, all_subsets, nonempty_subsets
from .linalg import RATIONAL, Echelon, ExactMatrix, intersect_row_spaces
from .setfunctions import (SetFunction, is_integral, in_polymatroid_cone,
                           is_polymatroid, is_matroid, is_connected)
from .functionals import (Functional, pair, kinser, basic_functionals,
                          permute_functional)
from .maps import (UnionMap, pullback, pushforward, hierarchy_map,
                   identity_map, compose)
from .arrangements import (Arrangement, rank_function, intersect, sum_pullback,
                           generic_lines, uniform_U, random_arrangement,
                           derive_seed)
from .certificates import (CertificateReport, witness_T,
                           verify_witness_realizations, verify_hierarchy,
                           vanishing_condition, vanishing_family,
                           verify_vanishing, verify_line_identities,
                           facet_rank, verify_facet, basis_alpha,
                           verify_basis_F, run_certificates)

__all__ = [
    "SubsetRef", "subset", "mobius", "all_subsets", "nonempty_subsets",
    "RATIONAL", "Echelon", "ExactMatrix", "intersect_row_spaces",
    "SetFunction", "is_integral", "in_polymatroid_cone", "is_polymatroid",
    "is_matroid", "is_connected",
    "Functional", "pair", "kinser", "basic_functionals", "permute_functional",
    "UnionMap", "pullback", "pushforward", "hierarchy_map",
    "identity_map", "compose",
    "Arrangement", "rank_function", "intersect", "sum_pullback",
    "generic_lines", "uniform_U", "random_arrangement", "derive_seed",
    "CertificateReport", "witness_T", "verify_witness_realizations",
    "verify_hierarchy", "vanishing_condition", "vanishing_family",
    "verify_vanishing", "verify_line_identities", "facet_rank",
    "verify_facet", "basis_alpha", "verify_basis_F", "run_certificates",
]

__version__ = "0.1.0"
