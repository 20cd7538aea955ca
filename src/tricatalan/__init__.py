"""Exact counting of lattice paths below x = 2y and the families they match.

The package computes the weighted path polynomials by a column dynamic
program and, one cell at a time, by a closed form.  It realizes the
shift/lift correspondences with pattern-avoiding partial matchings and with
even plane trees, and cross-checks every identity by independent
brute-force enumeration at desk scale.
"""

from .errors import DomainError, ParseError
from .eventree import (
    EvenTree,
    enumerate_even_trees,
    paren,
    path_to_tree,
    r_index,
    r_index_poly,
    tree_from_json,
    tree_from_paren,
    tree_lift,
    tree_shift,
    tree_to_json,
    tree_to_path,
)
from .lattice import (
    ballot,
    catalan3,
    catalan3_coeff,
    descent_poly,
    enumerate_paths,
    lattice_columns,
    lattice_poly,
    lattice_table,
    parse_path,
    path_endpoint,
    weight_exponent,
)
from .matching import (
    FORBIDDEN_PATTERN,
    PartialMatching,
    canonical_sequence,
    completed_sequence,
    contains_forbidden,
    contains_pattern,
    crossing_poly,
    crossings,
    enumerate_matchings,
    is_admissible,
    lift,
    matching_from_json,
    matching_to_json,
    matching_to_path,
    path_to_matching,
    sequence_text,
    shift,
)
from .poly import Poly
from .verify import VerifyReport, iter_verify, run_verify

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ParseError",
    "EvenTree",
    "enumerate_even_trees",
    "paren",
    "path_to_tree",
    "r_index",
    "r_index_poly",
    "tree_from_json",
    "tree_from_paren",
    "tree_lift",
    "tree_shift",
    "tree_to_json",
    "tree_to_path",
    "ballot",
    "catalan3",
    "catalan3_coeff",
    "descent_poly",
    "enumerate_paths",
    "lattice_columns",
    "lattice_poly",
    "lattice_table",
    "parse_path",
    "path_endpoint",
    "weight_exponent",
    "FORBIDDEN_PATTERN",
    "PartialMatching",
    "canonical_sequence",
    "completed_sequence",
    "contains_forbidden",
    "contains_pattern",
    "crossing_poly",
    "crossings",
    "enumerate_matchings",
    "is_admissible",
    "lift",
    "matching_from_json",
    "matching_to_json",
    "matching_to_path",
    "path_to_matching",
    "sequence_text",
    "shift",
    "Poly",
    "VerifyReport",
    "iter_verify",
    "run_verify",
]
