"""Exact tree-clique width toolkit for small graphs.

tcl(G) is the minimum, over tree decompositions of G, of the largest
number of cliques needed to cover a bag.  The package provides a clique
cover subset table and a lazy cover oracle, two exponential-time exact
solvers, linear-time solvers for cographs and permutation graphs,
inclusion-exclusion counting with constructive coloring, a
decomposition verifier and sanitizer, and an independent oracle for
cross-validation: the subset DP over elimination orderings, up to 16
vertices.
"""

from .cover import (
    CapacityError,
    CoverTable,
    ie_chromatic_with_construction,
    ie_count_covers,
    ie_count_partitions,
    lawler_table,
    vcc,
)
from .decomposition import (
    AugmentedTreeDecomposition,
    sanitize,
    validate,
    width,
)
from .graph import (
    Graph,
    enumerate_maximal_independent_sets,
    enumerate_minimal_separators,
    is_pmc,
)
from .oracle import brute_chromatic, tcl_oracle
from .solver_pmc import PmcCatalog, build_catalog, tcl_via_pmc

__all__ = [
    "AugmentedTreeDecomposition",
    "CapacityError",
    "CoverTable",
    "Graph",
    "PmcCatalog",
    "brute_chromatic",
    "build_catalog",
    "enumerate_maximal_independent_sets",
    "enumerate_minimal_separators",
    "ie_chromatic_with_construction",
    "ie_count_covers",
    "ie_count_partitions",
    "is_pmc",
    "lawler_table",
    "sanitize",
    "tcl_oracle",
    "tcl_via_pmc",
    "validate",
    "vcc",
    "width",
]

__version__ = "0.1.0"
