"""Certified induced matchings in graphs of maximum degree four.

An induced matching is a set of edges no two of which share an endpoint or
are joined by an edge. Every connected graph with max degree 4, except one
specific 10-vertex graph (gen_c25), has an induced matching of at least a
ninth of its vertices; solve() constructs one together with a replayable
certificate, max_induced_matching() is the exact oracle used on small
components and in tests, and the harness module checks either against the
original graph.
"""

from .engine import (
    EXACT_THRESHOLD,
    RULE_NAMES,
    STEP_KINDS,
    Certificate,
    ReductionStep,
    SolveResult,
    find_induced_2matching_within,
    next_reduction,
    solve,
    validate_step,
)
from .errors import (
    BudgetExceededError,
    C25ComponentError,
    DuplicateEdgeError,
    FormatError,
    IdOutOfRangeError,
    IndmatchError,
    InvariantViolationError,
    MaxDegreeExceededError,
    SelfLoopError,
    UnknownVertexError,
)
from .exact import ConflictGraph, build_conflict_graph, max_induced_matching
from .formats import (
    format_certificate,
    format_graph,
    format_matching,
    parse_certificate_file,
    parse_certificate_text,
    parse_graph_file,
    parse_graph_text,
    parse_matching_file,
    parse_matching_text,
)
from .generators import (
    RandomGraphConfig,
    SplitMix64,
    gen_c25,
    gen_cycle,
    gen_k33plus,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    splitmix64_next,
)
from .graph import (
    Graph,
    build_graph,
    is_induced_matching,
    is_isomorphic_c25,
)
from .harness import (
    FuzzConfig,
    FuzzFailure,
    FuzzReport,
    VerifyReport,
    fuzz,
    verify_certificate,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT_THRESHOLD",
    "RULE_NAMES",
    "STEP_KINDS",
    "Certificate",
    "ReductionStep",
    "SolveResult",
    "find_induced_2matching_within",
    "next_reduction",
    "solve",
    "validate_step",
    "BudgetExceededError",
    "C25ComponentError",
    "DuplicateEdgeError",
    "FormatError",
    "IdOutOfRangeError",
    "IndmatchError",
    "InvariantViolationError",
    "MaxDegreeExceededError",
    "SelfLoopError",
    "UnknownVertexError",
    "ConflictGraph",
    "build_conflict_graph",
    "max_induced_matching",
    "format_certificate",
    "format_graph",
    "format_matching",
    "parse_certificate_file",
    "parse_certificate_text",
    "parse_graph_file",
    "parse_graph_text",
    "parse_matching_file",
    "parse_matching_text",
    "RandomGraphConfig",
    "SplitMix64",
    "gen_c25",
    "gen_cycle",
    "gen_k33plus",
    "gen_path",
    "gen_random_maxdeg4",
    "gen_tight9",
    "splitmix64_next",
    "Graph",
    "build_graph",
    "is_induced_matching",
    "is_isomorphic_c25",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "VerifyReport",
    "fuzz",
    "verify_certificate",
    "verify_solution",
]
