"""Theta-vexillary signed permutations.

Construction from triples, extended diagrams and corner taxonomy,
triple recovery, pattern-avoidance classification, and exhaustive
verification over small hyperoctahedral groups.
"""

from .classify import (
    PATTERNS,
    ClassificationReport,
    VerifySummary,
    build_report,
    classify_by_corners,
    classify_by_patterns,
    classify_by_triple,
    enumerate_theta_vexillary,
    verify_equivalence,
)
from .diagram import (
    CornerClass,
    CornerRecord,
    CornerSet,
    corners,
    render_extended,
)
from .sigperm import (
    PatternTable,
    RankTooLargeError,
    SignedPermutation,
    find_pattern,
    format_window,
    parse_window,
)
from .theta import (
    ConditionReport,
    InfeasibleRankError,
    InvalidTripleError,
    ThetaTriple,
    construct,
    construct_inverse,
    format_triple,
    generate_triples,
    min_feasible_rank,
    parse_triple,
    recover,
    triple_from_json,
    triple_to_json,
    validate,
)

__all__ = [
    "PATTERNS",
    "ClassificationReport",
    "ConditionReport",
    "CornerClass",
    "CornerRecord",
    "CornerSet",
    "InfeasibleRankError",
    "InvalidTripleError",
    "PatternTable",
    "RankTooLargeError",
    "SignedPermutation",
    "ThetaTriple",
    "VerifySummary",
    "build_report",
    "classify_by_corners",
    "classify_by_patterns",
    "classify_by_triple",
    "construct",
    "construct_inverse",
    "corners",
    "enumerate_theta_vexillary",
    "find_pattern",
    "format_triple",
    "format_window",
    "generate_triples",
    "min_feasible_rank",
    "parse_triple",
    "parse_window",
    "recover",
    "render_extended",
    "triple_from_json",
    "triple_to_json",
    "validate",
    "verify_equivalence",
]

__version__ = "0.1.0"
