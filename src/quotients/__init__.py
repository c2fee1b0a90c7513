"""Executable quotient constructions over equivalence classes.

The `equiv` module provides the generic machinery (relations, class values,
bounded congruence checks, lifting); `integers`, `rationals`, and `messages`
are three complete quotient constructions built on it; `sexpr` and `cli`
expose the term syntax and the command line.
"""

from .equiv import (
    CongruenceReport,
    EquivalenceReport,
    EquivClass,
    EquivRelation,
    LiftedFunction,
    RespectMap,
    Verdict,
    check_equivalence,
    check_respects,
    class_eq,
    class_of,
    lift,
    respects2_via_commutativity,
    revalidate_counterexample,
)
from .errors import (
    DomainError,
    ParseError,
    QuotientError,
    RelationMismatchError,
    UncertifiedLiftError,
    UniverseTooLargeError,
)

__all__ = [
    "CongruenceReport",
    "EquivalenceReport",
    "EquivClass",
    "EquivRelation",
    "LiftedFunction",
    "RespectMap",
    "Verdict",
    "check_equivalence",
    "check_respects",
    "class_eq",
    "class_of",
    "lift",
    "respects2_via_commutativity",
    "revalidate_counterexample",
    "DomainError",
    "ParseError",
    "QuotientError",
    "RelationMismatchError",
    "UncertifiedLiftError",
    "UniverseTooLargeError",
]
