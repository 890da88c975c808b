"""Strong equivalence toolkit for ground disjunctive logic programs.

Two programs are strongly equivalent when they stay interchangeable
inside any larger program.  This package decides that property over
two-world valuations, ships exact syntactic conditions for deleting or
replacing up to two rules at a time, re-verifies those conditions by
exhaustive enumeration, and applies them as a program simplifier.
"""

from .conditions import (
    cond_0_1_0,
    cond_0_1_1,
    cond_0_2_1,
    cond_0_2_2,
    cond_1_1_0,
    cond_2_1_0,
    exhaustive_atom_bound,
    s_implies,
    subsume_witness,
)
from .discovery import (
    DiscoveryReport,
    Mismatch,
    TupleShape,
    discover_positive_tuples,
    enumerate_rules,
    enumerate_tuples,
    language_symbols,
    test_conjecture,
)
from .errors import (
    NotCanonicalError,
    ParseError,
    StrongeqError,
    TooManyAtomsError,
)
from .oracle import HTPair, SEVerdict, countermodel_json, strongly_equivalent
from .semantics import answer_sets, reduct
from .simplify import SimplifyStep, SimplifyTrace, normalize_rule, simplify, verify_simplification
from .syntax import (
    Program,
    Rule,
    Symbols,
    format_program,
    format_rule,
    iso_canonical_form,
    parse_program,
    parse_rule,
)

__version__ = "0.1.0"

__all__ = [
    "DiscoveryReport",
    "HTPair",
    "Mismatch",
    "NotCanonicalError",
    "ParseError",
    "Program",
    "Rule",
    "SEVerdict",
    "SimplifyStep",
    "SimplifyTrace",
    "StrongeqError",
    "Symbols",
    "TooManyAtomsError",
    "TupleShape",
    "answer_sets",
    "cond_0_1_0",
    "cond_0_1_1",
    "cond_0_2_1",
    "cond_0_2_2",
    "cond_1_1_0",
    "cond_2_1_0",
    "countermodel_json",
    "discover_positive_tuples",
    "enumerate_rules",
    "enumerate_tuples",
    "exhaustive_atom_bound",
    "format_program",
    "format_rule",
    "iso_canonical_form",
    "language_symbols",
    "normalize_rule",
    "parse_program",
    "parse_rule",
    "reduct",
    "s_implies",
    "simplify",
    "strongly_equivalent",
    "subsume_witness",
    "test_conjecture",
    "verify_simplification",
]
