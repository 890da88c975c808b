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
    UnmappedAtomError,
)
from .oracle import HTPair, SEVerdict, countermodel_json, delta_holds, ht_pairs, strongly_equivalent
from .semantics import answer_sets, is_answer_set, reduct, satisfies
from .simplify import SimplifyStep, SimplifyTrace, normalize_rule, simplify, verify_simplification
from .syntax import (
    Program,
    Rule,
    Symbols,
    format_program,
    format_rule,
    is_canonical,
    iso_canonical_form,
    parse_program,
    parse_rule,
    rename_program,
    rename_rule,
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
    "UnmappedAtomError",
    "answer_sets",
    "cond_0_1_0",
    "cond_0_1_1",
    "cond_0_2_1",
    "cond_0_2_2",
    "cond_1_1_0",
    "cond_2_1_0",
    "countermodel_json",
    "delta_holds",
    "discover_positive_tuples",
    "enumerate_rules",
    "enumerate_tuples",
    "exhaustive_atom_bound",
    "format_program",
    "format_rule",
    "ht_pairs",
    "is_answer_set",
    "is_canonical",
    "iso_canonical_form",
    "language_symbols",
    "normalize_rule",
    "parse_program",
    "parse_rule",
    "reduct",
    "rename_program",
    "rename_rule",
    "s_implies",
    "satisfies",
    "simplify",
    "strongly_equivalent",
    "subsume_witness",
    "test_conjecture",
    "verify_simplification",
]
