"""Stable-model semantics by brute force.

Interpretations are atom-set bitmasks.  `answer_sets` reads them off the
two-world kernel of the oracle: y is an answer set iff (y, y) is the only
here-and-there model with world y (an equilibrium model).  (y, y) is a
model iff y is a classical model of the reduct relative to y, that is,
no rule's primed implication fails at y; one world mask
(`primed_failures`) rules out every other y at once, and only the y it
keeps are evaluated over their 2^|y| subsets, in the oracle's order: the
program's rule masks are ANDed into the mask of the proper subsets x of
y, stopping as soon as it reaches 0, which makes y an answer set.  The
tests check the kernel against the Gelfond-Lifschitz route: `reduct`
here, `satisfies` and `is_answer_set` in tests/reference.py.
"""

from __future__ import annotations

from .oracle import check_language, here_mask, kept_slices, primed_failures, world_layout
from .syntax import Program, Rule

ANSWER_SET_ATOM_LIMIT = 20


def reduct(p: Program, x: int) -> Program:
    """The not-elimination transform of p relative to x: drop every rule
    whose ng meets x, strip ng from the rest."""
    return Program(tuple(Rule(r.hd, r.ps, 0) for r in p.rules if not r.ng & x))


def answer_sets(p: Program, max_atoms: int = ANSWER_SET_ATOM_LIMIT) -> tuple[int, ...]:
    """All answer sets of p, ascending by cardinality then by atom ids.

    Candidates range over subsets of atoms(p); an answer set can never
    contain an atom the program does not mention.
    """
    lang = p.atoms
    n = lang.bit_count()
    check_language("answer_sets", n, max_atoms)
    rules = p.rules
    layout = world_layout(lang)
    models = ((1 << (1 << n)) - 1) & ~primed_failures(rules, layout)
    found = []
    for y, basis in kept_slices(layout, models):
        # x = y is the top bit of the all-ones kernel mask; no other x may
        # survive, so the proper subsets are that mask shifted down by one
        if not here_mask(rules, y, basis, basis[0] >> 1):
            found.append(y)
    return tuple(found)
