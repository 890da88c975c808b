"""Test-only code.  The references are the straightforward forms of code
the package computes a faster way; tests compare the package against
them.  The tools (subset order, renaming, the canonical-rule test,
literal counts) are what the tests state their checks with; the package
itself has no use for them."""

from __future__ import annotations

import os
from itertools import combinations
from typing import Iterator, Mapping

import pytest

from strongeq import (
    HTPair,
    NotCanonicalError,
    Program,
    Rule,
    SimplifyStep,
    StrongeqError,
    Symbols,
    cond_1_1_0,
    format_rule,
    reduct,
    subsume_witness,
)
from strongeq.discovery import DiscoveryReport, language_symbols
from strongeq.syntax import bits_of, mask_of


def assert_same_text(got: str, want: str) -> None:
    """Fail unless the two texts are equal, showing where they first
    differ: pytest's own diff of two long texts can take minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        around = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"from {at}: {got[around]!r} != {want[around]!r}")


class UnmappedAtomError(StrongeqError):
    """Raised when a rename map does not cover every atom of its input."""


def subsets_of(mask: int) -> Iterator[int]:
    """Yield every submask of `mask`, ascending by cardinality then by the
    sorted tuple of bit positions: the order in which the oracle's
    `kept_slices` walks y and so picks its countermodels."""
    positions = tuple(bits_of(mask))
    for size in range(len(positions) + 1):
        for combo in combinations(positions, size):
            yield mask_of(combo)


def literal_count(r: Rule) -> int:
    return r.hd.bit_count() + r.ps.bit_count() + r.ng.bit_count()


def is_canonical(r: Rule) -> bool:
    """True iff hd, ps, ng are pairwise disjoint."""
    return not (r.hd & r.ps or r.hd & r.ng or r.ps & r.ng)


def rename_rule(r: Rule, mapping: Mapping[int, int]) -> Rule:
    """Apply a total atom map (by id) to a rule; sets may shrink when the
    map is not injective."""

    def remap(mask: int) -> int:
        out = 0
        for b in bits_of(mask):
            try:
                out |= 1 << mapping[b]
            except KeyError:
                raise UnmappedAtomError(f"atom id {b} is not in the rename map") from None
        return out

    return Rule(remap(r.hd), remap(r.ps), remap(r.ng))


def rename_program(p: Program, mapping: Mapping[int, int]) -> Program:
    """Apply a total atom map to every rule; rules that collide afterwards
    are merged."""
    return Program(tuple(rename_rule(r, mapping) for r in p.rules))


def delta_holds(r: Rule, pair: HTPair) -> bool:
    """Whether the rule's two-implication translation holds on the pair."""
    x, y = pair
    # Two implications per rule.  Unprimed: positive body in x and negated
    # body missing from y force the head to meet x.  Primed: same with y on
    # both sides.  Empty body makes an antecedent true, empty head makes a
    # consequent false; the mask arithmetic gives both for free.
    return bool(
        (r.ps & ~x or r.ng & y or r.hd & x) and (r.ps & ~y or r.ng & y or r.hd & y)
    )


def ht_pairs(lang: int) -> Iterator[HTPair]:
    """All HTPairs over a language mask, y ascending by cardinality then
    lexicographically, x likewise within each y."""
    for y in subsets_of(lang):
        for x in subsets_of(y):
            yield HTPair(x, y)


def satisfies(x: int, r: Rule) -> bool:
    """Classical satisfaction of a negation-free rule: the body must fail
    or the head must meet x."""
    if r.ng:
        raise ValueError("satisfies() is defined for negation-free rules only")
    return bool(r.ps & ~x) or bool(r.hd & x)


def is_answer_set(p: Program, x: int) -> bool:
    """The Gelfond-Lifschitz check: true iff x satisfies every rule of
    reduct(p, x) and no proper subset of x does."""
    red = reduct(p, x).rules

    def model(y: int) -> bool:
        return all(satisfies(y, r) for r in red)

    return model(x) and not any(model(sub) for sub in subsets_of(x) if sub != x)


def _require_canonical(*rules: Rule) -> None:
    if not all(map(is_canonical, rules)):
        raise NotCanonicalError("this condition is stated for canonical rules only")


def cond_2_1_0(r1: Rule, r2: Rule, r3: Rule) -> bool:
    """r3 is deletable given either rule alone, or the two rules jointly
    subsume it through a witness atom."""
    _require_canonical(r1, r2, r3)
    if cond_1_1_0(r1, r3) or cond_1_1_0(r2, r3):
        return True
    return subsume_witness(r1, r2, r3) is not None


def cond_0_2_1(r1: Rule, r2: Rule, r3: Rule) -> bool:
    """r3 is redundant given the pair, and each of the pair given r3."""
    return cond_2_1_0(r1, r2, r3) and cond_1_1_0(r3, r1) and cond_1_1_0(r3, r2)


def cond_0_2_2(r1: Rule, r2: Rule, r3: Rule, r4: Rule) -> bool:
    """Each side's rules are redundant given the other side.  Each
    cond_2_1_0 checks only its own rules, so r4 is checked only once the
    first of them holds."""
    return (
        cond_2_1_0(r1, r2, r3)
        and cond_2_1_0(r1, r2, r4)
        and cond_2_1_0(r3, r4, r1)
        and cond_2_1_0(r3, r4, r2)
    )


def pair_replacement(r1: Rule, r2: Rule) -> Rule | None:
    """Smallest single canonical rule strongly equivalent to {r1, r2}, if
    one exists with strictly fewer literals, by search.

    A replacement c fits inside r1 and r2 (cond_1_1_0(c, r1) and
    cond_1_1_0(c, r2)), which pins c's fields inside the intersections
    below; every candidate there is tried, smallest sets first."""
    budget = literal_count(r1) + literal_count(r2)
    hd_bound = (r1.hd | r1.ng) & (r2.hd | r2.ng)
    ps_bound = r1.ps & r2.ps
    ng_bound = r1.ng & r2.ng
    for hd in subsets_of(hd_bound):
        for ps in subsets_of(ps_bound):
            for ng in subsets_of(ng_bound):
                cand = Rule(hd, ps, ng)
                if literal_count(cand) < budget and is_canonical(cand) and cond_0_2_1(r1, r2, cand):
                    return cand
    return None


def step_json(step: SimplifyStep, symbols: Symbols) -> dict:
    """A trace step as a dict; `json.dumps` of it is the step's line in
    `SimplifyTrace.json_lines`."""
    if step.kind == "T5-delete":
        return {"step": step.kind, "removed": step.removed[0]}
    if step.kind == "T7-head-clean":
        return {
            "step": step.kind,
            "index": step.index,
            "rule": format_rule(step.produced, symbols),
        }
    if step.kind == "T6-delete":
        return {"step": step.kind, "kept": step.kept[0], "removed": step.removed[0]}
    if step.kind == "T8-delete":
        return {"step": step.kind, "kept": list(step.kept), "removed": step.removed[0]}
    return {
        "step": step.kind,
        "removed": list(step.removed),
        "rule": format_rule(step.produced, symbols),
    }


def report_json(report: DiscoveryReport) -> dict:
    """A verify report as a dict, its rules written over the report's
    `language_symbols`; `json.dumps` of it is
    `DiscoveryReport.json_text()`, and at indent=2 the `--report` file."""
    symbols = language_symbols(report.atom_count)
    return {
        "shape": [report.shape.k, report.shape.m, report.shape.n],
        "atoms": report.atom_count,
        "total": report.total_tuples,
        "se_positive": report.se_positive_count,
        "cond_positive": report.condition_positive_count,
        "mismatches": [
            {
                "tuple": [format_rule(r, symbols) for r in mm.rules],
                "oracle": mm.oracle,
                "cond": mm.condition,
            }
            for mm in report.mismatches
        ],
        "elapsed_ms": round(report.elapsed_ms, 3),
    }


def order_masks(r: Rule, ties: int) -> tuple[int, int]:
    """Over the neighbour pairs (i, i+1) in `ties`, those where atom i's
    type in the rule is below atom i+1's and those where the two types
    are equal; a type is membership of hd, then ps, then ng, compared as
    a tuple.  The rules a tie mask keeps are those below at no pair, and
    a rule leaves a prefix the ties where it is equal."""

    def atom_type(a: int) -> tuple[int, int, int]:
        return r.hd >> a & 1, r.ps >> a & 1, r.ng >> a & 1

    below = tied = 0
    for i in bits_of(ties):
        if atom_type(i) < atom_type(i + 1):
            below |= 1 << i
        elif atom_type(i) == atom_type(i + 1):
            tied |= 1 << i
    return below, tied


def enumerate_rules(atom_count: int, canonical_only: bool = False) -> list[Rule]:
    """Every rule over the first atom_count atoms but the all-empty one,
    ascending by (hd, ps, ng), canonical ones by filtering all of them."""
    space = 1 << atom_count
    return [
        Rule(hd, ps, ng)
        for hd in range(space)
        for ps in range(space)
        for ng in range(space)
        if (hd | ps | ng) and not (canonical_only and (hd & ps or ng & (hd | ps)))
    ]
