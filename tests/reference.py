"""Test-only references: the straightforward forms of code the package
computes a faster way.  Tests compare the package against these."""

from __future__ import annotations

from strongeq import NotCanonicalError, Rule, cond_1_1_0, is_canonical, subsume_witness
from strongeq.syntax import subsets_of


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
    budget = r1.literal_count + r2.literal_count
    hd_bound = (r1.hd | r1.ng) & (r2.hd | r2.ng)
    ps_bound = r1.ps & r2.ps
    ng_bound = r1.ng & r2.ng
    for hd in subsets_of(hd_bound):
        for ps in subsets_of(ps_bound):
            for ng in subsets_of(ng_bound):
                cand = Rule(hd, ps, ng)
                if cand.literal_count < budget and is_canonical(cand) and cond_0_2_1(r1, r2, cand):
                    return cand
    return None


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
