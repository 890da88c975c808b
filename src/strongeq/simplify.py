"""Strong-equivalence-preserving program simplification.

Five rewrites drive a fixpoint loop, named for the trace vocabulary:

  T5-delete      drop a rule whose positive body meets its head or
                 negated body (always deletable on its own)
  T7-head-clean  remove head atoms that also occur negated in the body
  T6-delete      drop a rule made redundant by one other rule
  T8-delete      drop a rule made redundant by two other rules jointly
  T9-replace     replace a pair of rules by one strictly shorter rule

Each applied step strictly shrinks (total literal occurrences, rule
count), so the loop terminates; scans run in ascending index order, so
the result and its trace are deterministic.  Different orders could give
different, equally valid fixpoints; no confluence is claimed.

The scans are incremental but apply exactly the steps of a scan that
restarts from index 0 after every deletion:

  - After T6 or T8 deletes a rule, the pair or triple scan resumes at the
    deleted position, mapped to the shifted indices.  The conditions are
    pure functions of their rules and a deletion keeps the others in
    order, so every earlier tuple failed before and still fails.
  - Only T9 adds a rule.  A pass without one leaves every phase at its
    fixpoint (normalized rules stay normalized, deletions cannot make a
    pair or triple fire), so the loop stops after it.
  - Both wide scans try only candidates that pass a necessary condition
    read from the misfit of ordered rule pairs (the atoms keeping one rule
    from fitting inside another): cond_2_1_0(ri, rj, rl) needs rl
    redundant given ri or rj alone, or each of ri and rj to fit rl outside
    one atom; a T9 replacement of two rules needs one of them to fit the
    other outside one atom.  The conditions still decide every candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .conditions import cond_0_1_0, cond_0_2_1, cond_1_1_0, cond_2_1_0
from .oracle import SE_ATOM_LIMIT, strongly_equivalent
from .syntax import Program, Rule, Symbols, format_rule, is_canonical, subsets_of


@dataclass(frozen=True)
class SimplifyStep:
    """One applied rewrite; indices refer to the rule list as it stood
    immediately before this step."""

    kind: str
    removed: tuple[int, ...] = ()
    kept: tuple[int, ...] = ()
    index: int | None = None
    produced: Rule | None = None

    def to_json(self, symbols: Symbols) -> dict:
        if self.kind == "T5-delete":
            return {"step": self.kind, "removed": self.removed[0]}
        if self.kind == "T7-head-clean":
            return {
                "step": self.kind,
                "index": self.index,
                "rule": format_rule(self.produced, symbols),
            }
        if self.kind == "T6-delete":
            return {"step": self.kind, "kept": self.kept[0], "removed": self.removed[0]}
        if self.kind == "T8-delete":
            return {"step": self.kind, "kept": list(self.kept), "removed": self.removed[0]}
        return {
            "step": self.kind,
            "removed": list(self.removed),
            "rule": format_rule(self.produced, symbols),
        }


@dataclass(frozen=True)
class SimplifyTrace:
    steps: tuple[SimplifyStep, ...] = ()

    def json_lines(self, symbols: Symbols) -> str:
        return "".join(json.dumps(s.to_json(symbols)) + "\n" for s in self.steps)


def normalize_rule(r: Rule) -> Rule | None:
    """None if the rule is deletable on its own; otherwise the rule with
    negated-body atoms removed from its head, which preserves strong
    equivalence (same body, same head-plus-negated-body closure) and is
    canonical."""
    if cond_0_1_0(r):
        return None
    return Rule(r.hd & ~r.ng, r.ps, r.ng)


def _phase_normalize(rules: list[Rule], steps: list[SimplifyStep]) -> None:
    i = 0
    while i < len(rules):
        nr = normalize_rule(rules[i])
        if nr is None:
            steps.append(SimplifyStep("T5-delete", removed=(i,)))
            del rules[i]
            continue
        if nr != rules[i]:
            steps.append(SimplifyStep("T7-head-clean", index=i, produced=nr))
            rules[i] = nr
        first = rules.index(nr)
        if first < i:
            steps.append(SimplifyStep("T6-delete", kept=(first,), removed=(i,)))
            del rules[i]
            continue
        i += 1


def _phase_pair_delete(rules: list[Rule], steps: list[SimplifyStep]) -> None:
    i0 = j0 = 0
    while (hit := _first_pair(rules, i0, j0)) is not None:
        i, j = hit
        steps.append(SimplifyStep("T6-delete", kept=(i,), removed=(j,)))
        del rules[j]
        # every earlier pair failed and, its rules unchanged, still fails:
        # resume at the deleted position, mapped to the shifted indices
        i0, j0 = i - (j < i), j


def _first_pair(rules: list[Rule], i0: int, j0: int) -> tuple[int, int] | None:
    """First (i, j) at or after (i0, j0) in scan order with
    cond_1_1_0(rules[i], rules[j])."""
    n = len(rules)
    for i in range(i0, n):
        for j in range(j0, n):
            if i != j and cond_1_1_0(rules[i], rules[j]):
                return i, j
        j0 = 0
    return None


def _misfit(a: Rule, b: Rule) -> int:
    """The atoms of a that keep it from fitting inside b field by field
    (a's head may land in b's head or negated body).  For canonical rules
    cond_1_1_0(a, b) holds iff this is empty, and cond_2_1_0's witness
    clause needs misfit(r1, r3) | misfit(r2, r3) to be at most its witness
    atom."""
    return a.hd & ~(b.hd | b.ng) | a.ps & ~b.ps | a.ng & ~b.ng


def _at_most_one_atom(mask: int) -> bool:
    return mask & (mask - 1) == 0


def _fit_table(rules: list[Rule]) -> tuple[list[int], list[int]]:
    """Per rule a, two bitmasks over the rules b: `fits`, where
    cond_1_1_0(a, b) holds, and `near`, where misfit(a, b) has at most one
    atom."""
    fits: list[int] = []
    near: list[int] = []
    for a in rules:
        fit = close = 0
        for l, b in enumerate(rules):
            if cond_1_1_0(a, b):
                fit |= 1 << l
            if _at_most_one_atom(_misfit(a, b)):
                close |= 1 << l
        fits.append(fit)
        near.append(close)
    return fits, near


def _triple_candidates(fits: list[int], near: list[int], i: int, j: int) -> int:
    """Bitmask of the l for which cond_2_1_0(rules[i], rules[j], rules[l])
    can hold: rules[l] is redundant given one of the two rules, or both fit
    inside it outside a single atom each (a necessary condition for the
    witness clause; the condition itself decides)."""
    return (near[i] & near[j] | fits[i] | fits[j]) & ~(1 << i | 1 << j)


def _phase_triple_delete(rules: list[Rule], steps: list[SimplifyStep]) -> None:
    i0 = j0 = l0 = 0
    while (hit := _first_triple(rules, i0, j0, l0)) is not None:
        i, j, l = hit
        steps.append(SimplifyStep("T8-delete", kept=(i, j), removed=(l,)))
        del rules[l]
        i0, j0, l0 = i - (l < i), j - (l < j), l


def _first_triple(
    rules: list[Rule], i0: int, j0: int, l0: int
) -> tuple[int, int, int] | None:
    """First (i, j, l) at or after (i0, j0, l0) in scan order with
    cond_2_1_0(rules[i], rules[j], rules[l]); only the prefiltered l are
    tried, in ascending order."""
    fits, near = _fit_table(rules)
    n = len(rules)
    for i in range(i0, n):
        for j in range(j0, n):
            if j != i:
                candidates = _triple_candidates(fits, near, i, j) >> l0 << l0
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    l = low.bit_length() - 1
                    if cond_2_1_0(rules[i], rules[j], rules[l]):
                        return i, j, l
            l0 = 0
        j0 = 0
    return None


def _pair_replacement(r1: Rule, r2: Rule) -> Rule | None:
    """Smallest single canonical rule strongly equivalent to {r1, r2}, if
    one exists with strictly fewer literals.

    Any viable replacement c must satisfy cond_1_1_0(c, r1) and
    cond_1_1_0(c, r2) with canonical (hence not individually deletable)
    r1 and r2, which pins c's fields inside the intersections below; only
    those candidates are searched, smallest sets first.
    """
    budget = r1.literal_count + r2.literal_count
    hd_bound = (r1.hd | r1.ng) & (r2.hd | r2.ng)
    ps_bound = r1.ps & r2.ps
    ng_bound = r1.ng & r2.ng
    for hd in subsets_of(hd_bound):
        for ps in subsets_of(ps_bound):
            for ng in subsets_of(ng_bound):
                cand = Rule(hd, ps, ng)
                if cand.literal_count >= budget or not is_canonical(cand):
                    continue
                if cond_0_2_1(r1, r2, cand):
                    return cand
    return None


def _may_replace(r1: Rule, r2: Rule) -> bool:
    """Necessary for _pair_replacement(r1, r2) to succeed.  A replacement c
    fits inside both rules, so misfit(r1, r2) lies within misfit(r1, c) and
    misfit(r2, r1) within misfit(r2, c); cond_2_1_0(r1, r2, c) needs one of
    those empty, or both within a single witness atom."""
    return _at_most_one_atom(_misfit(r1, r2)) or _at_most_one_atom(_misfit(r2, r1))


def _phase_pair_replace(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            if not _may_replace(rules[i], rules[j]):
                continue
            cand = _pair_replacement(rules[i], rules[j])
            if cand is not None:
                steps.append(SimplifyStep("T9-replace", removed=(i, j), produced=cand))
                rules[i] = cand
                del rules[j]
                return True
    return False


def simplify(p: Program) -> tuple[Program, SimplifyTrace]:
    """Rewrite p to a fixpoint of the five transformations; the result is
    strongly equivalent to the input, which `verify_simplification`
    re-checks against the semantic oracle."""
    rules = list(p.rules)
    steps: list[SimplifyStep] = []
    replaced = True
    while replaced:
        # only T9 adds a rule; after a pass without one, a second pass
        # would find every phase at its fixpoint already
        _phase_normalize(rules, steps)
        _phase_pair_delete(rules, steps)
        _phase_triple_delete(rules, steps)
        replaced = _phase_pair_replace(rules, steps)
    return Program(tuple(rules)), SimplifyTrace(tuple(steps))


def verify_simplification(p: Program, q: Program, max_atoms: int = SE_ATOM_LIMIT) -> bool:
    """Whether q is strongly equivalent to p."""
    return strongly_equivalent(p, q, max_atoms).equivalent
