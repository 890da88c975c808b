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


def _phase_normalize(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    changed = False
    i = 0
    while i < len(rules):
        nr = normalize_rule(rules[i])
        if nr is None:
            steps.append(SimplifyStep("T5-delete", removed=(i,)))
            del rules[i]
            changed = True
            continue
        if nr != rules[i]:
            steps.append(SimplifyStep("T7-head-clean", index=i, produced=nr))
            rules[i] = nr
            changed = True
        first = rules.index(nr)
        if first < i:
            steps.append(SimplifyStep("T6-delete", kept=(first,), removed=(i,)))
            del rules[i]
            changed = True
            continue
        i += 1
    return changed


def _phase_pair_delete(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    changed = False
    restart = True
    while restart:
        restart = False
        for i in range(len(rules)):
            for j in range(len(rules)):
                if i != j and cond_1_1_0(rules[i], rules[j]):
                    steps.append(SimplifyStep("T6-delete", kept=(i,), removed=(j,)))
                    del rules[j]
                    changed = restart = True
                    break
            if restart:
                break
    return changed


def _phase_triple_delete(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    changed = False
    restart = True
    while restart:
        restart = False
        for i in range(len(rules)):
            for j in range(len(rules)):
                if j == i:
                    continue
                for l in range(len(rules)):
                    if l == i or l == j:
                        continue
                    if cond_2_1_0(rules[i], rules[j], rules[l]):
                        steps.append(
                            SimplifyStep("T8-delete", kept=(i, j), removed=(l,))
                        )
                        del rules[l]
                        changed = restart = True
                        break
                if restart:
                    break
            if restart:
                break
    return changed


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


def _phase_pair_replace(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
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
    changed = True
    while changed:
        changed = _phase_normalize(rules, steps)
        changed = _phase_pair_delete(rules, steps) or changed
        changed = _phase_triple_delete(rules, steps) or changed
        changed = _phase_pair_replace(rules, steps) or changed
    return Program(tuple(rules)), SimplifyTrace(tuple(steps))


def verify_simplification(p: Program, q: Program, max_atoms: int = SE_ATOM_LIMIT) -> bool:
    """Whether q is strongly equivalent to p."""
    return strongly_equivalent(p, q, max_atoms).equivalent
