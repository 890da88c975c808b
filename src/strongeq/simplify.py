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

  - Within a pass every rule keeps its index, in the rule list and in the
    table.  A T6, T8 or T9 deletion clears the rule's bit in an `alive`
    mask, the scans skip the rules whose bit is clear, and the list is
    compacted once at the end of the pass.  The conditions are pure
    functions of their rules and a deletion leaves the other rules as they
    were, so a tuple that failed still fails: the pair scan goes on after
    a hit, and the triple scan finds all its hits first and applies them
    in scan order while their rules are alive.  A step records each index
    as its rank among the live rules, which is the rule's position in the
    list as it stood before the step.
  - Only T9 adds a rule.  A pass without one leaves every phase at its
    fixpoint (normalized rules stay normalized, deletions cannot make a
    pair or triple fire), so the loop stops after it.
  - Normalization runs once, before the first pass.  A T9 rule is the
    common part of two normalized rules, so it is canonical and not
    deletable on its own, and it duplicates no live rule: that rule would
    fit both of the pair, which the pair phase rules out.
  - Each phase leaves a contract the later ones rely on: after
    normalization no rule is deletable on its own, and after the pair
    phase no rule fits another.
  - One index per pass (`_FitTable`) holds, per rule, the mask of the
    rules it fits inside and, per atom p, of those it fits outside p alone.
    With the contract, cond_2_1_0(ri, rj, rl) needs ri and rj to fit rl
    outside the same single atom, and a T9 replacement of ri and rj needs
    each to fit the other outside the same single atom p, when the only
    candidate is their common part off p.  Both scans walk only the pairs
    that share such an atom, and the conditions decide every candidate.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .conditions import cond_0_1_0, cond_0_2_1, cond_1_1_0, cond_2_1_0
from .oracle import SE_ATOM_LIMIT, strongly_equivalent
from .syntax import Program, Rule, Symbols, bits_of, format_rule


class SimplifyStep(NamedTuple):
    """One applied rewrite; indices refer to the rule list as it stood
    immediately before this step."""

    kind: str
    removed: tuple[int, ...] = ()
    kept: tuple[int, ...] = ()
    index: int | None = None
    produced: Rule | None = None


class SimplifyTrace(NamedTuple):
    steps: tuple[SimplifyStep, ...] = ()

    def json_lines(self, symbols: Symbols) -> str:
        """One JSON object per step and line, written out directly: each
        line is the text `json.dumps` gives for the step's dict, keys in
        the order written here and the rule text JSON-encoded."""
        lines = []
        for s in self.steps:
            kind = s.kind
            if kind == "T6-delete":
                line = f'{{"step": "T6-delete", "kept": {s.kept[0]}, "removed": {s.removed[0]}}}'
            elif kind == "T8-delete":
                kept = ", ".join(map(str, s.kept))
                line = f'{{"step": "T8-delete", "kept": [{kept}], "removed": {s.removed[0]}}}'
            elif kind == "T5-delete":
                line = f'{{"step": "T5-delete", "removed": {s.removed[0]}}}'
            elif kind == "T7-head-clean":
                rule = json.dumps(format_rule(s.produced, symbols))
                line = f'{{"step": "T7-head-clean", "index": {s.index}, "rule": {rule}}}'
            else:
                removed = ", ".join(map(str, s.removed))
                rule = json.dumps(format_rule(s.produced, symbols))
                line = f'{{"step": {json.dumps(kind)}, "removed": [{removed}], "rule": {rule}}}'
            lines.append(line + "\n")
        return "".join(lines)


def normalize_rule(r: Rule) -> Rule | None:
    """None if the rule is deletable on its own; otherwise the rule with
    negated-body atoms removed from its head, which preserves strong
    equivalence (same body, same head-plus-negated-body closure) and is
    canonical; a rule with no such atom is returned as it is."""
    if cond_0_1_0(r):
        return None
    if r.hd & r.ng:
        return Rule(r.hd & ~r.ng, r.ps, r.ng)
    return r


def _phase_normalize(rules: list[Rule], steps: list[SimplifyStep]) -> None:
    seen: dict[Rule, int] = {}  # the rules before i, all distinct, by index
    i = 0
    while i < len(rules):
        nr = normalize_rule(rules[i])
        if nr is None:
            steps.append(SimplifyStep("T5-delete", removed=(i,)))
            del rules[i]
            continue
        if nr is not rules[i]:
            steps.append(SimplifyStep("T7-head-clean", index=i, produced=nr))
            rules[i] = nr
        first = seen.setdefault(nr, i)
        if first < i:
            steps.append(SimplifyStep("T6-delete", kept=(first,), removed=(i,)))
            del rules[i]
            continue
        i += 1


class _FitTable:
    """Per rule of a list, the rules of the list it relates to through the
    misfit of a rule a against a rule b: the atoms of a that keep it from
    fitting inside b field by field, a's head landing in b's head or negated
    body (a.hd - (b.hd|b.ng) | a.ps - b.ps | a.ng - b.ng).  `fits[a]` is
    the bitmask of the b where misfit(a, b) is empty; `near[a]` maps each
    atom bit p to the nonzero bitmask of the b where misfit(a, b) = {p}.

    The phase order is the table's contract.  It is built after
    normalization, when no rule is deletable on its own, so b is in
    `fits[a]` iff cond_1_1_0(a, b) holds.  After the pair phase no rule
    fits another, so the triple and replacement scans read `near` only.

    The rows come from per-atom occurrence bitsets, not from rule pairs, as
    SAT preprocessors index clauses for backward subsumption: an atom t of
    a is in misfit(a, b) iff b lacks t in some field of a holding t (ps, ng,
    or hd|ng for a head atom), so a ones/twos accumulator over a's atoms,
    each contributing the rules that lack it, counts misfit atoms up to
    two; `near[a][p]` is p's lack among the rules counted once.  Counting
    per atom, not per field, keeps the rows exact where fields overlap.

    Every entry is a pure function of its two rules, so a deletion leaves
    the table as it is; the scans skip the rules that are no longer live.
    """

    def __init__(self, rules: list[Rule]) -> None:
        everyone = (1 << len(rules)) - 1
        # atom bit -> the rules holding it in hd|ng, in ps, in ng
        in_hn: dict[int, int] = {}
        in_ps: dict[int, int] = {}
        in_ng: dict[int, int] = {}
        bit = 1
        for r in rules:
            for field, index in ((r.hd | r.ng, in_hn), (r.ps, in_ps), (r.ng, in_ng)):
                while field:
                    atom = field & -field
                    index[atom] = index.get(atom, 0) | bit
                    field ^= atom
            bit <<= 1
        self.fits: list[int] = []
        self.near: list[dict[int, int]] = []
        for r in rules:
            hd, ps, ng = r.hd, r.ps, r.ng
            ones = twos = 0
            lacks = []
            atoms = hd | ps | ng
            while atoms:
                atom = atoms & -atoms
                atoms ^= atom
                have = everyone
                if hd & atom:
                    have &= in_hn[atom]
                if ps & atom:
                    have &= in_ps[atom]
                if ng & atom:
                    have &= in_ng[atom]
                lack = everyone ^ have
                lacks.append((atom, lack))
                twos |= ones & lack
                ones |= lack
            self.fits.append(everyone ^ ones)
            exact = ones & ~twos
            self.near.append({atom: near for atom, lack in lacks if (near := lack & exact)})


def _near_pairs(table: _FitTable, alive: int) -> Iterator[tuple[int, int, int]]:
    """Each (i, j, p) once, for live i < j whose `near` rows both hold p."""
    groups: dict[int, list[int]] = {}
    for i in bits_of(alive):
        for atom in table.near[i]:
            groups.setdefault(atom, []).append(i)
    for atom, group in groups.items():
        for x, i in enumerate(group):
            for j in group[x + 1:]:
                yield i, j, atom


def _rank(alive: int, k: int) -> int:
    """Index of live rule k in the list of the live rules."""
    return (alive & (1 << k) - 1).bit_count()


def _phase_pair_delete(
    rules: list[Rule], table: _FitTable, alive: int, steps: list[SimplifyStep]
) -> int:
    """Apply T6 to the live rules, (i, j) in scan order, where
    cond_1_1_0(rules[i], rules[j]) holds; only the table's hits are
    tried.  Returns the mask of the rules still alive."""
    for i in range(len(rules)):
        if not alive >> i & 1:
            continue
        for j in bits_of(table.fits[i] & alive & ~(1 << i)):
            if cond_1_1_0(rules[i], rules[j]):
                steps.append(SimplifyStep(
                    "T6-delete", kept=(_rank(alive, i),), removed=(_rank(alive, j),)))
                alive ^= 1 << j
    return alive


def _phase_triple_delete(
    rules: list[Rule], table: _FitTable, alive: int, steps: list[SimplifyStep]
) -> int:
    """Apply T8 to the live rules, (i, j, l) in scan order, where
    cond_2_1_0(rules[i], rules[j], rules[l]) holds.  Returns the mask of
    the rules still alive.

    As no live rule fits another, the condition needs misfit(ri, rl) =
    misfit(rj, rl) = {p} for one atom p, so only the l in both rules'
    `near[p]` are tried, each pair once as i < j (the condition is
    symmetric in its first two).  The hits are applied in scan order
    while their three rules are alive."""
    near = table.near
    hits = []
    for i, j, atom in _near_pairs(table, alive):
        both = near[i][atom] & near[j][atom] & alive
        if both:
            for l in bits_of(both):
                if cond_2_1_0(rules[i], rules[j], rules[l]):
                    hits.append((i, j, l))
    hits.sort()
    for i, j, l in hits:
        if alive >> i & alive >> j & alive >> l & 1:
            steps.append(SimplifyStep(
                "T8-delete",
                kept=(_rank(alive, i), _rank(alive, j)),
                removed=(_rank(alive, l),),
            ))
            alive ^= 1 << l
    return alive


def _pair_replacement(ri: Rule, rj: Rule, p: int) -> Rule | None:
    """The one rule strongly equivalent to {ri, rj} if any, for canonical
    rules with misfit(ri, rj) = misfit(rj, ri) = {p}: their common part
    off p, when cond_0_2_1 accepts it.

    (i) Off p each rule fits the other, so ps and ng agree there, and so
        do the heads, which miss their own ng, the other's off p.
    (ii) A replacement c fits inside both, so misfit(ri, c) and
         misfit(rj, c) hold p and neither is empty (else ri would fit rj
         through c); c does not hold p, which each rule holds where the
         other lacks it.
    (iii) cond_2_1_0(ri, rj, c) then needs misfit(ri, c) = {p}: the common
          part and c fit inside each other, and canonical rules that do
          are equal.
    """
    common = Rule(ri.hd & ~p, ri.ps & ~p, ri.ng & ~p)
    return common if cond_0_2_1(ri, rj, common) else None


def _phase_pair_replace(
    rules: list[Rule], table: _FitTable, alive: int, steps: list[SimplifyStep]
) -> int:
    """Apply the first T9 replacement of two live rules in scan order, if
    any.  Returns the mask of the rules still alive.

    A replacement c fits inside both rules, so misfit(ri, c) holds
    misfit(ri, rj) and misfit(rj, c) holds misfit(rj, ri).  As no live
    rule fits another, cond_2_1_0(ri, rj, c) then needs both to be the
    same single atom p, so only the pairs with j in `near[i][p]` and i in
    `near[j][p]` are tried, in scan order, each on its common part off p."""
    near = table.near
    for i, j, atom in sorted((i, j, atom) for i, j, atom in _near_pairs(table, alive)
                             if near[i][atom] >> j & near[j][atom] >> i & 1):
        cand = _pair_replacement(rules[i], rules[j], atom)
        if cand is not None:
            steps.append(SimplifyStep(
                "T9-replace", removed=(_rank(alive, i), _rank(alive, j)), produced=cand))
            rules[i] = cand
            return alive ^ 1 << j
    return alive


def simplify(p: Program) -> tuple[Program, SimplifyTrace]:
    """Rewrite p to a fixpoint of the five transformations; the result is
    strongly equivalent to the input, which `verify_simplification`
    re-checks against the semantic oracle."""
    rules = list(p.rules)
    steps: list[SimplifyStep] = []
    _phase_normalize(rules, steps)  # once: a T9 rule needs none
    replaced = True
    while replaced:
        # only T9 adds a rule; after a pass without one, a second pass
        # would find every phase at its fixpoint already
        table = _FitTable(rules)
        alive = _phase_pair_delete(rules, table, (1 << len(rules)) - 1, steps)
        alive = _phase_triple_delete(rules, table, alive, steps)
        kept = _phase_pair_replace(rules, table, alive, steps)
        replaced = kept != alive
        rules = [rules[k] for k in bits_of(kept)]
    # the phase contract keeps the list duplicate-free
    fields = tuple([(r.hd, r.ps, r.ng) for r in rules])
    return Program._of_fields(fields), SimplifyTrace(tuple(steps))


def verify_simplification(p: Program, q: Program, max_atoms: int = SE_ATOM_LIMIT) -> bool:
    """Whether q is strongly equivalent to p."""
    return strongly_equivalent(p, q, max_atoms).equivalent
