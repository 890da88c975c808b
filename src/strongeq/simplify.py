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
  - A T9 replacement is a pure function of its two rules, so the rule
    pairs found to have none are kept for the whole run and not tried
    again in later passes.
  - The wide scans try only candidates that pass a necessary condition
    read from the misfit of an ordered rule pair (a, b): the atoms of a
    that keep it from fitting inside b field by field, a's head landing in
    b's head or negated body (a.hd - (b.hd|b.ng) | a.ps - b.ps |
    a.ng - b.ng).  cond_1_1_0(a, b) holds iff b is deletable on its own or
    that misfit is empty; cond_2_1_0(ri, rj, rl) needs rl redundant given
    ri or rj alone, or each of ri and rj to fit rl outside one atom; a T9
    replacement of two rules needs one of them to fit the other outside
    one atom.  The conditions still decide every candidate.
  - Each phase leaves a contract the later ones rely on: after
    normalization no rule is deletable on its own, and after the pair
    phase no rule fits another, so the triple and replacement scans need
    only the rules that fit another outside one atom.
  - cond_2_1_0 is symmetric in its first two rules, so the triple scan
    tries each rule pair once, as (i, j) with i < j: (j, i, l) comes
    later in scan order than (i, j, l) and has the same verdict.
  - One table per pass (`_FitTable`, built after normalization from
    per-atom occurrence bitsets, as SAT preprocessors index clauses for
    backward subsumption) holds, per rule, the rules it fits and the rules
    it fits outside one atom, with the transpose of the latter.  Deletions
    drop a row and a bit instead of rebuilding it, so no scan walks all
    pairs or triples: the pair scan reads the fits rows, the triple scan
    takes j only from the rules that share a near rule with i, and the
    replacement scan reads near and its transpose.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .conditions import cond_0_1_0, cond_0_2_1, cond_1_1_0, cond_2_1_0
from .oracle import SE_ATOM_LIMIT, strongly_equivalent
from .syntax import Program, Rule, Symbols, bits_of, format_rule, is_canonical, subsets_of


class SimplifyStep(NamedTuple):
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


class SimplifyTrace(NamedTuple):
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
    seen: dict[Rule, int] = {}  # the rules before i, all distinct, by index
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
        first = seen.setdefault(nr, i)
        if first < i:
            steps.append(SimplifyStep("T6-delete", kept=(first,), removed=(i,)))
            del rules[i]
            continue
        i += 1


def _drop_bit(rows: list[int], l: int) -> None:
    """Delete row l and bit l of every other row, shifting higher bits down."""
    del rows[l]
    low = (1 << l) - 1
    high = ~low
    rows[:] = [row & low | row >> 1 & high for row in rows]


class _FitTable:
    """Per rule a of a list, bitmasks over the rules b of the list:
    `fits[a]`, where misfit(a, b) is empty, `near[a]`, where misfit(a, b)
    has at most one atom, and `near_t`, the transpose of `near`.

    The phase order is the table's contract.  It is built after
    normalization, when no rule is deletable on its own, so b is in
    `fits[a]` iff cond_1_1_0(a, b) holds.  After the pair phase no rule
    fits another, so the triple and replacement scans read `near` and
    `near_t` only.

    The rows come from per-atom occurrence bitsets, not from rule pairs:
    an atom t of a is in misfit(a, b) iff b lacks t in some field of a
    holding t (ps, ng, or hd|ng for a head atom), so a ones/twos
    accumulator over a's atoms, each contributing the rules that lack it,
    counts misfit atoms up to two.  Counting per atom, not per field,
    keeps the rows exact for rules whose fields overlap.

    A deletion drops its row and its bit from every other row; the other
    entries are pure functions of their two rules and stay as they are.
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
        self.near: list[int] = []
        for r in rules:
            hd, ps, ng = r.hd, r.ps, r.ng
            ones = twos = 0
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
                twos |= ones & lack
                ones |= lack
            self.fits.append(everyone ^ ones)
            self.near.append(everyone ^ twos)
        self.near_t = [0] * len(rules)
        bit = 1
        for row in self.near:
            for b in bits_of(row):
                self.near_t[b] |= bit
            bit <<= 1

    def delete(self, l: int) -> None:
        _drop_bit(self.fits, l)
        _drop_bit(self.near, l)
        _drop_bit(self.near_t, l)

    def triple_candidates(self, i: int, j: int) -> int:
        """Bitmask of the l for which cond_2_1_0(rules[i], rules[j],
        rules[l]) can hold once no rule fits another: both rules fit
        inside rules[l] outside a single atom each (a necessary condition
        for the witness clause; the condition itself decides)."""
        return self.near[i] & self.near[j] & ~(1 << i | 1 << j)

    def triple_partners(self, i: int) -> int:
        """Bitmask covering every j != i with a nonzero
        `triple_candidates(i, j)`: the rules sharing a `near` bit with i,
        read from `near_t`."""
        own = 1 << i
        partners = 0
        for l in bits_of(self.near[i] ^ own):
            partners |= self.near_t[l]
        return partners & ~own

    def replace_partners(self, i: int) -> int:
        """Bitmask of the j with `near` bit i or `near[i]` bit j, necessary
        for _pair_replacement(rules[i], rules[j]) to succeed.  A
        replacement c fits inside both rules, so misfit(ri, rj) lies within
        misfit(ri, c) and misfit(rj, ri) within misfit(rj, c); cond_2_1_0(ri,
        rj, c) needs one of those empty, or both within a single witness
        atom."""
        return self.near[i] | self.near_t[i]


def _phase_pair_delete(rules: list[Rule], table: _FitTable, steps: list[SimplifyStep]) -> None:
    i0 = j0 = 0
    while (hit := _first_pair(rules, table, i0, j0)) is not None:
        i, j = hit
        steps.append(SimplifyStep("T6-delete", kept=(i,), removed=(j,)))
        del rules[j]
        table.delete(j)
        # every earlier pair failed and, its rules unchanged, still fails:
        # resume at the deleted position, mapped to the shifted indices
        i0, j0 = i - (j < i), j


def _first_pair(
    rules: list[Rule], table: _FitTable, i0: int, j0: int
) -> tuple[int, int] | None:
    """First (i, j) at or after (i0, j0) in scan order with
    cond_1_1_0(rules[i], rules[j]); only the table's hits are tried."""
    for i in range(i0, len(rules)):
        hits = table.fits[i] & ~(1 << i)
        if i == i0:
            hits = hits >> j0 << j0
        for j in bits_of(hits):
            if cond_1_1_0(rules[i], rules[j]):
                return i, j
    return None


def _phase_triple_delete(rules: list[Rule], table: _FitTable, steps: list[SimplifyStep]) -> None:
    i0 = j0 = l0 = 0
    while (hit := _first_triple(rules, table, i0, j0, l0)) is not None:
        i, j, l = hit
        steps.append(SimplifyStep("T8-delete", kept=(i, j), removed=(l,)))
        del rules[l]
        table.delete(l)
        i0, j0, l0 = i - (l < i), j - (l < j), l


def _first_triple(
    rules: list[Rule], table: _FitTable, i0: int, j0: int, l0: int
) -> tuple[int, int, int] | None:
    """First (i, j, l) at or after (i0, j0, l0) in scan order with
    cond_2_1_0(rules[i], rules[j], rules[l]); only the table's partners j
    and candidates l are tried, in ascending order.

    cond_2_1_0 is symmetric in its first two rules, so only j > i is
    tried: (i, j, l) with j < i was tried as (j, i, l), earlier in scan
    order, and every tuple before the resume point has failed."""
    for i in range(i0, len(rules)):
        partners = table.triple_partners(i) >> i + 1 << i + 1
        if i == i0:
            partners = partners >> j0 << j0
        for j in bits_of(partners):
            candidates = table.triple_candidates(i, j)
            if i == i0 and j == j0:
                candidates = candidates >> l0 << l0
            for l in bits_of(candidates):
                if cond_2_1_0(rules[i], rules[j], rules[l]):
                    return i, j, l
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


def _phase_pair_replace(
    rules: list[Rule],
    table: _FitTable,
    steps: list[SimplifyStep],
    failed: set[tuple[Rule, Rule]],
) -> bool:
    """Apply the first T9 replacement in scan order, if any, skipping the
    rule pairs in `failed`, which earlier passes found no replacement
    for; this pass adds its own."""
    for i in range(len(rules) - 1):
        for j in bits_of(table.replace_partners(i) >> i + 1 << i + 1):
            pair = (rules[i], rules[j])
            if pair in failed:
                continue
            cand = _pair_replacement(*pair)
            if cand is None:
                failed.add(pair)
                continue
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
    failed: set[tuple[Rule, Rule]] = set()
    replaced = True
    while replaced:
        # only T9 adds a rule; after a pass without one, a second pass
        # would find every phase at its fixpoint already
        _phase_normalize(rules, steps)
        table = _FitTable(rules)
        _phase_pair_delete(rules, table, steps)
        _phase_triple_delete(rules, table, steps)
        replaced = _phase_pair_replace(rules, table, steps, failed)
    return Program(tuple(rules)), SimplifyTrace(tuple(steps))


def verify_simplification(p: Program, q: Program, max_atoms: int = SE_ATOM_LIMIT) -> bool:
    """Whether q is strongly equivalent to p."""
    return strongly_equivalent(p, q, max_atoms).equivalent
