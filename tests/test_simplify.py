"""Simplifier rewrites, traces, and the strong-equivalence contract."""

import hashlib
import importlib
import json
import random
import time
from collections import Counter
from itertools import permutations

from strongeq import (
    Program,
    Rule,
    SimplifyStep,
    SimplifyTrace,
    Symbols,
    normalize_rule,
    parse_program,
    parse_rule,
    simplify,
    strongly_equivalent,
    verify_simplification,
)
from strongeq.conditions import cond_0_1_0, cond_1_1_0, cond_2_1_0
from strongeq.discovery import enumerate_rules, ht_pair_masks, rule_mask
from strongeq.simplify import _FitTable, _near_pairs, _pair_replacement
from strongeq.syntax import bits_of
from conftest import random_program, random_rule
import reference
from reference import is_canonical, literal_count

# the module, not the `simplify` function the package exports under its name
SIMPLIFY_MODULE = importlib.import_module("strongeq.simplify")


# one program taking each of the five rewrites once
FIVE_KINDS = (
    "a :- not a. a :- not b. b :- not a. c :- c. "
    "e :- d. f :- not d. f :- not e. "
    "h :- g, not k. g;h :- not k."
)


def build(text: str) -> tuple[Program, Symbols]:
    t = Symbols()
    return parse_program(text, t), t


def apply_step(rules: list[Rule], step: SimplifyStep) -> None:
    """Apply one step to the rule list as it stood right before it."""
    if step.kind in ("T5-delete", "T6-delete", "T8-delete"):
        del rules[step.removed[0]]
    elif step.kind == "T7-head-clean":
        rules[step.index] = step.produced
    elif step.kind == "T9-replace":
        i, j = step.removed
        rules[i] = step.produced
        del rules[j]
    else:
        raise AssertionError(f"unknown step kind {step.kind}")


def replay(p: Program, trace: SimplifyTrace) -> Program:
    """Re-apply a trace step by step; indices refer to the list as it
    stood right before each step."""
    rules = list(p.rules)
    for step in trace.steps:
        apply_step(rules, step)
    return Program(tuple(rules))


class TestNormalizeRule:
    def test_self_supporting_rule_dropped(self):
        t = Symbols()
        assert normalize_rule(parse_rule("a :- a.", t)) is None

    def test_contradictory_head_cleaned_to_constraint(self):
        t = Symbols()
        assert normalize_rule(parse_rule("a :- not a.", t)) == Rule(0, 0, 0b1)

    def test_plain_rule_unchanged(self):
        t = Symbols()
        r = parse_rule("a :- b.", t)
        assert normalize_rule(r) is r

    def test_output_is_canonical(self):
        rng = random.Random(17)
        for _ in range(500):
            r = Rule(rng.randrange(32), rng.randrange(32), rng.randrange(32))
            nr = normalize_rule(r)
            if nr is not None:
                assert is_canonical(nr)
                assert strongly_equivalent(Program((r,)), Program((nr,))).equivalent


class TestSimplifyExamples:
    def test_self_supporting_rule_removed(self):
        p, t = build("a :- not b. b :- not a. a :- a.")
        out, trace = simplify(p)
        assert out.rules == p.rules[:2]
        assert [s.kind for s in trace.steps] == ["T5-delete"]

    def test_head_clean_then_pair_delete(self):
        p, t = build("a :- not a. a :- not b. b :- not a.")
        out, trace = simplify(p)
        assert out.rules == (Rule(0, 0, 0b1), Rule(0b1, 0, 0b10))
        assert [s.kind for s in trace.steps] == ["T7-head-clean", "T6-delete"]
        assert verify_simplification(p, out)

    def test_pair_replaced_by_single_shorter_rule(self):
        p, t = build("a2 :- a1, not a3. a1;a2 :- not a3.")
        out, trace = simplify(p)
        assert [s.kind for s in trace.steps] == ["T9-replace"]
        assert out.rules == (parse_rule("a2 :- not a3.", t),)

    def test_joint_subsumption_removes_third_rule(self):
        p, t = build("a2 :- a1. a3 :- not a1. a3 :- not a2.")
        out, trace = simplify(p)
        assert out.rules == p.rules[:2]
        assert trace.steps[0].kind == "T8-delete"

    def test_duplicates_merge_on_construction(self):
        p, _ = build("a. a.")
        assert len(p) == 1
        out, trace = simplify(p)
        assert len(out) == 1


class TestTrace:
    def test_replay_reproduces_output(self):
        rng = random.Random(23)
        for _ in range(300):
            p = random_program(rng, 4, 5)
            out, trace = simplify(p)
            assert replay(p, trace) == out

    def test_json_lines_schema(self):
        p, t = build(FIVE_KINDS)
        out, trace = simplify(p)
        lines = [json.loads(line) for line in trace.json_lines(t).splitlines()]
        schema = {
            "T5-delete": {"removed": int},
            "T7-head-clean": {"index": int, "rule": str},
            "T6-delete": {"kept": int, "removed": int},
            "T8-delete": {"kept": list, "removed": int},
            "T9-replace": {"removed": list, "rule": str},
        }
        assert sorted(line["step"] for line in lines) == sorted(schema)
        for line in lines:
            fields = schema[line["step"]]
            assert set(line) == {"step", *fields}
            for key, kind in fields.items():
                assert type(line[key]) is kind, (line, key)
        assert lines[3] == {"step": "T8-delete", "kept": [2, 3], "removed": 4}
        assert lines[4] == {"step": "T9-replace", "removed": [4, 5], "rule": "h :- not k."}

    def test_json_lines_match_the_reference_rendering(self):
        # json.dumps of the reference dicts, on the 1000-rule scale seed
        # (T6, T8, T9), the five-kind program, and random programs
        lang = Symbols()
        for i in range(60):
            lang.intern(f"a{i}")
        cases = [(simplify(seeded_rules(1, 1000, 60))[1], lang)]
        p, t = build(FIVE_KINDS)
        cases.append((simplify(p)[1], t))
        rng = random.Random(53)
        cases += [(simplify(random_program(rng, 4, 6))[1], lang) for _ in range(300)]
        random_kinds = Counter(s.kind for trace, _ in cases[2:] for s in trace.steps)
        assert random_kinds["T7-head-clean"] and random_kinds["T9-replace"], random_kinds
        assert {s.kind for trace, _ in cases[:2] for s in trace.steps} == {
            "T5-delete", "T7-head-clean", "T6-delete", "T8-delete", "T9-replace"}
        for trace, symbols in cases:
            expected = "".join(
                json.dumps(reference.step_json(s, symbols)) + "\n" for s in trace.steps)
            reference.assert_same_text(trace.json_lines(symbols), expected)

    def test_step_indices_refer_to_pre_step_program(self):
        p, _ = build("a :- a. b :- b.")
        out, trace = simplify(p)
        # Both rules die under the always-deletable rewrite; after the
        # first deletion the second rule sits at index 0.
        assert [(s.kind, s.removed) for s in trace.steps] == [
            ("T5-delete", (0,)),
            ("T5-delete", (0,)),
        ]
        assert out.rules == ()


class TestSimplifyContract:
    def test_preserves_strong_equivalence_randomized(self):
        rng = random.Random(29)
        for _ in range(500):
            p = random_program(rng, 5, 6)
            out, _ = simplify(p)
            assert verify_simplification(p, out)
            assert len(set(out.rules)) == len(out.rules)

    def test_idempotent(self):
        rng = random.Random(37)
        for _ in range(300):
            p = random_program(rng, 5, 6)
            once, _ = simplify(p)
            twice, trace = simplify(once)
            assert twice == once
            assert trace.steps == ()
            assert all(normalize_rule(r) is r for r in once.rules)

    def test_deterministic(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_program(rng, 5, 6)
            first = simplify(p)
            second = simplify(Program(p.rules))
            assert first == second

    def test_monotone_measure_decreases_per_step(self):
        def measure(rules: list[Rule]) -> tuple[int, int]:
            return (sum(map(literal_count, rules)), len(rules))

        rng = random.Random(43)
        for _ in range(300):
            p = random_program(rng, 4, 6)
            out, trace = simplify(p)
            rules = list(p.rules)
            for step in trace.steps:
                before = measure(rules)
                if step.kind in ("T5-delete", "T6-delete", "T8-delete"):
                    del rules[step.removed[0]]
                elif step.kind == "T7-head-clean":
                    rules[step.index] = step.produced
                else:
                    i, j = step.removed
                    rules[i] = step.produced
                    del rules[j]
                assert measure(rules) < before

    def test_verify_mode_accepts_its_own_output(self):
        p, _ = build("a :- not b. b :- not a. a :- a.")
        out, _ = simplify(p)
        assert verify_simplification(p, out)
        assert len(out) == 2


class TestFixpointByTheOracle:
    """The output is a fixpoint by the semantics itself, not only by the
    conditions the simplifier decides its steps with, so a mistake that
    the simplifier and its reference share cannot hide one.  The fixpoint
    is local to the paper's shapes: a rule that the rest of the output
    entails can stay, and the test counts them on a fixed seed."""

    def test_no_output_pair_or_triple_admits_a_step(self):
        rng = random.Random(7)
        # every canonical rule over the five atoms, as a T9 candidate: by
        # its mask, the harness's closed form of the same semantics
        layout = ht_pair_masks(5)
        candidates: dict[int, list[int]] = {}
        for r in enumerate_rules(5, canonical_only=True):
            candidates.setdefault(rule_mask(r, layout), []).append(r.hd | r.ps | r.ng)
        for _ in range(60):
            out = simplify(random_program(rng, 5, 6))[0].rules
            for i, j in permutations(range(len(out)), 2):
                ri, rj = out[i], out[j]
                # T6: rj is redundant given ri
                assert not strongly_equivalent(Program((ri, rj)), Program((ri,))).equivalent
                if i > j:
                    continue
                for rl in out[:i] + out[i + 1:j] + out[j + 1:]:
                    # T8: rl is redundant given ri and rj
                    assert not strongly_equivalent(
                        Program((ri, rj, rl)), Program((ri, rj))).equivalent
                # T9: one canonical rule over the pair's atoms replaces it
                atoms = ri.hd | ri.ps | ri.ng | rj.hd | rj.ps | rj.ng
                both = rule_mask(ri, layout) & rule_mask(rj, layout)
                assert not any(a & ~atoms == 0 for a in candidates.get(both, ()))

    def test_count_of_rules_the_rest_of_the_output_entails(self):
        rng = random.Random(11)
        rules = entailed = 0
        for _ in range(300):
            out = simplify(random_program(rng, 5, 12))[0].rules
            rules += len(out)
            whole = Program(out)
            entailed += sum(
                strongly_equivalent(Program(out[:i] + out[i + 1:]), whole).equivalent
                for i in range(len(out))
            )
        assert (entailed, rules) == (24, 982)


class TestVerifySimplification:
    def test_accepts_simplify_output(self):
        rng = random.Random(47)
        for _ in range(50):
            p = random_program(rng, 5, 5)
            out, _ = simplify(p)
            assert verify_simplification(p, out)

    def test_rejects_non_equivalent_pair(self):
        t = Symbols()
        assert not verify_simplification(
            parse_program("a :- b.", t), parse_program("a :- c.", t)
        )

    def test_reflexive(self):
        p, _ = build("a :- not b.")
        assert verify_simplification(p, p)


# --- reference: the restart-based scans the incremental simplifier replaced --
#
# Each scan restarts from index 0 after every deletion and the fixpoint
# loop re-runs all four phases after any change; T9 searches every
# candidate rule (`reference.pair_replacement`).  The simplifier must
# produce exactly this output and trace.


def _reference_normalize(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
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


def _reference_pair_delete(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
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


def _reference_triple_delete(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
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
                        steps.append(SimplifyStep("T8-delete", kept=(i, j), removed=(l,)))
                        del rules[l]
                        changed = restart = True
                        break
                if restart:
                    break
            if restart:
                break
    return changed


def _reference_pair_replace(rules: list[Rule], steps: list[SimplifyStep]) -> bool:
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            cand = reference.pair_replacement(rules[i], rules[j])
            if cand is not None:
                steps.append(SimplifyStep("T9-replace", removed=(i, j), produced=cand))
                rules[i] = cand
                del rules[j]
                return True
    return False


def reference_simplify(p: Program) -> tuple[Program, SimplifyTrace]:
    rules = list(p.rules)
    steps: list[SimplifyStep] = []
    changed = True
    while changed:
        changed = _reference_normalize(rules, steps)
        changed = _reference_pair_delete(rules, steps) or changed
        changed = _reference_triple_delete(rules, steps) or changed
        changed = _reference_pair_replace(rules, steps) or changed
    return Program(tuple(rules)), SimplifyTrace(tuple(steps))


def _sparse_rule(rng: random.Random, atom_count: int) -> Rule:
    """A canonical rule of exactly four literals over distinct atoms."""
    fields = [0, 0, 0]
    for a in rng.sample(range(atom_count), 4):
        fields[rng.choices((0, 1, 2), (4, 4, 2))[0]] |= 1 << a
    return Rule(*fields)


def redundant_program(rng: random.Random, atom_count: int, base: int, extra: int) -> Program:
    """`base` random rules plus `extra` rules the simplifier can remove:
    weakened copies (T6), resolvents of two rules (T8) and self-supporting
    rules (T5), inserted at random positions."""
    rules: list[Rule] = []
    while len(rules) < base:
        r = _sparse_rule(rng, atom_count)
        if r not in rules:
            rules.append(r)
    out = list(rules)
    while len(out) < len(rules) + extra:
        roll = rng.random()
        r1, r2 = rng.choice(rules), rng.choice(rules)
        if roll < 0.5:
            free = [a for a in range(atom_count) if not r1.atoms >> a & 1]
            a = 1 << rng.choice(free)
            if rng.random() < 0.6:
                r = Rule(r1.hd, r1.ps | a, r1.ng)
            else:
                r = Rule(r1.hd, r1.ps, r1.ng | a)
        elif roll < 0.85:
            link = r1.ps & r2.hd
            if not link:
                continue
            b = link & -link
            r = Rule(r1.hd | r2.hd & ~b, r1.ps & ~b | r2.ps, r1.ng | r2.ng)
            if not is_canonical(r):
                continue
        else:
            a, b = rng.sample(range(atom_count), 2)
            r = Rule(1 << a, 1 << a | 1 << b, 0)
        if r not in out:
            out.insert(rng.randrange(len(out) + 1), r)
    return Program(tuple(out))


class TestIncrementalScanMatchesReference:
    def test_criterion_10_programs(self):
        rng = random.Random(2026)
        for i in range(3000):
            p = random_program(rng, 5, 6)
            assert simplify(p) == reference_simplify(p), f"program #{i}"

    def test_dense_small_programs_with_replacements(self):
        rng = random.Random(53)
        kinds: Counter = Counter()
        for atoms in (2, 3, 4):
            for i in range(600):
                p = random_program(rng, atoms, 8, overlap_prob=0.3)
                out = simplify(p)
                assert out == reference_simplify(p), f"{atoms} atoms, program #{i}"
                kinds.update(s.kind for s in out[1].steps)
        # the comparison must cover every rewrite, repeated replacements too
        assert kinds["T8-delete"] > 50 and kinds["T9-replace"] > 50

    def test_redundancy_heavy_programs(self):
        # many deletions per pass: 5 of the 172 triple hits here, and 55
        # of 349 in the dense programs above, lose a rule to an earlier hit
        rng = random.Random(59)
        kinds: Counter = Counter()
        for i in range(240):
            p = redundant_program(rng, 14, 14, 14)
            assert len(p) == 28
            out = simplify(p)
            assert out == reference_simplify(p), f"program #{i}"
            kinds.update(s.kind for s in out[1].steps)
        assert kinds["T5-delete"] and kinds["T6-delete"] and kinds["T8-delete"]


class TestPhaseContract:
    """The table's contract: when the triple phase starts, no rule is
    deletable on its own and no rule fits another, so the triple and
    replacement scans need only `near`."""

    def test_no_rule_fits_another_when_the_triple_phase_starts(self, monkeypatch):
        phase = SIMPLIFY_MODULE._phase_triple_delete
        starts = 0

        def checked(rules, table, alive, steps):
            nonlocal starts
            starts += 1
            live = list(bits_of(alive))
            for i in live:
                assert not cond_0_1_0(rules[i]), rules[i]
                for j in live:
                    assert i == j or not cond_1_1_0(rules[i], rules[j]), (rules[i], rules[j])
                assert table.fits[i] & alive == 1 << i
            return phase(rules, table, alive, steps)

        monkeypatch.setattr(SIMPLIFY_MODULE, "_phase_triple_delete", checked)
        rng = random.Random(2026)  # the criterion-10 programs
        for _ in range(1000):
            simplify(random_program(rng, 5, 6))
        rng = random.Random(53)  # dense programs with repeated replacements
        for atoms in (2, 3, 4):
            for _ in range(300):
                simplify(random_program(rng, atoms, 8, overlap_prob=0.3))
        assert starts > 1900

    def test_triple_scan_condition_calls_on_1000_rules(self, monkeypatch):
        # pinned: only kept rules that fit the third outside the same
        # single atom are tried
        calls = 0

        def counted(r1, r2, r3):
            nonlocal calls
            calls += 1
            return cond_2_1_0(r1, r2, r3)

        monkeypatch.setattr(SIMPLIFY_MODULE, "cond_2_1_0", counted)
        out, trace = simplify(seeded_rules(1, 1000, 60))
        assert (len(out), len(trace.steps)) == (534, 463)
        assert calls == 2_037

    def test_pair_replacement_calls_on_1000_rules(self, monkeypatch):
        # pinned: only rules that each fit the other outside the same
        # single atom are tried, each with that atom
        calls = 0
        real = SIMPLIFY_MODULE._pair_replacement

        def counted(ri, rj, p):
            nonlocal calls
            calls += 1
            assert misfit(ri, rj) == misfit(rj, ri) == p
            return real(ri, rj, p)

        monkeypatch.setattr(SIMPLIFY_MODULE, "_pair_replacement", counted)
        out, trace = simplify(seeded_rules(1, 1000, 60))
        assert (len(out), len(trace.steps)) == (534, 463)
        assert calls == 5


def misfit(a: Rule, b: Rule) -> int:
    """The pairwise definition: the atoms of a that keep it from fitting
    inside b field by field, a's head landing in b's head or negated body."""
    return a.hd & ~(b.hd | b.ng) | a.ps & ~b.ps | a.ng & ~b.ng


def pairwise_table(rules: list[Rule]) -> tuple[list[int], list[dict[int, int]]]:
    """fits and near rows read off every ordered pair, one at a time."""
    fits = [sum(1 << l for l, b in enumerate(rules) if misfit(a, b) == 0) for a in rules]
    near: list[dict[int, int]] = [{} for _ in rules]
    for a, ra in enumerate(rules):
        for l, rl in enumerate(rules):
            m = misfit(ra, rl)
            if m.bit_count() == 1:
                near[a][m] = near[a].get(m, 0) | 1 << l
    return fits, near


def same_single_atom(table: _FitTable, i: int, j: int, l: int) -> bool:
    """Whether rules i and j fit rule l outside the same single atom."""
    near = table.near
    return any((near[i][p] & near[j].get(p, 0)) >> l & 1 for p in near[i])


def mutual_single_atom(table: _FitTable, i: int, j: int) -> bool:
    """Whether rules i and j each fit the other outside the same single atom."""
    near = table.near
    return any(near[i][p] >> j & near[j].get(p, 0) >> i & 1 for p in near[i])


CANONICAL_3 = [Rule(0, 0, 0), *enumerate_rules(3, canonical_only=True)]
ALL_2 = list(enumerate_rules(2))  # overlapping fields included


class TestFitTable:
    """The occurrence-bitset table equals the pairwise definitions."""

    def test_rule_sets(self):
        assert len(CANONICAL_3) == 64 and len(ALL_2) == 63
        assert any(cond_0_1_0(r) for r in ALL_2)

    def test_rows_match_pairwise_definitions(self):
        # the seeded rows are 200-bit masks, several int digits wide
        for rules in (CANONICAL_3, ALL_2, seeded_200()):
            table = _FitTable(rules)
            fits, near = pairwise_table(rules)
            assert table.fits == fits
            assert table.near == near


class TestNearPairs:
    """The pair walk both scans share yields each (i, j, p) with live rules
    i < j whose rows both hold p exactly once, and nothing else."""

    def test_matches_pairwise_definition(self):
        rng = random.Random(16)
        for rules in (CANONICAL_3, seeded_200()):
            alive = sum(1 << k for k in range(len(rules)) if rng.random() < 0.75)
            assert 0 < alive < (1 << len(rules)) - 1
            _, near = pairwise_table(rules)
            expected = [
                (i, j, p) for i in bits_of(alive) for j in bits_of(alive) if i < j
                for p in near[i] if p in near[j]]
            walked = list(_near_pairs(_FitTable(rules), alive))
            assert len(walked) == len(set(walked))
            assert sorted(walked) == sorted(expected)
            assert len(walked) > 1000, len(walked)


class TestPrefilters:
    """Each prefilter is a necessary condition under the phase contract:
    whatever it rejects where no rule fits another, the condition it guards
    rejects too.  Exhaustive over the canonical rules of three atoms, the
    empty rule included."""

    RULES = CANONICAL_3

    def test_triple_prefilter_rejects_only_false_triples(self):
        # the triple phase starts after the pair phase, when no rule fits
        # another: the triples where ri or rj fits rl never reach it
        rules = self.RULES
        assert len(rules) == 64
        table = _FitTable(rules)
        rejected = 0
        for i, ri in enumerate(rules):
            for j, rj in enumerate(rules):
                for l, rl in enumerate(rules):
                    if l in (i, j) or same_single_atom(table, i, j, l):
                        continue
                    if cond_1_1_0(ri, rl) or cond_1_1_0(rj, rl):
                        continue
                    rejected += 1
                    assert not cond_2_1_0(ri, rj, rl), (ri, rj, rl)
        # pinned: a looser prefilter rejects fewer
        assert rejected == 184_944

    def test_pair_replace_prefilter_rejects_only_failing_pairs(self):
        # the replacement phase starts after the pair phase too: the pairs
        # where one rule fits the other never reach it
        table = _FitTable(self.RULES)
        rejected = 0
        for i, r1 in enumerate(self.RULES):
            for j, r2 in enumerate(self.RULES):
                if mutual_single_atom(table, i, j):
                    continue
                if cond_1_1_0(r1, r2) or cond_1_1_0(r2, r1):
                    continue
                rejected += 1
                assert reference.pair_replacement(r1, r2) is None, (r1, r2)
        # pinned: a looser prefilter rejects fewer
        assert rejected == 2_944


class TestClosedFormReplacement:
    """A pair the replacement scan tries has one candidate, its common
    part off the atom p it differs in.  Exhaustive over the ordered pairs
    of distinct canonical rules of three and four atoms, against the
    search of every candidate."""

    def test_common_part_is_the_only_replacement(self):
        for atoms, expected in ((3, (3_906, 192, 150)), (4, (64_770, 1_024, 728))):
            rules = list(enumerate_rules(atoms, canonical_only=True))
            pairs = contract = replaced = 0
            for r1 in rules:
                for r2 in rules:
                    if r1 == r2:
                        continue
                    pairs += 1
                    m12, m21 = misfit(r1, r2), misfit(r2, r1)
                    if not m12 or not m21:
                        continue  # after the pair phase no rule fits another
                    found = reference.pair_replacement(r1, r2)
                    if m12 != m21 or m12.bit_count() != 1:
                        assert found is None, (r1, r2)
                        continue
                    contract += 1
                    # the two rules agree outside p
                    assert (r1.hd ^ r2.hd | r1.ps ^ r2.ps | r1.ng ^ r2.ng) & ~m12 == 0
                    assert _pair_replacement(r1, r2, m12) == found, (r1, r2)
                    replaced += found is not None
            # pinned: contract pairs, and those with a replacement
            assert (pairs, contract, replaced) == expected, atoms


def test_184_random_rules_over_16_atoms():
    rng = random.Random(2026)
    p = Program(tuple(random_rule(rng, 16, overlap_prob=0.0) for _ in range(184)))
    t0 = time.perf_counter()
    out, trace = simplify(p)
    elapsed = time.perf_counter() - t0
    assert len(p) == 184
    assert (len(out), len(trace.steps)) == (177, 7)
    assert [s.kind for s in trace.steps].count("T8-delete") == 1
    assert elapsed < 5, f"{elapsed:.1f} s"


def seeded_rules(seed: int, count: int, atom_count: int) -> Program:
    """`count` rules, each over 2-5 distinct atoms of `atom_count`, every
    atom in a random field; duplicates merge."""
    rng = random.Random(seed)
    rules = []
    for _ in range(count):
        fields = [0, 0, 0]
        for a in rng.sample(range(atom_count), rng.randint(2, 5)):
            fields[rng.randrange(3)] |= 1 << a
        rules.append(Rule(*fields))
    return Program(tuple(rules))


def seeded_200() -> list[Rule]:
    return list(seeded_rules(16, 200, 12).rules)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestScale:
    """Large seeded programs, pinned to the output and trace of the
    restart-free scans before the occurrence table (which took 23 s and
    198 s on the 500 and 1000 rules) and, at 2000 rules, of the scans
    that renumbered the rules after each deletion, where the most ranks
    are taken, and at 4000 rules of the scans that tried every pair of
    rules fitting a third outside at most one atom each (8 s there), and
    at 10,000 rules of the table that transposed its masks into per-rule
    index lists (3.2-4.5 s there); `reference_simplify` is far too slow
    at these sizes."""

    def test_500_rules_over_40_atoms(self):
        p = seeded_rules(1, 500, 40)
        out, trace = simplify(p)
        assert (len(p), len(out)) == (500, 265)
        assert Counter(s.kind for s in trace.steps) == {
            "T6-delete": 64, "T8-delete": 169, "T9-replace": 2}
        assert digest(trace.steps) == "bb7af0b875087ebe"
        assert digest(out.rules) == "fba9aa07ba015253"

    def test_1000_rules_over_60_atoms_within_budget(self):
        p = seeded_rules(1, 1000, 60)
        started = time.perf_counter()
        out, trace = simplify(p)
        elapsed = time.perf_counter() - started
        assert (len(p), len(out)) == (997, 534)
        assert Counter(s.kind for s in trace.steps) == {
            "T6-delete": 114, "T8-delete": 346, "T9-replace": 3}
        assert digest(trace.steps) == "27eb3222a04bf64d"
        assert digest(out.rules) == "94cdef8e96cf225f"
        assert elapsed < 5, f"{elapsed:.1f} s"

    def test_2000_rules_over_80_atoms(self):
        p = seeded_rules(1, 2000, 80)
        out, trace = simplify(p)
        assert (len(p), len(out)) == (1997, 708)
        assert Counter(s.kind for s in trace.steps) == {
            "T6-delete": 282, "T8-delete": 1001, "T9-replace": 6}
        assert digest(trace.steps) == "6d1c0c5b31f32338"
        assert digest(out.rules) == "d161c1b6f2b186de"

    def test_4000_rules_over_110_atoms_within_budget(self):
        p = seeded_rules(1, 4000, 110)
        started = time.perf_counter()
        out, trace = simplify(p)
        elapsed = time.perf_counter() - started
        assert (len(p), len(out)) == (3995, 1055)
        assert Counter(s.kind for s in trace.steps) == {
            "T6-delete": 576, "T8-delete": 2358, "T9-replace": 6}
        assert digest(trace.steps) == "9266b3f6d12fae14"
        assert digest(out.rules) == "839eedee4eaa4c4f"
        assert elapsed < 5, f"{elapsed:.1f} s"

    def test_10000_rules_over_170_atoms_within_budget(self):
        p = seeded_rules(1, 10000, 170)
        started = time.perf_counter()
        out, trace = simplify(p)
        elapsed = time.perf_counter() - started
        assert (len(p), len(out)) == (9976, 1203)
        assert Counter(s.kind for s in trace.steps) == {
            "T6-delete": 1418, "T8-delete": 7336, "T9-replace": 19}
        assert digest(trace.steps) == "23c6af93ddfe06e6"
        assert digest(out.rules) == "66684fc5404e7fe0"
        assert elapsed < 4, f"{elapsed:.1f} s"

    def test_replacements_need_no_normalization(self):
        # normalization runs once, before the first pass: every T9 rule is
        # canonical, not deletable on its own, and no copy of a rule of the
        # list it enters
        programs = [seeded_rules(1, count, atoms) for count, atoms in (
            (500, 40), (1000, 60), (2000, 80), (4000, 110), (10000, 170))]
        rng = random.Random(53)  # the dense programs of the reference comparison
        programs += [random_program(rng, atoms, 8, overlap_prob=0.3)
                     for atoms in (2, 3, 4) for _ in range(600)]
        replacements = 0
        for p in programs:
            rules = list(p.rules)
            for step in simplify(p)[1].steps:
                if step.kind == "T9-replace":
                    replacements += 1
                    assert is_canonical(step.produced), step
                    assert normalize_rule(step.produced) == step.produced, step
                    assert step.produced not in rules, step
                apply_step(rules, step)
        assert replacements == 230

    # two rules of 22 literals each: a search of the candidates inside both
    # takes 8-10 s on these, doubling with each literal
    WIDE_BODY = ", ".join(f"b{k}" for k in range(20))

    def test_wide_pair_folds_to_its_common_part_within_budget(self):
        p, t = build(f"h; p :- {self.WIDE_BODY}. h :- {self.WIDE_BODY}, p.")
        started = time.perf_counter()
        out, trace = simplify(p)
        elapsed = time.perf_counter() - started
        assert out == parse_program(f"h :- {self.WIDE_BODY}.", t)
        assert [s.kind for s in trace.steps] == ["T9-replace"]
        assert elapsed < 0.5, f"{elapsed:.2f} s"

    def test_wide_pair_without_replacement_within_budget(self):
        p, _ = build(f"h :- {self.WIDE_BODY}, p. h :- {self.WIDE_BODY}, not p.")
        started = time.perf_counter()
        out, trace = simplify(p)
        elapsed = time.perf_counter() - started
        assert (out, trace.steps) == (p, ())
        assert elapsed < 0.5, f"{elapsed:.2f} s"
