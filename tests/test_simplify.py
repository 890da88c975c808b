"""Simplifier rewrites, traces, and the strong-equivalence contract."""

import hashlib
import importlib
import json
import random
import time
from collections import Counter

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
from strongeq.discovery import enumerate_rules
from strongeq.simplify import _FitTable, _pair_replacement
from strongeq.syntax import is_canonical
from conftest import random_program, random_rule

# the module, not the `simplify` function the package exports under its name
SIMPLIFY_MODULE = importlib.import_module("strongeq.simplify")


def build(text: str) -> tuple[Program, Symbols]:
    t = Symbols()
    return parse_program(text, t), t


def replay(p: Program, trace: SimplifyTrace) -> Program:
    """Re-apply a trace step by step; indices refer to the list as it
    stood right before each step."""
    rules = list(p.rules)
    for step in trace.steps:
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
        assert normalize_rule(r) == r

    def test_output_is_canonical(self):
        from strongeq import is_canonical

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
        # one program taking each of the five rewrites once
        p, t = build(
            "a :- not a. a :- not b. b :- not a. c :- c. "
            "e :- d. f :- not d. f :- not e. "
            "h :- g, not k. g;h :- not k."
        )
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

    def test_idempotent(self):
        rng = random.Random(37)
        for _ in range(300):
            p = random_program(rng, 5, 6)
            once, _ = simplify(p)
            twice, trace = simplify(once)
            assert twice == once
            assert trace.steps == ()

    def test_deterministic(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_program(rng, 5, 6)
            first = simplify(p)
            second = simplify(Program(p.rules))
            assert first == second

    def test_monotone_measure_decreases_per_step(self):
        def measure(rules: list[Rule]) -> tuple[int, int]:
            return (sum(r.literal_count for r in rules), len(rules))

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
# loop re-runs all four phases after any change.  The simplifier must
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
            cand = _pair_replacement(rules[i], rules[j])
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
        # many programs: a resume offset applied to the wrong (i, j) of the
        # triple scan showed in 2 of 200 such programs and in no test above
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
    replacement scans need only `near` and its transpose."""

    def test_no_rule_fits_another_when_the_triple_phase_starts(self, monkeypatch):
        phase = SIMPLIFY_MODULE._phase_triple_delete
        starts = 0

        def checked(rules, table, steps):
            nonlocal starts
            starts += 1
            for i, ri in enumerate(rules):
                assert not cond_0_1_0(ri), ri
                for j, rj in enumerate(rules):
                    assert i == j or not cond_1_1_0(ri, rj), (ri, rj)
                assert table.fits[i] == 1 << i
            return phase(rules, table, steps)

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
        # each unordered pair of kept rules is tried once: 269,015 calls
        # when both orders of every pair were tried
        calls = 0

        def counted(r1, r2, r3):
            nonlocal calls
            calls += 1
            return cond_2_1_0(r1, r2, r3)

        monkeypatch.setattr(SIMPLIFY_MODULE, "cond_2_1_0", counted)
        out, trace = simplify(seeded_rules(1, 1000, 60))
        assert (len(out), len(trace.steps)) == (534, 463)
        assert calls == 142_595

    def test_pair_replacement_calls_on_1000_rules(self, monkeypatch):
        # each rule pair is tried once per run: 17,559 calls when every
        # pass tried again the pairs earlier passes had found no
        # replacement for
        calls = 0
        real = SIMPLIFY_MODULE._pair_replacement

        def counted(r1, r2):
            nonlocal calls
            calls += 1
            return real(r1, r2)

        monkeypatch.setattr(SIMPLIFY_MODULE, "_pair_replacement", counted)
        out, trace = simplify(seeded_rules(1, 1000, 60))
        assert (len(out), len(trace.steps)) == (534, 463)
        assert calls == 6_362


def misfit(a: Rule, b: Rule) -> int:
    """The pairwise definition: the atoms of a that keep it from fitting
    inside b field by field, a's head landing in b's head or negated body."""
    return a.hd & ~(b.hd | b.ng) | a.ps & ~b.ps | a.ng & ~b.ng


def pairwise_table(rules: list[Rule]) -> tuple[list[int], list[int]]:
    """fits and near rows read off every ordered pair, one at a time."""
    fits = [sum(1 << l for l, b in enumerate(rules) if misfit(a, b) == 0) for a in rules]
    near = [
        sum(1 << l for l, b in enumerate(rules) if misfit(a, b).bit_count() <= 1)
        for a in rules
    ]
    return fits, near


def transpose(rows: list[int]) -> list[int]:
    return [sum((row >> b & 1) << a for a, row in enumerate(rows)) for b in range(len(rows))]


CANONICAL_3 = [Rule(0, 0, 0), *enumerate_rules(3, canonical_only=True)]
ALL_2 = list(enumerate_rules(2))  # overlapping fields included


class TestFitTable:
    """The occurrence-bitset table equals the pairwise definitions, before
    and after deletions."""

    def test_rule_sets(self):
        assert len(CANONICAL_3) == 64 and len(ALL_2) == 63
        assert any(cond_0_1_0(r) for r in ALL_2)

    def test_rows_match_pairwise_definitions(self):
        for rules in (CANONICAL_3, ALL_2):
            table = _FitTable(rules)
            fits, near = pairwise_table(rules)
            assert table.fits == fits
            assert table.near == near
            assert table.near_t == transpose(near)

    def test_deletions_match_a_fresh_table(self):
        rng = random.Random(61)
        for rules in (CANONICAL_3, ALL_2):
            for _ in range(5):
                rules = list(rules)
                table = _FitTable(rules)
                while len(rules) > 2:
                    l = rng.randrange(len(rules))
                    del rules[l]
                    table.delete(l)
                    fresh = _FitTable(rules)
                    assert (table.fits, table.near, table.near_t) == (
                        fresh.fits, fresh.near, fresh.near_t)

    def test_triple_partners_cover_every_candidate(self):
        for rules in (CANONICAL_3, ALL_2):
            table = _FitTable(rules)
            for i in range(len(rules)):
                partners = table.triple_partners(i)
                assert not partners >> i & 1
                for j in range(len(rules)):
                    if j != i and not partners >> j & 1:
                        assert not table.triple_candidates(i, j), (i, j)


class TestPrefilters:
    """Each prefilter is a necessary condition: whatever it rejects, the
    condition it guards rejects too.  Exhaustive over the canonical rules
    of three atoms, the empty rule included."""

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
                candidates = table.triple_candidates(i, j)
                for l, rl in enumerate(rules):
                    if l in (i, j) or candidates >> l & 1:
                        continue
                    if cond_1_1_0(ri, rl) or cond_1_1_0(rj, rl):
                        continue
                    rejected += 1
                    assert not cond_2_1_0(ri, rj, rl), (ri, rj, rl)
        # pinned: a looser prefilter rejects fewer
        assert rejected == 163_776

    def test_pair_replace_prefilter_rejects_only_failing_pairs(self):
        table = _FitTable(self.RULES)
        rejected = 0
        for i, r1 in enumerate(self.RULES):
            partners = table.replace_partners(i)
            for j, r2 in enumerate(self.RULES):
                if not partners >> j & 1:
                    rejected += 1
                    assert _pair_replacement(r1, r2) is None, (r1, r2)
        assert rejected == 1_024


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


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestScale:
    """Large seeded programs, pinned to the output and trace of the
    restart-free scans before the occurrence table (which took 23 s and
    198 s on them); `reference_simplify` is far too slow at these sizes."""

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
