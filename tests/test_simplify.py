"""Simplifier rewrites, traces, and the strong-equivalence contract."""

import json
import random

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
from conftest import random_program


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
        p, t = build("a :- not a. a :- not b. b :- not a. c :- c.")
        out, trace = simplify(p)
        lines = [json.loads(line) for line in trace.json_lines(t).splitlines()]
        kinds = {line["step"] for line in lines}
        assert kinds <= {"T5-delete", "T7-head-clean", "T6-delete", "T8-delete", "T9-replace"}
        for line in lines:
            if line["step"] == "T6-delete":
                assert set(line) == {"step", "kept", "removed"}
                assert isinstance(line["kept"], int) and isinstance(line["removed"], int)
            if line["step"] == "T7-head-clean":
                assert set(line) == {"step", "index", "rule"}

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
