"""Reduct, satisfaction and answer sets."""

import random

import pytest

from strongeq import (
    Program,
    Rule,
    Symbols,
    TooManyAtomsError,
    answer_sets,
    parse_program,
    parse_rule,
    reduct,
)
from conftest import random_program
from reference import is_answer_set, satisfies


def build(text: str) -> tuple[Program, Symbols]:
    t = Symbols()
    return parse_program(text, t), t


class TestReduct:
    def test_rule_with_met_negation_dropped(self):
        p, t = build("a;b. c :- not a.")
        assert reduct(p, t.mask("a")).rules == (Rule(0b011, 0, 0),)

    def test_negation_stripped_from_the_rest(self):
        p, t = build("a;b. c :- not a.")
        assert reduct(p, t.mask("b")).rules == (Rule(0b011, 0, 0), Rule(0b100, 0, 0))

    def test_negation_free_program_unchanged(self):
        p, _ = build("a :- b. c.")
        for x in (0, 0b1, 0b111):
            assert reduct(p, x) == p

    def test_output_is_negation_free(self):
        rng = random.Random(3)
        for _ in range(100):
            p = random_program(rng, 4, 5)
            x = rng.randrange(16)
            assert all(r.ng == 0 for r in reduct(p, x).rules)

    def test_stripping_can_merge_rules(self):
        p, _ = build("a :- not b. a :- not c.")
        assert len(reduct(p, 0)) == 1


class TestSatisfies:
    def test_head_met(self):
        t = Symbols()
        assert satisfies(t.mask("a"), parse_rule("a;b.", t))

    def test_empty_constraint_never_satisfied(self):
        assert not satisfies(0, Rule(0, 0, 0))

    def test_unmet_body(self):
        t = Symbols()
        assert satisfies(0, parse_rule("a :- b.", t))

    def test_rejects_negation(self):
        t = Symbols()
        with pytest.raises(ValueError):
            satisfies(0, parse_rule("a :- not b.", t))


class TestIsAnswerSet:
    def test_positive_example(self):
        p, t = build("a;b. c :- not a.")
        assert is_answer_set(p, t.mask("a"))

    def test_superset_is_not_minimal(self):
        p, t = build("a;b. c :- not a.")
        x = t.mask("a", "b")
        # {a} already satisfies the reduct of {a, b}, so {a, b} fails.
        red = reduct(p, x)
        assert all(satisfies(t.mask("a"), r) for r in red.rules)
        assert not is_answer_set(p, x)

    def test_loop_broken_by_context(self):
        p, t = build("a2 :- a1. a3 :- not a1. a2 :- not a3. a1 :- a2.")
        assert is_answer_set(p, t.mask("a1", "a2"))


class TestAnswerSets:
    def test_two_answer_sets(self):
        p, t = build("a;b. c :- not a.")
        assert set(answer_sets(p)) == {t.mask("a"), t.mask("b", "c")}

    def test_unique_answer_set(self):
        p, t = build("a2 :- a1. a3 :- not a1. a3 :- not a2. a1 :- a2.")
        assert answer_sets(p) == (t.mask("a3"),)

    def test_empty_program(self):
        assert answer_sets(Program()) == (0,)

    def test_order_by_cardinality_then_ids(self):
        p, t = build("a :- not b. b :- not a.")
        assert answer_sets(p) == (t.mask("a"), t.mask("b"))

    def test_atom_guard(self):
        wide = Program((Rule((1 << 21) - 1, 0, 0),))
        with pytest.raises(TooManyAtomsError):
            answer_sets(wide)

    def test_answer_sets_are_models_and_incomparable(self):
        rng = random.Random(5)
        for _ in range(150):
            p = random_program(rng, 4, 5)
            sets = answer_sets(p)
            for x in sets:
                assert all(satisfies(x, r) for r in reduct(p, x).rules)
            for x in sets:
                for y in sets:
                    assert x == y or (x & ~y and y & ~x)

    def test_empty_constraint_kills_all_answer_sets(self):
        rng = random.Random(9)
        for _ in range(100):
            p = random_program(rng, 4, 4)
            doomed = Program(p.rules + (Rule(0, 0, 0),))
            assert answer_sets(doomed) == ()
