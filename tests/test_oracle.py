"""Two-world strong-equivalence oracle and its countermodels."""

import random
import time

import pytest

from strongeq import (
    HTPair,
    Program,
    Rule,
    SEVerdict,
    Symbols,
    TooManyAtomsError,
    answer_sets,
    countermodel_json,
    delta_holds,
    ht_pairs,
    is_answer_set,
    parse_program,
    parse_rule,
    rename_program,
    simplify,
    strongly_equivalent,
)
from strongeq.discovery import ht_pair_masks, rule_mask
from strongeq.syntax import subsets_of
from conftest import random_program


def build(text: str) -> tuple[Program, Symbols]:
    t = Symbols()
    return parse_program(text, t), t


def se(text1: str, text2: str) -> SEVerdict:
    t = Symbols()
    return strongly_equivalent(parse_program(text1, t), parse_program(text2, t))


class TestHTPair:
    def test_requires_subset(self):
        with pytest.raises(ValueError):
            HTPair(x=0b10, y=0b01)

    def test_enumeration_order(self):
        got = list(ht_pairs(0b11))
        assert got[:4] == [HTPair(0, 0), HTPair(0, 0b01), HTPair(0b01, 0b01), HTPair(0, 0b10)]
        assert len(got) == 9  # 3^2

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            SEVerdict(True, HTPair(0, 0))
        with pytest.raises(ValueError):
            SEVerdict(False, None)


class TestDeltaHolds:
    def test_negation_met_in_upper_world(self):
        t = Symbols()
        r = parse_rule("a :- not a.", t)
        # ng meets y, so both implications hold vacuously.
        assert delta_holds(r, HTPair(0, 0b1))

    def test_fact_fails_when_lower_world_empty(self):
        t = Symbols()
        r = parse_rule("a.", t)
        assert not delta_holds(r, HTPair(0, 0b1))

    def test_empty_rule_never_holds(self):
        r = Rule(0, 0, 0)
        for pair in ht_pairs(0b11):
            assert not delta_holds(r, pair)

    def test_total_pairs_collapse_to_classical_satisfaction(self):
        rng = random.Random(2)
        for _ in range(300):
            r = Rule(rng.randrange(16), rng.randrange(16), rng.randrange(16))
            y = rng.randrange(16)
            classical = bool(r.ps & ~y) or bool(r.ng & y) or bool(r.hd & y)
            assert delta_holds(r, HTPair(y, y)) == classical


class TestStronglyEquivalent:
    def test_self_blocking_rule_becomes_constraint(self):
        assert se("a :- not a.", ":- not a.").equivalent

    def test_disjunction_with_exclusion_splits(self):
        v = se("a;b. :- a, b.", "a :- not b. b :- not a. :- a, b.")
        assert v.equivalent

    def test_different_body_atoms_distinguished(self):
        v = se("a :- b.", "a :- c.")
        assert not v.equivalent
        assert v.countermodel is not None

    def test_chain_pair_does_not_subsume_reversed_rule(self):
        v = se("a2 :- a1. a3 :- not a1. a2 :- not a3.", "a2 :- a1. a3 :- not a1.")
        assert not v.equivalent

    def test_first_countermodel_in_order(self):
        t = Symbols()
        p1 = parse_program("a :- b.", t)
        p2 = parse_program("a :- c.", t)
        v = strongly_equivalent(p1, p2)
        assert v.countermodel == HTPair(x=0, y=t.mask("b"))

    def test_countermodel_json_names(self):
        t = Symbols()
        p1 = parse_program("a :- b.", t)
        p2 = parse_program("a :- c.", t)
        v = strongly_equivalent(p1, p2)
        assert countermodel_json(v.countermodel, t) == {"x": [], "y": ["b"]}

    def test_atom_guard(self):
        wide = Program((Rule((1 << 25) - 1, 0, 0),))
        with pytest.raises(TooManyAtomsError):
            strongly_equivalent(wide, Program())

    def test_reflexive_symmetric_transitive(self):
        rng = random.Random(13)
        programs = [random_program(rng, 3, 3) for _ in range(40)]
        for p in programs:
            assert strongly_equivalent(p, p).equivalent
        for p in programs:
            for q in programs:
                assert (
                    strongly_equivalent(p, q).equivalent
                    == strongly_equivalent(q, p).equivalent
                )
        for p in programs:
            for q in programs:
                if not strongly_equivalent(p, q).equivalent:
                    continue
                for r in programs:
                    if strongly_equivalent(q, r).equivalent:
                        assert strongly_equivalent(p, r).equivalent

    def test_verdict_stable_under_embedding_language(self):
        # Adding rules that mention extra atoms to BOTH sides does not flip
        # an equivalence, and the verdict itself only depends on the union
        # language of the two programs.
        t = Symbols()
        p1 = parse_program("a :- not a.", t)
        p2 = parse_program(":- not a.", t)
        extra = parse_program("z :- w.", t)
        assert strongly_equivalent(p1, p2).equivalent
        assert strongly_equivalent(
            Program(p1.rules + extra.rules), Program(p2.rules + extra.rules)
        ).equivalent


class TestSoundnessAgainstContexts:
    def test_equivalent_programs_agree_under_sampled_contexts(self):
        rng = random.Random(21)
        pairs_checked = 0
        while pairs_checked < 20:
            p = random_program(rng, 4, 4)
            q, _ = simplify(p)
            if not strongly_equivalent(p, q).equivalent:
                pytest.fail("simplify broke equivalence")
            pairs_checked += 1
            for _ in range(100):
                ctx = random_program(rng, 4, 3)
                left = answer_sets(Program(ctx.rules + p.rules))
                right = answer_sets(Program(ctx.rules + q.rules))
                assert left == right

    def test_non_equivalent_pair_has_separating_context(self):
        # The flip side, checked on a known family: a distinguishing
        # context exists for the chain pair plus reversed rule.
        t = Symbols()
        p1 = parse_program("a2 :- a1. a3 :- not a1. a2 :- not a3.", t)
        p2 = parse_program("a2 :- a1. a3 :- not a1.", t)
        ctx = parse_program("a1 :- a2.", t)
        left = answer_sets(Program(ctx.rules + p1.rules))
        right = answer_sets(Program(ctx.rules + p2.rules))
        assert left != right


class TestRenameInvariance:
    def test_total_maps_preserve_equivalence(self):
        from strongeq import rename_program
        from conftest import random_total_map

        rng = random.Random(55)
        found_positive = 0
        for _ in range(200):
            p = random_program(rng, 3, 3)
            q, _ = simplify(p)
            f = random_total_map(rng, 3)
            if strongly_equivalent(p, q).equivalent:
                found_positive += 1
                assert strongly_equivalent(
                    rename_program(p, f), rename_program(q, f)
                ).equivalent
        assert found_positive > 100


class TestSingletonDecomposition:
    def test_program_empty_equivalence_splits_rule_wise(self):
        rng = random.Random(34)
        empty = Program()
        for _ in range(150):
            p = random_program(rng, 3, 4)
            whole = strongly_equivalent(p, empty).equivalent
            parts = all(
                strongly_equivalent(Program((r,)), empty).equivalent for r in p.rules
            )
            assert whole == parts


def reference_se(p1: Program, p2: Program) -> SEVerdict:
    """The first pair, in ht_pairs order, on which exactly one program holds."""
    for pair in ht_pairs(p1.atoms | p2.atoms):
        v1 = all(delta_holds(r, pair) for r in p1.rules)
        v2 = all(delta_holds(r, pair) for r in p2.rules)
        if v1 != v2:
            return SEVerdict(False, pair)
    return SEVerdict(True)


SPARSE_IDS = (0, 3, 7, 8, 12, 15, 19, 23)


def sparse_program(rng: random.Random, atom_count: int, max_rules: int) -> Program:
    """A random program whose atom ids are spread over SPARSE_IDS, so a
    kernel that confused atom ids with ranks within y would show."""
    ids = sorted(rng.sample(SPARSE_IDS, atom_count))
    return rename_program(random_program(rng, atom_count, max_rules), dict(enumerate(ids)))


class TestKernelAgainstReference:
    def test_verdict_and_countermodel_match_pairwise_walk(self):
        rng = random.Random(71)
        outcomes = set()
        for _ in range(150):
            p1 = sparse_program(rng, rng.randint(1, 8), 4)
            # half the time compare against a variant that often stays equivalent
            if rng.random() < 0.5:
                p2, _ = simplify(p1)
            else:
                p2 = sparse_program(rng, rng.randint(1, 6), 3)
            got = strongly_equivalent(p1, p2)
            assert got == reference_se(p1, p2)
            outcomes.add(got.equivalent)
        assert outcomes == {True, False}

    def test_answer_sets_match_reduct_check(self):
        rng = random.Random(72)
        found = 0
        for _ in range(150):
            p = sparse_program(rng, rng.randint(1, 8), 5)
            got = answer_sets(p)
            assert got == tuple(x for x in subsets_of(p.atoms) if is_answer_set(p, x))
            found += len(got)
        assert found > 50

    def test_rule_mask_ands_match_pairwise_walk(self):
        rng = random.Random(73)
        atom_count = 3
        layout = ht_pair_masks(atom_count)
        lang = (1 << atom_count) - 1
        for _ in range(150):
            p1 = random_program(rng, atom_count, 4)
            p2 = random_program(rng, atom_count, 4)
            ands = []
            for p in (p1, p2):
                m = (1 << 3**atom_count) - 1
                for r in p.rules:
                    m &= rule_mask(r, layout)
                models = sum(
                    all(delta_holds(r, pair) for r in p.rules) for pair in ht_pairs(lang)
                )
                assert m.bit_count() == models
                ands.append(m)
            assert (ands[0] == ands[1]) == reference_se(p1, p2).equivalent

    def test_wide_pair_with_early_countermodel_exits_early(self):
        # 24 atoms, the guard's limit: an equivalent pair would walk all
        # 2^24 slices, but the pairs differ on y = {x}, so the walk stops
        # there and never builds a wide basis.
        t = Symbols()
        filler = "f1 :- " + ", ".join(f"f{i}" for i in range(2, 23)) + "."
        p1 = parse_program("x. " + filler, t)
        p2 = parse_program("y. " + filler, t)
        assert (p1.atoms | p2.atoms).bit_count() == 24
        started = time.perf_counter()
        verdict = strongly_equivalent(p1, p2)
        assert time.perf_counter() - started < 1.0
        assert verdict.countermodel == HTPair(t.mask("x"), t.mask("x"))
