"""Syntactic condition predicates against the semantic oracle."""

import random
from itertools import product

import pytest

from strongeq import (
    NotCanonicalError,
    Program,
    Rule,
    Symbols,
    cond_0_1_0,
    cond_0_1_1,
    cond_0_2_1,
    cond_0_2_2,
    cond_1_1_0,
    cond_2_1_0,
    exhaustive_atom_bound,
    parse_rule,
    s_implies,
    strongly_equivalent,
    subsume_witness,
)
from strongeq.cli import CONDITIONS
from strongeq.conditions import ROW_FORMS, SlicedRow
from strongeq import discovery
from strongeq.discovery import _language_masks, enumerate_rules

import reference
from reference import is_canonical, rename_rule, subsets_of


def rules(text: str, symbols: Symbols | None = None) -> list[Rule]:
    t = symbols if symbols is not None else Symbols()
    return [parse_rule(part.strip() + ".", t) for part in text.split(".") if part.strip()]


def oracle(left: list[Rule], right: list[Rule]) -> bool:
    return strongly_equivalent(Program(tuple(left)), Program(tuple(right))).equivalent


class TestAlwaysDeletable:
    def test_self_supporting_rule(self):
        (r,) = rules("a :- a.")
        assert cond_0_1_0(r)

    def test_grounder_self_loop_artifact(self):
        # The shape produced by instantiating a recursive reachability rule
        # on a self-arc: reached :- hc, reached.
        (r,) = rules("reached :- hc, reached.")
        assert cond_0_1_0(r)

    def test_plain_implication_kept(self):
        (r,) = rules("a :- b.")
        assert not cond_0_1_0(r)


class TestPairDeletable:
    def test_constraint_subsumes_self_blocking_rule(self):
        r1, r2 = rules("c :- b, not c. :- b, not c.")
        assert cond_1_1_0(r1, r2)
        assert oracle([r1, r2], [r1])

    def test_constraint_subsumes_wider_rule(self):
        r1, r2 = rules(":- not a. b :- not a.")
        assert cond_1_1_0(r1, r2)
        assert oracle([r1, r2], [r1])

    def test_unrelated_bodies(self):
        r1, r2 = rules("a :- b. a :- c.")
        assert not cond_1_1_0(r1, r2)


class TestSImplies:
    def test_special_case_misses_self_blocking_pair(self):
        r1, r2 = rules("c :- b, not c. :- b, not c.")
        assert not s_implies(r1, r2)
        assert cond_1_1_0(r1, r2)

    def test_reflexive(self):
        (r,) = rules("a; b :- c, not d.")
        assert s_implies(r, r)

    def test_fact_subsumes_wider_disjunction(self):
        r1, r2 = rules("a. a;b :- c.")
        assert s_implies(r1, r2)

    def test_positive_body_containment_required(self):
        r1, r2 = rules("a :- d. a;b :- c.")
        assert not s_implies(r1, r2)

    def test_closed_form_matches_subset_search(self):
        def brute(r1: Rule, r2: Rule) -> bool:
            for a in subsets_of(r2.ng):
                if (
                    r1.hd & ~(r2.hd | a) == 0
                    and r1.ng & ~(r2.ng & ~a) == 0
                    and r1.ps & ~r2.ps == 0
                ):
                    return True
            return False

        rng = random.Random(19)
        for _ in range(2000):
            r1 = Rule(rng.randrange(16), rng.randrange(16), rng.randrange(16))
            r2 = Rule(rng.randrange(16), rng.randrange(16), rng.randrange(16))
            assert s_implies(r1, r2) == brute(r1, r2)

    def test_implies_pair_deletability_exhaustively(self):
        for r1 in enumerate_rules(2):
            for r2 in enumerate_rules(2):
                if s_implies(r1, r2):
                    assert cond_1_1_0(r1, r2)


class TestInterchangeable:
    def test_head_atom_absorbed_by_negation(self):
        r1, r2 = rules("a;b :- not a. b :- not a.")
        assert cond_0_1_1(r1, r2)
        assert oracle([r1], [r2])

    def test_contradictory_head_becomes_constraint(self):
        r1, r2 = rules("a :- c, not a. :- c, not a.")
        assert cond_0_1_1(r1, r2)

    def test_different_bodies(self):
        r1, r2 = rules("a :- b. a :- c.")
        assert not cond_0_1_1(r1, r2)

    def test_matches_mutual_deletability(self):
        for r1 in enumerate_rules(2):
            for r2 in enumerate_rules(2):
                both_ways = cond_1_1_0(r1, r2) and cond_1_1_0(r2, r1)
                assert cond_0_1_1(r1, r2) == both_ways


class TestTripleDeletable:
    def test_positive_example(self):
        r1, r2, r3 = rules("a2 :- a1. a3 :- not a1. a3 :- not a2.")
        assert cond_2_1_0(r1, r2, r3)

    def test_reversed_rule_not_deletable(self):
        r1, r2, r3 = rules("a2 :- a1. a3 :- not a1. a2 :- not a3.")
        assert not cond_2_1_0(r1, r2, r3)

    def test_disjunctive_context(self):
        r1, r2, r3 = rules("a1;a2;a3. a2;a3 :- a1. a3 :- not a2.")
        assert cond_2_1_0(r1, r2, r3)

    def test_disjunctive_fact_not_subsumed_by_chain(self):
        # Classically a1 -> a2 plus not-a1 -> a3 entails a2 or a3, but the
        # disjunctive fact is still not redundant: the witness-atom clause
        # fails its head-disjointness check, and the oracle concurs (the
        # context a1 :- a2 separates the programs).
        r1, r2, r3 = rules("a2 :- a1. a3 :- not a1. a2;a3.")
        assert not cond_2_1_0(r1, r2, r3)
        assert not oracle([r1, r2, r3], [r1, r2])

    def test_witness_is_least_atom(self):
        t = Symbols()
        r1, r2, r3 = rules("a2 :- a1. a3 :- not a1. a3 :- not a2.", t)
        assert subsume_witness(r1, r2, r3) == t.intern("a1")

    def test_requires_canonical_rules(self):
        r1, r2 = rules("a :- b. b :- c.")
        bad = Rule(0b1, 0b1, 0)
        with pytest.raises(NotCanonicalError):
            cond_2_1_0(r1, r2, bad)

    def test_agrees_with_oracle_on_canonical_triples(self):
        pool = list(enumerate_rules(2, canonical_only=True))
        for r1 in pool:
            for r2 in pool:
                for r3 in pool:
                    expected = oracle([r1, r2, r3], [r1, r2])
                    assert cond_2_1_0(r1, r2, r3) == expected


class TestPairToSingle:
    def test_fold_into_unconditional_rule(self):
        r1, r2, r3 = rules("a2 :- a1, not a3. a1;a2 :- not a3. a2 :- not a3.")
        assert cond_0_2_1(r1, r2, r3)
        assert oracle([r1, r2], [r3])

    def test_fold_constraints(self):
        r1, r2, r3 = rules(":- a2, a3. :- a3, not a2. :- a3.")
        assert cond_0_2_1(r1, r2, r3)
        assert oracle([r1, r2], [r3])

    def test_headed_variant_fails(self):
        r1, r2, r3 = rules("a1 :- a2, a3. a1 :- a3, not a2. a1 :- a3.")
        assert not cond_0_2_1(r1, r2, r3)
        assert not oracle([r1, r2], [r3])


def outcome(condition, rules):
    """The condition's verdict on the rules, or NotCanonicalError."""
    try:
        return condition(*rules)
    except NotCanonicalError:
        return NotCanonicalError


class TestFlatConditionsMatchTheirStatements:
    """The flat conditions against their compositional statements in
    tests/reference.py, on verdicts and on NotCanonicalError."""

    @pytest.mark.parametrize("name", ["cond_2_1_0", "cond_0_2_1"])
    @pytest.mark.parametrize(
        "atoms, canonical", [(2, False), (3, True)], ids=["all-2-atoms", "canonical-3-atoms"])
    def test_triples(self, name, atoms, canonical):
        flat, composed = globals()[name], getattr(reference, name)
        triples = list(product(enumerate_rules(atoms, canonical), repeat=3))
        assert len(triples) == 250_047
        got = [outcome(flat, t) for t in triples]
        assert got == [outcome(composed, t) for t in triples]
        assert True in got and False in got
        assert (NotCanonicalError in got) is not canonical

    def test_canonical_quadruples_over_two_atoms(self):
        quadruples = list(product(enumerate_rules(2, canonical_only=True), repeat=4))
        assert len(quadruples) == 50_625
        got = [cond_0_2_2(*q) for q in quadruples]
        assert got == [reference.cond_0_2_2(*q) for q in quadruples]
        assert True in got and False in got

    def test_quadruples_over_one_atom_raise_for_any_non_canonical_rule(self):
        # the compositional form checks r4 only once cond_2_1_0(r1, r2, r3)
        # holds, so it answers False where only r4 is non-canonical and the
        # first triple fails; checking all four first raises there
        quadruples = list(product(enumerate_rules(1), repeat=4))
        assert len(quadruples) == 2_401
        differ = []
        for q in quadruples:
            got, want = outcome(cond_0_2_2, q), outcome(reference.cond_0_2_2, q)
            assert got == (NotCanonicalError if not all(map(is_canonical, q)) else want), q
            if got != want:
                differ.append(q)
        assert len(differ) == 28
        for q in differ:
            assert all(map(is_canonical, q[:3])) and not is_canonical(q[3])
            assert not cond_2_1_0(*q[:3])

    def test_cond_2_1_0_is_its_compositional_statement(self):
        # cond_2_1_0 holds iff r3 is deletable given r1 or given r2 alone,
        # or subsume_witness finds a witness atom
        for r1, r2, r3 in product(enumerate_rules(2, canonical_only=True), repeat=3):
            assert cond_2_1_0(r1, r2, r3) == (
                cond_1_1_0(r1, r3)
                or cond_1_1_0(r2, r3)
                or subsume_witness(r1, r2, r3) is not None
            )


class TestExactByComposition:
    """cond_0_2_1 and cond_0_2_2 are exact wherever cond_2_1_0 and
    cond_1_1_0 are.  A side's two-world models are the AND of its rules'
    masks, so one side equals another iff each side's AND lies within
    every rule of the other: {r1, r2} ~ {r3, r4} is four 2-1-0 verdicts,
    {r1, r2} ~ {r3} one 2-1-0 and two 1-1-0 verdicts.  The conditions are
    those compositions of the package's own cond_2_1_0 and cond_1_1_0, so
    they agree with the oracle wherever these do, at any atom count."""

    def test_lemma_on_the_harness_masks_for_0_2_2_over_two_atoms(self):
        masks = _language_masks(2, True, 2).masks

        def entails(a, b, c):  # the 2-1-0 verdict: {a, b} ~ {a, b, c}
            return a & b & c == a & b

        quadruples = list(product(masks, repeat=4))
        assert len(quadruples) == 50_625
        verdicts = [m1 & m2 == m3 & m4 for m1, m2, m3, m4 in quadruples]
        assert verdicts == [
            entails(m1, m2, m3) and entails(m1, m2, m4)
            and entails(m3, m4, m1) and entails(m3, m4, m2)
            for m1, m2, m3, m4 in quadruples
        ]
        assert True in verdicts and False in verdicts

    def test_lemma_on_the_harness_masks_for_0_2_1_over_three_atoms(self):
        masks = _language_masks(3, True, 3).masks
        triples = list(product(masks, repeat=3))
        assert len(triples) == 250_047
        verdicts = [m1 & m2 == m3 for m1, m2, m3 in triples]
        # the 2-1-0 verdict {r1, r2} ~ {r1, r2, r3} and the 1-1-0 verdicts
        # {r3, r1} ~ {r3} and {r3, r2} ~ {r3}
        assert verdicts == [
            m1 & m2 & m3 == m1 & m2 and m3 & m1 == m3 and m3 & m2 == m3
            for m1, m2, m3 in triples
        ]
        assert True in verdicts and False in verdicts

    def test_cond_0_2_1_composes_the_package_conditions(self):
        triples = list(product(enumerate_rules(3, canonical_only=True), repeat=3))
        got = [cond_0_2_1(r1, r2, r3) for r1, r2, r3 in triples]
        assert got == [
            cond_2_1_0(r1, r2, r3) and cond_1_1_0(r3, r1) and cond_1_1_0(r3, r2)
            for r1, r2, r3 in triples
        ]
        assert True in got and False in got

    def test_cond_0_2_2_composes_the_package_conditions(self):
        quadruples = list(product(enumerate_rules(2, canonical_only=True), repeat=4))
        got = [cond_0_2_2(*q) for q in quadruples]
        assert got == [
            cond_2_1_0(r1, r2, r3) and cond_2_1_0(r1, r2, r4)
            and cond_2_1_0(r3, r4, r1) and cond_2_1_0(r3, r4, r2)
            for r1, r2, r3, r4 in quadruples
        ]
        assert True in got and False in got


class TestPairToPair:
    def test_identity(self):
        r1, r2 = rules("a :- b. c :- not d.")
        assert cond_0_2_2(r1, r2, r1, r2)

    def test_pair_folds_to_duplicated_single(self):
        r1, r2, r3 = rules("a2 :- a1, not a3. a1;a2 :- not a3. a2 :- not a3.")
        assert cond_0_2_2(r1, r2, r3, r3)
        assert oracle([r1, r2], [r3, r3])

    def test_distinct_bodies_rejected(self):
        r1, r2 = rules("a :- b. a :- c.")
        assert not cond_0_2_2(r1, r1, r2, r2)
        assert not oracle([r1], [r2])

    @pytest.mark.parametrize("position", range(4))
    def test_requires_every_rule_canonical(self, position):
        # b :- a. is not redundant given a :- b. twice, so a check made only
        # where each rule is first tested would never reach r4
        quadruple = rules("a :- b. a :- b. b :- a. b :- a.")
        quadruple[position] = Rule(0b1, 0b1, 0)
        with pytest.raises(NotCanonicalError):
            cond_0_2_2(*quadruple)


def sliced(rules: list[Rule], atoms: int) -> SlicedRow:
    return SlicedRow([(r.hd, r.ps, r.ng) for r in rules], atoms)


def bits(verdicts) -> int:
    """The int whose bit i is the i-th verdict."""
    return sum(1 << i for i, verdict in enumerate(verdicts) if verdict)


class TestRowForms:
    """A predicate's row form decides a whole row of last rules at once,
    as one int whose bit i is the verdict on the row's i-th rule; it must
    give the predicate's own verdicts."""

    def test_every_registered_predicate_has_a_row_form(self):
        assert set(ROW_FORMS) == {predicate for _shape, predicate, _c in CONDITIONS.values()}

    @pytest.mark.parametrize("name", sorted(CONDITIONS))
    def test_agrees_with_its_predicate_on_every_prefix_and_row(self, name):
        shape, predicate, canonical_only = CONDITIONS[name]
        row_form = ROW_FORMS[predicate]
        # every prefix of the allowed rules, against every row kind: the
        # canonical rules, a part of them in another order (as the rows of
        # a tie mask are), and all rules where the condition takes them
        for atoms in (2, 3) if shape.length <= 2 else (2,):
            canonical = list(enumerate_rules(atoms, canonical_only=True))
            pool = canonical if canonical_only else list(enumerate_rules(atoms))
            rows = [canonical, canonical[::-3]]
            if not canonical_only:
                rows.append(pool)
            rows = [(row, sliced(row, atoms)) for row in rows]
            for prefix in product(pool, repeat=shape.length - 1):
                for row_rules, row in rows:
                    got = row_form(*prefix, row)
                    assert type(got) is int, (atoms, prefix)
                    assert got == bits(predicate(*prefix, r) for r in row_rules), (atoms, prefix)

    @pytest.mark.parametrize("name", ["cond_2_1_0", "cond_0_2_1"])
    def test_three_rule_row_forms_agree_over_three_atoms(self, name):
        shape, predicate, _canonical_only = CONDITIONS[name]
        canonical = list(enumerate_rules(3, canonical_only=True))
        row = sliced(canonical, 3)
        for prefix in product(canonical, repeat=2):
            assert ROW_FORMS[predicate](*prefix, row) == bits(
                predicate(*prefix, r) for r in canonical), prefix

    @pytest.mark.parametrize("name", ["cond_2_1_0", "cond_0_2_1", "cond_0_2_2"])
    def test_canonical_only_row_forms_raise_for_a_non_canonical_rule(self, name):
        shape, predicate, canonical_only = CONDITIONS[name]
        assert canonical_only
        row_form = ROW_FORMS[predicate]
        canonical = list(enumerate_rules(1, canonical_only=True))
        row = sliced(canonical, 1)
        looping = Rule(0b1, 0b1, 0)  # a :- a.
        # in the prefix, at each position
        for position in range(shape.length - 1):
            for prefix in product(canonical, repeat=shape.length - 1):
                prefix = list(prefix)
                prefix[position] = looping
                with pytest.raises(NotCanonicalError):
                    row_form(*prefix, row)
        # in the row, at each position, after every canonical prefix: some of
        # them decide the whole row without reading it
        for position in range(len(canonical) + 1):
            bad_row = sliced(canonical[:position] + [looping] + canonical[position:], 1)
            for prefix in product(canonical, repeat=shape.length - 1):
                with pytest.raises(NotCanonicalError):
                    row_form(*prefix, bad_row)

    def test_a_canonical_row_is_checked_once_when_built(self):
        canonical = list(enumerate_rules(2, canonical_only=True))
        assert sliced(canonical, 2).canonical
        assert sliced([], 2).canonical
        for bad in (Rule(0b1, 0b1, 0), Rule(0b1, 0, 0b1), Rule(0, 0b11, 0b10)):
            for position in (0, 7, 15):
                row = canonical[:position] + [bad] + canonical[position:]
                assert not sliced(row, 2).canonical

    def test_harness_rows_of_canonical_rules_are_canonical_rows(self):
        for atoms in range(4):
            for canonical in (True, False):
                row = _language_masks(atoms, canonical, atoms)
                assert row.canonical == (canonical or atoms == 0)
                # the columns are those of the row's own rules
                want = sliced(row.rules, atoms)
                assert (row.hd, row.ps, row.ng) == (want.hd, want.ps, want.ng)

    @pytest.mark.parametrize("atoms", [0, 1, 3, 8])
    def test_columns_and_tables_match_the_fields(self, atoms):
        rng = random.Random(atoms)
        full = (1 << atoms) - 1
        rules_ = [Rule(*(rng.randint(0, full) for _ in range(3))) for _ in range(40)]
        row = sliced(rules_, atoms)
        assert row.ones == (1 << 40) - 1
        for j in range(atoms):
            for field in ("hd", "ps", "ng"):
                assert getattr(row, field)[j] == bits(getattr(r, field) >> j & 1 for r in rules_)
        assert row.deletable == bits(cond_0_1_0(r) for r in rules_)
        fields = {
            "hd": lambda r: r.hd, "ps": lambda r: r.ps, "ng": lambda r: r.ng,
            "hn": lambda r: r.hd | r.ng,
        }
        for s in sorted({rng.randint(0, full) for _ in range(6)} | {0, full}):
            for name, of in fields.items():
                assert getattr(row, f"sup_{name}")[s] == bits(of(r) & s == s for r in rules_)
                assert getattr(row, f"miss_{name}")[s] == bits(not of(r) & s for r in rules_)
        with pytest.raises(AttributeError):
            row.sup_xy

    def test_a_field_past_eight_atoms_is_refused(self):
        with pytest.raises(ValueError):
            sliced([Rule(1 << 8, 0, 0)], 9)


class TestRenameInvariance:
    def test_conditions_stable_under_injections(self):
        rng = random.Random(31)
        pool = list(enumerate_rules(3, canonical_only=True))
        for _ in range(300):
            r1, r2, r3 = (rng.choice(pool) for _ in range(3))
            perm = dict(enumerate(rng.sample(range(6), 3)))
            m1, m2, m3 = (rename_rule(r, perm) for r in (r1, r2, r3))
            assert cond_0_1_0(r1) == cond_0_1_0(m1)
            assert cond_1_1_0(r1, r2) == cond_1_1_0(m1, m2)
            assert cond_0_1_1(r1, r2) == cond_0_1_1(m1, m2)
            assert s_implies(r1, r2) == s_implies(m1, m2)
            assert cond_2_1_0(r1, r2, r3) == cond_2_1_0(m1, m2, m3)


class TestExhaustiveAtomBound:
    @pytest.mark.parametrize(
        "shape,expected",
        [((0, 1, 0), 1), ((1, 1, 0), 3), ((2, 1, 0), 5)],
    )
    def test_single_witness_bounds(self, shape, expected):
        k, m, n = shape
        assert exhaustive_atom_bound(k, m, n, w=1) == expected

    def test_replacement_shapes_use_both_sides(self):
        assert exhaustive_atom_bound(0, 1, 1, w=0) == 2
        assert exhaustive_atom_bound(0, 2, 1, w=1) == 5

    def test_zero_bound_floors_at_one(self):
        assert exhaustive_atom_bound(0, 1, 0, w=0) == 1

    def test_requires_m_at_least_n(self):
        with pytest.raises(ValueError):
            exhaustive_atom_bound(0, 1, 2, w=1)
