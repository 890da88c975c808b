"""Acceptance criteria, one test per criterion, each with its stated
time budget.  Run with `pytest -s tests/test_acceptance.py` to see one
PASS line per criterion.
"""

import os
import random
import time

from strongeq import (
    Program,
    Symbols,
    answer_sets,
    cond_0_1_0,
    cond_0_1_1,
    cond_0_2_1,
    cond_0_2_2,
    cond_1_1_0,
    cond_2_1_0,
    exhaustive_atom_bound,
    parse_program,
    s_implies,
    simplify,
    strongly_equivalent,
    verify_simplification,
)
from strongeq.discovery import TupleShape, enumerate_rules, test_conjecture
from conftest import random_program, random_total_map
from reference import rename_program


def timed(fn, *args, repeat: int = 1, **kwargs):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion:2d}: {detail}")


def se_text(text1: str, text2: str) -> tuple[bool, float]:
    t = Symbols()
    p1 = parse_program(text1, t)
    p2 = parse_program(text2, t)
    verdict, elapsed = timed(strongly_equivalent, p1, p2, repeat=3)
    return verdict.equivalent, elapsed


def test_criterion_01_answer_sets_of_two_rule_program():
    t = Symbols()
    p = parse_program("a;b. c :- not a.", t)
    answer_sets(p)  # warm up
    sets, elapsed = timed(answer_sets, p, repeat=3)
    assert set(sets) == {t.mask("a"), t.mask("b", "c")}
    assert len(sets) == 2
    assert elapsed < 0.001
    report(1, f"answer sets {{a}} and {{b, c}} in {elapsed * 1e3:.3f} ms (budget 1 ms)")


def test_criterion_02_oracle_reproduces_worked_equivalences():
    # One entry per worked claim: (left, right, expected verdict).  The
    # final 2-1-0 entry is the chain pair against the disjunctive fact
    # a2;a3: the fact is classically implied but NOT strongly redundant
    # (criterion 3 exhibits a separating context), so the expected verdict
    # is False; asserting True there would contradict the exhaustive
    # 4-atom agreement run of criterion 7.
    cases = [
        ("a :- b.", "a :- c.", False),
        ("a :- not a.", ":- not a.", True),
        ("a;b. :- a, b.", "a :- not b. b :- not a. :- a, b.", True),
        ("c :- b, not c. :- b, not c.", "c :- b, not c.", True),
        ("a;b :- not a.", "b :- not a.", True),
        # 2-1-0 worked examples
        ("a2 :- a1. a3 :- not a1. a3 :- not a2.", "a2 :- a1. a3 :- not a1.", True),
        ("a2 :- a1. a3 :- not a1. a2 :- not a3.", "a2 :- a1. a3 :- not a1.", False),
        (
            "a1;a2;a3. a2;a3 :- a1. a3 :- not a2.",
            "a1;a2;a3. a2;a3 :- a1.",
            True,
        ),
        ("a2 :- a1. a3 :- not a1. a2;a3.", "a2 :- a1. a3 :- not a1.", False),
        # 0-2-1 worked examples
        ("a2 :- a1, not a3. a1;a2 :- not a3.", "a2 :- not a3.", True),
        (":- a2, a3. :- a3, not a2.", ":- a3.", True),
        ("a1 :- a2, a3. a1 :- a3, not a2.", "a1 :- a3.", False),
    ]
    worst = 0.0
    for left, right, expected in cases:
        got, elapsed = se_text(left, right)
        assert got == expected, f"{left!r} vs {right!r}"
        assert elapsed < 0.010
        worst = max(worst, elapsed)
    report(2, f"{len(cases)} worked equivalence claims, worst {worst * 1e3:.3f} ms (budget 10 ms)")


def test_criterion_03_separating_context_answer_sets():
    t = Symbols()
    p1 = parse_program("a2 :- a1. a3 :- not a1. a2 :- not a3. a1 :- a2.", t)
    p2 = parse_program("a2 :- a1. a3 :- not a1. a1 :- a2.", t)
    answer_sets(p1)  # warm up
    sets1, e1 = timed(answer_sets, p1, repeat=3)
    sets2, e2 = timed(answer_sets, p2, repeat=3)
    assert set(sets1) == {t.mask("a3"), t.mask("a1", "a2")}
    assert set(sets2) == {t.mask("a3")}
    assert max(e1, e2) < 0.010
    report(3, f"context a1 :- a2 separates the pair in {max(e1, e2) * 1e3:.3f} ms (budget 10 ms)")


def test_criterion_04_exhaustive_single_rule_deletion_at_three_atoms():
    rep = test_conjecture(TupleShape(0, 1, 0), 3, cond_0_1_0)
    assert rep.total_tuples == 511
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 1000
    report(4, f"511 rules, zero mismatches in {rep.elapsed_ms:.0f} ms (budget 1 s)")


def test_criterion_05_exhaustive_pair_deletion_at_three_atoms():
    rep = test_conjecture(TupleShape(1, 1, 0), 3, cond_1_1_0, job_count=1)
    assert rep.total_tuples == 261_121
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 60_000
    report(5, f"261,121 ordered pairs, zero mismatches in {rep.elapsed_ms:.0f} ms (budget 60 s)")


def test_criterion_06_exhaustive_replacement_at_three_atoms():
    rep = test_conjecture(TupleShape(0, 1, 1), 3, cond_0_1_1, job_count=1)
    assert rep.total_tuples == 261_121
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 60_000
    report(6, f"261,121 ordered pairs, zero mismatches in {rep.elapsed_ms:.0f} ms (budget 60 s)")


def test_criterion_07_exhaustive_canonical_triples_at_four_atoms():
    jobs = os.cpu_count() or 1
    rep = test_conjecture(
        TupleShape(2, 1, 0), 4, cond_2_1_0, canonical_only=True, job_count=jobs
    )
    assert rep.total_tuples == 255**3 == 16_581_375
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 30 * 60_000
    report(
        7,
        f"16,581,375 canonical triples, zero mismatches in {rep.elapsed_ms / 1000:.1f} s "
        f"with {jobs} jobs (budget 30 min)",
    )


def test_criterion_08_enumeration_arithmetic():
    assert sum(1 for _ in enumerate_rules(6)) == 262_143
    assert sum(1 for _ in enumerate_rules(3, canonical_only=True)) == 63
    report(8, "262,143 rules over 6 atoms; 63 canonical rules over 3 atoms")


def test_criterion_09_exhaustive_check_bounds():
    got = [
        exhaustive_atom_bound(0, 1, 0, w=1),
        exhaustive_atom_bound(1, 1, 0, w=1),
        exhaustive_atom_bound(2, 1, 0, w=1),
    ]
    assert got == [1, 3, 5]
    report(9, "single-witness atom bounds are 1, 3, 5 for the deletion shapes")


def test_criterion_10_simplifier_property_suite():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    for i in range(10_000):
        p = random_program(rng, 5, 6)
        out, _ = simplify(p)
        assert verify_simplification(p, out), f"program #{i} lost equivalence"
        again, trace = simplify(out)
        assert again == out and trace.steps == (), f"program #{i} not idempotent"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(10, f"10,000 random programs simplified and verified in {elapsed:.1f} s (budget 5 min)")


def test_criterion_11_rename_invariance():
    rng = random.Random(2027)
    t0 = time.perf_counter()
    positives = 0
    for i in range(1_000):
        p1 = random_program(rng, 4, 4)
        style = i % 3
        if style == 0:
            p2, _ = simplify(p1)
        elif style == 1:
            extra = Program(p1.rules[:1] * 2) if p1.rules else Program()
            p2 = Program(p1.rules + extra.rules)
        else:
            p2 = random_program(rng, 4, 4)
        f = random_total_map(rng, 4)
        if strongly_equivalent(p1, p2).equivalent:
            positives += 1
            assert strongly_equivalent(
                rename_program(p1, f), rename_program(p2, f)
            ).equivalent, f"triple #{i} broke under renaming"
    elapsed = time.perf_counter() - t0
    assert positives > 300  # the property must not pass vacuously
    assert elapsed < 60
    report(
        11,
        f"1,000 program pairs with total maps, {positives} equivalent, "
        f"all preserved, in {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_12_subsumption_special_case():
    t0 = time.perf_counter()
    rules = list(enumerate_rules(3))
    violations = 0
    for r1 in rules:
        for r2 in rules:
            if s_implies(r1, r2) and not cond_1_1_0(r1, r2):
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60
    report(
        12,
        f"s_implies within cond_1_1_0 across 261,121 pairs, zero violations, "
        f"in {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_13_exhaustive_pair_to_single_classes_at_four_atoms():
    jobs = os.cpu_count() or 1
    rep = test_conjecture(
        TupleShape(0, 2, 1), 4, cond_0_2_1, canonical_only=True, modulo_iso=True, job_count=jobs
    )
    assert rep.total_tuples == 754_956
    assert rep.se_positive_count == rep.condition_positive_count == 612
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 60_000
    report(
        13,
        f"754,956 canonical 0-2-1 classes, 612 equivalent, zero mismatches in "
        f"{rep.elapsed_ms / 1000:.1f} s with {jobs} jobs (budget 60 s)",
    )


def test_criterion_14_exhaustive_pair_to_pair_classes_at_three_atoms():
    jobs = os.cpu_count() or 1
    rep = test_conjecture(
        TupleShape(0, 2, 2), 3, cond_0_2_2, canonical_only=True, modulo_iso=True, job_count=jobs
    )
    assert rep.total_tuples == 2_650_833
    assert rep.se_positive_count == rep.condition_positive_count == 7_943
    assert rep.mismatch_count == 0
    assert rep.elapsed_ms < 120_000
    report(
        14,
        f"2,650,833 canonical 0-2-2 classes, 7,943 equivalent, zero mismatches in "
        f"{rep.elapsed_ms / 1000:.1f} s with {jobs} jobs (budget 2 min)",
    )
