"""Enumeration, isomorphism quotients, and the condition-vs-oracle harness."""

import collections
import functools
import importlib
import itertools
import json
import multiprocessing
import os
import pickle
import random
import sys
import time
import tracemalloc
from bisect import bisect_left
from itertools import permutations, product
from pathlib import Path

import pytest

from strongeq import (
    HTPair,
    Program,
    Rule,
    TooManyAtomsError,
    cond_0_1_0,
    cond_0_1_1,
    cond_1_1_0,
    strongly_equivalent,
)
from strongeq import cli, cond_2_1_0, discovery
from strongeq.cli import CONDITIONS
from strongeq.conditions import ROW_FORMS
from strongeq.discovery import (
    MISMATCH_CAP,
    DiscoveryReport,
    TupleShape,
    discover_positive_tuples,
    enumerate_rules,
    enumerate_tuples,
    ht_pair_masks,
    rule_mask,
    test_conjecture,
)

import reference
from reference import rename_rule


def never(*_rules: Rule) -> bool:
    return False


def bits(verdicts) -> int:
    """The int whose bit i is the i-th verdict."""
    return sum(1 << i for i, verdict in enumerate(verdicts) if verdict)


class InlinePool:
    """A stand-in for multiprocessing.Pool that runs the work here."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def starmap(self, fn, args):
        return list(itertools.starmap(fn, args))


class TestShapes:
    def test_length(self):
        assert TupleShape(2, 1, 0).length == 3

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            TupleShape(0, 0, 0)
        with pytest.raises(ValueError):
            TupleShape(-1, 1, 1)


class TestEnumerateRules:
    def test_all_rule_count_at_six_atoms(self):
        assert sum(1 for _ in enumerate_rules(6)) == 262_143

    def test_all_rule_count_at_three_atoms(self):
        assert sum(1 for _ in enumerate_rules(3)) == 511

    def test_canonical_count_at_three_atoms(self):
        assert sum(1 for _ in enumerate_rules(3, canonical_only=True)) == 63

    def test_closed_forms_at_small_sizes(self):
        for a in (1, 2, 3, 4):
            assert sum(1 for _ in enumerate_rules(a)) == 2 ** (3 * a) - 1
            assert sum(1 for _ in enumerate_rules(a, canonical_only=True)) == 4**a - 1

    def test_empty_rule_excluded_and_order_ascending(self):
        got = list(enumerate_rules(1))
        assert got == [
            Rule(0, 0, 1),
            Rule(0, 1, 0),
            Rule(0, 1, 1),
            Rule(1, 0, 0),
            Rule(1, 0, 1),
            Rule(1, 1, 0),
            Rule(1, 1, 1),
        ]

    def test_atom_guard(self):
        with pytest.raises(TooManyAtomsError):
            list(enumerate_rules(8))
        with pytest.raises(TooManyAtomsError):
            list(enumerate_rules(8, canonical_only=True))

    @pytest.mark.parametrize("canonical", [False, True])
    def test_rule_count_is_the_enumerated_count(self, canonical):
        # the count the scan budget and the CLI's long-run estimate read
        for atom_count in range(5):
            assert discovery.rule_count(atom_count, canonical) == len(
                list(discovery._rule_fields(atom_count, canonical)))

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("atom_count", range(6))
    def test_equals_the_filtered_triple_loop(self, atom_count, canonical):
        got = list(enumerate_rules(atom_count, canonical))
        assert got == reference.enumerate_rules(atom_count, canonical)


class TestEnumerateTuples:
    def test_singleton_shape_matches_rule_count(self):
        n = sum(1 for _ in enumerate_tuples(TupleShape(0, 1, 0), 3))
        assert n == 511

    def test_triple_count_is_cube(self):
        n = sum(1 for _ in enumerate_tuples(TupleShape(2, 1, 0), 2, canonical_only=True))
        assert n == 15**3

    def test_order_matches_index_product(self):
        rules = list(enumerate_rules(2))
        got = list(enumerate_tuples(TupleShape(0, 1, 1), 2))
        assert got == [(r1, r2) for r1, r2 in product(rules, repeat=2)]

    def test_modulo_iso_yields_canonical_forms_only(self):
        from strongeq import iso_canonical_form

        reps = list(enumerate_tuples(TupleShape(0, 1, 0), 3, modulo_iso=True))
        for tup in reps:
            assert iso_canonical_form(tup) == tup

    def test_modulo_iso_expansion_recovers_everything(self):
        # Soundness of the quotient: expanding each representative by all
        # atom bijections and deduplicating gives back the full tuple set.
        for canonical in (False, True):
            full = set(enumerate_tuples(TupleShape(0, 1, 1), 2, canonical_only=canonical))
            reps = list(
                enumerate_tuples(TupleShape(0, 1, 1), 2, canonical_only=canonical, modulo_iso=True)
            )
            expanded = set()
            for tup in reps:
                for perm in permutations(range(2)):
                    mapping = dict(enumerate(perm))
                    expanded.add(tuple(rename_rule(r, mapping) for r in tup))
            assert expanded == full
            # Distinct representatives never share an orbit.
            assert len(reps) == len({tuple(t) for t in reps})


class TestHarnessOracle:
    def test_rule_masks_reproduce_pairwise_oracle(self):
        # The mask route must agree with the reference oracle evaluated
        # over the full enumeration language.
        pairs = ht_pair_masks(3)
        rules = list(enumerate_rules(3))
        rng = random.Random(4)
        for _ in range(300):
            r1, r2 = rng.choice(rules), rng.choice(rules)
            by_mask = rule_mask(r1, pairs) == rule_mask(r2, pairs)
            by_oracle = strongly_equivalent(Program((r1,)), Program((r2,))).equivalent
            assert by_mask == by_oracle


def reference_rule_mask(r, atom_count):
    """Bit i set iff the rule's translation holds on the pair decoded from
    i's base-3 digits: atom a's digit is 0 outside y, 1 in y only, 2 in x."""
    mask = 0
    for i in range(3**atom_count):
        x = y = 0
        for a in range(atom_count):
            digit = i // 3**a % 3
            y |= (digit > 0) << a
            x |= (digit == 2) << a
        mask |= reference.delta_holds(r, HTPair(x, y)) << i
    return mask


class TestRuleMasks:
    @pytest.mark.parametrize(
        "atom_count, canonical", [(0, False), (1, False), (2, False), (3, False), (4, True)]
    )
    def test_closed_form_equals_concatenated_here_masks(self, atom_count, canonical):
        layout = ht_pair_masks(atom_count)
        assert layout[0] == (1 << 3**atom_count) - 1
        for r in enumerate_rules(atom_count, canonical):
            assert rule_mask(r, layout) == reference_rule_mask(r, atom_count), r

    def test_test_conjecture_builds_masks_through_the_traced_names(self, monkeypatch):
        # the benchmark's traced run times mask building by patching these
        # two names; a path around them would read as no mask work at all
        calls = {"ht_pair_masks": 0, "rule_mask": 0}

        def counted(name, fn):
            def shim(*args):
                calls[name] += 1
                return fn(*args)

            return shim

        for name in calls:
            monkeypatch.setattr(discovery, name, counted(name, getattr(discovery, name)))
        test_conjecture(TupleShape(1, 1, 0), 2, cond_1_1_0, canonical_only=True)
        assert calls == {"ht_pair_masks": 1, "rule_mask": 15}


class TestTestConjecture:
    def test_exact_condition_has_no_mismatches(self):
        report = test_conjecture(TupleShape(0, 1, 0), 3, cond_0_1_0)
        assert report.total_tuples == 511
        assert report.mismatch_count == 0
        assert report.mismatches == ()
        assert report.se_positive_count == report.condition_positive_count

    def test_rejecting_condition_collects_all_positives(self):
        report = test_conjecture(TupleShape(0, 1, 0), 2, never)
        assert report.condition_positive_count == 0
        assert report.mismatch_count == report.se_positive_count
        assert all(mm.oracle and not mm.condition for mm in report.mismatches)

    def test_mismatch_list_capped_counts_exact(self):
        report = test_conjecture(TupleShape(1, 1, 0), 3, never)
        assert report.mismatch_count > 1000
        assert len(report.mismatches) == 1000
        assert report.total_tuples == 511 * 511

    def test_incomplete_condition_mismatches_one_sided(self):
        from strongeq import s_implies

        report = test_conjecture(TupleShape(1, 1, 0), 2, s_implies)
        assert report.mismatch_count > 0
        assert (
            report.se_positive_count - report.condition_positive_count
            == report.mismatch_count
        )

    def test_job_count_does_not_change_the_report(self):
        one = test_conjecture(TupleShape(1, 1, 0), 2, cond_1_1_0, job_count=1)
        two = test_conjecture(TupleShape(1, 1, 0), 2, cond_1_1_0, job_count=2)
        five = test_conjecture(TupleShape(1, 1, 0), 2, cond_1_1_0, job_count=5)
        for other in (two, five):
            assert other.total_tuples == one.total_tuples
            assert other.se_positive_count == one.se_positive_count
            assert other.condition_positive_count == one.condition_positive_count
            assert other.mismatch_count == one.mismatch_count
            assert other.mismatches == one.mismatches

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers",
        [({0, 1, 2}, 64, 3), ({5}, 64, 1), (None, 4, 4), (None, None, 1)],
        ids=["three-cpus", "one-cpu", "no-affinity", "unknown-count"],
    )
    def test_workers_are_bounded_by_usable_cpus(self, monkeypatch, affinity, cpu_count, workers):
        # 63 rules would allow 63 ranges: the fake pool only records how
        # many processes it was asked for and runs the ranges here
        started = []

        class RecordingPool(InlinePool):
            def __init__(self, processes):
                started.append(processes)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        shape = TupleShape(1, 1, 0)
        report = test_conjecture(shape, 3, cond_1_1_0, True, job_count=5000)
        assert started == ([workers] if workers > 1 else [])
        one = test_conjecture(shape, 3, cond_1_1_0, True, job_count=1)
        assert report._replace(elapsed_ms=0) == one._replace(elapsed_ms=0)

    def test_job_count_with_mismatches_is_deterministic(self):
        one = test_conjecture(TupleShape(0, 1, 1), 2, never, job_count=1)
        three = test_conjecture(TupleShape(0, 1, 1), 2, never, job_count=3)
        assert one.mismatches == three.mismatches

    def test_mismatch_stream_matches_enumeration_order(self):
        report = test_conjecture(TupleShape(0, 1, 0), 2, never)
        positives = [t for t in discover_positive_tuples(TupleShape(0, 1, 0), 2)]
        assert [mm.rules for mm in report.mismatches] == positives

    def test_modulo_iso_scan_agrees_with_filtered_enumeration(self):
        report = test_conjecture(TupleShape(0, 1, 1), 2, cond_0_1_1, modulo_iso=True)
        expected_total = sum(1 for _ in enumerate_tuples(TupleShape(0, 1, 1), 2, modulo_iso=True))
        assert report.total_tuples == expected_total
        assert report.mismatch_count == 0

    def test_report_json_schema(self):
        report = test_conjecture(TupleShape(0, 1, 0), 2, never)
        payload = json.loads(report.json_text())
        assert set(payload) == {
            "shape",
            "atoms",
            "total",
            "se_positive",
            "cond_positive",
            "mismatches",
            "elapsed_ms",
        }
        assert payload["shape"] == [0, 1, 0]
        assert payload["atoms"] == 2
        first = payload["mismatches"][0]
        assert set(first) == {"tuple", "oracle", "cond"}
        assert isinstance(first["tuple"][0], str)
        assert payload == reference.report_json(report)


class TestDiscoverPositives:
    def test_single_rule_positives_match_deletability(self):
        positives = {t[0] for t in discover_positive_tuples(TupleShape(0, 1, 0), 2)}
        for r in enumerate_rules(2):
            assert (r in positives) == cond_0_1_0(r)

    def test_identical_replacement_always_positive(self):
        positives = set(discover_positive_tuples(TupleShape(0, 1, 1), 2))
        for r in enumerate_rules(2):
            assert (r, r) in positives

    def test_duplicate_rule_always_deletable(self):
        positives = set(discover_positive_tuples(TupleShape(1, 1, 0), 2))
        for r in enumerate_rules(2):
            assert (r, r) in positives

    def test_stream_matches_one_scan_of_every_range(self):
        # the order of a single scan over all outermost indices, which
        # builds every positive tuple before the first is returned
        for shape, iso in ((TupleShape(0, 1, 1), False), (TupleShape(1, 1, 0), True)):
            language = discovery._language_masks(2, False, discovery.ENUM_ATOM_LIMIT)
            rules = language.rules
            ties = discovery._all_ties(2) if iso else 0
            *_counts, whole = discovery._scan_range(
                (shape.k, shape.m, shape.n), language, discovery._never,
                0, len(rules), ties, discovery._tie_table(rules, ties),
                len(rules) ** shape.length)
            assert list(discover_positive_tuples(shape, 2, modulo_iso=iso)) == [
                mm.rules for mm in whole]

    def test_first_tuple_needs_one_range(self, monkeypatch):
        calls = []
        scan = discovery._scan_range

        def counting(*args):
            calls.append(args[3:5])
            return scan(*args)

        monkeypatch.setattr(discovery, "_scan_range", counting)
        stream = discover_positive_tuples(TupleShape(1, 1, 0), 3)
        first = next(stream)
        assert first == (first[0], first[0])
        assert calls == [(0, 1)]

    @pytest.mark.parametrize("stream", [True, False], ids=["positives", "test_conjecture"])
    def test_order_masks_once_per_rule(self, monkeypatch, stream):
        calls = []
        real = discovery._child_ties

        def counting(r, ties):
            calls.append(r)
            return real(r, ties)

        monkeypatch.setattr(discovery, "_child_ties", counting)
        # the --jobs ranges run in this process, so their calls count too
        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        shape = TupleShape(0, 1, 1)
        if stream:
            list(discover_positive_tuples(shape, 3, canonical_only=True, modulo_iso=True))
        else:
            for job_count in (1, 2):  # the --jobs weights reuse the same column
                test_conjecture(shape, 3, never, True, modulo_iso=True, job_count=job_count)
        rules = list(enumerate_rules(3, canonical_only=True))
        assert calls == rules * (1 if stream else 2)

    @pytest.mark.parametrize("iso", [False, True])
    def test_row_built_once_per_stream(self, monkeypatch, iso):
        built = []
        real = discovery._Row

        def counting(*args):
            built.append(args)
            return real(*args)

        expected = test_conjecture(TupleShape(1, 1, 0), 2, never, modulo_iso=iso).se_positive_count
        monkeypatch.setattr(discovery, "_Row", counting)
        assert len(list(discover_positive_tuples(TupleShape(1, 1, 0), 2, modulo_iso=iso))) == expected
        # one row for the stream, whatever its ties, not one per outermost
        # rule (63 ranges)
        assert len(built) == 1

    @pytest.mark.parametrize("atom_count, length", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_every_shape_yields_exactly_the_oracle_positives(self, atom_count, length):
        # the harness's rule masks against the oracle itself, one
        # strongly_equivalent call per tuple, for every k-m-n of the length
        rules = list(enumerate_rules(atom_count))
        for k in range(length + 1):
            for m in range(length + 1 - k):
                shape = TupleShape(k, m, length - k - m)
                expected = [
                    t for t in product(rules, repeat=length)
                    if strongly_equivalent(
                        Program(t[:k + m]), Program(t[:k] + t[k + m:])).equivalent
                ]
                assert list(discover_positive_tuples(shape, atom_count)) == expected, shape

    def test_split_rule_equivalence_for_pure_deletions(self):
        # Two rules are jointly deletable against the empty program exactly
        # when each is deletable alone.
        singles = {t[0] for t in discover_positive_tuples(TupleShape(0, 1, 0), 2)}
        pairs = set(discover_positive_tuples(TupleShape(0, 2, 0), 2))
        for r1 in enumerate_rules(2):
            for r2 in enumerate_rules(2):
                assert ((r1, r2) in pairs) == (r1 in singles and r2 in singles)


class TestReportInvariant:
    def test_zero_mismatches_iff_counts_track_oracle(self):
        exact = test_conjecture(TupleShape(0, 1, 1), 2, cond_0_1_1)
        assert exact.mismatch_count == 0
        assert exact.se_positive_count == exact.condition_positive_count

        broken = test_conjecture(TupleShape(0, 1, 1), 2, never)
        assert broken.mismatch_count > 0


# Every shape of length 1-3, and per length the (atoms, canonical) cases
# whose reference enumeration (a full canonical form per product tuple)
# stays quick.
SHAPES_UP_TO_THREE = [
    TupleShape(k, m, n)
    for k in range(4)
    for m in range(4)
    for n in range(4)
    if 1 <= k + m + n <= 3
]
ISO_CASES = {
    1: [(1, False), (2, False), (3, False), (1, True), (2, True), (3, True)],
    2: [(1, False), (2, False), (1, True), (2, True), (3, True)],
    3: [(1, False), (1, True), (2, True)],
}


@functools.lru_cache(maxsize=None)
def iso_reference(length, atom_count, canonical):
    shape = TupleShape(0, length, 0)
    return list(enumerate_tuples(shape, atom_count, canonical, modulo_iso=True))


def tuples_reaching_condition(shape, atom_count, canonical):
    seen = []

    def record(*rules):
        seen.append(rules)
        return False

    report = test_conjecture(shape, atom_count, record, canonical, modulo_iso=True)
    assert report.total_tuples == len(seen)
    return seen


def shape_id(shape):
    return f"{shape.k}-{shape.m}-{shape.n}"


class TestOrderlyWalk:
    """The modulo-iso scan must hand the condition exactly the tuples that
    are their own iso_canonical_form, in enumeration order."""

    @pytest.mark.parametrize("shape", SHAPES_UP_TO_THREE, ids=shape_id)
    def test_condition_sees_the_reference_classes_in_order(self, shape):
        for atoms, canonical in ISO_CASES[shape.length]:
            got = tuples_reaching_condition(shape, atoms, canonical)
            assert got == iso_reference(shape.length, atoms, canonical), (atoms, canonical)

    @pytest.mark.parametrize("shape", SHAPES_UP_TO_THREE, ids=shape_id)
    def test_reports_equal_for_one_and_two_jobs(self, shape):
        atoms, canonical = ISO_CASES[shape.length][-1]
        one, two = (
            test_conjecture(shape, atoms, never, canonical, modulo_iso=True, job_count=jobs)
            for jobs in (1, 2)
        )
        assert one.total_tuples > 0
        assert one._replace(elapsed_ms=0) == two._replace(elapsed_ms=0)

    @pytest.mark.parametrize(
        "mutant",
        [
            # keeps every tie, so later rules meet the prefix's whole group
            ("_child_ties", lambda real: lambda r, ties: ties),
            # breaks every tie, forgetting the stabilizer after one rule
            ("_child_ties", lambda real: lambda r, ties: 0),
            # also prunes rules that are merely tied across a pair
            ("kept", lambda real: lambda row, ties: real(row, ties) & ~bits(
                reference.order_masks(r, ties)[1] != 0 for r in row.rules)),
            # compares heads only
            ("_child_ties", lambda real: lambda r, ties: real(Rule(r.hd, 0, 0), ties)),
        ],
        ids=["unnarrowed", "forgetful", "prunes-tied", "head-only"],
    )
    def test_mutants_of_the_tie_masks_are_caught(self, monkeypatch, mutant):
        name, make = mutant
        owner = discovery._Row if name == "kept" else discovery
        monkeypatch.setattr(owner, name, make(getattr(owner, name)))
        cases = [(TupleShape(0, 1, 1), 3, True), (TupleShape(2, 1, 0), 2, True),
                 (TupleShape(0, 1, 1), 2, False)]
        assert any(
            tuples_reaching_condition(shape, atoms, canonical)
            != iso_reference(shape.length, atoms, canonical)
            for shape, atoms, canonical in cases
        )

    def test_canonical_triples_at_four_atoms(self):
        report = test_conjecture(
            TupleShape(2, 1, 0), 4, cond_2_1_0, canonical_only=True, modulo_iso=True
        )
        assert report.total_tuples == 754_956
        assert report.se_positive_count == 96_558
        assert report.mismatch_count == 0


def reference_scan(shape, language, condition, start, stop, ties, _tied, cap):
    """_scan_range as a per-tuple walk: the condition and the oracle are
    asked about one tuple at a time.  It takes _scan_range's arguments but
    makes its own order masks, those of tests/reference.py."""
    k, m, n = shape
    last = k + m + n - 1
    rules, masks, full = language.rules, language.masks, language.full
    below, tied = zip(*(reference.order_masks(r, ties) for r in rules)) if ties else ((), ())
    counts = [0, 0, 0, 0]
    mismatches = []

    def walk(depth, ma, mb, prefix, ties):
        if ties:
            rng = [i for i, b in enumerate(below) if not b & ties]
            if depth == 0:
                rng = rng[bisect_left(rng, start):bisect_left(rng, stop)]
        else:
            rng = range(start, stop) if depth == 0 else range(len(rules))
        in_a = depth < k + m
        in_b = depth < k or depth >= k + m
        for i in rng:
            a = ma & masks[i] if in_a else ma
            b = mb & masks[i] if in_b else mb
            tup = prefix + (rules[i],)
            if depth < last:
                walk(depth + 1, a, b, tup, ties and ties & tied[i])
                continue
            o = a == b
            c = True if condition(*tup) else False
            counts[0] += 1
            counts[1] += o
            counts[2] += c
            if o != c:
                counts[3] += 1
                if len(mismatches) < cap:
                    mismatches.append(discovery.Mismatch(tup, o, c))

    walk(0, full, full, (), ties)
    return (*counts, mismatches)


def odd_positive_body(*rules):
    return rules[-1].ps & 1  # an int


def heads_seen(*rules):
    return [r for r in rules if r.hd]  # a list, empty or not


def odd_values(*rules):
    """None, 0, 2 or [] by the tuple: each value's truth, never a bool."""
    return (None, 0, 2, [])[sum(r.hd + 2 * r.ps + r.ng for r in rules) % 4]


class TestBatchedScan:
    """The last position is decided a row at a time; the counts, the
    mismatches and the condition's calls must be those of a walk that
    decides one tuple at a time."""

    @pytest.mark.parametrize(
        "shape", SHAPES_UP_TO_THREE + [TupleShape(0, 2, 2), TupleShape(1, 1, 2)], ids=shape_id)
    def test_equals_the_per_tuple_walk(self, shape):
        shape_tuple = (shape.k, shape.m, shape.n)
        if shape.length == 4:
            # the row's condition calls take a prefix of three rules; one
            # atom has no ties, so the tied case takes two canonical atoms
            cases = [(1, False, False), (1, True, False), (2, True, True)]
        else:
            cases = [
                (atoms, canonical, iso)
                for atoms, canonical, iso in product((0, 1, 2), (False, True), (False, True))
                # 250,047 tuples per walk: the canonical case covers it
                if not (shape.length == 3 and atoms == 2 and not canonical)
            ]
        for atoms, canonical, iso in cases:
            language = discovery._language_masks(atoms, canonical, 7)
            rules = language.rules
            ties = discovery._all_ties(atoms) if iso else 0
            ranges = [(0, len(rules)), (1, len(rules) - 1), (len(rules) // 2, len(rules))]
            for condition, (start, stop), cap in product(
                (odd_positive_body, heads_seen, odd_values), ranges, (7, 10**6)
            ):
                seen = ([], [])

                def recording(*tup, log=None):
                    log.append(tup)
                    return condition(*tup)

                args = (start, stop, ties, discovery._tie_table(rules, ties), cap)
                got = discovery._scan_range(
                    shape_tuple, language, functools.partial(recording, log=seen[0]), *args)
                want = reference_scan(
                    shape_tuple, language, functools.partial(recording, log=seen[1]), *args)
                case = (atoms, canonical, iso, condition.__name__, start, stop, cap)
                assert got == want, case
                assert seen[0] == seen[1], case
                # 1 == True, so equality alone would let an unnormalized verdict by
                assert all(type(mm.condition) is bool for mm in got[4]), case

    @pytest.mark.parametrize("atoms, canonical", [(2, False), (3, True)])
    def test_row_equality_verdicts_match_direct_comparison(self, atoms, canonical):
        # every rule's mask, a mask of no rule, and each asked twice: the
        # first request, compared directly, and the index built on the second
        row = discovery._language_masks(atoms, canonical, 7)
        masks = row.masks
        targets = [row.full, masks[1], *masks[::3], row.full ^ 1, masks[1]]
        for target in targets * 2:
            assert row.equal(target) == bits(mi == target for mi in masks), target

    @pytest.mark.parametrize("atoms, canonical", [(0, False), (1, False), (2, False), (3, True)])
    def test_holds_is_the_masks_transposed(self, atoms, canonical):
        row = discovery._language_masks(atoms, canonical, 7)
        assert len(row.holds) == 3**atoms
        for p, h in enumerate(row.holds):
            assert h == bits(mi >> p & 1 for mi in row.masks), p

    @pytest.mark.parametrize("atoms, canonical", [(1, False), (2, True), (2, False), (3, True)])
    def test_grouped_lookups_match_direct_comparison(self, atoms, canonical):
        # holding(req, forb, kept): the rules of kept whose mask holds req
        # and misses forb, against the direct comparisons
        # `_scan_range.decide` stands for; kept is the whole row, a part of
        # it, one rule or none, as ties and ranges keep
        row = discovery._language_masks(atoms, canonical, 7)
        full, masks = row.full, row.masks
        rng = random.Random(atoms * 2 + canonical)
        sides = [full, 0, masks[0], masks[-1]] + [
            functools.reduce(int.__and__, rng.sample(masks, rng.randint(1, 3)), full)
            for _ in range(12)
        ]
        count = len(masks)
        for indices in (range(count), range(1, count, 3), [count // 2], []):
            kept = bits(i in indices for i in range(count))

            def want(verdict):
                return bits(i in indices and verdict(mi) for i, mi in enumerate(masks))

            for ma, mb in product(sides, repeat=2):
                # ma & mi == mb, as decide reads it when mb is within ma
                got = 0 if mb & ~ma else row.holding(mb, ma ^ mb, kept)
                assert got == want(lambda mi: ma & mi == mb), (indices, ma, mb)
                assert row.holding(ma & mb, 0, kept) == want(
                    lambda mi: ma & mb & ~mi == 0), (indices, ma, mb)
                assert row.holding(0, ma ^ mb, kept) == want(
                    lambda mi: ma & mi == mb & mi), (indices, ma, mb)

    def test_an_exception_in_the_condition_propagates(self):
        language = discovery._language_masks(2, False, 7)
        calls = []

        def failing(*tup):
            calls.append(tup)
            if len(calls) == 100:
                raise RuntimeError("condition failed")
            return True

        with pytest.raises(RuntimeError, match="condition failed"):
            discovery._scan_range(
                (1, 1, 0), language, failing, 0, len(language.rules), 0, ((), ()), 5)
        assert len(calls) == 100

    @pytest.mark.parametrize("job_count", [1, 2])
    def test_capped_mismatches_come_in_enumeration_order(self, job_count):
        report = test_conjecture(TupleShape(1, 1, 0), 2, always_wrong_1_1_0, job_count=job_count)
        assert report.total_tuples == report.mismatch_count == 63**2
        tuples = list(itertools.islice(enumerate_tuples(TupleShape(1, 1, 0), 2), MISMATCH_CAP))
        assert [mm.rules for mm in report.mismatches] == tuples
        assert all(mm.oracle != mm.condition for mm in report.mismatches)


def row_verdicts(row) -> list[int]:
    """What a scan asks of a row: `holding` and `equal` on sides made of
    its masks, and every registered row form on every seventh prefix."""
    masks = row.masks
    sides = [row.full, 0, *masks[::3], masks[1] & masks[-1]]
    got = [
        row.holding(req, forb, kept)
        for req, forb in product(sides, repeat=2)
        for kept in (row.ones, row.ones >> 3)
    ]
    got += [row.equal(target) for target in sides * 2]
    for shape, predicate, _canonical_only in CONDITIONS.values():
        prefixes = product(row.rules, repeat=shape.length - 1)
        row_form = ROW_FORMS[predicate]
        got += [row_form(*prefix, row) for prefix in itertools.islice(prefixes, 0, None, 7)]
    return got


class TestPickledRow:
    """With --jobs, each worker process receives the scan's row pickled;
    the copy must decide as the row it was made from, whether that row
    was fresh or had built its tables and index."""

    @pytest.mark.parametrize("built", [False, True], ids=["fresh", "built"])
    def test_the_copy_gives_the_same_verdicts(self, built):
        row = discovery._language_masks(2, True, 7)
        want = row_verdicts(row) if built else None
        copy = pickle.loads(pickle.dumps(row))
        assert type(copy) is discovery._Row
        assert sorted(copy.__dict__) == sorted(row.__dict__)
        if not built:
            want = row_verdicts(row)
        assert row_verdicts(copy) == want
        assert copy.holds == row.holds and copy._tables == row._tables

    def test_dunder_lookups_are_not_answered_as_tables(self):
        # pickle and copy look these up on the row; a table name is sup_F
        # or miss_F, and nothing else is built on a miss
        row = discovery._language_masks(1, True, 7)
        for name in ("__setstate__", "__getnewargs_ex__", "__deepcopy__", "__sup_hd__"):
            with pytest.raises(AttributeError):
                getattr(row, name)
        assert "sup_hd" not in row.__dict__


def traced_peak(build):
    """The peak of the memory `build()` allocates, in bits."""
    tracemalloc.start()
    try:
        build()
        return 8 * tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableBudget:
    """What a scan keeps stays within `_table_bits`, the count by which
    the memory budget refuses a scan before it starts."""

    @pytest.mark.parametrize("name, atoms, canonical, iso", [
        ("cond_0_1_0", 4, False, False),
        ("cond_0_1_0", 6, True, True),
        ("s_implies", 4, True, True),
        ("cond_0_1_1", 5, True, True),
        ("cond_2_1_0", 4, True, True),
        ("cond_0_2_1", 4, True, True),
    ])
    def test_a_traced_scan_stays_within_its_count(self, name, atoms, canonical, iso):
        shape, predicate, _canonical_only = CONDITIONS[name]
        peak = traced_peak(lambda: test_conjecture(shape, atoms, predicate, canonical, iso))
        assert peak <= discovery._table_bits(shape, atoms, canonical, iso)

    def test_every_table_of_the_six_atom_record_within_its_count(self):
        # docs/cond_2_1_0-a6-canonical-iso.json: its row with every table
        # built, and the rules kept for every tie mask
        def build():
            row = discovery._language_masks(6, True, 7)
            kinds = row.sup_hd, row.miss_hd
            tables = [row._table(at) for at in range(len(row._tables))]
            tied = discovery._tie_table(row.rules, discovery._all_ties(6))
            kept_bits = [row.kept(t) for t in range(32)]
            kept = [discovery._indices(b) for b in kept_bits]
            return row, kinds, tables, tied, kept, kept_bits

        peak = traced_peak(build)
        assert peak <= discovery._table_bits(TupleShape(2, 1, 0), 6, True, True)


def refuse_to_build(*_args):
    raise AssertionError("built")


class TestWhatAScanBuilds:
    """A scan builds the rules, their masks and the order table only
    where its walk or its output reads them."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("iso", [False, True], ids=["full", "iso"])
    def test_a_one_rule_scan_builds_no_rule_and_no_mask(self, monkeypatch, capsys, iso, jobs):
        for name in ("Rule", "rule_mask", "ht_pair_masks", "_child_ties"):
            monkeypatch.setattr(discovery, name, refuse_to_build)
        # the --jobs ranges run in this process, where the patches hold
        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
        argv = ["verify", "--shape", "0,1,0", "--atoms", "3", "--condition", "cond_0_1_0",
                "--json", "--jobs", jobs] + ["--modulo-iso"] * iso
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == (119 if iso else 511) and payload["mismatches"] == []

    def test_a_one_rule_scan_builds_the_rules_it_records(self, monkeypatch):
        expected = test_conjecture(TupleShape(0, 1, 0), 2, never)
        assert expected.mismatches
        monkeypatch.setattr(discovery, "rule_mask", refuse_to_build)
        report = test_conjecture(TupleShape(0, 1, 0), 2, never)
        assert report._replace(elapsed_ms=0) == expected._replace(elapsed_ms=0)
        monkeypatch.setattr(discovery, "Rule", refuse_to_build)
        with pytest.raises(AssertionError, match="built"):
            test_conjecture(TupleShape(0, 1, 0), 2, never)

    def test_a_two_rule_scan_that_records_mismatches_builds_the_masks(self, monkeypatch):
        monkeypatch.setattr(discovery, "rule_mask", refuse_to_build)
        with pytest.raises(AssertionError, match="built"):
            test_conjecture(TupleShape(1, 1, 0), 1, CONDITIONS["s_implies"][1])

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("atoms", range(6))
    def test_column_keep_sets_match_the_order_masks(self, atoms, canonical):
        row = discovery._language_masks(atoms, canonical, 7)
        # each pair is told apart on its own, so one call per rule serves
        # every tie mask
        masks = [reference.order_masks(r, discovery._all_ties(atoms)) for r in row.rules]
        for ties in range(1 << max(atoms - 1, 0)):
            want = bits_at((i for i, (below, _) in enumerate(masks) if not below & ties),
                           len(masks))
            assert row.kept(ties) == want, ties
            assert [discovery._child_ties(r, ties) for r in row.rules] == [
                tied & ties for _, tied in masks], ties

    @pytest.mark.parametrize(
        "atoms, canonical", [(0, False), (1, False), (2, False), (3, False), (4, True)])
    def test_valid_rules_are_those_whose_mask_is_full(self, atoms, canonical):
        row = discovery._language_masks(atoms, canonical, 7)
        assert row.valid == bits(mi == row.full for mi in row.masks)

    @pytest.mark.parametrize("atoms, canonical", [(0, False), (1, False), (2, False), (3, True)])
    def test_valid_read_off_built_masks(self, atoms, canonical):
        # a scan of two rules or more has built the masks before it asks
        row = discovery._language_masks(atoms, canonical, 7)
        want = bits(mi == row.full for mi in row.masks)
        assert row.valid == want
        assert "holds" not in row.__dict__


@functools.cache
def reference_report(name, atoms, iso):
    """The report of a non-canonical scan of a registered condition, its
    ranges walked one tuple at a time by `reference_scan`."""
    scan = discovery._scan_range
    discovery._scan_range = reference_scan
    try:
        shape, predicate, _canonical_only = CONDITIONS[name]
        return test_conjecture(shape, atoms, predicate, modulo_iso=iso)._replace(elapsed_ms=0)
    finally:
        discovery._scan_range = scan


class TestValidRows:
    """A row whose fixed prefix leaves the last rule's side all-ones and
    the other side all-ones too, a valid prefix in a full language, is
    decided from `row.valid`, not by asking `equal` for `full`."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("iso", [False, True], ids=["full", "iso"])
    @pytest.mark.parametrize("name", ["cond_1_1_0", "cond_0_1_1", "s_implies"])
    def test_scans_never_ask_for_full(self, monkeypatch, name, iso, jobs):
        want = reference_report(name, 3, iso)
        equal = discovery._Row.equal

        def refusing(row, target):
            assert target != row.full, "asked equal(full)"
            return equal(row, target)

        monkeypatch.setattr(discovery._Row, "equal", refusing)
        # the --jobs ranges run in this process, where the patch holds
        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        monkeypatch.setattr(discovery, "_usable_cpus", lambda: 2)
        shape, predicate, _canonical_only = CONDITIONS[name]
        report = test_conjecture(shape, 3, predicate, modulo_iso=iso, job_count=jobs)
        assert report._replace(elapsed_ms=0) == want
        if name == "s_implies" and not iso:
            assert len(report.mismatches) == MISMATCH_CAP

    def test_four_atoms_within_half_a_second(self, capsys):
        # 16,769,025 tuples, and 3,471 of the 4,095 rules are valid: their
        # rows read one valid rule at a time take about a second
        argv = ["verify", "--shape", "0,1,1", "--atoms", "4", "--condition", "cond_0_1_1",
                "--json"]
        started = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - started
        payload = json.loads(capsys.readouterr().out)
        # r, r' is oracle-positive iff their masks are equal
        sizes = collections.Counter(discovery._language_masks(4, False, 7).masks).values()
        assert payload["se_positive"] == payload["cond_positive"] == sum(n * n for n in sizes)
        assert payload["total"] == 4095**2 and payload["mismatches"] == []
        assert elapsed < 0.5, elapsed


def bits_at(indices, count: int) -> int:
    """The int of count bits with bit i set for each i of indices, read
    from its digits: no running sum of long ints."""
    digits = bytearray(b"0" * count)
    for i in indices:
        digits[i] = ord("1")
    return int(digits[::-1] or b"0", 2)


@pytest.fixture(scope="module")
def deck_runs():
    """The benchmark's verify deck: (condition, shape, atoms, canonical,
    modulo_iso) for each op."""
    path, saved = str(Path(__file__).resolve().parent.parent / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(path)
        sys.dont_write_bytecode = saved
    return [
        (name, CONDITIONS[name][0], atoms, canonical, iso)
        for table, iso in ((workloads.VERIFY_OPS, False), (workloads.VERIFY_ISO_OPS, True))
        for name, _shape, atoms, canonical in table
    ]


def assert_written_as_the_reference(report):
    payload = reference.report_json(report)
    reference.assert_same_text(report.json_text(), json.dumps(payload))
    reference.assert_same_text(report.json_text(indent=True), json.dumps(payload, indent=2))


class TestReportText:
    """`DiscoveryReport.json_text` writes the text `json.dumps` gives for
    the reference dict, compact and at indent 2."""

    def test_every_deck_report(self, deck_runs):
        assert len(deck_runs) == 47
        for name, shape, atoms, canonical, iso in deck_runs:
            report = test_conjecture(shape, atoms, CONDITIONS[name][1], canonical, iso)
            assert_written_as_the_reference(report)

    @pytest.mark.parametrize("atoms", [2, 3])
    def test_capped_mismatch_lists(self, atoms):
        report = test_conjecture(TupleShape(1, 1, 0), atoms, CONDITIONS["s_implies"][1])
        assert len(report.mismatches) == MISMATCH_CAP
        if atoms == 2:
            assert report.mismatch_count == 1765
        assert_written_as_the_reference(report)

    def test_no_atoms(self):
        report = test_conjecture(TupleShape(1, 1, 0), 0, cond_1_1_0)
        assert report.total_tuples == 0
        assert_written_as_the_reference(report)

    @pytest.mark.parametrize("elapsed_ms", [0.0, 0.0004, 1234.5675, 1e16])
    def test_elapsed_times(self, elapsed_ms):
        report = test_conjecture(TupleShape(0, 1, 1), 1, never)._replace(elapsed_ms=elapsed_ms)
        assert report.mismatches
        assert_written_as_the_reference(report)


def call_predicate(predicate, *rules):
    """A predicate called through a wrapper, which has no row form."""
    return predicate(*rules)


class Unhashable:
    """A callable condition that cannot be a dict key."""

    __hash__ = None

    def __init__(self, predicate):
        self.predicate = predicate

    def __call__(self, *rules):
        return self.predicate(*rules)


class TestRowFormsInTheScan:
    """A registered predicate is decided by its row form, one call per
    row; any other callable per tuple, with the same report."""

    @pytest.mark.parametrize("name", sorted(CONDITIONS))
    def test_one_row_form_call_per_row(self, monkeypatch, name):
        shape, predicate, _canonical_only = CONDITIONS[name]
        real = discovery._ROW_FORMS[predicate]
        rows = []

        def recording(*args):
            rows.append((len(args) - 1, type(args[-1]), args[-1].ones.bit_length()))
            return real(*args)

        monkeypatch.setitem(discovery._ROW_FORMS, predicate, recording)
        report = test_conjecture(shape, 2, predicate, canonical_only=True)
        # 15 canonical rules over 2 atoms: one row of 15 per prefix
        prefixes = 15 ** (shape.length - 1)
        assert rows == [(shape.length - 1, discovery._Row, 15)] * prefixes
        assert report.total_tuples == 15 * prefixes

    @pytest.mark.parametrize("name", sorted(CONDITIONS))
    def test_a_wrapped_predicate_is_called_per_tuple_with_the_same_report(self, name):
        shape, predicate, canonical_only = CONDITIONS[name]
        calls = []

        def wrapped(*rules):
            calls.append(rules)
            return predicate(*rules)

        for canonical, iso in product({True, canonical_only}, (False, True)):
            calls.clear()
            direct = test_conjecture(shape, 2, predicate, canonical, iso)
            assert direct.total_tuples > 0
            for other in (wrapped, lambda *a: predicate(*a), Unhashable(predicate)):
                report = test_conjecture(shape, 2, other, canonical, iso)
                assert report._replace(elapsed_ms=0) == direct._replace(elapsed_ms=0), other
            assert len(calls) == direct.total_tuples

    @pytest.mark.parametrize("name", ["cond_0_2_1", "s_implies"])
    def test_wrapped_and_row_form_reports_agree_at_one_and_two_jobs(self, name):
        shape, predicate, canonical_only = CONDITIONS[name]
        wrapped = functools.partial(call_predicate, predicate)
        reports = [
            test_conjecture(shape, 2, condition, canonical_only, job_count=jobs)
            for condition in (predicate, wrapped)
            for jobs in (1, 2)
        ]
        assert reports[0].total_tuples > 0
        for report in reports[1:]:
            assert report._replace(elapsed_ms=0) == reports[0]._replace(elapsed_ms=0)

    def test_positive_tuples_take_the_row_form_of_never(self, monkeypatch):
        rows = []

        def recording(*args):
            rows.append(args[-1].ones.bit_length())
            return discovery._never_row(*args)

        monkeypatch.setitem(discovery._ROW_FORMS, discovery._never, recording)
        positives = list(discover_positive_tuples(TupleShape(1, 1, 0), 2))
        assert rows == [63] * 63
        assert len(positives) == test_conjecture(TupleShape(1, 1, 0), 2, never).se_positive_count


_LAYOUT_2 = ht_pair_masks(2)


def always_wrong_1_1_0(r1, r2):
    """The negation of the oracle's verdict on {r1, r2} versus {r1}."""
    m1 = rule_mask(r1, _LAYOUT_2)
    return m1 & rule_mask(r2, _LAYOUT_2) != m1
