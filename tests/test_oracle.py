"""Two-world strong-equivalence oracle and its countermodels."""

import functools
import random
import time
import tracemalloc

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
    parse_program,
    parse_rule,
    reduct,
    simplify,
    strongly_equivalent,
)
from strongeq import oracle
from strongeq.discovery import ht_pair_masks, rule_mask
from strongeq.oracle import (
    cube_worlds,
    first_set,
    kept_slices,
    primed_failures,
    separating_worlds,
    world_layout,
)
from strongeq.syntax import bits_of
from conftest import random_program, random_rule
from reference import delta_holds, ht_pairs, is_answer_set, rename_program, satisfies, subsets_of


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
        # the world masks: at most n masks of 2^n bits
        tracemalloc.start()
        try:
            strongly_equivalent(p1, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_first_here_world_late_in_order_is_read_off_the_mask(self):
        # 22 atoms: the pairs differ only at y = every atom, where the first
        # x holds 21 of them, among the last of the 2^22 in subsets_of(y)
        # order; walking them up to it took about 10 s
        t = Symbols()
        body = ", ".join(f"b{i}" for i in range(1, 22))
        p1 = parse_program(f"h :- {body}.", t)
        p2 = parse_program(f"h :- {body}, not h.", t)
        assert p1.atoms.bit_count() == 22
        started = time.perf_counter()
        verdict = strongly_equivalent(p1, p2)
        assert time.perf_counter() - started < 1.0
        assert verdict.countermodel == HTPair(p1.atoms & ~t.mask("h"), p1.atoms)


def perturbed(rng: random.Random, r: Rule, ids: list[int]) -> Rule:
    """The rule with one atom of the language toggled in one of its fields."""
    bit = 1 << rng.choice(ids)
    field = rng.randrange(3)
    return Rule(r.hd ^ bit * (field == 0), r.ps ^ bit * (field == 1), r.ng ^ bit * (field == 2))


def mostly_shared_pairs(rng: random.Random):
    """(p, q, kind) with q = p plus, minus or with a perturbed version of
    one rule, p reordered, or a subset of p, over sparse atom ids."""
    atom_count = rng.randint(2, 6)
    ids = sorted(rng.sample(SPARSE_IDS, atom_count))
    rename = dict(enumerate(ids))
    p = rename_program(random_program(rng, atom_count, 8), rename)
    rules = list(p.rules)
    if not rules:
        return
    i = rng.randrange(len(rules))
    extra = rename_program(Program((random_rule(rng, atom_count),)), rename).rules
    yield p, Program(tuple(rules) + extra), "plus"
    yield p, Program(tuple(rules[:i] + rules[i + 1:])), "minus"
    yield p, Program(tuple(rules[:i] + [perturbed(rng, rules[i], ids)] + rules[i + 1:])), "perturbed"
    yield p, Program(tuple(rng.sample(rules, len(rules)))), "reordered"
    yield p, Program(tuple(r for r in rules if rng.random() < 0.7)), "subset"


def fails_only_the_primed_check(p: Program, y: int) -> bool:
    """y is not a model of the reduct relative to y, but no proper subset
    of y is one either: only the (y, y) check rejects y."""
    red = reduct(p, y).rules
    model = lambda x: all(satisfies(x, r) for r in red)  # noqa: E731
    return not model(y) and not any(model(x) for x in subsets_of(y) if x != y)


class TestSharedRuleFastPaths:
    """The kernel splits off the rules two programs share and answer sets
    skip y that fail the primed check; both must leave every verdict and
    first countermodel as the pairwise reference gives them."""

    def test_slices_share_rank_masks_and_match_the_rank_definition(self):
        for lang in (0, 1 << 7, 0b1000_1001_1000, sum(1 << i for i in SPARSE_IDS)):
            got = list(kept_slices(world_layout(lang), (1 << (1 << lang.bit_count())) - 1))
            assert got == [(y, rank_basis(y)) for y in subsets_of(lang)]
            by_size = {}
            for y, (_full, atom) in got:
                masks = by_size.setdefault(y.bit_count(), list(atom.values()))
                assert all(m is s for m, s in zip(atom.values(), masks)), y

    def test_mostly_shared_programs_match_pairwise_walk(self):
        rng = random.Random(81)
        outcomes = {}
        for _ in range(400):
            for p, q, kind in mostly_shared_pairs(rng):
                for a, b in ((p, q), (q, p)):
                    got = strongly_equivalent(a, b)
                    assert got == reference_se(a, b), (kind, a, b)
                    outcomes.setdefault(kind, set()).add(got.equivalent)
        assert outcomes["reordered"] == {True}
        for kind in ("plus", "minus", "perturbed", "subset"):
            assert outcomes[kind] == {True, False}, kind

    def test_equal_rule_sets_need_no_walk(self):
        # a walk over 3^24 pairs would take weeks
        wide = Program(tuple(Rule(1 << i, 1 << (i + 1), 0) for i in range(23)))
        started = time.perf_counter()
        assert strongly_equivalent(wide, Program(wide.rules[::-1])).equivalent
        assert time.perf_counter() - started < 1.0
        assert strongly_equivalent(Program(), Program()) == SEVerdict(True)

    def test_shared_rules_decide_where_the_own_rules_differ(self):
        # a :- b fails only on pairs whose here world lacks a, and the shared
        # fact a. fails on all of those: equivalent, though the rules differ
        t = Symbols()
        p1, p2 = parse_program("a. a :- b.", t), parse_program("a.", t)
        assert strongly_equivalent(p1, p2) == reference_se(p1, p2) == SEVerdict(True)
        # the shared constraint rules out every y holding a, where b :- a
        # alone fails; the programs still differ at y = {b}
        p1, p2 = parse_program(":- a. a :- b.", t), parse_program(":- a. b :- a.", t)
        assert strongly_equivalent(p1, p2) == reference_se(p1, p2) == SEVerdict(
            False, HTPair(0, t.mask("b")))

    def test_answer_sets_with_constraints_match_reduct_check(self):
        rng = random.Random(82)
        primed_only = found = 0
        for _ in range(300):
            atom_count = rng.randint(1, 6)
            ids = sorted(rng.sample(SPARSE_IDS, atom_count))
            program = random_program(rng, atom_count, 5)
            constraints = tuple(
                Rule(0, rule.ps, rule.ng)
                for rule in (random_rule(rng, atom_count) for _ in range(rng.randint(1, 2)))
            )
            p = rename_program(Program(program.rules + constraints), dict(enumerate(ids)))
            got = answer_sets(p)
            assert got == tuple(y for y in subsets_of(p.atoms) if is_answer_set(p, y)), p
            found += len(got)
            primed_only += sum(fails_only_the_primed_check(p, y) for y in subsets_of(p.atoms))
        assert found > 100
        assert primed_only > 100


@functools.cache
def rank_definition(size: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones mask over the 2^size indices, and for each ascending
    position k the mask of the indices with bit size-1-k set."""
    count = 1 << size
    return (1 << count) - 1, tuple(
        sum(1 << i for i in range(count) if i >> size - 1 - k & 1) for k in range(size))


def rank_basis(y: int) -> tuple[int, dict[int, int]]:
    """`here_mask`'s basis at y by definition: bit i of a mask stands for
    the x of index i over y, which holds the atom at ascending position k
    iff bit |y|-1-k of i is set."""
    full, masks = rank_definition(y.bit_count())
    return full, dict(zip(bits_of(y), masks))


def world_index(y: int, lang: int) -> int:
    """The index of world y: the atom at position k of lang's ascending
    atoms weighs 2^(n-1-k)."""
    positions = list(bits_of(lang))
    return sum(1 << len(positions) - 1 - k for k, a in enumerate(positions) if y >> a & 1)


def worlds_where(lang: int, holds) -> int:
    return sum(1 << world_index(y, lang) for y in subsets_of(lang) if holds(y))


def primed(r: Rule, y: int) -> bool:
    return bool(r.ng & y or r.ps & ~y or r.hd & y)


def fields_of(rules) -> tuple[tuple[int, int, int], ...]:
    """The rules' (hd, ps, ng), as the kernel helpers read them."""
    return tuple((r.hd, r.ps, r.ng) for r in rules)


def split(p: Program, q: Program) -> tuple[tuple[Rule, ...], ...]:
    """(p's own rules, q's own rules, shared rules), in program order."""
    in_p, in_q = set(p.rules), set(q.rules)
    return (
        tuple(r for r in p.rules if r not in in_q),
        tuple(r for r in q.rules if r not in in_p),
        tuple(r for r in p.rules if r in in_q),
    )


def wide_shared_pairs(rng: random.Random, atom_count: int):
    """p of 10 rules `h :- b1, b2, not a, not c` over spread-out atom ids,
    against p plus a copy of one rule with one more body atom, and against
    p with that rule perturbed."""
    ids = [3 * i + 1 for i in range(atom_count)]
    rules = []
    for _ in range(10):
        h, b1, b2, a, c = rng.sample(ids, 5)
        rules.append(Rule(1 << h, 1 << b1 | 1 << b2, 1 << a | 1 << c))
    p = Program(tuple(rules))
    r = rng.choice(rules)
    extra = rng.choice([i for i in ids if not r.atoms >> i & 1])
    yield p, Program(p.rules + (Rule(r.hd, r.ps | 1 << extra, r.ng),))
    yield p, Program(tuple(perturbed(rng, x, ids) if x == r else x for x in rules))


# the last spans several blocks of the kept walk
LANGS = (0, 1 << 5, 0b1000_1001_1000, sum(1 << i for i in SPARSE_IDS), sum(1 << 2 * i for i in range(12)))


class TestWorldMask:
    """The world masks that decide which y the kernel walks, against their
    definitions y by y."""

    def test_cubes_match_definition(self):
        rng = random.Random(91)
        for lang in LANGS:
            layout = world_layout(lang)
            for _ in range(60):
                inside = rng.getrandbits(24) & lang
                outside = rng.getrandbits(24) & lang & ~(inside if rng.random() < 0.8 else 0)
                expected = worlds_where(lang, lambda y: not inside & ~y and not outside & y)
                assert cube_worlds(layout, inside, outside) == expected, (lang, inside, outside)

    def test_kept_slices_follow_the_subset_order(self):
        rng = random.Random(92)
        for lang in LANGS:
            layout = world_layout(lang)
            every = [(y, rank_basis(y)) for y in subsets_of(lang)]
            assert list(kept_slices(layout, (1 << (1 << lang.bit_count())) - 1)) == every
            for _ in range(5):
                kept = rng.getrandbits(1 << lang.bit_count())
                assert list(kept_slices(layout, kept)) == [
                    s for s in every if kept >> world_index(s[0], lang) & 1]

    def test_masks_match_definitions_on_mostly_shared_pairs(self):
        rng = random.Random(93)
        for _ in range(150):
            for p, q, _kind in mostly_shared_pairs(rng):
                only1, only2, shared = split(p, q)
                lang = p.atoms | q.atoms
                layout = world_layout(lang)
                assert primed_failures(p.fields, layout) == worlds_where(
                    lang, lambda y: not all(primed(r, y) for r in p.rules))
                assert separating_worlds(
                    fields_of(only1), fields_of(only2), fields_of(shared), layout
                ) == worlds_where(
                    lang,
                    lambda y: all(primed(r, y) for r in shared)
                    and (all(primed(r, y) for r in only1) or all(primed(r, y) for r in only2))
                    and any(not r.ps & ~y and not r.ng & y for r in only1 + only2),
                )

    def test_pruned_worlds_never_separate(self):
        rng = random.Random(94)
        pruned = 0
        for _ in range(100):
            for p, q, _kind in mostly_shared_pairs(rng):
                only1, only2, shared = split(p, q)
                lang = p.atoms | q.atoms
                kept = separating_worlds(
                    fields_of(only1), fields_of(only2), fields_of(shared), world_layout(lang))
                for y in subsets_of(lang):
                    if kept >> world_index(y, lang) & 1:
                        continue
                    pruned += 1
                    for x in subsets_of(y):
                        pair = HTPair(x, y)
                        assert all(delta_holds(r, pair) for r in p.rules) == all(
                            delta_holds(r, pair) for r in q.rules), (p, q, pair)
        assert pruned > 1000

    def test_sparse_walks_match_pairwise_walk(self):
        # under 10% of the y survive here, most of them in the equivalent pairs
        rng = random.Random(95)
        worlds = kept = 0
        outcomes = set()
        for _ in range(12):
            for p, q in wide_shared_pairs(rng, 7):
                only1, only2, shared = split(p, q)
                lang = p.atoms | q.atoms
                worlds += 1 << lang.bit_count()
                kept += separating_worlds(
                    fields_of(only1), fields_of(only2), fields_of(shared), world_layout(lang)
                ).bit_count()
                got = strongly_equivalent(p, q)
                assert got == reference_se(p, q), (p, q)
                assert strongly_equivalent(q, p) == reference_se(q, p), (p, q)
                outcomes.add(got.equivalent)
        assert outcomes == {True, False}
        assert kept < worlds / 10

    def test_wide_equivalent_pair_stays_small(self):
        # p against p plus a weakened copy of one rule, 20 atoms
        rng = random.Random(96)
        p, q = next(wide_shared_pairs(rng, 20))
        assert (p.atoms | q.atoms).bit_count() == 20
        tracemalloc.start()
        try:
            assert strongly_equivalent(p, q).equivalent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"{peak / 2**20:.1f} MB"


def old_first_set(layout, mask):
    """The first set of a mask as the walk reads it, per-size masks and all."""
    return next(kept_slices(layout, mask))[0]


class TestFirstHereWorld:
    """The countermodel's x is the first set of the difference at its y,
    read off the mask without the walk's per-size masks."""

    def test_first_set_is_the_first_one_the_walk_reads(self):
        rng = random.Random(97)
        for lang in LANGS:
            layout = world_layout(lang)
            width = 1 << lang.bit_count()
            for kind in range(4):
                for _ in range(30):
                    if kind == 0:  # dense
                        mask = rng.getrandbits(width)
                    elif kind == 1:  # one set
                        mask = 1 << rng.randrange(width)
                    elif kind == 2:  # a few sets
                        mask = sum({1 << rng.randrange(width) for _ in range(rng.randint(1, 4))})
                    else:  # sparse
                        mask = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
                    if mask:
                        assert first_set(layout, mask) == old_first_set(layout, mask), (lang, mask)

    def test_countermodels_agree_with_the_walks_lookup(self, monkeypatch):
        rng = random.Random(98)
        pairs = []
        for _ in range(200):
            atom_count = rng.randint(1, 12)
            ids = sorted(rng.sample(range(30), atom_count))
            p = rename_program(random_program(rng, atom_count, 6), dict(enumerate(ids)))
            if not p.rules:
                continue
            i = rng.randrange(len(p.rules))
            q = Program(p.rules[:i] + (perturbed(rng, p.rules[i], ids),) + p.rules[i + 1:])
            pairs += [(p, q), (q, p)]
        got = [strongly_equivalent(p, q) for p, q in pairs]
        monkeypatch.setattr(oracle, "first_set", old_first_set)
        assert got == [strongly_equivalent(p, q) for p, q in pairs]
        xs = {v.countermodel.x.bit_count() for v in got if not v.equivalent}
        assert len([v for v in got if not v.equivalent]) > 150 and max(xs) >= 4

    def test_the_lookup_builds_no_per_size_masks(self, monkeypatch):
        # the pairs differ only at y = every atom; before, reading the first
        # x there built the masks of |x| = 11 atoms, unread
        sizes = []
        real = oracle._rank_masks

        def recording(size):
            sizes.append(size)
            return real(size)

        monkeypatch.setattr(oracle, "_rank_masks", recording)
        t = Symbols()
        body = ", ".join(f"b{i}" for i in range(1, 12))
        p1 = parse_program(f"h :- {body}.", t)
        p2 = parse_program(f"h :- {body}, not h.", t)
        verdict = strongly_equivalent(p1, p2)
        assert verdict.countermodel == HTPair(p1.atoms & ~t.mask("h"), p1.atoms)
        assert sizes == [12]
        # on random pairs, one set of masks per size the y walk reaches
        rng = random.Random(99)
        for _ in range(100):
            for p, q, _kind in mostly_shared_pairs(rng):
                sizes.clear()
                if not strongly_equivalent(p, q).equivalent:
                    assert sizes == sorted(set(sizes)), (p, q)
