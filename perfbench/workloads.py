"""Seeded inputs for the benchmark's two workloads.

Every op is generated from ``random.Random(f"{seed}/{op_id}")``, so an op's
input depends only on the seed and its id; the tiny scale used by the smoke
test is a subset of the full deck with identical ops.  Programs are built
here as (hd, ps, ng) atom-mask triples over atoms p0..p{n-1} and handed to
the program under test only as text files.

Workload cells have fixed sizes (atom count, rule count, op count): the seed
changes program contents, not how much work a deck holds, so figures from
different seeds are comparable.

The ops come in four groups: decide (check-se and answersets), simplify,
verify (the full-scan harness) and verify-iso (the harness with
--modulo-iso).  The workload "programs" runs the first two groups in one
deck and "verify" the last two; each group's figures are still printed on
their own.  Two workloads rather than four because of the host the
benchmark was tuned on, a 2-vCPU share of a busy machine whose speed
drifts from run to run (see run.py).  When the time for all runs together
is fixed, two workloads get runs twice as long as four would, and half as
many figures can be thrown by an unlucky run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("programs", "verify")

# criterion-10 rule distribution: field weights for absent, head, positive
# body, negated body, plus a 15% chance of one extra overlapping atom.
DENSE_WEIGHTS = ((0, 45), (1, 20), (2, 20), (3, 15))


@dataclass
class Op:
    """One CLI invocation of the deck."""

    id: str
    command: str  # check-se | answersets | simplify | verify
    argv: list[str]
    atoms: int
    tiny: bool = False  # kept in the smoke test's tiny deck
    expect: dict = field(default_factory=dict)  # facts the checks rely on
    files: dict[str, str] = field(default_factory=dict)  # path -> text to write
    trace: str | None = None  # simplify --trace output path
    full_tuples: int = 0  # verify: rule_count ** length, the space the op decides


# --- programs as mask triples ------------------------------------------------


def name(atom: int) -> str:
    return f"p{atom}"


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def rule_text(rule: tuple[int, int, int]) -> str:
    hd, ps, ng = rule
    head = "; ".join(name(i) for i in bits(hd))
    body = ", ".join([name(i) for i in bits(ps)] + ["not " + name(i) for i in bits(ng)])
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    return f":- {body}."


def program_text(rules) -> str:
    return "".join(rule_text(r) + "\n" for r in rules)


def holds(rules, x: int, y: int) -> bool:
    """Whether every rule's two-world translation holds on (x, y), x within y."""
    for hd, ps, ng in rules:
        if ng & y:
            continue
        if not ps & ~x and not hd & x:
            return False
        if not ps & ~y and not hd & y:
            return False
    return True


def random_pair(rng: random.Random, n: int) -> tuple[int, int]:
    x = y = 0
    for a in range(n):
        digit = rng.randrange(3)
        if digit:
            y |= 1 << a
        if digit == 2:
            x |= 1 << a
    return x, y


def separable(rng: random.Random, p, q, n: int, samples: int = 400) -> bool:
    """True once a sampled pair separates p and q, which proves that they
    are not strongly equivalent."""
    for _ in range(samples):
        x, y = random_pair(rng, n)
        if holds(p, x, y) != holds(q, x, y):
            return True
    return False


def sparse_rule(rng: random.Random, n: int, min_literals: int = 2) -> tuple[int, int, int]:
    """A canonical rule with min_literals to 4 literals over distinct atoms."""
    fields = [0, 0, 0]
    for a in rng.sample(range(n), rng.randint(min_literals, 4)):
        fields[rng.choices((0, 1, 2), (4, 4, 2))[0]] |= 1 << a
    return tuple(fields)


def sparse_program(rng: random.Random, n: int, m: int,
                   min_literals: int = 2) -> list[tuple[int, int, int]]:
    """m distinct canonical rules that mention every one of the n atoms."""
    rules: list[tuple[int, int, int]] = []
    while len(rules) < m:
        r = sparse_rule(rng, n, min_literals)
        if r not in rules:
            rules.append(r)
    used = 0
    for hd, ps, ng in rules:
        used |= hd | ps | ng
    for a in range(n):
        if not used >> a & 1:
            i = rng.randrange(m)
            hd, ps, ng = rules[i]
            rules[i] = (hd | 1 << a, ps, ng) if rng.random() < 0.5 else (hd, ps | 1 << a, ng)
    return list(dict.fromkeys(rules))


def dense_program(rng: random.Random, n: int, max_rules: int) -> list[tuple[int, int, int]]:
    """Criterion-10 distribution: 0..max_rules rules, each atom placed by
    DENSE_WEIGHTS, sometimes with one overlapping (non-canonical) atom."""
    where, weights = zip(*DENSE_WEIGHTS)
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        fields = [0, 0, 0, 0]
        for a in range(n):
            fields[rng.choices(where, weights)[0]] |= 1 << a
        if rng.random() < 0.15:
            fields[1 + rng.randrange(3)] |= 1 << rng.randrange(n)
        rules.append(tuple(fields[1:]))
    return list(dict.fromkeys(rules))


def weakened(rng: random.Random, rule, n: int):
    """The rule with one more body literal: deletable given the original
    (cond_1_1_0), or None when the rule already mentions every atom."""
    hd, ps, ng = rule
    free = [a for a in range(n) if not (hd | ps | ng) >> a & 1]
    if not free:
        return None
    a = 1 << rng.choice(free)
    return (hd, ps | a, ng) if rng.random() < 0.6 else (hd, ps, ng | a)


def tautology(rng: random.Random, n: int):
    """A rule whose positive body meets its head: deletable on its own
    (cond_0_1_0)."""
    a, b = rng.sample(range(n), 2)
    return (1 << a, 1 << a | 1 << b, 0) if rng.random() < 0.5 else (1 << a | 1 << b, 1 << a, 0)


def equivalent_variant(rng: random.Random, rules, n: int):
    """A program strongly equivalent to `rules` by construction: one or two
    of a weakened copy of a rule, a tautology, or a head atom added from
    the rule's own negated body (removed again by T7)."""
    q = list(rules)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 2:
            with_ng = [i for i, r in enumerate(q) if r[2]]
            if with_ng:
                i = rng.choice(with_ng)
                hd, ps, ng = q[i]
                q[i] = (hd | 1 << rng.choice(bits(ng)), ps, ng)
                continue
            kind = 0
        extra = weakened(rng, rng.choice(rules), n) if kind == 0 else None
        q.insert(rng.randrange(len(q) + 1), extra or tautology(rng, n))
    return list(dict.fromkeys(q))


def perturbed_variant(rng: random.Random, rules, n: int):
    """`rules` with one atom moved within one rule, redrawn until a sampled
    pair proves the result is not strongly equivalent."""
    while True:
        q = list(rules)
        i = rng.randrange(len(q))
        a = 1 << rng.randrange(n)
        fields = [f & ~a for f in q[i]]
        current = next((k for k in range(3) if q[i][k] & a), 3)
        target = rng.choice([k for k in range(4) if k != current])
        if target < 3:
            fields[target] |= a
        q[i] = tuple(fields)
        if separable(rng, rules, q, n):
            return list(dict.fromkeys(q))


def resolvent(r1, r2):
    """r3 implied by r1 and r2 jointly through an atom in ps(r1) and hd(r2)
    (cond_2_1_0's witness clause), or None when the result is not canonical."""
    hd1, ps1, ng1 = r1
    hd2, ps2, ng2 = r2
    links = ps1 & hd2
    if not links:
        return None
    b = links & -links
    r3 = (hd1 | hd2 & ~b, ps1 & ~b | ps2, ng1 | ng2)
    hd, ps, ng = r3
    if hd & ps or hd & ng or ps & ng or r3 in (r1, r2):
        return None
    return r3


def redundant_program(rng: random.Random, n: int, base: int, extra: int):
    """`base` random rules plus `extra` rules the simplifier should remove:
    weakened copies (T6), resolvents of two rules (T8) and tautologies (T5);
    some base rules also get a head atom from their negated body (T7)."""
    rules = sparse_program(rng, n, base, min_literals=4)
    out = list(rules)
    while len(out) < base + extra:
        roll = rng.random()
        if roll < 0.5:
            r = weakened(rng, rng.choice(rules), n)
        elif roll < 0.85:
            r = resolvent(rng.choice(rules), rng.choice(rules))
        else:
            r = tautology(rng, n)
        if r is not None and r not in out:
            out.insert(rng.randrange(len(out) + 1), r)
    for i, (hd, ps, ng) in enumerate(out):
        if ng and rng.random() < 0.1:
            out[i] = (hd | 1 << rng.choice(bits(ng)), ps, ng)
    return list(dict.fromkeys(out))


def atom_count(*programs) -> int:
    used = 0
    for rules in programs:
        for hd, ps, ng in rules:
            used |= hd | ps | ng
    return used.bit_count()


# --- decks --------------------------------------------------------------------


def _rng(seed: int, op_id: str) -> random.Random:
    return random.Random(f"{seed}/{op_id}")


def decide_ops(seed: int, work: str) -> list[Op]:
    """check-se on seeded pairs of 4-9 atoms, half equivalent by
    construction, and answersets on both sides of equivalent pairs of up to
    11 atoms.  Each program has 2n rules.

    The programs deck is laid out so its order statistics fall inside
    groups of similar ops: the many tiny pairs (4-6 atoms) share the median
    with the small simplify programs, so it shows per-call overhead;
    twelve 8-atom equivalent pairs hold the tail, which is oracle-bound; a
    9-atom pair and an 11-atom answer-set pair sit beyond it.  Perturbed
    pairs stop at 7 atoms: their first countermodel lies anywhere in the
    first half of the walk, so larger ones would make the deck's cost depend
    on the seed.  No op takes much over 0.05 s (see VERIFY_OPS): a 10-atom
    equivalent pair takes 0.2 s, and answer sets over 12 atoms 0.08 s.
    """
    ops: list[Op] = []
    equivalent_cells = {4: 20, 5: 20, 6: 6, 7: 4, 8: 12, 9: 1}
    perturbed_cells = {4: 16, 5: 16, 6: 16, 7: 12}
    answer_only = (11,)  # one equivalent pair, answersets only

    def pair(op_id: str, n: int, equivalent: bool):
        rng = _rng(seed, op_id)
        p = sparse_program(rng, n, 2 * n)
        q = equivalent_variant(rng, p, n) if equivalent else perturbed_variant(rng, p, n)
        a, b = f"{work}/{op_id}.a.lp", f"{work}/{op_id}.b.lp"
        return p, q, {a: program_text(p), b: program_text(q)}, a, b

    def answersets(op_id, n, tiny, files, a, b):
        for side, path in (("a", a), ("b", b)):
            ops.append(Op(f"as-{op_id}{side}", "answersets", ["answersets", path, "--json"],
                          n, tiny, {"pair": op_id}, files if side == "a" else {}))

    for equivalent, cells in ((True, equivalent_cells), (False, perturbed_cells)):
        for n, count in cells.items():
            for i in range(count):
                op_id = f"se-{'eq' if equivalent else 'ne'}-n{n:02d}-{i}"
                p, q, files, a, b = pair(op_id, n, equivalent)
                tiny = i == 0 and n <= 6
                ops.append(Op(op_id, "check-se", ["check-se", a, b, "--json"],
                              atom_count(p, q), tiny, {"equivalent": equivalent,
                              "programs": (p, q)}, files))
                if equivalent and i == 0:
                    # answer sets of both sides, which must agree
                    answersets(op_id, n, tiny, {}, a, b)
    for n in answer_only:
        op_id = f"eq-n{n:02d}"
        _p, _q, files, a, b = pair(op_id, n, True)
        answersets(op_id, n, False, files, a, b)
    return ops


def simplify_ops(seed: int, work: str) -> list[Op]:
    """Many small criterion-10 programs (5 atoms, at most 6 rules) with
    --verify, where per-call overhead and the oracle re-check count; and
    large programs over 14 atoms with --trace: random ones (20 rules) are
    bound by the triple scan, redundancy-heavy ones (14 rules plus 14
    redundant ones) by the restart after each deletion.

    A large program's cost doubles with every deletion the seed happens to
    allow.  Rules of exactly four literals rarely make one another redundant
    by chance, and the deck holds 24 large programs rather than a dozen, so
    its cost is nearly the same for every seed.  The large programs are
    sized to 0.01-0.02 s each (see VERIFY_OPS); with 30 random rules they
    take 0.035 s.  The small programs share the programs deck's median with
    the tiny check-se pairs; the large ones sit just below its tail.
    """
    ops: list[Op] = []
    for i in range(100):
        op_id = f"si-small-{i:03d}"
        rules = dense_program(_rng(seed, op_id), 5, 6)
        path = f"{work}/{op_id}.lp"
        ops.append(Op(op_id, "simplify", ["simplify", path, "--verify", "--json"],
                      atom_count(rules), i < 3, {"verify": True, "rules": len(rules)},
                      {path: program_text(rules)}))
    for i in range(12):
        op_id = f"si-rand-{i:02d}"
        rules = sparse_program(_rng(seed, op_id), 14, 20, min_literals=4)
        ops.append(_large_simplify(op_id, work, rules, i == 0))
        op_id = f"si-red-{i:02d}"
        rules = redundant_program(_rng(seed, op_id), 14, 14, 14)
        ops.append(_large_simplify(op_id, work, rules, i == 0))
    return ops


def _large_simplify(op_id: str, work: str, rules, tiny: bool) -> Op:
    path, trace = f"{work}/{op_id}.lp", f"{work}/{op_id}.trace.jsonl"
    return Op(op_id, "simplify", ["simplify", path, "--trace", trace, "--json"],
              atom_count(rules), tiny, {"verify": False, "rules": len(rules)},
              {path: program_text(rules)}, trace)


# (condition, shape, atoms, canonical): criterion 4-7 shapes scaled down so
# that no op takes much over 0.03 s, and every op runs often enough in a run
# for its latency to rest on many samples spread over the run: with fewer
# samples, 0.1 s ops moved by 15-30% between runs where 1 ms ops moved by
# 5-10%.  The largest ops scan the 65025
# tuples of a two-rule shape over 4 atoms' canonical rules; those over 3
# atoms' 511 rules (261121 tuples, 0.1 s) and the canonical three-rule
# shapes over 3 atoms (0.35 s) are left out.  The 1- and 2-atom runs are
# dominated by per-call cost (argument parsing, rule enumeration, mask
# set-up); they also give the deck enough ops for a tail with ten ops
# beyond it.  s_implies over non-canonical rules drives the
# mismatch-recording path.
VERIFY_OPS = [
    ("cond_0_1_0", "0,1,0", 2, False),
    ("cond_0_1_0", "0,1,0", 3, False),
    ("cond_0_1_0", "0,1,0", 2, True),
    ("cond_0_1_0", "0,1,0", 3, True),
    ("cond_0_1_0", "0,1,0", 4, True),
    ("cond_1_1_0", "1,1,0", 1, False),
    ("cond_1_1_0", "1,1,0", 2, False),
    ("cond_1_1_0", "1,1,0", 1, True),
    ("cond_1_1_0", "1,1,0", 2, True),
    ("cond_1_1_0", "1,1,0", 3, True),
    ("cond_1_1_0", "1,1,0", 4, True),
    ("s_implies", "1,1,0", 1, False),
    ("s_implies", "1,1,0", 2, False),
    ("s_implies", "1,1,0", 2, True),
    ("s_implies", "1,1,0", 3, True),
    ("s_implies", "1,1,0", 4, True),
    ("cond_0_1_1", "0,1,1", 1, False),
    ("cond_0_1_1", "0,1,1", 2, False),
    ("cond_0_1_1", "0,1,1", 1, True),
    ("cond_0_1_1", "0,1,1", 2, True),
    ("cond_0_1_1", "0,1,1", 3, True),
    ("cond_0_1_1", "0,1,1", 4, True),
    ("cond_2_1_0", "2,1,0", 1, True),
    ("cond_2_1_0", "2,1,0", 2, True),
    ("cond_0_2_1", "0,2,1", 1, True),
    ("cond_0_2_1", "0,2,1", 2, True),
    ("cond_0_2_2", "0,2,2", 1, True),
]

# The same kinds with --modulo-iso, where iso_canonical_form costs about
# 100x the plain scan per tuple, so the sizes are coarse: below 0.02 s come
# only the 1- and 2-atom canonical runs and 0,1,0 up to 4 atoms, and the
# next step up is 0.06-0.08 s.  One op of that step, canonical 2,1,0 over 2
# atoms, gives the iso path a walk of its own; with it the iso ops take
# about half of the verify deck's time, so that neither an iso change nor a
# full-scan change is hidden by the other.  The two-rule shapes over 2
# atoms' 63 rules and the three-rule ones over 2 atoms' canonical rules
# (0.06-0.08 s), the canonical two-rule shapes over 3 atoms (0.12 s), 0,1,0
# over 5 atoms' canonical rules (0.25 s) or 4 atoms' rules (0.35 s) and
# canonical 0,2,2 over 2 atoms (0.8-1.6 s) are left out.
VERIFY_ISO_OPS = [
    ("cond_0_1_0", "0,1,0", 1, False),
    ("cond_0_1_0", "0,1,0", 2, False),
    ("cond_0_1_0", "0,1,0", 3, False),
    ("cond_0_1_0", "0,1,0", 1, True),
    ("cond_0_1_0", "0,1,0", 2, True),
    ("cond_0_1_0", "0,1,0", 3, True),
    ("cond_0_1_0", "0,1,0", 4, True),
    ("cond_1_1_0", "1,1,0", 1, False),
    ("cond_1_1_0", "1,1,0", 1, True),
    ("cond_1_1_0", "1,1,0", 2, True),
    ("s_implies", "1,1,0", 1, False),
    ("s_implies", "1,1,0", 1, True),
    ("s_implies", "1,1,0", 2, True),
    ("cond_0_1_1", "0,1,1", 1, False),
    ("cond_0_1_1", "0,1,1", 1, True),
    ("cond_0_1_1", "0,1,1", 2, True),
    ("cond_2_1_0", "2,1,0", 1, True),
    ("cond_2_1_0", "2,1,0", 2, True),
    ("cond_0_2_1", "0,2,1", 1, True),
    ("cond_0_2_2", "0,2,2", 1, True),
]


def verify_ops(table, iso: bool) -> list[Op]:
    """Harness runs over a fixed table; the seed only orders the deck.
    `--jobs` is appended when the op runs."""
    ops = []
    for condition, shape, atoms, canonical in table:
        op_id = f"vf-{condition}-a{atoms}{'-c' if canonical else ''}{'-iso' if iso else ''}"
        argv = ["verify", "--shape", shape, "--atoms", str(atoms), "--condition", condition,
                "--json"]
        if canonical:
            argv.append("--canonical")
        if iso:
            argv.append("--modulo-iso")
        rule_count = (4 if canonical else 8) ** atoms - 1
        length = sum(int(part) for part in shape.split(","))
        ops.append(Op(op_id, "verify", argv, atoms, rule_count ** length <= 5000,
                      {"exact": condition != "s_implies", "iso": iso},
                      full_tuples=rule_count ** length))
    return ops


def build(workload: str, seed: int, work: str, tiny: bool) -> list[Op]:
    """The deck for a workload, in the seed's order."""
    if workload == "programs":
        ops = decide_ops(seed, work) + simplify_ops(seed, work)
    else:
        ops = verify_ops(VERIFY_OPS, iso=False) + verify_ops(VERIFY_ISO_OPS, iso=True)
    if tiny:
        ops = [op for op in ops if op.tiny]
    random.Random(f"{seed}/order").shuffle(ops)
    return ops


def subsets_in_order(lang_bits: list[int]):
    """Submasks of the given positions, by size then position combination:
    the order the oracle walks y and x in."""
    for size in range(len(lang_bits) + 1):
        for combo in combinations(lang_bits, size):
            mask = 0
            for b in combo:
                mask |= 1 << b
            yield mask
