"""Exhaustive rule-tuple enumeration and condition-vs-oracle verification.

The harness enumerates every tuple of rules over a small language, labels
each with the semantic oracle, and measures agreement with a candidate
syntactic condition.  Per-rule two-world evaluations are precomputed as
bitmasks over all 3^a valuation pairs, so the oracle verdict for a tuple
is a handful of mask ANDs; the condition is invoked as-is, keeping the
two routes independent.

The pairs are laid out over a base-3 index: bit i stands for the pair
in which atom a's digit of i is 0 when a is outside y, 1 when a is in y
only and 2 when a is in x.  The harness only ANDs and compares masks, so
any fixed layout of the pairs would do, and this one gives each atom's
masks in closed form, a repeating bit pattern.  A rule's mask is its
translation in closed form over four tables indexed by an atom set S
(the pairs where S is within x, misses x, is within y, misses y), each
entry one AND of a smaller entry and a per-atom mask; so a rule costs a
few big-int operations, not one `here_mask` per y.  The tests check the
masks against the pair-by-pair `delta_holds` of tests/reference.py.

The walk fixes every position but the last, then decides the whole row
of last rules at once: one list comprehension calls the condition on
each tuple of the row (in row order, one call per tuple, as a per-tuple
walk would make them) with the fixed rules unpacked once per row,
another ANDs and compares masks for the oracle, and the counts come
from the two lists of verdicts.  Where the side the last rule joins has
no other rule yet (the only side of 0,1,0, the right side of 0,1,1 and
0,2,1), its mask is all-ones and the oracle's verdict is whether the
rule's mask equals the other side's: that list is read from an index of
the row's positions per distinct mask.  Only a row where the lists
differ is walked tuple by tuple, to count its mismatches and record them
under the cap.

With modulo_iso the walk is orderly (Read 1978; McKay 1998): it visits
exactly the tuples that are their own `iso_canonical_form`, in enumeration
order, without computing that form.  A tuple is its own canonical form iff
it is lexicographically least in its orbit under all permutations of the
language's atoms: compressing the occurring atoms to the lowest ids can
only lower each mask, so no renaming beats the compressed minimum.  Give
each atom its type, its membership of hd, ps and ng of rule 1, then of
rule 2, and so on, compared in that order.  A tuple is least iff the types
never rise from an atom to the next: where atom i's type is below atom
i+1's, swapping the two lowers the first mask that tells them apart, and
every tuple whose types never rise is the same tuple.  So every prefix of
a least tuple is least, and a least prefix's stabilizer is the group of
permutations within each run of atoms whose types are tied.  The walk
carries that group as the bitmask of tied neighbours (bit i: atoms i and
i+1) and tries a rule only against it: a rule whose type rises across a
tied pair is skipped with its whole subtree, and the child keeps the ties
the rule does not break.  A full scan is the same walk with no ties.

Work can be split across processes by chunking the outermost rule index
into contiguous ranges; partial reports merge in range order, so results
are identical for any job count.
"""

from __future__ import annotations

import os
import time
from itertools import product
from operator import ne
from typing import Callable, Iterator, NamedTuple

from .errors import TooManyAtomsError
from .syntax import Rule, Symbols, format_rule, iso_canonical_form

ENUM_ATOM_LIMIT = 7

MISMATCH_CAP = 1000

Condition = Callable[..., bool]


class _TupleShapeFields(NamedTuple):
    k: int
    m: int
    n: int


class TupleShape(_TupleShapeFields):
    """Counts of shared / left-side / right-side rules in a k-m-n question."""

    __slots__ = ()

    def __new__(cls, k: int, m: int, n: int) -> TupleShape:
        if min(k, m, n) < 0 or k + m + n < 1:
            raise ValueError("shape needs nonnegative k, m, n with k+m+n >= 1")
        return tuple.__new__(cls, (k, m, n))

    @property
    def length(self) -> int:
        return self.k + self.m + self.n


class Mismatch(NamedTuple):
    rules: tuple[Rule, ...]
    oracle: bool
    condition: bool


class DiscoveryReport(NamedTuple):
    """Outcome of one exhaustive condition-vs-oracle run.

    The three counters and mismatch_count are always exact; the mismatch
    list itself is capped at MISMATCH_CAP entries.
    """

    shape: TupleShape
    atom_count: int
    total_tuples: int
    se_positive_count: int
    condition_positive_count: int
    mismatch_count: int
    mismatches: tuple[Mismatch, ...]
    elapsed_ms: float

    def to_json(self) -> dict:
        """The report with its rules written over `language_symbols`."""
        symbols = language_symbols(self.atom_count)
        texts: dict[Rule, str] = {}  # mismatches share most of their rules

        def text(r: Rule) -> str:
            t = texts.get(r)
            if t is None:
                t = texts[r] = format_rule(r, symbols)
            return t

        return {
            "shape": [self.shape.k, self.shape.m, self.shape.n],
            "atoms": self.atom_count,
            "total": self.total_tuples,
            "se_positive": self.se_positive_count,
            "cond_positive": self.condition_positive_count,
            "mismatches": [
                {
                    "tuple": [text(r) for r in mm.rules],
                    "oracle": mm.oracle,
                    "cond": mm.condition,
                }
                for mm in self.mismatches
            ],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def language_symbols(atom_count: int) -> Symbols:
    """Fresh frozen symbol table a1..aN for an enumeration language."""
    symbols = Symbols()
    for i in range(atom_count):
        symbols.intern(f"a{i + 1}")
    symbols.freeze()
    return symbols


def _check_atom_count(atom_count: int, max_atoms: int) -> None:
    if atom_count > max_atoms:
        raise TooManyAtomsError("rule enumeration", atom_count, max_atoms)


def enumerate_rules(
    atom_count: int, canonical_only: bool = False, max_atoms: int = ENUM_ATOM_LIMIT
) -> Iterator[Rule]:
    """Every rule over the first atom_count atoms except the all-empty one,
    ascending by (hd, ps, ng) read as one bitmask; optionally canonical
    rules only."""
    _check_atom_count(atom_count, max_atoms)
    space = 1 << atom_count
    if canonical_only:
        yield from _canonical_rules(space - 1)
        return
    for hd in range(space):
        for ps in range(space):
            for ng in range(space):
                if hd | ps | ng:
                    yield Rule(hd, ps, ng)


def _canonical_rules(full: int) -> Iterator[Rule]:
    """The 4^a - 1 rules with pairwise disjoint fields over the atoms of
    `full`, in `enumerate_rules` order: ps runs over the submasks of the
    atoms hd leaves, and ng over those hd and ps leave, each ascending."""
    # submasks[c]: the submasks of c, ascending; those of c holding its top
    # atom follow those of c without it, in the same order
    submasks = [[0]]
    for c in range(1, full + 1):
        top = 1 << c.bit_length() - 1
        below = submasks[c ^ top]
        submasks.append(below + [s | top for s in below])
    for hd in range(full + 1):
        for ps in submasks[full ^ hd]:
            ngs = submasks[full ^ hd ^ ps]
            for ng in ngs if hd | ps else ngs[1:]:
                yield Rule(hd, ps, ng)


def enumerate_tuples(
    shape: TupleShape,
    atom_count: int,
    canonical_only: bool = False,
    modulo_iso: bool = False,
    max_atoms: int = ENUM_ATOM_LIMIT,
) -> Iterator[tuple[Rule, ...]]:
    """Ordered tuples of length k+m+n of enumerated rules; with modulo_iso,
    only tuples that are their own isomorphism canonical form, one per
    renaming class."""
    rules = tuple(enumerate_rules(atom_count, canonical_only, max_atoms))
    for tup in product(rules, repeat=shape.length):
        if modulo_iso and iso_canonical_form(tup) != tup:
            continue
        yield tup


def ht_pair_masks(atom_count: int) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """The all-ones mask over the 3^a pairs of the enumeration language and
    four tables indexed by an atom set S: the pairs where S is within x,
    where S misses x, where S is within y and where S misses y.  Bit i
    stands for the pair in which atom a's base-3 digit of i is 0 outside
    y, 1 in y only and 2 in x: with w = 3^a, atom a is in x on the top w
    bits of every 3w-bit period and in y on its top 2w bits."""
    full = (1 << 3**atom_count) - 1
    in_x, in_y = [], []
    for a in range(atom_count):
        w = 3**a
        period = full // ((1 << 3 * w) - 1)  # bit 0 of every 3w-bit period
        in_x.append(((1 << w) - 1 << 2 * w) * period)
        in_y.append(((1 << 2 * w) - 1 << w) * period)
    tables = []
    for per_atom in (in_x, [full ^ m for m in in_x], in_y, [full ^ m for m in in_y]):
        table = [full]
        for m in per_atom:  # the sets holding atom a follow those that do not
            table += [t & m for t in table]
        tables.append(table)
    return full, *tables


def rule_mask(
    r: Rule, layout: tuple[int, list[int], list[int], list[int], list[int]]
) -> int:
    """Bitmask with one bit per (x, y) pair of the layout, set iff the
    rule's translation holds there.  A program's two-world models are the
    AND of its rules' masks, and two programs are strongly equivalent iff
    those ANDs are equal.

    The translation fails exactly where ng misses y and either ps is
    within x while hd misses x, or ps is within y while hd misses y."""
    full, ax, nx, ay, ny = layout
    return full ^ (ny[r.ng] & (ax[r.ps] & nx[r.hd] | ay[r.ps] & ny[r.hd]))


def _language_masks(
    atom_count: int, canonical_only: bool, max_atoms: int
) -> tuple[list[Rule], list[int], int]:
    """Enumerated rules, their masks, and the all-ones mask over 3^a pairs."""
    rules = list(enumerate_rules(atom_count, canonical_only, max_atoms))
    layout = ht_pair_masks(atom_count)
    masks = [rule_mask(r, layout) for r in rules]
    return rules, masks, layout[0]


def _all_ties(atom_count: int) -> int:
    """The tie mask of the empty prefix: every pair of neighbouring atoms."""
    return (1 << max(atom_count - 1, 0)) - 1


def _order_masks(r: Rule, ties: int) -> tuple[int, int]:
    """Over the neighbour pairs in `ties`, the pairs (i, i+1) where atom
    i's type in the rule is below atom i+1's, and those where the two are
    equal.  A type is membership of hd, then ps, then ng."""
    hd, ps, ng = r.hd, r.ps, r.ng
    below = ties & hd >> 1 & ~hd
    ties &= ~(hd >> 1 ^ hd)
    below |= ties & ps >> 1 & ~ps
    ties &= ~(ps >> 1 ^ ps)
    below |= ties & ng >> 1 & ~ng
    return below, ties & ~(ng >> 1 ^ ng)


def _order_table(rules: list[Rule], ties: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every rule's two `_order_masks` against the empty prefix's tie mask
    `ties`, as a column each; empty for a full scan (ties 0)."""
    if not ties:
        return (), ()
    below, tied = zip(*(_order_masks(r, ties) for r in rules))
    return below, tied


def _stabilizer_order(ties: int) -> int:
    """Number of atom permutations that map each run of tied atoms to
    itself: the product of the runs' factorials."""
    order = run = 1
    while ties:
        run = run + 1 if ties & 1 else 1
        order *= run
        ties >>= 1
    return order


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_ranges(weights: list[float], parts: int) -> list[tuple[int, int]]:
    """At most `parts` contiguous ranges of the outermost rule index, in
    index order, of about equal total weight."""
    parts = max(1, parts)
    total = sum(weights)
    bounds = [0]
    done = 0.0
    for i, weight in enumerate(weights):
        done += weight
        if len(bounds) < parts and done * parts >= total * len(bounds):
            bounds.append(i + 1)
    bounds.append(len(weights))
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


class _Row:
    """The rules a last position runs over and their masks, with the
    verdicts `mask == target` for the whole row.  From a row's second
    request on, those are set from an index of the positions of each
    distinct mask, into a copy of one all-False list that is itself the
    answer for a target that is no rule's mask.  A row asked once, such as
    the only row of a one-rule shape, is compared directly: building the
    index costs about two comparisons of the row."""

    __slots__ = ("rules", "masks", "_asked", "_positions", "_none")

    def __init__(self, rules: list[Rule], masks: list[int]) -> None:
        self.rules = rules
        self.masks = masks
        self._asked = False
        self._positions: dict[int, list[int]] | None = None
        self._none: list[bool] = []

    def equal(self, target: int) -> list[bool]:
        if not self._asked:
            self._asked = True
            return [mi == target for mi in self.masks]
        if self._positions is None:
            self._positions = {}
            for i, mi in enumerate(self.masks):
                self._positions.setdefault(mi, []).append(i)
            self._none = [False] * len(self.masks)
        positions = self._positions.get(target)
        if positions is None:
            return self._none
        verdicts = self._none.copy()
        for i in positions:
            verdicts[i] = True
        return verdicts


def _scan_range(
    shape: tuple[int, int, int],
    rules: list[Rule],
    masks: list[int],
    condition: Condition,
    full: int,
    start: int,
    stop: int,
    ties: int,
    order: tuple[tuple[int, ...], tuple[int, ...]],
    cap: int,
) -> tuple[int, int, int, int, list[Mismatch]]:
    """Scan all tuples whose outermost index lies in [start, stop); with
    the empty prefix's tie mask `ties`, only those least in their orbit
    (ties 0 scans them all).  `order` is `_order_table(rules, ties)`."""
    k, m, n = shape
    tlen = k + m + n
    last = tlen - 1
    last_in_a = last < k + m
    last_in_b = last < k or last >= k + m
    count = len(rules)
    total = se = cond_pos = mismatch_total = 0
    mismatches: list[Mismatch] = []
    below, tied = order
    # tie mask -> indices of the rules that keep a prefix with those ties
    # least; tie masks recur across prefixes, so each is matched once
    kept_for: dict[int, list[int]] = {}
    # tie mask -> those rules and their masks, as a row of the last position
    row_for: dict[int, _Row] = {}
    full_row = _Row(rules, masks)

    def decide(prefix: tuple[Rule, ...], ma: int, mb: int, last_row: _Row) -> None:
        """Label every tuple prefix + (rule,) of the row by the oracle and
        the condition; the condition sees them in row order."""
        nonlocal total, se, cond_pos, mismatch_total
        row, row_masks = last_row.rules, last_row.masks
        if not prefix:
            conds = [True if condition(r) else False for r in row]
        elif len(prefix) == 1:
            (p0,) = prefix
            conds = [True if condition(p0, r) else False for r in row]
        elif len(prefix) == 2:
            p0, p1 = prefix
            conds = [True if condition(p0, p1, r) else False for r in row]
        else:
            conds = [True if condition(*prefix, r) else False for r in row]
        # where the side the last rule joins is still all-ones, the verdict
        # is whether the rule's mask equals the other side's
        if last_in_a and last_in_b:
            oracle = [ma & mi == mb & mi for mi in row_masks]
        elif last_in_a:
            oracle = last_row.equal(mb) if ma == full else [ma & mi == mb for mi in row_masks]
        else:
            oracle = last_row.equal(ma) if mb == full else [ma == mb & mi for mi in row_masks]
        total += len(row)
        se += oracle.count(True)
        cond_pos += conds.count(True)
        if oracle == conds:
            return
        mismatch_total += sum(map(ne, oracle, conds))
        room = cap - len(mismatches)
        if room <= 0:
            return
        for rule, o, c in zip(row, oracle, conds):
            if o != c:
                mismatches.append(Mismatch(prefix + (rule,), o, c))
                room -= 1
                if not room:
                    return

    def walk(depth: int, ma: int, mb: int, prefix: tuple[Rule, ...], ties: int) -> None:
        if ties:
            if depth == 0:
                rng = [i for i in range(start, stop) if not below[i] & ties]
            else:
                rng = kept_for.get(ties)
                if rng is None:
                    rng = kept_for[ties] = [i for i, b in enumerate(below) if not b & ties]
        else:
            rng = range(start, stop) if depth == 0 else range(count)
        if depth == last:
            if depth == 0:  # this range's own row
                row = _Row([rules[i] for i in rng], [masks[i] for i in rng])
            elif not ties:
                row = full_row
            else:
                row = row_for.get(ties)
                if row is None:
                    row = row_for[ties] = _Row([rules[i] for i in rng], [masks[i] for i in rng])
            decide(prefix, ma, mb, row)
            return
        in_a = depth < k + m
        in_b = depth < k or depth >= k + m
        for i in rng:
            mi = masks[i]
            walk(
                depth + 1,
                ma & mi if in_a else ma,
                mb & mi if in_b else mb,
                prefix + (rules[i],),
                ties and ties & tied[i],
            )

    walk(0, full, full, (), ties)
    return total, se, cond_pos, mismatch_total, mismatches


def test_conjecture(
    shape: TupleShape,
    atom_count: int,
    condition: Condition,
    canonical_only: bool = False,
    modulo_iso: bool = False,
    job_count: int = 1,
    max_atoms: int = ENUM_ATOM_LIMIT,
) -> DiscoveryReport:
    """Exhaustively compare `condition` with the oracle on every tuple of
    the given shape; deterministic for any job_count.

    With job_count > 1 the condition must be picklable (a module-level
    function); each worker owns a contiguous range of the outermost index.
    No more workers are started than this process has CPUs to run on.
    """
    started = time.perf_counter()
    job_count = min(job_count, _usable_cpus())
    rules, masks, full = _language_masks(atom_count, canonical_only, max_atoms)
    ties = _all_ties(atom_count) if modulo_iso else 0
    order = _order_table(rules, ties)
    weights = [1.0] * len(rules)
    if ties and job_count > 1:
        # A least first rule with stabilizer S heads about 1/|S| of a full
        # subtree: balance the ranges by that.
        weights = [
            0.0 if below else 1.0 / _stabilizer_order(tied)
            for below, tied in zip(*order)
        ]
    ranges = _split_ranges(weights, job_count)
    shape_tuple = (shape.k, shape.m, shape.n)
    args = [
        (shape_tuple, rules, masks, condition, full, a, b, ties, order, MISMATCH_CAP)
        for a, b in ranges
    ]
    if job_count > 1 and len(args) > 1:
        # imported only here: loading multiprocessing costs about 1 MB of
        # memory, which no other path of the package needs
        from multiprocessing import Pool

        with Pool(processes=len(args)) as pool:
            parts = pool.starmap(_scan_range, args)
    else:
        parts = [_scan_range(*a) for a in args]

    total = se = cond_pos = mismatch_total = 0
    mismatches: list[Mismatch] = []
    for p_total, p_se, p_cond, p_mm_total, p_mms in parts:
        total += p_total
        se += p_se
        cond_pos += p_cond
        mismatch_total += p_mm_total
        if len(mismatches) < MISMATCH_CAP:
            mismatches.extend(p_mms[: MISMATCH_CAP - len(mismatches)])
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return DiscoveryReport(
        shape=shape,
        atom_count=atom_count,
        total_tuples=total,
        se_positive_count=se,
        condition_positive_count=cond_pos,
        mismatch_count=mismatch_total,
        mismatches=tuple(mismatches),
        elapsed_ms=elapsed_ms,
    )


test_conjecture.__test__ = False  # keep pytest from collecting the API name


def _never(*_rules: Rule) -> bool:
    return False


def discover_positive_tuples(
    shape: TupleShape,
    atom_count: int,
    canonical_only: bool = False,
    modulo_iso: bool = False,
    max_atoms: int = ENUM_ATOM_LIMIT,
) -> Iterator[tuple[Rule, ...]]:
    """Yield exactly the tuples whose oracle verdict is positive, in
    enumeration order: the raw material for conjecturing new conditions.

    One outermost rule index is scanned at a time, so the first tuples
    come before the rest are built; ranges taken in order give the
    enumeration order, as for `--jobs`."""
    rules, masks, full = _language_masks(atom_count, canonical_only, max_atoms)
    ties = _all_ties(atom_count) if modulo_iso else 0
    order = _order_table(rules, ties)
    shape_tuple = (shape.k, shape.m, shape.n)
    # Against a condition that never holds, the mismatches are exactly the
    # oracle-positive tuples; the cap is the range's tuple count, so none
    # is cut.
    cap = len(rules) ** (shape.length - 1)
    for start in range(len(rules)):
        *_counts, positives = _scan_range(
            shape_tuple, rules, masks, _never, full, start, start + 1, ties, order, cap
        )
        for mm in positives:
            yield mm.rules
