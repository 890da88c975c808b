"""Exhaustive rule-tuple enumeration and condition-vs-oracle verification.

The harness enumerates every tuple of rules over a small language, labels
each with the semantic oracle, and measures agreement with a candidate
syntactic condition.  Per-rule two-world evaluations are precomputed as
bitmasks over all 3^a valuation pairs, so the oracle verdict for a tuple
is a handful of mask ANDs; the condition decides by set algebra over the
rules' fields, keeping the two routes independent.

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
of last rules at once, bit-sliced (Biham 1997): the verdicts on a row
are one int, bit i for the row's i-th rule, for the oracle and for the
condition alike.  A registered predicate is decided by one call of its
row form (`conditions.ROW_FORMS`, looked up by the predicate itself) on
the fixed rules and the row's `SlicedRow`.  Any other callable, a user's
condition or a wrapper around a registered one, is called once per tuple
of the row, in row order, as a per-tuple walk would call it, and its
verdicts are packed into an int.  On the oracle's side, a rule mi joins
one side or both: ma & mi == mb holds iff mb is within ma and mi holds
at every pair of mb and at none of ma ^ mb, which the row reads off the
transpose of its masks through per-group lookup tables.  Where the side
the last rule joins has no other rule yet (the only side of 0,1,0, the
right side of 0,1,1 and 0,2,1), the verdict is whether the rule's mask
equals the other side's, read from the positions of each distinct mask.
The counts are bit counts, and only the bits of oracle ^ condition are
walked, from the low bit, to record mismatches under the cap.  A scan
builds one row, of every rule, and keeps what its reads have built; a
tie mask or a range keeps some of its rules, and their bits, one int
per tie mask, mask both verdicts.

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
from itertools import product, starmap
from typing import Callable, Iterator, NamedTuple

from .conditions import ROW_FORMS, SLICED_ATOMS, Fields, RowForm, SlicedRow
from .errors import TableBudgetError, TooManyAtomsError
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
        # mismatches share most of their rules, the very objects; keyed by
        # id, since Rule's own hash is Python code
        texts: dict[int, str] = {}

        def text(r: Rule) -> str:
            t = texts.get(id(r))
            if t is None:
                t = texts[id(r)] = format_rule(r, symbols)
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


# The memory budget of a scan, in bits: 2^32 bits, 512 MiB, in each
# process.  Of the runs the default limits admit, it refuses only those
# without --canonical of 0,1,0 over 7 atoms and, with --modulo-iso, of
# 1,1,0 over 6.
TABLE_BITS = 1 << 32


def _int_bits(bits: int) -> int:
    """The memory an int of so many bits takes in a list, in bits: a
    4-byte digit per 30 bits, a 24-byte header, an 8-byte slot and up to
    16 bytes of allocator rounding."""
    return 32 * -(-bits // 30) + 8 * 48


def _table_bits(
    shape: TupleShape, atom_count: int, canonical_only: bool, modulo_iso: bool
) -> int:
    """A bound on the memory, in bits, of what a scan keeps: the rules,
    their fields and masks, and the one `_Row` of the language, with its
    columns and set tables and either the index of its masks, where the
    last rule is alone on its side, or their transpose (while built, the
    three parts of each pair too) and lookup tables; with modulo_iso, the
    rules kept for each tie mask, as indices and as bits.  The
    mismatches a scan records are not counted."""
    rule_count = (4 if canonical_only else 8) ** atom_count - 1
    pairs = 3**atom_count
    row_int = _int_bits(rule_count)
    # a rule: its Rule and fields tuple, 64 bytes each, two slots, its mask
    bits = rule_count * (8 * 144 + _int_bits(pairs))
    bits += (4 * atom_count + 1 + (8 << atom_count)) * row_int
    if shape.k == 0 and (shape.n == 1 or shape.n == 0 and shape.m == 1):
        bits += rule_count * 8 * 128  # a dict entry and a list per mask
    else:
        group = _group_size(atom_count)
        bits += (4 * pairs + (2 * -(-pairs // group) << group)) * row_int
    if modulo_iso:  # an index past 256 is an int of its own, 32 bytes
        bits += (1 << max(atom_count - 1, 0)) * (rule_count * 8 * 40 + row_int)
    return bits


def _check_table_bits(
    shape: TupleShape, atom_count: int, canonical_only: bool, modulo_iso: bool, max_atoms: int
) -> None:
    """Refuse, with TableBudgetError, a scan whose tables pass TABLE_BITS,
    and, with TooManyAtomsError, one over more atoms than a `SlicedRow`
    takes; the atom limit is checked first."""
    _check_atom_count(atom_count, max_atoms)
    bits = _table_bits(shape, atom_count, canonical_only, modulo_iso)
    if bits > TABLE_BITS:
        raise TableBudgetError("rule-tuple scan", atom_count, bits, TABLE_BITS)
    if atom_count > SLICED_ATOMS:
        raise TooManyAtomsError("rule-tuple scan", atom_count, SLICED_ATOMS)


def enumerate_rules(
    atom_count: int, canonical_only: bool = False, max_atoms: int = ENUM_ATOM_LIMIT
) -> Iterator[Rule]:
    """Every rule over the first atom_count atoms except the all-empty one,
    ascending by (hd, ps, ng) read as one bitmask; optionally canonical
    rules only."""
    _check_atom_count(atom_count, max_atoms)
    return starmap(Rule, _rule_fields(atom_count, canonical_only))


def _rule_fields(atom_count: int, canonical_only: bool) -> Iterator[Fields]:
    """The (hd, ps, ng) of each rule `enumerate_rules` yields, in its order.
    The 4^a - 1 canonical rules have pairwise disjoint fields: ps runs over
    the submasks of the atoms hd leaves, and ng over those hd and ps leave,
    each ascending."""
    full = (1 << atom_count) - 1
    if not canonical_only:
        for hd in range(full + 1):
            for ps in range(full + 1):
                for ng in range(full + 1):
                    if hd | ps | ng:
                        yield hd, ps, ng
        return
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
                yield hd, ps, ng


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


class _Language(NamedTuple):
    """An enumeration language: its rules, their field triples and masks,
    and the all-ones mask over its 3^a pairs."""

    atom_count: int
    rules: list[Rule]
    fields: list[Fields]
    masks: list[int]
    full: int


def _language_masks(atom_count: int, canonical_only: bool, max_atoms: int) -> _Language:
    """The enumerated rules of a language with their fields and masks."""
    _check_atom_count(atom_count, max_atoms)
    fields = list(_rule_fields(atom_count, canonical_only))
    rules = list(starmap(Rule, fields))
    layout = ht_pair_masks(atom_count)
    masks = [rule_mask(r, layout) for r in rules]
    return _Language(atom_count, rules, fields, masks, layout[0])


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


def _group_size(atom_count: int) -> int:
    """Pairs per group of a row's lookup tables, which have an entry for
    each subset of a group's pairs: a table of 2^g entries saves lookups
    on every decision of its row, and rows are decided about 4^a times
    as often in a language of a atoms, so larger languages take larger
    groups, up to 8 pairs (256 entries)."""
    return min(8, 2 * atom_count + 1)


class _Row:
    """Every rule of a language as the row a last position runs over: the
    rules, their masks and, built on first read, their fields as a
    `SlicedRow`, with the oracle's verdicts for the row as one int (bit
    i: the i-th rule).  A tie mask or a range of the outermost index
    keeps some of the rules, and the scan keeps their bits of every
    verdict, so one row serves a scan whatever its ties.

    `holding(req, forb, rows)` gives the rules of rows whose mask holds
    every pair of req and none of forb, from the transpose of the masks
    (`holds[p]`: the rules holding at pair p) read through lookup tables,
    two per group of `_group_size` pairs, each built when first read: the
    AND of `holds` over each subset of the group's pairs, and of their
    complements.  `equal(target)` gives the rules whose mask is target:
    the first request compares directly, later ones read an index of the
    positions of each distinct mask.  The index keeps positions, not an
    int per mask, which would hold about R^2/2 bits over a row of R rules."""

    def __init__(self, language: _Language) -> None:
        self.language = language
        self.rules, self.masks = language.rules, language.masks
        self.ones = (1 << len(self.rules)) - 1
        self.group = _group_size(language.atom_count)
        groups = -(-(3**language.atom_count) // self.group)
        self._tables: list[list[int] | None] = [None] * (2 * groups)
        self._positions: dict[int, list[int]] | None = None

    def __getattr__(self, name: str):
        # reached only while `sliced` or `holds` is unbuilt: build it and
        # keep it
        if name == "sliced":
            built = SlicedRow(self.language.fields, self.language.atom_count)
        elif name == "holds":
            built = self._transpose()
        else:
            raise AttributeError(name)
        self.__dict__[name] = built
        return built

    def equal(self, target: int) -> int:
        if self._positions is None:  # asked first: compare directly
            self._positions = {}
            positions = [i for i, mi in enumerate(self.masks) if mi == target]
        else:
            if not self._positions:
                for i, mi in enumerate(self.masks):
                    self._positions.setdefault(mi, []).append(i)
            positions = self._positions.get(target, ())
        rows = 0
        for i in positions:
            rows |= 1 << i
        return rows

    def _transpose(self) -> list[int]:
        """`holds`, `rule_mask` transposed: the translation fails where ng
        misses y and either ps is within x while hd misses x, or ps is
        within y while hd misses y.  Each of those three sets of rules is
        an AND of one column per atom, chosen by the atom's digit, so they
        are built like the layout, by tripling the pairs once per atom."""
        row = self.sliced
        ones = self.ones
        parts = [(ones, ones, ones)]  # (ng misses y, x side, y side)
        for hd, ps, ng in zip(row.hd, row.ps, row.ng):
            off_hd, off_ps, off_ng = ones ^ hd, ones ^ ps, ones ^ ng
            parts = (
                [(n, x & off_ps, y & off_ps) for n, x, y in parts]  # outside y
                + [(n & off_ng, x & off_ps, y & off_hd) for n, x, y in parts]  # y only
                + [(n & off_ng, x & off_hd, y & off_hd) for n, x, y in parts]  # in x
            )
        return [ones ^ (n & (x | y)) for n, x, y in parts]

    def _table(self, at: int) -> list[int]:
        """Lookup table `at`: group at // 2, of `holds` (even) or of
        its complements (odd)."""
        ones = self.ones
        first = at // 2 * self.group
        table = [ones]
        for h in self.holds[first:first + self.group]:
            column = ones ^ h if at & 1 else h
            table += [t & column for t in table]
        self._tables[at] = table
        return table

    def holding(self, req: int, forb: int, rows: int) -> int:
        tables, group = self._tables, self.group
        low = (1 << group) - 1
        at = 0
        while req | forb:
            if req & low:
                rows &= (tables[at] or self._table(at))[req & low]
            if forb & low:
                rows &= (tables[at + 1] or self._table(at + 1))[forb & low]
            if not rows:
                return 0
            req >>= group
            forb >>= group
            at += 2
        return rows


def _bits(indices: range | list[int], count: int) -> int:
    """The int of count bits with bit i set for each i of indices."""
    digits = bytearray(b"0" * count)
    for i in indices:
        digits[i] = 0x31  # b"1"
    return int(digits[::-1] or b"0", 2)


def _scan_range(
    shape: tuple[int, int, int],
    language: _Language,
    condition: Condition,
    start: int,
    stop: int,
    ties: int,
    order: tuple[tuple[int, ...], tuple[int, ...]],
    cap: int,
    row: _Row | None = None,
) -> tuple[int, int, int, int, list[Mismatch]]:
    """Scan all tuples whose outermost index lies in [start, stop); with
    the empty prefix's tie mask `ties`, only those least in their orbit
    (ties 0 scans them all).  `order` is `_order_table(rules, ties)`, and
    `row` the language's `_Row`, which scans of the same language may
    share; one is built if none is given."""
    k, m, n = shape
    tlen = k + m + n
    last = tlen - 1
    last_in_a = last < k + m
    last_in_b = last < k or last >= k + m
    rules, masks, full = language.rules, language.masks, language.full
    count = len(rules)
    if row is None:
        row = _Row(language)
    total = se = cond_pos = mismatch_total = 0
    mismatches: list[Mismatch] = []
    below, tied = order
    # the row form registered for this very condition; any other callable,
    # a wrapper around a registered one included, is called per tuple
    try:
        row_form = _ROW_FORMS.get(condition)
    except TypeError:  # unhashable, so none of the registered ones
        row_form = None
    sliced = None if row_form is None else row.sliced
    # tie mask -> indices of the rules that keep a prefix with those ties
    # least, and at the last position those indices as bits of the row;
    # tie masks recur across prefixes, so each is matched once
    kept_for: dict[int, list[int]] = {}
    bits_for: dict[int, int] = {}

    def decide(
        prefix: tuple[Rule, ...], ma: int, mb: int, kept: range | list[int], rows: int
    ) -> None:
        """Label every tuple prefix + (rules[i],), i in kept, by the oracle
        and the condition, each as one int of verdicts over the row;
        `rows` has the bits of kept."""
        nonlocal total, se, cond_pos, mismatch_total
        if row_form is None:  # in row order, as a per-tuple walk calls it
            conds = 0
            for i in kept:
                if condition(*prefix, rules[i]):
                    conds |= 1 << i
        else:
            conds = row_form(*prefix, sliced) & rows
        # ma & mi == mb: mi holds mb and misses ma ^ mb, if mb is within
        # ma; where the side the last rule joins is still all-ones, the
        # verdict is whether mi equals the other side's mask
        if last_in_a and last_in_b:
            oracle = row.holding(0, ma ^ mb, rows)
        elif last_in_a:
            if ma == full:
                oracle = row.equal(mb) & rows
            else:
                oracle = 0 if mb & ~ma else row.holding(mb, ma ^ mb, rows)
        elif mb == full:
            oracle = row.equal(ma) & rows
        else:
            oracle = 0 if ma & ~mb else row.holding(ma, ma ^ mb, rows)
        total += len(kept)
        se += oracle.bit_count()
        cond_pos += conds.bit_count()
        diff = oracle ^ conds
        if not diff:
            return
        mismatch_total += diff.bit_count()
        room = cap - len(mismatches)
        while diff and room > 0:  # in row order, from the low bit
            low = diff & -diff
            diff ^= low
            o = oracle & low != 0
            mismatches.append(Mismatch(prefix + (rules[low.bit_length() - 1],), o, not o))
            room -= 1

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
            if not ties:  # every rule, or this range's own
                rows = (1 << len(rng)) - 1 << rng.start
            elif depth == 0:
                rows = _bits(rng, count)
            else:
                rows = bits_for.get(ties)
                if rows is None:
                    rows = bits_for[ties] = _bits(rng, count)
            decide(prefix, ma, mb, rng, rows)
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
    # walk refers to itself: unbind it, so that what it holds is freed now
    # and not by a later collection
    del walk
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
    _check_table_bits(shape, atom_count, canonical_only, modulo_iso, max_atoms)
    language = _language_masks(atom_count, canonical_only, max_atoms)
    ties = _all_ties(atom_count) if modulo_iso else 0
    order = _order_table(language.rules, ties)
    weights = [1.0] * len(language.rules)
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
        (shape_tuple, language, condition, a, b, ties, order, MISMATCH_CAP)
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


def _never_row(*_args) -> int:
    """`_never`'s row form."""
    return 0


# the row forms `_scan_range` calls, looked up by the condition itself
_ROW_FORMS: dict[Condition, RowForm] = {**ROW_FORMS, _never: _never_row}


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
    _check_table_bits(shape, atom_count, canonical_only, modulo_iso, max_atoms)
    language = _language_masks(atom_count, canonical_only, max_atoms)
    ties = _all_ties(atom_count) if modulo_iso else 0
    order = _order_table(language.rules, ties)
    shape_tuple = (shape.k, shape.m, shape.n)
    # Against a condition that never holds, the mismatches are exactly the
    # oracle-positive tuples; the cap is the range's tuple count, so none
    # is cut.  The ranges share one row, built once for the stream.
    count = len(language.rules)
    cap = count ** (shape.length - 1)
    row = _Row(language)
    for start in range(count):
        *_counts, positives = _scan_range(
            shape_tuple, language, _never, start, start + 1, ties, order, cap, row
        )
        for mm in positives:
            yield mm.rules
