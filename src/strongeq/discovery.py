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
condition alike.  The loop over the last fixed position decides each of
its rows as it goes.  One object is the language of a scan: its `_Row`,
a `conditions.SlicedRow` of every rule, built once per scan (and, with
job_count > 1, pickled to each worker).  It builds the rules, their
masks and their transpose when first read, so a scan builds only what
its walk reads and its report prints: a one-rule shape with an exact
condition builds no rule and no mask.  A registered predicate is decided
by one call of its row form (`conditions.ROW_FORMS`, looked up by the
predicate itself) on the fixed rules and the row itself.  Any other
callable, a user's condition or a wrapper around a registered one, is
called once per tuple of the row, in row order, as a per-tuple walk
would call it, and its verdicts are packed into an int.  On the oracle's
side, the last rule's mask mi joins one side or both: own & mi == other,
own the side it joins alone, holds iff other is within own and mi holds
at every pair of other and at none of own ^ other, which the row reads
off the transpose of its masks through per-group lookup tables.  Where
own has no other rule yet (the right side of 0,1,1 and 0,2,1), the
verdict is whether mi equals other, read from the positions of each
distinct mask.  Where other is all-ones too, because no rule is fixed
(0,1,0) or every fixed rule is valid, holding at every pair, the
verdict is whether mi holds at every pair: the row's `valid`, one int
built once per row.  In a language of all rules most rules are valid
(3,471 of 4,095 over 4 atoms), so most rows of 1,1,0 and 0,1,1 are
read off that one int.  The counts are bit counts, and the set bits of
oracle ^ condition are read in one pass, up to the cap, to record
mismatches.  The row keeps what its reads have built; a tie mask or a
range keeps some of its rules, and their bits, one int per tie mask,
mask both verdicts.

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
the rule does not break.  A full scan is the same walk with no ties.  At
every position the rules a tie mask keeps are read off the row's field
columns (`_Row.kept`), one int per neighbour pair: the rules whose type
rises across it.

Work can be split across processes by chunking the outermost rule index
into contiguous ranges; partial reports merge in range order, so results
are identical for any job count.
"""

from __future__ import annotations

import json
import os
import time
from functools import cached_property, partial, reduce
from itertools import chain, islice, product, starmap
from typing import Callable, Iterator, NamedTuple

from .conditions import ROW_FORMS, SLICED_ATOMS, Fields, RowForm, SlicedRow, set_table
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


# a Mismatch from its three fields, without the Python frame of its __new__
_mismatch = partial(tuple.__new__, Mismatch)


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

    def json_text(self, indent: bool = False) -> str:
        """The report as JSON, its rules written over `language_symbols`:
        the text `json.dumps` gives for the report's dict (keys in the
        order written here), or with indent, what it gives at indent=2.
        The text is written out directly: each distinct rule's text is
        JSON-encoded once, and each mismatch is one join of its rules'
        texts and its verdicts."""
        (o1, s1, c1), (o2, s2, c2), (o3, s3, c3), (o4, s4, c4) = _JSON_LAYOUTS[indent]
        listed = "[]"
        if self.mismatches:
            symbols = language_symbols(self.atom_count)
            length = len(self.mismatches[0].rules)
            flat = list(chain.from_iterable([mm.rules for mm in self.mismatches]))
            # mismatches share most of their rules, the very objects; keyed
            # by id, since Rule's own hash is Python code
            keys = list(map(id, flat))
            distinct = dict(zip(keys, flat))
            texts = {key: json.dumps(format_rule(r, symbols)) for key, r in distinct.items()}
            # an entry: its first rule after the entry's opening, each later
            # one after a separator, then its verdicts and the closing
            first = {key: "{" + o3 + '"tuple": [' + o4 + t for key, t in texts.items()}
            later = {key: s4 + t for key, t in texts.items()}
            truth = ("false", "true")
            verdicts = {
                (o, c): f'{c4}]{s3}"oracle": {truth[o]}{s3}"cond": {truth[c]}{c3}}}'
                for o in (False, True) for c in (False, True)
            }
            columns = [map(first.__getitem__, keys[::length])]
            columns += [map(later.__getitem__, keys[j::length]) for j in range(1, length)]
            columns.append([verdicts[mm.oracle, mm.condition] for mm in self.mismatches])
            listed = "[" + o2 + s2.join(map("".join, zip(*columns))) + c2 + "]"
        return (
            f'{{{o1}"shape": [{o2}{s2.join(map(str, self.shape))}{c2}]{s1}'
            f'"atoms": {self.atom_count}{s1}"total": {self.total_tuples}{s1}'
            f'"se_positive": {self.se_positive_count}{s1}'
            f'"cond_positive": {self.condition_positive_count}{s1}'
            f'"mismatches": {listed}{s1}"elapsed_ms": {round(self.elapsed_ms, 3)!r}{c1}}}'
        )


def _json_layout(depth: int, indent: bool) -> tuple[str, str, str]:
    """The opening, separator and closing of a JSON container whose items
    sit at nesting depth `depth`, as `json.dumps` writes them: compact,
    or at indent=2."""
    if not indent:
        return "", ", ", ""
    pad = "\n" + "  " * depth
    return pad, "," + pad, "\n" + "  " * (depth - 1)


# a report's containers by depth: its keys; the shape and the mismatches;
# a mismatch's keys; a mismatch's rules
_JSON_LAYOUTS = {
    indent: [_json_layout(depth, indent) for depth in (1, 2, 3, 4)] for indent in (False, True)
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
    """A bound on the memory, in bits, of what a scan keeps: its `_Row`,
    that is the rules' fields and their Rules, the row's columns, set
    tables and `rises`; for a shape of one rule the transpose of the
    masks, while built with the three parts of each pair too; for longer
    shapes the masks, and either the index of the masks, where the last
    rule is alone on its side, or their transpose and lookup tables; with
    modulo_iso, the rules kept for each tie mask, as indices and as bits.
    The mismatches a scan records are not counted."""
    rules = rule_count(atom_count, canonical_only)
    pairs = 3**atom_count
    row_int = _int_bits(rules)
    # a rule: its Rule and fields tuple, 64 bytes each, and two slots
    bits = rules * 8 * 144
    bits += (5 * atom_count + 2 + (8 << atom_count)) * row_int
    if shape.length == 1:
        bits += 4 * pairs * row_int
    else:
        bits += rules * _int_bits(pairs)
        if shape.k == 0 and shape.n == 1:
            bits += rules * 8 * 128  # a dict entry and a list per mask
        else:
            group = _group_size(atom_count)
            bits += (4 * pairs + (2 * -(-pairs // group) << group)) * row_int
    if modulo_iso:  # an index past 256 is an int of its own, 32 bytes
        bits += (1 << max(atom_count - 1, 0)) * (rules * 8 * 40 + row_int)
    return bits


def rule_count(atom_count: int, canonical_only: bool) -> int:
    """The number of rules `enumerate_rules` yields: 8^a - 1, or 4^a - 1
    canonical ones."""
    return (4 if canonical_only else 8) ** atom_count - 1


def enumerate_rules(
    atom_count: int, canonical_only: bool = False, max_atoms: int = ENUM_ATOM_LIMIT
) -> Iterator[Rule]:
    """Every rule over the first atom_count atoms except the all-empty one,
    ascending by (hd, ps, ng) read as one bitmask; optionally canonical
    rules only."""
    _check_atom_count(atom_count, max_atoms)
    return starmap(Rule, _rule_fields(atom_count, canonical_only))


def _rule_fields(atom_count: int, canonical_only: bool) -> Iterator[Fields]:
    """The (hd, ps, ng) of each rule `enumerate_rules` yields, in its order:
    every triple of atom sets but the first, all-empty one.  The 4^a - 1
    canonical rules have pairwise disjoint fields: ps runs over the
    submasks of the atoms hd leaves, and ng over those hd and ps leave,
    each ascending."""
    full = (1 << atom_count) - 1
    space = range(full + 1)
    if not canonical_only:  # 8^a - 1 of them, so taken as they come
        return islice(product(space, repeat=3), 1, None)
    # submasks[c]: the submasks of c, ascending; those of c holding its top
    # atom follow those of c without it, in the same order
    submasks = [[0]]
    for c in range(1, full + 1):
        top = 1 << c.bit_length() - 1
        below = submasks[c ^ top]
        submasks.append(below + [s | top for s in below])
    fields = [
        (hd, ps, ng)
        for hd in space
        for ps in submasks[full ^ hd]
        for ng in submasks[full ^ hd ^ ps]
    ]
    return islice(fields, 1, None)


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
    out_x, out_y = [full ^ m for m in in_x], [full ^ m for m in in_y]
    return full, *(set_table(columns, full) for columns in (in_x, out_x, in_y, out_y))


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


def _language_masks(atom_count: int, canonical_only: bool, max_atoms: int) -> _Row:
    """The row of every enumerated rule of a language, with their masks."""
    _check_atom_count(atom_count, max_atoms)
    return _Row(atom_count, canonical_only)


def _scan_setup(
    shape: TupleShape, atom_count: int, canonical_only: bool, modulo_iso: bool, max_atoms: int
) -> tuple[_Row, int, tuple[int, ...]]:
    """A scan's row, the empty prefix's tie mask and `_tie_table`.
    First refuse, with TableBudgetError, a scan whose tables pass
    TABLE_BITS, and, with TooManyAtomsError, one over more atoms than a
    `SlicedRow` takes; the atom limit is checked first.  The tables grow
    with the atoms, so past SLICED_ATOMS + 1 atoms, where no scan runs,
    those of SLICED_ATOMS + 1 atoms stand for them as a bound from below:
    no exact count of a larger language is made, whose powers alone take
    seconds over millions of atoms."""
    _check_atom_count(atom_count, max_atoms)
    counted = min(atom_count, SLICED_ATOMS + 1)
    bits = _table_bits(shape, counted, canonical_only, modulo_iso)
    if bits > TABLE_BITS:
        raise TableBudgetError(
            "rule-tuple scan", atom_count, bits, TABLE_BITS, at_least=counted < atom_count)
    if atom_count > SLICED_ATOMS:
        raise TooManyAtomsError("rule-tuple scan", atom_count, SLICED_ATOMS)
    row = _language_masks(atom_count, canonical_only, max_atoms)
    ties = _all_ties(atom_count) if modulo_iso else 0
    if not ties or shape.length == 1:  # no prefix position to read it
        return row, ties, ()
    return row, ties, _tie_table(row.rules, ties)


def _all_ties(atom_count: int) -> int:
    """The tie mask of the empty prefix: every pair of neighbouring atoms."""
    return (1 << max(atom_count - 1, 0)) - 1


def _child_ties(r: Rule, ties: int) -> int:
    """The neighbour pairs (i, i+1) of `ties` across which atom i's type
    in the rule equals atom i+1's: the tie mask a least prefix keeps when
    the rule joins it.  A type is membership of hd, then ps, then ng."""
    hd, ps, ng = r.hd, r.ps, r.ng
    return ties & ~(hd >> 1 ^ hd) & ~(ps >> 1 ^ ps) & ~(ng >> 1 ^ ng)


def _tie_table(rules: list[Rule], ties: int) -> tuple[int, ...]:
    """Every rule's `_child_ties` against the empty prefix's tie mask
    `ties`, as a column; empty for a full scan (ties 0)."""
    if not ties:
        return ()
    return tuple(_child_ties(r, ties) for r in rules)


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


class _Row(SlicedRow):
    """An enumeration language as the row a last position runs over, the
    one object a scan builds of it: every rule, in `enumerate_rules`
    order, as a `SlicedRow`, the rules' field columns and set tables, so
    that a row form takes the row itself, and the all-ones mask `full`
    over the 3^a pairs.  The rules themselves and their masks are built
    on first read: by the walk's fixed positions, a condition called per
    tuple or a recorded mismatch.  The verdicts for the row, the oracle's
    and the condition's, are one int each (bit i: the i-th rule).  A tie
    mask or a range of the outermost index keeps some of the rules
    (`kept`), and the scan keeps their bits of every verdict, so one row
    serves a scan whatever its ties; worker processes receive it pickled.

    `holding(req, forb, rows)` gives the rules of rows whose mask holds
    every pair of req and none of forb, from the transpose of the masks
    (`holds[p]`: the rules holding at pair p, built on first read) read
    through lookup tables, two per group of `_group_size` pairs, each
    built when first read: the AND of `holds` over each subset of the
    group's pairs, and of their complements.  `valid`, the rules whose
    mask is `full`, is one int built on first read, and a scan reads it
    wherever it would ask `equal(full)`.  `equal(target)` gives the rules
    whose mask is target: the first request compares directly, later
    ones read an index of the positions of each distinct mask, setting
    one bit per position.  The index keeps positions, not an int per
    mask, which would hold about R^2/2 bits over a row of R rules."""

    def __init__(self, atom_count: int, canonical_only: bool) -> None:
        fields = list(_rule_fields(atom_count, canonical_only))
        super().__init__(fields, atom_count)
        self._fields = fields
        self.full = (1 << 3**atom_count) - 1
        self.group = _group_size(atom_count)
        groups = -(-(3**atom_count) // self.group)
        self._tables: list[list[int] | None] = [None] * (2 * groups)
        self._positions: dict[int, list[int]] | None = None

    @cached_property
    def rules(self) -> list[Rule]:
        """The row's rules, in `enumerate_rules` order."""
        return list(starmap(Rule, self._fields))

    @cached_property
    def masks(self) -> list[int]:
        """Each rule's `rule_mask`."""
        layout = ht_pair_masks(len(self.hd))
        return [rule_mask(r, layout) for r in self.rules]

    @cached_property
    def valid(self) -> int:
        """The rules that hold at every pair, whose mask is `full`: read
        off the masks where they are built (a scan of two rules or more),
        else the AND of `holds`, so that neither is built for this
        alone."""
        masks = self.__dict__.get("masks")
        if masks is None:
            return reduce(int.__and__, self.holds, self.ones)
        full = self.full
        return int("".join(["1" if mi == full else "0" for mi in reversed(masks)]) or "0", 2)

    @cached_property
    def rises(self) -> list[int]:
        """For each pair of neighbouring atoms (i, i+1), the rules whose
        type rises across it, atom i's type below atom i+1's: the first
        of hd, ps and ng that tells the two apart holds atom i+1 only."""
        rises = []
        for i in range(len(self.hd) - 1):
            rise, tied = 0, self.ones
            for column in (self.hd, self.ps, self.ng):
                lo, hi = column[i], column[i + 1]
                rise |= tied & hi & ~lo
                tied &= ~(lo ^ hi)
            rises.append(rise)
        return rises

    def kept(self, ties: int) -> int:
        """The rules that keep a least prefix with tie mask `ties` least:
        those whose type rises across no tied pair.  This is the one
        place the walk's positions learn which rules a tie mask keeps."""
        beaten = 0
        if ties:
            for i, rise in enumerate(self.rises):
                if ties >> i & 1:
                    beaten |= rise
        return self.ones ^ beaten

    def equal(self, target: int) -> int:
        """The rules whose mask is target, one bit set per such rule: a
        scan asks this of a mask other than `full`, whose class is small,
        and reads `valid` for `full`, whose class holds most rules of a
        language of all rules."""
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

    @cached_property
    def holds(self) -> list[int]:
        """`rule_mask` transposed: the translation fails where ng misses y
        and either ps is within x while hd misses x, or ps is within y
        while hd misses y.  Each of those three sets of rules is an AND of
        one column per atom, chosen by the atom's digit, so they are built
        like the layout, by tripling the pairs once per atom."""
        ones = self.ones
        parts = [(ones, ones, ones)]  # (ng misses y, x side, y side)
        for hd, ps, ng in zip(self.hd, self.ps, self.ng):
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
        first = at // 2 * self.group
        columns = self.holds[first:first + self.group]
        if at & 1:
            columns = [self.ones ^ h for h in columns]
        self._tables[at] = table = set_table(columns, self.ones)
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


def _indices(bits: int) -> list[int]:
    """The positions of the set bits of bits, ascending."""
    digits = bin(bits)[:1:-1]  # bit 0 first
    return [i for i, digit in enumerate(digits) if digit == "1"]


def _scan_range(
    shape: tuple[int, int, int],
    row: _Row,
    condition: Condition,
    start: int,
    stop: int,
    ties: int,
    tied: tuple[int, ...],
    cap: int,
) -> tuple[int, int, int, int, list[Mismatch]]:
    """Scan all tuples of the language `row` whose outermost index lies
    in [start, stop); with the empty prefix's tie mask `ties`, only those
    least in their orbit (ties 0 scans them all).  `tied` is
    `_tie_table(rules, ties)`, which a one-rule shape does not read.
    Scans of the same language may share the row, and what its reads
    build."""
    k, m, n = shape
    last = k + m + n - 1
    last_in_a = last < k + m
    last_in_b = last < k or last >= k + m
    full = row.full
    total = se = cond_pos = mismatch_total = 0
    mismatches: list[Mismatch] = []
    span = (1 << stop) - (1 << start) if start < stop else 0  # the range's rules
    # the row form registered for this very condition; any other callable,
    # a wrapper around a registered one included, is called per tuple
    try:
        row_form = _ROW_FORMS.get(condition)
    except TypeError:  # unhashable, so none of the registered ones
        row_form = None
    # tie mask -> the rules of the row that keep a prefix with those ties
    # least, as indices and as bits; a row's bits -> their indices, for a
    # condition called per tuple.  Tie masks recur across prefixes, so
    # each is read off the row once.
    kept_for: dict[int, list[int]] = {}
    rows_for = {0: row.ones}
    indices_for: dict[int, list[int]] = {}

    def decide(prefix: tuple[Rule, ...], ma: int, mb: int, rows: int) -> None:
        """Label every tuple prefix + (rule,), for each rule of the row in
        `rows`, by the oracle and the condition, each as one int of
        verdicts over the row."""
        nonlocal total, se, cond_pos, mismatch_total
        if row_form is None:  # in row order, as a per-tuple walk calls it
            kept = indices_for.get(rows)
            if kept is None:
                kept = indices_for[rows] = _indices(rows)
            rules = row.rules
            conds = 0
            for i in kept:
                if condition(*prefix, rules[i]):
                    conds |= 1 << i
        else:
            conds = row_form(*prefix, row) & rows
        # own & mi == other, own the side the last rule joins alone: mi
        # holds other and misses own ^ other, if other is within own;
        # where own is still all-ones, whether mi equals other, and where
        # other is all-ones too (no rule, or valid ones only), whether mi
        # holds at every pair
        if last_in_a and last_in_b:
            oracle = row.holding(0, ma ^ mb, rows)
        else:
            own, other = (ma, mb) if last_in_a else (mb, ma)
            if own != full:
                oracle = 0 if other & ~own else row.holding(other, own ^ other, rows)
            elif other != full:
                oracle = row.equal(other) & rows
            else:
                oracle = row.valid & rows
        total += rows.bit_count()
        se += oracle.bit_count()
        cond_pos += conds.bit_count()
        diff = oracle ^ conds
        if not diff:
            return
        mismatch_total += diff.bit_count()
        room = cap - len(mismatches)
        if room > 0:  # in row order, from the low bit
            rules = row.rules
            mismatches.extend([
                _mismatch((prefix + (rules[i],), o, not o))
                for i in _indices(diff)[:room] for o in (oracle >> i & 1 == 1,)
            ])

    def walk(depth: int, ma: int, mb: int, prefix: tuple[Rule, ...], ties: int) -> None:
        if ties:
            if depth == 0:
                rng = _indices(row.kept(ties) & span)
            else:
                rng = kept_for.get(ties)
                if rng is None:
                    rng = kept_for[ties] = _indices(row.kept(ties))
        else:
            rng = range(start, stop) if depth == 0 else range(len(rules))
        in_a = depth < k + m
        in_b = depth < k or depth >= k + m
        deeper = depth + 1 < last
        for i in rng:
            mi = masks[i]
            na = ma & mi if in_a else ma
            nb = mb & mi if in_b else mb
            child = ties and ties & tied[i]
            if deeper:
                walk(depth + 1, na, nb, prefix + (rules[i],), child)
                continue
            # the last fixed position: rules[i] fixes a row of last rules,
            # those the child's tie mask keeps, decided here
            rows = rows_for.get(child)
            if rows is None:
                rows = rows_for[child] = row.kept(child)
            decide(prefix + (rules[i],), na, nb, rows)

    if last:
        rules, masks = row.rules, row.masks
        walk(0, full, full, (), ties)
        # walk refers to itself: unbind it, so that what it holds is freed
        # now and not by a later collection
        del walk
    else:  # one rule, so one row: the range's rules that are least
        decide((), full, full, row.kept(ties) & span)
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
    if job_count > 1:
        job_count = min(job_count, _usable_cpus())
    row, ties, tied = _scan_setup(shape, atom_count, canonical_only, modulo_iso, max_atoms)
    count = row.ones.bit_length()
    if job_count > 1:
        weights = [1.0] * count
        if tied:  # ties, and a rule to fix before the last
            # A least first rule with stabilizer S heads about 1/|S| of a
            # full subtree, and any other rule none: balance the ranges by
            # that.
            weights = [0.0] * count
            for i in _indices(row.kept(ties)):
                weights[i] = 1.0 / _stabilizer_order(tied[i])
        ranges = _split_ranges(weights, job_count)
    else:
        ranges = [(0, count)]
    args = [(shape, row, condition, a, b, ties, tied, MISMATCH_CAP) for a, b in ranges]
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
    row, ties, tied = _scan_setup(shape, atom_count, canonical_only, modulo_iso, max_atoms)
    # Against a condition that never holds, the mismatches are exactly the
    # oracle-positive tuples; the cap is the range's tuple count, so none
    # is cut.  The ranges share the row, built once for the stream.
    count = row.ones.bit_length()
    cap = count ** (shape.length - 1)
    for start in range(count):
        *_counts, positives = _scan_range(shape, row, _never, start, start + 1, ties, tied, cap)
        for mm in positives:
            yield mm.rules
