"""Strong-equivalence oracle over two-world (here-and-there) valuations.

A candidate countermodel is a pair (x, y) of atom sets with x subset y:
x plays the unprimed world, y the primed one.  Each rule contributes two
implications; two programs are strongly equivalent iff their rule
conjunctions agree on every pair over the union language.  Assignments
with x not within y never separate programs, so only the 3^|L| ordered
pairs are examined, and the first disagreeing pair is returned as a
directly meaningful countermodel.

Every mask over atom sets uses one index (`world_layout`): over a base
of n atoms, the atom at position k of the ascending atom list weighs
2^(n-1-k) in a set's index, so within one size the sets in order of the
sorted tuple of their atom ids have descending index.  The worlds y are
indexed over the language, the here-worlds x over y.

One kernel evaluates that semantics for the whole package.  For a fixed
y, `here_mask` returns the 2^|y|-bit mask of the x subset y on which a
rule list holds, bit i standing for the x of index i over y.  Each rule
costs a few big-int operations per literal against a per-y basis shared
by every rule: the all-ones mask over the x, and for each atom of y the
mask of the x that contain it.  The masks of that basis depend only on
the atoms' positions in y, so `kept_slices`, the one walk over y,
builds them once per size |y| and pairs them with each y's atoms; only
the current size's masks are alive.

Which y need a basis at all is decided first, for all of them at once,
by one mask over the 2^n worlds of the language.  A rule's primed
implication fails on a cube of worlds (ps inside y, hd and ng outside),
and its body holds on a wider one (ps inside, ng outside); `cube_worlds`
builds either by doubling the mask once per free atom.  A y where some
rule's primed implication fails has no model (x, y) at all.
`kept_slices` then walks only the kept y, by size and then by the
sorted tuple of their atom ids, each size's y read off the mask from the
top, with no sort and no list of all candidates.

Comparing two programs is one XOR per kept y, walked in the countermodel
order with early exit.  The x of a nonzero difference share the index,
so the first of them is the first set that `kept_slices` reads off it
over y.  The rules the two programs share are split off first: equal
rule sets are equivalent without a walk.  Otherwise only
the y of `separating_worlds` are walked: those where every shared rule's
primed implication holds, the own rules of at least one side all hold
it, and some own rule's body holds (at any other y both sides have the
same models, often none; the own rules decide only where they can fail,
as in Lin's reduction of strong equivalence to classical entailment).
There only the two programs' own rules are XORed, and a nonzero
difference is then ANDed with the shared rules, stopping at 0.  That is
the same difference, so the same countermodel.  The tests evaluate the
same semantics pair by pair (`delta_holds` and `ht_pairs` in
tests/reference.py), the reference the kernel is tested against.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, NamedTuple

from .errors import TooManyAtomsError
from .syntax import Program, Rule, Symbols, bits_of

SE_ATOM_LIMIT = 24


class _HTPairFields(NamedTuple):
    x: int
    y: int


class HTPair(_HTPairFields):
    """Two-world valuation (x, y) with x subset y, both atom-set masks."""

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> HTPair:
        if x & ~y:
            raise ValueError("HTPair requires x to be a subset of y")
        return tuple.__new__(cls, (x, y))


class _SEVerdictFields(NamedTuple):
    equivalent: bool
    countermodel: HTPair | None = None


class SEVerdict(_SEVerdictFields):
    __slots__ = ()

    def __new__(cls, equivalent: bool, countermodel: HTPair | None = None) -> SEVerdict:
        if equivalent == (countermodel is not None):
            raise ValueError("countermodel must be present exactly when not equivalent")
        return tuple.__new__(cls, (equivalent, countermodel))


def _rank_masks(size: int) -> tuple[int, list[int]]:
    """The all-ones mask over the 2^size subsets of a size-atom set, and for
    each position k in that set the mask of the subsets holding its atom:
    the subsets of an index with bit size-1-k set (`world_layout`)."""
    full, width = 1, 1
    masks: list[int] = []
    for _ in range(size):
        masks = [full << width] + [m | m << width for m in masks]
        full |= full << width
        width <<= 1
    return full, masks


def world_layout(lang: int) -> tuple[tuple[int, int, int], ...]:
    """(atom id, atom bit, weight) per atom of lang, highest id first: the
    atom at position k of the ascending atom list weighs 2^(n-1-k) in the
    index of a subset, a number below 2^n.  Within one size, the order of
    the subsets by the sorted tuple of their atom ids is then descending
    index."""
    return tuple((a, 1 << a, 1 << w) for w, a in enumerate(sorted(bits_of(lang), reverse=True)))


def cube_worlds(layout: tuple[tuple[int, int, int], ...], inside: int, outside: int) -> int:
    """Mask over the 2^n world indices of `layout` of the y with inside
    within y and outside disjoint from y."""
    if inside & outside:
        return 0
    m = 1
    for _a, bit, weight in layout:
        if inside & bit:
            m <<= weight
        elif not outside & bit:
            m |= m << weight
    return m


def primed_failures(rules: tuple[Rule, ...], layout: tuple[tuple[int, int, int], ...]) -> int:
    """Mask of the worlds y at which some rule's primed implication fails
    (ps within y, hd and ng outside it): no (x, y) is a model there."""
    m = 0
    for r in rules:
        m |= cube_worlds(layout, r.ps, r.hd | r.ng)
    return m


def separating_worlds(
    only1: tuple[Rule, ...],
    only2: tuple[Rule, ...],
    shared: tuple[Rule, ...],
    layout: tuple[tuple[int, int, int], ...],
) -> int:
    """Mask of the worlds y at which `only1 + shared` and `only2 + shared`
    can have different models (x, y).  Every other y has none on either
    side or the same ones: a shared rule's primed implication fails there
    (both sides have no model), a rule of each side fails it (neither has
    one), or every own rule is vacuous there, its body false at y (both
    sides hold exactly where the shared rules hold)."""
    live = 0
    for r in only1 + only2:
        live |= cube_worlds(layout, r.ps, r.ng)
    fails1 = primed_failures(only1, layout)
    fails2 = primed_failures(only2, layout)
    return live & ~(primed_failures(shared, layout) | fails1 & fails2)


# kept y are read in blocks of 2^_BLOCK_BITS world indices, so that taking
# one y off a mask costs a small-int operation however wide the language
_BLOCK_BITS = 10


@cache
def _sized_indices(bits: int) -> tuple[int, ...]:
    """For t from 0 to bits, the mask over the indices below 2^bits of
    those with t set bits (at most _BLOCK_BITS + 1 small tables, kept)."""
    row = [1]
    for m in range(bits):
        row.append(0)
        for t in range(m + 1, 0, -1):
            row[t] |= row[t - 1] << (1 << m)
    return tuple(row)


def kept_slices(
    layout: tuple[tuple[int, int, int], ...], kept: int
) -> Iterator[tuple[int, tuple[int, dict[int, int]]]]:
    """Each y whose world index is set in `kept`, by size and then by the
    sorted tuple of its atom ids, as (y, basis): `basis` is `here_mask`'s
    (full, {atom: mask}) at y, its masks built once per size |y|.  The
    index space is cut into blocks of 2^_BLOCK_BITS; a block's number
    holds the first atoms, so within one size the y come block by block
    from the top, and each block's y of that size are read off its mask
    from the top."""
    n = len(layout)
    low_bits = min(n, _BLOCK_BITS)
    step = (1 << low_bits) + 7 >> 3
    data = kept.to_bytes(step << n - low_bits, "little")
    blocks = [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]
    del data
    sized = _sized_indices(low_bits)
    atom_at = [(a, bit) for a, bit, _weight in layout]
    for size in range(n + 1):
        masks = None
        for high in range(len(blocks) - 1, -1, -1):
            rest = size - high.bit_count()
            if not 0 <= rest <= low_bits:
                continue
            candidates = blocks[high] & sized[rest]
            if not candidates:
                continue
            if masks is None:
                full, masks = _rank_masks(size)
            base = high << low_bits
            while candidates:
                low = candidates.bit_length() - 1
                candidates ^= 1 << low
                index = base | low
                y = 0
                atom = {}
                for mask in masks:  # the highest index bit is the lowest atom
                    b = index.bit_length() - 1
                    index ^= 1 << b
                    a, bit = atom_at[b]
                    atom[a] = mask
                    y |= bit
                yield y, (full, atom)


def here_mask(
    rules: tuple[Rule, ...],
    y: int,
    basis: tuple[int, dict[int, int]],
    start: int | None = None,
) -> int:
    """Mask of the x subset y for which every rule holds on (x, y), bit i
    standing for the x of index i over y (`world_layout(y)`), ANDed into
    `start` (default: every x); returns as soon as the mask is 0."""
    full, atom = basis
    m = full if start is None else start
    for r in rules:
        if r.ng & y or r.ps & ~y:
            continue  # both implications hold vacuously
        hd = r.hd & y
        if not hd:
            return 0  # the primed implication fails, whatever x is
        body = full
        for a in bits_of(r.ps):
            body &= atom[a]
        head = 0
        for a in bits_of(hd):
            head |= atom[a]
        m &= (full ^ body) | head
        if not m:
            return 0
    return m


def strongly_equivalent(
    p1: Program, p2: Program, max_atoms: int = SE_ATOM_LIMIT
) -> SEVerdict:
    """Decide p1 ~se p2 over the union of their atoms.

    Returns the first separating pair in the deterministic enumeration
    order when the programs are not strongly equivalent.
    """
    lang = p1.atoms | p2.atoms
    n = lang.bit_count()
    if n > max_atoms:
        raise TooManyAtomsError("strongly_equivalent", n, max_atoms)
    # split on the field triples, which hash in C, not on the rules
    fields1, fields2 = ([(r.hd, r.ps, r.ng) for r in p.rules] for p in (p1, p2))
    in1, in2 = set(fields1), set(fields2)
    shared = tuple(r for r, f in zip(p1.rules, fields1) if f in in2)
    only1 = tuple(r for r, f in zip(p1.rules, fields1) if f not in in2)
    only2 = tuple(r for r, f in zip(p2.rules, fields2) if f not in in1)
    if not only1 and not only2:
        return SEVerdict(True)
    layout = world_layout(lang)
    kept = separating_worlds(only1, only2, shared, layout)
    for y, basis in kept_slices(layout, kept):
        diff = here_mask(only1, y, basis) ^ here_mask(only2, y, basis)
        if diff:
            diff = here_mask(shared, y, basis, diff)
            if diff:
                x = next(kept_slices(world_layout(y), diff))[0]
                return SEVerdict(False, HTPair(x, y))
    return SEVerdict(True)


def countermodel_json(pair: HTPair, symbols: Symbols) -> dict:
    """Serializable form of a countermodel: atom names in id order."""
    return {"x": list(symbols.names(pair.x)), "y": list(symbols.names(pair.y))}
