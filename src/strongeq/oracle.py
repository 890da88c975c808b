"""Strong-equivalence oracle over two-world (here-and-there) valuations.

A candidate countermodel is a pair (x, y) of atom sets with x subset y:
x plays the unprimed world, y the primed one.  Each rule contributes two
implications; two programs are strongly equivalent iff their rule
conjunctions agree on every pair over the union language.  Assignments
with x not within y never separate programs, so only the 3^|L| ordered
pairs are examined, and the first disagreeing pair is returned as a
directly meaningful countermodel.

One kernel evaluates that semantics for the whole package.  For a fixed
y, `here_mask` returns the 2^|y|-bit mask of the x subset y on which a
rule list holds: bit i stands for the x whose atoms' ranks within y are
the set bits of i.  Each rule costs a few big-int operations per literal
against a per-y basis of atom masks (`here_basis`), shared by every rule.
The masks of that basis depend only on the ranks, so `y_slices` builds
them once per size |y| and pairs them with each y's atoms; only the
current size's masks are alive.  A rule whose primed implication fails
at y (`primed_holds`) has no model with world y at all, which needs no
basis to see.

Comparing two programs is one XOR per y, walked in the countermodel
order with early exit: a decision costs up to 2^n slices of at most 2^n
bits each.  The rules the two programs share are split off first: equal
rule sets are equivalent without a walk; a y at which a shared rule's
primed implication fails is skipped before its basis is built, since
both masks are 0 there; elsewhere only the two programs' own rules are
XORed, and a nonzero difference is then ANDed with the shared rules,
stopping at 0.  That is the same difference, so the same countermodel.
`delta_holds` and `ht_pairs` evaluate the same semantics pair by pair
and are the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import TooManyAtomsError
from .syntax import Program, Rule, Symbols, bits_of, mask_of, subsets_of

SE_ATOM_LIMIT = 24


@dataclass(frozen=True, slots=True)
class HTPair:
    """Two-world valuation (x, y) with x subset y, both atom-set masks."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x & ~self.y:
            raise ValueError("HTPair requires x to be a subset of y")


@dataclass(frozen=True, slots=True)
class SEVerdict:
    equivalent: bool
    countermodel: HTPair | None = None

    def __post_init__(self) -> None:
        if self.equivalent == (self.countermodel is not None):
            raise ValueError("countermodel must be present exactly when not equivalent")


def _delta(r: Rule, x: int, y: int) -> bool:
    # Two implications per rule.  Unprimed: positive body in x and negated
    # body missing from y force the head to meet x.  Primed: same with y on
    # both sides.  Empty body makes an antecedent true, empty head makes a
    # consequent false; the mask arithmetic gives both for free.
    return bool(
        (r.ps & ~x or r.ng & y or r.hd & x) and (r.ps & ~y or r.ng & y or r.hd & y)
    )


def delta_holds(r: Rule, pair: HTPair) -> bool:
    """Whether the rule's two-implication translation holds on the pair."""
    return _delta(r, pair.x, pair.y)


def ht_pairs(lang: int):
    """All HTPairs over a language mask, y ascending by cardinality then
    lexicographically, x likewise within each y."""
    for y in subsets_of(lang):
        for x in subsets_of(y):
            yield HTPair(x, y)


def _rank_masks(size: int) -> tuple[int, list[int]]:
    """The all-ones mask over the 2^size subsets of a size-atom set, and for
    each rank within that set the mask of the subsets holding that atom."""
    full, width = 1, 1
    masks: list[int] = []
    for _ in range(size):
        masks = [m | m << width for m in masks]
        masks.append(full << width)
        full |= full << width
        width <<= 1
    return full, masks


def here_basis(y: int) -> tuple[int, dict[int, int]]:
    """The all-ones mask over the 2^|y| subsets x of y, and for each atom
    id in y the mask of the x that contain it."""
    full, masks = _rank_masks(y.bit_count())
    return full, dict(zip(bits_of(y), masks))


def y_slices(lang: int) -> Iterator[tuple[int, tuple[int, ...], int, list[int]]]:
    """Each y subset of lang in `subsets_of` order, as (y, its atom ids
    ascending, full, rank masks): `full, dict(zip(atoms, masks))` is
    `here_basis(y)`.  The masks are built once per size |y|."""
    positions = tuple(bits_of(lang))
    for size in range(len(positions) + 1):
        full, masks = _rank_masks(size)
        for atoms in combinations(positions, size):
            yield mask_of(atoms), atoms, full, masks


def primed_holds(rules: tuple[Rule, ...], y: int) -> bool:
    """Whether every rule's primed implication holds at y, that is, y is a
    classical model of the rules' reduct relative to y.  If not, no (x, y)
    is a model of the rules."""
    for r in rules:
        if not (r.ng & y or r.ps & ~y or r.hd & y):
            return False
    return True


def here_mask(
    rules: tuple[Rule, ...],
    y: int,
    basis: tuple[int, dict[int, int]],
    start: int | None = None,
) -> int:
    """Mask of the x subset y (bit layout of `here_basis(y)`) for which
    every rule holds on (x, y), ANDed into `start` (default: every x);
    returns as soon as the mask is 0."""
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


def _first_x(diff: int, y: int) -> int:
    """The first x in subsets_of(y) order whose bit is set in diff."""
    ranks = (1 << y.bit_count()) - 1
    digits = format(diff, "b").zfill(ranks + 1)[::-1]  # digits[i] is bit i
    return next(x for x, i in zip(subsets_of(y), subsets_of(ranks)) if digits[i] == "1")


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
    in1, in2 = set(p1.rules), set(p2.rules)
    shared = tuple(r for r in p1.rules if r in in2)
    only1 = tuple(r for r in p1.rules if r not in in2)
    only2 = tuple(r for r in p2.rules if r not in in1)
    if not only1 and not only2:
        return SEVerdict(True)
    for y, atoms, full, masks in y_slices(lang):
        if not primed_holds(shared, y):
            continue  # both programs' masks are 0 at this y
        basis = full, dict(zip(atoms, masks))
        diff = here_mask(only1, y, basis) ^ here_mask(only2, y, basis)
        if diff:
            diff = here_mask(shared, y, basis, diff)
            if diff:
                return SEVerdict(False, HTPair(_first_x(diff, y), y))
    return SEVerdict(True)


def countermodel_json(pair: HTPair, symbols: Symbols) -> dict:
    """Serializable form of a countermodel: atom names in id order."""
    return {"x": list(symbols.names(pair.x)), "y": list(symbols.names(pair.y))}
