"""Exact syntactic conditions for small-shape strong-equivalence questions.

Each cond_k_m_n decides, by set algebra alone, whether k shared rules plus
m rules are strongly equivalent to the k shared rules plus n rules.  The
discovery harness re-verifies every one of these predicates against the
semantic oracle by exhaustive enumeration.

Each predicate also has a row form, `ROW_FORMS[predicate]`: it fixes every
rule but the last and decides a whole row of last rules, given as a
`SlicedRow`, returning the verdicts as one int, bit i for the row's i-th
rule.  The set algebra becomes lookups in the row's tables: r2 holds
r1's positive body iff r2 is in `sup_ps[ps1]`, so `s_implies` is the AND
of four entries, and `_redundant` is a few entries per witness atom.  A
canonical-only row form checks the fixed rules on each call and the row
by its `canonical` flag, read once when the row was built.  The harness
calls the row forms; the simplifier calls the predicates, one tuple at a
time, and the tests tie the two forms together exhaustively.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from .errors import NotCanonicalError
from .syntax import Fields, Rule


def cond_0_1_0(r: Rule) -> bool:
    """Whether a single rule can always be deleted: the positive body
    must share an atom with the head or the negated body."""
    return bool((r.hd | r.ng) & r.ps)


def cond_1_1_0(r1: Rule, r2: Rule) -> bool:
    """Whether {r1, r2} is strongly equivalent to {r1}, i.e. r2 may be
    deleted given r1.

    Holds iff r2 is deletable on its own, or r1's body is contained in
    r2's (positive and negated parts separately) and r1's head is covered
    by r2's head plus negated body.
    """
    if (r2.hd | r2.ng) & r2.ps:
        return True
    return (
        r1.ps & ~r2.ps == 0
        and r1.ng & ~r2.ng == 0
        and r1.hd & ~(r2.hd | r2.ng) == 0
    )


def s_implies(r1: Rule, r2: Rule) -> bool:
    """Subsumption test: some A within ng(r2) has hd(r1) within hd(r2)+A,
    ng(r1) within ng(r2)-A, and ps(r1) within ps(r2).

    No subset search is needed: A = ng(r2) - ng(r1) is the weakest viable
    choice, giving the closed form below.  A strict special case of
    cond_1_1_0.
    """
    return (
        r1.ps & ~r2.ps == 0
        and r1.ng & ~r2.ng == 0
        and r1.hd & ~(r2.hd | (r2.ng & ~r1.ng)) == 0
    )


def cond_0_1_1(r1: Rule, r2: Rule) -> bool:
    """Whether two rules are interchangeable: both individually deletable,
    or same bodies and the same head-plus-negated-body closure."""
    if (r1.hd | r1.ng) & r1.ps and (r2.hd | r2.ng) & r2.ps:
        return True
    return (
        r1.ps == r2.ps
        and r1.ng == r2.ng
        and r1.hd | r1.ng == r2.hd | r2.ng
    )


_NOT_CANONICAL = (
    "this condition is stated for canonical rules only; "
    "normalize first (see simplify.normalize_rule)"
)


def subsume_witness(r1: Rule, r2: Rule, r3: Rule) -> int | None:
    """Least witness atom id for the joint-subsumption clause of
    cond_2_1_0, or None if no atom qualifies.

    An atom p qualifies when it lies in (ps1|ps2) & (hd1|hd2|ng1|ng2),
    the rest of r1 and of r2 each fit inside r3 field-wise (heads may
    land in hd3|ng3), and the two cross checks pass: if p is in ps1 & ng2
    then hd1 and hd3 must be disjoint, and symmetrically for ps2 & ng1.
    """
    hd3ng3 = r3.hd | r3.ng
    candidates = (r1.ps | r2.ps) & (r1.hd | r2.hd | r1.ng | r2.ng)
    while candidates:
        p = candidates & -candidates
        candidates ^= p
        keep = ~p
        fits = True
        for ri in (r1, r2):
            if (
                ri.hd & keep & ~hd3ng3
                or ri.ps & keep & ~r3.ps
                or ri.ng & keep & ~r3.ng
            ):
                fits = False
                break
        if fits and p & r1.ps & r2.ng and r1.hd & r3.hd:
            fits = False
        if fits and p & r2.ps & r1.ng and r2.hd & r3.hd:
            fits = False
        if fits:
            return p.bit_length() - 1
    return None


def _redundant(
    hd1: int, ps1: int, ng1: int, hd2: int, ps2: int, ng2: int, hd3: int, ps3: int, ng3: int
) -> bool:
    """cond_2_1_0 on canonical fields: whether r3 is redundant given r1
    and r2.

    The misfit of ri is the set of its atoms that do not fit inside r3
    field-wise (heads may land in hd3|ng3); cond_1_1_0(ri, r3) holds iff
    it is empty, as a canonical r3 is never deletable on its own.  With
    both misfits nonempty, a witness p of subsume_witness must be the
    whole of each: their union is then that single atom, and it must lie
    in (ps1|ps2) & (hd1|hd2|ng1|ng2) and pass the two cross checks."""
    hn3 = hd3 | ng3
    m1 = hd1 & ~hn3 | ps1 & ~ps3 | ng1 & ~ng3
    if not m1:
        return True
    m2 = hd2 & ~hn3 | ps2 & ~ps3 | ng2 & ~ng3
    if not m2:
        return True
    p = m1 | m2
    return not (
        p & (p - 1)
        or not p & (ps1 | ps2) & (hd1 | hd2 | ng1 | ng2)
        or p & ps1 & ng2 and hd1 & hd3
        or p & ps2 & ng1 and hd2 & hd3
    )


def cond_2_1_0(r1: Rule, r2: Rule, r3: Rule) -> bool:
    """Whether {r1, r2, r3} is strongly equivalent to {r1, r2}, for
    canonical rules: r3 is deletable given either rule alone, or the two
    rules jointly subsume it through a witness atom.

    That is, cond_1_1_0(r1, r3) or cond_1_1_0(r2, r3) or
    subsume_witness(r1, r2, r3) is not None, decided in one pass over the
    rules' fields."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    hd3, ps3, ng3 = r3.hd, r3.ps, r3.ng
    if (
        hd1 & (ps1 | ng1) | ps1 & ng1
        | hd2 & (ps2 | ng2) | ps2 & ng2
        | hd3 & (ps3 | ng3) | ps3 & ng3
    ):
        raise NotCanonicalError(_NOT_CANONICAL)
    return _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd3, ps3, ng3)


def cond_0_2_1(r1: Rule, r2: Rule, r3: Rule) -> bool:
    """Whether {r1, r2} is strongly equivalent to {r3}, for canonical
    rules: r3 is redundant given the pair, and each of the pair is
    redundant given r3.

    That is, cond_2_1_0(r1, r2, r3) and cond_1_1_0(r3, r1) and
    cond_1_1_0(r3, r2); the last two say that r3 fits inside r1 and
    inside r2 field-wise, and are tested first."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    hd3, ps3, ng3 = r3.hd, r3.ps, r3.ng
    if (
        hd1 & (ps1 | ng1) | ps1 & ng1
        | hd2 & (ps2 | ng2) | ps2 & ng2
        | hd3 & (ps3 | ng3) | ps3 & ng3
    ):
        raise NotCanonicalError(_NOT_CANONICAL)
    if hd3 & ~((hd1 | ng1) & (hd2 | ng2)) or ps3 & ~(ps1 & ps2) or ng3 & ~(ng1 & ng2):
        return False
    return _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd3, ps3, ng3)


def cond_0_2_2(r1: Rule, r2: Rule, r3: Rule, r4: Rule) -> bool:
    """Whether {r1, r2} is strongly equivalent to {r3, r4}, for canonical
    rules: each side's rules are redundant given the other side.

    That is, cond_2_1_0(r1, r2, r3) and cond_2_1_0(r1, r2, r4) and
    cond_2_1_0(r3, r4, r1) and cond_2_1_0(r3, r4, r2), with all four
    rules required canonical before any of them is tested."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    hd3, ps3, ng3 = r3.hd, r3.ps, r3.ng
    hd4, ps4, ng4 = r4.hd, r4.ps, r4.ng
    if (
        hd1 & (ps1 | ng1) | ps1 & ng1
        | hd2 & (ps2 | ng2) | ps2 & ng2
        | hd3 & (ps3 | ng3) | ps3 & ng3
        | hd4 & (ps4 | ng4) | ps4 & ng4
    ):
        raise NotCanonicalError(_NOT_CANONICAL)
    return (
        _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd3, ps3, ng3)
        and _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd4, ps4, ng4)
        and _redundant(hd3, ps3, ng3, hd4, ps4, ng4, hd1, ps1, ng1)
        and _redundant(hd3, ps3, ng3, hd4, ps4, ng4, hd2, ps2, ng2)
    )


# bytes.translate tables: an octet to b"1" or b"0" by its bit j
_BIT_DIGITS = [bytes(0x30 | v >> j & 1 for v in range(256)) for j in range(8)]


def _columns(digits: bytes, atom_count: int) -> list[int]:
    """Per atom j, the int whose bit i is set iff atom j is in the i-th
    value, the values given as octets, the last one first."""
    return [int(digits.translate(_BIT_DIGITS[j]) or b"0", 2) for j in range(atom_count)]


def set_table(columns: Sequence[int], start: int) -> list[int]:
    """table[S]: the AND of start and columns[j] over the j in S.  Every
    table of subset ANDs in the package is built here: a row's set tables
    and lookup tables, and the harness's pair layout."""
    table = [start]
    for column in columns:  # the sets holding atom j follow those that do not
        table += [t & column for t in table]
    return table


# The most atoms a `SlicedRow` takes: it reads each field as one octet.
SLICED_ATOMS = 8


class SlicedRow:
    """A row of rules bit-sliced: bit i of every int stands for the row's
    i-th rule.  `hd`, `ps`, `ng` and `hn` (hd | ng) hold one column per
    atom, the rules whose field holds the atom; `deletable` holds the rules
    deletable on their own.  `sup_F[S]` and `miss_F[S]`, for F one of
    those four fields, are the rules whose F holds every atom of the set S
    and those whose F misses S; the four tables of a kind are built on
    the first read of one of them, so a row keeps only the kinds its
    reads need.  Canonicity is read off the columns once, when the row is
    built."""

    def __init__(self, fields: Sequence[Fields], atom_count: int) -> None:
        """The row of these (hd, ps, ng) triples over at most SLICED_ATOMS
        atoms (bytes raises ValueError past that)."""
        self.ones = (1 << len(fields)) - 1
        self.atoms = (1 << atom_count) - 1
        # the octets of ng, ps and hd of each rule in turn, the last rule first
        digits = bytes(chain.from_iterable(fields))[::-1]
        self.ng = _columns(digits[0::3], atom_count)
        self.ps = _columns(digits[1::3], atom_count)
        self.hd = _columns(digits[2::3], atom_count)
        self.hn = [hd | ng for hd, ng in zip(self.hd, self.ng)]
        mixed = deletable = 0
        for hd, ps, ng, hn in zip(self.hd, self.ps, self.ng, self.hn):
            mixed |= hd & (ps | ng) | ps & ng
            deletable |= hn & ps
        self.canonical = not mixed
        self.deletable = deletable

    def __getattr__(self, name: str) -> list[int]:
        # reached only while the table is unbuilt: build it, with the other
        # three of its kind, and keep them
        kind, _, field = name.partition("_")
        if kind not in ("sup", "miss") or field not in _FIELDS:
            raise AttributeError(name)
        tables = self.__dict__
        ones = self.ones
        for each in _FIELDS:
            columns = tables[each]
            if kind == "miss":
                columns = [ones ^ column for column in columns]
            tables[f"{kind}_{each}"] = set_table(columns, ones)
        return tables[name]


_FIELDS = ("hd", "ps", "ng", "hn")


def _check_fixed(*rules: Rule) -> None:
    """Raise NotCanonicalError unless every fixed rule is canonical."""
    for r in rules:
        if r.hd & (r.ps | r.ng) | r.ps & r.ng:
            raise NotCanonicalError(_NOT_CANONICAL)


def _check_row(row: SlicedRow) -> None:
    if not row.canonical:
        raise NotCanonicalError(_NOT_CANONICAL)


def row_0_1_0(row: SlicedRow) -> int:
    """cond_0_1_0(r) for each rule r of the row."""
    return row.deletable


def row_1_1_0(r1: Rule, row: SlicedRow) -> int:
    """cond_1_1_0(r1, r2) for each rule r2 of the row."""
    return row.deletable | row.sup_ps[r1.ps] & row.sup_ng[r1.ng] & row.sup_hn[r1.hd]


def row_s_implies(r1: Rule, row: SlicedRow) -> int:
    """s_implies(r1, r2) for each rule r2 of the row: an atom of hd1 in
    ng1 must be in hd2, any other in hd2 | ng2."""
    hd1, ng1 = r1.hd, r1.ng
    return row.sup_ps[r1.ps] & row.sup_ng[ng1] & row.sup_hd[hd1 & ng1] & row.sup_hn[hd1 & ~ng1]


def row_0_1_1(r1: Rule, row: SlicedRow) -> int:
    """cond_0_1_1(r1, r2) for each rule r2 of the row.  Equal fields make
    r1 and r2 deletable alike, so with r1 deletable the verdict is whether
    r2 is, and otherwise whether the fields are equal."""
    hn1, ps1, ng1 = r1.hd | r1.ng, r1.ps, r1.ng
    if hn1 & ps1:
        return row.deletable
    atoms = row.atoms
    return (
        row.sup_ps[ps1] & row.miss_ps[atoms ^ ps1]
        & row.sup_ng[ng1] & row.miss_ng[atoms ^ ng1]
        & row.sup_hn[hn1] & row.miss_hn[atoms ^ hn1]
    )


def _supported(r1: Rule, r2: Rule, row: SlicedRow) -> int:
    """`_redundant(r1, r2, r3)` for each rule r3 of the row: r3 holds r1
    or r2 whole (an empty misfit), or both but for one witness atom p,
    which must pass the cross checks."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    sup_hn, sup_ps, sup_ng = row.sup_hn, row.sup_ps, row.sup_ng
    rows = sup_hn[hd1] & sup_ps[ps1] & sup_ng[ng1] | sup_hn[hd2] & sup_ps[ps2] & sup_ng[ng2]
    hd, ps, ng = hd1 | hd2, ps1 | ps2, ng1 | ng2
    witness = ps & (hd | ng)
    while witness:
        p = witness & -witness
        witness ^= p
        both = sup_hn[hd & ~p] & sup_ps[ps & ~p] & sup_ng[ng & ~p]
        if p & ps1 & ng2:
            both &= row.miss_hd[hd1]
        if p & ps2 & ng1:
            both &= row.miss_hd[hd2]
        rows |= both
    return rows


def _supporting(r1: Rule, row: SlicedRow, r3: Rule) -> int:
    """`_redundant(r1, r2, r3)` for each rule r2 of the row.  r1's misfit
    in r3 is fixed: empty, every r2 will do; of two atoms or more, only an
    r2 that fits whole; of one atom p, also an r2 whose misfit is p, where
    p passes the witness test and the cross checks."""
    hn3, ps3, ng3 = r3.hd | r3.ng, r3.ps, r3.ng
    m1 = r1.hd & ~hn3 | r1.ps & ~ps3 | r1.ng & ~ng3
    if not m1:
        return row.ones
    miss_hd, miss_ps, miss_ng = row.miss_hd, row.miss_ps, row.miss_ng
    off_hd, off_ps, off_ng = row.atoms & ~hn3, row.atoms & ~ps3, row.atoms & ~ng3
    rows = miss_hd[off_hd] & miss_ps[off_ps] & miss_ng[off_ng]
    if m1 & (m1 - 1):
        return rows
    p = m1
    one = miss_hd[off_hd & ~p] & miss_ps[off_ps & ~p] & miss_ng[off_ng & ~p]
    if not p & r1.ps:
        one &= row.sup_ps[p]
    if not p & (r1.hd | r1.ng):
        one &= row.sup_hn[p]
    if p & r1.ps and r1.hd & r3.hd:
        one &= miss_ng[p]
    if p & r1.ng:
        one &= ~(row.sup_ps[p] & ~miss_hd[r3.hd])
    return rows | one


def row_2_1_0(r1: Rule, r2: Rule, row: SlicedRow) -> int:
    """cond_2_1_0(r1, r2, r3) for each rule r3 of the row."""
    _check_fixed(r1, r2)
    _check_row(row)
    return _supported(r1, r2, row)


def row_0_2_1(r1: Rule, r2: Rule, row: SlicedRow) -> int:
    """cond_0_2_1(r1, r2, r3) for each rule r3 of the row: whether r3 fits
    inside the caps of r1's and r2's fields, and `_supported`."""
    _check_fixed(r1, r2)
    _check_row(row)
    atoms = row.atoms
    caps = (
        row.miss_hd[atoms & ~((r1.hd | r1.ng) & (r2.hd | r2.ng))]
        & row.miss_ps[atoms & ~(r1.ps & r2.ps)]
        & row.miss_ng[atoms & ~(r1.ng & r2.ng)]
    )
    return caps and caps & _supported(r1, r2, row)


def row_0_2_2(r1: Rule, r2: Rule, r3: Rule, row: SlicedRow) -> int:
    """cond_0_2_2(r1, r2, r3, r4) for each rule r4 of the row.  The first
    of its four `_redundant` tests depends on r1, r2 and r3 alone: it is
    made once, and where it fails so does the whole row."""
    _check_fixed(r1, r2, r3)
    _check_row(row)
    if not _redundant(r1.hd, r1.ps, r1.ng, r2.hd, r2.ps, r2.ng, r3.hd, r3.ps, r3.ng):
        return 0
    return _supported(r1, r2, row) & _supporting(r3, row, r1) & _supporting(r3, row, r2)


RowForm = Callable[..., int]

# The row form of each predicate, looked up by the predicate itself.
ROW_FORMS: dict[Callable[..., bool], RowForm] = {
    cond_0_1_0: row_0_1_0,
    cond_1_1_0: row_1_1_0,
    cond_0_1_1: row_0_1_1,
    cond_2_1_0: row_2_1_0,
    cond_0_2_1: row_0_2_1,
    cond_0_2_2: row_0_2_2,
    s_implies: row_s_implies,
}


def exhaustive_atom_bound(k: int, m: int, n: int, w: int) -> int:
    """Atom count at which exhaustive checking establishes the sufficiency
    direction of a prenex exists-forall condition with w leading witness
    variables for the k-m-n question (m >= n assumed)."""
    if m < n:
        raise ValueError("exhaustive_atom_bound requires m >= n")
    if n > 0:
        return w + 2 * (k + m)
    bound = w + 2 * k
    return bound if bound > 0 else 1
