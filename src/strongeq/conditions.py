"""Exact syntactic conditions for small-shape strong-equivalence questions.

Each cond_k_m_n decides, by set algebra alone, whether k shared rules plus
m rules are strongly equivalent to the k shared rules plus n rules.  The
discovery harness re-verifies every one of these predicates against the
semantic oracle by exhaustive enumeration.

Each predicate also has a row form, `ROW_FORMS[predicate]`: it fixes every
rule but the last and decides a whole row of last rules, given as their
(hd, ps, ng) field triples, returning the verdicts in row order.  It reads
the fixed rules once and hoists every term that depends on them alone.  A
canonical-only row form checks the fixed rules once per call and the row
once: a `CanonicalRow` was checked when it was built, any other row is
checked on each call.  The harness calls the row forms; the simplifier
calls the predicates, one tuple at a time (a row form called on a
one-rule row took about 3.5 times as long), and the tests tie the two
forms together exhaustively.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import NotCanonicalError
from .syntax import Rule

Fields = tuple[int, int, int]


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


def _check_row(row: Sequence[Fields]) -> None:
    """Raise NotCanonicalError unless every rule of the row is canonical."""
    for hd, ps, ng in row:
        if hd & (ps | ng) | ps & ng:
            raise NotCanonicalError(_NOT_CANONICAL)


class CanonicalRow(tuple):
    """Field triples checked canonical once, when the row is built, so
    that a row form need not check them again on each call (a row of the
    harness meets one call per prefix) and may rely on them: no canonical
    rule is deletable on its own."""

    __slots__ = ()

    def __new__(cls, fields: Iterable[Fields]) -> CanonicalRow:
        row = tuple.__new__(cls, fields)
        _check_row(row)
        return row

    def part(self, indices: Iterable[int]) -> CanonicalRow:
        """The triples at these indices, as canonical as this row."""
        return tuple.__new__(CanonicalRow, [self[i] for i in indices])


def row_0_1_0(row: Sequence[Fields]) -> list[bool]:
    """cond_0_1_0(r) for each rule r of the row."""
    if row.__class__ is CanonicalRow:  # a canonical rule is never deletable
        return [False] * len(row)
    return [(hd | ng) & ps != 0 for hd, ps, ng in row]


def row_1_1_0(r1: Rule, row: Sequence[Fields]) -> list[bool]:
    """cond_1_1_0(r1, r2) for each rule r2 of the row."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    if row.__class__ is CanonicalRow:  # no r2 is deletable on its own
        return [
            True if ps1 | ps == ps and ng1 | ng == ng and hd1 | (hn := hd | ng) == hn else False
            for hd, ps, ng in row
        ]
    return [
        True if (hn := hd | ng) & ps or ps1 | ps == ps and ng1 | ng == ng and hd1 | hn == hn
        else False
        for hd, ps, ng in row
    ]


def row_s_implies(r1: Rule, row: Sequence[Fields]) -> list[bool]:
    """s_implies(r1, r2) for each rule r2 of the row."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    off1 = ~ng1
    return [
        ps1 | ps == ps and ng1 | ng == ng and hd1 | (h := hd | ng & off1) == h
        for hd, ps, ng in row
    ]


def row_0_1_1(r1: Rule, row: Sequence[Fields]) -> list[bool]:
    """cond_0_1_1(r1, r2) for each rule r2 of the row.  Equal fields make
    r1 and r2 deletable alike, so with r1 deletable the verdict is whether
    r2 is, and otherwise whether the fields are equal."""
    hn1, ps1, ng1 = r1.hd | r1.ng, r1.ps, r1.ng
    if hn1 & ps1:
        return [(hd | ng) & ps != 0 for hd, ps, ng in row]
    return [ps == ps1 and ng == ng1 and hd | ng == hn1 for hd, ps, ng in row]


def row_2_1_0(r1: Rule, r2: Rule, row: Sequence[Fields]) -> list[bool]:
    """cond_2_1_0(r1, r2, r3) for each rule r3 of the row: `_redundant`
    with the witness set and the cross checks' masks read off r1 and r2
    once."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    if hd1 & (ps1 | ng1) | ps1 & ng1 | hd2 & (ps2 | ng2) | ps2 & ng2:
        raise NotCanonicalError(_NOT_CANONICAL)
    if row.__class__ is not CanonicalRow:
        _check_row(row)
    witness = (ps1 | ps2) & (hd1 | hd2 | ng1 | ng2)
    cross1, cross2 = ps1 & ng2, ps2 & ng1
    return [
        not (m1 := hd1 & ~(hn := hd | ng) | ps1 & ~ps | ng1 & ~ng)
        or not (m2 := hd2 & ~hn | ps2 & ~ps | ng2 & ~ng)
        or not (
            (p := m1 | m2) & (p - 1)
            or not p & witness
            or p & cross1 and hd1 & hd
            or p & cross2 and hd2 & hd
        )
        for hd, ps, ng in row
    ]


def row_0_2_1(r1: Rule, r2: Rule, row: Sequence[Fields]) -> list[bool]:
    """cond_0_2_1(r1, r2, r3) for each rule r3 of the row: whether r3 fits
    inside the caps of r1's and r2's fields, then `row_2_1_0`'s test."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    if hd1 & (ps1 | ng1) | ps1 & ng1 | hd2 & (ps2 | ng2) | ps2 & ng2:
        raise NotCanonicalError(_NOT_CANONICAL)
    if row.__class__ is not CanonicalRow:
        _check_row(row)
    off_hd, off_ps, off_ng = ~((hd1 | ng1) & (hd2 | ng2)), ~(ps1 & ps2), ~(ng1 & ng2)
    witness = (ps1 | ps2) & (hd1 | hd2 | ng1 | ng2)
    cross1, cross2 = ps1 & ng2, ps2 & ng1
    return [
        not (hd & off_hd or ps & off_ps or ng & off_ng)
        and (
            not (m1 := hd1 & ~(hn := hd | ng) | ps1 & ~ps | ng1 & ~ng)
            or not (m2 := hd2 & ~hn | ps2 & ~ps | ng2 & ~ng)
            or not (
                (p := m1 | m2) & (p - 1)
                or not p & witness
                or p & cross1 and hd1 & hd
                or p & cross2 and hd2 & hd
            )
        )
        for hd, ps, ng in row
    ]


def row_0_2_2(r1: Rule, r2: Rule, r3: Rule, row: Sequence[Fields]) -> list[bool]:
    """cond_0_2_2(r1, r2, r3, r4) for each rule r4 of the row.  The first
    of its four `_redundant` tests depends on r1, r2 and r3 alone: it is
    made once, and where it fails so does the whole row."""
    hd1, ps1, ng1 = r1.hd, r1.ps, r1.ng
    hd2, ps2, ng2 = r2.hd, r2.ps, r2.ng
    hd3, ps3, ng3 = r3.hd, r3.ps, r3.ng
    if (
        hd1 & (ps1 | ng1) | ps1 & ng1
        | hd2 & (ps2 | ng2) | ps2 & ng2
        | hd3 & (ps3 | ng3) | ps3 & ng3
    ):
        raise NotCanonicalError(_NOT_CANONICAL)
    if row.__class__ is not CanonicalRow:
        _check_row(row)
    if not _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd3, ps3, ng3):
        return [False] * len(row)
    return [
        _redundant(hd1, ps1, ng1, hd2, ps2, ng2, hd, ps, ng)
        and _redundant(hd3, ps3, ng3, hd, ps, ng, hd1, ps1, ng1)
        and _redundant(hd3, ps3, ng3, hd, ps, ng, hd2, ps2, ng2)
        for hd, ps, ng in row
    ]


RowForm = Callable[..., list[bool]]

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
