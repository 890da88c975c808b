"""Rule and program data model, text syntax, renaming, and isomorphism.

Atom sets are plain ints used as bitmasks: bit i stands for the atom with
id i in the session's symbol table.  All set algebra downstream is mask
arithmetic, which is what keeps the exhaustive harness fast.
"""

from __future__ import annotations

import functools
import re
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError, TooManyAtomsError, UnmappedAtomError

ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")

ISO_ATOM_LIMIT = 8


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(bits: Iterable[int]) -> int:
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def subsets_of(mask: int) -> Iterator[int]:
    """Yield every submask of `mask`, ascending by cardinality then by the
    sorted tuple of bit positions.  This is the canonical subset order used
    everywhere a deterministic enumeration is promised."""
    positions = tuple(bits_of(mask))
    for size in range(len(positions) + 1):
        for combo in combinations(positions, size):
            yield mask_of(combo)


class Symbols:
    """Append-only per-session symbol table; atom ids are dense from 0.

    Bitmask positions of every Rule built in a session index into one of
    these, so a table must be shared by everything that is compared or
    combined.  Freeze it before handing rules to parallel workers.
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._names)

    def intern(self, name: str) -> int:
        """Return the id for `name`, adding it to the table if new."""
        got = self._ids.get(name)
        if got is not None:
            return got
        if self._frozen:
            raise RuntimeError(f"symbol table is frozen; cannot add {name!r}")
        if ATOM_NAME.fullmatch(name) is None:
            raise ValueError(f"invalid atom name: {name!r}")
        new_id = len(self._names)
        self._names.append(name)
        self._ids[name] = new_id
        return new_id

    def name(self, atom_id: int) -> str:
        return self._names[atom_id]

    def mask(self, *names: str) -> int:
        return mask_of(self.intern(n) for n in names)

    def names(self, mask: int) -> tuple[str, ...]:
        """Names of the atoms in a mask, in id order."""
        return tuple(self._names[i] for i in bits_of(mask))

    def freeze(self) -> None:
        self._frozen = True


def _read_only(self, name: str, value: object = None) -> None:
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Rule:
    """A rule hd <- ps, not ng with each field an atom-set bitmask.

    Immutable, equal and hashed by the field tuple (hd, ps, ng).  A slotted
    class, not a tuple: the conditions read rule fields in the verify
    harness's innermost loop, and CPython specializes slot reads but not
    the item getters of a NamedTuple, which take about twice as long (a
    NamedTuple Rule made `verify` a fifth slower).
    """

    __slots__ = ("hd", "ps", "ng")

    def __init__(self, hd: int, ps: int, ng: int) -> None:
        # the slot descriptors store past the read-only __setattr__
        _set_hd(self, hd)
        _set_ps(self, ps)
        _set_ng(self, ng)

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.hd, self.ps, self.ng) == (other.hd, other.ps, other.ng)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.hd, self.ps, self.ng))

    def __repr__(self) -> str:
        return f"Rule(hd={self.hd!r}, ps={self.ps!r}, ng={self.ng!r})"

    def __reduce__(self):
        return Rule, (self.hd, self.ps, self.ng)

    @property
    def atoms(self) -> int:
        return self.hd | self.ps | self.ng

    @property
    def literal_count(self) -> int:
        return self.hd.bit_count() + self.ps.bit_count() + self.ng.bit_count()


_set_hd, _set_ps, _set_ng = Rule.hd.__set__, Rule.ps.__set__, Rule.ng.__set__


def is_canonical(r: Rule) -> bool:
    """True iff hd, ps, ng are pairwise disjoint."""
    return not (r.hd & r.ps or r.hd & r.ng or r.ps & r.ng)


class Program:
    """An ordered, duplicate-free sequence of rules; immutable, equal and
    hashed by its rules."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        object.__setattr__(self, "rules", tuple(dict.fromkeys(rules)))

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.rules == other.rules
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rules,))

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r})"

    def __reduce__(self):
        return Program, (self.rules,)

    @property
    def atoms(self) -> int:
        m = 0
        for r in self.rules:
            m |= r.atoms
        return m

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)


# --- text syntax -----------------------------------------------------------
#
# program  := (statement | comment)*       comment: '%' to end of line
# statement:= head? (':-' body?)? '.'
# head     := atom (';' atom)*
# body     := literal (',' literal)*
# literal  := 'not' atom | atom
# atom     := [a-z][A-Za-z0-9_]*            'not' alone is never an atom
#
# Whitespace is any Unicode whitespace (str.isspace, which is also what \s
# matches).  It may stand between any two tokens and is needed only between
# 'not' and its atom: 'notb' is an atom.
#
# parse_program and parse_rule read well-formed text with one anchored
# regex match per statement (_scanner): comments are first blanked to
# spaces of the same length, then each match yields the statement's head
# and body text.  Only when the matches reach the end of the text, up to
# trailing whitespace, are the atoms interned, in textual order (head
# atoms, then body literals), and the rules built.  Text the scan stops
# short on goes to the token parser (_Parser) unchanged; it raises the
# positioned ParseError, and since nothing was interned before it ran the
# symbol table ends up exactly as the token parser leaves it.
#
# The statement pattern gives whitespace exactly one way to match: two
# adjacent \s* around an optional group make a failing match backtrack
# quadratically (16,000 spaces and a '?' then take seconds).  Malformed
# text of any length must fail in time linear in its length;
# tests/test_syntax.py holds adversarial inputs of 100k characters to it.

_ATOM = r"(?!not(?![A-Za-z0-9_]))[a-z][A-Za-z0-9_]*"
_LITERAL = rf"(?:not\s+)?{_ATOM}"


@functools.cache
def _scanner():
    """The statement matcher and the comment blanker, compiled on first use
    so that importing the package does not pay for them."""
    statement = re.compile(
        rf"\s*(?:(?P<head>{_ATOM}(?:\s*;\s*{_ATOM})*)\s*)?"
        rf"(?::-\s*(?:(?P<body>{_LITERAL}(?:\s*,\s*{_LITERAL})*)\s*)?)?\."
    )
    comment = re.compile(r"%[^\n]*")
    return statement.match, comment.sub


def _blank(m: re.Match) -> str:
    return " " * (m.end() - m.start())


def _scan(text: str) -> list[tuple[str | None, str | None]] | None:
    """The (head, body) text of every statement, or None when the text is
    not a sequence of well-formed statements."""
    match, blank_comments = _scanner()
    if "%" in text:
        text = blank_comments(_blank, text)
    statements = []
    pos = 0
    while m := match(text, pos):
        statements.append(m.group("head", "body"))
        pos = m.end()
    if pos < len(text) and not text[pos:].isspace():
        return None
    return statements


def _build_rules(statements: list[tuple[str | None, str | None]], symbols: Symbols) -> list[Rule]:
    intern = symbols.intern
    rules = []
    for head, body in statements:
        hd = ps = ng = 0
        if head:
            for name in head.replace(";", " ").split():
                hd |= 1 << intern(name)
        if body:
            # the text matched, so a word 'not' can only prefix a negated atom
            negated = False
            for word in body.replace(",", " ").split():
                if word == "not":
                    negated = True
                elif negated:
                    ng |= 1 << intern(word)
                    negated = False
                else:
                    ps |= 1 << intern(word)
        rules.append(Rule(hd, ps, ng))
    return rules


# The token parser: the positioned errors for malformed text, and the
# reference the statement scan is tested against.


class _Token(NamedTuple):
    kind: str  # 'atom' 'not' ';' ',' '.' ':-' 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            end = text.find("\n", i)
            end = n if end < 0 else end
            col += end - i
            i = end
            continue
        m = ATOM_NAME.match(text, i)
        if m:
            word = m.group(0)
            kind = "not" if word == "not" else "atom"
            toks.append(_Token(kind, word, line, col))
            i += len(word)
            col += len(word)
            continue
        if c in ";,.":
            toks.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c == ":":
            if text[i : i + 2] == ":-":
                toks.append(_Token(":-", ":-", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("expected ':-'", line, col)
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, symbols: Symbols):
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols = symbols

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def _found(self) -> str:
        tok = self.cur
        return "end of input" if tok.kind == "eof" else f"'{tok.text}'"

    def expect_atom(self, where: str) -> int:
        if self.cur.kind != "atom":
            raise self.fail(f"expected atom {where}, found {self._found()}")
        tok = self.cur
        self.advance()
        return self.symbols.intern(tok.text)

    def statement(self) -> Rule:
        hd = ps = ng = 0
        if self.cur.kind == "atom":
            hd |= 1 << self.expect_atom("in head")
            while self.cur.kind == ";":
                self.advance()
                hd |= 1 << self.expect_atom("after ';'")
        if self.cur.kind == ":-":
            self.advance()
            if self.cur.kind in ("atom", "not"):
                ps, ng = self.literal(ps, ng)
                while self.cur.kind == ",":
                    self.advance()
                    ps, ng = self.literal(ps, ng)
        if self.cur.kind != ".":
            raise self.fail(f"expected '.' to end statement, found {self._found()}")
        self.advance()
        return Rule(hd, ps, ng)

    def literal(self, ps: int, ng: int) -> tuple[int, int]:
        if self.cur.kind == "not":
            self.advance()
            ng |= 1 << self.expect_atom("after 'not'")
        else:
            ps |= 1 << self.expect_atom("in body")
        return ps, ng

    def rule(self) -> Rule:
        rule = self.statement()
        if self.cur.kind != "eof":
            raise self.fail(f"trailing input after rule: '{self.cur.text}'")
        return rule

    def program(self) -> Program:
        rules: list[Rule] = []
        while self.cur.kind != "eof":
            rules.append(self.statement())
        return Program(tuple(rules))


def parse_rule(text: str, symbols: Symbols) -> Rule:
    """Parse exactly one rule statement.

    Like parse_program: one statement match, and the token parser only for
    text that is not exactly one well-formed statement.
    """
    statements = _scan(text)
    if statements is None or len(statements) != 1:
        return _Parser(text, symbols).rule()
    return _build_rules(statements, symbols)[0]


def parse_program(text: str, symbols: Symbols) -> Program:
    """Parse a whole program; rules keep first-occurrence order and exact
    duplicates are dropped.

    Well-formed text is read with one regex match per statement, in time
    linear in its length; atoms are interned only once the whole text has
    matched.  Any other text goes to the token parser, which raises a
    ParseError carrying the line and column of the first offending token.
    """
    statements = _scan(text)
    if statements is None:
        return _Parser(text, symbols).program()
    return Program(tuple(_build_rules(statements, symbols)))


def format_rule(r: Rule, symbols: Symbols) -> str:
    """Render a rule in the text syntax; atoms appear in session id order.

    Round-trips: parse_rule(format_rule(r)) == r.
    """
    head = "; ".join(symbols.name(i) for i in bits_of(r.hd))
    body_parts = [symbols.name(i) for i in bits_of(r.ps)]
    body_parts += ["not " + symbols.name(i) for i in bits_of(r.ng)]
    body = ", ".join(body_parts)
    if head and body:
        return f"{head} :- {body}."
    if head:
        return f"{head}."
    if body:
        return f":- {body}."
    return ":- ."


def format_program(p: Program, symbols: Symbols) -> str:
    return "".join(format_rule(r, symbols) + "\n" for r in p.rules)


# --- renaming and isomorphism ----------------------------------------------


def rename_rule(r: Rule, mapping: Mapping[int, int]) -> Rule:
    """Apply a total atom map (by id) to a rule; sets may shrink when the
    map is not injective."""

    def remap(mask: int) -> int:
        out = 0
        for b in bits_of(mask):
            try:
                out |= 1 << mapping[b]
            except KeyError:
                raise UnmappedAtomError(f"atom id {b} is not in the rename map") from None
        return out

    return Rule(remap(r.hd), remap(r.ps), remap(r.ng))


def rename_program(p: Program, mapping: Mapping[int, int]) -> Program:
    """Apply a total atom map to every rule; rules that collide afterwards
    are merged."""
    return Program(tuple(rename_rule(r, mapping) for r in p.rules))


def iso_canonical_form(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Canonical representative of a rule tuple under bijective renaming.

    The occurring atoms are first compressed to ids 0..t-1 (in id order),
    then every permutation of those ids is tried and the lexicographically
    least encoding (as a sequence of (hd, ps, ng) triples) wins.  Two
    tuples get the same form iff some atom bijection maps one to the other
    position-wise.  Exhaustive permutation search, so at most 8 atoms.
    """
    occurring = 0
    for r in rules:
        occurring |= r.atoms
    positions = tuple(bits_of(occurring))
    t = len(positions)
    if t > ISO_ATOM_LIMIT:
        raise TooManyAtomsError("iso_canonical_form", t, ISO_ATOM_LIMIT)

    compress = {b: i for i, b in enumerate(positions)}
    base = [
        (
            mask_of(compress[b] for b in bits_of(r.hd)),
            mask_of(compress[b] for b in bits_of(r.ps)),
            mask_of(compress[b] for b in bits_of(r.ng)),
        )
        for r in rules
    ]

    def encode(perm: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (
                mask_of(perm[b] for b in bits_of(hd)),
                mask_of(perm[b] for b in bits_of(ps)),
                mask_of(perm[b] for b in bits_of(ng)),
            )
            for hd, ps, ng in base
        )

    best = min(encode(perm) for perm in permutations(range(t)))
    return tuple(Rule(*masks) for masks in best)
