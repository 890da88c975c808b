"""Rule and program data model, text syntax, and isomorphism.

Atom sets are plain ints used as bitmasks: bit i stands for the atom with
id i in the session's symbol table.  All set algebra downstream is mask
arithmetic, which is what keeps the exhaustive harness fast.
"""

from __future__ import annotations

import functools
import re
from itertools import permutations, starmap
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, TooManyAtomsError

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


class Symbols:
    """Append-only per-session symbol table; atom ids are dense from 0.

    Bitmask positions of every Rule built in a session index into one of
    these, so a table must be shared by everything that is compared or
    combined.  A frozen table refuses new atoms: `language_symbols`
    freezes its table a1..aN so that no text read against it adds an atom
    outside the enumeration language.
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


_set_hd, _set_ps, _set_ng = Rule.hd.__set__, Rule.ps.__set__, Rule.ng.__set__


class Program:
    """An ordered, duplicate-free sequence of rules; immutable, equal and
    hashed by its rules."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        object.__setattr__(self, "rules", tuple(dict.fromkeys(rules)))

    __setattr__ = __delattr__ = _read_only

    @classmethod
    def _of_distinct(cls, rules: tuple[Rule, ...]) -> Program:
        """The program of `rules`, which the caller has made duplicate-free;
        no rule is hashed."""
        program = object.__new__(cls)
        object.__setattr__(program, "rules", rules)
        return program

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
            m |= r.hd | r.ps | r.ng
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
# parse_program first matches the whole text against one regex
# (_program_pattern), comments deleted (a comment ends at '\n' or at the
# end of the text, so no two tokens join).  In text that matched, every
# '.' ends a statement, ':-' starts a body and 'not' is a word of its own,
# so _statement_fields reads the rules off the words with str methods,
# interning atoms in textual order (head atoms, then body literals).
# Other text goes unchanged to the token parser (_Parser), which raises
# the ParseError with the line and column of the offending token; nothing
# was interned before it ran.  parse_rule, which reads one statement,
# always uses the token parser.
#
# The pattern gives whitespace exactly one way to match: two adjacent \s*
# around an optional group make a failing match backtrack quadratically
# (16,000 spaces and a '?' then take seconds).  Malformed text of any
# length must fail in time linear in its length; tests/test_syntax.py
# holds adversarial inputs of 100k characters and more to it.

_ATOM = r"(?!not(?![A-Za-z0-9_]))[a-z][A-Za-z0-9_]*"
_LITERAL = rf"(?:not\s+)?{_ATOM}"


@functools.cache
def _program_pattern():
    """The whole-text matcher and the comment remover, compiled on first
    use so that importing the package does not pay for them."""
    statement = (rf"\s*(?:{_ATOM}(?:\s*;\s*{_ATOM})*\s*)?"
                 rf"(?::-\s*(?:{_LITERAL}(?:\s*,\s*{_LITERAL})*\s*)?)?\.")
    return re.compile(rf"(?:{statement})*\s*").fullmatch, re.compile(r"%[^\n]*").sub


def _well_formed(text: str) -> str | None:
    """The text without comments if it is well-formed statements, else None."""
    match, drop_comments = _program_pattern()
    if "%" in text:
        text = drop_comments("", text)
    return None if match(text) is None else text


def _statement_fields(text: str, symbols: Symbols) -> list[tuple[int, int, int]]:
    """Each statement's (hd, ps, ng), in order, from `_well_formed` text."""
    intern = symbols.intern
    fields = []
    hd = ps = ng = 0
    body = negated = False
    words = text.replace(".", " . ").replace(":-", " :- ").replace(";", " ").replace(",", " ")
    for word in words.split():
        if word == ".":
            fields.append((hd, ps, ng))
            hd = ps = ng = 0
            body = False
        elif word == ":-":
            body = True
        elif word == "not":  # the text matched, so a negated atom follows
            negated = True
        else:
            bit = 1 << intern(word)
            if negated:
                ng |= bit
                negated = False
            elif body:
                ps |= bit
            else:
                hd |= bit
    return fields


# The token parser: parse_rule's reader, the positioned errors for
# malformed program text, and the reference the whole-text reading is
# tested against.


class _Token(NamedTuple):
    kind: str  # 'atom' 'not' ';' ',' '.' ':-' 'eof'
    text: str
    offset: int


def _error(message: str, text: str, offset: int) -> ParseError:
    """The error at an offset, with its 1-based line and column: only
    '\n' ends a line."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


@functools.cache
def _token_finder():
    """The tokenizer's pattern, compiled on first use: only parse_rule and
    program text that the whole-text match rejects need it."""
    return re.compile(rf"\s+|%[^\n]*|({ATOM_NAME.pattern}|:-|[;,.])|(.)").finditer


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _token_finder()(text):  # whitespace and comments match no group
        word, other = m.groups()
        if word:
            kind = word if word in ("not", ";", ",", ".", ":-") else "atom"
            toks.append(_Token(kind, word, m.start()))
        elif other:
            message = "expected ':-'" if other == ":" else f"unexpected character {other!r}"
            raise _error(message, text, m.start())
    toks.append(_Token("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, symbols: Symbols):
        self.text = text
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
        return _error(message, self.text, self.cur.offset)

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
    """Parse exactly one rule statement with the token parser, which
    raises a ParseError carrying the line and column of the first
    offending token."""
    return _Parser(text, symbols).rule()


def parse_program(text: str, symbols: Symbols) -> Program:
    """Parse a whole program; rules keep first-occurrence order and exact
    duplicates are dropped.

    Well-formed text is read with one regex match of the whole text and
    str methods, in time linear in its length; atoms are interned only once
    the whole text has matched.  Any other text goes to the token parser, which raises a
    ParseError carrying the line and column of the first offending token.
    """
    statements = _well_formed(text)
    if statements is None:
        return _Parser(text, symbols).program()
    # duplicates go on the field triples, which hash in C; no Rule is hashed
    fields = dict.fromkeys(_statement_fields(statements, symbols))
    return Program._of_distinct(tuple(starmap(Rule, fields)))


def format_rule(r: Rule, symbols: Symbols) -> str:
    """Render a rule in the text syntax; atoms appear in session id order.

    Round-trips: parse_rule(format_rule(r)) == r.
    """
    name = symbols._names.__getitem__
    head = "; ".join(map(name, bits_of(r.hd)))
    body_parts = list(map(name, bits_of(r.ps)))
    body_parts += ["not " + atom for atom in map(name, bits_of(r.ng))]
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


# --- isomorphism -----------------------------------------------------------


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
