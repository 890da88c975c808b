"""Data model, parsing, formatting, renaming, and isomorphism forms."""

import json
import os
import pickle
import random
import subprocess
import sys
from itertools import permutations, starmap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strongeq import (
    ParseError,
    Program,
    Rule,
    Symbols,
    TooManyAtomsError,
    format_program,
    format_rule,
    iso_canonical_form,
    parse_program,
    parse_rule,
)
from strongeq.syntax import _Parser, bits_of, mask_of
from conftest import random_program
from reference import UnmappedAtomError, is_canonical, rename_program, rename_rule, subsets_of

ROOT = Path(__file__).resolve().parent.parent


def fresh(*names: str) -> Symbols:
    symbols = Symbols()
    for n in names:
        symbols.intern(n)
    return symbols


def names(symbols: Symbols) -> list[str]:
    """The table's names in id order."""
    return [symbols.name(i) for i in range(len(symbols))]


class TestSymbols:
    def test_ids_are_dense_and_bijective(self):
        t = Symbols()
        assert [t.intern(n) for n in ("a", "b", "a", "c")] == [0, 1, 0, 2]
        assert len(t) == 3
        assert [t.name(i) for i in range(3)] == ["a", "b", "c"]

    def test_name_grammar_enforced(self):
        t = Symbols()
        for bad in ("A", "1a", "", "a-b", "nót"):
            with pytest.raises(ValueError):
                t.intern(bad)
        assert t.intern("a_B9") == 0

    def test_freeze_blocks_new_atoms(self):
        t = fresh("a")
        t.freeze()
        assert t.intern("a") == 0
        with pytest.raises(RuntimeError):
            t.intern("b")

    def test_mask_and_names(self):
        t = fresh("a", "b", "c")
        assert t.mask("a", "c") == 0b101
        assert t.names(0b101) == ("a", "c")


class TestBitHelpers:
    def test_bits_roundtrip(self):
        assert list(bits_of(0b1011)) == [0, 1, 3]
        assert mask_of([0, 1, 3]) == 0b1011

    def test_subsets_order_is_cardinality_then_lex(self):
        got = list(subsets_of(0b111))
        assert got == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


class TestParseRule:
    def test_disjunctive_fact(self):
        t = fresh("a", "b")
        assert parse_rule("a ; b.", t) == Rule(hd=0b11, ps=0, ng=0)

    def test_negated_body(self):
        t = fresh("a", "b", "c")
        assert parse_rule("c :- not a.", t) == Rule(hd=0b100, ps=0, ng=0b001)

    def test_empty_constraint(self):
        t = Symbols()
        assert parse_rule(":- .", t) == Rule(0, 0, 0)

    def test_duplicate_atoms_collapse(self):
        t = fresh("a", "b")
        assert parse_rule("a; a :- b, b, not b.", t) == Rule(0b01, 0b10, 0b10)

    def test_mixed_body(self):
        t = fresh("a", "b", "c")
        assert parse_rule("a :- b, not c.", t) == Rule(0b001, 0b010, 0b100)

    def test_error_carries_position(self):
        t = Symbols()
        with pytest.raises(ParseError) as err:
            parse_rule("a :-\n b,, c.", t)
        assert err.value.line == 2 and err.value.col == 4

    def test_missing_atom_after_not(self):
        t = Symbols()
        with pytest.raises(ParseError, match="expected atom after 'not'"):
            parse_rule("a :- not .", t)

    def test_missing_atom_after_semicolon(self):
        t = Symbols()
        with pytest.raises(ParseError, match="expected atom after ';'"):
            parse_rule("a ;; b.", t)

    def test_stray_character(self):
        t = Symbols()
        with pytest.raises(ParseError, match="unexpected character"):
            parse_rule("a ? b.", t)

    def test_lone_colon(self):
        t = Symbols()
        with pytest.raises(ParseError, match="expected ':-'"):
            parse_rule("a : b.", t)

    def test_trailing_input_rejected(self):
        t = Symbols()
        with pytest.raises(ParseError, match="trailing input"):
            parse_rule("a. b.", t)

    @pytest.mark.parametrize(
        "text, line, col",
        [("a % comment", 1, 12), ("a. % one\nb % two", 2, 8), ("a :- b %", 1, 9)],
    )
    def test_position_after_a_comment_is_past_it(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_program(text, Symbols())
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text", ["a", "a :- b", "a % comment", "a;b :- not c"])
    def test_missing_period_at_end_of_input_names_it(self, text):
        with pytest.raises(ParseError) as err:
            parse_program(text, Symbols())
        assert str(err.value).endswith("expected '.' to end statement, found end of input")

    def test_missing_period_before_a_token_names_the_token(self):
        with pytest.raises(ParseError, match="expected '.' to end statement, found ':-'"):
            parse_rule("a :- b :- c.", Symbols())

    # (text, message, line, col) from parse_program, frozen from the
    # character-by-character tokenizer: only '\n' ends a line, and every
    # other character, '\r' and ' ' too, takes one column
    POSITIONED = [
        ("a :-\tb ?", "unexpected character '?'", 1, 8),
        ("a.\t\tb :", "expected ':-'", 1, 7),
        ("a.\rb ?", "unexpected character '?'", 1, 6),
        ("a.\r\nb :- c\r\n?", "unexpected character '?'", 3, 1),
        ("\r\n\r\na :- é.", "unexpected character 'é'", 3, 6),
        ("a.\x0cb :- A.", "unexpected character 'A'", 1, 9),
        ("a\xa0:- b\xa0-", "unexpected character '-'", 1, 8),
        ("a.\u2028b :- ?", "unexpected character '?'", 1, 9),
        ("a :- b. \u2028\n\u2028 c :", "expected ':-'", 2, 5),
        ("a : b.", "expected ':-'", 1, 3),
        ("a :- b %", "expected '.' to end statement, found end of input", 1, 9),
        ("a. % note\nb", "expected '.' to end statement, found end of input", 2, 2),
        ("a. % note\r\n%\n:- not .", "expected atom after 'not', found '.'", 3, 8),
        ("% note\n\t%\r\n  a ; ; b.", "expected atom after ';', found ';'", 3, 7),
        ("a :- not\x0c%", "expected atom after 'not', found end of input", 1, 11),
    ]

    # parse_rule reads one statement, so it stops at the second
    RULE_POSITIONED = {
        "a. % note\nb": ("trailing input after rule: 'b'", 2, 1),
        "a. % note\r\n%\n:- not .": ("trailing input after rule: ':-'", 3, 1),
    }

    @pytest.mark.parametrize("text, message, line, col", POSITIONED)
    def test_error_positions_are_frozen(self, text, message, line, col):
        rule_error = self.RULE_POSITIONED.get(text, (message, line, col))
        for parse, (message, line, col) in (
            (parse_program, (message, line, col)), (parse_rule, rule_error)
        ):
            with pytest.raises(ParseError) as err:
                parse(text, Symbols())
            assert (str(err.value), err.value.line, err.value.col) == (
                f"{line}:{col}: {message}", line, col)


class TestParseProgram:
    def test_two_rule_program(self):
        t = fresh("a", "b", "c")
        p = parse_program("a;b. c :- not a.", t)
        assert p.rules == (Rule(0b011, 0, 0), Rule(0b100, 0, 0b001))

    def test_exact_duplicates_dropped(self):
        t = Symbols()
        assert len(parse_program("a. a.", t)) == 1

    def test_empty_text(self):
        assert parse_program("", Symbols()).rules == ()

    def test_comments_and_whitespace(self):
        t = fresh("a", "b")
        p = parse_program("% leading\n  a :- % inline\n not b.  \n% trailing", t)
        assert p.rules == (Rule(0b01, 0, 0b10),)

    def test_program_atoms_union(self):
        t = fresh("a", "b", "c")
        p = parse_program("a :- b. c.", t)
        assert p.atoms == 0b111

    def test_a_frozen_table_refuses_a_new_name(self):
        t = fresh("a", "b")
        t.freeze()
        assert parse_program("a :- not b.", t).fields == ((0b01, 0, 0b10),)
        with pytest.raises(RuntimeError, match="cannot add 'c'"):
            parse_program("a :- b, not c.", t)
        assert len(t) == 2

    def test_holds_field_triples_and_builds_no_rule(self, monkeypatch):
        def building(*_args):
            raise AssertionError("a Rule was built")

        monkeypatch.setattr(Rule, "__init__", building)
        p = parse_program("a :- b. c :- not a. a :- b.", fresh("a", "b", "c"))
        assert p.fields == ((0b001, 0b010, 0), (0b100, 0, 0b001))
        assert (len(p), p.atoms) == (2, 0b111)
        assert p == parse_program("a:-b.c:-not a.", fresh("a", "b", "c"))


# The statement scan against the token parser it falls back to.  The
# pieces cover what separates the two: names that start with 'not', the
# lone ':' and bare '%', comments at the end of the text, and whitespace
# that is not ASCII or that ends a line without '\n'.
NAMES = ["a", "b", "x_1", "not", "nota", "notA", "not_"]
PUNCTUATION = [";", ",", ".", ":-", ":"]
COMMENTS = ["% note\n", "%"]
SPACES = [" ", "\n", "\r", "\r\n", "\t", "\x0c", "\xa0", "\u2028"]
STRAY = ["?", "A", "é", "-"]
PIECES = NAMES + PUNCTUATION + COMMENTS + SPACES + STRAY


@st.composite
def program_texts(draw):
    """Mostly well-formed programs, each token followed by a random
    separator (possibly none), with up to two random pieces spliced in.
    A statement may repeat an earlier one (with other separators) or be
    bare ('.' or ':- .'); any separator, a comment included, may follow
    'not' directly."""
    statements = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["rule", "rule", "repeat", "bare"]))
        if kind == "repeat" and statements:
            statements.append(draw(st.sampled_from(statements)))
            continue
        if kind == "bare":
            statements.append(draw(st.sampled_from([["."], [":-", "."]])))
            continue
        head = draw(st.lists(st.sampled_from(NAMES), max_size=3))
        tokens = [tok for name in head for tok in (";", name)][1:]
        if draw(st.booleans()):
            tokens.append(":-")
            body = draw(st.lists(st.sampled_from(NAMES), max_size=3))
            for i, name in enumerate(body):
                tokens += ([","] if i else []) + (["not"] if draw(st.booleans()) else []) + [name]
        statements.append(tokens + ["."])
    tokens = [tok for statement in statements for tok in statement]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(PIECES)))
    separators = st.sampled_from(["", " ", "  ", "%c\n"] + SPACES + COMMENTS)
    return "".join(tok + draw(separators) for tok in tokens)


texts = st.one_of(st.lists(st.sampled_from(PIECES), max_size=30).map("".join), program_texts())


def outcome(parse, text):
    """What a parse leaves behind: its result or its error with position,
    and the symbol table's names in id order."""
    symbols = Symbols()
    try:
        result = parse(text, symbols)
    except ParseError as exc:
        result = (str(exc), exc.line, exc.col)
    return result, [symbols.name(i) for i in range(len(symbols))]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(texts)
def test_statement_scan_matches_token_parser(text):
    def token_program(text, symbols):
        return Program._of_fields(tuple(dict.fromkeys(_Parser(text, symbols).program())))

    assert outcome(parse_program, text) == outcome(token_program, text)
    assert outcome(parse_rule, text) == outcome(lambda s, t: Rule(*_Parser(s, t).rule()), text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts)
def test_a_parse_error_leaves_the_table_as_it_was(text):
    for parse in (parse_program, parse_rule):
        t = fresh("a", "q1")
        try:
            parse(text, t)
        except ParseError:
            assert names(t) == ["a", "q1"]


class TestParserEdges:
    @pytest.mark.parametrize("text", ["nota.", "notA.", "not_.", "a :- nota, not notb."])
    def test_names_starting_with_not_are_atoms(self, text):
        t = Symbols()
        parse_program(text, t)
        assert "not" not in [t.name(i) for i in range(len(t))]

    @pytest.mark.parametrize("text", ["not.", "a :- not.", ":- not not a.", "a; not."])
    def test_not_alone_is_never_an_atom(self, text):
        with pytest.raises(ParseError):
            parse_program(text, Symbols())

    def test_not_then_any_whitespace_negates(self):
        t = fresh("a", "b")
        assert parse_rule("a :- not b.", t) == Rule(0b01, 0, 0b10)
        assert parse_rule("a :- not%c\nb.", t) == Rule(0b01, 0, 0b10)

    def test_no_atom_interned_before_an_error(self):
        t = Symbols()
        with pytest.raises(ParseError):
            parse_program("a :- b. c ?", t)
        assert len(t) == 0

    @pytest.mark.parametrize("parse, text", [
        (parse_program, "a :- b. c d."),
        (parse_program, "a; b :- not c, d :- e."),
        (parse_program, "b. z :- not a, c"),
        (parse_rule, "a :- b c."),
        (parse_rule, "a :- b. c."),
        (parse_rule, "c; a :- not d"),
    ])
    @pytest.mark.parametrize("known", [(), ("b", "z")])
    def test_a_grammar_error_drops_the_atoms_read_before_it(self, parse, text, known):
        # the tokenizer's character errors come before any atom is read;
        # these come from the grammar, after new atoms were interned
        t = fresh(*known)
        with pytest.raises(ParseError):
            parse(text, t)
        assert names(t) == list(known)
        assert [t.intern(n) for n in (*known, "d")] == list(range(len(known) + 1))

    def test_a_grammar_error_leaves_a_frozen_table(self):
        t = fresh("a", "b")
        t.freeze()
        for parse, text in ((parse_program, "a :- b. b a."), (parse_rule, "a :- not b a.")):
            with pytest.raises(ParseError):
                parse(text, t)
            assert names(t) == ["a", "b"]
        with pytest.raises(RuntimeError):
            t.intern("c")

    def test_frozen_table_rejects_a_new_atom_in_well_formed_text(self):
        t = fresh("a")
        t.freeze()
        with pytest.raises(RuntimeError):
            parse_program("a. b.", t)


# Adversarial malformed inputs of about 100k characters, each parsed in a
# child process so that a regression to quadratic backtracking fails here
# instead of hanging the suite.
ADVERSARIAL = {
    "whitespace run": "' ' * 100_000 + '?'",
    "long head": "'a' + ' ; a' * 25_000 + ' ?'",
    "long body": "'a :- ' + 'not b, ' * 14_000 + '?'",
    "long atom": "'a' * 100_000 + '?'",
    "many statements": "'a :- b. ' * 12_500 + '?'",
    "40k statements": "'a :- b. ' * 40_000 + '?'",
    "many comment lines": "'% note\\n' * 14_000 + '?'",
}
PARSE_TIMER = """
import json, sys, time
from strongeq import ParseError, Symbols, parse_program, parse_rule
text = eval(sys.argv[1])
times = []
for parse in (parse_program, parse_rule):
    start = time.perf_counter()
    try:
        parse(text, Symbols())
    except ParseError:
        pass
    times.append(time.perf_counter() - start)
print(json.dumps([len(text), max(times)]))
"""


@pytest.mark.parametrize("expr", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_malformed_input_parses_in_linear_time(expr):
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PARSE_TIMER, expr],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"parsing {expr} took over 30 s")
    assert proc.returncode == 0, proc.stderr
    length, seconds = json.loads(proc.stdout)
    assert length >= 98_000
    assert seconds < 2.0


def test_well_formed_text_never_compiles_the_token_pattern():
    # compiling it takes about half a millisecond, which neither the
    # import nor a well-formed parse may pay
    code = (
        "import strongeq.cli\n"
        "from strongeq import Symbols, parse_program, syntax\n"
        "parse_program('a :- b, not c. % note\\nb; c.', Symbols())\n"
        "print(syntax._token_finder.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0\n", proc.stderr


def test_import_does_not_compile_the_program_pattern():
    # the whole-text pattern is compiled by the first parse, not the import
    code = (
        "import strongeq.cli\n"
        "from strongeq import syntax\n"
        "print(syntax._program_pattern.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0\n", proc.stderr


class TestFormatRule:
    def test_full_rule(self):
        t = fresh("c", "b")
        assert format_rule(Rule(hd=0b01, ps=0b10, ng=0b01), t) == "c :- b, not c."

    def test_constraint(self):
        t = fresh("a")
        assert format_rule(Rule(0, 0, 0b1), t) == ":- not a."

    def test_fact(self):
        t = fresh("a")
        assert format_rule(Rule(0b1, 0, 0), t) == "a."

    def test_empty_rule(self):
        assert format_rule(Rule(0, 0, 0), Symbols()) == ":- ."

    def test_atoms_in_session_id_order(self):
        t = fresh("b", "a")
        assert format_rule(Rule(0b11, 0, 0), t) == "b; a."

    def test_format_program_lines(self):
        t = fresh("a", "b")
        p = parse_program("a. b :- a.", t)
        assert format_program(p, t) == "a.\nb :- a.\n"


@given(
    hd=st.integers(min_value=0, max_value=63),
    ps=st.integers(min_value=0, max_value=63),
    ng=st.integers(min_value=0, max_value=63),
)
def test_parse_format_roundtrip(hd, ps, ng):
    t = fresh("a", "b", "c", "d", "e", "f")
    r = Rule(hd, ps, ng)
    assert parse_rule(format_rule(r, t), t) == r


class TestIsCanonical:
    def test_disjoint_fields(self):
        assert is_canonical(Rule(0b001, 0b010, 0b100))

    def test_head_meets_positive_body(self):
        assert not is_canonical(Rule(0b1, 0b1, 0))

    def test_head_meets_negated_body(self):
        assert not is_canonical(Rule(0b01, 0b10, 0b01))


class TestRename:
    def test_injective_relabel(self):
        t = fresh("a", "b", "x", "y")
        p = parse_program("a :- b.", t)
        q = rename_program(p, {0: 2, 1: 3})
        assert q.rules == (Rule(0b0100, 0b1000, 0),)

    def test_head_set_collapses(self):
        t = fresh("a", "b", "c")
        p = parse_program("a;b.", t)
        q = rename_program(p, {0: 2, 1: 2})
        assert q.rules == (Rule(0b100, 0, 0),)

    def test_rules_merged_after_collapse(self):
        t = fresh("a", "b")
        p = parse_program("a. b.", t)
        q = rename_program(p, {0: 0, 1: 0})
        assert len(q) == 1

    def test_unmapped_atom_rejected(self):
        with pytest.raises(UnmappedAtomError):
            rename_rule(Rule(0b1, 0b10, 0), {0: 0})

    def test_three_atom_collapse_preserves_disjointness(self):
        # Any rule whose head avoids its positive body and whose positive
        # body avoids its negated body maps onto three atoms with the same
        # disjointness: head atoms to one, positive body to another, rest
        # to a third.
        rng = random.Random(7)
        for _ in range(200):
            hd = rng.randrange(64)
            ps = rng.randrange(64) & ~hd
            ng = rng.randrange(64) & ~ps
            r = Rule(hd, ps, ng)
            f = {}
            for bit in range(6):
                if (1 << bit) & r.hd:
                    f[bit] = 0
                elif (1 << bit) & r.ps:
                    f[bit] = 1
                else:
                    f[bit] = 2
            image = rename_rule(r, f)
            assert image.atoms.bit_count() <= 3
            assert image.hd & image.ps == 0
            assert image.ps & image.ng == 0

    @given(st.permutations(range(5)), st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
    def test_injective_rename_preserves_canonicality(self, perm, hd, ps, ng):
        r = Rule(hd & ~ps & ~ng, ps & ~ng, ng)
        assert is_canonical(r)
        assert is_canonical(rename_rule(r, dict(enumerate(perm))))


class TestProgram:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.integers(1, 6))
    def test_parsed_and_built_programs_agree(self, seed, atom_count):
        # a program is its field triples, whether parsed or built from Rules
        built = random_program(random.Random(seed), atom_count, 8)
        symbols = fresh(*(f"a{i}" for i in range(atom_count)))
        parsed = parse_program(format_program(built, symbols), symbols)
        assert parsed == built and built == parsed
        assert hash(parsed) == hash(built) == hash((built.rules,))
        assert len(parsed) == len(built)
        assert parsed.atoms == built.atoms
        assert repr(parsed) == repr(built)
        assert list(parsed) == list(built)
        assert parsed.fields == built.fields == tuple((r.hd, r.ps, r.ng) for r in built.rules)
        for program in (parsed, built):
            assert program.rules == tuple(starmap(Rule, program.fields))
            copy = pickle.loads(pickle.dumps(program))
            assert copy == built and repr(copy) == repr(built) and hash(copy) == hash(built)
        # Program(rules) keeps the first of duplicate rules
        rules = built.rules
        doubled = Program(rules[::-1] + rules + tuple(starmap(Rule, built.fields)))
        assert doubled.rules == rules[::-1]
        assert Program(rules + rules[::-1]) == built

    def test_read_only(self):
        p = parse_program("a.", Symbols())
        for name in ("rules", "fields", "_fields"):
            with pytest.raises(AttributeError):
                setattr(p, name, ())

    def test_duplicate_free(self):
        r = Rule(1, 0, 0)
        assert Program((r, r, Rule(2, 0, 0))).rules == (r, Rule(2, 0, 0))

    def test_order_preserved(self):
        a, b = Rule(1, 0, 0), Rule(2, 0, 0)
        assert Program((b, a, b)).rules == (b, a)


class TestIsoCanonicalForm:
    def test_swap_bijection_identified(self):
        t = fresh("a", "b")
        one = (parse_rule("a :- b.", t),)
        other = (parse_rule("b :- a.", t),)
        assert iso_canonical_form(one) == iso_canonical_form(other)

    def test_distinct_atoms_not_identified(self):
        t = fresh("a", "b")
        loops = (Rule(0b01, 0b01, 0),)  # a :- a
        chain = (Rule(0b01, 0b10, 0),)  # a :- b
        assert iso_canonical_form(loops) != iso_canonical_form(chain)

    def test_uses_dense_atoms(self):
        # A tuple over sparse atom ids canonicalizes onto ids from 0.
        sparse = (Rule(0b100, 0b10000, 0),)
        form = iso_canonical_form(sparse)
        assert form[0].atoms.bit_count() == 2
        assert form[0].atoms == 0b11

    def test_idempotent_and_invariant_under_bijections(self):
        rng = random.Random(11)
        for _ in range(150):
            rules = tuple(
                Rule(rng.randrange(16), rng.randrange(16), rng.randrange(16))
                for _ in range(rng.randint(1, 3))
            )
            form = iso_canonical_form(rules)
            assert iso_canonical_form(form) == form
            perm = list(range(4))
            rng.shuffle(perm)
            mapped = tuple(rename_rule(r, dict(enumerate(perm))) for r in rules)
            assert iso_canonical_form(mapped) == form

    def test_position_sensitive(self):
        a, b = Rule(0b1, 0, 0), Rule(0b10, 0b1, 0)
        assert iso_canonical_form((a, b)) != iso_canonical_form((b, a))

    def test_atom_limit(self):
        wide = (Rule(0b111111111, 0, 0),)
        with pytest.raises(TooManyAtomsError):
            iso_canonical_form(wide)

    def test_orbit_count_of_canonical_single_rules(self):
        # Independent oracle: partition the 63 canonical rules over three
        # atoms into orbits by expanding every permutation explicitly.
        from strongeq.discovery import enumerate_rules

        rules = list(enumerate_rules(3, canonical_only=True))
        assert len(rules) == 63
        seen: set = set()
        orbits = 0
        for r in rules:
            if r in seen:
                continue
            orbits += 1
            for perm in permutations(range(3)):
                seen.add(rename_rule(r, dict(enumerate(perm))))
        forms = {iso_canonical_form((r,)) for r in rules}
        assert orbits == 19
        assert len(forms) == orbits
