"""Command-line front end.

Exit codes: 0 success or affirmative verdict, 1 negative verdict (not
equivalent, or mismatches found), 2 usage or parse error, 3 resource
guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import conditions
from .discovery import ENUM_ATOM_LIMIT, TupleShape, test_conjecture
from .errors import ParseError, TooManyAtomsError
from .oracle import SE_ATOM_LIMIT, check_language, countermodel_json, strongly_equivalent
from .semantics import ANSWER_SET_ATOM_LIMIT, answer_sets
from .simplify import simplify, verify_simplification
from .syntax import Program, Symbols, bits_of, format_program, parse_program

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# verify runs enumerating more tuples than this (renaming classes under
# --modulo-iso) demand an explicit opt-in
LONG_RUN_TUPLES = 100_000_000

# Registered conditions for `verify`: name -> (shape, predicate,
# canonical_only), the last true for a condition that raises
# NotCanonicalError on a non-canonical rule and so needs --canonical.
# s_implies is a deliberately incomplete 1-1-0 condition, kept around to
# show the harness catching a conjecture that does not cover the oracle.
CONDITIONS: dict[str, tuple[TupleShape, object, bool]] = {
    "cond_0_1_0": (TupleShape(0, 1, 0), conditions.cond_0_1_0, False),
    "cond_1_1_0": (TupleShape(1, 1, 0), conditions.cond_1_1_0, False),
    "cond_0_1_1": (TupleShape(0, 1, 1), conditions.cond_0_1_1, False),
    "cond_2_1_0": (TupleShape(2, 1, 0), conditions.cond_2_1_0, True),
    "cond_0_2_1": (TupleShape(0, 2, 1), conditions.cond_0_2_1, True),
    "cond_0_2_2": (TupleShape(0, 2, 2), conditions.cond_0_2_2, True),
    "s_implies": (TupleShape(1, 1, 0), conditions.s_implies, False),
}


def _read_bytes(path: str) -> bytes:
    """The bytes of a file, read through one raw descriptor: no file object
    and no buffer around it.  Reads until end of file, so a pipe is read
    whole too."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        # read(2)'s errors (EISDIR on a directory) carry no path; open's do
        if exc.filename is None:
            exc.filename = path
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def _load_program(path: str, symbols: Symbols) -> Program:
    # utf-8-sig drops a leading byte-order mark; CR and CRLF become LF, as
    # in text mode, so error lines and columns count them as one newline
    try:
        text = _read_bytes(path).decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse_program(text, symbols)
    except ParseError as exc:
        raise SystemExit(_usage_error(f"{path}:{exc}"))


def _write_text(path: str, text: str) -> None:
    # the UTF-8 bytes in one binary write, as _load_program reads: LF stays
    # LF and no text layer sits in between
    try:
        with open(path, "wb") as f:
            f.write(text.encode("utf-8"))
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write {path}: {exc}"))


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any long work:
    an existing file must itself be writable (a device such as /dev/null
    may sit in a directory nobody may write), a new one needs its
    directory writable."""
    target = Path(path)
    parent = target.parent
    if not parent.is_dir():
        raise SystemExit(_usage_error(f"cannot write {path}: no directory {parent}"))
    if target.is_dir() or not os.access(target if target.exists() else parent, os.W_OK):
        raise SystemExit(_usage_error(f"cannot write {path}: not a writable file path"))


def _reader_gone(stream) -> bool:
    """Whether stream is a pipe or socket whose reading end is closed."""
    import select  # only a broken pipe needs it, so startup does not load it

    try:
        poller = select.poll()
        poller.register(stream.fileno(), 0)  # to hear of errors and hangups only
    except (AttributeError, ValueError):  # no stream, or none with a descriptor
        return False
    return bool(poller.poll(0))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _atom_limit(args: argparse.Namespace, default: int) -> int:
    """The --max-atoms value, or the guard's default when it is not given."""
    if args.max_atoms is None:
        return default
    if args.max_atoms < 0:
        raise SystemExit(_usage_error(f"--max-atoms must be at least 0, not {args.max_atoms}"))
    return args.max_atoms


def _set_names(mask: int, symbols: Symbols) -> list[str]:
    return sorted(symbols.name(i) for i in bits_of(mask))


def cmd_answersets(args: argparse.Namespace) -> int:
    limit = _atom_limit(args, ANSWER_SET_ATOM_LIMIT)
    symbols = Symbols()
    program = _load_program(args.path, symbols)
    sets = answer_sets(program, max_atoms=limit)
    listed = sorted((_set_names(x, symbols) for x in sets), key=lambda s: (len(s), s))
    if args.json:
        print(json.dumps(listed))
        return EXIT_OK
    if not listed:
        print("no answer sets")
        return EXIT_OK
    for names in listed:
        print("{" + ", ".join(names) + "}")
    return EXIT_OK


def cmd_check_se(args: argparse.Namespace) -> int:
    limit = _atom_limit(args, SE_ATOM_LIMIT)
    symbols = Symbols()
    p1 = _load_program(args.path1, symbols)
    p2 = _load_program(args.path2, symbols)
    verdict = strongly_equivalent(p1, p2, max_atoms=limit)
    if args.json:
        # the line json.dumps gives {"equivalent": ..., "countermodel":
        # countermodel_json(...)}, written directly: atom names are ASCII
        # letters, digits and "_", which JSON takes as they are
        if verdict.equivalent:
            sys.stdout.write('{"equivalent": true, "countermodel": null}\n')
        else:
            x, y = (", ".join([f'"{a}"' for a in symbols.names(m)]) for m in verdict.countermodel)
            sys.stdout.write(
                f'{{"equivalent": false, "countermodel": {{"x": [{x}], "y": [{y}]}}}}\n')
    elif verdict.equivalent:
        print("strongly equivalent")
    else:
        cm = countermodel_json(verdict.countermodel, symbols)
        print("NOT strongly equivalent")
        print(f"countermodel: x={{{', '.join(cm['x'])}}} y={{{', '.join(cm['y'])}}}")
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def cmd_simplify(args: argparse.Namespace) -> int:
    limit = _atom_limit(args, SE_ATOM_LIMIT)
    symbols = Symbols()
    program = _load_program(args.path, symbols)
    for path in (args.out, args.trace):
        if path is not None:  # "" too, which names no file
            _check_writable(path)
    if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
        raise SystemExit(_usage_error(f"--out and --trace name the same file: {args.trace}"))
    if args.verify:
        # the result's atoms are a subset of the input's, so this is the
        # refusal the re-check would give, before any work or output
        check_language("strongly_equivalent", program.atoms.bit_count(), limit)
    simplified, trace = simplify(program)
    text = format_program(simplified, symbols)
    if args.trace is not None:
        _write_text(args.trace, trace.json_lines(symbols))
    verified: bool | None = None
    if args.verify:
        verified = verify_simplification(program, simplified, max_atoms=limit)
    if args.out is not None:
        _write_text(args.out, text)
    if args.json:
        rules = [line for line in text.splitlines() if line]
        print(json.dumps({"rules": rules, "verified": verified, "steps": len(trace.steps)}))
    elif args.out is None:
        sys.stdout.write(text)
    if verified is False:
        print("error: simplified program is NOT strongly equivalent", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def _long_run_refusal(length: int, atoms: int, canonical: bool, modulo_iso: bool) -> str | None:
    """The refusal of a run without --allow-long that enumerates over
    LONG_RUN_TUPLES tuples of `length` rules, or under modulo_iso renaming
    classes, counted from below as ceil(tuples / atoms!) (a class holds at
    most atoms! tuples); None for a shorter run.

    The count's log10 comes from logarithms, with lgamma for the
    factorial, so a wide language costs no count of millions of digits.
    The rule count base^atoms - 1 is taken as base^atoms, which moves no
    decision and no rounded size for a registered shape (length 1 to 4):
    tests/test_cli.py checks, against the exact count, every language
    within two decades of the bound and all up to 200 atoms.
    """
    size = length * atoms * math.log(4 if canonical else 8)
    if modulo_iso:
        size -= math.lgamma(atoms + 1)
    if size <= math.log(LONG_RUN_TUPLES):
        return None
    unit = "renaming classes" if modulo_iso else "tuples"
    # the count itself can run to millions of digits: give its size
    return (f"this run enumerates about 10^{size / math.log(10):.0f} {unit}, over "
            f"{LONG_RUN_TUPLES:,}; pass --allow-long if you really want it")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        k, m, n = (int(part) for part in args.shape.split(","))
        shape = TupleShape(k, m, n)
    except ValueError as exc:
        return _usage_error(f"bad --shape: {exc}")
    entry = CONDITIONS.get(args.condition)
    if entry is None:
        known = ", ".join(sorted(CONDITIONS))
        return _usage_error(f"unknown condition {args.condition!r}; known: {known}")
    expected_shape, predicate, canonical_only = entry
    if expected_shape != shape:
        return _usage_error(
            f"condition {args.condition} is for shape "
            f"{expected_shape.k},{expected_shape.m},{expected_shape.n}, not {args.shape}"
        )
    if canonical_only and not args.canonical:
        return _usage_error(
            f"condition {args.condition} is stated for canonical rules only; pass --canonical"
        )
    if args.atoms < 0:
        return _usage_error(f"--atoms must be at least 0, not {args.atoms}")
    if args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1, not {args.jobs}")
    limit = _atom_limit(args, ENUM_ATOM_LIMIT)
    if args.atoms > limit:  # before the long-run refusal: too many atoms exits 3, not 2
        raise TooManyAtomsError("rule enumeration", args.atoms, limit)
    if not args.allow_long:
        refusal = _long_run_refusal(shape.length, args.atoms, args.canonical, args.modulo_iso)
        if refusal:
            return _usage_error(refusal)
    if args.report is not None:  # "" too, which names no file
        _check_writable(args.report)
    report = test_conjecture(
        shape,
        args.atoms,
        predicate,
        canonical_only=args.canonical,
        modulo_iso=args.modulo_iso,
        job_count=args.jobs,
        max_atoms=limit,
    )
    if args.report is not None:
        _write_text(args.report, report.json_text(indent=True) + "\n")
    if args.json:
        print(report.json_text())
    else:
        print(
            f"shape {shape.k}-{shape.m}-{shape.n} over {args.atoms} atoms: "
            f"{report.total_tuples} tuples, {report.se_positive_count} oracle-positive, "
            f"{report.condition_positive_count} condition-positive, "
            f"{report.mismatch_count} mismatches "
            f"({report.elapsed_ms:.0f} ms)"
        )
    return EXIT_OK if report.mismatch_count == 0 else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one (parse_args keeps no state between calls).  `plain` holds
    each subcommand's table for `_read_plain`, read off its own actions."""
    parser = argparse.ArgumentParser(
        prog="strongeq",
        description="Strong equivalence toolkit for ground disjunctive logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_as = sub.add_parser("answersets", help="print the answer sets of a program file")
    p_as.add_argument("path")
    p_as.add_argument("--json", action="store_true")
    p_as.add_argument("--max-atoms", type=int, default=None)
    p_as.set_defaults(fn=cmd_answersets)

    p_se = sub.add_parser("check-se", help="decide strong equivalence of two program files")
    p_se.add_argument("path1")
    p_se.add_argument("path2")
    p_se.add_argument("--json", action="store_true")
    p_se.add_argument("--max-atoms", type=int, default=None)
    p_se.set_defaults(fn=cmd_check_se)

    p_si = sub.add_parser("simplify", help="simplify a program, preserving strong equivalence")
    p_si.add_argument("path")
    p_si.add_argument("--out", default=None, help="write the result here instead of stdout")
    p_si.add_argument("--verify", action="store_true", help="re-check the result with the oracle")
    p_si.add_argument("--trace", default=None, help="write the JSON-lines rewrite trace here")
    p_si.add_argument("--json", action="store_true")
    p_si.add_argument("--max-atoms", type=int, default=None)
    p_si.set_defaults(fn=cmd_simplify)

    p_v = sub.add_parser("verify", help="exhaustively check a condition against the oracle")
    p_v.add_argument("--shape", required=True, help="k,m,n")
    p_v.add_argument("--atoms", type=int, required=True)
    p_v.add_argument("--condition", required=True)
    p_v.add_argument("--canonical", action="store_true", help="enumerate canonical rules only")
    p_v.add_argument("--modulo-iso", action="store_true", help="one tuple per renaming class")
    p_v.add_argument("--jobs", type=int, default=1)
    p_v.add_argument("--report", default=None, help="write the JSON report here")
    p_v.add_argument("--json", action="store_true")
    p_v.add_argument("--max-atoms", type=int, default=None)
    p_v.add_argument(
        "--allow-long",
        action="store_true",
        help="opt in to runs over 100 million tuples, or renaming classes with "
        "--modulo-iso (hours to days)",
    )
    p_v.set_defaults(fn=cmd_verify)

    parser.plain = {name: _plain_table(name, command) for name, command in sub.choices.items()}
    return parser


def _plain_table(name: str, command: argparse.ArgumentParser) -> tuple:
    """A subcommand's option strings -> action, positional dests in order,
    required options, and the namespace argparse starts from.  Every option
    here stores: a flag its const, any other option its one value."""
    actions = [action for action in command._actions if action.default is not argparse.SUPPRESS]
    options = {string: action for action in actions for string in action.option_strings}
    positionals = [action.dest for action in actions if not action.option_strings]
    required = {action for action in actions if action.required and action.option_strings}
    start = {action.dest: action.default for action in actions}
    return options, positionals, required, {"command": name, **start, **command._defaults}


def _read_plain(words: list[str], table: tuple) -> argparse.Namespace | None:
    """The namespace for a subcommand's words if they are plain: exact option
    strings, each value not starting with "-" and accepted by its type, every
    required option and exactly the positionals, none starting with "-"."""
    options, positionals, required, start = table
    values = dict(start)
    given, seen = [], set()
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        action = options.get(word)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(words, "-")  # a missing value is not plain either
        if value.startswith("-"):
            return None
        try:
            values[action.dest] = (action.type or str)(value)
        except ValueError:
            return None
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What the full parser makes of argv.  Plain argv, a subcommand's
    name and then words `_read_plain` accepts, is read straight into the
    namespace; any other argv (help, errors, abbreviations, --opt=value,
    --, values starting with "-") goes through the full parser, which
    prints its own usage and error texts."""
    parser = build_parser()
    table = parser.plain.get(argv[0]) if argv else None
    args = None if table is None else _read_plain(argv[1:], table)
    return parser.parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.fn(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()  # a reader that is gone raises here, not at exit
        return code
    except BrokenPipeError:
        # output that cannot be written is a usage error, as for _write_text;
        # a stream whose reader is gone writes to devnull from here on, so
        # that the flush at exit cannot raise again, and any other keeps its text
        lost = [stream for stream in (sys.stdout, sys.stderr) if _reader_gone(stream)]
        if not lost:
            raise  # a pipe of neither standard stream
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in lost:
            os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if sys.stdout in lost:
            print("error: cannot write to stdout", file=sys.stderr)
        return EXIT_USAGE
    except TooManyAtomsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        # a backstop: the guards refuse what they can foresee before allocating
        print("error: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return EXIT_OK if exc.code is None else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
