#!/usr/bin/env python3
"""Simplifying programs without changing their meaning in any context.

Rules like `a :- a.` rarely get written by hand, but grounding recursive
rules over cyclic data produces them constantly, and they slow solvers
down.  The simplifier removes whatever the redundancy conditions license
and re-checks its output against the oracle.
"""

from strongeq import Rule, Symbols, format_program, parse_program, simplify, verify_simplification

symbols = Symbols()

print("grounder artifacts vanish:")
program = parse_program(
    """
    % instantiating  reached(X) :- arc(Y, X), hc(Y, X), reached(Y).
    % on a graph with a self-arc yields a self-supporting rule
    reached_a :- hc_a_a, reached_a.
    reached_b :- hc_a_b, reached_a.
    """,
    symbols,
)
simplified, trace = simplify(program)
print(format_program(simplified, symbols), end="")
print("    steps:", [s.kind for s in trace.steps])

print()
print("a self-blocking head becomes a constraint, which then subsumes more:")
program = parse_program("a :- not a. a :- not b. b :- not a.", symbols)
simplified, trace = simplify(program)
print(format_program(simplified, symbols), end="")
print("    steps:", [s.kind for s in trace.steps])
print("    still strongly equivalent:", verify_simplification(program, simplified))

print()
print("two rules fold into one strictly shorter rule:")
program = parse_program("a2 :- a1, not a3. a1;a2 :- not a3.", symbols)
simplified, trace = simplify(program)
print(format_program(simplified, symbols), end="")
# the rules differ only in a1, so the one candidate is what they share
r1, r2 = program.rules
common = Rule(r1.hd & r2.hd, r1.ps & r2.ps, r1.ng & r2.ng)
print("    the pair's common part, the literals both rules share:", simplified.rules == (common,))
print("    trace:")
print("   ", trace.json_lines(symbols).strip())

print()
print("already-minimal programs come back untouched:")
program = parse_program("a :- not b. b :- not a.", symbols)
simplified, trace = simplify(program)
print("    unchanged:", simplified == program, "| steps recorded:", len(trace.steps))
