"""Timing shims installed from outside the program, for the traced run.

Each shim replaces a public function on the name its calling module looks
up, so the program itself carries no tracing code.  Coarse calls become
spans (name, start, end, parent); hot leaf calls (conditions, rule masks,
iso canonical forms) are only counted and timed in aggregate, and their
time is charged to the innermost open span so self times stay exact.
Run with --jobs 1: calls inside worker processes are not seen.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

from workloads import bits, subsets_in_order

# conditions reported as conditions.calls.<name> / conditions.s.<name>
CONDITION_NAMES = ("cond_0_1_0", "cond_1_1_0", "cond_0_1_1", "cond_2_1_0",
                   "cond_0_2_1", "cond_0_2_2", "s_implies", "normalize_rule")
STEP_KINDS = ("T5", "T6", "T7", "T8", "T9")

UNITS = {
    "cli.overhead_ms": "ms",
    "syntax.parse_ms": "ms",
    "syntax.rules_parsed": "count",
    "syntax.iso_calls": "count",
    "syntax.iso_s": "s",
    "syntax.iso_kept_ratio": "ratio",
    "oracle.se_calls": "count",
    "oracle.se_s": "s",
    "oracle.pairs_examined": "count",
    "oracle.pairs_per_s": "1/s",
    "semantics.answer_sets_calls": "count",
    "semantics.answer_sets_s": "s",
    "semantics.candidates_per_s": "1/s",
    **{f"conditions.calls.{c}": "count" for c in CONDITION_NAMES},
    **{f"conditions.s.{c}": "s" for c in CONDITION_NAMES},
    **{f"simplify.steps.{k}": "count" for k in STEP_KINDS},
    "simplify.calls_per_step": "ratio",
    "simplify.rules_removed_share": "ratio",
    "discovery.mask_build_s": "s",
    "discovery.walk_self_s": "s",
    "discovery.tuples": "count",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, leaf seconds]
        self.stack: list[int] = []
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def span_shim(self, name, fn, after=None):
        def shim(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return shim

    def leaf_shim(self, name, fn):
        tally = self.leaf.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def shim(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            tally[0] += 1
            tally[1] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            return result

        return shim

    def self_times(self) -> list[float]:
        """Each span's duration minus its child spans and leaf calls."""
        own = [end - start - leaf for _n, start, end, _p, leaf in self.spans]
        for _n, start, end, parent, _l in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


# --- what each shim records after its call -----------------------------------


def _after_parse(tracer, args, kwargs, program):
    tracer.counts["rules_parsed"] += len(program.rules)


def _after_se(tracer, args, kwargs, verdict):
    p1, p2 = args[0], args[1]
    lang = p1.atoms | p2.atoms
    if verdict.equivalent:
        examined = 3 ** lang.bit_count()
    else:
        # position of the countermodel in ht_pairs order, plus one
        cm, examined = verdict.countermodel, 1
        for y in subsets_in_order(bits(lang)):
            if y == cm.y:
                break
            examined += 1 << y.bit_count()
        for x in subsets_in_order(bits(cm.y)):
            if x == cm.x:
                break
            examined += 1
    tracer.counts["pairs_examined"] += examined


def _after_answer_sets(tracer, args, kwargs, sets):
    tracer.counts["candidates"] += 1 << args[0].atoms.bit_count()


def _after_simplify(tracer, args, kwargs, result):
    program, trace = result
    tracer.counts["rules_in"] += len(args[0].rules)
    tracer.counts["rules_out"] += len(program.rules)
    for step in trace.steps:
        tracer.counts["step." + step.kind.split("-")[0]] += 1


def _after_test_conjecture(tracer, args, kwargs, report):
    shape, atom_count = args[0], args[1]
    rule_count = (4 if kwargs.get("canonical_only") else 8) ** atom_count - 1
    tracer.counts["tuples"] += rule_count ** shape.length
    if kwargs.get("modulo_iso"):
        tracer.counts["iso_kept"] += report.total_tuples


def install(tracer: Tracer):
    """Patch the shims in; returns a function that restores the originals."""
    cli = sys.modules["strongeq.cli"]
    simplify_mod = sys.modules["strongeq.simplify"]  # strongeq.simplify is the function
    discovery = sys.modules["strongeq.discovery"]
    patches = [
        (cli, "parse_program", tracer.span_shim("syntax.parse", cli.parse_program, _after_parse)),
        (cli, "strongly_equivalent",
         tracer.span_shim("oracle.se", cli.strongly_equivalent, _after_se)),
        (simplify_mod, "strongly_equivalent",
         tracer.span_shim("oracle.se", simplify_mod.strongly_equivalent, _after_se)),
        (cli, "answer_sets",
         tracer.span_shim("semantics.answer_sets", cli.answer_sets, _after_answer_sets)),
        (cli, "simplify", tracer.span_shim("simplify.simplify", cli.simplify, _after_simplify)),
        (cli, "verify_simplification",
         tracer.span_shim("simplify.verify", cli.verify_simplification)),
        (cli, "test_conjecture", tracer.span_shim(
            "discovery.test_conjecture", cli.test_conjecture, _after_test_conjecture)),
        (discovery, "ht_pair_masks",
         tracer.span_shim("discovery.ht_pair_masks", discovery.ht_pair_masks)),
        (discovery, "rule_mask", tracer.leaf_shim("discovery.rule_mask", discovery.rule_mask)),
        (discovery, "iso_canonical_form",
         tracer.leaf_shim("syntax.iso", discovery.iso_canonical_form)),
    ]
    for fn_name in ("cond_1_1_0", "cond_2_1_0", "cond_0_2_1", "normalize_rule"):
        patches.append((simplify_mod, fn_name,
                        tracer.leaf_shim("conditions." + fn_name, getattr(simplify_mod, fn_name))))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, shim in patches:
        setattr(module, attr, shim)
    # the harness looks its condition up in the CLI's registry
    registry = dict(cli.CONDITIONS)
    for cond_name, (shape, predicate, exact) in registry.items():
        cli.CONDITIONS[cond_name] = (shape, tracer.leaf_shim("conditions." + cond_name, predicate),
                                     exact)

    def restore() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)
        cli.CONDITIONS.update(registry)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced deck."""
    own = tracer.self_times()
    spans = tracer.spans
    counts = tracer.counts

    def total(name):
        return sum(end - start for n, start, end, _p, _l in spans if n == name)

    def calls(name):
        return sum(1 for n, *_ in spans if n == name)

    def leaf(name):
        return tracer.leaf.get(name, [0, 0.0])

    op_indices = [i for i, s in enumerate(spans) if s[0] == "op"]
    parse_per_op = Counter()
    for i, (n, start, end, parent, _l) in enumerate(spans):
        if n == "syntax.parse":
            parse_per_op[parent] += end - start
    se_s = total("oracle.se")
    as_s = total("semantics.answer_sets")
    iso_calls, iso_s = leaf("syntax.iso")
    out = {
        "cli.overhead_ms": 1000 * statistics.median(own[i] for i in op_indices),
        "syntax.parse_ms": 1000 * statistics.median(parse_per_op[i] for i in op_indices),
        "syntax.rules_parsed": counts["rules_parsed"],
        "syntax.iso_calls": iso_calls,
        "syntax.iso_s": iso_s,
        "syntax.iso_kept_ratio": counts["iso_kept"] / iso_calls if iso_calls else 0.0,
        "oracle.se_calls": calls("oracle.se"),
        "oracle.se_s": se_s,
        "oracle.pairs_examined": counts["pairs_examined"],
        "oracle.pairs_per_s": counts["pairs_examined"] / se_s if se_s else 0.0,
        "semantics.answer_sets_calls": calls("semantics.answer_sets"),
        "semantics.answer_sets_s": as_s,
        "semantics.candidates_per_s": counts["candidates"] / as_s if as_s else 0.0,
    }
    condition_calls = 0
    for cond_name in CONDITION_NAMES:
        n_calls, seconds = leaf("conditions." + cond_name)
        out["conditions.calls." + cond_name] = n_calls
        out["conditions.s." + cond_name] = seconds
        condition_calls += n_calls
    steps = 0
    for kind in STEP_KINDS:
        out["simplify.steps." + kind] = counts["step." + kind]
        steps += counts["step." + kind]
    out["simplify.calls_per_step"] = condition_calls / steps if steps else 0.0
    out["simplify.rules_removed_share"] = (
        (counts["rules_in"] - counts["rules_out"]) / counts["rules_in"] if counts["rules_in"] else 0.0
    )
    _calls, mask_s = leaf("discovery.rule_mask")
    out["discovery.mask_build_s"] = total("discovery.ht_pair_masks") + mask_s
    out["discovery.walk_self_s"] = sum(
        own[i] for i, s in enumerate(spans) if s[0] == "discovery.test_conjecture"
    )
    out["discovery.tuples"] = counts["tuples"]
    return out
