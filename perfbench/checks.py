"""Output checks: golden outputs for the default seed, invariants for any seed,
and the workload-property record computed from the same outputs."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

from workloads import Op, bits, holds, subsets_in_order

ATOM = re.compile(r"[a-z][A-Za-z0-9_]*")
INLINE_LIMIT = 4096  # longer golden texts are stored as a sha256 digest


def normalize(op: Op, stdout: str) -> str:
    """Stdout with run-dependent fields removed: the verify report's
    elapsed_ms."""
    if op.command != "verify":
        return stdout
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    report.pop("elapsed_ms", None)
    return json.dumps(report, sort_keys=True)


def digest(text: str | None) -> str | None:
    if text is None or len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def golden_entry(op: Op, code, stdout: str, trace: str | None) -> dict:
    return {"code": code, "output": digest(normalize(op, stdout)), "trace": digest(trace)}


def _names_to_mask(names, ids: dict[str, int]) -> int:
    mask = 0
    for n in names:
        mask |= 1 << ids[n]
    return mask


def pairs_examined(op: Op, verdict: dict) -> tuple[int, int]:
    """(pairs the oracle walked, 3^n) for a check-se op: the countermodel's
    position in the oracle's order plus one, or all 3^n pairs.  Atom ids
    follow first occurrence in the two files, as the CLI interns them."""
    cli_ids: dict[str, int] = {}
    for text in op.files.values():
        for word in ATOM.findall(text):
            if word != "not":
                cli_ids.setdefault(word, len(cli_ids))
    space = 3 ** len(cli_ids)
    cm = verdict.get("countermodel")
    if cm is None:
        return space, space
    x, y = _names_to_mask(cm["x"], cli_ids), _names_to_mask(cm["y"], cli_ids)
    index = 0
    for y2 in subsets_in_order(sorted(cli_ids.values())):
        if y2 == y:
            break
        index += 1 << y2.bit_count()
    for x2 in subsets_in_order(bits(y)):
        if x2 == x:
            break
        index += 1
    return index + 1, space


def canonical_rules(lines) -> list[tuple]:
    """Rules as (head, positive body, negated body) name sets, so outputs
    printed under different atom numberings compare equal."""
    out = []
    for line in lines:
        head, _, body = line.rstrip(".").partition(":-")
        lits = [lit.strip() for lit in body.split(",") if lit.strip()]
        out.append((frozenset(a.strip() for a in head.split(";") if a.strip()),
                    frozenset(lit for lit in lits if not lit.startswith("not ")),
                    frozenset(lit[4:].strip() for lit in lits if lit.startswith("not "))))
    return out


def invariant_problems(op: Op, code, stdout: str, trace: str | None) -> list[str]:
    """Violations of what must hold for any seed."""
    if code is None:
        return [f"raised: {stdout.strip().splitlines()[-1] if stdout.strip() else '?'}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"stdout is not JSON: {stdout[:80]!r}"]
    problems = []
    if op.command == "check-se":
        want = op.expect["equivalent"]
        if out["equivalent"] != want or code != (0 if want else 1):
            problems.append(f"verdict {out['equivalent']} exit {code}, built equivalent={want}")
        elif not want:
            # the reported countermodel must separate the two programs
            p, q = op.expect["programs"]
            ids = {f"p{i}": i for i in range(64)}
            x = _names_to_mask(out["countermodel"]["x"], ids)
            y = _names_to_mask(out["countermodel"]["y"], ids)
            if x & ~y or holds(p, x, y) == holds(q, x, y):
                problems.append(f"countermodel {out['countermodel']} does not separate")
    elif op.command == "answersets":
        if code != 0 or not isinstance(out, list):
            problems.append(f"exit {code}")
    elif op.command == "simplify":
        if code != 0:
            problems.append(f"exit {code}")
        if out["verified"] is not (True if op.expect["verify"] else None):
            problems.append(f"verified={out['verified']}")
        if len(out["rules"]) > op.expect["rules"]:
            problems.append("output has more rules than input")
        if trace is not None and len(trace.splitlines()) != out["steps"]:
            problems.append("trace length differs from step count")
    else:
        mismatches = out["mismatches"]
        if op.expect["exact"]:
            if code != 0 or mismatches or out["se_positive"] != out["cond_positive"]:
                problems.append(f"exact condition: exit {code}, {len(mismatches)} mismatches")
        elif code != (1 if mismatches else 0) or any(
            not mm["oracle"] or mm["cond"] for mm in mismatches
        ):
            # s_implies is a strict special case: it may only miss positives
            problems.append(f"s_implies: exit {code}, mismatches {len(mismatches)}")
        if op.expect["iso"]:
            if not 0 < out["total"] <= op.full_tuples:
                problems.append(f"iso total {out['total']} outside (0, {op.full_tuples}]")
        elif out["total"] != op.full_tuples:
            problems.append(f"total {out['total']} != rule_count^length {op.full_tuples}")
    return problems


class Checker:
    """Judges each execution once per distinct output; every execution
    whose output is wrong counts as a failed op."""

    def __init__(self, golden: dict | None, seed: int):
        self.golden = golden["ops"] if golden and golden.get("seed") == seed else None
        self.first: dict[str, tuple] = {}  # op id -> (code, stdout, trace) of first execution
        self.verdicts: dict[tuple, list[str]] = {}
        self.problems: list[str] = []

    def check(self, op: Op, code, stdout: str, trace: str | None) -> bool:
        key = (op.id, code, normalize(op, stdout), trace)
        if key not in self.verdicts:
            try:
                found = invariant_problems(op, code, stdout, trace)
            except (KeyError, TypeError, ValueError) as exc:
                found = [f"unexpected output shape: {exc!r}"]
            first = self.first.setdefault(op.id, (code, stdout, trace))
            if key[1:] != (first[0], normalize(op, first[1]), first[2]):
                found.append("output differs from this op's first execution")
            if self.golden is not None:
                want = self.golden.get(op.id)
                if want is None:
                    found.append("no golden entry")
                elif want != golden_entry(op, code, stdout, trace):
                    found.append("differs from golden output")
            self.verdicts[key] = found
            self.problems += [f"{op.id}: {p}" for p in found]
        return not self.verdicts[key]

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def cross_check(self, ops: list[Op]) -> int:
        """Checks that relate ops of one deck; returns the violations."""
        bad = 0
        pairs: dict[str, list[str]] = {}
        spaces: dict[tuple, set] = {}
        outs = parsed_outputs(ops, self.first)
        for op in ops:
            if op.id not in outs:
                continue
            if op.command == "answersets":
                pairs.setdefault(op.expect["pair"], []).append(json.dumps(outs[op.id]))
            elif op.command == "verify":
                # conditions of one shape and language see the same oracle labels
                out = outs[op.id]
                key = (tuple(out["shape"]), op.argv[4], "--canonical" in op.argv,
                       op.expect["iso"])
                spaces.setdefault(key, set()).add((out["total"], out["se_positive"]))
        for pair, outs in pairs.items():
            if len(set(outs)) > 1:
                bad += 1
                self.fail(f"{pair}: equivalent programs have different answer sets")
        for key, seen in spaces.items():
            if len(seen) > 1:
                bad += 1
                self.fail(f"verify {key}: oracle counts differ between conditions {seen}")
        return bad


def parsed_outputs(ops: list[Op], first: dict[str, tuple]) -> dict:
    """First-execution stdout of each op that ran cleanly, parsed."""
    outs = {}
    for op in ops:
        code, stdout, _trace = first.get(op.id, (None, "", None))
        if code is not None:
            try:
                outs[op.id] = json.loads(stdout)
            except ValueError:
                pass
    return outs


def properties(ops: list[Op], first: dict[str, tuple]) -> dict:
    """The input and output properties a later change may depend on, for
    each group of ops the deck holds."""
    props: dict = {"atoms_histogram": dict(sorted(Counter(op.atoms for op in ops).items()))}
    outs = parsed_outputs(ops, first)
    se_ops = [op for op in ops if op.command == "check-se" and op.id in outs]
    if se_ops:
        props["equivalent_share"] = sum(outs[op.id]["equivalent"] for op in se_ops) / len(se_ops)
        shares = [a / b for a, b in (pairs_examined(op, outs[op.id]) for op in se_ops)]
        props["pairs_examined_share_mean"] = sum(shares) / len(shares)
    simplify_ops = [op for op in ops if op.command == "simplify" and op.id in outs]
    if simplify_ops:
        rules_in = sum(op.expect["rules"] for op in simplify_ops)
        rules_out = sum(len(outs[op.id]["rules"]) for op in simplify_ops)
        props["rules_removed_share"] = (rules_in - rules_out) / rules_in
        props["steps"] = sum(outs[op.id]["steps"] for op in simplify_ops)
        kinds = Counter()
        for op in simplify_ops:
            for line in (first[op.id][2] or "").splitlines():
                kinds[json.loads(line)["step"]] += 1
        props["traced_steps_by_kind"] = dict(sorted(kinds.items()))
    verify_ops = [op for op in ops if op.command == "verify"]
    if verify_ops:
        props["tuples_decided"] = sum(op.full_tuples for op in verify_ops)
        iso_ops = [op for op in verify_ops if op.expect["iso"]]
        if iso_ops:
            kept = sum(outs[op.id]["total"] for op in iso_ops if op.id in outs)
            props["iso_kept_ratio"] = kept / sum(op.full_tuples for op in iso_ops)
    return props
