"""strongeq benchmark: the four CLI subcommands driven in-process.

    python3 perfbench/run.py --workload programs --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
client calls ``strongeq.cli.main(argv)`` in a closed loop, one op at a time,
with stdout captured.  Inputs are generated from --seed and written to
``.perfbench_work/`` during set-up, so the program only sees input files.

A deck is the workload's fixed list of ops.  Decks repeat until --seconds is
spent (at least one runs).  An op's latency is the 80th percentile of its
times over the decks after the first, which warms up.  On the host the
benchmark was tuned on, a 2-vCPU share of a busy machine, each vCPU runs at
full speed or about 1.5x slower for spells of a few milliseconds to
seconds, with rare spikes of 3-6x, and the share of fast time drifts
between runs from near none to about half.  The fastest time and the median
jump between the two levels as that share moves, and the mean follows it;
the 80th percentile stays on the slower level, which holds most of every
run, unless fast time passes four fifths of the run, and below the spikes
unless they pass a fifth of it.  Within a deck the cheap ops run several
times, spread through it, so that their figures draw on many moments of the
run (Loop.repeated).  Every deck runs its ops in a
fresh seeded order (Loop.order): with one order for the whole run, an op
always followed the same ops, and what they left behind (the collector's
state, caches) moved its figure by up to a third from seed to seed while the
run's overall speed stayed within a few per cent.  Successive decks are
pinned to successive CPUs of this process's affinity set, so every op meets
both.

Timed verify ops run with --jobs 1: at --jobs 2 most of a small op is
starting two workers, and the slower of two shared cores sets its time,
which made those figures swing by a third between runs.  Every verify
report is also produced at --jobs 2, untimed, and must be identical.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      median over SETUP_REPEATS set-ups of: importing strongeq.cli
               in a fresh interpreter, generating and writing the inputs and
               loading the golden outputs; the first runs before the timed
               decks, the others between the first decks
  wall_s       time of one deck, each op at its latency
  p50_ms       median op latency
  tail_ms      latency of the highest percentile with at least 10 ops beyond it
  peak_rss_mb  peak resident set size of this process or its workers
The same figures for each group of ops (check-se, answersets, simplify,
verify and verify-iso: check-se.p50_ms, verify.tuples_per_s, ...), the
error rate and the workload properties are printed above it and saved under
``.perfbench_work/results/``.

With --trace 1, untraced and traced decks alternate and the last
line reports the per-layer metrics of tracing.py plus trace.overhead_share.

Every execution is checked: against the golden outputs (perfbench/golden,
frozen at the default seed with --freeze) and, for any seed, against
invariants.  A wrong output counts as a failed op, and any failure makes
the run exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 25
TAIL_BEYOND = 10
LEVEL_QUANTILE = 0.8  # an op's latency; see above
REPEAT_BUDGET_S = 0.04  # see Loop.repeated
MAX_REPEATS = 8
REPEAT_SHARE = 0.15
JOBS = 1  # for timed ops; see above

GROUPS = ("check-se", "answersets", "simplify", "verify", "verify-iso")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "tail_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import strongeq.cli from this checkout's src, or stop."""
    if not (SRC / "strongeq" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC}/strongeq not found; run from the root of a strongeq checkout")
    sys.path.insert(0, str(SRC))
    import strongeq.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "strongeq").resolve():
        sys.exit(f"perfbench: imported strongeq from {cli.__file__}, not from {SRC}")
    return cli


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "strongeq").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "source_sha256": source.hexdigest()[:16]}


def import_seconds() -> float:
    """Time to import strongeq.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import strongeq.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def set_up(workload: str, seed: int, tiny: bool, golden_dir: Path, work: Path):
    """Generate and write the inputs into `work` and load the golden
    outputs; returns (ops, golden, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    start = perf_counter()
    work.mkdir(parents=True)
    ops = workloads.build(workload, seed, str(work), tiny)
    for op in ops:
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")
    golden_path = golden_dir / f"{workload}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else None
    return ops, golden, perf_counter() - start


class SetUpTimer:
    """Repeats the set-up into a scratch directory, between decks."""

    def __init__(self, args, first_seconds: float):
        self.args = args
        self.times = [import_seconds() + first_seconds]

    def again(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            scratch = WORK / f"{self.args.workload}-seed{self.args.seed}-setup"
            seconds = set_up(self.args.workload, self.args.seed, self.args.scale == "tiny",
                             self.args.golden, scratch)[2]
            shutil.rmtree(scratch)
            self.times.append(import_seconds() + seconds)

    def median(self) -> float:
        return statistics.median(self.times)


@contextlib.contextmanager
def pinned(deck_index: int):
    """Run on one CPU of the affinity set, chosen round-robin by deck."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        yield
        return
    os.sched_setaffinity(0, {cpus[deck_index % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_op(cli, op: workloads.Op, jobs: int, tracer=None):
    """One closed-loop call; returns (seconds, exit code or None if it raised,
    stdout, trace file text)."""
    argv = op.argv + (["--jobs", str(jobs)] if op.command == "verify" else [])
    if op.trace:
        Path(op.trace).unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        span = tracer.open("op") if tracer else None
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed op, not a crashed benchmark
            code = None
        elapsed = perf_counter() - start
        if tracer:
            tracer.close(span)
    stdout = out.getvalue() if code is not None else traceback.format_exc()
    trace = None
    if op.trace and code is not None and Path(op.trace).exists():
        trace = Path(op.trace).read_text(encoding="utf-8")
    return elapsed, code, stdout, trace


def spread(ops, repeats: dict[str, int]) -> list:
    """The deck with op i run repeats[i] times, its copies evenly spaced
    through the deck from its own position."""
    count = len(ops)
    slots = []
    for index, op in enumerate(ops):
        times = repeats[op.id]
        slots += [((index + k * count / times) % count, index, op) for k in range(times)]
    return [op for _pos, _index, op in sorted(slots, key=lambda slot: slot[:2])]


class Loop:
    """Runs decks and keeps latencies and pass/fail counts."""

    def __init__(self, cli, ops, checker, seed: int):
        self.cli, self.ops, self.checker, self.seed = cli, ops, checker, seed
        self.latency = {op.id: [] for op in ops}
        self.decks = self.attempted = self.failed = 0

    def order(self) -> list:
        """This deck's ops: the built order for the first deck, a shuffle
        seeded by the seed and the deck's index for each later one."""
        ops = list(self.ops)
        if self.decks:
            random.Random(f"{self.seed}/deck{self.decks}").shuffle(ops)
        return ops

    def repeated(self, ops) -> list:
        """The deck with cheap ops repeated, so that each op's latency
        draws on many moments of the run: an op is repeated about
        REPEAT_BUDGET_S / its fastest time so far, at most MAX_REPEATS
        times, and the budget shrinks until the repeats add at most
        REPEAT_SHARE to the deck's time.  The costly ops, which hold most of
        the run's time, are left with nearly as many decks as without."""
        cost = {op.id: self.best(op) for op in self.ops}
        total = sum(cost.values())
        budget = REPEAT_BUDGET_S
        while True:
            repeats = {k: max(1, min(MAX_REPEATS, int(budget / max(c, 1e-6))))
                       for k, c in cost.items()}
            if sum((repeats[k] - 1) * c for k, c in cost.items()) <= REPEAT_SHARE * total:
                return spread(ops, repeats)
            budget *= 0.8

    def deck(self, jobs: int, tracer=None, repeat: bool = False) -> float:
        """Runs one deck; with `repeat`, cheap ops run several times (from
        the second deck on).  Returns the deck's time."""
        gc.collect()
        wall = 0.0
        order = self.order()
        if repeat and self.decks:
            order = self.repeated(order)
        with pinned(self.decks):
            for op in order:
                elapsed, code, stdout, trace = run_op(self.cli, op, jobs, tracer)
                wall += elapsed
                self.latency[op.id].append(elapsed)
                self.record(self.checker.check(op, code, stdout, trace))
        self.decks += 1
        return wall

    def best(self, op) -> float:
        return min(self.latency[op.id])

    def level(self, op) -> float:
        """The op's latency: the LEVEL_QUANTILE quantile of its times after
        the first deck, interpolated."""
        times = sorted(self.latency[op.id][1:] or self.latency[op.id])
        pos = LEVEL_QUANTILE * (len(times) - 1)
        low = int(pos)
        high = min(low + 1, len(times) - 1)
        return times[low] + (times[high] - times[low]) * (pos - low)

    def deck_seconds(self) -> float:
        return sum(self.level(op) for op in self.ops)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def post_checks(loop: Loop, work: Path, jobs: int) -> None:
    """Untimed checks after the timed decks."""
    checker = loop.checker
    loop.failed += checker.cross_check(loop.ops)
    other_jobs = 2 if jobs == 1 else 1
    resimplify = work / "resimplify"
    resimplify.mkdir(exist_ok=True)
    for op in loop.ops:
        code, stdout, _trace = checker.first[op.id]
        if op.command == "verify":
            # reports must not depend on --jobs
            _t, code2, stdout2, _ = run_op(loop.cli, op, other_jobs)
            same = (code2, checks.normalize(op, stdout2)) == (code, checks.normalize(op, stdout))
            loop.record(same)
            if not same:
                checker.fail(f"{op.id}: report differs between --jobs {jobs} and {other_jobs}")
        elif op.command == "simplify" and code == 0:
            # re-simplifying the output must be a no-op
            try:
                rules = json.loads(stdout)["rules"]
                path = resimplify / f"{op.id}.lp"
                path.write_text("".join(r + "\n" for r in rules), encoding="utf-8")
                again = workloads.Op(op.id + "-again", "simplify",
                                     ["simplify", str(path), "--json"], 0)
                _t, code2, stdout2, _ = run_op(loop.cli, again, jobs)
                out2 = json.loads(stdout2)
                ok = code2 == 0 and out2["steps"] == 0 and (
                    checks.canonical_rules(out2["rules"]) == checks.canonical_rules(rules))
            except (KeyError, TypeError, ValueError):
                ok = False
            loop.record(ok)
            if not ok:
                checker.fail(f"{op.id}: re-simplifying the output changed it")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, op count): the highest percentile with at least
    TAIL_BEYOND ops beyond it, or the maximum for groups smaller than that."""
    ordered = sorted(values)
    count = len(ordered)
    rank = count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1
    return ordered[rank], 100.0 * (rank + 1) / count, count


def latency_figures(loop: Loop, ops) -> dict:
    per_op = [loop.level(op) * 1000 for op in ops]
    value, pct, count = tail(per_op)
    return {"p50_ms": statistics.median(per_op), "tail_ms": value,
            "tail_percentile": pct, "ops": count}


def group(op: workloads.Op) -> str:
    return "verify-iso" if op.command == "verify" and op.expect["iso"] else op.command


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def timed_run(cli, ops, checker, seed, seconds, work, setup, record):
    loop = Loop(cli, ops, checker, seed)
    walls = []
    start = perf_counter()
    while True:
        walls.append(loop.deck(JOBS, repeat=True))
        setup.again()
        if perf_counter() - start + walls[-1] > seconds:
            break
    post_checks(loop, work, JOBS)
    overall = latency_figures(loop, ops)
    metrics = {"setup_s": setup.median(), "wall_s": loop.deck_seconds(),
               "p50_ms": overall["p50_ms"], "tail_ms": overall["tail_ms"],
               "peak_rss_mb": peak_rss_mb()}
    by_group = {}
    for name in GROUPS:
        subset = [op for op in ops if group(op) == name]
        if subset:
            by_group[name] = latency_figures(loop, subset)
            if subset[0].command == "verify":
                by_group[name]["tuples_per_s"] = (sum(op.full_tuples for op in subset)
                                                  / sum(loop.level(op) for op in subset))
    record.update(decks=len(walls), overall=overall, by_group=by_group)
    return loop, metrics


def traced_run(cli, ops, checker, seed, seconds, record, spans_path):
    plain, traced = Loop(cli, ops, checker, seed), Loop(cli, ops, checker, seed)
    walls, layers, span_log = [], [], []
    start = perf_counter()
    while True:
        wall = plain.deck(JOBS)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            wall += traced.deck(JOBS, tracer)
        finally:
            restore()
        walls.append(wall)
        layers.append(tracing.layer_metrics(tracer))
        own = tracer.self_times()
        span_log += [{"deck": len(walls), "name": n, "start": s, "end": e, "parent": p,
                      "self_s": own[i]} for i, (n, s, e, p, _l) in enumerate(tracer.spans)]
        span_log.append({"deck": len(walls), "leaf": tracer.leaf, "counts": tracer.counts})
        if perf_counter() - start + statistics.mean(walls) > seconds:
            break
    with open(spans_path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(entry) + "\n" for entry in span_log)
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_share"] = traced.deck_seconds() / plain.deck_seconds() - 1
    record.update(decks=len(walls), untraced_wall_s=plain.deck_seconds(),
                  traced_wall_s=traced.deck_seconds())
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, metrics


def freeze(cli, ops, workload, seed, golden_dir) -> int:
    """Record golden outputs for this seed from the code as it stands."""
    checker = checks.Checker(None, seed)
    entries = {}
    for op in ops:
        _t, code, stdout, trace = run_op(cli, op, JOBS)
        checker.check(op, code, stdout, trace)
        entries[op.id] = checks.golden_entry(op, code, stdout, trace)
    checker.cross_check(ops)
    if checker.problems:
        print("\n".join(checker.problems), file=sys.stderr)
        return 1
    golden_dir.mkdir(parents=True, exist_ok=True)
    path = golden_dir / f"{workload}.json"
    path.write_text(json.dumps({"seed": seed, "ops": dict(sorted(entries.items()))}, indent=1)
                    + "\n", encoding="utf-8")
    print(f"froze {len(entries)} golden outputs to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap ops per workload, for the smoke test")
    parser.add_argument("--golden", type=Path, default=HERE / "golden",
                        help="directory of golden outputs")
    parser.add_argument("--freeze", action="store_true",
                        help="write golden outputs for --seed instead of measuring")
    args = parser.parse_args(argv)

    cli = import_program()
    machine = machine_info()
    work = WORK / f"{args.workload}-seed{args.seed}"
    ops, golden, setup_once = set_up(args.workload, args.seed, args.scale == "tiny",
                                     args.golden, work)
    if args.freeze:
        return freeze(cli, ops, args.workload, args.seed, args.golden)

    checker = checks.Checker(golden, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "jobs": JOBS,
              "machine": machine, "golden_checked": checker.golden is not None}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loop, metrics = traced_run(cli, ops, checker, args.seed, args.seconds, record,
                                   stem.with_suffix(".spans.jsonl"))
        units = tracing.UNITS
    else:
        setup = SetUpTimer(args, setup_once)
        loop, metrics = timed_run(cli, ops, checker, args.seed, args.seconds, work, setup,
                                  record)
        units = E2E_UNITS
    shutil.rmtree(work)
    correct = loop.failed == 0 and not checker.problems
    try:
        props = checks.properties(ops, checker.first)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # outputs already failed
        props = {"unavailable": repr(exc)}
    record.update(properties=props, attempted=loop.attempted, failed=loop.failed,
                  error_rate=loop.failed / loop.attempted, problems=checker.problems[:50],
                  metrics=metrics, per_op_ms={op_id: [t * 1000 for t in times]
                                              for op_id, times in loop.latency.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops a deck, "
          f"{record['decks']} decks, golden checked: {record['golden_checked']}")
    for name, figures in record.get("by_group", {}).items():
        line = (f"  {name}.p50_ms {figures['p50_ms']:.3f} ms  {name}.tail_ms "
                f"{figures['tail_ms']:.3f} ms (p{figures['tail_percentile']:.1f} of "
                f"{figures['ops']} ops)")
        if "tuples_per_s" in figures:
            line += f"  {name}.tuples_per_s {figures['tuples_per_s']:.0f} 1/s"
        print(line)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  error_rate {record['error_rate']:.6g} ({loop.failed} of {loop.attempted} ops)")
    print(f"properties: {json.dumps(record['properties'])}")
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
