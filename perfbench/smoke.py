"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  It checks that
  * every workload runs at the tiny scale with --trace 0 and --trace 1,
    exits 0 with no failed op, and emits exactly the metric names and units
    that BENCHMARK.json lists;
  * a corrupted golden entry is caught: failed ops and a nonzero exit;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "smoke"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
                           "--scale", "tiny", *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return last if isinstance(last, dict) and "correct" in last else None


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in wanted.items():
            code, stdout = bench("--workload", workload, "--trace", trace)
            got = result(stdout)
            expect(code == 0 and got is not None and got["correct"] and got["failed"] == 0,
                   f"{workload} --trace {trace} runs clean at tiny scale")
            expect({k: v["unit"] for k, v in got["metrics"].items()} == names,
                   f"{workload} --trace {trace} emits the metrics of BENCHMARK.json")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    golden = SCRATCH / "golden"
    shutil.copytree(HERE / "golden", golden)
    victim = workloads.build("programs", 1, "unused", tiny=True)[0].id
    entries = json.loads((golden / "programs.json").read_text())
    entries["ops"][victim]["output"] = "corrupted\n"
    (golden / "programs.json").write_text(json.dumps(entries))
    code, stdout = bench("--workload", "programs", "--trace", "0", "--golden", str(golden))
    got = result(stdout)
    expect(code != 0 and got is not None and got["failed"] > 0,
           f"a corrupted golden entry for {victim} is caught")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("--workload", "programs", "--trace", "0", cwd=bare)
    expect(code != 0 and result(stdout) is None,
           "without the program's sources it exits nonzero and prints no result")
    shutil.rmtree(SCRATCH)


if __name__ == "__main__":
    main()
