"""The benchmark's own smoke test, run as part of the suite.

perfbench/ drives the CLI in-process, patches timing shims onto functions
by name and checks every output against frozen golden files.  Running its
smoke test here means that renaming a function the shims patch, or
changing an output the golden files pin, fails the suite too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
