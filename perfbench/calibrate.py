"""Calibration of the benchmark against the recorded baseline.

Usage (from the repository root):  python3 perfbench/calibrate.py

Checks, in a fresh interpreter, that ``sweep(500)`` at base seed 0 still gives
22,516 reports with none violated, and that the oracles' monomial counter
agrees with plain enumeration.  Then it measures the rows that ROADMAP.md
gives as indicative baselines (sweep(500) wall time, bare interpreter,
``import gotzmann``, one CLI call), five fresh processes each, and prints
them as JSON.  Exits 1 when a check fails.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import child_env, environment  # noqa: E402

EXPECTED_REPORTS = 22_516
PROCESSES = 5


def _median_wall(cmd: list[str], env: dict[str, str]) -> float:
    walls = []
    for _ in range(PROCESSES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def main() -> int:
    env = child_env()
    code = (
        "import json, time\n"
        "t = time.perf_counter()\n"
        "from gotzmann import theorems\n"
        "from gotzmann.monomial_algebra import hf_direct\n"
        "reports = list(theorems.sweep(500))\n"
        "info = hf_direct.cache_info()\n"
        "print(json.dumps({'wall_s': time.perf_counter() - t, 'reports': len(reports),\n"
        "  'violated': sum(r.verdict == 'violated' for r in reports),\n"
        "  'hf_direct_hit_ratio': info.hits / (info.hits + info.misses)}))\n"
    )
    sweep = json.loads(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                      check=True, capture_output=True, text=True).stdout)
    import oracles

    self_test_ok = True
    try:
        oracles.self_test()
    except oracles.Mismatch as exc:
        print(f"oracle self-test failed: {exc}", file=sys.stderr)
        self_test_ok = False

    cli = [sys.executable, "-m", "gotzmann.cli", "macaulay-transform", "4", "1"]
    rows = {
        "sweep500": sweep,
        "bare_interpreter_s": _median_wall([sys.executable, "-c", "pass"], env),
        "import_gotzmann_s": _median_wall([sys.executable, "-c", "import gotzmann"], env),
        "cli_call_s": _median_wall(cli, env),
        "oracle_self_test": self_test_ok,
        "environment": environment(),
    }
    print(json.dumps(rows, indent=2, sort_keys=True))
    ok = self_test_ok and sweep["reports"] == EXPECTED_REPORTS and sweep["violated"] == 0
    if not ok:
        print(f"calibration failed: expected {EXPECTED_REPORTS} reports, 0 violated",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
