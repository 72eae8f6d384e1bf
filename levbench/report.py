"""Run every workload and print each metric by name, with its unit.

    python3 levbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process, one after another, exactly as
``run.py`` runs it alone.  Exits non-zero if any run fails or any
output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent))

from levbench.run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    print(f"{'workload':<17} {'metric':<40} {'value':>14} unit")
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload:<17} run failed (exit {done.returncode}): {done.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for name, entry in result["metrics"].items():
            print(f"{workload:<17} {name:<40} {entry['value']:>14.6g} {entry['unit']}")
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload:<17} {'failed_frac':<40} {failed_frac:>14.6g} frac"
              f"  ({result['failed']} of {result['attempted']} operations)")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
