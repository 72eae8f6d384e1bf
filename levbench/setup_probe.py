"""Time one fresh-process set-up: ``import levamp`` through the warm-up call.

    python3 levbench/setup_probe.py WORKLOAD SEED WORK_DIR

Prints the elapsed seconds.  ``run.py`` starts this several times per
run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    name, seed, work = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import levamp  # noqa: F401  (timed: the import is part of set-up)
    from levbench import workloads

    workload = workloads.make(name, int(seed), Path(work))
    workload.prepare()
    workload.warmup()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
