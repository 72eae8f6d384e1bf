"""Regenerate ``reference.json``: per-variant results at the default seed.

    python3 levbench/make_reference.py

Run from the root of a checkout whose results are known to be right;
the benchmark compares every operation at the default seed against
these values within a relative 1e-9.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from levbench import workloads

    reference = {}
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for cls in workloads.WORKLOADS.values():
            if cls.summarize is workloads.Workload.summarize:
                continue
            workload = cls(workloads.DEFAULT_SEED, work)
            workload.prepare()
            values = []
            for k in range(workload.variants):
                result = workload.op(k)
                values.append(workload.summarize(result))
                workload.release(k, result)
            reference[cls.name] = values
    finally:
        shutil.rmtree(work)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {', '.join(reference)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
