"""Environment block written into every results file.

Numbers measured on another machine, core count or backend do not
compare with these, so each result carries what it was measured on.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 only prints it
        return "unknown"


def _git_commit(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, workload) -> dict:
    import numpy
    import scipy

    import levamp

    backend = getattr(levamp, "kernel_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workers": workload.threads,
        "kernel_backend": backend() if callable(backend) else "absent",
        "git_commit": _git_commit(root),
    }
