"""Reducing operation timings and check outcomes to reported numbers."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# Candidate tail percentiles, highest first.  50 is the floor: with
# fewer than 20 samples no percentile above the median has ten samples
# beyond it, and the median is reported as the tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    seconds: float
    percentile: float
    samples: int
    beyond: int


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> Tail:
    """Time at the highest candidate percentile with ten samples beyond it.

    "Beyond" counts the samples ranked above the percentile, which for
    n samples at percentile p is floor(n * (1 - p / 100)).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = math.floor(n * (1.0 - p / 100.0) + 1e-9)
        if beyond >= TAIL_BEYOND:
            break
    return Tail(percentile(values, p), p, n, beyond)


@dataclass
class Outcomes:
    """Operations attempted, their wall times, and the checks each failed."""

    seconds: list[float] = field(default_factory=list)
    problems: dict[int, list[str]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def record(self, seconds: float, problems: list[str]) -> None:
        self.seconds.append(seconds)
        self.fail(len(self.seconds) - 1, problems)

    def fail(self, k: int, problems: list[str]) -> None:
        """Add failed checks to operation k, which may already have passed."""
        if problems:
            self.problems.setdefault(k, []).extend(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def failures(self) -> list[str]:
        return [f"op {k}: " + "; ".join(p) for k, p in sorted(self.problems.items())]

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def compare_values(got, want, rel: float = 1e-9, path: str = "") -> list[str]:
    """Differences between two JSON-like values, numbers within ``rel``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'value'}: keys differ"]
        out = []
        for key in sorted(want):
            out += compare_values(got[key], want[key], rel, f"{path}.{key}" if path else key)
        return out
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if not isinstance(got, (int, float)) or not math.isfinite(got):
            return [f"{path}: {got!r} is not a finite number"]
        return [] if close(float(got), float(want), rel) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
