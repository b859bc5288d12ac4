"""Latency percentiles and failure counting for the benchmark."""

from __future__ import annotations

from collections import Counter
from math import ceil

PERCENTILES = (50, 90, 99, 99.9, 99.99)


def rank(q, n: int) -> int:
    """1-based nearest rank of percentile q among n sorted samples."""
    # q may be 99.9: scale to an integer so 99.9 * 1000 / 100 is exactly 999
    scaled = round(q * 100)
    return max(1, ceil(scaled * n / 10000))


def tail_percentile(n: int):
    """The highest percentile in PERCENTILES with at least 10 of n samples
    beyond it, or None when n is too small for any."""
    best = None
    for q in PERCENTILES:
        if n - rank(q, n) >= 10:
            best = q
    return best


def percentile(sorted_values, q):
    return sorted_values[rank(q, len(sorted_values)) - 1]


def repeated_percentile(sorted_values, times: int, q):
    """Percentile q of sorted_values with each value counted `times` times."""
    return sorted_values[(rank(q, len(sorted_values) * times) - 1) // times]


class Tally:
    """Attempted and failed queries.

    A failure is a raised exception or an answer that fails its check.  A
    failure on an input flagged as a known defect, with the expected cause,
    keeps the run `correct`; any other failure makes it incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.causes = Counter()  # (kind, label, cause, known) -> count

    def record(self, kind: str, label: str, cause, known: bool):
        """cause is None for a success, else a one-line description."""
        self.attempted += 1
        if cause is None:
            return
        self.failed += 1
        self.unexpected += not known
        self.causes[(kind, label, cause, known)] += 1

    @property
    def correct(self) -> bool:
        return self.unexpected == 0

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected,
            "causes": [[*key, n] for key, n in sorted(self.causes.items())],
        }
