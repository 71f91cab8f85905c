"""Summary statistics used by every workload."""

import math
import statistics

# Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p, n):
    """1-based nearest rank of percentile p among n values."""
    # The epsilon keeps 99.9 * 10000 / 100 at rank 9990, not 9991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values, min_beyond=10):
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (p, value, count): the percentile chosen, its value and the
    number of samples it was taken over. Falls back to the maximum when even
    the median has fewer than `min_beyond` samples above it.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            return p, percentile(values, p), n
    return 100.0, max(values), n


def median(values):
    return statistics.median(values)

