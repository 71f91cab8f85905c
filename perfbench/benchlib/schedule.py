"""Seeded request schedules: Poisson arrivals and Zipf-skewed pair choice."""

import bisect
import itertools


def poisson_arrivals(rate, seconds, rng, start_us=0):
    """Due times (integer microseconds) of a Poisson process.

    `rate` arrivals per second over `seconds`, offset by `start_us`. The
    same `rng` state always yields the same times.
    """
    times = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return times
        times.append(start_us + int(t * 1e6))


class Zipf:
    """Draws indices 0..n-1 with P(i) proportional to 1 / (i + 1) ** s."""

    def __init__(self, n, s):
        weights = [1.0 / (i + 1) ** s for i in range(n)]
        self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng):
        x = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, x),
                   len(self._cumulative) - 1)
