"""Order statistics for the benchmark's timings."""

import math

# A percentile is reported only when at least this many samples lie beyond
# it: p50 needs 20 samples, p90 needs 100, p99 needs 1000.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(values, pct):
    """The nearest-rank `pct` percentile of `values`.

    Raises TooFewSamples when fewer than MIN_BEYOND samples lie beyond it,
    so a tail figure is never read off a handful of points.
    """
    n = len(values)
    beyond = n * (100.0 - pct) / 100.0
    if n == 0 or beyond + 1e-9 < MIN_BEYOND:
        raise TooFewSamples(
            "p%g of %d samples has %.1f beyond it, needs %d"
            % (pct, n, beyond, MIN_BEYOND))
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]
