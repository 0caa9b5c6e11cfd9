"""Order statistics shared by the benchmark's report and steadiness modes.

Medians and quartiles come straight from the ``statistics`` module;
quartiles as ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), because that is how run-to-run spread is judged. Percentiles of
raw samples interpolate linearly between closest ranks, the same rule as
numpy's default.
"""

import statistics

# Percentiles a timing report may quote after the median, highest first.
TAIL_LEVELS = (99.9, 99.0, 90.0)
# A tail percentile is quoted only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, level):
    """Linear-interpolation percentile, ``level`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= level <= 100.0:
        raise ValueError("percentile level outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * level / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_spread(values):
    """Inter-quartile distance as a share of the median, with quartiles as
    statistics.quantiles(values, n=4) gives them (at least two values)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return float("inf") if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def tail_level(count):
    """Highest TAIL_LEVELS entry with at least MIN_BEYOND samples beyond it
    among ``count`` samples, or None."""
    for level in TAIL_LEVELS:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(count * (100.0 - level) / 100.0, 6) >= MIN_BEYOND:
            return level
    return None


def summarize(values):
    """Median, the quotable tail percentile and the sample count."""
    level = tail_level(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values),
        "tail_level": level,
        "tail": percentile(values, level) if level is not None else None,
    }
