"""Statistics helpers shared by run.py, trials.py and compare.py.

Percentiles interpolate linearly between order statistics. A tail is only
reported at a percentile that leaves at least ten samples beyond it, with
the sample count beside it, so a p99 is never read off a handful of jobs.
"""

import math
import statistics

MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median (0 when undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values, p):
    """The p-th percentile (0..100), linear between order statistics."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def max_supported_percentile(n, beyond=MIN_BEYOND):
    """Highest percentile of n samples that leaves `beyond` samples above it."""
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n


def tail(values, wanted, beyond=MIN_BEYOND):
    """The wanted percentile when the sample supports it, else the highest
    one it does. Returns (percentile, value, sample_count); percentile is
    None when even the median leaves fewer than `beyond` samples above."""
    supported = max_supported_percentile(len(values), beyond)
    if supported is None or supported < 50.0:
        return None, 0.0, len(values)
    p = min(wanted, math.floor(supported * 10) / 10)
    return p, percentile(values, p), len(values)


def slope(points):
    """Least-squares slope of (x, y) points; 0 for fewer than two x values."""
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its children cover. `spans` holds dicts with name, id, parent, start,
    end. Returns {name: [self time per span]} in the spans' time unit."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        own = (s["end"] - s["start"]) - union_length(covered)
        out.setdefault(s["name"], []).append(max(own, 0.0))
    return out
