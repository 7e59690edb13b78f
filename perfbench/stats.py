"""Statistics shared by run.py, steadiness.py and the tests.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the one at rank ceil(p * n / 100), so n - rank samples lie
beyond it.  A percentile above the median is reported only when at least
MIN_BEYOND samples lie beyond it.
"""

import math
import re
import statistics

MIN_BEYOND = 10
# Percentiles considered above the median.  No p99: over 15 s closed-loop
# runs its run-to-run spread was about 30%.
TAIL_PERCENTILES = (90,)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def valid_name(name):
    """Metric and workload names: a letter or digit, then up to 63 more of
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and _NAME.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.match(unit) is not None


def rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p * n / 100))


def beyond(p, n):
    """Samples that lie beyond the p-th percentile of n samples."""
    return n - rank(p, n)


def percentile(values, p):
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def highest_reportable(n, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile with at least MIN_BEYOND of n
    samples beyond it, or None when no candidate has that many."""
    allowed = [p for p in candidates if beyond(p, n) >= MIN_BEYOND]
    return max(allowed) if allowed else None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover.  Children may nest further or overlap one another
    (spans from several threads); overlapped time is subtracted once.

    `spans` are dicts with id, parent (0 = none), start_us and end_us.
    Returns {id: self time in us}.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start_us"], span["end_us"]))
    result = {}
    for span in spans:
        start, end = span["start_us"], span["end_us"]
        inner = children.get(span["id"], [])
        result[span["id"]] = (end - start) - _covered(inner, start, end)
    return result


def uncovered(spans, start, end):
    """Time in [start, end] that no top-level span covers."""
    top = [(s["start_us"], s["end_us"]) for s in spans if s["parent"] == 0]
    return (end - start) - _covered(top, start, end)
