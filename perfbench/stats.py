"""Order statistics and the comparison rule of the A/B command (ab.py).

The rule follows the benchmark's method:

- quartiles are Python's statistics.quantiles(values, n=4), the same
  estimator the acceptance check of the benchmark uses;
- a pair is won by the side whose value is better; ties count for
  neither side but stay in the denominator;
- "improved": the change wins at least nine tenths of all pairs and the
  medians differ, in the better direction, by more than the parent's own
  interquartile distance;
- "no worse within bound": the parent's spread (IQR / median) is within
  the metric's bound and the change's median is worse by at most the bound
  (a share of the parent's median);
- "worse": the spread is within the bound and the change's median is worse
  by more than the bound;
- "unresolved": anything else, in particular a spread wider than the bound.
"""

import statistics


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1] (as src/bench.cpp)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(x, y, direction):
    """True when x is strictly better than y."""
    return x < y if direction == "lower" else x > y


def win_fraction(parent, change, direction):
    """Share of pairs (parent[i], change[i]) that the change wins."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many runs on both sides")
    wins = sum(1 for a, b in zip(parent, change) if better(b, a, direction))
    return wins / len(parent)


def worse_share(parent_median, change_median, direction):
    """How much worse the change's median is, as a share of the parent's."""
    if direction == "lower":
        delta = change_median - parent_median
    else:
        delta = parent_median - change_median
    return delta / abs(parent_median) if parent_median else float("inf")


def verdict(parent, change, direction, bound):
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    if (win_fraction(parent, change, direction) >= 0.9
            and better(med_b, med_a, direction)
            and abs(med_b - med_a) > q3 - q1):
        return "improved"
    if spread(parent) > bound:
        return "unresolved"
    if worse_share(med_a, med_b, direction) <= bound:
        return "no worse within bound"
    return "worse"
