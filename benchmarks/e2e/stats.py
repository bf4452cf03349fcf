"""Order statistics and the compare verdict rule.

Quartiles use :func:`statistics.quantiles` (``n=4``, exclusive method),
so the spread this benchmark reports is the one its acceptance rule is
stated in.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: Tail percentiles tried from the top; a workload fixes the highest
#: one its unit count leaves at least ``TAIL_MIN_BEYOND`` samples past.
TAIL_PERCENTILES = (99, 90, 75)
TAIL_MIN_BEYOND = 10


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted average of every order statistic instead of one
    interpolated pair: when latencies cluster on a few levels (a 50 ms
    scheduler tick, periodic GC pauses) the estimate moves smoothly
    with the share of samples on each level instead of jumping between
    levels from run to run.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        raise ValueError("percentile of no values")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def tail_percentile(samples: int) -> int:
    """Highest tail percentile with enough samples beyond it (0 if none)."""
    for q in TAIL_PERCENTILES:
        if samples * (100 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return 0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, Dict[str, float]]:
    """Classify ``change`` against ``parent`` for one metric.

    * ``unresolved`` -- either side's IQR/median exceeds ``bound`` and
      the change does not beat every parent run;
    * ``regressed`` -- the change's median is worse by more than
      ``bound``;
    * ``improved`` -- the change wins at least 90 % of the run pairs
      and its median is better by more than the parent's IQR (or, when
      the spread is too wide to resolve, every change run beats every
      parent run);
    * ``ok`` -- none of the above.
    """
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    _, parent_median, _ = quartiles(parent)
    _, change_median, _ = quartiles(change)
    spread = max(relative_spread(parent), relative_spread(change))
    direction = 1.0 if better == "lower" else -1.0
    worse_by = direction * (change_median - parent_median) / parent_median
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(1 for p, c in pairs if _better(c, p, better)) / len(pairs)
    detail = {"worse_by": worse_by, "spread": spread, "wins": wins}
    if spread > bound:
        return ("improved" if wins == 1.0 else "unresolved"), detail
    if worse_by > bound:
        return "regressed", detail
    if wins >= 0.9 and -worse_by > relative_spread(parent):
        return "improved", detail
    return "ok", detail


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}
