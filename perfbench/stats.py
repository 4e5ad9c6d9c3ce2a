"""Summary statistics shared by the runner and the baseline script."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: The tail percentile is the highest one with at least this many
#: samples strictly beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the op-latency tail.

    With ``n`` samples the percentile is ``(n - 10) / n``: the element
    at sorted index ``n - 11`` is the highest one that still has ten
    samples above it. The value is the Harrell-Davis estimate of that
    quantile (see :func:`quantile`) rather than that single element, so
    one more or one fewer slow op does not move it by a whole gap
    between neighbours. Fewer than eleven samples cannot satisfy the
    rule, so the median is reported instead, as percentile 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return statistics.median(values), 50.0, n
    share = (n - TAIL_BEYOND) / n
    return quantile(values, share), 100.0 * share, n


def quantile(values: Sequence[float], share: float) -> float:
    """Harrell-Davis estimate of the *share* quantile.

    A weighted average of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution, so the weight sits on the
    few order statistics around the quantile.
    """
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return float(ordered[0])
    edges = beta.cdf([i / n for i in range(n + 1)], (n + 1) * share,
                     (n + 1) * (1 - share))
    return float(sum((high - low) * value for low, high, value
                     in zip(edges, edges[1:], ordered)))


def median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median (:func:`quantile` at 0.5).

    Op latencies here are multimodal (a full garbage collection lands
    inside about half of the scan's ops), and the plain sample median
    jumps between the modes from run to run; this estimate moves
    smoothly with the share in each mode.
    """
    return quantile(values, 0.5)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


def summarise(runs: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-metric :func:`spread` over several runs' metric values."""
    names = sorted({name for run in runs for name in run})
    return {name: spread([run[name] for run in runs if name in run])
            for name in names}
