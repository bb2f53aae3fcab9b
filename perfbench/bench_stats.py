"""Summary statistics of a timed phase; standard library only, so that the
runner can merge the phases of several worker processes."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has at least
    ``TAIL_BEYOND`` samples beyond it.

    With n sorted samples that is the sample of rank n - TAIL_BEYOND
    (1-based), at percentile 100 (n - TAIL_BEYOND) / n.  With too few
    samples for any such rank the maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cycle_rate(durations, completed, cycle: int) -> float:
    """Median over the whole cycles of each cycle's rate of completed ops
    (ops per second).  ``completed[k]`` tells whether op k returned.  Every
    cycle holds the same op mix, so the median discards the cycles that a
    passing slowdown of the machine hit."""
    whole = len(durations) - len(durations) % cycle
    rates = [
        sum(completed[k:k + cycle]) / math.fsum(durations[k:k + cycle])
        for k in range(0, whole, cycle)
    ]
    return statistics.median(rates)


def summarise(ops, cycle: int) -> dict:
    """Op-time metrics of a phase from its op rows
    ``[index, kind, wall_ms, scaled_ms, sha256 or None]``, in op order and
    in whole cycles.  An op with no digest raised and did not complete."""
    wall = [op[2] / 1e3 for op in ops]
    times = [op[3] / 1e3 for op in ops]
    completed = [op[4] is not None for op in ops]
    tail_s, tail_pct = tail(times)
    return {
        "attempted": len(ops),
        "elapsed_s": math.fsum(wall),
        "ops_per_s": cycle_rate(times, completed, cycle),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "mean_ops_per_s": sum(completed) / math.fsum(wall),
        "wall_ops_per_s": cycle_rate(wall, completed, cycle),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_tail_ms": tail(wall)[0] * 1e3,
    }
