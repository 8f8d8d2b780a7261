"""Arithmetic of the benchmark's metrics, kept free of I/O so it can be
unit-tested on tiny inputs.

Timings are summarized as a median and a tail.  The tail is the highest
percentile that still has at least ten samples beyond it: with ``n`` sorted
samples that is the sample at 1-based rank ``n - 10``, percentile
``100 * (n - 10) / n``.  Fewer than eleven samples leave no percentile with
ten beyond it; the maximum is reported then, marked by a percentile of 100.
"""

from __future__ import annotations

import statistics

import numpy as np

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """Return ``(value, percentile)`` of the tail by the rule above."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    rank = n - TAIL_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / n


def timing_summary(values) -> dict[str, float]:
    """``p50``, ``tail``, ``tail_pct`` and sample count ``n``.

    An empty sample (the workload never called the function) reads as zero
    time over zero samples.
    """
    values = list(values)
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    value, pct = tail(values)
    return {"p50": float(statistics.median(values)), "tail": value, "tail_pct": pct, "n": len(values)}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children.

    ``spans`` is a sequence of ``(start, end, parent)`` where ``parent`` is
    the index of the enclosing span or -1.  Child intervals are clipped to
    the parent and merged before subtracting, so overlapping children are
    not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, [])):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def realized_cost(infected, controls, populations, gamma: float) -> float:
    """Closed-loop cost: infected summed over t >= 1 plus gamma times the
    isolated population summed over the applied controls."""
    infected = np.asarray(infected, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    isolated = float((controls @ np.asarray(populations, dtype=np.float64)).sum())
    return float(infected[1:].sum()) + gamma * isolated


def cost_ratio(infected, baseline_infected, controls, populations, gamma: float) -> float:
    """Realized closed-loop cost over the uncontrolled infections of the
    same window."""
    uncontrolled = float(np.asarray(baseline_infected, dtype=np.float64)[1:].sum())
    if uncontrolled <= 0.0:
        raise ValueError("uncontrolled run has no infections; cost ratio undefined")
    return realized_cost(infected, controls, populations, gamma) / uncontrolled


def useful_frac(trace, evaluations: int) -> float:
    """Evaluations up to the last improvement in a solver trace, over the
    evaluations spent."""
    if evaluations <= 0 or not trace:
        raise ValueError("a solve reports at least one evaluation and one trace entry")
    return float(trace[-1][0]) / float(evaluations)


def plan_repeat_frac(runs) -> float:
    """Share of steps after the first whose plan equals the previous step's,
    pooled over the control arrays of several runs; zero without such steps."""
    repeated = transitions = 0
    for controls in runs:
        controls = np.asarray(controls)
        repeated += int(np.all(controls[1:] == controls[:-1], axis=1).sum())
        transitions += max(controls.shape[0] - 1, 0)
    return repeated / transitions if transitions else 0.0
