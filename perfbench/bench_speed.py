"""Machine-speed reference for the timed phase.

The benchmark shares a few vCPUs of a host with other tenants, and the
speed at which fixed code runs there swings by up to a factor of two over
tens of seconds.  So the worker runs a fixed reference computation before
every op and after the last one, and scales each op time by
``REFERENCE_S / r``, where r is the median reference time around that op.
A scaled time reads as the op's duration on a machine where the reference
takes ``REFERENCE_S``; a change to ulat moves it as much as it moves the
wall time, while a swing of the host moves both the op and the reference.

The reference uses nothing from ulat.  It mixes interpreter work and small
and medium numpy calls, as the workloads do, and runs with the garbage
collector off, so that objects a workload keeps alive do not change its
time.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Seconds one reference takes on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
# at its usual speed; scaled op times are stated at this speed.
REFERENCE_S = 0.010
# Reference samples on each side of an op that its speed estimate uses.
WINDOW = 2

_MATRIX = np.array([[2.0, 1.0], [0.5, 3.0]])
_VECTOR = np.linspace(0.0, 1.0, 1 << 15)


def _reference_work() -> float:
    acc = 0
    for k in range(17_000):
        acc += k * k % 7
    m = _MATRIX
    for _ in range(80):
        q, r = np.linalg.qr(m)
        m = q @ r + 1e-9
    v = _VECTOR
    for _ in range(8):
        v = np.sqrt(np.abs(np.sin(v) + 0.5))
    return acc + float(m[0, 0]) + float(v[0])


def reference_s() -> float:
    """Run the reference once and return its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(durations, refs) -> list[float]:
    """Op durations scaled to the reference speed.

    ``refs`` has one more entry than ``durations``: ``refs[i]`` was taken
    just before op i and ``refs[i + 1]`` just after it.  Op i's speed
    estimate is the median of the references from ``WINDOW`` before it to
    ``WINDOW`` after it, which a single slow reference does not move.
    """
    if len(refs) != len(durations) + 1:
        raise ValueError("need one reference before every op and one after the last")
    out = []
    for i, d in enumerate(durations):
        r = statistics.median(refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        out.append(d * REFERENCE_S / r)
    return out
